import numpy as np
import pytest

from driftvec.corpus import build_vocabulary, encode_sliced_docs, tokenize


def sliced_from_strings(slices):
    """Per-slice lists of document strings -> per-slice token lists."""
    return [[tokenize(doc) for doc in docs] for docs in slices]


def toy_corpus(slices, stopwords=(), max_size=10_000):
    """Build (vocab, corpus) from per-slice document strings."""
    sliced = sliced_from_strings(slices)
    vocab = build_vocabulary(sliced, set(stopwords), max_size)
    corpus = encode_sliced_docs(sliced, vocab)
    return vocab, corpus


def make_batch(centers, contexts, labels):
    """A ``(centers, contexts, labels)`` batch of int64 arrays."""
    return tuple(np.asarray(a, dtype=np.int64) for a in (centers, contexts, labels))


def dense_likelihood_grads(shape, *sides):
    """``dsg.sampled_likelihood_grads``' row-form sides scattered into zero
    arrays: ``[gmuU, glvU, gmuV, glvV]`` from ``(u_rows, gmuU, glvU)`` and
    ``(v_rows, gmuV, glvV)``."""
    dense = []
    for rows, *grads in sides:
        for grad in grads:
            full = np.zeros(shape)
            full[rows] += grad
            dense.append(full)
    return dense


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
