"""Memory held by an epoch's pair stream, measured with tracemalloc on one
synthetic slice of about 50k positive pairs.

The stream holds each positive once, plus its noise draws, and no
trainer keeps a finished epoch's stream while it builds the next one.
"""

import tracemalloc

import numpy as np
import pytest

from driftvec.corpus import TimeSlicedCorpus, Vocabulary
from driftvec.inits import init_random, train_model
from driftvec.isg import epoch_batches
from driftvec.sgns import TrainConfig

L = 40
RATIO = 2
BATCH = 512
INT64 = 8
# interpreter objects around the arrays: the generator, its frame, tuples
SLACK = 32 * 1024


def synthetic_slice():
    # 540 documents of 25 tokens at window 2: 540 * 2 * (24 + 23) = 50,760 positives
    rng = np.random.default_rng(0)
    docs = tuple(rng.integers(0, L, 25) for _ in range(540))
    counts = np.bincount(np.concatenate(docs), minlength=L).astype(np.int64)
    vocab = Vocabulary(words=tuple(f"w{i}" for i in range(L)), total_count=counts)
    return vocab, TimeSlicedCorpus(slices=(docs,))


def config(epochs=1):
    return TrainConfig(dim=4, window=2, negative_ratio=RATIO, batch_size=BATCH,
                       epochs=epochs, seed=0)


def stream_bytes(n_positives):
    """Each positive's center and context plus its ``RATIO`` noise draws."""
    return (2 + RATIO) * n_positives * INT64


def test_epoch_stream_holds_each_positive_once():
    vocab, corpus = synthetic_slice()
    minibatch_bytes = 3 * (1 + RATIO) * BATCH * INT64
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        n, minibatches = epoch_batches(corpus.slices[0], vocab, config(), 0, 0)
        assert n == 50_760
        assert tracemalloc.get_traced_memory()[0] - base <= stream_bytes(n) + SLACK
        for minibatch in minibatches:
            held = tracemalloc.get_traced_memory()[0] - base
            assert held <= stream_bytes(n) + minibatch_bytes + SLACK
        del minibatch
        # an exhausted stream holds nothing
        assert tracemalloc.get_traced_memory()[0] - base <= SLACK
    finally:
        tracemalloc.stop()


def traced_peak(kind, epochs):
    vocab, corpus = synthetic_slice()
    init = init_random(L, 4, 0, kind)
    tracemalloc.start()
    try:
        train_model(kind, corpus, vocab, init, config(epochs))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["isg", "dsg", "dbe"])
def test_trainer_never_holds_two_epoch_streams(kind):
    # both runs build one epoch's stream from the same model state; a
    # trainer that kept epoch 0's stream while building epoch 1's would
    # peak higher by that whole stream
    assert traced_peak(kind, 2) - traced_peak(kind, 1) < stream_bytes(50_760) // 2
