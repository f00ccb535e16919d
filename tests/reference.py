"""Dense reference objectives that the tests check the trainers' row-sparse
fast paths against. A batch is the ``(centers, contexts, labels)`` triple
the trainers use. Also the interleaved epoch stream that the trainers'
lazily built minibatches are checked against, the row-at-a-time
text writers that the block encoder's bytes are checked against, the
token-string ``synth`` generator that the id path is checked against, and
the per-word fill of a pretrained matrix that ``inits.load_pretrained``'s
one gather and one block draw are checked against.
"""

import numpy as np

from driftvec.adam import BETA1, BETA2, EPSILON
from driftvec.corpus import build_vocabulary, encode_sliced_docs, noise_distribution
from driftvec.dbe import DbeParams, dbe_prior
from driftvec.inits import OOV_SIGMA
from driftvec.sgns import load_embedding_text, log_sigmoid, sigmoid
from driftvec.shrinkreg import word_drifts
from driftvec.synth import (POOL_FRACTION, POOL_VOCAB_FRACTION, PLANTED_PERIOD, SynthResult,
                            _draw, _new_topic_weight, _rank_power_cdf, word_names)


def _pair_scores(batch, U, V):
    centers, contexts, _ = batch
    return np.einsum("ij,ij->i", U[centers], V[contexts])


def sgns_log_likelihood(batch, U: np.ndarray, V: np.ndarray):
    """Log-likelihood of a ``(centers, contexts, labels)`` batch of labelled pairs.

    Positives contribute log sigma(u.v), negatives log sigma(-u.v).
    Returns ``(total, positive_part)``.
    """
    labels = batch[2]
    scores = _pair_scores(batch, U, V)
    signs = np.where(labels == 1, 1.0, -1.0)
    terms = log_sigmoid(signs * scores)
    total = float(terms.sum())
    lpos = float(terms[labels == 1].sum())
    return total, lpos


def sgns_gradients(batch, U: np.ndarray, V: np.ndarray):
    """Analytic gradient of :func:`sgns_log_likelihood` w.r.t. U and V.

    d/du_i = sum_j (label - sigma(u_i.v_j)) v_j, and symmetrically for v.
    Rows absent from the batch have zero gradient.
    """
    centers, contexts, labels = batch
    gradU = np.zeros_like(U)
    gradV = np.zeros_like(V)
    scores = _pair_scores(batch, U, V)
    coef = labels.astype(np.float64) - sigmoid(scores)
    np.add.at(gradU, centers, coef[:, None] * V[contexts])
    np.add.at(gradV, contexts, coef[:, None] * U[centers])
    return gradU, gradV


def dbe_loss(batches, U_all, V: np.ndarray, params: DbeParams):
    """Joint objective over ``(t, batch)`` pairs, the form of a ``dbe._round_robin``
    sweep; each batch is scored against slice t's word matrix.

    Returns ``(total, likelihood, lpos, prior)`` where ``total`` is the
    maximized quantity (likelihood plus prior).
    """
    likelihood = 0.0
    lpos = 0.0
    for t, batch in batches:
        ll, lp = sgns_log_likelihood(batch, U_all[t], V)
        likelihood += ll
        lpos += lp
    prior = dbe_prior(U_all, V, params)
    return likelihood + prior, likelihood, lpos, prior


def hardshrink(x, beta: float):
    """x for x > beta, -x for x < -beta, 0 inside the dead zone.

    The dead zone is exact: |x| <= beta maps to 0.0 with no epsilon
    leakage. Works elementwise on arrays.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x > beta, x, np.where(x < -beta, -x, 0.0))
    if out.ndim == 0:
        return float(out)
    return out


def drift_regularizer(current: np.ndarray, reference: np.ndarray,
                      alpha: float, beta: float) -> float:
    """alpha * sum over words of hardshrink(drift_i, beta).

    Nonnegative because drifts are norms; zero whenever every drift sits
    inside the dead zone or alpha is 0.
    """
    if alpha == 0:
        return 0.0
    drifts = word_drifts(current, reference)
    return float(alpha * hardshrink(drifts, beta).sum())


def interleaved_negatives(vocab, positives, ratio: int, seed):
    """The whole epoch's labelled pair batch, built at once: three
    read-only int64 arrays of n * (1 + ratio) entries in which each
    positive (label 1) is immediately followed by its ``ratio`` noise
    pairs (label 0), drawn as ``corpus.sample_negatives`` draws them."""
    if ratio < 1:
        raise ValueError("negative ratio must be >= 1")
    centers, contexts = positives
    centers = np.asarray(centers, dtype=np.int64)
    contexts = np.asarray(contexts, dtype=np.int64)
    n = len(centers)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(noise_distribution(vocab))
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, rng.random(n * ratio), side="right")
    draws = np.minimum(draws, vocab.size - 1).reshape(n, ratio)

    group = 1 + ratio
    out_contexts = np.empty((n, group), dtype=np.int64)
    out_contexts[:, 0] = contexts
    out_contexts[:, 1:] = draws
    labels = np.zeros((n, group), dtype=np.int64)
    labels[:, 0] = 1
    batch = np.repeat(centers, group), out_contexts.reshape(-1), labels.reshape(-1)
    for array in batch:
        array.setflags(write=False)
    return batch


def interleaved_minibatches(batch, positives_per_batch: int, ratio: int):
    """Chunk an :func:`interleaved_negatives` batch into minibatches of
    the same form; chunk boundaries land on group multiples."""
    step = positives_per_batch * (1 + ratio)
    for start in range(0, len(batch[0]), step):
        yield tuple(array[start:start + step] for array in batch)


def save_embedding_text(path, words, matrix) -> None:
    """The text format written a row at a time with ``%``: the oracle of
    ``sgns.save_embedding_text``."""
    line = "%s " + " ".join(["%.17g"] * matrix.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix):
            fh.write(line % (word, *row.tolist()))


def load_pretrained(path, vocab, oov_seed):
    """The pretrained matrix filled a word at a time, one draw per word the
    file lacks: the oracle of ``inits.load_pretrained``. Returns
    ``(matrix, missing_words)``."""
    words, matrix = load_embedding_text(path)
    lookup = {word: i for i, word in enumerate(words)}
    dim = matrix.shape[1]
    out = np.empty((vocab.size, dim))
    rng = np.random.default_rng([oov_seed, 0x00f])
    missing = []
    for i, word in enumerate(vocab.words):
        j = lookup.get(word)
        if j is None:
            missing.append(word)
            out[i] = rng.normal(0.0, OOV_SIGMA, size=dim)
        else:
            out[i] = matrix[j]
    return out, missing


def save_adam_state(state, path) -> None:
    """An Adam state file written a row at a time with ``%``: the oracle
    of ``adam.save_adam_state``."""
    with open(path, "w", encoding="utf-8") as fh:
        rows, cols = state.m.shape
        fh.write(f"{rows} {cols} {state.step_count} "
                 f"{BETA1:.17g} {BETA2:.17g} {EPSILON:.17g}\n")
        line = " ".join(["%.17g"] * cols) + "\n"
        for mat in (state.m, state.v):
            for row in mat:
                fh.write(line % tuple(row.tolist()))


def synth_generate(spec):
    """``synth.generate`` drawing token strings, counting them with a
    ``Counter`` and encoding them through a dict: the oracle of the id
    path."""
    spec.validate()
    names = word_names(spec.vocab_size)
    planted = {c.word for c in spec.planted_changes}
    for c in spec.planted_changes:
        if c.word not in names:
            raise ValueError(f"planted word {c.word!r} is not a generated vocabulary word")

    pool_size = max(2, round(spec.vocab_size * POOL_VOCAB_FRACTION))
    pool = [w for w in names[:pool_size] if w not in planted]
    rest = [w for w in names[pool_size:] if w not in planted]
    K = len(spec.topics)
    if len(rest) < K:
        raise ValueError("vocabulary too small for the requested topics")
    topic_words = [rest[k::K] for k in range(K)]

    pool_cdf = _rank_power_cdf(len(pool), spec.pool_skew)
    topic_cdfs = [_rank_power_cdf(len(topic_words[k]), spec.topics[k].skew)
                  for k in range(K)]
    pool_arr = np.array(pool)
    topic_arrs = [np.array(ws) for ws in topic_words]

    n_docs = -(-spec.tokens_per_slice // spec.doc_length)
    n_planted_each = round(n_docs * spec.planted_doc_fraction)
    n_normal = n_docs - n_planted_each * len(spec.planted_changes)
    raw_slices = []
    for t in range(spec.T):
        rng = np.random.default_rng([spec.seed, t, 0x517])
        docs = []
        for c in spec.planted_changes:
            w_new = _new_topic_weight(c, t, spec.T)
            for _ in range(n_planted_each):
                docs.append(_synth_planted_doc(rng, c, w_new, spec, pool_arr, pool_cdf,
                                               topic_arrs, topic_cdfs))
        if n_normal > 0:
            docs.extend(_synth_normal_docs(rng, n_normal, spec, pool_arr, pool_cdf,
                                           topic_arrs, topic_cdfs))
        order = rng.permutation(len(docs))
        raw_slices.append([docs[i] for i in order])

    vocab = build_vocabulary(raw_slices, set(), spec.vocab_size)
    corpus = encode_sliced_docs(raw_slices, vocab)
    return SynthResult(corpus=corpus, vocab=vocab,
                       changes=tuple(spec.planted_changes), raw_slices=raw_slices)


def _synth_normal_docs(rng, n_docs, spec, pool_arr, pool_cdf, topic_arrs, topic_cdfs):
    K = len(topic_arrs)
    dl = spec.doc_length
    total = n_docs * dl
    doc_topic = rng.integers(0, K, size=n_docs)
    token_topic = np.repeat(doc_topic, dl)
    from_pool = rng.random(total) < POOL_FRACTION
    out = np.empty(total, dtype=object)
    out[from_pool] = pool_arr[_draw(rng, pool_cdf, int(from_pool.sum()))]
    for k in range(K):
        mask = (~from_pool) & (token_topic == k)
        out[mask] = topic_arrs[k][_draw(rng, topic_cdfs[k], int(mask.sum()))]
    return [list(out[i * dl:(i + 1) * dl]) for i in range(n_docs)]


def _synth_planted_doc(rng, change, new_weight, spec, pool_arr, pool_cdf,
                       topic_arrs, topic_cdfs):
    dl = spec.doc_length
    tokens = np.empty(dl, dtype=object)
    slots = np.arange(dl) % PLANTED_PERIOD == 0
    n_ctx = int((~slots).sum())
    from_pool = rng.random(n_ctx) < POOL_FRACTION
    use_new = rng.random(n_ctx) < new_weight
    ctx = np.empty(n_ctx, dtype=object)
    n_pool = int(from_pool.sum())
    ctx[from_pool] = pool_arr[_draw(rng, pool_cdf, n_pool)]
    for topic, mask in ((change.new_topic, (~from_pool) & use_new),
                        (change.old_topic, (~from_pool) & ~use_new)):
        ctx[mask] = topic_arrs[topic][_draw(rng, topic_cdfs[topic], int(mask.sum()))]
    tokens[slots] = change.word
    tokens[~slots] = ctx
    return list(tokens)
