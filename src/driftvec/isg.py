"""Incremental skip-gram: each slice is trained from the previous
slice's matrices, keeping all slices in one comparable vector space.

Per-epoch document order and negative draws are derived from
(seed, slice, epoch), so a run is reproducible bit for bit. Words that
never occur in a slice are never selected as centers there, so their
word vectors pass through the slice untouched (the lazy optimizer skips
them entirely).

The trainers' shared bookkeeping lives here and in ``sgns``: each
epoch's pair stream (:func:`epoch_batches`), each slice's held-out pairs
(:func:`holdout_pairs`), the row step of isg and dbe (:func:`row_step`),
the slice chain of isg and dsg (:func:`chain_slices`) and the per-epoch
trace (``sgns.record_epoch``). A slice trainer (:func:`train_slice`,
``dsg.dsg_filter_step``) starts from a ``(U, V)`` pair and returns
``({role: matrix}, trace)``, the step form of :func:`chain_slices`.
"""

import math

import numpy as np

from . import corpus as corpus_mod
from .adam import AdamState, adam_step_rows
from .errors import NumericalError
from .sgns import TrainConfig, TrainResult, batch_grad_rows, record_epoch

FORWARD = "forward"
BACKWARD = "backward"


def epoch_positives(slice_docs, window: int, seed_key) -> tuple:
    """Shuffle documents with a derived seed and extract positive pairs."""
    rng = np.random.default_rng(seed_key)
    order = rng.permutation(len(slice_docs)) if slice_docs else []
    shuffled = [slice_docs[i] for i in order]
    return corpus_mod.extract_pairs(shuffled, window)


def iter_minibatches(positives, draws, positives_per_batch: int):
    """Build an epoch's labelled minibatches, one at a time, from its
    ``(centers, contexts)`` positives and their (n, ratio) noise draws.

    Each minibatch is a ``(centers, contexts, labels)`` triple holding
    ``positives_per_batch`` positives (the last may hold fewer), each
    immediately followed by its noise pairs: label 1, then ``ratio``
    pairs of label 0 with the positive's center and the drawn contexts.
    Its arrays are new, read-only and int64, so a minibatch kept past
    the next one holds no part of the epoch's stream.
    """
    centers, contexts = positives
    group = 1 + draws.shape[1]
    for start in range(0, len(centers), positives_per_batch):
        block = slice(start, start + positives_per_batch)
        pair_contexts = np.concatenate([contexts[block, None], draws[block]], axis=1)
        labels = np.zeros_like(pair_contexts)
        labels[:, 0] = 1
        minibatch = (np.repeat(centers[block], group), pair_contexts.reshape(-1),
                     labels.reshape(-1))
        for array in minibatch:
            array.setflags(write=False)
        yield minibatch


def epoch_batches(slice_docs, vocab, config: TrainConfig, slice_index: int,
                  epoch: int):
    """The labelled pair stream of one slice and epoch, shared by all trainers.

    Documents are shuffled under the stream key ``[seed, t, epoch, 1]``
    and negatives drawn under ``[seed, t, epoch, 2]``. Returns
    ``(n_positives, minibatches)``; the minibatches are a lazy iterator
    of ``(centers, contexts, labels)`` (:func:`iter_minibatches`). Until
    it is exhausted, the stream holds each positive once plus its noise
    draws, (2 + ratio) int64 values per positive; once it is, it holds
    nothing.
    """
    positives = epoch_positives(slice_docs, config.window,
                                [config.seed, slice_index, epoch, 1])
    draws = corpus_mod.sample_negatives(vocab, positives, config.negative_ratio,
                                        [config.seed, slice_index, epoch, 2])
    return len(draws), iter_minibatches(positives, draws, config.batch_size)


def holdout_pairs(eval_corpus, window: int, T: int) -> list:
    """Each slice's held-out ``(centers, contexts)`` pairs from
    ``eval_corpus``, which must have the training corpus's ``T`` slices;
    None for each slice without an eval corpus."""
    if eval_corpus is None:
        return [None] * T
    if eval_corpus.T != T:
        raise ValueError(f"eval corpus has {eval_corpus.T} slices, but the "
                         f"training corpus has {T}")
    return [corpus_mod.extract_pairs(docs, window) for docs in eval_corpus.slices]


def row_step(minibatch, U, V, stateU, stateV, learning_rate, where: str, names) -> float:
    """Adam steps on the rows of ``U`` and ``V`` that ``minibatch`` touches; returns
    its lpos. Errors name the step by ``where`` and the matrices by ``names``."""
    u_rows, gU, v_rows, gV, loglik, lpos = batch_grad_rows(*minibatch, U, V)
    if not math.isfinite(loglik):
        raise NumericalError(f"non-finite loss at {where}")
    adam_step_rows(U, u_rows, gU, stateU, learning_rate, names[0])
    adam_step_rows(V, v_rows, gV, stateV, learning_rate, names[1])
    return lpos


def train_slice(slice_docs, vocab, prev, config: TrainConfig, slice_index: int = 0,
                eval_pairs=None):
    """Run ``config.epochs`` Adam-ascent passes over one slice, starting
    from ``prev``, a ``(U, V)`` pair that is not modified.

    ``slice_docs`` is the slice's document list (id arrays); negatives
    are redrawn each epoch. Returns ``({"word": U, "context": V}, trace)``
    where ``trace`` is a dict with per-epoch mean-per-pair training
    ``lpos`` (and ``holdout_lpos`` when ``eval_pairs`` is given).
    """
    U, V = (matrix.copy() for matrix in prev)
    if V.shape != U.shape:
        raise ValueError("init matrices must share (L, d)")
    stateU = AdamState.for_shape(U.shape)
    stateV = AdamState.for_shape(V.shape)
    trace = {}

    for epoch in range(config.epochs):
        n_pos, minibatches = epoch_batches(slice_docs, vocab, config, slice_index, epoch)
        lpos_sum = 0.0
        for b_idx, minibatch in enumerate(minibatches):
            lpos_sum += row_step(minibatch, U, V, stateU, stateV, config.learning_rate,
                                 f"slice {slice_index}, epoch {epoch}, batch {b_idx}", ("U", "V"))
        record_epoch(trace, lpos_sum, n_pos, eval_pairs, U, V)
    return {"word": U, "context": V}, trace


def chain_slices(corpus, init, direction: str, eval_pairs, step) -> TrainResult:
    """Train the slices oldest first for ``forward``, newest first for
    ``backward``. ``step(t, prev, eval_pairs[t])`` trains calendar slice
    ``t`` from ``prev``, the ``(U, V)`` pair ``init`` or the previous
    slice's ``word`` and ``context``, and returns ``({role: matrix}, trace)``."""
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown direction {direction!r}")
    T = corpus.T
    order = list(range(T)) if direction == FORWARD else list(range(T - 1, -1, -1))
    matrices, traces, prev = {}, {}, init
    for t in order:
        out, traces[t] = step(t, prev, eval_pairs[t])
        for role, matrix in out.items():
            matrices.setdefault(role, [None] * T)[t] = matrix
        prev = out["word"], out["context"]
    return TrainResult(matrices, traces, order)


def train_incremental(corpus, vocab, init, config: TrainConfig,
                      direction: str = FORWARD, eval_corpus=None) -> TrainResult:
    """Chain :func:`train_slice` across all slices.

    ``init`` is the ``(U, V)`` pair the first trained slice starts from.
    ``forward`` trains slice 0 from the initializer and each later slice
    from its predecessor; ``backward`` starts at the last slice and
    updates towards older ones. Returns a :class:`TrainResult` with the
    ``word`` and ``context`` matrices of every calendar slice.
    """
    def step(t, prev, pairs):
        return train_slice(corpus.slices[t], vocab, prev, config, slice_index=t,
                           eval_pairs=pairs)

    return chain_slices(corpus, init, direction,
                        holdout_pairs(eval_corpus, config.window, corpus.T), step)
