"""Dynamic Bernoulli embeddings.

Per-slice word vectors share a single context matrix and are trained
jointly over all slices. A Gaussian random-walk prior couples
consecutive slices (precision ``drift_precision``) while base parameters
(the context matrix and slice-0 word matrix) carry a zero-mean prior
with precision ``base_precision``. The data terms use the same positive
and negative pair log-likelihoods as the skip-gram objective, scored
against the shared context matrix.

The held-out pairs, the per-epoch trace and the minibatch step are isg's
(``isg.holdout_pairs``, ``sgns.record_epoch``, ``isg.row_step``), and the
drift penalty's threshold is recorded by ``shrinkreg.record_beta``, as in dsg.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adam import AdamState, adam_step
from .isg import epoch_batches, holdout_pairs, row_step
from .isg import epoch_positives  # noqa: F401 -- bench/layers.py patches this name
from .sgns import TrainConfig, TrainResult, record_epoch
from .sgns import batch_grad_rows  # noqa: F401 -- bench/layers.py patches this name
from . import shrinkreg


@dataclass
class DbeParams:
    drift_precision: float = 1.0    # pulls u_{i,t} toward u_{i,t-1}
    base_precision: float = 0.01    # zero-mean pull on V and U_0

    def __post_init__(self):
        if not all(math.isfinite(p) and p > 0 for p in (self.drift_precision,
                                                          self.base_precision)):
            raise ValueError("precisions must be > 0 and finite")


def dbe_prior(U_all, V: np.ndarray, params: DbeParams) -> float:
    """Log of the random-walk prior (up to its normalizing constant).

    Always <= 0, and 0 exactly when every parameter is 0. Consecutive
    identical word matrices contribute no drift penalty.
    """
    lam0 = params.base_precision
    lam = params.drift_precision
    total = -0.5 * lam0 * float((V ** 2).sum())
    total += -0.5 * lam0 * float((U_all[0] ** 2).sum())
    for t in range(1, len(U_all)):
        diff = U_all[t] - U_all[t - 1]
        total += -0.5 * lam * float((diff ** 2).sum())
    return total


def dbe_prior_grads(U_all, V: np.ndarray, params: DbeParams):
    """Gradients of :func:`dbe_prior` w.r.t. every word matrix and V."""
    lam0 = params.base_precision
    lam = params.drift_precision
    T = len(U_all)
    gradU = [np.zeros_like(U) for U in U_all]
    gradU[0] -= lam0 * U_all[0]
    for t in range(1, T):
        diff = U_all[t] - U_all[t - 1]
        gradU[t] -= lam * diff
        gradU[t - 1] += lam * diff
    gradV = -lam0 * V
    return gradU, gradV


def _round_robin(per_slice_batches):
    """Group mini-batches into round-robin sweeps.

    Sweep k holds the k-th mini-batch of every slice that has one, in
    slice order; each sweep is yielded as a list of ``(t, batch)``. A
    slice's next mini-batch is taken only as its sweep is built, so
    lazy per-slice iterators are read one mini-batch at a time.
    """
    pending = [(t, iter(batches)) for t, batches in enumerate(per_slice_batches)]
    while True:
        taken = [(t, batches, next(batches, None)) for t, batches in pending]
        pending = [(t, batches) for t, batches, batch in taken if batch is not None]
        if not pending:
            return
        yield [(t, batch) for t, _, batch in taken if batch is not None]


def sweep_prior_grads(U_all, V: np.ndarray, params: DbeParams, weight: float,
                      penalty=None):
    """Ascent direction of one sweep's dense prior step.

    ``weight`` times the gradient of :func:`dbe_prior`; with ``penalty``
    given as ``(reg, ref, betas)``, ``weight`` times the HardShrink
    drift-penalty gradient of every slice after the first is subtracted.
    Returns ``(gradU, gradV)`` like :func:`dbe_prior_grads`.
    """
    gradU, gradV = dbe_prior_grads(U_all, V, params)
    for g in (*gradU, gradV):
        g *= weight
    if penalty is not None:
        reg, ref, betas = penalty
        for s in range(1, len(U_all)):
            gradU[s] -= weight * shrinkreg.drift_regularizer_grad(
                U_all[s], ref, reg.alpha, betas[s])
    return gradU, gradV


def train_dbe(corpus, vocab, init, params: DbeParams, config: TrainConfig,
              reg: shrinkreg.RegConfig | None = None, eval_corpus=None):
    """Joint Adam ascent on the Bernoulli objective.

    ``init`` is ``(U0, V0)``; every slice's word matrix starts as a copy
    of ``U0`` so the random walk begins with zero drift. Each epoch
    visits mini-batches from all slices in round-robin sweeps (one
    mini-batch per slice that still has one). A mini-batch of slice t
    takes a likelihood step on just the rows of ``U[t]`` and ``V`` it
    touches. After each sweep, one dense step on every matrix applies
    the prior gradient scaled by the sweep's share of the epoch's
    positive pairs; the shares sum to 1, so one epoch applies the full
    prior exactly once, and the dense work per epoch grows linearly in
    the slice count.

    The drift penalty, when enabled, joins the prior step. It measures
    each slice against a snapshot of slice 0 taken at the start of the
    epoch; its thresholds are frozen for the epoch alongside the
    snapshot, and each slice after the first records its own per epoch
    in its trace's ``reg_beta``.

    Returns a :class:`TrainResult` with every slice's ``word`` matrix,
    the shared ``context`` matrix, the log prior after each epoch and
    the final Adam states, ``u<t>`` per word matrix and ``ctx``.
    """
    U0, V0 = init
    T = corpus.T
    L, d = U0.shape
    U_all = [U0.copy() for _ in range(T)]
    V = V0.copy()
    statesU = [AdamState.for_shape((L, d)) for _ in range(T)]
    stateV = AdamState.for_shape((L, d))

    reg_active = reg is not None and reg.alpha > 0
    traces = {t: {} for t in range(T)}
    prior_trace = []
    eval_pairs = holdout_pairs(eval_corpus, config.window, T)

    for epoch in range(config.epochs):
        pos_counts, per_slice = zip(*(epoch_batches(corpus.slices[t], vocab, config, t, epoch)
                                      for t in range(T)))
        total_pos = sum(pos_counts)

        penalty = None
        if reg_active:
            ref = U_all[0].copy()
            betas = [0.0] + [shrinkreg.record_beta(traces[t], reg, U_all[t], ref)
                             for t in range(1, T)]
            penalty = (reg, ref, betas)

        lpos_sums = [0.0] * T
        for k, sweep in enumerate(_round_robin(per_slice)):
            sweep_pos = 0
            for t, minibatch in sweep:
                where = f"slice {t}, epoch {epoch}, batch {k}"
                lpos_sums[t] += row_step(minibatch, U_all[t], V, statesU[t], stateV,
                                         config.learning_rate, where, (f"U[{t}]", "V"))
                sweep_pos += int(minibatch[2].sum())

            gradU, gradV = sweep_prior_grads(U_all, V, params,
                                             sweep_pos / total_pos, penalty)
            for s in range(T):
                adam_step(U_all[s], gradU[s], statesU[s], config.learning_rate,
                          f"U[{s}]")
            adam_step(V, gradV, stateV, config.learning_rate, "V")
            # free the T+1 dense gradients before the next sweep's
            # likelihood steps allocate their own temporaries
            del gradU, gradV

        for t in range(T):
            record_epoch(traces[t], lpos_sums[t], pos_counts[t], eval_pairs[t], U_all[t], V)
        prior_trace.append(dbe_prior(U_all, V, params))

    adam = {**{f"u{t}": state for t, state in enumerate(statesU)}, "ctx": stateV}
    return TrainResult({"word": U_all, "context": [V]}, traces, list(range(T)),
                       prior_trace, adam)
