"""Dynamically filtered Bayesian skip-gram.

Each slice keeps a fully factorized Gaussian posterior over both
embedding matrices. The posterior mean of slice t-1 defines, through a
diffusion step combined with a zero-mean anchor, the prior of slice t;
the variational parameters are then fitted by Adam ascent on the
evidence lower bound. Only means pass from slice to slice, so a run
starts from a plain ``(U, V)`` pair of initial means, like the
point-estimate models. A filter step returns ``({role: matrix}, trace)``
like ``isg.train_slice``, with the variances under ``var`` and
``context_var``.

The bound has three parts: the data term of the skip-gram likelihood
estimated with reparameterized draws, the expected log-prior in closed
form, and an entropy term that by default is the plain sum of posterior
variances (the coarse approximation this model family uses). Pass
``entropy_mode="exact"`` for the true Gaussian entropy instead. The
filter step evaluates the bound once per epoch, into its trace's
``elbo``. The likelihood gradient stays on the rows a minibatch touches;
each dense gradient is the prior/entropy gradient plus those rows.

The slice chain, the held-out pairs and the per-epoch trace are the
ones isg uses (``isg.chain_slices``, ``isg.holdout_pairs``,
``sgns.record_epoch``); the drift penalty's threshold is recorded by
``shrinkreg.record_beta``, as in dbe.

A filter step runs on two threads with no setting to choose: a helper
draws the next minibatch's noise and steps the context side while the
word side steps on the calling thread. numpy's generator fills and large
ufuncs release the GIL, so the two overlap. Each noise stream and each
matrix stays on one thread and sees the serial order's operations, so
the results are the same bits on any number of cores.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adam import AdamState, adam_step
from .errors import NumericalError
from .isg import FORWARD, chain_slices, epoch_batches, holdout_pairs
from .isg import epoch_positives  # noqa: F401 -- bench/layers.py patches this name
from .sgns import TrainConfig, TrainResult, batch_grad_rows, record_epoch, touched_rows
from . import shrinkreg

ENTROPY_SUM_VAR = "sum_var"
ENTROPY_EXACT = "exact"

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class DsgParams:
    diffusion_var: float = 1.0      # variance of the slice-to-slice random walk
    anchor_var: float = 0.1         # variance of the zero-mean prior applied each slice
    samples_per_step: int = 1
    entropy_mode: str = ENTROPY_SUM_VAR

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.diffusion_var, self.anchor_var)):
            raise ValueError("diffusion_var and anchor_var must be > 0 and finite")
        for name in ("diffusion_var", "anchor_var"):
            if not math.isfinite(1.0 / getattr(self, name)):
                raise ValueError(f"{name} must be large enough that its reciprocal, "
                                 f"a prior precision, is finite")
        if not math.isfinite(1.0 / self.diffusion_var + 1.0 / self.anchor_var):
            raise ValueError("the prior precisions 1/diffusion_var + 1/anchor_var "
                             "must have a finite sum")
        if self.samples_per_step < 1:
            raise ValueError("samples_per_step must be >= 1")
        if self.entropy_mode not in (ENTROPY_SUM_VAR, ENTROPY_EXACT):
            raise ValueError(f"unknown entropy_mode {self.entropy_mode!r}")


def combine_priors(prev_mean: np.ndarray, diffusion_var: float,
                   anchor_var: float):
    """Product of N(prev_mean, diffusion_var) and N(0, anchor_var).

    Precisions add, so the combined variance is below both inputs and
    the mean is the precision-weighted shrink of ``prev_mean`` toward 0.
    Returns ``(mean_matrix, variance)`` with a scalar variance shared by
    every entry.
    """
    if diffusion_var <= 0 or anchor_var <= 0:
        raise ValueError("variances must be > 0")
    precision = 1.0 / diffusion_var + 1.0 / anchor_var
    variance = 1.0 / precision
    mean = prev_mean * ((1.0 / diffusion_var) / precision)
    return mean, variance


def expected_log_gaussian(mu: np.ndarray, var: np.ndarray, prior) -> float:
    """E_q[log N(x; prior)] for diagonal q, summed over entries; ``prior`` is ``(mean, s2)``."""
    mean, s2 = prior
    n = mu.size
    quad = (var.sum() + ((mu - mean) ** 2).sum()) / (2.0 * s2)
    return float(-0.5 * n * (_LOG_2PI + math.log(s2)) - quad)


def entropy_value(variances, mode: str) -> float:
    """Entropy term of the bound over one or more variance matrices."""
    total = 0.0
    for var in variances:
        if mode == ENTROPY_SUM_VAR:
            total += float(var.sum())
        else:
            total += float(0.5 * np.log(2.0 * math.pi * math.e * var).sum())
    return total


def sampled_likelihood_grads(centers, contexts, labels, muU, logvarU,
                             muV, logvarV, epsU, epsV):
    """Data term of the bound under fixed standard-normal draws.

    ``epsU``/``epsV`` are (samples, L, d) draw stacks; one draw per row
    per sample, shared by every pair touching the row. Returns the
    averaged value, its positive part, and per side the touched rows with
    the mean and log-variance gradients on them (zero on every other row):
    ``(value, lpos, (u_rows, gmuU, glvU), (v_rows, gmuV, glvV))``.

    Only rows the batch touches are sampled: the likelihood kernel runs
    on compact blocks of those rows, with the pair ids renumbered.
    """
    S = epsU.shape[0]
    u_rows, centers_c = touched_rows(centers, len(muU))
    v_rows, contexts_c = touched_rows(contexts, len(muV))
    sigU = np.exp(0.5 * logvarU[u_rows])
    sigV = np.exp(0.5 * logvarV[v_rows])
    value = 0.0
    lpos = 0.0
    gmuU, glvU, gmuV, glvV = (np.zeros(sig.shape) for sig in (sigU, sigU, sigV, sigV))
    for s in range(S):
        _, gU, _, gV, loglik, batch_lpos = batch_grad_rows(
            centers_c, contexts_c, labels,
            muU[u_rows] + sigU * epsU[s][u_rows],
            muV[v_rows] + sigV * epsV[s][v_rows])
        value += loglik
        lpos += batch_lpos
        gmuU += gU
        glvU += gU * (0.5 * sigU * epsU[s][u_rows])
        gmuV += gV
        glvV += gV * (0.5 * sigV * epsV[s][v_rows])
    inv = 1.0 / S
    for grad in (gmuU, glvU, gmuV, glvV):
        grad *= inv
    return value * inv, lpos * inv, (u_rows, gmuU, glvU), (v_rows, gmuV, glvV)


def _prior_entropy_grads(mu, logvar, prior, mode: str):
    """Gradients of expected log-prior + entropy w.r.t. (mu, logvar), as two
    new arrays; ``prior`` is the ``(mean, s2)`` pair of :func:`combine_priors`."""
    mean, s2 = prior
    var = np.exp(logvar)
    gmu = -(mu - mean) / s2
    glv = -var / (2.0 * s2)
    if mode == ENTROPY_SUM_VAR:
        glv = glv + var
    else:
        glv = glv + 0.5
    return gmu, glv


def _draw_noise(rng, shape):
    """The word and then the context noise of one minibatch: two fresh
    ``rng.standard_normal(shape)`` arrays."""
    return rng.standard_normal(shape), rng.standard_normal(shape)


def dsg_filter_step(slice_docs, vocab, prev_means, params: DsgParams,
                    config: TrainConfig, slice_index: int = 0,
                    reg: shrinkreg.RegConfig | None = None,
                    ref_mean: np.ndarray | None = None,
                    eval_pairs=None):
    """One filtering update: previous posterior means -> slice prior -> new posterior.

    ``prev_means`` is the ``(U, V)`` pair of the previous posterior's
    means. The prior is their diffusion/anchor combination; the
    variational parameters start at that prior and are optimized for
    ``config.epochs`` epochs. Variances are optimized through their
    logarithm so they stay positive.

    Each minibatch steps all four variational matrices on its likelihood
    gradient plus its share of the prior/entropy gradient. A slice with
    no pairs still takes one prior/entropy-only step per epoch, on an
    empty minibatch whose likelihood gradient is exactly zero.

    When ``reg.alpha`` > 0 and ``ref_mean`` is given, the drift penalty
    against ``ref_mean`` is subtracted from the bound; its threshold is
    refreshed at each epoch start.

    One helper thread, joined before this returns or raises, runs beside
    the minibatch loop: it draws minibatch b+1's noise while b's
    likelihood runs, then takes b's V-side step while the U side steps
    here. Errors surface in the serial order (bound, then ``muU``,
    ``logvarU``, ``muV``, ``logvarV``).

    Returns ``({role: matrix}, trace)``: the posterior means under ``word``
    and ``context``, their variances under ``var`` and ``context_var``.
    """
    L, d = prev_means[0].shape
    # index 0 is the word matrix U, index 1 the context matrix V
    priors = [combine_priors(mean, params.diffusion_var, params.anchor_var)
              for mean in prev_means]
    mus = [mean.copy() for mean, _ in priors]
    logvars = [np.full((L, d), math.log(s2)) for _, s2 in priors]
    states = {name: AdamState.for_shape((L, d)) for name in ("muU", "logvarU", "muV", "logvarV")}
    trace = {"elbo": []}
    reg_active = reg is not None and reg.alpha > 0 and ref_mean is not None

    def step_side(side, frac, beta, mu, logvar, prior, rows, like_mu, like_lv):
        gmu, glv = _prior_entropy_grads(mu, logvar, prior, params.entropy_mode)
        for grad, like_grad in ((gmu, like_mu), (glv, like_lv)):
            grad *= frac
            grad[rows] += like_grad
        if reg_active and side == "U":
            gmu -= frac * shrinkreg.drift_regularizer_grad(mu, ref_mean, reg.alpha, beta)
        for name, param, grad in ((f"mu{side}", mu, gmu), (f"logvar{side}", logvar, glv)):
            adam_step(param, grad, states[name], config.learning_rate, name)

    with ThreadPoolExecutor(max_workers=1) as helper:
        for epoch in range(config.epochs):
            total_pos, minibatches = epoch_batches(slice_docs, vocab, config,
                                                   slice_index, epoch)
            eps_rng = np.random.default_rng([config.seed, slice_index, epoch, 3])
            draw = helper.submit(_draw_noise, eps_rng, (params.samples_per_step, L, d))

            beta = shrinkreg.record_beta(trace, reg, mus[0], ref_mean) if reg_active else 0.0

            like_sum = 0.0
            lpos_sum = 0.0
            n_batches = -(-total_pos // config.batch_size)
            if not n_batches:
                n_batches, minibatches = 1, [(np.empty(0, dtype=np.int64),) * 3]
            for b_idx, (centers, contexts, labels) in enumerate(minibatches):
                frac = (int(labels.sum()) / total_pos) if total_pos else 1.0
                eps = draw.result()
                if b_idx + 1 < n_batches:
                    draw = helper.submit(_draw_noise, eps_rng, (params.samples_per_step, L, d))
                like, batch_lpos, like_u, like_v = sampled_likelihood_grads(
                    centers, contexts, labels, mus[0], logvars[0], mus[1], logvars[1], *eps)
                if not math.isfinite(like):
                    raise NumericalError(
                        f"non-finite bound at slice {slice_index}, epoch {epoch}, batch {b_idx}")
                like_sum += like
                lpos_sum += batch_lpos

                # an error on the U side is raised before the V side's, as in
                # the serial order; leaving the block joins the V job either way
                v_step = helper.submit(step_side, "V", frac, beta, mus[1], logvars[1],
                                       priors[1], *like_v)
                step_side("U", frac, beta, mus[0], logvars[0], priors[0], *like_u)
                v_step.result()

            variances = [np.exp(logvar) for logvar in logvars]
            if not all(var.all() for var in variances):
                raise NumericalError(f"posterior variance underflowed to 0 at slice "
                                     f"{slice_index}, epoch {epoch}")
            log_prior = sum(expected_log_gaussian(mu, var, prior)
                            for mu, var, prior in zip(mus, variances, priors))
            entropy = entropy_value(variances, params.entropy_mode)
            trace["elbo"].append(like_sum + log_prior + entropy)
            record_epoch(trace, lpos_sum, total_pos, eval_pairs, *mus)

    return {"word": mus[0], "var": variances[0],
            "context": mus[1], "context_var": variances[1]}, trace


def train_dsg(corpus, vocab, init, params: DsgParams, config: TrainConfig,
              direction: str = FORWARD, reg: shrinkreg.RegConfig | None = None,
              eval_corpus=None) -> TrainResult:
    """Chain filter steps across slices.

    ``init`` is a ``(U, V)`` pair of (L, d) arrays acting as the means of
    the virtual posterior before the first trained slice; they seed the
    first prior. Posteriors are returned indexed by calendar slice. The
    drift penalty, when enabled, measures drift against the first
    trained slice's posterior mean.

    Returns a :class:`TrainResult`: posterior means under ``word`` and
    ``context``, posterior variances under ``var`` and ``context_var``.
    """
    ref_mean = None

    def step(t, prev, pairs):
        nonlocal ref_mean
        out, trace = dsg_filter_step(corpus.slices[t], vocab, prev, params, config,
                                     slice_index=t, reg=reg, ref_mean=ref_mean,
                                     eval_pairs=pairs)
        if ref_mean is None:
            ref_mean = out["word"]
        return out, trace

    return chain_slices(corpus, init, direction,
                        holdout_pairs(eval_corpus, config.window, corpus.T), step)
