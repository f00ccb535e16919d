"""Dynamically filtered Bayesian skip-gram.

Each slice keeps a fully factorized Gaussian posterior over both
embedding matrices. The posterior mean of slice t-1 defines, through a
diffusion step combined with a zero-mean anchor, the prior of slice t;
the variational parameters are then fitted by Adam ascent on the
evidence lower bound.

The bound has three parts: the data term of the skip-gram likelihood
estimated with reparameterized draws, the expected log-prior in closed
form, and an entropy term that by default is the plain sum of posterior
variances (the coarse approximation this model family uses). Pass
``entropy_mode="exact"`` for the true Gaussian entropy instead.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import corpus as corpus_mod
from .adam import AdamState, adam_step
from .errors import NumericalError
from .isg import FORWARD, epoch_batches, training_order
from .isg import epoch_positives  # noqa: F401 -- bench/layers.py patches this name
from .sgns import TrainConfig, batch_grad_rows, mean_lpos, sgns_log_likelihood, touched_rows
from . import shrinkreg

ENTROPY_SUM_VAR = "sum_var"
ENTROPY_EXACT = "exact"

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class GaussianEmbeddingMatrix:
    """Diagonal-Gaussian embedding matrix: per-entry mean and variance."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.variance.shape:
            raise ValueError("mean and variance shapes differ")
        if np.any(self.variance <= 0):
            raise ValueError("variance entries must be positive")


@dataclass
class DsgParams:
    diffusion_var: float = 1.0      # variance of the slice-to-slice random walk
    anchor_var: float = 0.1         # variance of the zero-mean prior applied each slice
    samples_per_step: int = 1
    entropy_mode: str = ENTROPY_SUM_VAR

    def __post_init__(self):
        if self.diffusion_var <= 0 or self.anchor_var <= 0:
            raise ValueError("diffusion_var and anchor_var must be > 0")
        if self.samples_per_step < 1:
            raise ValueError("samples_per_step must be >= 1")
        if self.entropy_mode not in (ENTROPY_SUM_VAR, ENTROPY_EXACT):
            raise ValueError(f"unknown entropy_mode {self.entropy_mode!r}")


@dataclass(frozen=True)
class GaussianPrior:
    mean: np.ndarray
    variance: float


@dataclass(frozen=True)
class ElboTerms:
    likelihood: float
    log_prior: float
    entropy: float

    @property
    def total(self):
        return self.likelihood + self.log_prior + self.entropy


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


def expected_log_gaussian(mu: np.ndarray, var: np.ndarray,
                          prior: GaussianPrior) -> float:
    """E_q[log N(x; prior)] for diagonal q, summed over entries."""
    s2 = prior.variance
    n = mu.size
    quad = (var.sum() + ((mu - prior.mean) ** 2).sum()) / (2.0 * s2)
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
    averaged value, its positive part, and dense gradients w.r.t. the
    four variational parameter matrices.

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
    gmuU, glvU, gmuV, glvV = (np.zeros(muU.shape) for _ in range(4))
    for s in range(S):
        _, gU, _, gV, loglik, batch_lpos = batch_grad_rows(
            centers_c, contexts_c, labels,
            muU[u_rows] + sigU * epsU[s][u_rows],
            muV[v_rows] + sigV * epsV[s][v_rows])
        value += loglik
        lpos += batch_lpos
        gmuU[u_rows] += gU
        glvU[u_rows] += gU * (0.5 * sigU * epsU[s][u_rows])
        gmuV[v_rows] += gV
        glvV[v_rows] += gV * (0.5 * sigV * epsV[s][v_rows])
    inv = 1.0 / S
    for grad in (gmuU, glvU, gmuV, glvV):
        grad *= inv
    return value * inv, lpos * inv, gmuU, glvU, gmuV, glvV


def dsg_elbo(batch, qU: GaussianEmbeddingMatrix, qV: GaussianEmbeddingMatrix,
             priors, params: DsgParams, seed) -> ElboTerms:
    """Evaluate the bound on one batch with seeded draws.

    ``priors`` is a ``(GaussianPrior, GaussianPrior)`` pair for the word
    and context matrices. The likelihood term is a ``samples_per_step``
    Monte-Carlo average; prior and entropy terms are exact.
    """
    for q in (qU, qV):
        if np.any(q.variance <= 0):
            raise ValueError("posterior variances must be positive")
    priorU, priorV = priors
    rng = np.random.default_rng(seed)
    L, d = qU.mean.shape
    like = 0.0
    if len(batch):
        sigU = np.sqrt(qU.variance)
        sigV = np.sqrt(qV.variance)
        for _ in range(params.samples_per_step):
            Us = qU.mean + sigU * rng.standard_normal((L, d))
            Vs = qV.mean + sigV * rng.standard_normal((L, d))
            total, _ = sgns_log_likelihood(batch, Us, Vs)
            like += total
        like /= params.samples_per_step
    log_prior = (expected_log_gaussian(qU.mean, qU.variance, priorU)
                 + expected_log_gaussian(qV.mean, qV.variance, priorV))
    entropy = entropy_value((qU.variance, qV.variance), params.entropy_mode)
    return ElboTerms(likelihood=like, log_prior=log_prior, entropy=entropy)


def _prior_entropy_grads(mu, logvar, prior: GaussianPrior, mode: str):
    """Gradients of expected log-prior + entropy w.r.t. (mu, logvar)."""
    var = np.exp(logvar)
    gmu = -(mu - prior.mean) / prior.variance
    glv = -var / (2.0 * prior.variance)
    if mode == ENTROPY_SUM_VAR:
        glv = glv + var
    else:
        glv = glv + 0.5
    return gmu, glv


def dsg_filter_step(slice_docs, vocab, prev_posterior, params: DsgParams,
                    config: TrainConfig, slice_index: int = 0,
                    reg: shrinkreg.RegConfig | None = None,
                    ref_mean: np.ndarray | None = None,
                    eval_pairs=None):
    """One filtering update: previous posterior -> slice prior -> new posterior.

    The prior is the diffusion/anchor combination of the previous
    posterior means; the variational parameters start at that prior and
    are optimized for ``config.epochs`` epochs. Variances are optimized
    through their logarithm so they stay positive.

    When ``reg`` is enabled and ``ref_mean`` is given, the drift penalty
    against ``ref_mean`` is subtracted from the bound; its threshold is
    refreshed at each epoch start.

    Returns ``(qU, qV, trace)``.
    """
    qU_prev, qV_prev = prev_posterior
    L, d = qU_prev.mean.shape
    priorU_mean, prior_var = combine_priors(qU_prev.mean, params.diffusion_var,
                                            params.anchor_var)
    priorV_mean, _ = combine_priors(qV_prev.mean, params.diffusion_var,
                                    params.anchor_var)
    priorU = GaussianPrior(priorU_mean, prior_var)
    priorV = GaussianPrior(priorV_mean, prior_var)

    muU = priorU_mean.copy()
    muV = priorV_mean.copy()
    logvarU = np.full((L, d), math.log(prior_var))
    logvarV = np.full((L, d), math.log(prior_var))

    states = [AdamState.for_shape((L, d)) for _ in range(4)]
    trace = {"elbo": [], "lpos": []}
    if eval_pairs is not None:
        trace["holdout_lpos"] = []
    reg_active = reg is not None and reg.enabled and reg.alpha > 0 and ref_mean is not None
    if reg_active:
        trace["reg_beta"] = []

    for epoch in range(config.epochs):
        total_pos, minibatches = epoch_batches(slice_docs, vocab, config,
                                               slice_index, epoch)
        eps_rng = np.random.default_rng([config.seed, slice_index, epoch, 3])

        beta = 0.0
        if reg_active:
            beta = shrinkreg.resolve_beta(reg, shrinkreg.word_drifts(muU, ref_mean))
            trace["reg_beta"].append(beta)

        like_sum = 0.0
        lpos_sum = 0.0
        minibatches = list(minibatches)
        if not minibatches:
            minibatches = [(np.empty(0, dtype=np.int64),) * 3]
        for b_idx, (centers, contexts, labels) in enumerate(minibatches):
            n_pos = int(labels.sum()) if len(labels) else 0
            frac = (n_pos / total_pos) if total_pos else 1.0
            if len(centers):
                S = params.samples_per_step
                epsU = eps_rng.standard_normal((S, L, d))
                epsV = eps_rng.standard_normal((S, L, d))
                like, batch_lpos, gmuU, glvU, gmuV, glvV = sampled_likelihood_grads(
                    centers, contexts, labels, muU, logvarU, muV, logvarV,
                    epsU, epsV)
                if not math.isfinite(like):
                    raise NumericalError(
                        f"non-finite bound at slice {slice_index}, epoch {epoch}, batch {b_idx}")
                like_sum += like
                lpos_sum += batch_lpos
            else:
                gmuU = np.zeros((L, d))
                glvU = np.zeros((L, d))
                gmuV = np.zeros((L, d))
                glvV = np.zeros((L, d))

            pmuU, plvU = _prior_entropy_grads(muU, logvarU, priorU, params.entropy_mode)
            pmuV, plvV = _prior_entropy_grads(muV, logvarV, priorV, params.entropy_mode)
            gmuU += frac * pmuU
            glvU += frac * plvU
            gmuV += frac * pmuV
            glvV += frac * plvV
            if reg_active:
                gmuU -= frac * shrinkreg.drift_regularizer_grad(
                    muU, ref_mean, reg.alpha, beta)

            adam_step(muU, gmuU, states[0], config.learning_rate, "muU")
            adam_step(logvarU, glvU, states[1], config.learning_rate, "logvarU")
            adam_step(muV, gmuV, states[2], config.learning_rate, "muV")
            adam_step(logvarV, glvV, states[3], config.learning_rate, "logvarV")

        log_prior = (expected_log_gaussian(muU, np.exp(logvarU), priorU)
                     + expected_log_gaussian(muV, np.exp(logvarV), priorV))
        entropy = entropy_value((np.exp(logvarU), np.exp(logvarV)),
                                params.entropy_mode)
        trace["elbo"].append(like_sum + log_prior + entropy)
        trace["lpos"].append(lpos_sum / total_pos if total_pos else 0.0)
        if eval_pairs is not None:
            trace["holdout_lpos"].append(mean_lpos(eval_pairs, muU, muV))

    qU = GaussianEmbeddingMatrix(muU, np.exp(logvarU))
    qV = GaussianEmbeddingMatrix(muV, np.exp(logvarV))
    return qU, qV, trace


def train_dsg(corpus, vocab, init, params: DsgParams, config: TrainConfig,
              direction: str = FORWARD, reg: shrinkreg.RegConfig | None = None,
              eval_corpus=None):
    """Chain filter steps across slices.

    ``init`` is a ``(GaussianEmbeddingMatrix, GaussianEmbeddingMatrix)``
    pair acting as the virtual posterior before the first trained slice
    (its means seed the first prior). Posteriors are returned indexed by
    calendar slice. The drift penalty, when enabled, measures drift
    against the first trained slice's posterior mean.

    Returns ``(posteriors, traces, trained_order)``.
    """
    T = corpus.T
    order = training_order(T, direction)
    posteriors = [None] * T
    traces = {}
    prev = init
    ref_mean = None
    for pos, t in enumerate(order):
        eval_pairs = None
        if eval_corpus is not None:
            eval_pairs = corpus_mod.extract_pairs(eval_corpus.slices[t], config.window)
        qU, qV, trace = dsg_filter_step(
            corpus.slices[t], vocab, prev, params, config, slice_index=t,
            reg=reg, ref_mean=ref_mean, eval_pairs=eval_pairs)
        posteriors[t] = (qU, qV)
        traces[t] = trace
        prev = (qU, qV)
        if pos == 0:
            ref_mean = qU.mean
    return posteriors, traces, order
