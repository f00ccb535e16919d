"""Dynamically filtered Bayesian skip-gram.

Each slice keeps a fully factorized Gaussian posterior over both
embedding matrices. The posterior mean of slice t-1 defines, through a
diffusion step combined with a zero-mean anchor, the prior of slice t;
the variational parameters are then fitted by Adam ascent on the
evidence lower bound. Only means pass from slice to slice, so a run
starts from a plain ``(U, V)`` pair of initial means, like the
point-estimate models.

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
    qs = (qU, qV)
    for q in qs:
        if np.any(q.variance <= 0):
            raise ValueError("posterior variances must be positive")
    rng = np.random.default_rng(seed)
    like = 0.0
    if len(batch):
        sigmas = [np.sqrt(q.variance) for q in qs]
        for _ in range(params.samples_per_step):
            samples = [q.mean + sigma * rng.standard_normal(q.mean.shape)
                       for q, sigma in zip(qs, sigmas)]
            like += sgns_log_likelihood(batch, *samples)[0]
        like /= params.samples_per_step
    log_prior = sum(expected_log_gaussian(q.mean, q.variance, prior)
                    for q, prior in zip(qs, priors))
    entropy = entropy_value([q.variance for q in qs], params.entropy_mode)
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

    Returns ``(qU, qV, trace)``.
    """
    L, d = prev_means[0].shape
    # index 0 is the word matrix U, index 1 the context matrix V
    priors = [GaussianPrior(*combine_priors(mean, params.diffusion_var, params.anchor_var))
              for mean in prev_means]
    mus = [prior.mean.copy() for prior in priors]
    logvars = [np.full((L, d), math.log(prior.variance)) for prior in priors]
    states = {name: AdamState.for_shape((L, d)) for name in ("muU", "logvarU", "muV", "logvarV")}
    trace = {"elbo": [], "lpos": []}
    if eval_pairs is not None:
        trace["holdout_lpos"] = []
    reg_active = reg is not None and reg.alpha > 0 and ref_mean is not None
    if reg_active:
        trace["reg_beta"] = []

    for epoch in range(config.epochs):
        total_pos, minibatches = epoch_batches(slice_docs, vocab, config,
                                               slice_index, epoch)
        eps_rng = np.random.default_rng([config.seed, slice_index, epoch, 3])

        beta = 0.0
        if reg_active:
            beta = shrinkreg.resolve_beta(reg, shrinkreg.word_drifts(mus[0], ref_mean))
            trace["reg_beta"].append(beta)

        like_sum = 0.0
        lpos_sum = 0.0
        minibatches = list(minibatches) or [(np.empty(0, dtype=np.int64),) * 3]
        for b_idx, (centers, contexts, labels) in enumerate(minibatches):
            frac = (int(labels.sum()) / total_pos) if total_pos else 1.0
            eps = [eps_rng.standard_normal((params.samples_per_step, L, d)) for _ in mus]
            like, batch_lpos, *grads = sampled_likelihood_grads(
                centers, contexts, labels, mus[0], logvars[0], mus[1], logvars[1], *eps)
            if not math.isfinite(like):
                raise NumericalError(
                    f"non-finite bound at slice {slice_index}, epoch {epoch}, batch {b_idx}")
            like_sum += like
            lpos_sum += batch_lpos

            for side, mu, logvar, prior, gmu, glv in zip(
                    "UV", mus, logvars, priors, grads[0::2], grads[1::2]):
                pmu, plv = _prior_entropy_grads(mu, logvar, prior, params.entropy_mode)
                gmu += frac * pmu
                glv += frac * plv
                if reg_active and side == "U":
                    gmu -= frac * shrinkreg.drift_regularizer_grad(
                        mu, ref_mean, reg.alpha, beta)
                for name, param, grad in ((f"mu{side}", mu, gmu), (f"logvar{side}", logvar, glv)):
                    adam_step(param, grad, states[name], config.learning_rate, name)

        variances = [np.exp(logvar) for logvar in logvars]
        if not all(var.all() for var in variances):
            raise NumericalError(f"posterior variance underflowed to 0 at slice "
                                 f"{slice_index}, epoch {epoch}")
        log_prior = sum(expected_log_gaussian(mu, var, prior)
                        for mu, var, prior in zip(mus, variances, priors))
        entropy = entropy_value(variances, params.entropy_mode)
        trace["elbo"].append(like_sum + log_prior + entropy)
        trace["lpos"].append(lpos_sum / total_pos if total_pos else 0.0)
        if eval_pairs is not None:
            trace["holdout_lpos"].append(mean_lpos(eval_pairs, *mus))

    return (*map(GaussianEmbeddingMatrix, mus, variances), trace)


def train_dsg(corpus, vocab, init, params: DsgParams, config: TrainConfig,
              direction: str = FORWARD, reg: shrinkreg.RegConfig | None = None,
              eval_corpus=None):
    """Chain filter steps across slices.

    ``init`` is a ``(U, V)`` pair of (L, d) arrays acting as the means of
    the virtual posterior before the first trained slice; they seed the
    first prior. Posteriors are returned indexed by calendar slice. The
    drift penalty, when enabled, measures drift against the first
    trained slice's posterior mean.

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
        prev = (qU.mean, qV.mean)
        if pos == 0:
            ref_mean = qU.mean
    return posteriors, traces, order
