"""The HardShrink drift penalty, alpha * sum over words of
hardshrink(drift_i, beta): drift_i is the word's L2 distance from a
reference matrix (:func:`word_drifts`), counted in full above beta and
not at all at or below it.

The penalty is added to the minimized loss (equivalently subtracted from
the maximized log-likelihood) of the Bayesian filtered and Bernoulli
trainers. Its threshold can be a fixed value or the sentinel
``"mean"``, in which case it is refreshed once per epoch as the mean of
the current per-word drifts and frozen within the epoch.
:func:`record_beta` resolves that threshold and records it in the
slice's trace for both trainers.
"""
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class RegConfig:
    alpha: float = 0.0            # 0 switches the penalty off
    beta: float | str = "mean"    # threshold value, or "mean" to recompute per epoch

    def __post_init__(self):
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError("alpha must be >= 0 and finite")
        if isinstance(self.beta, str):
            if self.beta != "mean":
                raise ValueError("beta must be a number or the sentinel 'mean'")
        elif not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError("beta must be >= 0 and finite")


def word_drifts(current: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-word L2 distance between two embedding matrices of one shape.

    ``analysis.drift_series`` applies it to every target slice; for the
    Bayesian model it is applied to posterior means.
    """
    if current.shape != reference.shape:
        raise ValueError("matrices must share a shape")
    return np.linalg.norm(current - reference, axis=1)


def drift_regularizer_grad(current: np.ndarray, reference: np.ndarray,
                           alpha: float, beta: float) -> np.ndarray:
    """Gradient of the penalty w.r.t. ``current``.

    Zero for words with drift <= beta (subgradient 0 at the kink);
    alpha * (u - u_ref) / drift otherwise. The reference matrix is
    treated as a frozen snapshot and receives no gradient.
    """
    grad = np.zeros_like(current)
    diff = current - reference
    drifts = np.linalg.norm(diff, axis=1)
    active = drifts > beta
    if np.any(active):
        grad[active] = alpha * diff[active] / drifts[active, None]
    return grad


def record_beta(trace: dict, config: RegConfig, current, reference) -> float:
    """Threshold for the coming epoch, also appended to ``trace["reg_beta"]``:
    the fixed value, or the mean drift of ``current`` from ``reference``."""
    if isinstance(config.beta, str):
        beta = float(word_drifts(current, reference).mean())
    else:
        beta = float(config.beta)
    trace.setdefault("reg_beta", []).append(beta)
    return beta
