"""HardShrink activation and the drift penalty built on it.

The penalty is added to the minimized loss (equivalently subtracted from
the maximized log-likelihood) of the Bayesian filtered and Bernoulli
trainers. Its threshold can be a fixed value or the sentinel
``"mean"``, in which case it is refreshed once per epoch as the mean of
the current per-word drifts and frozen within the epoch.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class RegConfig:
    alpha: float = 0.0            # 0 switches the penalty off
    beta: float | str = "mean"    # threshold value, or "mean" to recompute per epoch

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if isinstance(self.beta, str):
            if self.beta != "mean":
                raise ValueError("beta must be a number or the sentinel 'mean'")
        elif self.beta < 0:
            raise ValueError("beta must be >= 0")


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


def word_drifts(current: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-word L2 distance between two embedding matrices of one shape.

    ``analysis.compute_drift`` is the same function; for the Bayesian
    model it is applied to posterior means.
    """
    if current.shape != reference.shape:
        raise ValueError("matrices must share a shape")
    return np.linalg.norm(current - reference, axis=1)


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


def drift_regularizer_grad(current: np.ndarray, reference: np.ndarray,
                           alpha: float, beta: float) -> np.ndarray:
    """Gradient of the penalty w.r.t. ``current``.

    Zero for words with drift <= beta (subgradient 0 at the kink);
    alpha * (u - u_ref) / drift otherwise. The reference matrix is
    treated as a frozen snapshot and receives no gradient.
    """
    grad = np.zeros_like(current)
    if alpha == 0:
        return grad
    diff = current - reference
    drifts = np.linalg.norm(diff, axis=1)
    active = drifts > beta
    if np.any(active):
        grad[active] = alpha * diff[active] / drifts[active, None]
    return grad


def resolve_beta(config: RegConfig, drifts: np.ndarray) -> float:
    """Threshold for the coming epoch: fixed value or current mean drift."""
    if isinstance(config.beta, str):
        return float(drifts.mean()) if len(drifts) else 0.0
    return float(config.beta)
