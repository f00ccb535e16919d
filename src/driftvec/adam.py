"""Adam optimizer with per-matrix state.

Convention: :func:`adam_step` takes an ASCENT direction. The trainers
maximize log-likelihood objectives and pass their gradients directly; to
minimize a loss, pass the negated gradient.

Row updates are lazy: rows untouched by a sparse step keep their moment
estimates unchanged (no decay), which both preserves the never-touched
invariant needed by the incremental trainer and avoids dense work on
large vocabularies.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_shape(cls, shape, **kwargs) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), **kwargs)


def _check_finite(grad, name):
    if not np.all(np.isfinite(grad)):
        raise NumericalError(f"non-finite gradient for parameter matrix {name!r}")


def _update(params, grad, m, v, state: AdamState, learning_rate: float) -> None:
    """Advance the step counter and apply one bias-corrected ascent step
    to ``params`` with moments ``m`` and ``v``, all in place."""
    state.step_count += 1
    t = state.step_count
    # In place, with two scratch buffers; every element sees the same
    # floating-point operations in the same order as the textbook form
    # m/(1-b1^t) * lr / (sqrt(v/(1-b2^t)) + eps).
    scratch = grad * (1 - state.beta1)
    m *= state.beta1
    m += scratch
    np.multiply(grad, 1 - state.beta2, out=scratch)
    scratch *= grad
    v *= state.beta2
    v += scratch
    step = m / (1 - state.beta1 ** t)
    step *= learning_rate
    np.divide(v, 1 - state.beta2 ** t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.epsilon
    step /= scratch
    params += step


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState,
              learning_rate: float, name: str = "params") -> np.ndarray:
    """One bias-corrected Adam ascent step over the full matrix.

    Mutates ``params`` and ``state`` in place and returns ``params``.
    """
    if params.shape != grad.shape:
        raise ValueError("parameter and gradient shapes differ")
    if learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    _check_finite(grad, name)
    _update(params, grad, state.m, state.v, state, learning_rate)
    return params


def adam_step_rows(params: np.ndarray, rows: np.ndarray, grad_rows: np.ndarray,
                   state: AdamState, learning_rate: float,
                   name: str = "params") -> np.ndarray:
    """Lazy Adam ascent touching only ``rows``.

    Bias correction uses the global step counter; rows outside ``rows``
    are left bit-identical. The touched rows of ``params``, ``m`` and
    ``v`` take the dense step's update and are scattered back.
    """
    if learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    _check_finite(grad_rows, name)
    m, v, p = state.m[rows], state.v[rows], params[rows]
    _update(p, grad_rows, m, v, state, learning_rate)
    state.m[rows], state.v[rows], params[rows] = m, v, p
    return params


def save_adam_state(state: AdamState, path) -> None:
    """Serialize moments and counters in the shared float text encoding."""
    with open(path, "w", encoding="utf-8") as fh:
        rows, cols = state.m.shape
        fh.write(f"{rows} {cols} {state.step_count} "
                 f"{state.beta1:.17g} {state.beta2:.17g} {state.epsilon:.17g}\n")
        line = " ".join(["%.17g"] * cols) + "\n"
        for mat in (state.m, state.v):
            for row in mat:
                fh.write(line % tuple(row.tolist()))


def load_adam_state(path) -> AdamState:
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        rows, cols, step = int(head[0]), int(head[1]), int(head[2])
        beta1, beta2, eps = float(head[3]), float(head[4]), float(head[5])
        m = np.empty((rows, cols))
        v = np.empty((rows, cols))
        for mat in (m, v):
            for i in range(rows):
                mat[i] = [float(x) for x in fh.readline().split()]
    return AdamState(m=m, v=v, step_count=step, beta1=beta1, beta2=beta2,
                     epsilon=eps)
