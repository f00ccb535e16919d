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
from .sgns import encode_rows

BETA1 = 0.9      # decay of the first-moment estimate
BETA2 = 0.999    # decay of the second-moment estimate
EPSILON = 1e-8   # added to the root of the second moment


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    @classmethod
    def for_shape(cls, shape) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape))


def _check_finite(grad, name):
    if not np.all(np.isfinite(grad)):
        raise NumericalError(f"non-finite gradient for parameter matrix {name!r}")


def _update(params, grad, m, v, state: AdamState, learning_rate: float, name: str) -> None:
    """Advance the step counter and apply one bias-corrected ascent step
    to ``params`` with moments ``m`` and ``v``, all in place. An overflow
    raises :class:`NumericalError` naming the matrix; numpy's error state
    is per thread and costs no extra pass over the matrix.
    """
    state.step_count += 1
    t = state.step_count
    # In place, with two scratch buffers; every element sees the same
    # floating-point operations in the same order as the textbook form
    # m/(1-b1^t) * lr / (sqrt(v/(1-b2^t)) + eps).
    try:
        with np.errstate(over="raise"):
            scratch = grad * (1 - BETA1)
            m *= BETA1
            m += scratch
            np.multiply(grad, 1 - BETA2, out=scratch)
            scratch *= grad
            v *= BETA2
            v += scratch
            step = m / (1 - BETA1 ** t)
            step *= learning_rate
            np.divide(v, 1 - BETA2 ** t, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += EPSILON
            step /= scratch
            params += step
    except FloatingPointError as exc:
        raise NumericalError(f"overflow in the Adam step of parameter matrix {name!r}") from exc


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
    _update(params, grad, state.m, state.v, state, learning_rate, name)
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
    _update(p, grad_rows, m, v, state, learning_rate, name)
    state.m[rows], state.v[rows], params[rows] = m, v, p
    return params


def save_adam_state(state: AdamState, path) -> None:
    """Serialize moments and counters in the shared float text encoding:
    a header line, then the rows of ``m`` and of ``v`` as
    :func:`~driftvec.sgns.encode_rows` writes them."""
    with open(path, "wb") as fh:
        rows, cols = state.m.shape
        fh.write(f"{rows} {cols} {state.step_count} "
                 f"{BETA1:.17g} {BETA2:.17g} {EPSILON:.17g}\n".encode())
        for mat in (state.m, state.v):
            fh.writelines(encode_rows(mat))
