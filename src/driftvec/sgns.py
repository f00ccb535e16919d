"""Shared skip-gram-with-negative-sampling mathematics.

All arithmetic is 64-bit. The likelihood here is the per-slice training
objective of the incremental model and, evaluated on reparameterized
samples, the data term of the Bayesian filtered model.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, open_text


@dataclass
class TrainConfig:
    dim: int = 100
    window: int = 4
    negative_ratio: int = 1
    learning_rate: float = 0.1
    epochs: int = 100
    batch_size: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negative_ratio < 1:
            raise ValueError("negative_ratio must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def sigmoid(x):
    """Numerically stable logistic function.

    With e = exp(-|x|), which never overflows, returns 1/(1+e) where
    x >= 0 and e/(1+e) elsewhere: the exp(x)/(1+exp(x)) form for
    negative inputs, computed without a mask. -|x| is taken as
    min(x, -x), which keeps the sign bit of a NaN input.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def log_sigmoid(x):
    """log(sigmoid(x)) computed as -log(1 + exp(-x)) without overflow."""
    x = np.asarray(x, dtype=np.float64)
    return -np.logaddexp(0.0, -x)


def _pair_scores(batch, U, V):
    return np.einsum("ij,ij->i", U[batch.center_ids], V[batch.context_ids])


def sgns_log_likelihood(batch, U: np.ndarray, V: np.ndarray):
    """Log-likelihood of a batch of labelled pairs.

    Positives contribute log sigma(u.v), negatives log sigma(-u.v).
    Returns ``(total, positive_part)``.
    """
    if len(batch) == 0:
        return 0.0, 0.0
    scores = _pair_scores(batch, U, V)
    signs = np.where(batch.labels == 1, 1.0, -1.0)
    terms = log_sigmoid(signs * scores)
    total = float(terms.sum())
    lpos = float(terms[batch.labels == 1].sum())
    return total, lpos


LPOS_BLOCK = 4096


def mean_lpos(pairs, U: np.ndarray, V: np.ndarray) -> float:
    """Mean log sigma(u.v) over ``(centers, contexts)`` positive pairs; 0.0 for none.

    The held-out score of every trainer and of ``eval``. Scores are
    gathered :data:`LPOS_BLOCK` pairs at a time, which bounds the scratch
    memory; einsum scores each pair on its own, so the bits are those of
    one gather over all pairs.
    """
    centers, contexts = pairs
    n = len(centers)
    if n == 0:
        return 0.0
    scores = np.empty(n)
    for start in range(0, n, LPOS_BLOCK):
        block = slice(start, start + LPOS_BLOCK)
        np.einsum("ij,ij->i", U[centers[block]], V[contexts[block]], out=scores[block])
    return float(np.mean(log_sigmoid(scores)))


def sgns_gradients(batch, U: np.ndarray, V: np.ndarray):
    """Analytic gradient of :func:`sgns_log_likelihood` w.r.t. U and V.

    d/du_i = sum_j (label - sigma(u_i.v_j)) v_j, and symmetrically for v.
    Rows absent from the batch have zero gradient.
    """
    gradU = np.zeros_like(U)
    gradV = np.zeros_like(V)
    if len(batch) == 0:
        return gradU, gradV
    scores = _pair_scores(batch, U, V)
    coef = batch.labels.astype(np.float64) - sigmoid(scores)
    np.add.at(gradU, batch.center_ids, coef[:, None] * V[batch.context_ids])
    np.add.at(gradV, batch.context_ids, coef[:, None] * U[batch.center_ids])
    return gradU, gradV


def batch_grad_rows(centers, contexts, labels, U, V):
    """Compact per-row gradients for a mini-batch (training fast path).

    Same mathematics as :func:`sgns_gradients` but returns only the rows
    that occur in the batch:
    ``(u_rows, gradU_rows, v_rows, gradV_rows, loglik, lpos)``.
    """
    block = V[contexts]
    scratch = U[centers]
    scores = np.einsum("ij,ij->i", scratch, block)
    signs = np.where(labels == 1, 1.0, -1.0)
    terms = log_sigmoid(signs * scores)
    coef = (labels.astype(np.float64) - sigmoid(scores))[:, None]

    # the two gathered n x d blocks are the only large buffers: each
    # side's rows are scaled in place in ``block`` and scattered with
    # the flat index written over ``scratch``
    flat_index = scratch.view(np.intp)
    block *= coef
    u_rows, u_inv = touched_rows(centers, len(U))
    gradU_rows = scatter_rows(u_inv, block, len(u_rows), flat_index)
    # the first gather and touched_rows have bounds-checked ``centers``
    np.take(U, centers, axis=0, out=block, mode="clip")
    block *= coef
    v_rows, v_inv = touched_rows(contexts, len(V))
    gradV_rows = scatter_rows(v_inv, block, len(v_rows), flat_index)
    lpos = float(terms[labels == 1].sum())
    return u_rows, gradU_rows, v_rows, gradV_rows, float(terms.sum()), lpos


def touched_rows(ids, n_rows):
    """Sorted distinct ``ids`` in ``[0, n_rows)`` and each id's position among them.

    The same pair as ``np.unique(ids, return_inverse=True)``, found
    from a presence count over the rows instead of a sort.
    """
    present = np.bincount(ids, minlength=n_rows) > 0
    rows = np.flatnonzero(present)
    position = np.cumsum(present) - 1
    return rows, position[ids]


def scatter_rows(index, contributions, n_rows, flat_index):
    """Sum rows of ``contributions`` into ``n_rows`` buckets given by ``index``.

    One flat bincount over ``index * d + column``; the caller lends
    ``flat_index``, an intp array shaped like ``contributions``, to hold
    that index. Every bucket starts at 0.0 and adds its contributions in
    row order, so the sums are the same bits as ``np.add.at`` or a
    bincount per column would give.
    """
    d = contributions.shape[1]
    np.multiply(index[:, None], d, out=flat_index)
    flat_index += np.arange(d)
    return np.bincount(flat_index.ravel(), weights=contributions.ravel(),
                       minlength=n_rows * d).reshape(n_rows, d)


# ---------------------------------------------------------------------------
# Text format: header "<L> <d>", then "<word> <v1> ... <vd>" per line
# ---------------------------------------------------------------------------

def save_embedding_text(path, words, matrix: np.ndarray) -> None:
    """Write word vectors in the shared text format.

    Floats are rendered with %.17g so a round trip reproduces the exact
    binary values (the format contract requires nine significant digits;
    we keep all of them).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if len(words) != matrix.shape[0]:
        raise ValueError("word count does not match matrix rows")
    line = "%s " + " ".join(["%.17g"] * matrix.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix):
            fh.write(line % (word, *row.tolist()))


def load_embedding_text(path):
    """Read the text format; returns ``(words, matrix)``.

    The rows are parsed by numpy's C text reader, which rounds each
    decimal as ``float()`` does. A file it rejects is read again line
    by line to name the first bad row. Non-finite entries are a data
    error too.
    """
    with open_text(path) as fh:
        header = fh.readline().split()
        try:
            count, dim = map(int, header)
        except ValueError:
            count = dim = -1
        if count < 0 or dim < 0:
            raise DataError(f"{path}:1: malformed embedding header")
        try:
            with warnings.catch_warnings():
                # a file with fewer rows than its header says is
                # reported below, not as loadtxt's no-data warning
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(
                    itertools.islice(fh, count), comments=None, ndmin=1,
                    dtype=[("word", object), ("vector", np.float64, (dim,))])
        except ValueError as exc:
            _raise_row_error(path, count, dim, exc)
    if len(rows) != count:
        _raise_row_error(path, count, dim, None)
    words = rows["word"].tolist()
    matrix = np.ascontiguousarray(rows["vector"])
    check_finite_rows(path, words, matrix)
    return words, matrix


def check_finite_rows(path, words, matrix) -> None:
    """A DataError naming the first row of the file at ``path`` that holds
    a non-finite value."""
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DataError(f"{path}:{i + 2}: non-finite value in the row of {words[i]!r}")


def _raise_row_error(path, count, dim, reason):
    """Raise the DataError naming the first of ``count`` rows that is malformed."""
    with open_text(path) as fh:
        fh.readline()
        for i in range(count):
            parts = fh.readline().split()
            if len(parts) != dim + 1:
                raise DataError(f"{path}: row {i} has {len(parts) - 1} values, expected {dim}")
            try:
                for p in parts[1:]:
                    float(p)
            except ValueError:
                raise DataError(f"{path}:{i + 2}: non-numeric value in the row "
                                f"of {parts[0]!r}") from None
    raise DataError(f"{path}: unreadable embedding rows: {reason}")
