"""Shared skip-gram-with-negative-sampling mathematics.

All arithmetic is 64-bit. The likelihood here is the per-slice training
objective of the incremental model and, evaluated on reparameterized
samples, the data term of the Bayesian filtered model.
"""

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import check_seed
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
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0 and finite")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negative_ratio < 1:
            raise ValueError("negative_ratio must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        check_seed(self.seed)


@dataclass
class TrainResult:
    """What every trainer returns. ``matrices`` maps each checkpoint role
    to its (L, d) matrices in calendar-slice order: ``word`` and
    ``context`` (posterior means for dsg, one shared matrix for dbe), and
    dsg's posterior ``var`` and ``context_var``. ``traces`` maps each
    calendar slice to its trace, one value per epoch under each key (see
    :func:`record_epoch`; dsg adds ``elbo``, and the drift penalty
    ``reg_beta``); ``order`` is the training order. Only
    dbe fills ``prior_trace``, its log prior after each epoch, and
    ``adam``, its final optimizer states by name."""
    matrices: dict
    traces: dict
    order: list
    prior_trace: list | None = None
    adam: dict = field(default_factory=dict)


def record_epoch(trace: dict, lpos_sum: float, n_pos: int, eval_pairs, U, V) -> None:
    """Append an epoch's mean training ``lpos`` over ``n_pos`` positive pairs
    (0.0 for none) and, given ``eval_pairs``, the ``holdout_lpos`` of ``(U, V)``."""
    trace.setdefault("lpos", []).append(lpos_sum / n_pos if n_pos else 0.0)
    if eval_pairs is not None:
        trace.setdefault("holdout_lpos", []).append(mean_lpos(eval_pairs, U, V))


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


# Pairs gathered at a time by mean_lpos and batch_grad_rows, so that their
# scratch is at most two LPOS_BLOCK x d blocks, not two (pairs x d) blocks.
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


def batch_grad_rows(centers, contexts, labels, U, V):
    """Compact per-row gradients of a mini-batch's skip-gram log-likelihood.

    d/du_i = sum_j (label - sigma(u_i.v_j)) v_j, and symmetrically for v,
    for only the rows that occur in the batch:
    ``(u_rows, gradU_rows, v_rows, gradV_rows, loglik, lpos)``.

    Apart from its outputs and a few length-n vectors, the scratch is two
    buffers of :data:`LPOS_BLOCK` x d values (n values if that is more),
    whatever the batch size n. The scores are gathered into them a block
    of pairs at a time. Each side's row sums then take
    ``LPOS_BLOCK * d // n`` columns (at least one) at a time: one buffer
    holds the scaled columns, the other the scatter's flat index. einsum
    scores each pair on its own, and every (row, column) sum adds its
    pairs in pair order from 0.0, so the bits are those of one gather and
    one scatter over the whole batch. A batch of at most
    :data:`LPOS_BLOCK` pairs takes exactly those steps.
    """
    # touched_rows bounds-checks the ids, so the gathers below may clip
    u_rows, u_inv = touched_rows(centers, len(U))
    v_rows, v_inv = touched_rows(contexts, len(V))
    n, d = len(centers), U.shape[1]
    cols = max(1, min(d, LPOS_BLOCK * d // max(n, 1)))
    size = max(min(n, LPOS_BLOCK) * d, n * cols)
    block, scratch = np.empty(size), np.empty(size)
    scores = np.empty(n)
    for start in range(0, n, LPOS_BLOCK):
        m = min(LPOS_BLOCK, n - start)
        u_block, v_block = scratch[:m * d].reshape(m, d), block[:m * d].reshape(m, d)
        np.take(U, centers[start:start + m], axis=0, out=u_block, mode="clip")
        np.take(V, contexts[start:start + m], axis=0, out=v_block, mode="clip")
        np.einsum("ij,ij->i", u_block, v_block, out=scores[start:start + m])
    signs = np.where(labels == 1, 1.0, -1.0)
    terms = log_sigmoid(signs * scores)
    coef = (labels.astype(np.float64) - sigmoid(scores))[:, None]
    # a batch of one block still holds V[contexts] in ``block``
    gradU_rows = _scaled_row_sums(u_inv, len(u_rows), V, contexts, coef, cols,
                                  block, scratch, gathered=n <= LPOS_BLOCK)
    gradV_rows = _scaled_row_sums(v_inv, len(v_rows), U, centers, coef, cols,
                                  block, scratch)
    lpos = float(terms[labels == 1].sum())
    return u_rows, gradU_rows, v_rows, gradV_rows, float(terms.sum()), lpos


def _scaled_row_sums(index, n_rows, M, ids, coef, cols, block, scratch, gathered=False):
    """Sum ``coef[i] * M[ids[i]]`` into the ``n_rows`` rows ``index`` gives,
    ``cols`` columns at a time, through the lent flat buffers ``block``
    (the scaled columns; it already holds ``M[ids]`` when ``gathered``)
    and ``scratch`` (the flat index)."""
    n, d = len(ids), M.shape[1]
    sums = np.empty((n_rows, d)) if cols < d else None
    for c0 in range(0, d, cols):
        k = min(cols, d - c0)
        part = block[:n * k].reshape(n, k)
        if not gathered:
            np.take(M[:, c0:c0 + k], ids, axis=0, out=part, mode="clip")
        part *= coef
        group = scatter_rows(index, part, n_rows, scratch[:n * k].view(np.intp).reshape(n, k))
        if sums is None:
            return group
        sums[:, c0:c0 + k] = group
    return sums


def touched_rows(ids, n_rows):
    """Sorted distinct ``ids`` in ``[0, n_rows)`` and each id's position among them.

    The same pair as ``np.unique(ids, return_inverse=True)``, found
    from a presence count over the rows instead of a sort. An id past the
    last row is an IndexError, and a negative one bincount's ValueError.
    """
    present = np.bincount(ids, minlength=n_rows) > 0
    if len(present) > n_rows:
        raise IndexError(f"row id {len(present) - 1} is out of bounds for {n_rows} rows")
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
    error too, and so is a row past the header's count.
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
        for lineno, line in enumerate(fh, start=count + 2):
            if line.strip():
                raise DataError(f"{path}:{lineno}: more rows than the header's count of {count}")
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
            line = fh.readline()
            if not line:
                raise DataError(f"{path}: ends after {i} of the header's {count} rows")
            parts = line.split()
            if not parts:
                raise DataError(f"{path}:{i + 2}: blank line where row {i + 1} of {count} belongs")
            if len(parts) != dim + 1:
                raise DataError(f"{path}:{i + 2}: {len(parts) - 1} values in the row of "
                                f"{parts[0]!r}, expected {dim}")
            try:
                for p in parts[1:]:
                    float(p)
            except ValueError:
                raise DataError(f"{path}:{i + 2}: non-numeric value in the row "
                                f"of {parts[0]!r}") from None
    raise DataError(f"{path}: unreadable embedding rows: {reason}")
