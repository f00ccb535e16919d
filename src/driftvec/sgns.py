"""Shared skip-gram-with-negative-sampling mathematics.

All arithmetic is 64-bit. The likelihood here is the per-slice training
objective of the incremental model and, evaluated on reparameterized
samples, the data term of the Bayesian filtered model.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class EmbeddingMatrix:
    """An L x d real matrix of word or context vectors."""

    values: np.ndarray
    role: str = "word"              # "word" or "context"
    slice_index: int | str = "static"

    @property
    def shape(self):
        return self.values.shape


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

    Uses the exp(x)/(1+exp(x)) branch for negative inputs so neither
    branch ever overflows.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
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
    scores = np.einsum("ij,ij->i", U[centers], V[contexts])
    signs = np.where(labels == 1, 1.0, -1.0)
    terms = log_sigmoid(signs * scores)
    coef = labels.astype(np.float64) - sigmoid(scores)

    u_rows, u_inv = np.unique(centers, return_inverse=True)
    v_rows, v_inv = np.unique(contexts, return_inverse=True)
    gradU_rows = scatter_rows(u_inv, coef[:, None] * V[contexts], len(u_rows))
    gradV_rows = scatter_rows(v_inv, coef[:, None] * U[centers], len(v_rows))
    lpos = float(terms[labels == 1].sum())
    return u_rows, gradU_rows, v_rows, gradV_rows, float(terms.sum()), lpos


def scatter_rows(index, contributions, n_rows):
    """Sum rows of ``contributions`` into ``n_rows`` buckets given by ``index``.

    bincount per column beats np.add.at by a wide margin for the batch
    sizes used here.
    """
    d = contributions.shape[1]
    out = np.empty((n_rows, d), dtype=np.float64)
    for k in range(d):
        out[:, k] = np.bincount(index, weights=contributions[:, k],
                                minlength=n_rows)
    return out


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
    """Read the text format; returns ``(words, matrix)``."""
    with open(path, encoding="utf-8") as fh:
        try:
            count, dim = map(int, fh.readline().split())
        except ValueError:
            count = dim = -1
        if count < 0 or dim < 0:
            raise DataError(f"{path}:1: malformed embedding header")
        words = []
        matrix = np.empty((count, dim), dtype=np.float64)
        for i in range(count):
            parts = fh.readline().split()
            if len(parts) != dim + 1:
                raise DataError(f"{path}: row {i} has {len(parts) - 1} values, expected {dim}")
            words.append(parts[0])
            try:
                matrix[i] = [float(p) for p in parts[1:]]
            except ValueError:
                raise DataError(f"{path}:{i + 2}: non-numeric value in the row "
                                f"of {parts[0]!r}") from None
    return words, matrix
