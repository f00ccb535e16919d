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

    The pairs are taken :data:`LPOS_BLOCK` at a time, so apart from its
    outputs and a few length-n vectors the scratch is two buffers of
    ``LPOS_BLOCK`` x d values, whatever the batch size n. Each block
    gathers its U and V rows, is scored, and adds its scaled V rows into
    the U side's row sums; the U buffer then lends its memory to the
    scatter's flat index, and U is gathered again for the V side. einsum
    scores each pair on its own, and every (row, column) sum adds its
    pairs in pair order from 0.0, so the bits are those of one gather and
    one scatter over the whole batch.
    """
    # touched_rows bounds-checks the ids, so the gathers below may clip
    u_rows, u_inv = touched_rows(centers, len(U))
    v_rows, v_inv = touched_rows(contexts, len(V))
    n, d = len(centers), U.shape[1]
    gradU_rows, gradV_rows = np.zeros((len(u_rows), d)), np.zeros((len(v_rows), d))
    u_buf, v_buf = np.empty((2, min(n, LPOS_BLOCK), d))
    scores = np.empty(n)
    for start in range(0, n, LPOS_BLOCK):
        block = slice(start, start + LPOS_BLOCK)
        m = min(LPOS_BLOCK, n - start)
        u_block, v_block = u_buf[:m], v_buf[:m]
        np.take(U, centers[block], axis=0, out=u_block, mode="clip")
        np.take(V, contexts[block], axis=0, out=v_block, mode="clip")
        np.einsum("ij,ij->i", u_block, v_block, out=scores[block])
        coef = (labels[block].astype(np.float64) - sigmoid(scores[block]))[:, None]
        flat_index = u_block.view(np.intp)
        v_block *= coef
        scatter_rows(u_inv[block], v_block, gradU_rows, flat_index)
        np.take(U, centers[block], axis=0, out=v_block, mode="clip")
        v_block *= coef
        scatter_rows(v_inv[block], v_block, gradV_rows, flat_index)
    terms = log_sigmoid(np.where(labels == 1, 1.0, -1.0) * scores)
    lpos = float(terms[labels == 1].sum())
    return u_rows, gradU_rows, v_rows, gradV_rows, float(terms.sum()), lpos


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


def scatter_rows(index, contributions, out, flat_index):
    """Add rows of ``contributions`` into the rows of the C-contiguous
    ``out`` that ``index`` gives.

    One flat ``np.add.at`` over ``index * d + column``; the caller lends
    ``flat_index``, an intp array shaped like ``contributions``, to hold
    that index. Each (row, column) of ``out`` adds its contributions in
    row order, so from a zeroed ``out`` the sums are the bits a weighted
    bincount would give, and calls over consecutive blocks of rows give
    the bits of one call over them all.
    """
    d = contributions.shape[1]
    np.multiply(index[:, None], d, out=flat_index)
    flat_index += np.arange(d)
    np.add.at(out.reshape(-1), flat_index.reshape(-1), contributions.reshape(-1))


# ---------------------------------------------------------------------------
# Text format: header "<L> <d>", then "<word> <v1> ... <vd>" per line
# ---------------------------------------------------------------------------

# Values that encode_rows turns into text at a time (whole rows, at least
# one), so that its scratch is a few dozen arrays of TEXT_BLOCK values.
TEXT_BLOCK = 8192

_U = np.uint64
_LOW32 = _U(2**32 - 1)
# v * 10**j = f * 2**(b - 1075) * 10**j = (f * _POW5[j]) >> r, with f the
# significand, b the biased exponent and r = _SHIFT_BASE[j] - b. The five
# spare bits of the small powers keep r >= 0 for values up to 1e17.
_SPARE = np.array([5 if j < 4 else 0 for j in range(28)])
_POW5 = np.array([5**j << int(_SPARE[j]) for j in range(28)], dtype=np.uint64)
_POW5_LO, _POW5_HI = _POW5 & _LOW32, _POW5 >> _U(32)
_SHIFT_BASE = (_SPARE + 1075 - np.arange(28)).astype(np.uint64)


def _spell4(stripped):
    """Each of 0..9999 as four ASCII digits in the bytes of a word, most
    significant first; with ``stripped``, its trailing zeros (all four
    for 0) are NUL bytes."""
    n = np.arange(10000, dtype=np.uint64)
    word = np.zeros(10000, dtype=np.uint64)
    for k in range(4):
        place = _U(10 ** (3 - k))
        byte = n // place % _U(10) + _U(ord("0"))
        if stripped:
            byte[n % (place * _U(10)) == 0] = 0
        word |= byte << _U(8 * k)
    return word


# 4-digit spellings, plain then stripped: a chunk that only zero chunks
# follow is looked up 10**4 further on
_CHUNKS = np.concatenate([_spell4(False), _spell4(True)])
_ASCII_ZEROS = _U(int.from_bytes(b"0" * 8, "little"))


def _words(n):
    """The three 64-bit words, low first, of the 24-byte integer ``n``."""
    return [(n >> (64 * i)) & (2**64 - 1) for i in range(3)]


def _layout(x):
    """How the 17 digit bytes of a value with decimal exponent x are laid
    out: the words of the head and tail masks and of the point, the bit
    shift of the body and the prefix bytes. Fixed notation (x in -4..16)
    keeps the x + 1 digits before the point (the head) in place, puts
    the point after them and moves the rest (the tail) a byte up; a
    negative x puts all 17 after ``0.`` and -x - 1 zeros. The exponent
    notation lays its mantissa out as x = 0 does."""
    if x >= 0:
        head, point, prefix, shift = x + 1, ord(".") << 8 * (x + 1), b"", 8
    else:
        head, point, prefix = 0, 0, b"0." + b"0" * (-x - 1)
        shift = 8 * len(prefix)
    mask = (1 << 8 * head) - 1
    return [*_words(mask), *_words(~mask & (2**192 - 1)), *_words(point),
            shift, int.from_bytes(prefix, "little") << 8]


_LAYOUTS = np.array([_layout(x) for x in range(-4, 17)], dtype=np.uint64).T.copy()
# "e-11" ... "e-05" in bytes 19-22 of a value's 24; 0 for fixed
_EXPONENTS = np.array([0 if x >= -4 else int.from_bytes(b"e%+03d" % x, "little") << 24
                       for x in range(-11, 17)], dtype=np.uint64)


def _scaled(significand, biased, j):
    """``(q, up)``: q = floor(v * 10**j) for v = significand * 2**(biased
    - 1075), and whether rounding v * 10**j half to even adds 1.

    The product significand * 5**j is formed exactly as two 64-bit limbs
    from four 32 x 32-bit products, and shifted right by r in [0, 63].
    """
    r = np.take(_SHIFT_BASE, j) - biased
    p_lo, p_hi = np.take(_POW5_LO, j), np.take(_POW5_HI, j)
    f_lo, f_hi = significand & _LOW32, significand >> _U(32)
    ll, lh, hl = f_lo * p_lo, f_lo * p_hi, f_hi * p_lo
    mid = (ll >> _U(32)) + (lh & _LOW32) + (hl & _LOW32)
    lo = (mid << _U(32)) | (ll & _LOW32)
    hi = f_hi * p_hi + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))
    # hi << (64 - r), as two shifts so that r = 0 shifts by no more than 63
    q = ((hi << _U(1)) << (_U(63) - r)) | (lo >> r)
    unit = _U(1) << r
    # past half, or at half with q odd; for r = 0, 0 > 0 - 1 wraps to false
    up = (lo & (unit - _U(1))) > (unit >> _U(1)) - (q & _U(1))
    return q, up


def _round17(values):
    """``(digits, x, slow)``: each value's 17 significant digits rounded
    half to even, an integer in [10**16, 10**17), and its decimal
    exponent x, so that ``"%.16e" % v`` spells ``digits`` and ``x``; 0 and
    0 for a zero. ``slow`` marks the values this cannot encode exactly:
    non-finite ones and those not in (1e-11, 1e17), where the product
    would need a power of five past 64 bits."""
    a = np.abs(values)
    fast = (a > 1e-11) & (a < 1e17)
    zero = a == 0
    a[~fast] = 1.0
    bits = a.view(np.uint64)
    significand = (bits & _U(2**52 - 1)) | _U(2**52)
    biased = bits >> _U(52)
    # log10 estimates x, off by one near a power of ten; its bits differ
    # between SIMD dispatch levels, so the exact range test decides x
    j = 16 - np.clip(np.floor(np.log10(a)), -11, 16).astype(np.intp)
    digits, up = _scaled(significand, biased, j)
    wrong = np.flatnonzero((digits < 10**16) | (digits >= 10**17))
    while len(wrong):
        j[wrong] += np.where(digits[wrong] < 10**16, 1, -1)
        digits[wrong], up[wrong] = _scaled(significand[wrong], biased[wrong], j[wrong])
        wrong = wrong[(digits[wrong] < 10**16) | (digits[wrong] >= 10**17)]
    # no carry into x: no double in (1e-11, 1e17) lies within half a unit
    # in the 17th digit below a power of ten, so digits stay below 10**17
    digits += up
    x = 16 - j
    digits[zero] = 0
    x[zero] = 0
    return digits, x, ~(fast | zero)


def _encode_block(block):
    """The text of the rows of a (rows, d) float64 block, d >= 1.

    Each value gets 24 bytes, as three little-endian words: the sign in
    byte 0, the body (digits, point and any ``0.000`` prefix) from byte 1,
    an exponent in bytes 19-22 and the separator in byte 23. Digits that
    ``%g`` strips are NUL bytes, and so is every byte left empty, so
    dropping the NULs leaves the text. A row holding a value that
    :func:`_round17` cannot encode is formatted with ``%`` instead.
    """
    rows, d = block.shape
    values = block.reshape(-1)
    digits, x, slow = _round17(values)
    high, low8 = np.divmod(digits, _U(10**8))
    c0, mid8 = np.divmod(high, _U(10**8))
    c1, c2 = np.divmod(mid8, _U(10**4))
    c3, c4 = np.divmod(low8, _U(10**4))
    a1 = np.take(_CHUNKS, c1 + ((low8 == 0) & (c2 == 0)) * _U(10**4))
    a2 = np.take(_CHUNKS, c2 + (low8 == 0) * _U(10**4))
    a3 = np.take(_CHUNKS, c3 + (c4 == 0) * _U(10**4))
    a4 = np.take(_CHUNKS, c4 + _U(10**4))
    d0 = (c0 + _U(ord("0"))) | (a1 << _U(8)) | (a2 << _U(40))
    d1 = (a2 >> _U(24)) | (a3 << _U(8)) | (a4 << _U(40))
    d2 = a4 >> _U(24)
    fixed = x >= -4
    head0, head1, head2, tail0, tail1, tail2, point0, point1, point2, shift, prefix = np.take(
        _LAYOUTS, np.where(fixed, x + 4, 4), axis=1)
    t0, t1, t2 = d0 & tail0, d1 & tail1, d2 & tail2
    point = np.minimum(t0 | t1 | t2, _U(1))  # a digit follows the point
    # head digits are never stripped, so their NULs become zeros again
    b0 = ((d0 | _ASCII_ZEROS) & head0) | (t0 << _U(8)) | point0 * point
    b1 = ((d1 | _ASCII_ZEROS) & head1) | (t1 << _U(8)) | (t0 >> _U(56)) | point1 * point
    b2 = ((d2 | _ASCII_ZEROS) & head2) | (t2 << _U(8)) | (t1 >> _U(56)) | point2 * point
    back = _U(64) - shift
    out = np.empty((rows, d, 3), dtype="<u8")
    out[..., 0] = ((b0 << shift) | prefix | np.signbit(values) * _U(ord("-"))).reshape(rows, d)
    out[..., 1] = ((b1 << shift) | (b0 >> back)).reshape(rows, d)
    out[..., 2] = ((b2 << shift) | (b1 >> back) | np.take(_EXPONENTS, x + 11)).reshape(rows, d)
    out[:, :-1, 2] |= _U(ord(" ") << 56)
    out[:, -1, 2] |= _U(ord("\n") << 56)
    text = out.tobytes().translate(None, b"\0")
    slow_rows = np.flatnonzero(slow.reshape(rows, d).any(axis=1))
    if len(slow_rows):
        lines = text.splitlines(keepends=True)
        line = " ".join(["%.17g"] * d) + "\n"
        for i in slow_rows:
            lines[i] = (line % tuple(block[i].tolist())).encode()
        text = b"".join(lines)
    return text


def encode_rows(matrix):
    """Yield the text of ``matrix``'s rows, :data:`TEXT_BLOCK` values at a
    time: each row's values as ``"%.17g" % v`` spells them, joined by
    spaces, and a newline.

    The bytes are those of ``%``, computed by exact integer arithmetic
    on whole blocks (fixed-precision conversion as in Adams, "Ryu
    Revisited: Printf Floating Point Conversion", OOPSLA 2019): 17
    digits from the significand times a power of five, rounded half to
    even, laid out by the ``%g`` rules.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, d = matrix.shape
    if d == 0:
        yield b"\n" * rows
        return
    step = max(1, TEXT_BLOCK // d)
    for start in range(0, rows, step):
        yield _encode_block(matrix[start:start + step])


def save_embedding_text(path, words, matrix: np.ndarray) -> None:
    """Write word vectors in the shared text format.

    Floats are written as ``"%.17g" % v`` writes them, so a round trip
    reproduces the exact binary values (the format contract requires
    nine significant digits; we keep all of them). :func:`encode_rows`
    makes those bytes a block of rows at a time, and each line gets its
    word in front.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if len(words) != matrix.shape[0]:
        raise ValueError("word count does not match matrix rows")
    prefixes = iter([f"{word} ".encode() for word in words])
    with open(path, "wb") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n".encode())
        for text in encode_rows(matrix):
            # lines first: zip stops on them before taking a word too many
            fh.write(b"".join(prefix + line for line, prefix
                              in zip(text.splitlines(keepends=True), prefixes)))


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
