"""Drift computation, histogram export, directedness and stability
diagnostics, and held-out positive log-likelihood evaluation.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .corpus import TimeSlicedCorpus, extract_pairs
from .errors import DataError, EmptyCorpusError
from .sgns import mean_lpos
from .shrinkreg import word_drifts


@dataclass(frozen=True)
class DriftSeries:
    """Per-word drift magnitudes against a reference slice.

    ``values[i, t]`` is word i's drift from the reference to slice t;
    the reference column is identically zero.
    """

    reference_slice: int
    values: np.ndarray          # (L, T), nonnegative

    @property
    def T(self):
        return self.values.shape[1]

    @property
    def target_slices(self):
        return [t for t in range((self.values.shape[1])) if t != self.reference_slice]

    def __post_init__(self):
        self.values.setflags(write=False)


def drift_series(matrices, reference_slice: int) -> DriftSeries:
    """Assemble a series from per-slice word matrices (means for DSG)."""
    T = len(matrices)
    if not 0 <= reference_slice < T:
        raise ValueError("reference slice out of range")
    ref = matrices[reference_slice]
    values = np.zeros((ref.shape[0], T))
    for t in range(T):
        if t != reference_slice:
            values[:, t] = word_drifts(matrices[t], ref)
    return DriftSeries(reference_slice=reference_slice, values=values)


@dataclass(frozen=True)
class HistogramExport:
    bin_edges: np.ndarray       # (bins + 1,)
    counts: dict                # target slice -> (bins,) int array


def check_bins(bins: int) -> None:
    if bins < 1:
        raise ValueError("bins must be >= 1")


def check_threshold_fraction(threshold_fraction: float) -> None:
    if not 0 < threshold_fraction < 1:
        raise ValueError("threshold_fraction must lie in (0, 1)")


def drift_histogram(series: DriftSeries, bins: int) -> HistogramExport:
    """Superimposed histograms of drifts toward each target slice.

    All target slices share bin edges spanning the global value range,
    so per-slice counts each sum to the vocabulary size. Counts are
    meant to be plotted on a log scale.
    """
    check_bins(bins)
    targets = series.target_slices
    pool = series.values[:, targets]
    lo = float(pool.min()) if pool.size else 0.0
    hi = float(pool.max()) if pool.size else 0.0
    if hi <= lo:
        hi = lo + 1.0   # degenerate range: everything lands in the first bin
    edges = np.linspace(lo, hi, bins + 1)
    counts = {}
    for t in targets:
        c, _ = np.histogram(series.values[:, t], bins=edges)
        counts[t] = c
    return HistogramExport(bin_edges=edges, counts=counts)


def directedness(series: DriftSeries, word_ids=None) -> float:
    """Kendall-style rank correlation between target-slice order and
    mean drift: +1 when drifts grow with every step away from the
    reference, 0 when there is no ordering preference.

    ``word_ids`` restricts the mean to a subset (e.g. one word).
    """
    targets = series.target_slices
    if len(targets) < 2:
        raise DataError("directedness needs at least two target slices")
    values = series.values if word_ids is None else series.values[word_ids]
    if values.ndim == 1:
        values = values[None, :]
    means = [float(values[:, t].mean()) for t in targets]
    pairs = list(itertools.combinations(means, 2))
    return sum((later > earlier) - (later < earlier) for earlier, later in pairs) / len(pairs)


def stability_fraction(series: DriftSeries, target_t: int,
                       threshold_fraction: float) -> float:
    """Fraction of words whose drift to ``target_t`` is below
    ``threshold_fraction`` times the mean drift there."""
    check_threshold_fraction(threshold_fraction)
    col = series.values[:, target_t]
    return float((col < threshold_fraction * col.mean()).mean())


# ---------------------------------------------------------------------------
# Held-out evaluation
# ---------------------------------------------------------------------------

def evaluate_lpos(corpus: TimeSlicedCorpus, word_matrices, context_matrices,
                  window: int):
    """Mean per-pair log-probability of held-out positive pairs.

    ``word_matrices``/``context_matrices`` hold one (L, d) array per
    slice (pass the shared context matrix T times for the Bernoulli
    model; pass posterior means for the Bayesian one). Returns
    ``(per_slice, mean)``; values are never positive. A slice with no
    held-out pairs scores 0.0, with a warning, and is left out of the
    mean; when no slice has any, :class:`EmptyCorpusError` is raised.
    """
    if len(word_matrices) != corpus.T or len(context_matrices) != corpus.T:
        raise ValueError("need one matrix pair per slice")
    per_slice, empty = [], []
    for t in range(corpus.T):
        pairs = extract_pairs(corpus.slices[t], window)
        if len(pairs[0]) == 0:
            empty.append(t)
        per_slice.append(mean_lpos(pairs, word_matrices[t], context_matrices[t]))
    if len(empty) == corpus.T:
        raise EmptyCorpusError("no slice has held-out pairs")
    for t in empty:
        warnings.warn(f"slice {t} has no held-out pairs", stacklevel=2)
    return per_slice, float(np.mean(np.delete(per_slice, empty)))


def format_lpos_report(per_slice, mean) -> str:
    """Plain-text table: one row per slice plus a mean row, 4 decimals.

    Values are mean log-probabilities per held-out positive pair.
    """
    lines = ["slice\tlpos"]
    for t, v in enumerate(per_slice):
        lines.append(f"{t}\t{v:.4f}")
    lines.append(f"mean\t{mean:.4f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_drift_csv(series: DriftSeries, words, path) -> None:
    """One row per (word, target slice): ``word,t,drift``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("word,t,drift\n")
        for t in range(series.T):
            col = series.values[:, t]
            for i, word in enumerate(words):
                fh.write(f"{word},{t},{col[i]:.10g}\n")


def write_histogram_csv(hist: HistogramExport, path) -> None:
    """One row per (bin, target slice): ``bin_lo,bin_hi,t,count``."""
    edges = hist.bin_edges
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,t,count\n")
        for t in sorted(hist.counts):
            for b, count in enumerate(hist.counts[t]):
                fh.write(f"{edges[b]:.10g},{edges[b + 1]:.10g},{t},{int(count)}\n")
