"""Initialization schemes: random noise, internal (static pretraining on
the pooled corpus), and backward-external (pretrained vectors at the most
recent slice with reverse-chronological training).

Every scheme yields a ``(U, V)`` pair of (L, d) float arrays for each
model family. dsg reads them as the means of the virtual posterior
before its first trained slice; its filter builds each prior from means
alone, so no initial variance is needed.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import dbe as dbe_mod
from . import dsg as dsg_mod
from . import isg as isg_mod
from .corpus import TimeSlicedCorpus, Vocabulary
from .dsg import DsgParams
from .errors import DataError
from .sgns import TrainConfig, load_embedding_text

RANDOM = "random"
INTERNAL = "internal"
BACKWARD_EXTERNAL = "backward_external"

MODEL_KINDS = ("isg", "dsg", "dbe")

OOV_SIGMA = 0.1  # stddev of rows filled for words missing from a pretrained file


@dataclass
class InitScheme:
    kind: str = RANDOM
    pretrained_path: str | None = None

    def __post_init__(self):
        if self.kind not in (RANDOM, INTERNAL, BACKWARD_EXTERNAL):
            raise ValueError(f"unknown init scheme {self.kind!r}")
        if self.kind == BACKWARD_EXTERNAL and not self.pretrained_path:
            raise ValueError("backward_external requires pretrained_path")


@dataclass(frozen=True)
class PretrainedCoverage:
    covered: int
    total: int
    missing_words: tuple

    @property
    def fraction(self) -> float:
        return self.covered / self.total


def init_random(L: int, d: int, seed: int, model_kind: str):
    """Fresh initial matrices for a model family.

    Point-estimate models get independent standard-normal word and
    context matrices. The Bayesian model starts at zero means.
    """
    if L < 1 or d < 1:
        raise ValueError("L and d must be >= 1")
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    rng = np.random.default_rng([seed, 0x1417])
    if model_kind == "dsg":
        return np.zeros((L, d)), np.zeros((L, d))
    U = rng.standard_normal((L, d))
    V = rng.standard_normal((L, d))
    return U, V


def pool_slices(corpus: TimeSlicedCorpus) -> TimeSlicedCorpus:
    """All documents of all slices gathered into a single slice."""
    docs = tuple(doc for slice_docs in corpus.slices for doc in slice_docs)
    return TimeSlicedCorpus(slices=(docs,), split_tag=corpus.split_tag)


def init_internal(corpus: TimeSlicedCorpus, vocab: Vocabulary,
                  config: TrainConfig, model_kind: str, model_params=None):
    """Static training on the pooled corpus, used as the diachronic
    run's initializer: its ``(U, V)`` pair, posterior means for dsg.
    Deterministic given ``config.seed``."""
    pooled = pool_slices(corpus)
    start = init_random(vocab.size, config.dim, config.seed, model_kind)
    if model_kind == "isg":
        U, V, _ = isg_mod.train_slice(pooled.slices[0], vocab, start[0], start[1],
                                      config, slice_index=0)
        return U, V
    if model_kind == "dsg":
        params = model_params or DsgParams()
        qU, qV, _ = dsg_mod.dsg_filter_step(pooled.slices[0], vocab, start,
                                            params, config, slice_index=0)
        return qU.mean, qV.mean
    if model_kind == "dbe":
        params = model_params or dbe_mod.DbeParams()
        model, _ = dbe_mod.train_dbe(pooled, vocab, start, params, config)
        return model.U[0], model.V
    raise ValueError(f"unknown model kind {model_kind!r}")


def load_pretrained(path, vocab: Vocabulary, oov_seed: int,
                    expected_dim: int | None = None):
    """Fill an (L, d) matrix from a pretrained word-vector text file.

    Rows for words absent from the file are drawn from N(0, 0.1^2) with
    ``oov_seed`` so ties are broken deterministically. Returns
    ``(matrix, PretrainedCoverage)``.
    """
    try:
        words, matrix = load_embedding_text(path)
    except OSError as exc:
        raise DataError(f"unreadable pretrained file {path}: {exc}") from exc
    dim = matrix.shape[1]
    if expected_dim is not None and dim != expected_dim:
        raise DataError(
            f"pretrained dimension {dim} does not match configured dimension {expected_dim}")
    lookup = {w: i for i, w in enumerate(words)}
    out = np.empty((vocab.size, dim))
    rng = np.random.default_rng([oov_seed, 0x00f])
    missing = []
    for i, word in enumerate(vocab.words):
        j = lookup.get(word)
        if j is None:
            missing.append(word)
            out[i] = rng.normal(0.0, OOV_SIGMA, size=dim)
        else:
            out[i] = matrix[j]
    coverage = PretrainedCoverage(covered=vocab.size - len(missing),
                                  total=vocab.size,
                                  missing_words=tuple(missing))
    return out, coverage


def apply_scheme(scheme: InitScheme, model_kind: str, corpus: TimeSlicedCorpus,
                 vocab: Vocabulary, config: TrainConfig, model_params=None):
    """Resolve a scheme into an initial ``(U, V)`` pair and a training direction.

    Directions: ``forward`` trains oldest to newest from the slice-0
    initializer; ``backward`` anchors the most recent slice (external
    vectors describe recent usage) and updates toward older slices. The
    jointly trained Bernoulli model has no training order, reported as
    ``joint``; under backward-external every slice starts from the
    pretrained matrix.
    """
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    direction = "joint" if model_kind == "dbe" else isg_mod.FORWARD

    if scheme.kind in (RANDOM, INTERNAL) and scheme.pretrained_path:
        warnings.warn(
            f"init scheme {scheme.kind!r} ignores pretrained_path", stacklevel=2)

    if scheme.kind == RANDOM:
        return init_random(vocab.size, config.dim, config.seed, model_kind), direction

    if scheme.kind == INTERNAL:
        return init_internal(corpus, vocab, config, model_kind, model_params), direction

    pretrained, coverage = load_pretrained(scheme.pretrained_path, vocab,
                                           config.seed, expected_dim=config.dim)
    if coverage.fraction < 1.0:
        warnings.warn(
            f"pretrained file covers {coverage.covered}/{coverage.total} words; "
            "missing rows were seeded randomly", stacklevel=2)
    return (pretrained.copy(), pretrained.copy()), (
        direction if model_kind == "dbe" else isg_mod.BACKWARD)
