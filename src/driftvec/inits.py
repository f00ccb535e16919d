"""Initialization schemes: random noise, internal (static pretraining on
the pooled corpus), and backward-external (pretrained vectors at the most
recent slice with reverse-chronological training).

Every scheme yields a ``(U, V)`` pair of (L, d) float arrays for each
model family. dsg reads them as the means of the virtual posterior
before its first trained slice; its filter builds each prior from means
alone, so no initial variance is needed.

:func:`train_model` maps a model kind to its trainer. The internal
scheme runs it on the pooled corpus, so it pretrains the run's own model.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import dbe as dbe_mod
from . import dsg as dsg_mod
from . import isg as isg_mod
from .corpus import TimeSlicedCorpus, Vocabulary
from .errors import DataError
from .sgns import TrainConfig, TrainResult, load_embedding_text

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


def train_model(kind: str, corpus: TimeSlicedCorpus, vocab: Vocabulary, init,
                config: TrainConfig, params=None, reg=None, direction: str = isg_mod.FORWARD,
                eval_corpus=None) -> TrainResult:
    """Train model ``kind`` from the ``(U, V)`` pair ``init``, with its
    ``DsgParams`` or ``DbeParams`` (their defaults when None). isg reads
    no ``params`` or ``reg``, and dbe, trained jointly, no ``direction``."""
    if kind == "isg":
        return isg_mod.train_incremental(corpus, vocab, init, config, direction=direction,
                                         eval_corpus=eval_corpus)
    if kind == "dsg":
        return dsg_mod.train_dsg(corpus, vocab, init, params or dsg_mod.DsgParams(), config,
                                 direction=direction, reg=reg, eval_corpus=eval_corpus)
    if kind == "dbe":
        return dbe_mod.train_dbe(corpus, vocab, init, params or dbe_mod.DbeParams(), config,
                                 reg=reg, eval_corpus=eval_corpus)
    raise ValueError(f"unknown model kind {kind!r}")


def init_internal(corpus: TimeSlicedCorpus, vocab: Vocabulary,
                  config: TrainConfig, model_kind: str, model_params=None):
    """Static training on the pooled corpus, used as the diachronic
    run's initializer: its ``(U, V)`` pair, posterior means for dsg.
    Deterministic given ``config.seed``."""
    start = init_random(vocab.size, config.dim, config.seed, model_kind)
    matrices = train_model(model_kind, pool_slices(corpus), vocab, start, config,
                           model_params).matrices
    return matrices["word"][0], matrices["context"][0]


def load_pretrained(path, vocab: Vocabulary, oov_seed: int,
                    expected_dim: int | None = None):
    """Fill an (L, d) matrix from a pretrained word-vector text file.

    Rows for vocabulary words absent from the file are drawn from
    N(0, 0.1^2) under ``oov_seed``, in vocabulary order. Returns
    ``(matrix, missing_words)``, the list of those words.
    """
    try:
        words, matrix = load_embedding_text(path)
    except OSError as exc:
        raise DataError(f"unreadable pretrained file {path}: {exc}") from exc
    dim = matrix.shape[1]
    if expected_dim is not None and dim != expected_dim:
        raise DataError(
            f"pretrained dimension {dim} does not match configured dimension {expected_dim}")
    lookup = {}
    for i, word in enumerate(words):
        first = lookup.setdefault(word, i)
        if first != i:
            raise DataError(f"{path}:{i + 2}: word {word!r} repeats the row on line {first + 2}")
    rows = np.array([lookup.get(word, -1) for word in vocab.words], dtype=np.int64)
    missing = rows < 0
    out = np.empty((vocab.size, dim))
    out[~missing] = matrix[rows[~missing]]
    # one block draw gives the values of one draw per missing row, in order
    rng = np.random.default_rng([oov_seed, 0x00f])
    out[missing] = rng.normal(0.0, OOV_SIGMA, size=(int(missing.sum()), dim))
    return out, [vocab.words[i] for i in np.flatnonzero(missing)]


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

    pretrained, missing = load_pretrained(scheme.pretrained_path, vocab,
                                          config.seed, expected_dim=config.dim)
    if missing:
        warnings.warn(
            f"pretrained file covers {vocab.size - len(missing)}/{vocab.size} words; "
            "missing rows were seeded randomly", stacklevel=2)
    return (pretrained, pretrained.copy()), (
        direction if model_kind == "dbe" else isg_mod.BACKWARD)
