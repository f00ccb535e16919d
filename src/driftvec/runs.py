"""Run directories: checkpoint layout, run manifests, reload for analysis.

Layout under the run directory:

* ``run.json``    resolved configuration, input content hashes, traces
* ``isg/t<k>.vec`` + ``isg/t<k>.ctx.vec``       per-slice word/context matrices
* ``dsg/t<k>.mean.vec`` / ``t<k>.var.vec``       posterior over word vectors
  and ``t<k>.ctx.mean.vec`` / ``t<k>.ctx.var.vec`` for context vectors
* ``dbe/t<k>.vec`` + ``dbe/context.vec``         per-slice words, shared contexts
* ``<model>/adam_*.txt``                         final optimizer state
"""

import hashlib
import json
from pathlib import Path

from .errors import DataError
from .sgns import load_embedding_text, save_embedding_text


def content_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(rundir, payload: dict) -> None:
    rundir = Path(rundir)
    rundir.mkdir(parents=True, exist_ok=True)
    with open(rundir / "run.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(rundir) -> dict:
    path = Path(rundir) / "run.json"
    if not path.exists():
        raise DataError(f"no run manifest at {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _model_dir(rundir, kind) -> Path:
    d = Path(rundir) / kind
    d.mkdir(parents=True, exist_ok=True)
    return d


def save_isg_checkpoints(rundir, words, model) -> None:
    d = _model_dir(rundir, "isg")
    for t in range(model.T):
        save_embedding_text(d / f"t{t}.vec", words, model.U[t].values)
        save_embedding_text(d / f"t{t}.ctx.vec", words, model.V[t].values)


def save_dsg_checkpoints(rundir, words, posteriors) -> None:
    d = _model_dir(rundir, "dsg")
    for t, (qU, qV) in enumerate(posteriors):
        save_embedding_text(d / f"t{t}.mean.vec", words, qU.mean)
        save_embedding_text(d / f"t{t}.var.vec", words, qU.variance)
        save_embedding_text(d / f"t{t}.ctx.mean.vec", words, qV.mean)
        save_embedding_text(d / f"t{t}.ctx.var.vec", words, qV.variance)


def save_dbe_checkpoints(rundir, words, model) -> None:
    d = _model_dir(rundir, "dbe")
    for t in range(model.T):
        save_embedding_text(d / f"t{t}.vec", words, model.U[t].values)
    save_embedding_text(d / "context.vec", words, model.V.values)


WORD_FILES = {"isg": "t{}.vec", "dsg": "t{}.mean.vec", "dbe": "t{}.vec"}
CONTEXT_FILES = {"isg": "t{}.ctx.vec", "dsg": "t{}.ctx.mean.vec"}


def _load(path):
    if not Path(path).exists():
        raise DataError(f"missing checkpoint {path}")
    return load_embedding_text(path)


def _kind_dir(rundir, kind) -> Path:
    if kind not in WORD_FILES:
        raise ValueError(f"unknown model kind {kind!r}")
    return Path(rundir) / kind


def load_word_matrices(rundir, kind: str, T: int):
    """``(words, matrices)``: the per-slice word matrices of a run (posterior
    means for the Bayesian model) and the word list read with slice 0."""
    d = _kind_dir(rundir, kind)
    words, mats = [], []
    for t in range(T):
        slice_words, matrix = _load(d / WORD_FILES[kind].format(t))
        if t == 0:
            words = slice_words
        mats.append(matrix)
    return words, mats


def load_slice_matrices(rundir, kind: str, T: int):
    """Word and context matrices per slice, ready for scoring.

    For the Bayesian model these are posterior means; for the Bernoulli
    model the shared context matrix is repeated per slice.
    """
    _, words_mats = load_word_matrices(rundir, kind, T)
    d = Path(rundir) / kind
    if kind == "dbe":
        ctx_mats = [_load(d / "context.vec")[1]] * T
    else:
        ctx_mats = [_load(d / CONTEXT_FILES[kind].format(t))[1] for t in range(T)]
    return words_mats, ctx_mats


def load_variance_matrices(rundir, T: int):
    """Posterior variance matrices of a Bayesian run's word vectors."""
    d = Path(rundir) / "dsg"
    return [_load(d / f"t{t}.var.vec")[1] for t in range(T)]


def checkpoint_words(rundir, kind: str):
    words, _ = _load(_kind_dir(rundir, kind) / WORD_FILES[kind].format(0))
    return words
