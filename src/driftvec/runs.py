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


# (model kind, role) -> checkpoint file name under ``<run>/<kind>/``,
# formatted with the slice index. ``export --role`` reads the same table.
CHECKPOINT_FILES = {
    ("isg", "word"): "t{}.vec",
    ("isg", "context"): "t{}.ctx.vec",
    ("dsg", "word"): "t{}.mean.vec",
    ("dsg", "mean"): "t{}.mean.vec",
    ("dsg", "var"): "t{}.var.vec",
    ("dsg", "context"): "t{}.ctx.mean.vec",
    ("dsg", "context_var"): "t{}.ctx.var.vec",
    ("dbe", "word"): "t{}.vec",
    ("dbe", "context"): "context.vec",
}


def checkpoint_path(rundir, kind: str, role: str, t: int) -> Path:
    """Path of one checkpoint file; ``ValueError`` for a role the model lacks."""
    name = CHECKPOINT_FILES.get((kind, role))
    if name is None:
        raise ValueError(f"role {role!r} is not available for model {kind!r}")
    return Path(rundir) / kind / name.format(t)


def _make_model_dir(rundir, kind) -> None:
    (Path(rundir) / kind).mkdir(parents=True, exist_ok=True)


def save_isg_checkpoints(rundir, words, model) -> None:
    _make_model_dir(rundir, "isg")
    for t in range(model.T):
        save_embedding_text(checkpoint_path(rundir, "isg", "word", t), words, model.U[t])
        save_embedding_text(checkpoint_path(rundir, "isg", "context", t), words, model.V[t])


def save_dsg_checkpoints(rundir, words, posteriors) -> None:
    _make_model_dir(rundir, "dsg")
    for t, (qU, qV) in enumerate(posteriors):
        save_embedding_text(checkpoint_path(rundir, "dsg", "mean", t), words, qU.mean)
        save_embedding_text(checkpoint_path(rundir, "dsg", "var", t), words, qU.variance)
        save_embedding_text(checkpoint_path(rundir, "dsg", "context", t), words, qV.mean)
        save_embedding_text(checkpoint_path(rundir, "dsg", "context_var", t), words,
                            qV.variance)


def save_dbe_checkpoints(rundir, words, model) -> None:
    _make_model_dir(rundir, "dbe")
    for t in range(model.T):
        save_embedding_text(checkpoint_path(rundir, "dbe", "word", t), words, model.U[t])
    save_embedding_text(checkpoint_path(rundir, "dbe", "context", 0), words, model.V)


def _load(path):
    if not Path(path).exists():
        raise DataError(f"missing checkpoint {path}")
    return load_embedding_text(path)


def load_word_matrices(rundir, kind: str, T: int):
    """``(words, matrices)``: the per-slice word matrices of a run (posterior
    means for the Bayesian model) and the word list read with slice 0."""
    words, mats = [], []
    for t in range(T):
        slice_words, matrix = _load(checkpoint_path(rundir, kind, "word", t))
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
    if kind == "dbe":
        ctx_mats = [_load(checkpoint_path(rundir, kind, "context", 0))[1]] * T
    else:
        ctx_mats = [_load(checkpoint_path(rundir, kind, "context", t))[1] for t in range(T)]
    return words_mats, ctx_mats


def checkpoint_words(rundir, kind: str):
    # unused by the package; bench/layers.py still patches this name
    words, _ = _load(checkpoint_path(rundir, kind, "word", 0))
    return words
