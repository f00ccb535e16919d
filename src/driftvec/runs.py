"""Run directories: checkpoint layout, run manifests, reload for analysis.

Layout under the run directory:

* ``run.json``    resolved configuration, input content hashes, traces
* ``isg/t<k>.vec`` + ``isg/t<k>.ctx.vec``       per-slice word/context matrices
* ``dsg/t<k>.mean.vec`` / ``t<k>.var.vec``       posterior over word vectors
  and ``t<k>.ctx.mean.vec`` / ``t<k>.ctx.var.vec`` for context vectors
* ``dbe/t<k>.vec`` + ``dbe/context.vec``         per-slice words, shared contexts
* ``dbe/adam_u<k>.txt`` + ``dbe/adam_ctx.txt``   dbe's final optimizer state

Every ``.vec`` checkpoint has a binary twin, ``<stem>.npy`` (``np.save``,
float64), and the ``checkpoints`` block of ``run.json`` pins the sha256
of both, ``{"<kind>/<file>.vec": {"sha256": ..., "npy_sha256": ...}}``.
The ``.vec`` is the format of record. A load reads the twin only when
the ``.vec`` and the twin both hash to their pins and the twin's shape
is the ``.vec`` header's; anything else (no pin, a missing or damaged
twin, a ``.vec`` edited after training) parses the ``.vec`` text.

``train`` removes ``run.json`` before it writes the first checkpoint and
writes it again last, so a run killed in between has no manifest.
"""

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from .errors import DataError, open_text
from .sgns import check_finite_rows, load_embedding_text, save_embedding_text


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


def _positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _input_paths(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(entry, dict) and isinstance(entry.get("path"), str) for entry in value.values())


_CHECKPOINT_KINDS = sorted({kind for kind, _ in CHECKPOINT_FILES})

# Manifest field -> (its check, what eval, drift and export need there).
_MANIFEST_FIELDS = {
    ("model",): (lambda v: isinstance(v, str) and v in _CHECKPOINT_KINDS,
                 f"one of {_CHECKPOINT_KINDS}"),
    ("T",): (_positive_int, "an integer >= 1"),
    ("inputs",): (_input_paths, 'an object of {"path": ...} entries'),
    ("config", "train", "window"): (_positive_int, "an integer >= 1"),
}


def read_manifest(rundir) -> dict:
    """The parsed ``run.json``; a DataError naming the file when it is not
    a JSON object or lacks a field that eval, drift or export read."""
    path = Path(rundir) / "run.json"
    if not path.exists():
        raise DataError(f"no run manifest at {path}")
    with open_text(path) as fh:
        text = fh.read()
    try:
        manifest = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: not a JSON object")
    for keys, (valid, expected) in _MANIFEST_FIELDS.items():
        value = manifest
        for key in keys:
            value = value.get(key) if isinstance(value, dict) else None
        if not valid(value):
            raise DataError(f"{path}: {'.'.join(keys)} must be {expected}, not {value!r}")
    return manifest


def checkpoint_path(rundir, kind: str, role: str, t: int) -> Path:
    """Path of one checkpoint file; ``ValueError`` for a role the model lacks."""
    name = CHECKPOINT_FILES.get((kind, role))
    if name is None:
        raise ValueError(f"role {role!r} is not available for model {kind!r}")
    return Path(rundir) / kind / name.format(t)


def _begin_checkpoints(rundir, kind) -> dict:
    """Remove the run's manifest, so a run killed from here on has none,
    and make the model directory; returns the empty pin table."""
    (Path(rundir) / "run.json").unlink(missing_ok=True)
    (Path(rundir) / kind).mkdir(parents=True, exist_ok=True)
    return {}


def _pin_key(path: Path) -> str:
    return f"{path.parent.name}/{path.name}"


def _save(pins, path, words, matrix) -> None:
    """Write one checkpoint and its binary twin; pin both in ``pins``."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    save_embedding_text(path, words, matrix)
    twin = path.with_suffix(".npy")
    np.save(twin, matrix)
    pins[_pin_key(path)] = {"sha256": content_hash(path), "npy_sha256": content_hash(twin)}


def save_isg_checkpoints(rundir, words, model) -> dict:
    """Write the run's checkpoints; returns their pins for ``run.json``."""
    pins = _begin_checkpoints(rundir, "isg")
    for t in range(model.T):
        _save(pins, checkpoint_path(rundir, "isg", "word", t), words, model.U[t])
        _save(pins, checkpoint_path(rundir, "isg", "context", t), words, model.V[t])
    return pins


def save_dsg_checkpoints(rundir, words, posteriors) -> dict:
    pins = _begin_checkpoints(rundir, "dsg")
    for t, (qU, qV) in enumerate(posteriors):
        _save(pins, checkpoint_path(rundir, "dsg", "mean", t), words, qU.mean)
        _save(pins, checkpoint_path(rundir, "dsg", "var", t), words, qU.variance)
        _save(pins, checkpoint_path(rundir, "dsg", "context", t), words, qV.mean)
        _save(pins, checkpoint_path(rundir, "dsg", "context_var", t), words, qV.variance)
    return pins


def save_dbe_checkpoints(rundir, words, model) -> dict:
    pins = _begin_checkpoints(rundir, "dbe")
    for t in range(model.T):
        _save(pins, checkpoint_path(rundir, "dbe", "word", t), words, model.U[t])
    _save(pins, checkpoint_path(rundir, "dbe", "context", 0), words, model.V)
    return pins


def _pinned_twin(path: Path, pins):
    """``(words, matrix)`` read through the binary twin of the checkpoint
    at ``path``, or None unless the checkpoint and its twin hash to their
    pins and the twin is a float64 matrix of the checkpoint header's shape."""
    pin = pins.get(_pin_key(path)) if isinstance(pins, dict) else None
    if not isinstance(pin, dict):
        return None
    text = path.read_bytes()
    twin = path.with_suffix(".npy")
    if hashlib.sha256(text).hexdigest() != pin.get("sha256") or not twin.exists():
        return None
    raw = twin.read_bytes()
    if hashlib.sha256(raw).hexdigest() != pin.get("npy_sha256"):
        return None
    lines = text.split(b"\n")
    try:
        count, dim = map(int, lines[0].split())
        matrix = np.load(io.BytesIO(raw), allow_pickle=False)
        words = [line.split(b" ", 1)[0].decode("utf-8") for line in lines[1:count + 1]]
    except (ValueError, EOFError):
        return None
    if matrix.dtype != np.float64 or matrix.shape != (count, dim) or len(words) != count:
        return None
    check_finite_rows(path, words, matrix)
    return words, matrix


def _load(path, pins=None):
    if not Path(path).exists():
        raise DataError(f"missing checkpoint {path}")
    pinned = _pinned_twin(path, pins)
    return pinned if pinned is not None else load_embedding_text(path)


def load_checkpoint(rundir, manifest: dict, role: str, t: int):
    """``(words, matrix)`` of one checkpoint of the run ``manifest``
    describes, read through its twin when both are pinned and intact."""
    return _load(checkpoint_path(rundir, manifest["model"], role, t),
                 manifest.get("checkpoints"))


def _load_like(path, pins, first_path, first_words, width):
    """The matrix at ``path``, which must hold the words of ``first_path``,
    slice 0's word checkpoint, in their order, and ``width`` columns."""
    words, matrix = _load(path, pins)
    if words != first_words:
        row = next(i for i, (a, b) in enumerate(zip(words + [None], first_words + [None]))
                   if a != b)
        holds = [repr(w[row]) if row < len(w) else "no row" for w in (words, first_words)]
        raise DataError(f"{path}: row {row + 1} holds {holds[0]}, but "
                        f"{first_path} holds {holds[1]}")
    if matrix.shape[1] != width:
        raise DataError(f"{path}: {matrix.shape[1]} columns, but {first_path} has {width}")
    return matrix


def load_word_matrices(rundir, manifest: dict):
    """``(words, matrices)``: the per-slice word matrices of a run (posterior
    means for the Bayesian model) and the word list read with slice 0,
    whose words and width every later slice must share."""
    kind, pins = manifest["model"], manifest.get("checkpoints")
    first_path = checkpoint_path(rundir, kind, "word", 0)
    words, matrix = _load(first_path, pins)
    return words, [matrix] + [
        _load_like(checkpoint_path(rundir, kind, "word", t), pins, first_path, words,
                   matrix.shape[1])
        for t in range(1, manifest["T"])]


def load_slice_matrices(rundir, manifest: dict):
    """Word and context matrices per slice, ready for scoring.

    For the Bayesian model these are posterior means; for the Bernoulli
    model the shared context matrix is repeated per slice. Context
    checkpoints must share the words and width of slice 0's word one.
    """
    kind, T, pins = manifest["model"], manifest["T"], manifest.get("checkpoints")
    words, word_mats = load_word_matrices(rundir, manifest)
    first = (checkpoint_path(rundir, kind, "word", 0), words, word_mats[0].shape[1])
    if kind == "dbe":
        ctx_mats = [_load_like(checkpoint_path(rundir, kind, "context", 0), pins, *first)] * T
    else:
        ctx_mats = [_load_like(checkpoint_path(rundir, kind, "context", t), pins, *first)
                    for t in range(T)]
    return word_mats, ctx_mats


def checkpoint_words(rundir, kind: str):
    # unused by the package; bench/layers.py still patches this name
    words, _ = _load(checkpoint_path(rundir, kind, "word", 0))
    return words
