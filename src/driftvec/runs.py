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
is the ``.vec`` header's. A ``.vec`` without a pin, or next to a
missing or damaged twin, is parsed as text; a pinned ``.vec`` that no
longer hashes to its pin (edited after training) is a data error.

``eval``, ``drift`` and ``export`` read a run through
:func:`load_slice_matrices`, each file once, and all three read slice 0's
word checkpoint, whose words every checkpoint they read must share.

``train`` removes ``run.json`` before it writes the first checkpoint and
writes it again last, so a run killed in between has no manifest.

This module writes every file of a run. Once training has ended,
``train`` hands :func:`save_checkpoints`, the one checkpoint writer, the
``matrices`` of a :class:`~driftvec.sgns.TrainResult` and dbe's
optimizer-state files, and :func:`write_text_files` spreads these text
files and the twins over the usable cores: lane 0 runs in the calling
process, every other lane in a child forked after the matrices are
final, so the children read the matrices from memory they share with
the parent. No setting controls this; with one usable core no child
starts. Each file, and ``run.json``, is written to a ``<name>.tmp``
sibling and renamed into place, so a run killed midway leaves no
partial file under a final name.
"""

import hashlib
import io
import json
import multiprocessing
import os
from functools import partial
from itertools import zip_longest
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import DataError, open_text
from .sgns import check_finite_rows, load_embedding_text, save_embedding_text


def content_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _replace_into(path, write) -> None:
    """``write(tmp)`` a sibling of ``path`` named ``<name>.tmp``, then
    rename it onto ``path``; a failed write leaves ``path`` untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _dump_json(payload, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(rundir, payload: dict) -> None:
    rundir = Path(rundir)
    rundir.mkdir(parents=True, exist_ok=True)
    _replace_into(rundir / "run.json", partial(_dump_json, payload))


class TextFile(NamedTuple):
    """One text file of a run: ``write(tmp)`` writes its bytes to ``tmp``.
    ``size``, its float count, orders the files across lanes; ``twin``, if
    given, is saved beside it as ``<stem>.npy``."""
    path: Path
    size: int
    write: Callable
    twin: np.ndarray | None = None


def _save_twin(matrix, tmp) -> None:
    # a file object, since np.save appends .npy to a name that lacks it
    with open(tmp, "wb") as fh:
        np.save(fh, matrix)


def _write_lane(files):
    """Write ``files`` in turn; None, or a message naming the one that failed."""
    for f in files:
        try:
            _replace_into(f.path, f.write)
            if f.twin is not None:
                _replace_into(f.path.with_suffix(".npy"), partial(_save_twin, f.twin))
        except Exception as exc:  # a lane reports any failure as its file's
            return f"cannot write {f.path}: {exc}"
    return None


def _child_lane(files, conn) -> None:
    error = _write_lane(files)
    if error is not None:
        conn.send(error)


def write_text_files(files) -> None:
    """Write ``files`` on ``min(usable cores, len(files))`` lanes.

    Largest first, each file goes to the least-loaded lane. Lane 0 runs
    here; each other lane runs in a child forked from this process, which
    only formats and writes what it inherited. Fork, not spawn: a spawned
    child would need every matrix pickled to it; a forked one calls no
    BLAS, so the parent's BLAS threads cannot stall it. Every lane is joined
    before a failure is raised, as a DataError naming the file the lane
    was writing, or the lane when its child died without saying.
    """
    lanes = [[] for _ in range(min(len(os.sched_getaffinity(0)), len(files)))]
    loads = [0] * len(lanes)
    for f in sorted(files, key=lambda f: -f.size):
        k = loads.index(min(loads))
        lanes[k].append(f)
        loads[k] += f.size
    fork = multiprocessing.get_context("fork")
    children = []
    for lane in lanes[1:]:
        reader, writer = fork.Pipe(duplex=False)
        child = fork.Process(target=_child_lane, args=(lane, writer))
        child.start()
        children.append((child, reader, writer, lane))
    errors = [_write_lane(lanes[0])]
    for k, (child, reader, writer, lane) in enumerate(children, start=1):
        child.join()
        with reader, writer:
            error = reader.recv() if reader.poll() else None
        if error is None and child.exitcode != 0:
            error = (f"writer lane {k} of {len(lanes)} exited with code {child.exitcode} "
                     f"while writing one of {', '.join(str(f.path) for f in lane)}")
        errors.append(error)
    failed = [e for e in errors if e is not None]
    if failed:
        raise DataError(failed[0])


# (model kind, role) -> checkpoint file name under ``<run>/<kind>/``,
# formatted with the slice index. ``export --role`` reads the same table;
# dsg's ``mean`` is its alias of ``word``, which no trainer returns.
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


def _pin_key(path: Path) -> str:
    return f"{path.parent.name}/{path.name}"


def save_checkpoints(rundir, kind, words, matrices, extra=()) -> dict:
    """Write a run's checkpoints, ``{role: [matrix per slice]}`` as in
    :class:`~driftvec.sgns.TrainResult`, each with its twin, and the text
    files in ``extra``; returns the checkpoints' pins for ``run.json``.
    The run's manifest is removed first, so a run killed from here on
    has none."""
    (Path(rundir) / "run.json").unlink(missing_ok=True)
    (Path(rundir) / kind).mkdir(parents=True, exist_ok=True)
    files = []
    for role, mats in matrices.items():
        for t, matrix in enumerate(mats):
            m = np.ascontiguousarray(matrix, dtype=np.float64)
            files.append(TextFile(checkpoint_path(rundir, kind, role, t), m.size,
                                  lambda tmp, m=m: save_embedding_text(tmp, words, m), m))
    write_text_files(files + list(extra))
    return {_pin_key(f.path): {"sha256": content_hash(f.path),
                               "npy_sha256": content_hash(f.path.with_suffix(".npy"))}
            for f in files}


# unused by the package; bench/layers.py still patches these names
save_isg_checkpoints = save_dsg_checkpoints = save_dbe_checkpoints = save_checkpoints


def _pinned_twin(path: Path, pins):
    """``(words, matrix)`` read through the binary twin of the checkpoint
    at ``path``. None when the checkpoint has no pin, or when its twin is
    missing, does not hash to its pin or is not a float64 matrix of the
    checkpoint header's shape. A pinned checkpoint that no longer hashes
    to its pin is a DataError."""
    pin = pins.get(_pin_key(path)) if isinstance(pins, dict) else None
    if not isinstance(pin, dict):
        return None
    text = path.read_bytes()
    if hashlib.sha256(text).hexdigest() != pin.get("sha256"):
        raise DataError(f"{path}: changed since training; its sha256 is not the one "
                        f"run.json pins")
    twin = path.with_suffix(".npy")
    if not twin.exists():
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


def _load_like(path, pins, first_path, first_words, width):
    """The matrix at ``path``, which must hold the words of ``first_path``,
    slice 0's word checkpoint, in their order, and ``width`` columns."""
    words, matrix = _load(path, pins)
    if words != first_words:
        row = next(i for i, (a, b) in enumerate(zip_longest(words, first_words)) if a != b)
        holds = [repr(w[row]) if row < len(w) else "no row" for w in (words, first_words)]
        raise DataError(f"{path}: row {row + 1} holds {holds[0]}, but "
                        f"{first_path} holds {holds[1]}")
    if matrix.shape[1] != width:
        raise DataError(f"{path}: {matrix.shape[1]} columns, but {first_path} has {width}")
    return matrix


def load_slice_matrices(rundir, manifest: dict, roles=("word", "context"), slices=None):
    """``(words, {role: [matrix per slice]})`` for the run ``manifest``
    describes, ready for scoring: posterior means for the Bayesian model.
    ``slices`` picks the slices, in order; by default every slice.

    The word list is read with slice 0's word checkpoint, whose words and
    width every other checkpoint must share. Each distinct file is read
    once, so dbe's shared ``context.vec`` serves every slice.
    """
    kind, pins = manifest["model"], manifest.get("checkpoints")
    slices = range(manifest["T"]) if slices is None else slices
    paths = {role: [checkpoint_path(rundir, kind, role, t) for t in slices] for role in roles}
    first_path = checkpoint_path(rundir, kind, "word", 0)
    words, first = _load(first_path, pins)
    loaded = {first_path: first}
    for role_paths in paths.values():
        for path in role_paths:
            if path not in loaded:
                loaded[path] = _load_like(path, pins, first_path, words, first.shape[1])
    return words, {role: [loaded[path] for path in role_paths]
                   for role, role_paths in paths.items()}


def checkpoint_words(rundir, kind: str):
    # unused by the package; bench/layers.py still patches this name
    words, _ = _load(checkpoint_path(rundir, kind, "word", 0))
    return words
