"""Fuzz the loaders that read files from outside: each call on any bytes
either returns or raises DataError (exit 2), never another exception.

Runs are derandomized and bounded, so the suite stays deterministic.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from driftvec.cli import _read_ini
from driftvec.corpus import load_corpus, load_vocabulary
from driftvec.errors import DataError
from driftvec.runs import read_manifest
from driftvec.sgns import load_embedding_text

FUZZ = settings(derandomize=True, max_examples=100, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

DEEP = b"[" * 100_000          # nesting deeper than the JSON parser recurses


def returns_or_data_error(load, *args):
    try:
        load(*args)
    except DataError:
        pass


def lines(fields):
    """Text of lines built from near-valid fields, joined by separators
    the format uses or confuses."""
    line = st.lists(fields, max_size=5).flatmap(
        lambda parts: st.sampled_from(["\t", " ", "=", ""]).map(lambda sep: sep.join(parts)))
    return st.lists(line, max_size=6).map("\n".join)


# -- raw bytes -----------------------------------------------------------------

LOADERS = {
    "corpus": ("c.json", load_corpus),
    "corpus.gz": ("c.json.gz", load_corpus),
    "corpus-vocab": ("c.json", lambda path: load_corpus(path, 30)),
    "vocabulary": ("v.tsv", load_vocabulary),
    "vectors": ("e.vec", load_embedding_text),
    "ini": ("run.ini", _read_ini),
    "manifest": ("run.json", lambda path: read_manifest(path.parent)),
}


@pytest.mark.parametrize("loader", list(LOADERS))
@FUZZ
@given(data=st.binary(max_size=200))
@example(data=DEEP)
@example(data=b"\xff")
@example(data=b"")
def test_raw_bytes(tmp_path, loader, data):
    name, load = LOADERS[loader]
    path = tmp_path / name
    path.write_bytes(data)
    returns_or_data_error(load, path)


# -- near-valid text -----------------------------------------------------------

NUMBERS = st.sampled_from(["0", "1", "-1", "2", "0.5", "1e999", "nan", "inf", "-0", "x", ""])
WORDS = st.sampled_from(["w0", "w1", "w0 ", "\u00e9", "\ufeff", "a\rb", ""]) | st.text(max_size=3)


@FUZZ
@given(text=lines(NUMBERS | WORDS))
@example(text="w0\t0\t5\nw1\t1\t" + "9" * 5000)
def test_vocabulary_text(tmp_path, text):
    path = tmp_path / "v.tsv"
    path.write_text(text, encoding="utf-8")
    returns_or_data_error(load_vocabulary, path)


@FUZZ
@given(count=st.integers(-1, 4), dim=st.integers(-1, 4), body=lines(NUMBERS | WORDS))
def test_embedding_text(tmp_path, count, dim, body):
    path = tmp_path / "e.vec"
    path.write_text(f"{count} {dim}\n{body}\n", encoding="utf-8")
    returns_or_data_error(load_embedding_text, path)


INI_LINES = st.sampled_from([
    "[run]", "[data]", "[train]", "[init]", "[dsg]", "[dbe]", "[reg]", "[bogus]", "[DEFAULT]",
    "[", "model = dbe", "model = foo", "dim = 4", "dim = 0", "dim = x", "window = 2",
    "seed = 1", "scheme = internal", "scheme = backward_external", "pretrained =",
    "diffusion = 0", "entropy = exact", "alpha = 0.5", "alpha = -1", "beta = mean",
    "beta = x", "  indented", "= 5", "key", "; comment", "%(x)s = 1",
])


@FUZZ
@given(text=st.lists(INI_LINES | st.text(max_size=6), max_size=8).map("\n".join))
def test_ini_text(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    returns_or_data_error(_read_ini, path)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


def near(fields):
    """A JSON object holding some of ``fields`` (name -> strategy of
    likely values), any value possibly swapped for arbitrary JSON."""
    return st.fixed_dictionaries({}, optional={
        name: values | JSON for name, values in fields.items()}).map(json.dumps)


CORPUS = near({
    "split": st.sampled_from(["train", "valid"]),
    "T": st.integers(-1, 3),
    "slices": st.lists(st.lists(st.lists(st.integers(-2, 40) | JSON, max_size=4),
                                max_size=3), max_size=3),
})


@FUZZ
@given(text=CORPUS | JSON.map(json.dumps), vocab_size=st.none() | st.integers(1, 30))
def test_corpus_json(tmp_path, text, vocab_size):
    path = tmp_path / "c.json"
    path.write_text(text, encoding="utf-8")
    returns_or_data_error(load_corpus, path, vocab_size)


MANIFEST = near({
    "model": st.sampled_from(["isg", "dsg", "dbe", "xsg"]),
    "T": st.integers(-1, 3) | st.booleans(),
    "inputs": st.dictionaries(st.sampled_from(["valid", "test"]),
                              st.fixed_dictionaries({"path": st.text(max_size=3)}) | JSON,
                              max_size=2),
    "config": st.fixed_dictionaries(
        {"train": st.fixed_dictionaries({"window": st.integers(-1, 3)}) | JSON}) | JSON,
})


def positive_int(value):
    return type(value) is int and value >= 1


@FUZZ
@given(text=MANIFEST | JSON.map(json.dumps))
def test_manifest_json(tmp_path, text):
    # a manifest that loads holds every field eval, drift and export read
    (tmp_path / "run.json").write_text(text, encoding="utf-8")
    try:
        manifest = read_manifest(tmp_path)
    except DataError:
        return
    assert manifest["model"] in ("isg", "dsg", "dbe")
    assert positive_int(manifest["T"]) and positive_int(manifest["config"]["train"]["window"])
    assert all(isinstance(entry["path"], str) for entry in manifest["inputs"].values())
