"""Byte identity of a short command-line round trip, at two SIMD dispatch levels.

The round trip is a reduced form of ``scripts/roundtrip_digest.py``'s,
run by that script's runner: one fresh interpreter per command, and one
digest line per command and per file written. One small ``synth``
corpus with a planted change is built into a vocabulary and sliced;
each model then trains once from random init (``--dim 8 --epochs 2``),
followed by ``eval``, ``drift`` and one ``export``. dsg and dbe train
twice more with the drift penalty: from internal init with the ``mean``
threshold, and from random init with a fixed one. A copy of the dbe run
without its ``.npy`` twins gets one ``eval``, so the loader parses text
too. Last, the 40 most frequent words get their own vocabulary and an
unsplit corpus, an isg run on it is exported at its last slice, and dsg
and dbe train from that file by backward-external init over the 60-word
vocabulary; it covers 40 of the 60 words, so the other rows are drawn
at random and stderr carries the coverage warning.

The digest is compared with the one pinned under ``tests/pins/`` for
this numpy version and the dispatch level the commands run at: the
default level, and X86_V3 (AVX2), which ``NPY_DISABLE_CPU_FEATURES``
selects on an AVX-512 machine. A case skips, saying why, when no pin
matches this numpy and level, or when numpy cannot run X86_V3 here.

Only a change meant to alter outputs regenerates the pins, one per
level, from an empty directory each:

    PYTHONPATH=src:tests python -c \\
        "import sys, test_roundtrip_pins as t; t.write_pin(sys.argv[1])" DIR
    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" PYTHONPATH=src:tests python -c \\
        "import sys, test_roundtrip_pins as t; t.write_pin(sys.argv[1])" DIR2
"""

import difflib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import driftvec
from test_sgns import run_at_x86_v3

PINS = Path(__file__).resolve().parent / "pins"
_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "roundtrip_digest.py"
_spec = importlib.util.spec_from_file_location("roundtrip_digest", _SCRIPT)
roundtrip_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(roundtrip_digest)

SLICES = 3
DATA = ["--vocab", "demo/vocab.tsv", "--train", "demo/data.train.json",
        "--valid", "demo/data.valid.json", "--test", "demo/data.test.json"]


def steps():
    """The reduced round trip, in the steps ``roundtrip_digest.run`` takes."""
    yield ["synth", "--out", "demo", "--vocab-size", "60", "--slices", str(SLICES),
           "--tokens-per-slice", "3000", "--doc-length", "50", "--seed", "1",
           "--change", "w0059:1:0:1:abrupt"]
    yield ["build-vocab", "--manifest", "demo/manifest.tsv",
           "--boundaries", f"2000:{2000 + SLICES}", "--out", "demo/vocab.tsv"]
    yield ["slice", "--manifest", "demo/manifest.tsv", "--vocab", "demo/vocab.tsv",
           "--boundaries", f"2000:{2000 + SLICES}", "--holdout", "0.1", "--seed", "0",
           "--out-prefix", "demo/data"]
    for model in roundtrip_digest.MODELS:
        run = f"runs/{model}"
        yield ["train", "--model", model, "--out", run, *DATA,
               "--dim", "8", "--epochs", "2", "--seed", "0"]
        yield ["eval", "--run", run, "--split", "valid"]
        yield ["drift", "--run", run, "--t0", "0", "--bins", "10", "--out", f"analysis/{model}"]
        yield ["export", "--run", run, "--slice", str(SLICES - 1), "--role", "context",
               "--out", f"exports/{model}.context.vec"]
    for model in ("dsg", "dbe"):
        for name, flags in (("internal", roundtrip_digest.INITS["internal"](model)),
                            ("beta", ["--reg-alpha", "0.1", "--reg-beta", "0.05"])):
            yield ["train", "--model", model, "--out", f"runs/{model}-{name}", *DATA,
                   "--dim", "8", "--epochs", "2", "--seed", "0", *flags]
    yield roundtrip_digest.TextCopy("runs/dbe", "runs/dbe-text")
    yield ["eval", "--run", "runs/dbe-text", "--split", "test"]
    yield ["build-vocab", "--manifest", "demo/manifest.tsv",
           "--boundaries", f"2000:{2000 + SLICES}", "--max-size", "40", "--out", "demo/top40.tsv"]
    yield ["slice", "--manifest", "demo/manifest.tsv", "--vocab", "demo/top40.tsv",
           "--boundaries", f"2000:{2000 + SLICES}", "--holdout", "0", "--out-prefix", "demo/top40"]
    yield ["train", "--model", "isg", "--out", "runs/isg-top40", "--vocab", "demo/top40.tsv",
           "--train", "demo/top40.full.json", "--dim", "8", "--epochs", "2", "--seed", "0"]
    yield ["export", "--run", "runs/isg-top40", "--slice", str(SLICES - 1),
           "--out", "exports/top40.vec"]
    for model in ("dsg", "dbe"):
        yield ["train", "--model", model, "--out", f"runs/{model}-partial", *DATA,
               "--dim", "8", "--epochs", "2", "--seed", "0",
               "--init", "backward-external", "--pretrained", "exports/top40.vec"]


def dispatch_level():
    """The highest of numpy's dispatch targets that this process runs."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return "unknown"
    enabled = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return enabled[-1] if enabled else "baseline"


def pin_path(level):
    return PINS / f"numpy-{np.__version__}-{level}.txt"


def digest(out):
    """The reduced round trip's digest, run in the empty directory ``out``
    with the driftvec this process imports."""
    src = Path(driftvec.__file__).resolve().parents[1]
    return "".join(line + "\n" for line in roundtrip_digest.run(steps(), src, out))


def write_pin(out):
    """Pin the digest of a run in ``out`` for this process's numpy and level."""
    PINS.mkdir(exist_ok=True)
    pin_path(dispatch_level()).write_text(digest(out))


def assert_digest_equals_pin(pin, out):
    want, got = Path(pin).read_text(), digest(out)
    assert got == want, "".join(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True), str(pin), "this run"))


@pytest.mark.parametrize("at_x86_v3", [pytest.param(False, id="default"),
                                       pytest.param(True, id="X86_V3")])
def test_round_trip_equals_its_pin(at_x86_v3, tmp_path):
    level = "X86_V3" if at_x86_v3 else dispatch_level()
    pin = pin_path(level)
    if not pin.exists():
        pytest.skip(f"no digest is pinned for numpy {np.__version__} at dispatch level {level}")
    if not at_x86_v3:
        assert_digest_equals_pin(pin, tmp_path)
        return
    run_at_x86_v3("import sys, test_roundtrip_pins\n"
                  "test_roundtrip_pins.assert_digest_equals_pin(*sys.argv[1:])\n",
                  str(pin), str(tmp_path))
