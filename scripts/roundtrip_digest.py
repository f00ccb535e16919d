"""Digest of the README round trip, for comparing two checkouts byte for byte.

    python scripts/roundtrip_digest.py --src CHECKOUT/src --out DIR > digest.txt

Runs the README's command-line round trip with the driftvec under
``--src``: ``synth``, ``build-vocab`` and ``slice``, then for each model
``train`` with ``random``, ``internal`` and ``backward-external`` init
(from an exported isg matrix), each followed by ``eval``, ``drift`` and
``export`` of every role of every slice. dsg and dbe train with the
drift penalty under ``internal`` (threshold ``mean``) and
``backward-external`` (a fixed threshold), so the digest covers both
kinds of threshold and the penalty of a backward dsg chain. Two last
dsg runs, with ``random`` init, take two noise samples per step and the
exact entropy (``--samples 2 --entropy exact``), and minibatches of
16384 positive pairs (``--batch-size 16384``), more pairs than
``sgns.LPOS_BLOCK``, so the kernel scores and sums them in blocks. After
each model's ``random`` run, a copy of its run directory without the
``.npy`` twins (``<run>-text``) gets ``eval``, ``drift`` and one
``export``, so the run loader parses every checkpoint it reads as text;
their files hash the same as the original run's. A second corpus,
sliced from 1999 so that its first slice is empty, gets one ``train``
per model, each followed by ``eval`` and ``drift``; that covers the
steps an empty slice takes. One more ``train`` per model on that corpus,
again followed by ``eval`` and ``drift``, draws three noise pairs per
positive in minibatches of 1000 positives for two epochs
(``--negative-ratio 3 --batch-size 1000 --epochs 2``). Its non-empty
slices hold 126,692 positives each, so the digest covers a ratio above
1, a short last minibatch, and dbe sweeps over slices with different
minibatch counts (0 and 127). A third corpus is sliced at 2000, 2002
and 2003, so its first slice spans two synth years and its second one
year, and each model trains on it for two epochs, followed by ``eval``
and ``drift``. Every synth year holds the same number of documents, so
this is the digest's only pair of non-empty slices with different
document counts, and dbe's sweeps over them have unequal minibatch
counts. Four usage errors close it: ``slice --holdout nan``, ``export``
of a slice past the run's last, and ``drift`` with a reference slice
past the last or with ``--bins 0``. Every command runs in a fresh
interpreter with ``DIR`` as its working directory and relative paths, so
no path in the outputs depends on where ``DIR`` is.

Prints one line per command (exit code, sha256 of stdout and of stderr,
the arguments), one per copy, and one per file written under ``DIR``
(relative path, sha256). Two checkouts whose behaviour is byte-identical
print the same digest, so comparing a parent and a change is one
``diff``. Uses the standard library only; the commands import driftvec
from ``--src``. :func:`run` runs any list of steps, so a shorter round
trip gets the same digest lines (``tests/test_roundtrip_pins.py``).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

MODELS = ("isg", "dsg", "dbe")
ROLES = {"isg": ("word", "context"),
         "dsg": ("word", "mean", "var", "context", "context_var"),
         "dbe": ("word", "context")}
SLICES = 4
DATA = ["--vocab", "demo/vocab.tsv", "--train", "demo/data.train.json",
        "--valid", "demo/data.valid.json", "--test", "demo/data.test.json"]
EMPTY_FIRST = ["--vocab", "demo/vocab.tsv", "--train", "demo/empty.full.json",
               "--valid", "demo/empty.full.json"]
UNEVEN = ["--vocab", "demo/vocab.tsv", "--train", "demo/uneven.train.json",
          "--valid", "demo/uneven.valid.json"]
INITS = {
    "random": lambda model: [],
    "internal": lambda model: ["--init", "internal"] + (
        [] if model == "isg" else ["--reg-alpha", "0.1", "--reg-beta", "mean"]),
    "backward-external": lambda model: ["--init", "backward-external",
                                        "--pretrained", "pretrained.vec"] + (
        [] if model == "isg" else ["--reg-alpha", "0.1", "--reg-beta", "0.05"]),
}
# the console script's entry point, run from the interpreter
ENTRY = "import sys; from driftvec.cli import main; sys.exit(main())"


class TextCopy(NamedTuple):
    """Copy run directory ``run`` to ``copy`` without its ``.npy`` twins."""
    run: str
    copy: str


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trained_runs():
    """``(model, run name, extra train flags)`` of each run, in order."""
    for model in MODELS:
        for init, flags in INITS.items():
            yield model, init, flags(model)
    yield "dsg", "samples2-exact", ["--samples", "2", "--entropy", "exact"]
    yield "dsg", "batch16384", ["--batch-size", "16384"]


def commands():
    """The round trip's ``driftvec`` argument lists and :class:`TextCopy`
    steps, in order."""
    yield ["synth", "--out", "demo", "--vocab-size", "200", "--slices", str(SLICES),
           "--tokens-per-slice", "20000", "--seed", "1", "--change", "w0199:2:0:1:gradual"]
    yield ["build-vocab", "--manifest", "demo/manifest.tsv", "--boundaries", "2000:2004",
           "--max-size", "200", "--out", "demo/vocab.tsv"]
    yield ["slice", "--manifest", "demo/manifest.tsv", "--vocab", "demo/vocab.tsv",
           "--boundaries", "2000:2004", "--holdout", "0.1", "--seed", "0",
           "--out-prefix", "demo/data"]
    for model, name, flags in trained_runs():
        run = f"runs/{model}-{name}"
        yield ["train", "--model", model, "--out", run, *DATA,
               "--dim", "16", "--epochs", "10", "--seed", "0", *flags]
        yield ["eval", "--run", run, "--split", "valid"]
        yield ["drift", "--run", run, "--t0", "0", "--bins", "60",
               "--out", f"analysis/{model}-{name}"]
        for role in ROLES[model]:
            for t in range(SLICES):
                yield ["export", "--run", run, "--slice", str(t), "--role", role,
                       "--out", f"exports/{model}-{name}.{role}.t{t}.vec"]
        if name == "random":
            copy = f"{run}-text"
            yield TextCopy(run, copy)
            yield ["eval", "--run", copy, "--split", "valid"]
            yield ["drift", "--run", copy, "--t0", "0", "--bins", "60",
                   "--out", f"analysis/{model}-{name}-text"]
            role = ROLES[model][-1]
            yield ["export", "--run", copy, "--slice", str(SLICES - 1), "--role", role,
                   "--out", f"exports/{model}-{name}-text.{role}.t{SLICES - 1}.vec"]
        if (model, name) == ("isg", "random"):
            yield ["export", "--run", run, "--slice", str(SLICES - 1),
                   "--out", "pretrained.vec"]
    yield ["slice", "--manifest", "demo/manifest.tsv", "--vocab", "demo/vocab.tsv",
           "--boundaries", "1999:2004", "--holdout", "0", "--out-prefix", "demo/empty"]
    for model in MODELS:
        run = f"runs/{model}-empty-first"
        yield ["train", "--model", model, "--out", run, *EMPTY_FIRST,
               "--dim", "16", "--epochs", "10", "--seed", "0"]
        yield ["eval", "--run", run, "--split", "valid"]
        yield ["drift", "--run", run, "--t0", "0", "--bins", "60",
               "--out", f"analysis/{model}-empty-first"]
    for model in MODELS:
        run = f"runs/{model}-ratio3"
        yield ["train", "--model", model, "--out", run, *EMPTY_FIRST, "--dim", "16",
               "--epochs", "2", "--seed", "0", "--negative-ratio", "3", "--batch-size", "1000"]
        yield ["eval", "--run", run, "--split", "valid"]
        yield ["drift", "--run", run, "--t0", "0", "--bins", "60",
               "--out", f"analysis/{model}-ratio3"]
    yield ["slice", "--manifest", "demo/manifest.tsv", "--vocab", "demo/vocab.tsv",
           "--boundaries", "2000,2002,2003", "--holdout", "0.1", "--seed", "0",
           "--out-prefix", "demo/uneven"]
    for model in MODELS:
        run = f"runs/{model}-uneven"
        yield ["train", "--model", model, "--out", run, *UNEVEN,
               "--dim", "16", "--epochs", "2", "--seed", "0"]
        yield ["eval", "--run", run, "--split", "valid"]
        yield ["drift", "--run", run, "--t0", "0", "--bins", "60",
               "--out", f"analysis/{model}-uneven"]
    yield ["slice", "--manifest", "demo/manifest.tsv", "--vocab", "demo/vocab.tsv",
           "--boundaries", "2000:2004", "--holdout", "nan", "--out-prefix", "demo/nan"]
    yield ["export", "--run", "runs/isg-random", "--slice", str(SLICES),
           "--out", "exports/past-last.vec"]
    yield ["drift", "--run", "runs/isg-random", "--t0", str(SLICES), "--out", "analysis/past-last"]
    yield ["drift", "--run", "runs/isg-random", "--bins", "0", "--out", "analysis/no-bins"]


def run(steps, src, out):
    """Yield the digest's lines for ``steps``, ``driftvec`` argument lists
    and :class:`TextCopy` steps as :func:`commands` gives them, run in
    the empty directory ``out`` with the driftvec package under ``src``."""
    src, out = Path(src).resolve(), Path(out)
    (out / "exports").mkdir()
    env = {**os.environ, "PYTHONPATH": str(src)}
    for step in steps:
        if isinstance(step, TextCopy):
            shutil.copytree(out / step.run, out / step.copy,
                            ignore=shutil.ignore_patterns("*.npy"))
            yield f"copy {step.run} -> {step.copy} without .npy twins"
            continue
        proc = subprocess.run([sys.executable, "-c", ENTRY, *step], cwd=out, env=env,
                              capture_output=True, check=False)
        yield (f"cmd exit={proc.returncode} stdout={sha256(proc.stdout)} "
               f"stderr={sha256(proc.stderr)} driftvec {' '.join(step)}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        yield f"file {path.relative_to(out).as_posix()} {sha256(path.read_bytes())}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--out", required=True, help="an empty or new working directory")
    args = parser.parse_args(argv)
    src, out = Path(args.src).resolve(), Path(args.out)
    if not (src / "driftvec" / "cli.py").is_file():
        parser.error(f"{src} holds no driftvec package")
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        parser.error(f"{out} is not empty")
    for line in run(commands(), src, out):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
