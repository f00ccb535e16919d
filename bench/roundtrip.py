"""Set-up and the timed round trip of the benchmark, with output checks.

Importing this module imports driftvec; ``run.py`` puts the checkout's
``src`` directory on the path first.
"""

import contextlib
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from driftvec import cli, corpus, synth

from workloads import MODELS, train_argv


def make_inputs(p, seed, outdir):
    """Generate the seeded synth corpus, split it and write the four
    files the program reads. Returns ``(files, vocab_size, train)``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    T = p["slices"]
    planted = synth.PlantedChange(synth.word_names(p["vocab_size"])[-1],
                                  T // 2, 0, 1, synth.GRADUAL)
    spec = synth.SynthSpec(vocab_size=p["vocab_size"], T=T,
                           tokens_per_slice=p["tokens_per_slice"], seed=seed,
                           planted_changes=[planted], doc_length=p["doc_length"])
    result = synth.generate(spec)
    parts = corpus.split_holdout(result.corpus, p["holdout"], seed)
    files = {"vocab": outdir / "vocab.tsv"}
    corpus.save_vocabulary(result.vocab, files["vocab"])
    for part in parts:
        files[part.split_tag] = outdir / f"data.{part.split_tag}.json"
        corpus.save_corpus(part, files[part.split_tag])
    return files, result.vocab.size, parts[0]


def positive_pairs(train, window):
    """Positive pairs one training epoch extracts from the train split."""
    return sum(len(corpus.extract_pairs(docs, window)[0]) for docs in train.slices)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def checkpoint_names(model, T):
    if model == "isg":
        return [f"t{t}{suffix}" for t in range(T) for suffix in (".vec", ".ctx.vec")]
    if model == "dsg":
        return [f"t{t}{suffix}" for t in range(T)
                for suffix in (".mean.vec", ".var.vec", ".ctx.mean.vec", ".ctx.var.vec")]
    return ([f"t{t}.vec" for t in range(T)] + ["context.vec"]
            + [f"adam_u{t}.txt" for t in range(T)] + ["adam_ctx.txt"])


def check_checkpoints(model_dir, model, T, L, d):
    """sha256 of a model's checkpoint set, and an error if a file is
    missing or its shape is not L rows of d values."""
    digest = hashlib.sha256()
    for name in checkpoint_names(model, T):
        path = Path(model_dir) / name
        if not path.exists():
            return None, f"missing checkpoint {name}"
        data = path.read_bytes()
        digest.update(name.encode() + b"\0" + data)
        lines = data.split(b"\n")
        if lines[-1] == b"":
            lines.pop()
        header = lines[0].split()
        if name.endswith(".vec"):
            # "<L> <d>", then "<word> <v1> ... <vd>"
            ok = (header == [b"%d" % L, b"%d" % d] and len(lines) == L + 1
                  and all(line.count(b" ") == d for line in lines[1:]))
        else:
            # "<L> <d> <step> <beta1> <beta2> <eps>", then L rows of m and L of v
            ok = (header[:2] == [b"%d" % L, b"%d" % d] and len(lines) == 2 * L + 1
                  and all(line.count(b" ") == d - 1 for line in lines[1:]))
        if not ok:
            return None, f"checkpoint {name} is not {L} x {d}"
    return digest.hexdigest(), None


def check_eval(stdout, T):
    """Mean test lpos from the eval report, and an error if a slice's
    value is missing, non-finite or positive."""
    try:
        rows = dict(line.split("\t") for line in stdout.splitlines()[1:])
        per_slice = [float(rows[str(t)]) for t in range(T)]
        mean = float(rows["mean"])
    except (KeyError, ValueError) as exc:
        return None, f"unreadable eval report: {exc}"
    bad = [v for v in per_slice if not math.isfinite(v) or v > 0]
    if bad or not math.isfinite(mean):
        return None, f"eval lpos out of range: {per_slice}"
    return mean, None


def check_drift(path, T, L, t0=0):
    """Error if drift.csv lacks a row per (word, slice) or its reference
    column is not zero."""
    if not Path(path).exists():
        return "missing drift.csv"
    rows = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    if len(rows) != L * T:
        return f"drift.csv has {len(rows)} rows, expected {L * T}"
    if any(float(r.rsplit(",", 1)[1]) != 0.0 for r in rows if r.split(",")[1] == str(t0)):
        return f"drift.csv reference column t={t0} is not zero"
    return None


def call(invoke, argv):
    """Time one CLI call; returns ``(seconds, stdout, error)``."""
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = invoke(argv)
    except SystemExit as exc:
        error = f"exit {exc.code}"
    except Exception:  # one failed operation is counted, not fatal
        error = traceback.format_exc()
    else:
        if code != 0:
            error = f"exit {code}"
    return time.perf_counter() - start, out.getvalue(), error


@dataclass
class RoundTrip:
    ops: list = field(default_factory=list)       # one record per CLI call
    lpos: dict = field(default_factory=dict)      # model -> mean test lpos
    digests: dict = field(default_factory=dict)   # model -> checkpoint set sha256

    def seconds(self, op=None, model=None):
        return sum(o["seconds"] for o in self.ops
                   if op in (None, o["op"]) and model in (None, o["model"]))

    @property
    def failed(self):
        return sum(o["error"] is not None for o in self.ops)

    def record(self, op, model, seconds, error):
        self.ops.append({"op": op, "model": model, "seconds": seconds, "error": error})


def round_trip(p, seed, files, workdir, L, invoke=cli.main):
    """For each model: ``train``, then ``eval --split test`` and ``drift``
    on the new run, one call after another; every call is checked.

    Each model's eval and drift follow its own train, so the three
    short eval (and drift) calls fall at different moments of the round
    trip rather than in one burst at its end.
    """
    rt = RoundTrip()
    T = p["slices"]
    for model in MODELS:
        out = Path(workdir) / model
        seconds, _, error = call(invoke, train_argv(p, model, seed, files, out))
        if error is None:
            rt.digests[model], error = check_checkpoints(out / model, model, T, L, p["dim"])
        rt.record("train", model, seconds, error)
        seconds, stdout, error = call(invoke, ["eval", "--run", str(out), "--split", "test"])
        if error is None:
            rt.lpos[model], error = check_eval(stdout, T)
        rt.record("eval", model, seconds, error)
        seconds, _, error = call(invoke, ["drift", "--run", str(out),
                                          "--out", str(out / "analysis")])
        if error is None:
            error = check_drift(out / "analysis" / "drift.csv", T, L)
        rt.record("drift", model, seconds, error)
    return rt
