"""Round-trip benchmark of the driftvec command line.

Run from the repository root:

    python3 bench/run.py --workload baseline --seed 1 --seconds 40 --trace 0

A run generates a seeded ``synth`` corpus and writes the vocabulary and
the train/valid/test splits (the set-up, timed twice before each round
trip; its median is ``setup_s``). It repeats the round trip

    for isg, dsg and dbe in turn: train, then eval --split test and
    drift on the new run

through ``driftvec.cli.main(argv)`` in this process, as a closed loop
with one client: each call starts when the previous one has ended. It
starts another round trip while the last one still fits in
``--seconds`` and reports the median of each end-to-end metric over the
round trips. Every call is checked (exit code, eval lpos finite and not
positive, checkpoint shapes, drift.csv rows and reference column), and
repeated round trips must write identical checkpoints.

With ``--trace 1`` a run makes one untraced and one traced round trip
and reports per-layer self times and work counts (see ``layers.py``);
the traced run must write the same checkpoints as the untraced one.

The last line on stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, named and unitized as in
``BENCHMARK.json``. A full record (environment, input and checkpoint
sha256, every call) is written to ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
SETUPS_PER_ROUND_TRIP = 2


def cap_blas_threads():
    """Keep BLAS threads at or below the usable cores; returns that count.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def environment(nproc, workload, p):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "driftvec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "nproc": nproc,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "workload": workload,
        "params": p,
    }


def consistent(trips):
    """Identical checkpoints and eval lpos across round trips of one seed."""
    return all(rt.digests == trips[0].digests and rt.lpos == trips[0].lpos for rt in trips)


def measure(roundtrip, p, seed, seconds, workdir):
    """Untraced run: end-to-end metrics as medians over round trips.

    The set-up is timed twice before every round trip, so its samples
    spread over the run as the round trips do.
    """
    setup_s, input_sha, trips = [], [], []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        for _ in range(SETUPS_PER_ROUND_TRIP):
            setup_start = time.perf_counter()
            files, L, train = roundtrip.make_inputs(p, seed, workdir / "inputs")
            setup_s.append(time.perf_counter() - setup_start)
            input_sha.append({k: roundtrip.sha256_file(f) for k, f in files.items()})
        rundir = workdir / f"rep{len(trips)}"
        trips.append(roundtrip.round_trip(p, seed, files, rundir, L))
        shutil.rmtree(rundir)
        last = time.perf_counter() - rep_start
        if time.perf_counter() - start + last > seconds:
            break
    pairs = roundtrip.positive_pairs(train, p["window"])

    def med(fn):
        return statistics.median(fn(rt) for rt in trips)

    metrics = {"setup_s": statistics.median(setup_s)}
    for m in roundtrip.MODELS:
        metrics[f"train_s.{m}"] = med(lambda rt: rt.seconds("train", m))
        metrics[f"pairs_per_s.{m}"] = pairs * p["epochs"] / metrics[f"train_s.{m}"]
    metrics["eval_s"] = med(lambda rt: rt.seconds("eval"))
    metrics["drift_s"] = med(lambda rt: rt.seconds("drift"))
    metrics["session_s"] = med(lambda rt: rt.seconds())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for m in roundtrip.MODELS:
        metrics[f"test_nll.{m}"] = -trips[0].lpos[m] if m in trips[0].lpos else None
    record = {"setup_s": setup_s, "inputs_sha256": input_sha[0], "vocab_words": L,
              "train_positive_pairs": pairs, "round_trips": [vars(rt) for rt in trips]}
    same_inputs = all(sha == input_sha[0] for sha in input_sha)
    return metrics, trips, same_inputs and consistent(trips), record


def measure_traced(roundtrip, p, seed, workdir, spans_path):
    """Traced run: per-layer metrics from one traced round trip, next to
    an untraced one on the same inputs."""
    from layers import LayerTracer

    files, L, _ = roundtrip.make_inputs(p, seed, workdir / "inputs")
    untraced = roundtrip.round_trip(p, seed, files, workdir / "untraced", L)
    tracer = LayerTracer()
    tracer.install()
    try:
        traced_files, _, _ = tracer.call("setup", roundtrip.make_inputs, p, seed,
                                         workdir / "traced-inputs")
        traced = roundtrip.round_trip(p, seed, traced_files, workdir / "traced", L,
                                      invoke=tracer.invoke)
    finally:
        tracer.restore()
    tracer.dump(spans_path)
    input_sha = {k: roundtrip.sha256_file(f) for k, f in files.items()}
    same_inputs = input_sha == {k: roundtrip.sha256_file(f) for k, f in traced_files.items()}
    metrics = tracer.metrics(traced.seconds(), untraced.seconds())
    record = {"spans": str(spans_path.relative_to(ROOT)), "inputs_sha256": input_sha,
              "round_trips": [vars(untraced), vars(traced)]}
    trips = [untraced, traced]
    return metrics, trips, same_inputs and consistent(trips), record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import roundtrip
    except ImportError as exc:
        print(f"bench: cannot import driftvec from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(roundtrip.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: driftvec was imported from {roundtrip.cli.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, params

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 1
    p = params(args.workload)
    env = environment(nproc, args.workload, p)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    workdir = WORK_DIR / f"{tag}-{os.getpid()}"
    try:
        if args.trace:
            metrics, trips, consistent_ok, record = measure_traced(
                roundtrip, p, args.seed, workdir, OUT_DIR / f"spans-{tag}.json.gz")
        else:
            metrics, trips, consistent_ok, record = measure(
                roundtrip, p, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"bench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    attempted = sum(len(rt.ops) for rt in trips)
    failed = sum(rt.failed for rt in trips)
    result = {
        "correct": failed == 0 and consistent_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (OUT_DIR / f"{tag}.json").write_text(
        json.dumps({"environment": env, **record, **result}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps({"environment": env}))
    for name in units:
        print(f"{name:32s} {metrics[name]!s:>24} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
