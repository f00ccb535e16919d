"""Alternating parent/change pairs of the benchmark, and the verdict on each metric.

    python scripts/bench_pairs.py --parent PARENT --change CHANGE \\
        --workload baseline --seed 1 --pairs 10 > pairs.txt

``PARENT`` and ``CHANGE`` are two checkouts of the repository. Each pair
runs ``bench/run.py --workload W --seed S --seconds N --trace 0`` once
in each checkout, one after the other, with ``N`` the ``run_seconds``
of the change's ``BENCHMARK.json``; even pairs run the parent first and
odd pairs the change first. Every run prints one ``run`` line: the
pair, the side and a JSON object with the run's ``correct``, ``failed``,
end-to-end metric values and ``inputs_sha256`` (read from the
checkout's ``.bench_out/<workload>-s<seed>-trace0.json``).

Then, per end-to-end metric of the change's ``BENCHMARK.json``, it
prints each side's median and quartiles, the pairs each side won (ties
count for neither) and a verdict:

* ``gain``: the change won at least 9 of every 10 pairs, and the medians
  differ, in the metric's better direction, by more than the parent's
  interquartile range;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: neither, and the parent's interquartile range is wider
  than the bound, unless every change run reads better than every
  parent run;
* ``within bound``: otherwise.

It exits 1 when a run was not correct, failed an operation or read
other inputs than the first run. Uses the standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
GAIN_SHARE = 0.9


def parse_run(stdout: str, record: dict) -> dict:
    """One run from the bench's stdout (its last line is the result
    object) and from the record it wrote to ``.bench_out/``."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "inputs_sha256": record["inputs_sha256"]}


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    record = checkout / ".bench_out" / f"{workload}-s{seed}-trace0.json"
    return parse_run(done.stdout, json.loads(record.read_text(encoding="utf-8")))


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent, change, better: str, bound: float):
    """Pairs won by (parent, change), and the verdict on one metric
    whose values are paired by index."""
    sign = 1 if better == "higher" else -1
    wins = [0, 0]
    for p, c in zip(parent, change):
        if p != c:
            wins[1 if sign * (c - p) > 0 else 0] += 1
    p1, pmed, p3 = quartiles(parent)
    spread = p3 - p1
    gap = sign * (statistics.median(change) - pmed)
    if wins[1] >= GAIN_SHARE * len(parent) and gap > spread:
        return wins, "gain"
    if -gap > bound * abs(pmed):
        return wins, "worse"
    change_all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound * abs(pmed) and not change_all_better:
        return wins, "unresolved"
    return wins, "within bound"


def summarize(pairs, declared):
    """Report lines for ``pairs``, a list of ``{side: run}`` dicts, and
    whether every run was correct on the same inputs."""
    runs = [pair[side] for pair in pairs for side in SIDES]
    problems = [f"pair {i} {side}: correct={pair[side]['correct']}, "
                f"failed={pair[side]['failed']}"
                for i, pair in enumerate(pairs) for side in SIDES
                if not pair[side]["correct"] or pair[side]["failed"]]
    if any(run["inputs_sha256"] != runs[0]["inputs_sha256"] for run in runs):
        problems.append("inputs_sha256 differs between runs")
    lines = [f"{'metric':20s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
             f" {'wins p/c':>9s}  verdict"]
    for m in declared["end_to_end"]:
        name = m["name"]
        values = {side: [pair[side]["metrics"][name] for pair in pairs] for side in SIDES}
        if any(v is None for side in SIDES for v in values[side]):
            lines.append(f"{name:20s} (no value)")
            continue
        wins, word = verdict(values["parent"], values["change"], m["better"], m["bound"])
        cells = ["{1:.6g} [{0:.6g}, {2:.6g}]".format(*quartiles(values[side]))
                 for side in SIDES]
        lines.append(f"{name:20s} {cells[0]:>34s} {cells[1]:>34s}"
                     f" {wins[0]:>4d}/{wins[1]:<4d}  {word}")
    lines.append(f"{len(pairs)} pairs; "
                 + ("every run correct, 0 failed, same inputs_sha256" if not problems
                    else "; ".join(problems)))
    return lines, not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's checkout")
    parser.add_argument("--change", required=True, type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = []
    for i in range(args.pairs):
        pair = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            pair[side] = run_bench(checkouts[side], args.workload, args.seed,
                                   declared["run_seconds"])
            print(f"run {i} {side} {json.dumps(pair[side])}", flush=True)
        pairs.append(pair)
    lines, ok = summarize(pairs, declared)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
