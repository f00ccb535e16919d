"""``scripts/bench_pairs.py`` on canned bench output; no bench runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
INPUTS = {"vocab": "aa", "train": "bb", "valid": "cc", "test": "dd"}


def bench_stdout(values, failed=0):
    """What ``bench/run.py --trace 0`` prints: the environment line, one
    line per metric, and the result object last."""
    result = {"correct": failed == 0, "attempted": 9, "failed": failed,
              "metrics": {m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]}
                          for m in DECLARED["end_to_end"]}}
    lines = [json.dumps({"environment": {}})]
    lines += [f"{name:32s} {v['value']!s:>24} {v['unit']}"
              for name, v in result["metrics"].items()]
    return "\n".join([*lines, json.dumps(result)]) + "\n"


def canned(values, inputs=INPUTS, failed=0):
    return bench_pairs.parse_run(bench_stdout(values, failed), {"inputs_sha256": inputs})


def report(pairs):
    lines, ok = bench_pairs.summarize(pairs, DECLARED)
    return {line.split()[0]: line for line in lines[1:-1]}, lines[-1], ok


def test_parse_run_reads_the_last_line_and_the_record():
    run = canned({"setup_s": 0.09})
    assert run["correct"] and run["failed"] == 0
    assert run["metrics"]["setup_s"] == 0.09
    assert set(run["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert run["inputs_sha256"] == INPUTS


def test_verdicts():
    pairs = []
    for i in range(10):
        pairs.append({
            "parent": canned({"setup_s": 0.09 + 0.001 * i, "eval_s": 0.10,
                              "drift_s": 0.08, "train_s.isg": 1.0 + 0.05 * (i % 5)}),
            "change": canned({"setup_s": 0.045 + 0.001 * i, "eval_s": 0.14,
                              "drift_s": 0.08 + 0.001 * (i == 3),
                              "train_s.isg": 1.0 + 0.05 * ((i + 2) % 5)}),
        })
    rows, last, ok = report(pairs)
    assert ok and last == "10 pairs; every run correct, 0 failed, same inputs_sha256"
    assert rows["setup_s"].endswith("   0/10    gain")
    assert "0.0945 [0.09225, 0.09675]" in rows["setup_s"]
    assert rows["eval_s"].endswith("worse")            # +40% against a 25% bound
    assert rows["drift_s"].endswith("   1/0     within bound")
    assert rows["train_s.isg"].endswith("within bound")


def test_nine_of_ten_is_enough_and_eight_is_not():
    def pairs(losses):
        return [{"parent": canned({"setup_s": 0.09}),
                 "change": canned({"setup_s": 0.095 if i < losses else 0.045})}
                for i in range(10)]
    assert report(pairs(1))[0]["setup_s"].endswith("gain")
    assert report(pairs(2))[0]["setup_s"].endswith("within bound")


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0]
    rows, _, _ = report([{"parent": canned({"train_s.dsg": p}),
                          "change": canned({"train_s.dsg": 1.5})} for p in parent])
    assert rows["train_s.dsg"].endswith("unresolved")
    rows, _, _ = report([{"parent": canned({"train_s.dsg": p}),
                          "change": canned({"train_s.dsg": 0.9})} for p in parent])
    assert rows["train_s.dsg"].endswith("within bound")


def test_higher_is_better_for_throughput():
    rows, _, _ = report([{"parent": canned({"pairs_per_s.isg": 100.0}),
                          "change": canned({"pairs_per_s.isg": 200.0})} for _ in range(10)])
    assert rows["pairs_per_s.isg"].endswith("   0/10    gain")


@pytest.mark.parametrize("change, problem", [
    (dict(failed=1), "pair 1 change: correct=False, failed=1"),
    (dict(inputs={**INPUTS, "test": "ee"}), "inputs_sha256 differs between runs"),
])
def test_a_failed_run_or_other_inputs_is_reported(change, problem):
    pairs = [{"parent": canned({}), "change": canned({}, **(change if i == 1 else {}))}
             for i in range(3)]
    _, last, ok = report(pairs)
    assert not ok
    assert last == f"3 pairs; {problem}"


def test_main_alternates_the_side_that_runs_first(monkeypatch, capsys):
    order = []

    def fake_run(checkout, workload, seed, seconds):
        order.append(checkout.name)
        assert (workload, seed, seconds) == ("baseline", 2, DECLARED["run_seconds"])
        return canned({"setup_s": 0.09 if checkout.name == "parent" else 0.045})

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    assert bench_pairs.main(["--parent", str(ROOT / "parent"), "--change", str(ROOT),
                             "--workload", "baseline", "--seed", "2", "--pairs", "3"]) == 0
    assert order == ["parent", ROOT.name, ROOT.name, "parent", "parent", ROOT.name]
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in out[:6]] == [
        ["run", "0", "parent"], ["run", "0", "change"], ["run", "1", "change"],
        ["run", "1", "parent"], ["run", "2", "parent"], ["run", "2", "change"]]
    assert any(line.startswith("setup_s") and line.endswith("gain") for line in out)
