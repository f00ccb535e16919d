"""The benchmark's per-layer tracer (``bench/layers.py``) patches driftvec
functions by module attribute. Every name it patches must resolve, and
restoring the tracer must put every original back, so removing a traced
name fails here rather than in a traced benchmark run. A traced train
must also reach the patched names, so its counts see the work done.
"""

import sys
from pathlib import Path

from driftvec import analysis, cli, corpus, dbe, dsg, inits, isg, runs, sgns, shrinkreg, synth

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = (analysis, cli, corpus, dbe, dsg, inits, isg, runs, sgns, shrinkreg, synth)


def test_tracer_installs_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    before = {m.__name__: dict(vars(m)) for m in MODULES}
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        patched = {(owner.__name__, attribute) for owner, attribute, _ in tracer._patched}
        assert patched and {owner for owner, _ in patched} <= set(before)
        for owner, attribute in patched:
            assert vars(sys.modules[owner])[attribute] is not before[owner][attribute]
    finally:
        tracer.restore()
    for m in MODULES:
        after = vars(m)
        assert set(after) == set(before[m.__name__])
        for name, value in before[m.__name__].items():
            assert after[name] is value, f"{m.__name__}.{name} was not restored"


def test_tracer_counts_dbe_row_steps(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    monkeypatch.chdir(tmp_path)
    for argv in (["synth", "--out", "c", "--vocab-size", "30", "--slices", "2",
                  "--tokens-per-slice", "600", "--doc-length", "10", "--seed", "1"],
                 ["build-vocab", "--manifest", "c/manifest.tsv", "--boundaries", "2000:2002",
                  "--max-size", "30", "--out", "v.tsv"],
                 ["slice", "--manifest", "c/manifest.tsv", "--vocab", "v.tsv",
                  "--boundaries", "2000:2002", "--holdout", "0", "--out-prefix", "d"]):
        assert cli.main(argv) == 0
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert tracer.invoke(["train", "--model", "dbe", "--out", "run", "--vocab", "v.tsv",
                              "--train", "d.full.json", "--dim", "4", "--epochs", "1",
                              "--batch-size", "64", "--window", "2"]) == 0
    finally:
        tracer.restore()
    minibatches = tracer.counts["sgns.minibatches.dbe"]
    assert minibatches > 0
    # two row steps, on U[t] and on V, for each minibatch
    assert sum(name == "adam.adam_step_rows" for name, *_ in tracer.spans) == 2 * minibatches
    assert tracer.counts["adam.rows_touched"] > 0
