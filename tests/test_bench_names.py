"""The benchmark's per-layer tracer (``bench/layers.py``) patches driftvec
functions by module attribute. Every name it patches must resolve, and
restoring the tracer must put every original back, so removing a traced
name fails here rather than in a traced benchmark run.
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
