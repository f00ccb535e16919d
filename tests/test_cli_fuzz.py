"""Fuzz the corpus commands' arguments: ``synth``, ``build-vocab``,
``slice`` and ``subsample``, called in-process through ``cli.main`` on one
tiny corpus. Each call returns or exits with a documented code (0 to 3),
raises nothing else, and on failure prints one line to stderr, after
argparse's usage lines when argparse rejects the call.

Values are drawn near the valid ones: integers at the edges, floats that
comparisons mishandle, and ``--change`` and ``--boundaries`` strings
built from pieces of their grammar. A value that validation accepts
stays small, so no case allocates much or runs long. Left out for that
reason: 2**63 for ``--vocab-size``, ``--slices`` and
``--tokens-per-slice``, which accept it and would then build that many
names, slices or tokens.

Runs are derandomized and bounded, so the suite stays deterministic.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from driftvec.cli import main

FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

HUGE = str(2**63)
EDGES = ["-1", "0", "1", "2"]
FLOATS = ["nan", "inf", "-inf", "-0.0", "1e-320", "1e308"]


def near(valid, edges):
    """A valid value or an edge one, each half the time."""
    return st.sampled_from(valid) | st.sampled_from(edges)


SEEDS = near(["0", "7"], [*EDGES, HUGE])
FRACTIONS = near(["0.1", "0.5"], [*FLOATS, *EDGES])

# --change word:change_slice:old_topic:new_topic:mode, at times with a
# field dropped or one too many
CHANGES = st.builds(
    lambda fields, n: ":".join((*fields, "1")[:n]),
    st.tuples(near(["w0029", "w0028", "w0009"], ["w0000", "w0001", "w0003", "w00", "x", ""]),
              near(["1", "2"], [*EDGES, HUGE, "1.5", "x"]),
              near(["0", "1"], [*EDGES, HUGE]),
              near(["0", "1"], EDGES),
              near(["abrupt", "gradual"], ["sudden", ""])),
    near([5], [4, 6]))

# --boundaries as 'YYYY:YYYY' or a comma list of years and timestamps;
# the corpus spans 2000-2002
YEARS = ["0000", "0001", "1999", "2000", "2001", "2003", "9999"]
BOUNDARIES = (
    st.sampled_from(["2000:2003", "2000,2001,2003", "2000-01-01,2001-06-30T12:00,2003"])
    | st.tuples(st.sampled_from([*YEARS, "200", "x"]), st.sampled_from(YEARS)).map(":".join)
    | st.lists(st.sampled_from([*YEARS, "2000-01-01", "2001-06-30T12:00",
                                "2002-01-01T00:00+01:00", "0001-01-01T00:00+01:00",
                                "9999-12-31T23:59-01:00", " 2001", "x", ""]),
               max_size=4).map(",".join))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 30-word synth corpus over 2000-2002, its vocabulary, an unsplit
    sliced corpus, and stopword files naming some or all of its words."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--out", str(root / "c"), "--vocab-size", "30", "--slices", "3",
                 "--tokens-per-slice", "300", "--doc-length", "10", "--seed", "1"]) == 0
    assert main(["build-vocab", "--manifest", str(root / "c" / "manifest.tsv"),
                 "--boundaries", "2000:2003", "--out", str(root / "vocab.tsv")]) == 0
    assert main(["slice", "--manifest", str(root / "c" / "manifest.tsv"),
                 "--vocab", str(root / "vocab.tsv"), "--boundaries", "2000:2003",
                 "--holdout", "0", "--out-prefix", str(root / "data")]) == 0
    (root / "few.txt").write_text("w0000\nw0010\n", encoding="utf-8")
    (root / "all.txt").write_text("".join(f"w{i:04d}\n" for i in range(30)), encoding="utf-8")
    return root


def flags(**values):
    """``--name value`` pairs for the values drawn; None leaves a flag out,
    and a list repeats it."""
    argv = []
    for name, value in values.items():
        for v in value if isinstance(value, list) else [value]:
            if v is not None:
                # one argument, so argparse takes "-inf" as a value, not a flag
                argv.append(f"--{name.replace('_', '-')}={v}")
    return argv


def exits_cleanly(capsys, command, *argv):
    """Run ``driftvec command argv`` in a fresh output directory; assert a
    documented exit code and, on failure, one line on stderr."""
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as out:
        argv = [arg.replace("{out}", out) for arg in argv]
        try:
            code = main([command, *argv])
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code)
    if code:
        lines = [line for line in err.splitlines()
                 if not line.startswith(("usage:", " "))]
        assert len(lines) == 1, (argv, err)


@FUZZ
@given(vocab_size=near(["10", "30", "60"], [*EDGES, "3", "4"]) | st.none(),
       slices=near(["2", "3"], EDGES) | st.none(),
       tokens=near(["100", "300"], [*EDGES, "7"]),
       doc_length=near(["7", "10"], [*EDGES, HUGE]) | st.none(),
       seed=SEEDS | st.none(),
       changes=st.lists(CHANGES, max_size=3))
@example(vocab_size="10", slices="2", tokens="100", doc_length=None, seed=None,
         changes=["w0000:1:0:1:abrupt", "w0001:1:0:1:abrupt", "w0002:1:0:1:abrupt"])
def test_synth(capsys, vocab_size, slices, tokens, doc_length, seed, changes):
    exits_cleanly(capsys, "synth", *flags(out="{out}/c", vocab_size=vocab_size, slices=slices,
                                          tokens_per_slice=tokens, doc_length=doc_length,
                                          seed=seed, change=changes))


@FUZZ
@given(boundaries=BOUNDARIES, max_size=near(["10", "40"], [*EDGES, HUGE]) | st.none(),
       stopwords=st.sampled_from([None, "few.txt", "all.txt"]))
def test_build_vocab(capsys, corpus, boundaries, max_size, stopwords):
    exits_cleanly(capsys, "build-vocab", *flags(
        manifest=corpus / "c" / "manifest.tsv", boundaries=boundaries, max_size=max_size,
        stopwords=stopwords and corpus / stopwords, out="{out}/vocab.tsv"))


@FUZZ
@given(boundaries=BOUNDARIES, holdout=FRACTIONS | st.none(), seed=SEEDS | st.none())
def test_slice(capsys, corpus, boundaries, holdout, seed):
    exits_cleanly(capsys, "slice", *flags(
        manifest=corpus / "c" / "manifest.tsv", vocab=corpus / "vocab.tsv",
        boundaries=boundaries, holdout=holdout, seed=seed, out_prefix="{out}/data"))


@FUZZ
@given(fraction=FRACTIONS, seed=SEEDS | st.none())
def test_subsample(capsys, corpus, fraction, seed):
    exits_cleanly(capsys, "subsample", *flags(corpus=corpus / "data.full.json",
                                              fraction=fraction, seed=seed,
                                              out="{out}/sub.json"))
