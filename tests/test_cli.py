import configparser
import csv
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from driftvec import analysis, runs
from driftvec.cli import TRAIN_SETTINGS, main, parse_boundaries
from driftvec.corpus import TimeSlicedCorpus, load_corpus, load_vocabulary, save_corpus
from driftvec.dbe import DbeParams, train_dbe
from driftvec.dsg import DsgParams, train_dsg
from driftvec.inits import init_random
from driftvec.isg import train_incremental
from driftvec.runs import content_hash, read_manifest
from driftvec.sgns import TrainConfig, load_embedding_text, save_embedding_text


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> build-vocab -> slice, shared by the command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus_dir = root / "corpus"
    assert run(["synth", "--out", corpus_dir, "--vocab-size", "30",
                "--slices", "3", "--tokens-per-slice", "1200",
                "--doc-length", "10", "--seed", "1",
                "--change", "w0029:1:0:1:abrupt"]) == 0
    vocab_path = root / "vocab.tsv"
    assert run(["build-vocab", "--manifest", corpus_dir / "manifest.tsv",
                "--boundaries", "2000:2003", "--max-size", "30",
                "--out", vocab_path]) == 0
    assert run(["slice", "--manifest", corpus_dir / "manifest.tsv",
                "--vocab", vocab_path, "--boundaries", "2000:2003",
                "--holdout", "0.2", "--seed", "0",
                "--out-prefix", root / "data"]) == 0
    return root


def train_args(root, outdir, model="isg", extra=()):
    return ["train", "--model", model, "--out", outdir,
            "--vocab", root / "vocab.tsv",
            "--train", root / "data.train.json",
            "--valid", root / "data.valid.json",
            "--test", root / "data.test.json",
            "--dim", "4", "--epochs", "2", "--batch-size", "256",
            "--window", "2", "--seed", "3", *extra]


@pytest.fixture(scope="module")
def trained_runs(pipeline, tmp_path_factory):
    """One run directory per model, trained on the shared pipeline."""
    root = tmp_path_factory.mktemp("runs")
    out = {}
    for model in ("isg", "dsg", "dbe"):
        out[model] = root / model
        assert run(train_args(pipeline, out[model], model=model)) == 0
    return out


# (model, export role) -> the checkpoint file its slice-2 export copies
EXPORTED_FILES = {
    ("isg", "word"): "t2.vec",
    ("isg", "context"): "t2.ctx.vec",
    ("dsg", "word"): "t2.mean.vec",
    ("dsg", "mean"): "t2.mean.vec",
    ("dsg", "var"): "t2.var.vec",
    ("dsg", "context"): "t2.ctx.mean.vec",
    ("dsg", "context_var"): "t2.ctx.var.vec",
    ("dbe", "word"): "t2.vec",
    ("dbe", "context"): "context.vec",
}


def test_parse_boundaries_year_range():
    bounds = parse_boundaries("1987:2007")
    assert len(bounds) == 21
    assert bounds[0].year == 1987 and bounds[-1].year == 2007


def test_parse_boundaries_comma_list():
    bounds = parse_boundaries("2000-01-01,2000-06-01,2001-01-01")
    assert len(bounds) == 3 and bounds[1].month == 6


def vocab_and_slices(out, manifest, boundaries):
    """The vocabulary and corpus bytes that build-vocab and slice write."""
    out.mkdir()
    assert run(["build-vocab", "--manifest", manifest, "--boundaries", boundaries,
                "--max-size", "30", "--out", out / "vocab.tsv"]) == 0
    assert run(["slice", "--manifest", manifest, "--vocab", out / "vocab.tsv",
                "--boundaries", boundaries, "--holdout", "0", "--out-prefix", out / "data"]) == 0
    return [(out / name).read_bytes() for name in ("vocab.tsv", "data.full.json")]


def test_manifest_mixing_naive_and_offset_timestamps(pipeline, tmp_path):
    # every other document's time is written as the same instant at UTC-5
    corpus_dir = pipeline / "corpus"
    lines = []
    for i, line in enumerate((corpus_dir / "manifest.tsv").read_text().splitlines()):
        stamp, doc = line.split("\t")
        if i % 2:
            stamp = (datetime.fromisoformat(stamp).replace(tzinfo=timezone.utc)
                     .astimezone(timezone(timedelta(hours=-5))).isoformat())
        lines.append(f"{stamp}\t{corpus_dir / doc}\n")
    assert lines[1].startswith("1999-12-31T19:00:00-05:00\t")
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text("".join(lines))
    assert (vocab_and_slices(tmp_path / "mixed", mixed, "2000:2003")
            == vocab_and_slices(tmp_path / "naive", corpus_dir / "manifest.tsv",
                                "2000:2003"))


def test_boundaries_with_a_time_of_day(pipeline, tmp_path):
    manifest = pipeline / "corpus" / "manifest.tsv"
    stamps = ",".join(f"{year}-01-01T00:00:00" for year in range(2000, 2004))
    assert (vocab_and_slices(tmp_path / "stamps", manifest, stamps)
            == vocab_and_slices(tmp_path / "years", manifest, "2000:2003"))


def test_malformed_boundaries_are_one_error_line(pipeline, tmp_path, capsys):
    assert run(["build-vocab", "--manifest", pipeline / "corpus" / "manifest.tsv",
                "--boundaries", "2000:abc", "--out", tmp_path / "v.tsv"]) == 1
    assert capsys.readouterr() == (
        "", "error: --boundaries '2000:abc': unparseable timestamp '2000:abc'; give "
            "YYYY:YYYY or a comma list of two or more increasing timestamps\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["build-vocab", "slice"])
@pytest.mark.parametrize("text, reason", [
    ("2000:abc", "unparseable timestamp '2000:abc'"),
    ("2000,abc", "unparseable timestamp 'abc'"),
    ("2000", "need at least two slice boundaries"),
    ("2002:2000", "2002 is not before 2000"),
    ("2000,2000", "slice boundaries must be strictly increasing"),
    ("0000:0001", "year 0 is out of range"),
])
def test_malformed_boundaries_are_usage_errors(pipeline, tmp_path, capsys, command, text,
                                               reason):
    args = {"build-vocab": ["--out", tmp_path / "v.tsv"],
            "slice": ["--vocab", pipeline / "vocab.tsv", "--out-prefix", tmp_path / "data"]}
    assert run([command, "--manifest", pipeline / "corpus" / "manifest.tsv",
                "--boundaries", text, *args[command]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: --boundaries {text!r}: {reason}; give YYYY:YYYY or a comma "
                   f"list of two or more increasing timestamps\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["build-vocab", "slice"])
def test_manifest_year_0000_is_data_error(pipeline, tmp_path, capsys, command):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"0000\t{pipeline / 'corpus' / 'docs' / 't0' / 'd0.txt'}\n")
    args = {"build-vocab": ["--out", tmp_path / "v.tsv"],
            "slice": ["--vocab", pipeline / "vocab.tsv", "--out-prefix", tmp_path / "data"]}
    assert run([command, "--manifest", manifest, "--boundaries", "2000:2003",
                *args[command]]) == 2
    assert capsys.readouterr() == ("", "data error: unparseable timestamp '0000'\n")
    assert list(tmp_path.iterdir()) == [manifest]


def test_pipeline_files_exist(pipeline):
    assert (pipeline / "vocab.tsv").exists()
    for part in ("train", "valid", "test"):
        assert (pipeline / f"data.{part}.json").exists()


def test_missing_manifest_is_data_error(tmp_path, capsys):
    code = run(["build-vocab", "--manifest", tmp_path / "nope.tsv",
                "--boundaries", "2000:2002", "--out", tmp_path / "v.tsv"])
    assert code == 2
    err = capsys.readouterr().err
    assert "nope.tsv" in err


def test_missing_document_named_in_error(tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    manifest.write_text("2000-01-01\tmissing_doc.txt\n")
    code = run(["build-vocab", "--manifest", manifest,
                "--boundaries", "2000:2002", "--out", tmp_path / "v.tsv"])
    assert code == 2
    assert "missing_doc.txt" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert run(["train"]) == 1  # missing required data arguments
    assert "vocabulary file" in capsys.readouterr().err


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize("length", ["0", "-3"])
def test_synth_doc_length_below_one_is_usage_error(tmp_path, length):
    src = Path(runs.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "driftvec.cli", "synth", "--out", str(tmp_path / "corpus"),
         "--doc-length", length],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == "error: doc_length must be >= 1\n"


@pytest.mark.parametrize("fraction", ["nan", "-0.1", "1.5", "inf"])
def test_slice_holdout_outside_unit_interval_is_usage_error(pipeline, tmp_path, capsys,
                                                             fraction):
    assert run(["slice", "--manifest", pipeline / "corpus" / "manifest.tsv",
                "--vocab", pipeline / "vocab.tsv", "--boundaries", "2000:2003",
                "--holdout", fraction, "--out-prefix", tmp_path / "data"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: holdout fraction must be 0 (no split) or lie in (0, 1), "
                   f"not {float(fraction)}\n")
    assert list(tmp_path.iterdir()) == []


def test_slice_that_cannot_hold_out_prints_and_writes_nothing(pipeline, tmp_path, capsys):
    # the corpus spans three years, so the fourth slice is empty
    assert run(["slice", "--manifest", pipeline / "corpus" / "manifest.tsv",
                "--vocab", pipeline / "vocab.tsv", "--boundaries", "2000:2004",
                "--holdout", "0.2", "--out-prefix", tmp_path / "data"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("data error: slice 3 has only 0 documents")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, seed", [("synth", "-1"), ("slice", "-3"),
                                           ("subsample", "-2"), ("train", "-2")])
def test_negative_seed_is_usage_error(pipeline, tmp_path, capsys, command, seed):
    argv = {
        "synth": ["synth", "--out", tmp_path / "corpus"],
        "slice": ["slice", "--manifest", pipeline / "corpus" / "manifest.tsv",
                  "--vocab", pipeline / "vocab.tsv", "--boundaries", "2000:2003",
                  "--out-prefix", tmp_path / "data"],
        "subsample": ["subsample", "--corpus", pipeline / "data.train.json",
                      "--fraction", "0.5", "--out", tmp_path / "sub.json"],
        "train": train_args(pipeline, tmp_path / "run"),
    }[command]
    assert run([*argv, "--seed", seed]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: seed must be >= 0, not {seed}\n"
    assert list(tmp_path.iterdir()) == []


def test_synth_planted_documents_over_a_slice_is_usage_error(tmp_path, capsys):
    # each change takes round(100 * 0.04) = 4 of a slice's 100 documents
    changes = [arg for i in range(170, 200) for arg in ("--change", f"w{i:04d}:1:0:1:abrupt")]
    assert run(["synth", "--out", tmp_path / "corpus", "--vocab-size", "200",
                "--slices", "2", "--tokens-per-slice", "1200", "--doc-length", "12",
                *changes]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: 30 planted changes take 120 documents per slice, "
                   "more than the slice's 100\n")
    assert list(tmp_path.iterdir()) == []


def test_synth_planted_words_taking_the_whole_pool_is_usage_error(tmp_path, capsys):
    changes = [arg for i in range(3) for arg in ("--change", f"w{i:04d}:1:0:1:abrupt")]
    assert run(["synth", "--out", tmp_path / "corpus", "--vocab-size", "10",
                "--slices", "2", "--tokens-per-slice", "100", *changes]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the planted words take all 3 shared-pool words\n"
    assert list(tmp_path.iterdir()) == []


def test_build_vocab_warns_when_max_size_exceeds_distinct(pipeline, tmp_path):
    with pytest.warns(UserWarning, match="exceeds"):
        code = run(["build-vocab",
                    "--manifest", pipeline / "corpus" / "manifest.tsv",
                    "--boundaries", "2000:2003", "--max-size", "50000",
                    "--out", tmp_path / "v.tsv"])
    assert code == 0


def test_warning_prints_as_one_stderr_line(pipeline, tmp_path):
    src = Path(runs.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "driftvec.cli", "build-vocab",
         "--manifest", str(pipeline / "corpus" / "manifest.tsv"),
         "--boundaries", "2000:2003", "--out", str(tmp_path / "v.tsv")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0
    assert re.fullmatch(r"warning: max_size 10000 exceeds the \d+ distinct words\n",
                        result.stderr)


class TestTrainEvalDrift:
    def test_isg_run_and_artifacts(self, pipeline, tmp_path):
        outdir = tmp_path / "run_isg"
        assert run(train_args(pipeline, outdir)) == 0
        manifest = read_manifest(outdir)
        assert manifest["model"] == "isg"
        assert manifest["direction"] == "forward"
        assert manifest["T"] == 3
        assert set(manifest["inputs"]) == {"vocab", "train", "valid", "test"}
        for t in range(3):
            assert (outdir / "isg" / f"t{t}.vec").exists()
            assert (outdir / "isg" / f"t{t}.ctx.vec").exists()
            assert len(manifest["traces"][str(t)]["lpos"]) == 2
            assert len(manifest["traces"][str(t)]["holdout_lpos"]) == 2

    def test_rerun_bitwise_identical(self, pipeline, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(train_args(pipeline, a)) == 0
        assert run(train_args(pipeline, b)) == 0
        for t in range(3):
            assert (a / "isg" / f"t{t}.vec").read_bytes() == \
                (b / "isg" / f"t{t}.vec").read_bytes()

    def test_eval_prints_report(self, pipeline, tmp_path, capsys):
        outdir = tmp_path / "run_eval"
        assert run(train_args(pipeline, outdir)) == 0
        capsys.readouterr()
        assert run(["eval", "--run", outdir, "--split", "valid"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "slice\tlpos"
        assert lines[-1].startswith("mean\t-")
        assert len(lines) == 1 + 3 + 1

    def test_eval_missing_checkpoints(self, pipeline, tmp_path, capsys):
        outdir = tmp_path / "run_broken"
        assert run(train_args(pipeline, outdir)) == 0
        (outdir / "isg" / "t1.vec").unlink()
        assert run(["eval", "--run", outdir, "--split", "valid"]) == 2

    def test_drift_outputs(self, pipeline, tmp_path, capsys):
        outdir = tmp_path / "run_drift"
        assert run(train_args(pipeline, outdir)) == 0
        drift_dir = tmp_path / "drift_out"
        assert run(["drift", "--run", outdir, "--t0", "0", "--bins", "5",
                    "--out", drift_dir]) == 0
        drift_lines = (drift_dir / "drift.csv").read_text().splitlines()
        assert drift_lines[0] == "word,t,drift"
        # reference-slice rows are identically zero
        zero_rows = [l for l in drift_lines[1:] if l.split(",")[1] == "0"]
        assert zero_rows and all(float(l.split(",")[2]) == 0.0 for l in zero_rows)
        assert (drift_dir / "histogram.csv").exists()
        report = (drift_dir / "drift_report.txt").read_text()
        assert "directedness" in report and "stability_fraction" in report

    def test_drift_csv_quotes_a_word_holding_a_comma_or_quote(self, pipeline, tmp_path):
        lines = (pipeline / "vocab.tsv").read_text().splitlines(keepends=True)
        lines[0] = 'a,"b' + lines[0][lines[0].index("\t"):]
        vocab = tmp_path / "vocab.tsv"
        vocab.write_text("".join(lines))
        args = train_args(pipeline, tmp_path / "run")
        args[args.index("--vocab") + 1] = vocab
        assert run(args) == 0
        assert run(["drift", "--run", tmp_path / "run", "--out", tmp_path / "out"]) == 0
        with open(tmp_path / "out" / "drift.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        words = load_vocabulary(vocab).words
        assert rows[0] == ["word", "t", "drift"]
        assert [row[:2] for row in rows[1:]] == [[w, str(t)] for t in range(3) for w in words]
        assert '"a,""b",0,0\n' in (tmp_path / "out" / "drift.csv").read_text()

    def test_single_bin_histogram_counts_vocabulary(self, pipeline, tmp_path):
        outdir = tmp_path / "run_bins"
        assert run(train_args(pipeline, outdir)) == 0
        drift_dir = tmp_path / "bins_out"
        assert run(["drift", "--run", outdir, "--bins", "1",
                    "--out", drift_dir]) == 0
        words, _ = load_embedding_text(outdir / "isg" / "t0.vec")
        lines = (drift_dir / "histogram.csv").read_text().splitlines()[1:]
        assert len(lines) == 2  # one bin, two target slices
        for line in lines:
            assert int(line.split(",")[-1]) == len(words)

    @pytest.mark.parametrize("model, role", list(EXPORTED_FILES))
    def test_export_round_trip(self, trained_runs, tmp_path, model, role):
        rundir = trained_runs[model]
        dest = tmp_path / "slice2.vec"
        assert run(["export", "--run", rundir, "--slice", "2",
                    "--role", role, "--out", dest]) == 0
        expected = rundir / model / EXPORTED_FILES[model, role]
        assert dest.read_bytes() == expected.read_bytes()

    def test_export_of_unavailable_role_is_usage_error(self, trained_runs, tmp_path, capsys):
        dest = tmp_path / "var.vec"
        assert run(["export", "--run", trained_runs["isg"], "--role", "var",
                    "--out", dest]) == 1
        assert "not available for model 'isg'" in capsys.readouterr().err
        assert not dest.exists()

    def test_export_checks_the_slice_against_slice_0(self, trained_runs, tmp_path, capsys):
        # export reads slice 0's word checkpoint too, and fails as drift does
        rundir = unpinned_copy(trained_runs["isg"], tmp_path / "run")
        swap_rows(rundir / "isg" / "t1.vec", 4, 7)
        assert run(["drift", "--run", rundir, "--out", tmp_path / "drift"]) == 2
        drift_err = capsys.readouterr().err
        assert f"{rundir / 'isg' / 't1.vec'}: row 5 holds 'w" in drift_err
        dest = tmp_path / "t1.vec"
        assert run(["export", "--run", rundir, "--slice", "1", "--out", dest]) == 2
        assert capsys.readouterr().err == drift_err
        assert not dest.exists()

    @pytest.mark.parametrize("model, role, t", [("isg", "word", 9), ("isg", "word", -1),
                                                ("dsg", "var", 3), ("dbe", "context", 9)])
    def test_export_of_slice_outside_run_is_usage_error(self, trained_runs, tmp_path, capsys,
                                                        model, role, t):
        dest = tmp_path / "out.vec"
        assert run(["export", "--run", trained_runs[model], "--slice", t,
                    "--role", role, "--out", dest]) == 1
        assert capsys.readouterr().err == f"error: slice {t} out of range: the run has 3 slices\n"
        assert not dest.exists()

    def test_drift_on_one_slice_run_is_data_error(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        assert run(["synth", "--out", corpus_dir, "--vocab-size", "20",
                    "--slices", "1", "--tokens-per-slice", "600",
                    "--doc-length", "10", "--seed", "1"]) == 0
        assert run(["build-vocab", "--manifest", corpus_dir / "manifest.tsv",
                    "--boundaries", "2000:2001", "--max-size", "20",
                    "--out", tmp_path / "vocab.tsv"]) == 0
        assert run(["slice", "--manifest", corpus_dir / "manifest.tsv",
                    "--vocab", tmp_path / "vocab.tsv", "--boundaries", "2000:2001",
                    "--holdout", "0", "--out-prefix", tmp_path / "data"]) == 0
        outdir = tmp_path / "run_one"
        assert run(["train", "--model", "isg", "--out", outdir,
                    "--vocab", tmp_path / "vocab.tsv", "--train", tmp_path / "data.full.json",
                    "--dim", "4", "--epochs", "1", "--seed", "3"]) == 0
        capsys.readouterr()
        assert run(["drift", "--run", outdir]) == 2
        err = capsys.readouterr().err
        assert f"{outdir}: drift needs at least two slices, the run has 1" in err

    def test_dsg_run_writes_posteriors(self, pipeline, tmp_path):
        outdir = tmp_path / "run_dsg"
        assert run(train_args(pipeline, outdir, model="dsg")) == 0
        for t in range(3):
            for suffix in ("mean.vec", "var.vec", "ctx.mean.vec", "ctx.var.vec"):
                assert (outdir / "dsg" / f"t{t}.{suffix}").exists()
        _, var = load_embedding_text(outdir / "dsg" / "t0.var.vec")
        assert (var > 0).all()

    @pytest.mark.parametrize("model, init", [("dbe", "random"), ("dsg", "random"),
                                             ("dsg", "backward-external")])
    def test_dbe_run_with_regularizer_records_beta(self, pipeline, tmp_path, model, init):
        extra = ["--reg-alpha", "0.5", "--reg-beta", "mean"]
        if init == "backward-external":
            vocab = load_vocabulary(pipeline / "vocab.tsv")
            pre = tmp_path / "pre.vec"
            save_embedding_text(pre, list(vocab.words),
                                np.random.default_rng(0).normal(size=(vocab.size, 4)))
            extra += ["--init", init, "--pretrained", pre]
        outdir = tmp_path / "run"
        assert run(train_args(pipeline, outdir, model=model, extra=extra)) == 0
        manifest = read_manifest(outdir)
        assert manifest["config"]["reg"] == {"alpha": 0.5, "beta": "mean"}
        # the reference slice is slice 0, the last for backward dsg, and
        # has no threshold; every other slice has one per epoch
        reference = 2 if init == "backward-external" else 0
        assert "reg_beta" not in manifest
        assert sorted(manifest["traces"]) == ["0", "1", "2"]
        for t, trace in manifest["traces"].items():
            assert len(trace["holdout_lpos"]) == 2
            if int(t) == reference:
                assert "reg_beta" not in trace
            else:
                assert len(trace["reg_beta"]) == 2
        if model == "dbe":
            assert (outdir / "dbe" / "context.vec").exists()
            assert (outdir / "dbe" / "adam_ctx.txt").exists()

    def test_backward_external_direction(self, pipeline, tmp_path):
        from driftvec.corpus import load_vocabulary
        from driftvec.sgns import save_embedding_text
        vocab = load_vocabulary(pipeline / "vocab.tsv")
        pre = tmp_path / "pre.vec"
        rng = np.random.default_rng(0)
        save_embedding_text(pre, list(vocab.words),
                            rng.normal(size=(vocab.size, 4)))
        outdir = tmp_path / "run_back"
        assert run(train_args(pipeline, outdir, model="dsg",
                              extra=["--init", "backward-external",
                                     "--pretrained", pre])) == 0
        manifest = read_manifest(outdir)
        assert manifest["direction"] == "backward"
        assert manifest["trained_order"] == [2, 1, 0]
        assert "pretrained" in manifest["inputs"]


class TestInputContract:
    """Malformed inputs exit 2 with a message naming the file and place."""

    def test_corpus_without_slices(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "noslices.json"
        bad.write_text(json.dumps({"split": "train", "T": 3}))
        args = train_args(pipeline, tmp_path / "run")
        args[args.index("--train") + 1] = bad
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "noslices.json" in err and '"slices"' in err

    @pytest.mark.parametrize("model", ["isg", "dsg", "dbe"])
    def test_corpus_with_no_slices(self, pipeline, tmp_path, capsys, model):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"slices": []}))
        args = train_args(pipeline, tmp_path / "run", model=model)
        args[args.index("--train") + 1] = empty
        assert run(args) == 2
        assert f"{empty}: the corpus holds no slices" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_token_id_outside_vocabulary(self, pipeline, tmp_path, capsys):
        payload = json.loads((pipeline / "data.train.json").read_text())
        payload["slices"][1][2][0] = 30          # the vocabulary has 30 words
        bad = tmp_path / "bigid.json"
        bad.write_text(json.dumps(payload))
        args = train_args(pipeline, tmp_path / "run")
        args[args.index("--train") + 1] = bad
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "bigid.json" in err and "slice 1, document 2" in err

        # eval checks the scored split against the checkpoint rows
        args = train_args(pipeline, tmp_path / "run")
        args[args.index("--test") + 1] = bad
        assert run(args) == 0
        capsys.readouterr()
        assert run(["eval", "--run", tmp_path / "run", "--split", "test"]) == 2
        err = capsys.readouterr().err
        assert "bigid.json" in err and "token id 30" in err

    def test_slice_count_mismatch(self, pipeline, tmp_path, capsys):
        payload = json.loads((pipeline / "data.valid.json").read_text())
        payload["slices"].pop()
        payload["T"] = 2
        short = tmp_path / "short.json"
        short.write_text(json.dumps(payload))
        args = train_args(pipeline, tmp_path / "run")
        args[args.index("--valid") + 1] = short
        assert run(args) == 2
        assert "short.json: 2 slices" in capsys.readouterr().err

        args = train_args(pipeline, tmp_path / "run")
        args[args.index("--test") + 1] = short
        assert run(args) == 0
        capsys.readouterr()
        assert run(["eval", "--run", tmp_path / "run", "--split", "test"]) == 2
        assert "short.json: 2 slices" in capsys.readouterr().err

    def test_malformed_vocabulary_line(self, pipeline, tmp_path, capsys):
        vocab = tmp_path / "v.tsv"
        vocab.write_text("w0\t0\t5\nw1\tx\t3\n")
        args = train_args(pipeline, tmp_path / "run")
        args[args.index("--vocab") + 1] = vocab
        assert run(args) == 2
        assert "v.tsv:2: malformed vocabulary line" in capsys.readouterr().err

        vocab.write_text("w0\t0\t5\nw1\t1\tmany\n")
        assert run(args) == 2
        assert "v.tsv:2: malformed vocabulary line" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("w0\t0\t5\nw1\t1\t-7\n", "v.tsv:2: count -7 does not lie in 0.."),
        ("w0\t0\t0\nw1\t1\t0\n", "v.tsv: every count is 0"),
    ])
    def test_bad_vocabulary_count(self, pipeline, tmp_path, capsys, text, message):
        # these counts made every noise probability NaN, and train exited 0
        vocab = tmp_path / "v.tsv"
        vocab.write_text(text)
        args = train_args(pipeline, tmp_path / "run")
        args[args.index("--vocab") + 1] = vocab
        assert run(args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text, message", [
        ("a\t0\t5\nb\t1\t4\na\t2\t3\n", "v.tsv:3: word 'a' given twice"),
        ("a\t0\t5\n\t1\t4\n", "v.tsv:2: word '' is empty or holds whitespace"),
        ("w 0\t0\t5\n", "v.tsv:1: word 'w 0' is empty or holds whitespace"),
    ])
    def test_vocabulary_words_are_distinct_single_fields(self, pipeline, tmp_path, capsys,
                                                          text, message):
        # a word the .vec text format cannot hold would make train write
        # checkpoints that eval rejects
        vocab = tmp_path / "v.tsv"
        vocab.write_text(text)
        args = train_args(pipeline, tmp_path / "run")
        args[args.index("--vocab") + 1] = vocab
        assert run(args) == 2
        assert message in capsys.readouterr().err

    def test_non_numeric_vector_entry(self, pipeline, tmp_path, capsys):
        pre = tmp_path / "pre.vec"
        pre.write_text("2 4\nw0000 0.1 0.2 0.3 0.4\nw0001 0.1 oops 0.3 0.4\n")
        assert run(train_args(pipeline, tmp_path / "run", model="dsg",
                              extra=["--init", "backward-external",
                                     "--pretrained", pre])) == 2
        err = capsys.readouterr().err
        assert "pre.vec:3:" in err and "w0001" in err

    def test_pretrained_file_with_more_rows_than_its_header(self, pipeline, tmp_path,
                                                            capsys):
        vocab = load_vocabulary(pipeline / "vocab.tsv")
        pre = tmp_path / "pre.vec"
        save_embedding_text(pre, list(vocab.words), np.ones((vocab.size, 4)))
        text = pre.read_text()
        pre.write_text(text.replace(f"{vocab.size} 4", "5 4", 1))
        outdir = tmp_path / "run"
        assert run(train_args(pipeline, outdir, extra=["--init", "backward-external",
                                                       "--pretrained", pre])) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {pre}:7: more rows than the header's count of 5\n"
        assert not outdir.exists()

    def test_pretrained_word_listed_twice(self, pipeline, tmp_path, capsys):
        pre = tmp_path / "pre.vec"
        pre.write_text("3 4\nw0000 1 1 1 1\nw0001 2 2 2 2\nw0000 9 9 9 9\n")
        outdir = tmp_path / "run"
        assert run(train_args(pipeline, outdir, extra=["--init", "backward-external",
                                                       "--pretrained", pre])) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {pre}:4: word 'w0000' repeats the row on line 2\n"
        assert not outdir.exists()

    def test_non_finite_vector_entry(self, pipeline, tmp_path, capsys):
        pre = tmp_path / "pre.vec"
        pre.write_text("2 4\nw0000 0.1 0.2 0.3 0.4\nw0001 nan 0.2 inf 0.4\n")
        assert run(train_args(pipeline, tmp_path / "run", model="dsg",
                              extra=["--init", "backward-external",
                                     "--pretrained", pre])) == 2
        err = capsys.readouterr().err
        assert "pre.vec:3: non-finite value in the row of 'w0001'" in err


@pytest.mark.parametrize("kind", ["config", "vocab", "manifest", "document", "stopwords",
                                  "vectors"])
def test_non_utf8_text_input_is_data_error(pipeline, tmp_path, capsys, kind):
    bad = tmp_path / f"bad.{kind}"
    manifest = pipeline / "corpus" / "manifest.tsv"
    build_vocab = ["build-vocab", "--boundaries", "2000:2003", "--out", tmp_path / "v.tsv"]
    if kind == "config":
        bad.write_bytes(b"[train]\ndim = 4\xff\n")
        argv = ["train", "--config", bad]
    elif kind == "vocab":
        bad.write_bytes(b"w0\t0\t5\nw\xff\t1\t3\n")
        argv = train_args(pipeline, tmp_path / "run")
        argv[argv.index("--vocab") + 1] = bad
    elif kind == "manifest":
        bad.write_bytes(b"2000-01-01\tdoc\xff.txt\n")
        argv = [*build_vocab, "--manifest", bad]
    elif kind == "document":
        bad.write_bytes(b"a b \xff c\n")
        good = tmp_path / "m.tsv"
        good.write_text(f"2000-06-01\t{bad}\n")
        argv = [*build_vocab, "--manifest", good]
    elif kind == "stopwords":
        bad.write_bytes(b"the\n\xff\n")
        argv = [*build_vocab, "--manifest", manifest, "--stopwords", bad]
    else:
        bad.write_bytes(b"2 4\nw0000 0.1 0.2 0.3 0.4\nw0001\xff 0.1 0.2 0.3 0.4\n")
        argv = train_args(pipeline, tmp_path / "run", model="dsg",
                          extra=["--init", "backward-external", "--pretrained", bad])
    assert run(argv) == 2
    assert f"{bad}: not UTF-8 text (byte 0xff" in capsys.readouterr().err


def test_subsample_command(pipeline, tmp_path, capsys):
    out = tmp_path / "sub.json"
    assert run(["subsample", "--corpus", pipeline / "data.train.json",
                "--fraction", "0.5", "--seed", "1", "--out", out]) == 0
    assert out.exists()
    assert "kept" in capsys.readouterr().out


def test_config_file_with_flag_override(pipeline, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"""
[run]
model = isg
out = {tmp_path / 'cfg_run'}
[data]
vocab = {pipeline / 'vocab.tsv'}
train = {pipeline / 'data.train.json'}
[train]
dim = 4
epochs = 1
window = 2
batch_size = 256
seed = 5
""")
    assert run(["train", "--config", cfg, "--epochs", "2"]) == 0
    manifest = read_manifest(tmp_path / "cfg_run")
    assert manifest["config"]["train"]["epochs"] == 2   # flag wins
    assert manifest["config"]["train"]["seed"] == 5     # file value kept


def readme_config_block():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(r"```ini\n(.*?)```", readme, re.S).group(1)


def test_readme_config_block_loads(pipeline, tmp_path):
    block = readme_config_block()
    for name in ("vocab.tsv", "data.train.json", "data.valid.json", "data.test.json"):
        assert f"demo/{name}" in block
        block = block.replace(f"demo/{name}", str(pipeline / name))
    cfg = tmp_path / "readme.ini"
    cfg.write_text(block, encoding="utf-8")
    outdir = tmp_path / "readme_run"
    assert run(["train", "--config", cfg, "--out", outdir, "--dim", "4",
                "--epochs", "1", "--batch-size", "256", "--window", "2"]) == 0
    config = read_manifest(outdir)["config"]
    assert config["run"] == {"model": "dbe", "out": str(outdir)}
    assert config["init"] == {"scheme": "random", "pretrained": None}
    assert config["reg"] == {"alpha": 0.0, "beta": "mean"}
    assert "dsg" not in config
    assert config["data"]["test"] == str(pipeline / "data.test.json")


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    # the example's own corpus and epochs take seconds; a smaller run
    # exercises the same calls
    for shown, small in (("tokens_per_slice=50_000", "tokens_per_slice=3_000"),
                         ("epochs=5", "epochs=1")):
        assert shown in block
        block = block.replace(shown, small)
    exec(compile(block, "README.md", "exec"), {})
    assert -1.0 <= float(capsys.readouterr().out) <= 1.0


@pytest.mark.parametrize("text, message", [
    ("dim = 4\n[train]\nepochs = 1\n", "bad.ini:1: key before any [section] header"),
    ("[train]\ndim = 4\nepochs = 1\ndim = 5\n", "bad.ini:4: key 'dim' given twice in [train]"),
    ("[train]\nlearning_rat = 5\n", "bad.ini: unknown key 'learning_rat' in [train]"),
    ("[train]\ndim = 4\n[bogus]\nx = 1\n", "bad.ini: unknown section [bogus]"),
    ("[DEFAULT]\nseed = 1\n[train]\ndim = 4\n", "bad.ini: unknown section [DEFAULT]"),
    ("[train]\ndim = abc\n", "bad.ini: [train] dim = 'abc': invalid literal for int()"),
    ("[train]\ndim = 0\n", "bad.ini: [train] dim = '0': dim must be >= 1"),
    ("[train]\nseed = -2\n", "bad.ini: [train] seed = '-2': seed must be >= 0, not -2"),
    ("[run]\nmodel = foo\n", "bad.ini: [run] model = 'foo': unknown model 'foo'"),
    ("[init]\nscheme = bogus\n", "bad.ini: [init] scheme = 'bogus': unknown init scheme"),
    ("[init]\nscheme = backward_external\n",
     "bad.ini: [init] scheme = 'backward_external': backward_external requires pretrained_path"),
    ("[dsg]\ndiffusion = 0\nanchor = 0\n", "bad.ini: diffusion_var and anchor_var must be > 0"),
    ("[run]\nmodel = isg\n[reg]\nalpha = 5\n",
     "bad.ini: [reg] alpha = '5': model isg does not read the drift penalty"),
    ("[train]\nlearning_rate = nan\n",
     "bad.ini: [train] learning_rate = 'nan': learning_rate must be > 0 and finite"),
    ("[dsg]\ndiffusion = inf\n",
     "bad.ini: [dsg] diffusion = 'inf': diffusion_var and anchor_var must be > 0 and finite"),
    ("[dsg]\ndiffusion = 1e-320\n",
     "bad.ini: [dsg] diffusion = '1e-320': diffusion_var must be large enough that its "
     "reciprocal, a prior precision, is finite"),
    ("[dsg]\nanchor = 1e-320\n",
     "bad.ini: [dsg] anchor = '1e-320': anchor_var must be large enough that its "
     "reciprocal, a prior precision, is finite"),
    ("[dsg]\ndiffusion = 1e-308\nanchor = 1e-308\n",
     "bad.ini: [dsg] diffusion = '1e-308': the prior precisions 1/diffusion_var + "
     "1/anchor_var must have a finite sum"),
    ("[dbe]\nbase_precision = inf\n",
     "bad.ini: [dbe] base_precision = 'inf': precisions must be > 0 and finite"),
    ("[reg]\nalpha = nan\n", "bad.ini: [reg] alpha = 'nan': alpha must be >= 0 and finite"),
    ("[reg]\nbeta = inf\n", "bad.ini: [reg] beta = 'inf': beta must be >= 0 and finite"),
])
def test_malformed_config_file_is_data_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert run(["train", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


def test_bad_flag_value_beside_a_config_file_is_usage_error(pipeline, tmp_path, capsys):
    cfg = tmp_path / "ok.ini"
    cfg.write_text("[train]\nwindow = 2\n")
    assert run([*train_args(pipeline, tmp_path / "run"), "--config", cfg, "--dim", "0"]) == 1
    assert "error: dim must be >= 1" in capsys.readouterr().err


def test_drift_penalty_flag_with_isg_is_usage_error(pipeline, tmp_path, capsys):
    outdir = tmp_path / "run"
    assert run(train_args(pipeline, outdir, extra=["--reg-alpha", "5", "--reg-beta", "0"])) == 1
    assert "error: model isg does not read the drift penalty" in capsys.readouterr().err
    assert not outdir.exists()


# Each float flag of train and a model that reads it.
FLOAT_FLAGS = {"--learning-rate": "isg", "--diffusion": "dsg", "--anchor": "dsg",
               "--drift-precision": "dbe", "--base-precision": "dbe",
               "--reg-alpha": "dbe", "--reg-beta": "dbe"}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", list(FLOAT_FLAGS))
def test_non_finite_float_flag_is_usage_error(pipeline, tmp_path, capsys, flag, value):
    outdir = tmp_path / "run"
    assert run(train_args(pipeline, outdir, model=FLOAT_FLAGS[flag], extra=[flag, value])) == 1
    assert " and finite\n" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("flag, setting", [("--diffusion", "diffusion_var"),
                                           ("--anchor", "anchor_var")])
def test_dsg_variance_without_a_finite_precision_is_usage_error(pipeline, tmp_path, capsys,
                                                                flag, setting):
    outdir = tmp_path / "run"
    assert run(train_args(pipeline, outdir, model="dsg", extra=[flag, "1e-320"])) == 1
    assert capsys.readouterr().err == (f"error: {setting} must be large enough that its "
                                       f"reciprocal, a prior precision, is finite\n")
    assert not outdir.exists()


def test_adam_overflow_exits_3_without_a_manifest(pipeline, tmp_path, capsys):
    # the dbe prior gradient is finite, but its square overflows Adam's
    # second moment
    outdir = tmp_path / "run"
    assert run(train_args(pipeline, outdir, model="dbe",
                          extra=["--drift-precision", "1e308"])) == 3
    assert capsys.readouterr().err == ("numerical failure: overflow in the Adam step of "
                                       "parameter matrix 'U[0]'\n")
    assert not (outdir / "run.json").exists()


def test_readme_config_block_names_every_setting():
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    parser.read_string(readme_config_block())
    documented = {(section, key) for section in parser.sections() for key in parser[section]}
    assert documented == {(s.section, s.key) for s in TRAIN_SETTINGS}


# Every train setting but the model and the paths: the model that reads
# it, INI values it needs beside the base ones, and a value other than
# its default.
SETTING_CASES = {
    "dim": ("isg", {}, "3"),
    "window": ("isg", {}, "1"),
    "negative_ratio": ("isg", {}, "2"),
    "learning_rate": ("isg", {}, "0.05"),
    "epochs": ("isg", {}, "2"),
    "batch_size": ("isg", {}, "64"),
    "seed": ("isg", {}, "4"),
    "scheme": ("isg", {}, "internal"),
    "diffusion": ("dsg", {}, "0.5"),
    "anchor": ("dsg", {}, "0.5"),
    "samples": ("dsg", {}, "2"),
    "entropy": ("dsg", {}, "exact"),
    "drift_precision": ("dbe", {}, "5.0"),
    "base_precision": ("dbe", {}, "1.0"),
    "alpha": ("dbe", {}, "0.5"),
    # every slice starts at slice 0, so the first epoch's mean drift is 0
    "beta": ("dbe", {("reg", "alpha"): "0.5", ("train", "epochs"): 2}, "0.0"),
}


def write_ini(path, values):
    sections = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    path.write_text("".join(f"[{section}]\n" + "".join(lines)
                            for section, lines in sections.items()))


@pytest.mark.parametrize("setting", [
    s for s in TRAIN_SETTINGS
    if s.key not in ("model", "out", "vocab", "train", "valid", "test", "pretrained")
], ids=lambda s: s.key)
def test_no_setting_is_dead(pipeline, tmp_path, setting):
    # train once without the key and once with another value: a setting
    # that training reads changes the checkpoint bytes
    assert setting.key in SETTING_CASES, f"no case for [{setting.section}] {setting.key}"
    model, needs, value = SETTING_CASES[setting.key]
    base = {("data", "vocab"): pipeline / "vocab.tsv",
            ("data", "train"): pipeline / "data.train.json",
            ("run", "model"): model, ("train", "dim"): 4, ("train", "epochs"): 1,
            ("train", "window"): 2, ("train", "batch_size"): 256, ("train", "seed"): 3,
            **needs}
    base.pop((setting.section, setting.key), None)
    checkpoints = []
    for name, values in (("without", base), ("with", {**base, (setting.section, setting.key): value})):
        ini = tmp_path / f"{name}.ini"
        write_ini(ini, {**values, ("run", "out"): tmp_path / name})
        assert run(["train", "--config", ini]) == 0
        checkpoints.append({p.name: p.read_bytes() for p in (tmp_path / name / model).iterdir()})
    assert checkpoints[0] != checkpoints[1], f"[{setting.section}] {setting.key} changes nothing"


def test_config_values_are_literal(pipeline, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"""
[run]
out = {tmp_path / 'runs' / '50%'}
[data]
vocab = {pipeline / 'vocab.tsv'}
train = {pipeline / 'data.train.json'}
[train]
dim = 4
epochs = 1
""")
    assert run(["train", "--config", cfg]) == 0
    assert read_manifest(tmp_path / "runs" / "50%")["config"]["run"]["out"].endswith("50%")


# Flags beside the base ones in train_args for each model's retrain case.
RETRAIN_FLAGS = {
    "isg": ["--init", "internal"],
    "dsg": ["--init", "internal", "--reg-alpha", "0.1", "--entropy", "exact"],
    "dbe": ["--reg-alpha", "0.1", "--reg-beta", "0.2"],
}


@pytest.mark.parametrize("model", list(RETRAIN_FLAGS))
def test_run_json_config_retrains_the_run(pipeline, tmp_path, model):
    # the config block of run.json, written back as INI, is the whole run
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(train_args(pipeline, first, model=model, extra=RETRAIN_FLAGS[model])) == 0
    config = read_manifest(first)["config"]
    write_ini(tmp_path / "run.ini", {(section, key): "" if value is None else value
                                     for section, values in config.items()
                                     for key, value in values.items()})
    assert run(["train", "--config", tmp_path / "run.ini", "--out", second]) == 0
    names = sorted(p.name for p in (first / model).iterdir())
    assert names == sorted(p.name for p in (second / model).iterdir())
    for name in names:
        assert (first / model / name).read_bytes() == (second / model / name).read_bytes(), name


VALID_MANIFEST = {"model": "isg", "T": 3, "inputs": {}, "config": {"train": {"window": 2}}}


@pytest.mark.parametrize("text, message", [
    ('{"model": "isg", "T": 3', "not JSON (Expecting ',' delimiter"),
    ("[1, 2]", "not a JSON object"),
    ('{"model": "dbe", "inputs": {}}', "T must be an integer >= 1, not None"),
    (json.dumps({**VALID_MANIFEST, "model": "xsg"}), "model must be one of ['dbe', 'dsg', 'isg']"),
    (json.dumps({**VALID_MANIFEST, "model": ["isg"]}), "model must be one of"),
    (json.dumps({**VALID_MANIFEST, "T": 0}), "T must be an integer >= 1, not 0"),
    (json.dumps({**VALID_MANIFEST, "T": True}), "T must be an integer >= 1, not True"),
    (json.dumps({**VALID_MANIFEST, "inputs": []}), "inputs must be an object"),
    (json.dumps({**VALID_MANIFEST, "inputs": {"valid": 5}}), "inputs must be an object"),
    (json.dumps({**VALID_MANIFEST, "config": {"train": {}}}),
     "config.train.window must be an integer >= 1, not None"),
    (json.dumps({**VALID_MANIFEST, "config": {"train": {"window": "2"}}}),
     "config.train.window must be an integer >= 1, not '2'"),
])
@pytest.mark.parametrize("command", ["eval", "drift", "export"])
def test_damaged_manifest_is_data_error(tmp_path, capsys, command, text, message):
    (tmp_path / "run.json").write_text(text)
    extra = ["--out", tmp_path / "t0.vec"] if command == "export" else []
    assert run([command, "--run", tmp_path, *extra]) == 2
    assert f"data error: {tmp_path / 'run.json'}: {message}" in capsys.readouterr().err


def unpinned_copy(rundir, dest):
    """A copy of the run without its ``checkpoints`` block, as written before
    checkpoints were pinned: a damaged ``.vec`` there is parsed as text, and
    the checks across files are what catch it."""
    shutil.copytree(rundir, dest)
    edit_manifest(dest, lambda m: m.pop("checkpoints"))
    return dest


def swap_rows(path, i, j):
    lines = path.read_text().splitlines(keepends=True)
    lines[i + 1], lines[j + 1] = lines[j + 1], lines[i + 1]
    path.write_text("".join(lines))


def cut_rows(path, keep):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(f"{keep} {lines[0].split()[1]}\n" + "".join(lines[1:keep + 1]))


def narrow(path):
    # keep the words, drop the last of the 4 columns
    lines = path.read_text().splitlines()
    path.write_text(f"{lines[0].split()[0]} 3\n"
                    + "".join(" ".join(line.split()[:4]) + "\n" for line in lines[1:]))


@pytest.mark.parametrize("command", ["eval", "drift"])
@pytest.mark.parametrize("model, name, damage, message", [
    ("dsg", "t1.mean.vec", lambda p: swap_rows(p, 4, 7), "row 5 holds 'w"),
    ("isg", "t1.vec", lambda p: cut_rows(p, 27), "row 28 holds no row, but"),
    ("dbe", "t2.vec", lambda p: swap_rows(p, 0, 1), "row 1 holds 'w"),
    ("isg", "t2.vec", narrow, "3 columns, but"),
])
def test_damaged_word_checkpoint_is_data_error(trained_runs, tmp_path, capsys,
                                               command, model, name, damage, message):
    rundir = unpinned_copy(trained_runs[model], tmp_path / "run")
    damage(rundir / model / name)
    assert run([command, "--run", rundir]) == 2
    assert f"data error: {rundir / model / name}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("damage, message", [(lambda p: swap_rows(p, 2, 3), "row 3 holds 'w"),
                                             (narrow, "3 columns, but")])
@pytest.mark.parametrize("model, name, first", [("isg", "t2.ctx.vec", "t0.vec"),
                                                ("dsg", "t0.ctx.mean.vec", "t0.mean.vec"),
                                                ("dbe", "context.vec", "t0.vec")])
def test_eval_checks_context_checkpoints_against_slice_0(trained_runs, tmp_path, capsys,
                                                        model, name, first, damage, message):
    rundir = unpinned_copy(trained_runs[model], tmp_path / "run")
    damage(rundir / model / name)
    assert run(["eval", "--run", rundir]) == 2
    err = capsys.readouterr().err
    assert f"data error: {rundir / model / name}: {message}" in err
    assert str(rundir / model / first) in err


def record_loads(monkeypatch):
    """The list of checkpoint paths the run loader reads, in read order."""
    loads, load = [], runs._load

    def recording_load(path, pins=None):
        loads.append(path)
        return load(path, pins)

    monkeypatch.setattr(runs, "_load", recording_load)
    return loads


@pytest.mark.parametrize("model", ["isg", "dsg", "dbe"])
def test_eval_reads_each_checkpoint_file_once(trained_runs, monkeypatch, model):
    rundir = trained_runs[model]
    loads = record_loads(monkeypatch)
    assert run(["eval", "--run", rundir]) == 0
    paths = [runs.checkpoint_path(rundir, model, role, t)
             for role in ("word", "context") for t in range(3)]
    # dbe's three context paths are its one context.vec
    assert loads == list(dict.fromkeys(paths))


@pytest.mark.parametrize("model", ["isg", "dsg", "dbe"])
def test_drift_reads_no_context_checkpoint(trained_runs, tmp_path, monkeypatch, model):
    rundir = trained_runs[model]
    loads = record_loads(monkeypatch)
    assert run(["drift", "--run", rundir, "--out", tmp_path]) == 0
    assert loads == [runs.checkpoint_path(rundir, model, "word", t) for t in range(3)]


@pytest.mark.parametrize("command", ["eval", "drift"])
@pytest.mark.parametrize("model", ["isg", "dsg", "dbe"])
def test_manifest_t_past_the_checkpoints_is_data_error(trained_runs, tmp_path, command, model):
    # a fresh interpreter with a timeout, so that a loader that builds
    # anything per slice before it reads the first missing one fails here
    # instead of running until it is killed
    rundir = tmp_path / "run"
    shutil.copytree(trained_runs[model], rundir)
    edit_manifest(rundir, lambda m: m.update(T=10**12))
    src = Path(runs.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom driftvec.cli import main\nsys.exit(main())",
         command, "--run", str(rundir)],
        capture_output=True, text=True, timeout=15, env={**os.environ, "PYTHONPATH": str(src)})
    assert (result.returncode, result.stderr) == (
        2, f"data error: missing checkpoint {runs.checkpoint_path(rundir, model, 'word', 3)}\n")


@pytest.mark.parametrize("flag, value, message", [
    ("--t0", "3", "reference slice 3 out of range: the run has 3 slices"),
    ("--t0", "-1", "reference slice -1 out of range: the run has 3 slices"),
    ("--bins", "0", "bins must be >= 1"),
    ("--stability-threshold", "nan", "threshold_fraction must lie in (0, 1)"),
])
def test_bad_drift_argument_writes_nothing(trained_runs, tmp_path, monkeypatch, capsys,
                                           flag, value, message):
    loads = record_loads(monkeypatch)
    out = tmp_path / "out"
    assert run(["drift", "--run", trained_runs["isg"], flag, value, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert loads == []


def test_memory_error_is_one_line(trained_runs, tmp_path, monkeypatch, capsys):
    # numpy raises a MemoryError subclass for an array too large to allocate
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

    def too_large(series, bins):
        raise MemoryError(message)

    monkeypatch.setattr(analysis, "drift_histogram", too_large)
    out = tmp_path / "out"
    assert run(["drift", "--run", trained_runs["isg"], "--bins", "1000000000000",
                "--out", out]) == 1
    assert capsys.readouterr().err == f"error: not enough memory: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# Binary checkpoint twins
# ---------------------------------------------------------------------------

def run_outputs(rundir, model, dest):
    """Every file eval, drift and export write for the run at ``rundir``."""
    dest.mkdir()
    assert run(["eval", "--run", rundir, "--split", "valid", "--out", dest / "eval.txt"]) == 0
    assert run(["drift", "--run", rundir, "--out", dest]) == 0
    for role in ("word", "context") + (("var",) if model == "dsg" else ()):
        assert run(["export", "--run", rundir, "--slice", "1", "--role", role,
                    "--out", dest / f"{role}.vec"]) == 0
    return {p.name: p.read_bytes() for p in sorted(dest.iterdir())}


def edit_manifest(rundir, edit):
    manifest = json.loads((rundir / "run.json").read_text())
    edit(manifest)
    (rundir / "run.json").write_text(json.dumps(manifest))


def no_text_parse(path):
    raise AssertionError(f"{path} was parsed as text")


@pytest.mark.parametrize("model", ["isg", "dsg", "dbe"])
def test_checkpoint_twins_are_pinned(trained_runs, model):
    rundir = trained_runs[model]
    pins = read_manifest(rundir)["checkpoints"]
    vecs = sorted(p for p in (rundir / model).iterdir() if p.suffix == ".vec")
    assert sorted(pins) == [f"{model}/{p.name}" for p in vecs]
    for vec in vecs:
        words, matrix = load_embedding_text(vec)
        twin = np.load(vec.with_suffix(".npy"), allow_pickle=False)
        assert twin.dtype == np.float64 and np.array_equal(twin, matrix)
        assert pins[f"{model}/{vec.name}"] == {"sha256": content_hash(vec),
                                               "npy_sha256": content_hash(vec.with_suffix(".npy"))}


@pytest.mark.parametrize("model", ["isg", "dsg", "dbe"])
def test_outputs_do_not_depend_on_twins(trained_runs, tmp_path, monkeypatch, model):
    with monkeypatch.context() as patch:
        # intact pinned twins: no checkpoint is parsed as text
        patch.setattr(runs, "load_embedding_text", no_text_parse)
        expected = run_outputs(trained_runs[model], model, tmp_path / "twins")
    no_twins = tmp_path / "no_twins"
    shutil.copytree(trained_runs[model], no_twins)
    for twin in (no_twins / model).glob("*.npy"):
        twin.unlink()
    no_pins = tmp_path / "no_pins"
    shutil.copytree(trained_runs[model], no_pins)
    edit_manifest(no_pins, lambda m: m.pop("checkpoints"))
    assert run_outputs(no_twins, model, tmp_path / "out_no_twins") == expected
    assert run_outputs(no_pins, model, tmp_path / "out_no_pins") == expected


def flip_last_byte(twin, pins):
    data = bytearray(twin.read_bytes())
    data[-1] ^= 1
    twin.write_bytes(bytes(data))


def truncate(twin, pins):
    twin.write_bytes(twin.read_bytes()[:-8])


def drop_last_row(twin, pins):
    # a twin of another shape whose pin matches it
    np.save(twin, np.load(twin)[:-1])
    pins[f"{twin.parent.name}/{twin.stem}.vec"]["npy_sha256"] = content_hash(twin)


@pytest.mark.parametrize("damage", [flip_last_byte, truncate, drop_last_row])
@pytest.mark.parametrize("model", ["isg", "dsg", "dbe"])
def test_damaged_twin_falls_back_to_text(trained_runs, tmp_path, model, damage):
    expected = run_outputs(trained_runs[model], model, tmp_path / "intact")
    rundir = tmp_path / "run"
    shutil.copytree(trained_runs[model], rundir)
    pins = read_manifest(rundir)["checkpoints"]
    for twin in (rundir / model).glob("*.npy"):
        damage(twin, pins)
    edit_manifest(rundir, lambda m: m.update(checkpoints=pins))
    assert run_outputs(rundir, model, tmp_path / "damaged") == expected


@pytest.mark.parametrize("model", ["isg", "dsg", "dbe"])
def test_pinned_vec_edited_after_training_is_data_error(trained_runs, tmp_path, capsys, model):
    rundir = tmp_path / "run"
    shutil.copytree(trained_runs[model], rundir)
    vec = runs.checkpoint_path(rundir, model, "word", 1)
    words, matrix = load_embedding_text(vec)
    save_embedding_text(vec, words, matrix * 1.5 + 0.25 * (matrix < 0.3))
    out = tmp_path / "out"
    for command in (["eval"], ["drift", "--out", out],
                    ["export", "--slice", "1", "--out", out / "t1.vec"]):
        assert run([command[0], "--run", rundir, *command[1:]]) == 2
        assert capsys.readouterr().err == (f"data error: {vec}: changed since training; "
                                           f"its sha256 is not the one run.json pins\n")
    assert not out.exists()
    # a run without the checkpoints block still reads the edited text
    edit_manifest(rundir, lambda m: m.pop("checkpoints"))
    outputs = run_outputs(rundir, model, out)
    assert outputs["word.vec"] == vec.read_bytes()


@pytest.mark.parametrize("model", ["isg", "dsg", "dbe"])
def test_twin_path_checks_finiteness(trained_runs, tmp_path, capsys, model):
    rundir = tmp_path / "run"
    shutil.copytree(trained_runs[model], rundir)
    vec = runs.checkpoint_path(rundir, model, "word", 1)
    words, matrix = load_embedding_text(vec)
    matrix[4, 2] = np.nan
    save_embedding_text(vec, words, matrix)
    np.save(vec.with_suffix(".npy"), matrix)
    edit_manifest(rundir, lambda m: m["checkpoints"][f"{model}/{vec.name}"].update(
        sha256=content_hash(vec), npy_sha256=content_hash(vec.with_suffix(".npy"))))
    message = f"data error: {vec}:6: non-finite value in the row of {words[4]!r}"
    for command in ("eval", "drift"):
        assert run([command, "--run", rundir]) == 2
        assert message in capsys.readouterr().err
    vec.with_suffix(".npy").unlink()
    assert run(["eval", "--run", rundir]) == 2
    assert message in capsys.readouterr().err


def test_killed_retrain_leaves_no_manifest(pipeline, tmp_path, monkeypatch, capsys):
    rundir = tmp_path / "run"
    assert run(train_args(pipeline, rundir)) == 0
    calls = []
    save = runs.save_embedding_text

    def dies_on_third_call(*args):
        calls.append(args)
        if len(calls) == 3:
            raise OSError("killed")
        return save(*args)

    monkeypatch.setattr(runs, "save_embedding_text", dies_on_third_call)
    assert run(train_args(pipeline, rundir, extra=["--seed", "4"])) == 2
    capsys.readouterr()
    for command in ("eval", "drift", "export"):
        extra = ["--out", tmp_path / "t0.vec"] if command == "export" else []
        assert run([command, "--run", rundir, *extra]) == 2
        assert f"no run manifest at {rundir / 'run.json'}" in capsys.readouterr().err


def run_files(rundir):
    return {str(p.relative_to(rundir)): p.read_bytes()
            for p in sorted(Path(rundir).rglob("*")) if p.is_file()}


@pytest.mark.parametrize("model", ["isg", "dsg", "dbe"])
def test_library_and_cli_write_the_same_checkpoints(pipeline, tmp_path, model):
    # the settings of train_args
    vocab = load_vocabulary(pipeline / "vocab.tsv")
    corpus = load_corpus(pipeline / "data.train.json", vocab.size)
    cfg = TrainConfig(dim=4, epochs=2, batch_size=256, window=2, seed=3)
    init = init_random(vocab.size, cfg.dim, cfg.seed, model)
    if model == "isg":
        result = train_incremental(corpus, vocab, init, cfg)
    elif model == "dsg":
        result = train_dsg(corpus, vocab, init, DsgParams(), cfg)
    else:
        result = train_dbe(corpus, vocab, init, DbeParams(), cfg)
    runs.save_checkpoints(tmp_path / "lib", model, vocab.words, result.matrices)
    assert run(train_args(pipeline, tmp_path / "cli", model=model)) == 0
    command = run_files(tmp_path / "cli" / model)
    assert run_files(tmp_path / "lib" / model) == {
        name: data for name, data in command.items() if name.endswith((".vec", ".npy"))}


@pytest.mark.parametrize("model", ["isg", "dsg", "dbe"])
def test_lane_count_does_not_change_outputs(pipeline, tmp_path, monkeypatch, model):
    fork_start = multiprocessing.context.ForkProcess.start
    started = []

    def counted_start(process):
        started.append(process)
        fork_start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counted_start)
    rundir = tmp_path / "run"
    outputs = {}
    for cores in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
        started.clear()
        shutil.rmtree(rundir, ignore_errors=True)
        assert run(train_args(pipeline, rundir, model=model)) == 0
        assert len(started) == cores - 1
        assert all(p.exitcode == 0 for p in started)
        outputs[cores] = run_files(rundir)
    assert "run.json" in outputs[1] and not any(name.endswith(".tmp") for name in outputs[1])
    assert outputs[2] == outputs[1]


def test_writer_starts_a_child_per_lane_beyond_the_first(tmp_path, monkeypatch):
    fork_start = multiprocessing.context.ForkProcess.start
    started = []
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        lambda process: (started.append(process), fork_start(process)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for count in (1, 2, 3, 6):
        started.clear()
        files = [runs.TextFile(tmp_path / f"{count}.{i}.txt", i,
                               lambda tmp, i=i: Path(tmp).write_text(f"file {i}\n"))
                 for i in range(count)]
        runs.write_text_files(files)
        assert len(started) == min(4, count) - 1
        assert [f.path.read_text() for f in files] == [f"file {i}\n" for i in range(count)]
    assert sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".tmp") == []


def train_in_child_python(pipeline, rundir, prelude, model="isg"):
    """``train`` in a fresh interpreter after ``prelude``; its real stderr."""
    src = Path(runs.__file__).resolve().parents[1]
    code = f"{prelude}\nimport sys\nfrom driftvec.cli import main\nsys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, train_args(pipeline, rundir, model=model))],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})


TWO_CORES = "import os\nos.sched_getaffinity = lambda pid: {0, 1}\n"


@pytest.mark.parametrize("lane", [0, 1])
def test_lane_that_cannot_write_exits_2(pipeline, tmp_path, lane):
    # two lanes of equal files alternate: t0.vec is lane 0's, t0.ctx.vec lane 1's
    rundir = tmp_path / "run"
    blocked = rundir / "isg" / ("t0.vec", "t0.ctx.vec")[lane]
    blocked.mkdir(parents=True)
    result = train_in_child_python(pipeline, rundir, TWO_CORES)
    assert result.returncode == 2
    assert result.stderr.startswith(f"data error: cannot write {blocked}: ")
    assert "Traceback" not in result.stderr
    assert not (rundir / "run.json").exists()


def test_lane_whose_child_dies_exits_2(pipeline, tmp_path):
    rundir = tmp_path / "run"
    prelude = TWO_CORES + (
        "from driftvec import runs\n"
        "parent, save = os.getpid(), runs.save_embedding_text\n"
        "def save_or_die(*args):\n"
        "    if os.getpid() != parent:\n"
        "        os._exit(9)\n"
        "    return save(*args)\n"
        "runs.save_embedding_text = save_or_die\n")
    result = train_in_child_python(pipeline, rundir, prelude, model="dbe")
    assert result.returncode == 2
    assert result.stderr.startswith("data error: writer lane 1 of 2 exited with code 9 "
                                    "while writing one of ")
    assert str(rundir / "dbe" / "adam_u1.txt") in result.stderr
    assert "Traceback" not in result.stderr
    assert not (rundir / "run.json").exists()


KILL_MIDWAY = (
    "import os, signal\n"
    "calls = []\n"
    "def write_half_then_die(path, text):\n"
    "    calls.append(path)\n"
    "    if len(calls) == {nth}:\n"
    "        with open(path, 'w') as fh:\n"
    "            fh.write(text[:len(text) // 2])\n"
    "        os.kill(os.getpid(), signal.SIGKILL)\n")


@pytest.mark.parametrize("target", ["checkpoint", "manifest"])
def test_write_killed_midway_leaves_no_partial_file(pipeline, tmp_path, target):
    rundir = tmp_path / "run"
    prelude = "import os\nos.sched_getaffinity = lambda pid: {0}\n"
    if target == "checkpoint":
        # the third checkpoint dies half written
        prelude += KILL_MIDWAY.format(nth=3) + (
            "from driftvec import runs\n"
            "save = runs.save_embedding_text\n"
            "def save_or_die(path, words, matrix):\n"
            "    save(path, words, matrix)\n"
            "    with open(path) as fh:\n"
            "        write_half_then_die(path, fh.read())\n"
            "runs.save_embedding_text = save_or_die\n")
    else:
        prelude += KILL_MIDWAY.format(nth=1) + (
            "import json\n"
            "json.dump = lambda payload, fh, **kw: write_half_then_die(\n"
            "    fh.name, json.dumps(payload, **kw))\n")
    result = train_in_child_python(pipeline, rundir, prelude)
    assert result.returncode == -signal.SIGKILL
    partial = [p for p in rundir.rglob("*.tmp")]
    assert len(partial) == 1 and partial[0].stat().st_size > 0
    assert not partial[0].with_suffix("").exists()
    assert not (rundir / "run.json").exists()
    for vec in (rundir / "isg").glob("*.vec"):
        words, matrix = load_embedding_text(vec)
        assert np.array_equal(np.load(vec.with_suffix(".npy")), matrix)


def test_eval_of_a_split_without_pairs_exits_2(pipeline, tmp_path, capsys):
    # every document of the test split is one token long, so no slice has a pair
    data = tmp_path / "data"
    shutil.copytree(pipeline, data, ignore=shutil.ignore_patterns("corpus"))
    test = data / "data.test.json"
    one_token = tuple((np.array([t], dtype=np.int64),) for t in range(3))
    save_corpus(TimeSlicedCorpus(slices=one_token, split_tag="test"), test)
    rundir = tmp_path / "run"
    assert run(train_args(data, rundir)) == 0
    capsys.readouterr()
    assert run(["eval", "--run", rundir, "--split", "test"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {test}: no slice has held-out pairs\n"


def test_eval_rejects_a_split_changed_after_training(pipeline, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(pipeline, data, ignore=shutil.ignore_patterns("corpus"))
    rundir = tmp_path / "run"
    assert run(train_args(data, rundir)) == 0
    assert run(["eval", "--run", rundir, "--split", "valid"]) == 0
    valid = data / "data.valid.json"
    assert run(["subsample", "--corpus", valid, "--fraction", "0.5", "--seed", "0",
                "--out", valid]) == 0
    capsys.readouterr()
    assert run(["eval", "--run", rundir, "--split", "valid"]) == 2
    assert capsys.readouterr().err == (
        f"data error: {valid}: changed since training; its sha256 is not the one "
        "run.json records for the valid split\n")
    assert run(["eval", "--run", rundir, "--split", "test"]) == 0
