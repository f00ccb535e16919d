import configparser
import json
import re
from pathlib import Path

import numpy as np
import pytest

from driftvec.cli import TRAIN_SETTINGS, main, parse_boundaries
from driftvec.runs import read_manifest
from driftvec.sgns import load_embedding_text


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


def test_build_vocab_warns_when_max_size_exceeds_distinct(pipeline, tmp_path):
    with pytest.warns(UserWarning, match="exceeds"):
        code = run(["build-vocab",
                    "--manifest", pipeline / "corpus" / "manifest.tsv",
                    "--boundaries", "2000:2003", "--max-size", "50000",
                    "--out", tmp_path / "v.tsv"])
    assert code == 0


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

    def test_dbe_run_with_regularizer_records_beta(self, pipeline, tmp_path):
        outdir = tmp_path / "run_dbe"
        assert run(train_args(pipeline, outdir, model="dbe",
                              extra=["--reg-alpha", "0.5", "--reg-beta", "mean"])) == 0
        manifest = read_manifest(outdir)
        assert manifest["config"]["reg"]["enabled"] is True
        assert len(manifest["reg_beta"]) == 2          # one row per epoch
        assert len(manifest["reg_beta"][0]) == 3       # one beta per slice
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

    def test_non_finite_vector_entry(self, pipeline, tmp_path, capsys):
        pre = tmp_path / "pre.vec"
        pre.write_text("2 4\nw0000 0.1 0.2 0.3 0.4\nw0001 nan 0.2 inf 0.4\n")
        assert run(train_args(pipeline, tmp_path / "run", model="dsg",
                              extra=["--init", "backward-external",
                                     "--pretrained", pre])) == 2
        err = capsys.readouterr().err
        assert "pre.vec:3: non-finite value in the row of 'w0001'" in err


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
    assert config["model"] == "dbe"
    assert config["init"] == {"scheme": "random", "pretrained": None, "fixed_variance": 0.1}
    assert config["reg"] == {"alpha": 0.0, "beta": "mean", "enabled": False}
    assert config["data"]["test"] == str(pipeline / "data.test.json")


@pytest.mark.parametrize("text, message", [
    ("dim = 4\n[train]\nepochs = 1\n", "bad.ini:1: key before any [section] header"),
    ("[train]\ndim = 4\nepochs = 1\ndim = 5\n", "bad.ini:4: key 'dim' given twice in [train]"),
    ("[train]\nlearning_rat = 5\n", "bad.ini: unknown key 'learning_rat' in [train]"),
    ("[train]\ndim = 4\n[bogus]\nx = 1\n", "bad.ini: unknown section [bogus]"),
    ("[DEFAULT]\nseed = 1\n[train]\ndim = 4\n", "bad.ini: unknown section [DEFAULT]"),
    ("[train]\ndim = abc\n", "bad.ini: [train] dim = 'abc': invalid literal for int()"),
    ("[train]\ndim = 0\n", "bad.ini: [train] dim = '0': dim must be >= 1"),
    ("[run]\nmodel = foo\n", "bad.ini: [run] model = 'foo': unknown model 'foo'"),
    ("[init]\nscheme = bogus\n", "bad.ini: [init] scheme = 'bogus': unknown init scheme"),
    ("[init]\nscheme = backward_external\n",
     "bad.ini: [init] scheme = 'backward_external': backward_external requires pretrained_path"),
    ("[dsg]\ndiffusion = 0\nanchor = 0\n", "bad.ini: diffusion_var and anchor_var must be > 0"),
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


def test_readme_config_block_names_every_setting():
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    parser.read_string(readme_config_block())
    documented = {(section, key) for section in parser.sections() for key in parser[section]}
    assert documented == {(s.section, s.key) for s in TRAIN_SETTINGS}


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
    assert read_manifest(tmp_path / "runs" / "50%")["config"]["out"].endswith("50%")
