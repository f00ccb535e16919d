import configparser
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from driftvec import runs
from driftvec.cli import TRAIN_SETTINGS, main, parse_boundaries
from driftvec.runs import content_hash, read_manifest
from driftvec.sgns import load_embedding_text, save_embedding_text


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
        assert manifest["config"]["reg"] == {"alpha": 0.5, "beta": "mean"}
        # slice 0 is the reference; every later slice has one beta per epoch
        assert "reg_beta" not in manifest and "reg_beta" not in manifest["traces"]["0"]
        for t in ("1", "2"):
            assert len(manifest["traces"][t]["reg_beta"]) == 2
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
    ("[run]\nmodel = isg\n[reg]\nalpha = 5\n",
     "bad.ini: [reg] alpha = '5': model isg does not read the drift penalty"),
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
    rundir = tmp_path / "run"
    shutil.copytree(trained_runs[model], rundir)
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
    rundir = tmp_path / "run"
    shutil.copytree(trained_runs[model], rundir)
    damage(rundir / model / name)
    assert run(["eval", "--run", rundir]) == 2
    err = capsys.readouterr().err
    assert f"data error: {rundir / model / name}: {message}" in err
    assert str(rundir / model / first) in err


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
def test_vec_rewritten_after_training_is_what_eval_reads(trained_runs, tmp_path, model):
    # the .vec is hashed first, so a stale twin is never read
    expected = run_outputs(trained_runs[model], model, tmp_path / "original")
    edited, reference = tmp_path / "edited", tmp_path / "reference"
    shutil.copytree(trained_runs[model], edited)
    for vec in (edited / model).glob("*.vec"):
        words, matrix = load_embedding_text(vec)
        save_embedding_text(vec, words, matrix * 1.5 + 0.25 * (matrix < 0.3))
    shutil.copytree(edited, reference)
    for twin in (reference / model).glob("*.npy"):
        twin.unlink()
    outputs = run_outputs(edited, model, tmp_path / "out_edited")
    assert outputs == run_outputs(reference, model, tmp_path / "out_reference")
    for name in ("eval.txt", "drift.csv", "word.vec"):
        assert outputs[name] != expected[name], name


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
