"""Command-line front end.

Subcommands: build-vocab, slice, subsample, synth, train, eval, drift,
export. Run configuration comes from an INI-style file (documented
key=value sections) with command-line flags taking precedence.

Exit codes: 0 success, 1 usage error (and running out of memory), 2 data
error, 3 numerical failure.
"""

import argparse
import configparser
import re
import sys
import warnings
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field, replace
from datetime import datetime
from functools import partial
from itertools import pairwise
from pathlib import Path

from . import analysis, inits, runs, synth as synth_mod
from . import corpus as corpus_mod
from . import dbe as dbe_mod
from . import dsg as dsg_mod
from .adam import save_adam_state
from .corpus import load_corpus, load_vocabulary, parse_timestamp, save_corpus, save_vocabulary
from .errors import DataError, DriftvecError, EmptyCorpusError, NumericalError, open_text
from .sgns import TrainConfig, save_embedding_text
from .sgns import load_embedding_text  # noqa: F401 -- bench/layers.py patches this name
from .shrinkreg import RegConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_boundaries(text: str):
    """Either 'YYYY:YYYY' (inclusive yearly boundaries) or a comma list
    of ISO-8601 timestamps / bare years. Anything else, or fewer than two
    increasing boundaries, is a usage error naming the flag."""
    try:
        if re.fullmatch(r"\d{4}:\d{4}", text.strip()):
            first, last = (int(year) for year in text.split(":"))
            if first >= last:
                raise ValueError(f"{first} is not before {last}")
            return [datetime(y, 1, 1) for y in range(first, last + 1)]
        boundaries = [parse_timestamp(part) for part in text.split(",")]
        if len(boundaries) < 2:
            raise ValueError("need at least two slice boundaries")
        if not all(a < b for a, b in pairwise(boundaries)):
            raise ValueError("slice boundaries must be strictly increasing")
        return boundaries
    except (ValueError, DataError) as exc:
        raise ValueError(f"--boundaries {text!r}: {exc}; give YYYY:YYYY or a comma "
                         f"list of two or more increasing timestamps") from exc


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    model: str = "isg"
    out: str = "run"
    vocab: str = ""
    train_path: str = ""
    valid_path: str = ""
    test_path: str = ""
    train: TrainConfig = field(default_factory=TrainConfig)
    scheme: inits.InitScheme = field(default_factory=inits.InitScheme)
    dsg_params: dsg_mod.DsgParams = field(default_factory=dsg_mod.DsgParams)
    dbe_params: dbe_mod.DbeParams = field(default_factory=dbe_mod.DbeParams)
    reg: RegConfig = field(default_factory=RegConfig)

    def __post_init__(self):
        if self.model not in inits.MODEL_KINDS:
            raise ValueError(f"unknown model {self.model!r}")

    def validate(self):
        if not self.vocab:
            raise ValueError("a vocabulary file is required (--vocab or [data] vocab)")
        if not self.train_path:
            raise ValueError("a training corpus is required (--train or [data] train)")


def _beta(text):
    """A reg threshold: a number, or the sentinel 'mean'."""
    return text if text == "mean" else float(text)


# One row per train setting: its INI section and key, its flag, the parser
# of its text, and the RunConfig part (None: RunConfig itself) and field it
# fills. Defaults live on the dataclasses alone.
Setting = namedtuple("Setting", "section key flag parse part field choices help",
                     defaults=(None, None))
TRAIN_SETTINGS = (
    Setting("run", "model", "--model", str, None, "model", choices=inits.MODEL_KINDS),
    Setting("run", "out", "--out", str, None, "out"),
    Setting("data", "vocab", "--vocab", str, None, "vocab"),
    Setting("data", "train", "--train", str, None, "train_path"),
    Setting("data", "valid", "--valid", str, None, "valid_path"),
    Setting("data", "test", "--test", str, None, "test_path"),
    Setting("train", "dim", "--dim", int, "train", "dim"),
    Setting("train", "window", "--window", int, "train", "window"),
    Setting("train", "negative_ratio", "--negative-ratio", int, "train", "negative_ratio"),
    Setting("train", "learning_rate", "--learning-rate", float, "train", "learning_rate"),
    Setting("train", "epochs", "--epochs", int, "train", "epochs"),
    Setting("train", "batch_size", "--batch-size", int, "train", "batch_size"),
    Setting("train", "seed", "--seed", int, "train", "seed"),
    Setting("init", "scheme", "--init", lambda text: text.replace("-", "_"), "scheme", "kind",
            choices=("random", "internal", "backward_external", "backward-external")),
    Setting("init", "pretrained", "--pretrained", lambda text: text or None,
            "scheme", "pretrained_path"),
    Setting("dsg", "diffusion", "--diffusion", float, "dsg_params", "diffusion_var"),
    Setting("dsg", "anchor", "--anchor", float, "dsg_params", "anchor_var"),
    Setting("dsg", "samples", "--samples", int, "dsg_params", "samples_per_step"),
    Setting("dsg", "entropy", "--entropy", str, "dsg_params", "entropy_mode",
            choices=(dsg_mod.ENTROPY_SUM_VAR, dsg_mod.ENTROPY_EXACT)),
    Setting("dbe", "drift_precision", "--drift-precision", float, "dbe_params", "drift_precision"),
    Setting("dbe", "base_precision", "--base-precision", float, "dbe_params", "base_precision"),
    Setting("reg", "alpha", "--reg-alpha", float, "reg", "alpha"),
    Setting("reg", "beta", "--reg-beta", _beta, "reg", "beta", help="threshold value or 'mean'"),
)


def _read_ini(path):
    """Parse a config file; ``;`` starts a comment, also after a value,
    and values are literal (no ``%`` interpolation). Every section and
    key must name a row of TRAIN_SETTINGS."""
    # No header can name the empty section, so a [DEFAULT] section is
    # read as an ordinary, unknown one instead of leaking into the others.
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None,
                                       default_section="")
    if not Path(path).exists():
        raise DataError(f"config file not found: {path}")
    try:
        with open_text(path) as fh:
            parser.read_file(fh)
    except configparser.MissingSectionHeaderError as exc:
        raise DataError(f"{path}:{exc.lineno}: key before any [section] header") from exc
    except configparser.ParsingError as exc:
        raise DataError(f"{path}:{exc.errors[0][0]}: not a 'key = value' line") from exc
    except configparser.DuplicateSectionError as exc:
        raise DataError(f"{path}:{exc.lineno}: section [{exc.section}] given twice") from exc
    except configparser.DuplicateOptionError as exc:
        raise DataError(f"{path}:{exc.lineno}: key {exc.option!r} given twice "
                        f"in [{exc.section}]") from exc
    known = {(s.section, s.key) for s in TRAIN_SETTINGS}
    sections = {section for section, _ in known}
    for section in parser.sections():
        if section not in sections:
            raise DataError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in known:
                raise DataError(f"{path}: unknown key {key!r} in [{section}]")
    return parser


def _run_config(given) -> RunConfig:
    """The RunConfig holding ``{Setting: value}``; every dataclass check
    runs, and so do the checks that span parts."""
    parts = defaultdict(dict)
    for s, value in given.items():
        parts[s.part][s.field] = value
    cfg = RunConfig(**parts.pop(None, {}))
    for part, values in parts.items():
        setattr(cfg, part, replace(getattr(cfg, part), **values))
    if cfg.model == "isg" and cfg.reg.alpha > 0:
        raise ValueError("model isg does not read the drift penalty; reg alpha must be 0")
    return cfg


def resolve_run_config(args) -> RunConfig:
    """Merge config-file values and flag overrides (flags win). A setting
    given in neither keeps its dataclass default."""
    ini = _read_ini(args.config) if args.config else configparser.ConfigParser()
    given, from_file = {}, {}
    for s in TRAIN_SETTINGS:
        value = getattr(args, s.flag[2:].replace("-", "_"))
        if value is None and ini.has_option(s.section, s.key):
            raw = from_file[s] = ini.get(s.section, s.key)
            try:
                value = s.parse(raw)
            except ValueError as exc:
                raise DataError(f"{args.config}: [{s.section}] {s.key} = {raw!r}: {exc}") from exc
        if value is not None:
            given[s] = value
    try:
        cfg = _run_config(given)
    except ValueError as exc:
        # A file value is at fault when leaving it out clears or changes the
        # failure; failing that, the file is when leaving all of them out does.
        candidates = [({s}, f" [{s.section}] {s.key} = {raw!r}:") for s, raw in from_file.items()]
        for dropped, where in candidates + [(set(from_file), "")]:
            try:
                _run_config({k: v for k, v in given.items() if k not in dropped})
            except ValueError as other:
                if str(other) == str(exc):
                    continue
            raise DataError(f"{args.config}:{where} {exc}") from exc
        raise
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_build_vocab(args) -> int:
    boundaries = parse_boundaries(args.boundaries)
    docs = corpus_mod.load_documents(args.manifest)
    stopwords = corpus_mod.read_stopwords(args.stopwords) if args.stopwords else set()
    sliced, dropped = corpus_mod.assign_slices(docs, boundaries)
    distinct = len({tok for docs_t in sliced for d in docs_t for tok in d
                    if tok not in stopwords})
    vocab = corpus_mod.build_vocabulary(sliced, stopwords, args.max_size)
    if args.max_size > distinct:
        warnings.warn(f"max_size {args.max_size} exceeds the {distinct} distinct words")
    save_vocabulary(vocab, args.out)
    total = int(vocab.total_count.sum())
    print(f"vocabulary size {vocab.size} ({distinct} distinct words seen), "
          f"{total} in-vocabulary tokens, {dropped} documents outside the boundaries")
    return EXIT_OK


def cmd_slice(args) -> int:
    corpus_mod.check_seed(args.seed)
    if not (args.holdout == 0 or 0 < args.holdout < 1):
        raise ValueError(f"holdout fraction must be 0 (no split) or lie in (0, 1), "
                         f"not {args.holdout}")
    boundaries = parse_boundaries(args.boundaries)
    docs = corpus_mod.load_documents(args.manifest)
    vocab = load_vocabulary(args.vocab)
    corpus, report = corpus_mod.slice_corpus(docs, boundaries, vocab)
    # split first: a slice too small to hold out from prints no summary
    parts = (corpus_mod.split_holdout(corpus, args.holdout, args.seed) if args.holdout > 0
             else (corpus,))
    print(f"{corpus.T} slices, {report.kept} documents kept, "
          f"{report.dropped} dropped, {report.oov_tokens} OOV tokens removed")
    if report.empty_slices:
        warnings.warn(f"empty slices {list(report.empty_slices)}")
    for part in parts:
        path = f"{args.out_prefix}.{part.split_tag}.json"
        save_corpus(part, path)
        print(f"wrote {path} ({sum(part.doc_counts())} docs)")
    return EXIT_OK


def cmd_subsample(args) -> int:
    corpus = load_corpus(args.corpus)
    out = corpus_mod.subsample_corpus(corpus, args.fraction, args.seed)
    save_corpus(out, args.out)
    print(f"kept {sum(out.doc_counts())} of {sum(corpus.doc_counts())} documents")
    return EXIT_OK


def _parse_change(text: str) -> synth_mod.PlantedChange:
    parts = text.split(":")
    if len(parts) != 5:
        raise ValueError("change spec must be word:change_slice:old_topic:new_topic:mode")
    return synth_mod.PlantedChange(word=parts[0], change_slice=int(parts[1]),
                                   old_topic=int(parts[2]), new_topic=int(parts[3]),
                                   mode=parts[4])


def cmd_synth(args) -> int:
    changes = [_parse_change(c) for c in (args.change or [])]
    spec = synth_mod.SynthSpec(
        vocab_size=args.vocab_size, T=args.slices,
        tokens_per_slice=args.tokens_per_slice, seed=args.seed,
        planted_changes=changes, doc_length=args.doc_length)
    result = synth_mod.generate(spec)
    synth_mod.write_synth_corpus(result, args.out)
    print(f"wrote synthetic corpus to {args.out}: T={result.corpus.T}, "
          f"vocabulary {result.vocab.size}, "
          f"tokens per slice {result.corpus.token_counts()}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = resolve_run_config(args)
    vocab = load_vocabulary(cfg.vocab)
    train_corpus = load_corpus(cfg.train_path, vocab.size)
    valid_corpus = load_corpus(cfg.valid_path, vocab.size) if cfg.valid_path else None
    if valid_corpus is not None and valid_corpus.T != train_corpus.T:
        raise DataError(f"{cfg.valid_path}: {valid_corpus.T} slices, but the "
                        f"training corpus has {train_corpus.T}")

    model_params = getattr(cfg, f"{cfg.model}_params", None)  # isg has none
    init, direction = inits.apply_scheme(cfg.scheme, cfg.model, train_corpus,
                                         vocab, cfg.train, model_params)

    rundir = Path(cfg.out)
    rundir.mkdir(parents=True, exist_ok=True)
    # The resolved settings table, [dsg] and [dbe] only for their own
    # model; written back as INI, it retrains the run.
    config = defaultdict(dict)
    for s in TRAIN_SETTINGS:
        if s.section not in inits.MODEL_KINDS or s.section == cfg.model:
            config[s.section][s.key] = getattr(getattr(cfg, s.part) if s.part else cfg, s.field)
    paths = {**config["data"], "pretrained": config["init"]["pretrained"]}
    manifest = {
        "model": cfg.model,
        "direction": direction,
        "T": train_corpus.T,
        "config": config,
        "inputs": {key: {"path": str(path), "sha256": runs.content_hash(path)}
                   for key, path in paths.items() if path},
    }

    result = inits.train_model(cfg.model, train_corpus, vocab, init, cfg.train, model_params,
                               cfg.reg, direction, valid_corpus)
    adam_files = [runs.TextFile(rundir / cfg.model / f"adam_{name}.txt", 2 * state.m.size,
                                partial(save_adam_state, state))
                  for name, state in result.adam.items()]
    manifest["checkpoints"] = runs.save_checkpoints(rundir, cfg.model, vocab.words,
                                                    result.matrices, adam_files)
    manifest["trained_order"] = result.order
    manifest["traces"] = {str(t): tr for t, tr in result.traces.items()}
    if result.prior_trace is not None:
        manifest["prior_trace"] = result.prior_trace

    runs.write_manifest(rundir, manifest)
    print(f"trained {cfg.model} ({direction}) over {train_corpus.T} slices -> {rundir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    manifest = runs.read_manifest(args.run)
    split_entry = manifest["inputs"].get(args.split)
    if not split_entry:
        raise DataError(f"run manifest records no {args.split!r} corpus")
    window = manifest["config"]["train"]["window"]
    words, mats = runs.load_slice_matrices(args.run, manifest)
    corpus = load_corpus(split_entry["path"], len(words))
    if split_entry.get("sha256") not in (None, runs.content_hash(split_entry["path"])):
        raise DataError(f"{split_entry['path']}: changed since training; its sha256 is not "
                        f"the one run.json records for the {args.split} split")
    if corpus.T != manifest["T"]:
        raise DataError(f"{split_entry['path']}: {corpus.T} slices, but the run "
                        f"has {manifest['T']}")
    try:
        per_slice, mean = analysis.evaluate_lpos(corpus, mats["word"], mats["context"], window)
    except EmptyCorpusError as exc:
        raise DataError(f"{split_entry['path']}: {exc}") from exc
    report = analysis.format_lpos_report(per_slice, mean)
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    return EXIT_OK


def cmd_drift(args) -> int:
    manifest = runs.read_manifest(args.run)
    T = manifest["T"]
    if T < 2:
        raise DataError(f"{args.run}: drift needs at least two slices, the run has {T}")
    if not 0 <= args.t0 < T:
        raise ValueError(f"reference slice {args.t0} out of range: the run has {T} slices")
    analysis.check_bins(args.bins)
    analysis.check_threshold_fraction(args.stability_threshold)
    words, mats = runs.load_slice_matrices(args.run, manifest, roles=("word",))
    # every check runs before the first file is written
    series = analysis.drift_series(mats["word"], args.t0)
    hist = analysis.drift_histogram(series, args.bins)
    lines = []
    if len(series.target_slices) >= 2:
        lines.append(f"directedness\t{analysis.directedness(series):.4f}")
    last = series.target_slices[-1]
    stability = analysis.stability_fraction(series, last, args.stability_threshold)
    lines.append(f"stability_fraction(t={last}, "
                 f"threshold={args.stability_threshold})\t{stability:.4f}")
    report = "\n".join(lines) + "\n"
    outdir = Path(args.out or args.run)
    outdir.mkdir(parents=True, exist_ok=True)
    analysis.write_drift_csv(series, words, outdir / "drift.csv")
    analysis.write_histogram_csv(hist, outdir / "histogram.csv")
    sys.stdout.write(report)
    (outdir / "drift_report.txt").write_text(report, encoding="utf-8")
    return EXIT_OK


def cmd_export(args) -> int:
    manifest = runs.read_manifest(args.run)
    src = runs.checkpoint_path(args.run, manifest["model"], args.role, args.slice)
    if not 0 <= args.slice < manifest["T"]:
        raise ValueError(f"slice {args.slice} out of range: the run has {manifest['T']} slices")
    words, mats = runs.load_slice_matrices(args.run, manifest, (args.role,), (args.slice,))
    save_embedding_text(args.out, words, mats[args.role][0])
    print(f"exported {src} -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="driftvec",
                     description="Diachronic word embeddings on scarce corpora")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a vocabulary from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--stopwords", default=None)
    p.add_argument("--boundaries", required=True,
                   help="'YYYY:YYYY' or comma-separated timestamps")
    p.add_argument("--max-size", type=int, default=10_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("slice", help="slice a corpus and split holdout sets")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--boundaries", required=True)
    p.add_argument("--holdout", type=float, default=0.1,
                   help="holdout fraction per slice (0 disables the split)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("subsample", help="keep a fraction of each slice")
    p.add_argument("--corpus", required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser("synth", help="generate a synthetic change corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-size", type=int, default=500)
    p.add_argument("--slices", type=int, default=5)
    p.add_argument("--tokens-per-slice", type=int, default=100_000)
    p.add_argument("--doc-length", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--change", action="append",
                   help="word:change_slice:old_topic:new_topic:mode (repeatable)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a diachronic model")
    p.add_argument("--config", default=None, help="INI run configuration")
    for s in TRAIN_SETTINGS:
        p.add_argument(s.flag, type=s.parse, choices=s.choices, help=s.help)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="held-out positive log-likelihood of a run")
    p.add_argument("--run", required=True)
    p.add_argument("--split", choices=["valid", "test"], default="valid")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("drift", help="drift CSVs, histograms and diagnostics")
    p.add_argument("--run", required=True)
    p.add_argument("--t0", type=int, default=0)
    p.add_argument("--bins", type=int, default=60)
    p.add_argument("--stability-threshold", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("export", help="export a checkpoint in the text format")
    p.add_argument("--run", required=True)
    p.add_argument("--slice", type=int, default=0)
    p.add_argument("--role", default="word",
                   choices=list(dict.fromkeys(role for _, role in runs.CHECKPOINT_FILES)))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a warning prints as one line, "warning: <message>", on stderr
    saved_format = warnings.formatwarning
    warnings.formatwarning = lambda message, *_, **__: f"warning: {message}\n"
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, DriftvecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        warnings.formatwarning = saved_format


if __name__ == "__main__":
    sys.exit(main())
