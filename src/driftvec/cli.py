"""Command-line front end.

Subcommands: build-vocab, slice, subsample, synth, train, eval, drift,
export. Run configuration comes from an INI-style file (documented
key=value sections) with command-line flags taking precedence.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

import argparse
import configparser
import sys
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime
from pathlib import Path

from . import analysis, inits, runs, synth as synth_mod
from . import corpus as corpus_mod
from . import dbe as dbe_mod
from . import dsg as dsg_mod
from . import isg as isg_mod
from .adam import save_adam_state
from .corpus import load_corpus, load_vocabulary, parse_timestamp, save_corpus, save_vocabulary
from .errors import DataError, DriftvecError, NumericalError
from .sgns import TrainConfig, load_embedding_text, save_embedding_text
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
    of ISO-8601 timestamps / bare years."""
    if ":" in text:
        first, last = text.split(":", 1)
        return [datetime(y, 1, 1) for y in range(int(first), int(last) + 1)]
    return [parse_timestamp(part) for part in text.split(",")]


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
    subset_fraction: float = 1.0
    train: TrainConfig = None
    scheme: inits.InitScheme = None
    dsg_params: dsg_mod.DsgParams = None
    dbe_params: dbe_mod.DbeParams = None
    reg: RegConfig = None

    def validate(self):
        if self.model not in inits.MODEL_KINDS:
            raise ValueError(f"unknown model {self.model!r}")
        if not self.vocab:
            raise ValueError("a vocabulary file is required (--vocab or [data] vocab)")
        if not self.train_path:
            raise ValueError("a training corpus is required (--train or [data] train)")
        if not 0 < self.subset_fraction <= 1:
            raise ValueError("subset fraction must lie in (0, 1]")


def _read_ini(path):
    parser = configparser.ConfigParser()
    if not Path(path).exists():
        raise DataError(f"config file not found: {path}")
    parser.read(path, encoding="utf-8")
    return parser


def resolve_run_config(args) -> RunConfig:
    """Merge config-file values and flag overrides (flags win)."""
    ini = _read_ini(args.config) if args.config else configparser.ConfigParser()

    def get(section, key, fallback=None):
        return ini.get(section, key, fallback=fallback) if ini.has_section(section) else fallback

    def pick(flag_value, section, key, cast, fallback):
        if flag_value is not None:
            return flag_value
        raw = get(section, key)
        return cast(raw) if raw is not None else fallback

    model = pick(args.model, "run", "model", str, "isg")
    out = pick(args.out, "run", "out", str, "run")
    vocab = pick(args.vocab, "data", "vocab", str, "")
    train_path = pick(args.train, "data", "train", str, "")
    valid_path = pick(args.valid, "data", "valid", str, "")
    test_path = pick(args.test, "data", "test", str, "")
    subset = pick(args.subset, "data", "subset_fraction", float, 1.0)

    tc = TrainConfig(
        dim=pick(args.dim, "train", "dim", int, 100),
        window=pick(args.window, "train", "window", int, 4),
        negative_ratio=pick(args.negative_ratio, "train", "negative_ratio", int, 1),
        learning_rate=pick(args.learning_rate, "train", "learning_rate", float, 0.1),
        epochs=pick(args.epochs, "train", "epochs", int, 100),
        batch_size=pick(args.batch_size, "train", "batch_size", int, 1024),
        seed=pick(args.seed, "train", "seed", int, 0),
    )

    scheme_kind = pick(args.init, "init", "scheme", str, inits.RANDOM)
    scheme_kind = scheme_kind.replace("-", "_")
    scheme = inits.InitScheme(
        kind=scheme_kind,
        pretrained_path=pick(args.pretrained, "init", "pretrained", str, None) or None,
        fixed_variance=pick(None, "init", "fixed_variance", float, 0.1),
    )

    dsg_params = dsg_mod.DsgParams(
        diffusion_var=pick(args.diffusion, "dsg", "diffusion", float, 1.0),
        anchor_var=pick(args.anchor, "dsg", "anchor", float, 0.1),
        samples_per_step=pick(args.samples, "dsg", "samples", int, 1),
        entropy_mode=pick(args.entropy, "dsg", "entropy", str, dsg_mod.ENTROPY_SUM_VAR),
    )
    dbe_params = dbe_mod.DbeParams(
        drift_precision=pick(args.drift_precision, "dbe", "drift_precision", float, 1.0),
        base_precision=pick(args.base_precision, "dbe", "base_precision", float, 0.01),
    )

    alpha = pick(args.reg_alpha, "reg", "alpha", float, 0.0)
    beta_raw = pick(args.reg_beta, "reg", "beta", str, "mean")
    beta = beta_raw if beta_raw == "mean" else float(beta_raw)
    reg = RegConfig(alpha=alpha, beta=beta, enabled=alpha > 0)

    cfg = RunConfig(model=model, out=out, vocab=vocab, train_path=train_path,
                    valid_path=valid_path, test_path=test_path,
                    subset_fraction=subset, train=tc, scheme=scheme,
                    dsg_params=dsg_params, dbe_params=dbe_params, reg=reg)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_build_vocab(args) -> int:
    docs = corpus_mod.load_documents(args.manifest)
    stopwords = corpus_mod.read_stopwords(args.stopwords) if args.stopwords else set()
    boundaries = parse_boundaries(args.boundaries)
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
    docs = corpus_mod.load_documents(args.manifest)
    vocab = load_vocabulary(args.vocab)
    boundaries = parse_boundaries(args.boundaries)
    corpus, report = corpus_mod.slice_corpus(docs, boundaries, vocab)
    print(f"{corpus.T} slices, {report.kept} documents kept, "
          f"{report.dropped} dropped, {report.oov_tokens} OOV tokens removed")
    if report.empty_slices:
        print(f"warning: empty slices {list(report.empty_slices)}")
    if args.holdout > 0:
        train, valid, test = corpus_mod.split_holdout(corpus, args.holdout, args.seed)
        for part in (train, valid, test):
            path = f"{args.out_prefix}.{part.split_tag}.json"
            save_corpus(part, path)
            print(f"wrote {path} ({sum(part.doc_counts())} docs)")
    else:
        path = f"{args.out_prefix}.full.json"
        save_corpus(corpus, path)
        print(f"wrote {path} ({sum(corpus.doc_counts())} docs)")
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


def _train_config_record(cfg: RunConfig) -> dict:
    record = {
        "model": cfg.model,
        "out": cfg.out,
        "data": {"vocab": cfg.vocab, "train": cfg.train_path,
                 "valid": cfg.valid_path, "test": cfg.test_path,
                 "subset_fraction": cfg.subset_fraction},
        "train": asdict(cfg.train),
        "init": {"scheme": cfg.scheme.kind,
                 "pretrained": cfg.scheme.pretrained_path,
                 "fixed_variance": cfg.scheme.fixed_variance},
        "reg": {"alpha": cfg.reg.alpha,
                "beta": cfg.reg.beta if isinstance(cfg.reg.beta, str) else float(cfg.reg.beta),
                "enabled": cfg.reg.enabled},
    }
    if cfg.model == "dsg":
        record["dsg"] = asdict(cfg.dsg_params)
    if cfg.model == "dbe":
        record["dbe"] = asdict(cfg.dbe_params)
    return record


def cmd_train(args) -> int:
    cfg = resolve_run_config(args)
    vocab = load_vocabulary(cfg.vocab)
    train_corpus = load_corpus(cfg.train_path, vocab.size)
    if cfg.subset_fraction < 1:
        train_corpus = corpus_mod.subsample_corpus(
            train_corpus, cfg.subset_fraction, cfg.train.seed)
    valid_corpus = load_corpus(cfg.valid_path, vocab.size) if cfg.valid_path else None
    if valid_corpus is not None and valid_corpus.T != train_corpus.T:
        raise DataError(f"{cfg.valid_path}: {valid_corpus.T} slices, but the "
                        f"training corpus has {train_corpus.T}")

    model_params = cfg.dsg_params if cfg.model == "dsg" else (
        cfg.dbe_params if cfg.model == "dbe" else None)
    init, direction = inits.apply_scheme(cfg.scheme, cfg.model, train_corpus,
                                         vocab, cfg.train, model_params)

    rundir = Path(cfg.out)
    rundir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "model": cfg.model,
        "direction": direction,
        "T": train_corpus.T,
        "config": _train_config_record(cfg),
        "inputs": {},
    }
    for label, path in (("vocab", cfg.vocab), ("train", cfg.train_path),
                        ("valid", cfg.valid_path), ("test", cfg.test_path),
                        ("pretrained", cfg.scheme.pretrained_path)):
        if path:
            manifest["inputs"][label] = {"path": str(path),
                                         "sha256": runs.content_hash(path)}

    reg = cfg.reg if cfg.reg.enabled else None
    if cfg.model == "isg":
        model, traces, order = isg_mod.train_incremental(
            train_corpus, vocab, init[0], init[1], cfg.train,
            direction=direction, eval_corpus=valid_corpus)
        runs.save_isg_checkpoints(rundir, vocab.words, model)
        manifest["trained_order"] = order
        manifest["traces"] = {str(t): tr for t, tr in traces.items()}
    elif cfg.model == "dsg":
        posteriors, traces, order = dsg_mod.train_dsg(
            train_corpus, vocab, init, cfg.dsg_params, cfg.train,
            direction=direction, reg=reg, eval_corpus=valid_corpus)
        runs.save_dsg_checkpoints(rundir, vocab.words, posteriors)
        manifest["trained_order"] = order
        manifest["traces"] = {str(t): tr for t, tr in traces.items()}
    else:
        model, info = dbe_mod.train_dbe(
            train_corpus, vocab, init, cfg.dbe_params, cfg.train,
            reg=reg, eval_corpus=valid_corpus)
        runs.save_dbe_checkpoints(rundir, vocab.words, model)
        adam = info.pop("adam")
        for t, state in enumerate(adam["U"]):
            save_adam_state(state, rundir / "dbe" / f"adam_u{t}.txt")
        save_adam_state(adam["V"], rundir / "dbe" / "adam_ctx.txt")
        manifest["trained_order"] = list(range(train_corpus.T))
        manifest["traces"] = {str(t): tr for t, tr in info["per_slice"].items()}
        manifest["prior_trace"] = info["prior"]
        if "reg_beta" in info:
            manifest["reg_beta"] = info["reg_beta"]

    runs.write_manifest(rundir, manifest)
    print(f"trained {cfg.model} ({direction}) over {train_corpus.T} slices -> {rundir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    manifest = runs.read_manifest(args.run)
    kind = manifest["model"]
    split_entry = manifest["inputs"].get(args.split)
    if not split_entry:
        raise DataError(f"run manifest records no {args.split!r} corpus")
    window = manifest["config"]["train"]["window"]
    word_mats, ctx_mats = runs.load_slice_matrices(args.run, kind, manifest["T"])
    corpus = load_corpus(split_entry["path"], word_mats[0].shape[0])
    if corpus.T != manifest["T"]:
        raise DataError(f"{split_entry['path']}: {corpus.T} slices, but the run "
                        f"has {manifest['T']}")
    per_slice, mean = analysis.evaluate_lpos(corpus, word_mats, ctx_mats, window)
    report = analysis.format_lpos_report(per_slice, mean)
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    return EXIT_OK


def cmd_drift(args) -> int:
    manifest = runs.read_manifest(args.run)
    kind = manifest["model"]
    T = manifest["T"]
    if T < 2:
        raise DataError(f"{args.run}: drift needs at least two slices, the run has {T}")
    words, word_mats = runs.load_word_matrices(args.run, kind, T)
    series = analysis.drift_series(word_mats, args.t0, kind)
    outdir = Path(args.out or args.run)
    outdir.mkdir(parents=True, exist_ok=True)
    analysis.write_drift_csv(series, words, outdir / "drift.csv")
    hist = analysis.drift_histogram(series, args.bins)
    analysis.write_histogram_csv(hist, outdir / "histogram.csv")
    lines = []
    if len(series.target_slices) >= 2:
        lines.append(f"directedness\t{analysis.directedness(series):.4f}")
    last = series.target_slices[-1]
    stability = analysis.stability_fraction(series, last, args.stability_threshold)
    lines.append(f"stability_fraction(t={last}, "
                 f"threshold={args.stability_threshold})\t{stability:.4f}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    (outdir / "drift_report.txt").write_text(report, encoding="utf-8")
    return EXIT_OK


def cmd_export(args) -> int:
    manifest = runs.read_manifest(args.run)
    kind = manifest["model"]
    src = runs.checkpoint_path(args.run, kind, args.role, args.slice)
    if not src.exists():
        raise DataError(f"missing checkpoint {src}")
    words, matrix = load_embedding_text(src)
    save_embedding_text(args.out, words, matrix)
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
    p.add_argument("--model", choices=inits.MODEL_KINDS, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--vocab", default=None)
    p.add_argument("--train", default=None)
    p.add_argument("--valid", default=None)
    p.add_argument("--test", default=None)
    p.add_argument("--subset", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--negative-ratio", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--init", default=None,
                   choices=["random", "internal", "backward_external", "backward-external"])
    p.add_argument("--pretrained", default=None)
    p.add_argument("--diffusion", type=float, default=None)
    p.add_argument("--anchor", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--entropy", choices=["sum_var", "exact"], default=None)
    p.add_argument("--drift-precision", type=float, default=None)
    p.add_argument("--base-precision", type=float, default=None)
    p.add_argument("--reg-alpha", type=float, default=None)
    p.add_argument("--reg-beta", default=None, help="threshold value or 'mean'")
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
                   choices=["word", "context", "mean", "var"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
