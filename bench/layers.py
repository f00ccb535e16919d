"""Per-layer tracing of driftvec, done from outside the package.

:class:`LayerTracer` wraps driftvec functions at every name they are
looked up by (``from x import f`` binds a copy, so the defining module
alone would miss those calls), records a span per call and takes exact
work counts from the calls' arguments and results. Nothing under
``src/`` changes.

Metrics: every ``*_s`` name in :data:`TIMED` is summed self time (span
duration minus the part covered by child spans) and has a ``.calls``
count. ``other.self_s`` is the self time of traced spans inside the
session that no named metric claims, so the named self times plus
``other.self_s`` add up to ``trace.session_s`` up to
``trace.unaccounted_s`` (the harness's own time between calls).
``trace.overhead_s`` is traced minus untraced ``session_s`` on the same
inputs. ``adam.useful_row_frac`` is row updates that carry a likelihood
gradient divided by row updates applied, dense and sparse together.
"""

import os
from collections import defaultdict

from driftvec import analysis, cli, corpus, dbe, dsg, inits, isg, runs, sgns, shrinkreg, synth

from spans import Tracer, self_times
from workloads import MODELS

# Self-time metric -> span names it sums. Each also gets a ".calls" count.
TIMED = (
    ("corpus.extract_pairs_s", ("corpus.extract_pairs",)),
    ("corpus.sample_negatives_s", ("corpus.sample_negatives",)),
    ("corpus.load_corpus_s", ("corpus.load_corpus",)),
    ("sgns.batch_grad_rows_s", ("sgns.batch_grad_rows",)),
    ("sgns.scatter_rows_s", ("sgns.scatter_rows",)),
    ("sgns.save_text_s", ("sgns.save_embedding_text",)),
    ("sgns.load_text_s", ("sgns.load_embedding_text",)),
    ("adam.dense_s", ("adam.adam_step",)),
    ("adam.rows_s", ("adam.adam_step_rows",)),
    ("adam.save_state_s", ("adam.save_adam_state",)),
    ("isg.train_slice_s", ("isg.train_slice",)),
    ("dsg.filter_step_s", ("dsg.dsg_filter_step",)),
    ("dsg.likelihood_grads_s", ("dsg.sampled_likelihood_grads",)),
    ("dsg.prior_entropy_grads_s", ("dsg._prior_entropy_grads",)),
    ("dbe.train_s", ("dbe.train_dbe",)),
    ("dbe.prior_grads_s", ("dbe.dbe_prior_grads",)),
    ("shrinkreg.reg_grad_s", ("shrinkreg.drift_regularizer_grad",)),
    ("shrinkreg.word_drifts_s", ("shrinkreg.word_drifts",)),
    ("inits.init_internal_s", ("inits.init_internal",)),
    ("inits.load_pretrained_s", ("inits.load_pretrained",)),
    ("analysis.evaluate_lpos_s", ("analysis.evaluate_lpos",)),
    ("analysis.drift_series_s", ("analysis.drift_series",)),
    ("analysis.write_csv_s", ("analysis.write_drift_csv", "analysis.write_histogram_csv")),
    ("runs.save_checkpoints_s", ("runs.save_isg_checkpoints", "runs.save_dsg_checkpoints",
                                 "runs.save_dbe_checkpoints")),
    ("runs.load_slice_matrices_s", ("runs.load_slice_matrices",)),
    ("runs.content_hash_s", ("runs.content_hash",)),
    ("runs.write_manifest_s", ("runs.write_manifest",)),
    ("cli.train.self_s", ("cli.train",)),
    ("cli.eval.self_s", ("cli.eval",)),
    ("cli.drift.self_s", ("cli.drift",)),
    ("synth.generate_s", ("synth.generate",)),
)

COUNTS = (("corpus.pairs_n", "sgns.pairs_n", "sgns.save_text_bytes", "sgns.load_text_bytes",
           "adam.dense_elems", "adam.rows_touched", "adam.save_state_bytes")
          + tuple(f"sgns.positives.{m}" for m in MODELS)
          + tuple(f"sgns.minibatches.{m}" for m in MODELS))

# dsg applies each row's likelihood gradient to the posterior mean and to
# its log-variance, so one likelihood row feeds two updated rows.
UPDATED_ROWS_PER_LIKELIHOOD_ROW = {"isg": 1, "dsg": 2, "dbe": 1}


def calls_metric(metric):
    return metric.removesuffix("_s").removesuffix(".self") + ".calls"


class LayerTracer(Tracer):
    def __init__(self):
        super().__init__()
        self.model = None   # model of the train call in progress

    def install(self):
        """Patch every traced lookup name."""
        for owner, attribute, name, count in self._patch_table():
            self.patch(owner, attribute, name, count)

    def invoke(self, argv):
        """Stand-in for ``cli.main`` that records a root span per call."""
        if argv[0] == "train":
            self.model = argv[argv.index("--model") + 1]
        return self.call(f"cli.{argv[0]}", cli.main, argv)

    def _patch_table(self):
        saved = self._file_bytes("sgns.save_text_bytes", 0)
        loaded = self._file_bytes("sgns.load_text_bytes", 0)
        return [
            (corpus, "extract_pairs", "corpus.extract_pairs", self._pairs),
            (analysis, "extract_pairs", "corpus.extract_pairs", self._pairs),
            (corpus, "sample_negatives", "corpus.sample_negatives", None),
            (cli, "load_corpus", "corpus.load_corpus", None),
            (cli, "load_vocabulary", "corpus.load_vocabulary", None),
            (corpus, "split_holdout", "corpus.split_holdout", None),
            (corpus, "save_corpus", "corpus.save_corpus", None),
            (corpus, "save_vocabulary", "corpus.save_vocabulary", None),
            *[(m, "batch_grad_rows", "sgns.batch_grad_rows", self._minibatch)
              for m in (isg, dsg, dbe)],
            (sgns, "scatter_rows", "sgns.scatter_rows", None),
            (runs, "save_embedding_text", "sgns.save_embedding_text", saved),
            (cli, "save_embedding_text", "sgns.save_embedding_text", saved),
            *[(m, "load_embedding_text", "sgns.load_embedding_text", loaded)
              for m in (runs, cli, inits)],
            *[(m, "adam_step", "adam.adam_step", self._dense_step) for m in (dsg, dbe)],
            (isg, "adam_step_rows", "adam.adam_step_rows", self._row_step),
            (cli, "save_adam_state", "adam.save_adam_state",
             self._file_bytes("adam.save_state_bytes", 1)),
            *[(m, "epoch_positives", "isg.epoch_positives", None) for m in (isg, dsg, dbe)],
            (isg, "train_incremental", "isg.train_incremental", None),
            (isg, "train_slice", "isg.train_slice", None),
            (dsg, "train_dsg", "dsg.train_dsg", None),
            (dsg, "dsg_filter_step", "dsg.dsg_filter_step", None),
            (dsg, "sampled_likelihood_grads", "dsg.sampled_likelihood_grads", None),
            (dsg, "_prior_entropy_grads", "dsg._prior_entropy_grads", None),
            (dbe, "train_dbe", "dbe.train_dbe", None),
            (dbe, "dbe_prior_grads", "dbe.dbe_prior_grads", None),
            (dbe, "dbe_prior", "dbe.dbe_prior", None),
            (shrinkreg, "drift_regularizer_grad", "shrinkreg.drift_regularizer_grad", None),
            (shrinkreg, "word_drifts", "shrinkreg.word_drifts", None),
            *[(inits, f, f"inits.{f}", None)
              for f in ("apply_scheme", "init_internal", "init_random", "load_pretrained")],
            *[(analysis, f, f"analysis.{f}", None)
              for f in ("evaluate_lpos", "drift_series", "drift_histogram",
                        "write_drift_csv", "write_histogram_csv")],
            *[(runs, f, f"runs.{f}", None)
              for f in ("save_isg_checkpoints", "save_dsg_checkpoints", "save_dbe_checkpoints",
                        "load_slice_matrices", "content_hash", "write_manifest",
                        "read_manifest", "checkpoint_words")],
            (synth, "generate", "synth.generate", None),
        ]

    # -- work counts, taken from arguments and results ---------------------

    def _pairs(self, args, kwargs, result):
        self.add("corpus.pairs_n", len(result[0]))

    def _minibatch(self, args, kwargs, result):
        centers, _, labels = args[:3]
        u_rows, _, v_rows = result[:3]
        self.add("sgns.pairs_n", len(centers))
        self.add(f"sgns.positives.{self.model}", int(labels.sum()))
        self.add(f"sgns.minibatches.{self.model}", 1)
        self.add("adam.useful_rows",
                 (len(u_rows) + len(v_rows)) * UPDATED_ROWS_PER_LIKELIHOOD_ROW[self.model])

    def _dense_step(self, args, kwargs, result):
        params = args[0]
        self.add("adam.dense_elems", params.size)
        self.add("adam.rows_updated", params.shape[0])

    def _row_step(self, args, kwargs, result):
        rows = args[1]
        self.add("adam.rows_touched", len(rows))
        self.add("adam.rows_updated", len(rows))

    def _file_bytes(self, key, path_arg):
        def count(args, kwargs, result):
            self.add(key, os.path.getsize(args[path_arg]))
        return count

    # -- metrics ------------------------------------------------------------

    def metrics(self, session_s, untraced_session_s):
        """Per-layer self times, call counts and work counts.

        ``session_s`` is the traced round trip's summed command time and
        ``untraced_session_s`` the same for an untraced one.
        """
        roots = []
        time_by_name = defaultdict(float)
        calls_by_name = defaultdict(int)
        session_self = defaultdict(float)     # spans under a cli.* root
        for (name, _, _, parent), own in zip(self.spans, self_times(self.spans)):
            roots.append(roots[parent] if parent >= 0 else name)
            time_by_name[name] += own
            calls_by_name[name] += 1
            if roots[-1].startswith("cli."):
                session_self[name] += own

        out = {}
        for metric, names in TIMED:
            out[metric] = sum(time_by_name[n] for n in names)
            out[calls_metric(metric)] = sum(calls_by_name[n] for n in names)
        for key in COUNTS:
            out[key] = self.counts.get(key, 0)
        updated = self.counts.get("adam.rows_updated", 0)
        out["adam.useful_row_frac"] = (self.counts.get("adam.useful_rows", 0) / updated
                                       if updated else 0.0)
        # Internal init's own code is small; the pooled pretraining it runs
        # shows in the trainer layers, so its inclusive time is reported too.
        out["inits.init_internal_total_s"] = sum(
            end - start for name, start, end, _ in self.spans if name == "inits.init_internal")
        named = {n for _, names in TIMED for n in names}
        out["other.self_s"] = sum(t for n, t in session_self.items() if n not in named)
        out["trace.session_s"] = session_s
        out["trace.untraced_session_s"] = untraced_session_s
        out["trace.overhead_s"] = session_s - untraced_session_s
        out["trace.unaccounted_s"] = session_s - sum(session_self.values())
        out["trace.spans"] = len(self.spans)
        return out
