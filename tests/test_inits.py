import numpy as np
import pytest

from driftvec import corpus as corpus_mod
from driftvec.dbe import DbeParams, train_dbe
from driftvec.dsg import DsgParams, dsg_filter_step
from driftvec.errors import DataError
from driftvec.inits import (BACKWARD_EXTERNAL, InitScheme, apply_scheme,
                            init_internal, init_random, load_pretrained,
                            pool_slices, train_model)
from driftvec.isg import train_slice
from driftvec.sgns import TrainConfig, save_embedding_text, sigmoid

import reference
from conftest import toy_corpus


def cfg(**kwargs):
    base = dict(dim=6, window=1, negative_ratio=1, learning_rate=0.1,
                epochs=25, batch_size=128, seed=0)
    base.update(kwargs)
    return TrainConfig(**base)


class TestRandomInit:
    def test_deterministic(self):
        a = init_random(5, 3, 7, "isg")
        b = init_random(5, 3, 7, "isg")
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_standard_normal_moments(self):
        U, V = init_random(1000, 100, 0, "dbe")
        entries = np.concatenate([U.ravel(), V.ravel()])
        assert abs(entries.mean()) < 0.02
        assert abs(entries.var() - 1.0) < 0.02

    def test_dsg_zero_means_unit_variances(self):
        U, V = init_random(4, 3, 0, "dsg")
        np.testing.assert_array_equal(U, np.zeros((4, 3)))
        np.testing.assert_array_equal(V, np.zeros((4, 3)))

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            init_random(2, 2, 0, "glove")


def direct_static_training(corpus, vocab, config, kind, params):
    """The pooled-corpus training an internal init runs, called trainer by
    trainer: one slice of isg, one dsg filter step, dbe on one slice."""
    pooled = pool_slices(corpus)
    U0, V0 = init_random(vocab.size, config.dim, config.seed, kind)
    if kind == "isg":
        out, _ = train_slice(pooled.slices[0], vocab, (U0, V0), config, slice_index=0)
        return out["word"], out["context"]
    if kind == "dsg":
        out, _ = dsg_filter_step(pooled.slices[0], vocab, (U0, V0), params or DsgParams(),
                                 config, slice_index=0)
        return out["word"], out["context"]
    matrices = train_dbe(pooled, vocab, (U0, V0), params or DbeParams(), config).matrices
    return matrices["word"][0], matrices["context"][0]


class TestInternalInit:
    def test_cooccurring_pairs_rank_above_noncooccurring(self):
        # three isolated pairs; exhaustively check every word's observed
        # partner scores above every non-partner
        docs = ["a b"] * 300 + ["c d"] * 300 + ["e f"] * 300
        vocab, corpus = toy_corpus([docs[::3], docs[1::3], docs[2::3]])
        U, V = init_internal(corpus, vocab, cfg(), "isg")
        partner = {"a": "b", "b": "a", "c": "d", "d": "c", "e": "f", "f": "e"}
        for w, p in partner.items():
            wi = vocab.id_of[w]
            own = sigmoid(float(U[wi] @ V[vocab.id_of[p]]))
            for other in partner:
                if other in (w, p):
                    continue
                assert own > sigmoid(float(U[wi] @ V[vocab.id_of[other]]))

    def test_pooling_gathers_all_documents(self):
        _, corpus = toy_corpus([["a b", "c d"], ["e f"]])
        pooled = pool_slices(corpus)
        assert pooled.T == 1
        assert len(pooled.slices[0]) == 3

    def test_deterministic(self):
        vocab, corpus = toy_corpus([["a b c"] * 20, ["c b a"] * 20])
        r1 = init_internal(corpus, vocab, cfg(epochs=3), "dbe")
        r2 = init_internal(corpus, vocab, cfg(epochs=3), "dbe")
        np.testing.assert_array_equal(r1[0], r2[0])
        np.testing.assert_array_equal(r1[1], r2[1])

    @pytest.mark.parametrize("kind, params", [
        ("isg", None),
        ("dsg", None),
        ("dsg", DsgParams(diffusion_var=0.5, anchor_var=0.2, samples_per_step=2,
                          entropy_mode="exact")),
        ("dbe", None),
        ("dbe", DbeParams(drift_precision=3.0, base_precision=0.1)),
    ])
    def test_equals_direct_static_training(self, kind, params):
        vocab, corpus = toy_corpus([["a b c d"] * 15, ["d c b a"] * 15, ["a c b d"] * 15])
        config = cfg(epochs=3, batch_size=16)
        expected = direct_static_training(corpus, vocab, config, kind, params)
        got = init_internal(corpus, vocab, config, kind, params)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)


class TestLoadPretrained:
    def _write(self, path, words, dim=4, scale=1.0):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(len(words), dim)) * scale
        save_embedding_text(path, words, matrix)
        return matrix

    def test_full_coverage(self, tmp_path):
        vocab, _ = toy_corpus([["a b c a b a"]])
        path = tmp_path / "pre.vec"
        matrix = self._write(path, ["a", "b", "c"])
        out, missing = load_pretrained(path, vocab, oov_seed=0)
        assert missing == []
        np.testing.assert_array_equal(out[vocab.id_of["a"]],
                                      matrix[0])

    def test_partial_coverage_fills_seeded_rows(self, tmp_path):
        words = [f"w{i}" for i in range(10)]
        docs = " ".join(w for i, w in enumerate(words) for _ in range(10 - i))
        vocab, _ = toy_corpus([[docs]])
        path = tmp_path / "pre.vec"
        self._write(path, words[:7])
        out, missing = load_pretrained(path, vocab, oov_seed=3)
        assert vocab.size - len(missing) == 7
        assert missing == words[7:]
        again, _ = load_pretrained(path, vocab, oov_seed=3)
        np.testing.assert_array_equal(out, again)
        missing_rows = out[[vocab.id_of[w] for w in missing]]
        assert np.abs(missing_rows).max() < 1.0  # sigma 0.1 rows, not N(0,1)

    # "empty" is a "0 4" header and no rows
    @pytest.mark.parametrize("file_words", [[], ["w0", "w3", "w9"], [f"w{i}" for i in range(10)],
                                            ["x", "y"]], ids=["empty", "some", "all", "none"])
    def test_equals_per_word_fill(self, tmp_path, file_words):
        words = [f"w{i}" for i in range(10)]
        docs = " ".join(w for i, w in enumerate(words) for _ in range(10 - i))
        vocab, _ = toy_corpus([[docs]])
        path = tmp_path / "pre.vec"
        self._write(path, file_words)
        out, missing = load_pretrained(path, vocab, oov_seed=5)
        want, want_missing = reference.load_pretrained(path, vocab, oov_seed=5)
        assert missing == want_missing
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()

    def test_dimension_mismatch(self, tmp_path):
        vocab, _ = toy_corpus([["a b"]])
        path = tmp_path / "pre.vec"
        self._write(path, ["a", "b"], dim=50)
        with pytest.raises(DataError, match="dimension"):
            load_pretrained(path, vocab, oov_seed=0, expected_dim=100)

    def test_unreadable_file(self, tmp_path):
        vocab, _ = toy_corpus([["a b"]])
        with pytest.raises(DataError):
            load_pretrained(tmp_path / "missing.vec", vocab, oov_seed=0)


class TestApplyScheme:
    def test_backward_external_dsg_fixes_variance(self, tmp_path):
        # dsg takes the pretrained pair as its initial means, like isg;
        # no variance is seeded, its filter reads means alone
        vocab, corpus = toy_corpus([["a b"], ["b a"]])
        path = tmp_path / "pre.vec"
        rng = np.random.default_rng(1)
        pretrained = rng.normal(size=(vocab.size, 6))
        save_embedding_text(path, list(vocab.words), pretrained)
        scheme = InitScheme(kind=BACKWARD_EXTERNAL, pretrained_path=str(path))
        (U0, V0), direction = apply_scheme(scheme, "dsg", corpus, vocab, cfg(epochs=1))
        assert direction == "backward"
        np.testing.assert_array_equal(U0, pretrained)
        np.testing.assert_array_equal(V0, pretrained)
        assert U0 is not V0

    def test_backward_external_dbe_is_joint(self, tmp_path):
        vocab, corpus = toy_corpus([["a b"], ["b a"]])
        path = tmp_path / "pre.vec"
        save_embedding_text(path, list(vocab.words), np.ones((vocab.size, 6)))
        scheme = InitScheme(kind=BACKWARD_EXTERNAL, pretrained_path=str(path))
        (U0, V0), direction = apply_scheme(scheme, "dbe", corpus, vocab, cfg())
        assert direction == "joint"
        np.testing.assert_array_equal(V0, np.ones((vocab.size, 6)))

    def test_internal_dbe_returns_anchor_and_context(self):
        vocab, corpus = toy_corpus([["a b c"] * 10, ["c b a"] * 10])
        (U0, V0), direction = apply_scheme(InitScheme(kind="internal"), "dbe",
                                           corpus, vocab, cfg(epochs=2))
        assert direction == "joint"
        assert U0.shape == V0.shape == (vocab.size, 6)

    def test_random_scheme_warns_about_ignored_pretrained(self, tmp_path):
        vocab, corpus = toy_corpus([["a b"]])
        path = tmp_path / "pre.vec"
        save_embedding_text(path, ["a"], np.zeros((1, 6)))
        scheme = InitScheme(kind="random", pretrained_path=str(path))
        with pytest.warns(UserWarning, match="ignores"):
            apply_scheme(scheme, "isg", corpus, vocab, cfg())

    def test_backward_external_requires_path(self):
        with pytest.raises(ValueError, match="pretrained_path"):
            InitScheme(kind=BACKWARD_EXTERNAL)

    def test_isg_backward_direction(self, tmp_path):
        vocab, corpus = toy_corpus([["a b"], ["b a"]])
        path = tmp_path / "pre.vec"
        save_embedding_text(path, list(vocab.words), np.ones((vocab.size, 6)))
        scheme = InitScheme(kind=BACKWARD_EXTERNAL, pretrained_path=str(path))
        (U0, V0), direction = apply_scheme(scheme, "isg", corpus, vocab, cfg())
        assert direction == "backward"
        np.testing.assert_array_equal(U0, np.ones((vocab.size, 6)))


@pytest.mark.parametrize("eval_slices", [2, 4])
@pytest.mark.parametrize("kind", ["isg", "dsg", "dbe"])
def test_eval_corpus_of_another_length_is_rejected_before_training(monkeypatch, kind,
                                                                   eval_slices):
    vocab, corpus = toy_corpus([["a b c"], ["b c a"], ["c a b"]])
    eval_corpus = corpus_mod.TimeSlicedCorpus(slices=(corpus.slices * 2)[:eval_slices],
                                              split_tag="valid")

    def no_epoch(*args, **kwargs):
        raise AssertionError("a slice was trained")

    monkeypatch.setattr(corpus_mod, "sample_negatives", no_epoch)
    init = init_random(vocab.size, 6, 0, kind)
    with pytest.raises(ValueError, match=f"eval corpus has {eval_slices} slices, "
                                         "but the training corpus has 3"):
        train_model(kind, corpus, vocab, init, cfg(epochs=1), eval_corpus=eval_corpus)
