import itertools
import json
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftvec.corpus import (assign_slices, build_vocabulary, extract_pairs,
                             load_corpus, load_vocabulary, noise_distribution,
                             sample_negatives, save_corpus, save_vocabulary,
                             slice_corpus, split_holdout, subsample_corpus,
                             tokenize)
from driftvec.errors import DataError, EmptyCorpusError

from conftest import sliced_from_strings, toy_corpus


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("Hello, World! it's  fine") == ["hello", "world", "its", "fine"]


class TestBuildVocabulary:
    def test_frequency_ranking_with_lexicographic_ties(self):
        # hand count: a=3; b and c tie at 1, b wins the tie
        sliced = sliced_from_strings([["a b a", "c a"]])
        vocab = build_vocabulary(sliced, set(), 2)
        assert list(vocab.words) == ["a", "b"]
        assert vocab.total_count[0] == 3
        assert vocab.total_count[1] == 1

    def test_all_tokens_stopworded_is_empty_corpus(self):
        sliced = sliced_from_strings([["a a"]])
        with pytest.raises(EmptyCorpusError):
            build_vocabulary(sliced, {"a"}, 10)

    def test_stopwords_are_left_out_of_every_count(self):
        # hand count without "the": a=3 (2 + 1), b=2 (0 + 2), c=1
        sliced = sliced_from_strings([["the a the a", "c"], ["b the a b"]])
        vocab = build_vocabulary(sliced, {"the"}, 10)
        assert list(vocab.words) == ["a", "b", "c"]
        np.testing.assert_array_equal(vocab.total_count, [3, 2, 1])

    def test_truncates_to_max_size(self):
        # 12000 distinct words, keep the 10000 most frequent
        docs = [[f"w{i}" for i in range(12_000)] + ["w0"]]
        vocab = build_vocabulary([docs], set(), 10_000)
        assert vocab.size == 10_000
        assert vocab.words[0] == "w0"  # only word with count 2

    def test_round_trip_ids(self):
        vocab, _ = toy_corpus([["a b c d", "b c d", "c d", "d"]])
        for k, word in enumerate(vocab.words):
            assert vocab.id_of[word] == k

    def test_export_import_round_trip(self, tmp_path):
        vocab, _ = toy_corpus([["a b a b c", "d a"]])
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.words == vocab.words
        np.testing.assert_array_equal(loaded.total_count, vocab.total_count)


class TestSliceCorpus:
    def test_yearly_boundaries_drop_documents_outside(self):
        docs = [
            (datetime(1987, 3, 1), ["a"]),
            (datetime(1988, 7, 1), ["b"]),
            (datetime(2007, 6, 19), ["c"]),   # beyond the last boundary
        ]
        boundaries = [datetime(y, 1, 1) for y in range(1987, 2008)]
        sliced, dropped = assign_slices(docs, boundaries)
        assert len(sliced) == 20
        assert sliced[0] == [["a"]]
        assert sliced[1] == [["b"]]
        assert dropped == 1

    def test_single_slice_takes_everything(self):
        docs = [(datetime(1990, 1, 1), ["a"]), (datetime(1999, 12, 31), ["b"])]
        sliced, dropped = assign_slices(docs, [datetime(1990, 1, 1), datetime(2000, 1, 1)])
        assert len(sliced) == 1
        assert len(sliced[0]) == 2
        assert dropped == 0

    def test_conservation_against_brute_force(self):
        rng = np.random.default_rng(7)
        boundaries = [datetime(2000 + t, 1, 1) for t in range(21)]
        docs = []
        for _ in range(100):
            year = int(rng.integers(1999, 2023))
            docs.append((datetime(year, int(rng.integers(1, 13)), 1), ["x"]))
        sliced, dropped = assign_slices(docs, boundaries)
        assert sum(len(s) for s in sliced) + dropped == 100
        # brute-force assignment oracle
        for t, bucket in enumerate(sliced):
            expected = [d for ts, d in docs
                        if boundaries[t] <= ts < boundaries[t + 1]]
            assert len(bucket) == len(expected)

    def test_too_few_boundaries(self):
        with pytest.raises(DataError):
            assign_slices([(datetime(2000, 1, 1), ["a"])], [datetime(2000, 1, 1)])

    def test_all_dropped_is_empty_corpus(self):
        docs = [(datetime(1980, 1, 1), ["a"])]
        with pytest.raises(EmptyCorpusError):
            assign_slices(docs, [datetime(2000, 1, 1), datetime(2001, 1, 1)])

    def test_encodes_and_reports_oov(self):
        vocab, _ = toy_corpus([["a b"]])
        docs = [(datetime(2000, 6, 1), ["a", "zzz", "b"])]
        corpus, report = slice_corpus(
            docs, [datetime(2000, 1, 1), datetime(2001, 1, 1)], vocab)
        assert corpus.T == 1
        assert report.oov_tokens == 1
        assert corpus.slices[0][0].tolist() == [vocab.id_of["a"], vocab.id_of["b"]]

    def test_report_counts_oov_all_oov_document_and_empty_slice(self):
        vocab, _ = toy_corpus([["a b"]])
        docs = [
            (datetime(2000, 6, 1), ["a", "zzz", "b", "yyy"]),
            (datetime(2000, 9, 1), ["xxx", "zzz"]),        # every token OOV
            (datetime(2002, 3, 1), ["b"]),
            (datetime(1999, 1, 1), ["a"]),                 # before the boundaries
        ]
        boundaries = [datetime(y, 1, 1) for y in (2000, 2001, 2002, 2003)]
        corpus, report = slice_corpus(docs, boundaries, vocab)
        assert report.kept == 3
        assert report.dropped == 1
        assert report.oov_tokens == 4
        assert report.empty_slices == (1,)
        assert corpus.doc_counts() == [2, 0, 1]
        assert corpus.token_counts() == [2, 0, 1]
        assert corpus.slices[0][1].tolist() == []


class TestSplitHoldout:
    @staticmethod
    def _corpus(n_docs):
        docs = tuple(np.array([i], dtype=np.int64) for i in range(n_docs))
        from driftvec.corpus import TimeSlicedCorpus
        return TimeSlicedCorpus(slices=(docs,))

    def test_ninety_five_five(self):
        train, valid, test = split_holdout(self._corpus(100), 0.10, seed=1)
        assert len(train.slices[0]) == 90
        assert len(valid.slices[0]) == 5
        assert len(test.slices[0]) == 5

    def test_deterministic(self):
        a = split_holdout(self._corpus(50), 0.2, seed=9)
        b = split_holdout(self._corpus(50), 0.2, seed=9)
        for pa, pb in zip(a, b):
            ids_a = [int(d[0]) for d in pa.slices[0]]
            ids_b = [int(d[0]) for d in pb.slices[0]]
            assert ids_a == ids_b

    def test_exact_partition_37_docs(self):
        parts = split_holdout(self._corpus(37), 0.2, seed=3)
        ids = [frozenset(int(d[0]) for d in p.slices[0]) for p in parts]
        # pairwise disjoint and jointly exhaustive, checked exhaustively
        assert ids[0] | ids[1] | ids[2] == set(range(37))
        for x, y in itertools.combinations(ids, 2):
            assert not (x & y)

    def test_slice_too_small(self):
        with pytest.raises(DataError, match="slice 0"):
            split_holdout(self._corpus(5), 0.1, seed=0)


class TestSubsample:
    def test_identity_at_full_fraction(self):
        _, corpus = toy_corpus([["a b", "b c", "c a"]])
        assert subsample_corpus(corpus, 1.0, seed=0) is corpus

    def test_half_of_forty(self):
        docs = tuple(np.array([i], dtype=np.int64) for i in range(40))
        from driftvec.corpus import TimeSlicedCorpus
        corpus = TimeSlicedCorpus(slices=(docs,))
        out = subsample_corpus(corpus, 0.5, seed=0)
        assert len(out.slices[0]) == 20

    def test_tenth_scales_tokens(self):
        rng = np.random.default_rng(0)
        docs = tuple(rng.integers(0, 50, size=20).astype(np.int64) for _ in range(1000))
        from driftvec.corpus import TimeSlicedCorpus
        corpus = TimeSlicedCorpus(slices=(docs, docs))
        out = subsample_corpus(corpus, 0.10, seed=4)
        for t in range(2):
            assert out.token_counts()[t] == pytest.approx(0.10 * corpus.token_counts()[t],
                                                          rel=0.05)

    def test_empty_slice_warns(self):
        from driftvec.corpus import TimeSlicedCorpus
        corpus = TimeSlicedCorpus(slices=((np.array([0], dtype=np.int64),),))
        with pytest.warns(UserWarning, match="empty"):
            subsample_corpus(corpus, 0.01, seed=0)


class TestExtractPairs:
    def test_window_one_enumeration(self):
        centers, contexts = extract_pairs([np.array([0, 1, 2])], window=1)
        got = set(zip(centers.tolist(), contexts.tolist()))
        assert got == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_single_token_yields_nothing(self):
        centers, _ = extract_pairs([np.array([7])], window=5)
        assert len(centers) == 0

    def test_ten_tokens_window_four_count(self):
        doc = np.arange(10)
        centers, contexts = extract_pairs([doc], window=4)
        # brute-force enumeration oracle; also equals sum_p min(p,4)+min(9-p,4)
        expected = [(doc[p], doc[q]) for p in range(10) for q in range(10)
                    if p != q and abs(p - q) <= 4]
        assert len(expected) == sum(min(p, 4) + min(9 - p, 4) for p in range(10)) == 60
        assert len(centers) == 60
        assert sorted(zip(centers.tolist(), contexts.tolist())) == sorted(expected)

    def test_pairs_never_cross_documents(self):
        centers, contexts = extract_pairs([np.array([0, 1]), np.array([2, 3])],
                                          window=4)
        pairs = set(zip(centers.tolist(), contexts.tolist()))
        assert pairs == {(0, 1), (1, 0), (2, 3), (3, 2)}

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 9), max_size=8), max_size=5),
           st.integers(1, 4))
    def test_symmetry_property(self, docs, window):
        arrays = [np.array(d, dtype=np.int64) for d in docs]
        centers, contexts = extract_pairs(arrays, window)
        from collections import Counter
        forward = Counter(zip(centers.tolist(), contexts.tolist()))
        backward = Counter(zip(contexts.tolist(), centers.tolist()))
        assert forward == backward


class TestSampleNegatives:
    def test_power_distribution_exact_values(self):
        vocab, _ = toy_corpus([["a a a a b"]])
        p = noise_distribution(vocab)
        za = 4 ** 0.75
        assert p[vocab.id_of["a"]] == pytest.approx(za / (za + 1), abs=1e-12)
        assert p[vocab.id_of["b"]] == pytest.approx(1 / (za + 1), abs=1e-12)

    def test_ratio_counts(self):
        vocab, corpus = toy_corpus([["a b c a b c a b"]])
        centers, contexts = extract_pairs(corpus.slices[0], window=2)
        batch = sample_negatives(vocab, (centers, contexts), ratio=1, seed=0)
        assert len(batch) == 2 * len(centers)
        assert int(batch.labels.sum()) == len(centers)
        # exactly one negative per positive
        assert int((batch.labels == 0).sum()) == len(centers)

    def test_hundred_positives_hundred_negatives(self):
        vocab, _ = toy_corpus([["a b"]])
        centers = np.zeros(100, dtype=np.int64)
        contexts = np.ones(100, dtype=np.int64)
        batch = sample_negatives(vocab, (centers, contexts), ratio=1, seed=0)
        assert int((batch.labels == 0).sum()) == 100

    def test_uniform_counts_give_uniform_noise(self):
        vocab, _ = toy_corpus([["a b c d"]])
        p = noise_distribution(vocab)
        np.testing.assert_allclose(p, 0.25)

    def test_interleaving_layout(self):
        vocab, _ = toy_corpus([["a b c"]])
        centers = np.array([0, 1], dtype=np.int64)
        contexts = np.array([1, 2], dtype=np.int64)
        batch = sample_negatives(vocab, (centers, contexts), ratio=2, seed=0)
        assert batch.labels.tolist() == [1, 0, 0, 1, 0, 0]
        assert batch.center_ids.tolist() == [0, 0, 0, 1, 1, 1]
        assert batch.context_ids[0] == 1 and batch.context_ids[3] == 2

    def test_empirical_convergence_to_power_law(self):
        # seeded, so this is a deterministic regression of the sampler
        docs = [["a"] * 500 + ["b"] * 120 + ["c"] * 40 + ["d"] * 10 + ["e"] * 3]
        vocab, _ = toy_corpus([[" ".join(docs[0])]])
        expected = noise_distribution(vocab)
        n = 1_000_000
        centers = np.zeros(n // 2, dtype=np.int64)
        contexts = np.zeros(n // 2, dtype=np.int64)
        batch = sample_negatives(vocab, (centers, contexts), ratio=2, seed=99)
        drawn = batch.context_ids[batch.labels == 0]
        counts = np.bincount(drawn, minlength=vocab.size)
        freqs = counts / counts.sum()
        rel_err = np.abs(freqs - expected) / expected
        assert rel_err.max() < 0.02

    def test_deterministic_given_seed(self):
        vocab, corpus = toy_corpus([["a b c d e f g h"]])
        positives = extract_pairs(corpus.slices[0], window=3)
        b1 = sample_negatives(vocab, positives, ratio=3, seed=[5, 1])
        b2 = sample_negatives(vocab, positives, ratio=3, seed=[5, 1])
        np.testing.assert_array_equal(b1.context_ids, b2.context_ids)


def test_corpus_file_round_trip(tmp_path):
    _, corpus = toy_corpus([["a b c", "d e"], ["a a"]])
    for name in ("c.json", "c.json.gz"):
        path = tmp_path / name
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.T == corpus.T
        for t in range(corpus.T):
            for da, db in zip(corpus.slices[t], loaded.slices[t]):
                np.testing.assert_array_equal(da, db)


@pytest.mark.parametrize("payload, message", [
    ([[[1, 2]]], '"slices"'),
    ({"split": "train"}, '"slices"'),
    ({"slices": [[[1, 2]], 7]}, '"slices"'),
    ({"T": 2, "slices": [[[1, 2]]]}, "T=2"),
    ({"slices": [[[1, 2]], [[0], [1.5, 2]]]}, "slice 1, document 1"),
    ({"slices": [[[1, "a"]]]}, "slice 0, document 0"),
    ({"slices": [[[[1], [2]]]]}, "slice 0, document 0"),
    ({"slices": [[[1], [2, [3]]]]}, "slice 0, document 1"),
    ({"slices": []}, "bad.json: the corpus holds no slices"),
    ({"T": 0, "slices": []}, "bad.json: the corpus holds no slices"),
])
def test_load_corpus_rejects_malformed_content(tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=message):
        load_corpus(path)


def test_load_corpus_checks_ids_against_vocabulary(tmp_path):
    _, corpus = toy_corpus([["a b c", "a b"], ["a a", "", "b c z"]])
    path = tmp_path / "c.json"
    save_corpus(corpus, path)
    assert load_corpus(path, vocab_size=4).T == 2
    with pytest.raises(DataError, match="slice 1, document 2: token id 3"):
        load_corpus(path, vocab_size=3)
    with pytest.raises(DataError, match="token id 0"):
        load_corpus(path, vocab_size=0)
