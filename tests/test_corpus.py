import itertools
import json
import re
from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftvec.corpus import (assign_slices, build_vocabulary, extract_pairs,
                             load_corpus, load_vocabulary, noise_distribution,
                             parse_timestamp, sample_negatives, save_corpus, save_vocabulary,
                             slice_corpus, split_holdout, subsample_corpus,
                             tokenize)
from driftvec.errors import DataError, EmptyCorpusError
from driftvec.isg import iter_minibatches

from conftest import sliced_from_strings, toy_corpus


def test_offset_timestamp_is_naive_utc():
    assert parse_timestamp("2000-12-31T23:00:00-02:00") == datetime(2001, 1, 1, 1)
    with pytest.raises(DataError, match="'0001-01-01T00:00:00\\+01:00' falls outside"):
        parse_timestamp("0001-01-01T00:00:00+01:00")


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

    @pytest.mark.parametrize("text, message", [
        ("a\t0\t5\nb\t1\t-7\n", "v.tsv:2: count -7 does not lie in 0..9223372036854775807"),
        ("a\t0\t" + "9" * 30 + "\n", f"v.tsv:1: count {'9' * 30} does not lie in"),
        ("a\t0\t0\nb\t1\t0\n", "v.tsv: every count is 0, so no word can be drawn"),
    ])
    def test_counts_are_int64_and_not_all_zero(self, tmp_path, text, message):
        # a negative or all-zero count made every noise probability NaN
        path = tmp_path / "v.tsv"
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(message)):
            load_vocabulary(path)

    def test_count_bounds_are_those_of_int64(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("a\t0\t9223372036854775807\nb\t1\t0\n")
        assert load_vocabulary(path).total_count.tolist() == [2**63 - 1, 0]
        path.write_text("a\t0\t9223372036854775808\nb\t1\t0\n")
        with pytest.raises(DataError, match="v.tsv:1: count 9223372036854775808 does not lie"):
            load_vocabulary(path)


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

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, not -1"):
            split_holdout(self._corpus(50), 0.2, seed=-1)


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

    @pytest.mark.parametrize("fraction", [0.5, 1.0])
    def test_negative_seed(self, fraction):
        _, corpus = toy_corpus([["a b", "b c", "c a"]])
        with pytest.raises(ValueError, match="seed must be >= 0, not -2"):
            subsample_corpus(corpus, fraction, seed=-2)


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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 9), max_size=8), max_size=5),
           st.integers(1, 12))
    @example([], 3)
    @example([[], []], 2)
    @example([[4, 5, 6], [], [7]], 12)
    def test_matches_offset_major_enumeration(self, docs, window):
        centers, contexts = extract_pairs([np.array(d, dtype=np.int64) for d in docs], window)
        # for each offset, the left-to-right pairs in document and position
        # order, then the same pairs reversed
        expected = []
        for k in range(1, window + 1):
            forward = [(d[i], d[i + k]) for d in docs for i in range(len(d) - k)]
            expected += forward + [(b, a) for a, b in forward]
        assert list(zip(centers.tolist(), contexts.tolist())) == expected
        assert centers.dtype == contexts.dtype == np.int64
        assert not np.shares_memory(centers, contexts)


def concatenated(minibatches):
    """A list of ``(centers, contexts, labels)`` minibatches joined into one triple."""
    return tuple(np.concatenate([np.empty(0, dtype=np.int64)] + [m[k] for m in minibatches])
                 for k in range(3))


def labelled_stream(vocab, positives, ratio, seed, batch_size=64):
    """The labelled pairs of ``positives`` as one ``(centers, contexts, labels)``
    triple: the minibatches :func:`iter_minibatches` builds from the draws
    of :func:`sample_negatives`, concatenated."""
    draws = sample_negatives(vocab, positives, ratio, seed)
    return concatenated(list(iter_minibatches(positives, draws, batch_size)))


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
        _, _, labels = labelled_stream(vocab, (centers, contexts), ratio=1, seed=0)
        assert len(labels) == 2 * len(centers)
        assert int(labels.sum()) == len(centers)
        # exactly one negative per positive
        assert int((labels == 0).sum()) == len(centers)

    def test_hundred_positives_hundred_negatives(self):
        vocab, _ = toy_corpus([["a b"]])
        centers = np.zeros(100, dtype=np.int64)
        contexts = np.ones(100, dtype=np.int64)
        _, _, labels = labelled_stream(vocab, (centers, contexts), ratio=1, seed=0)
        assert int((labels == 0).sum()) == 100

    def test_uniform_counts_give_uniform_noise(self):
        vocab, _ = toy_corpus([["a b c d"]])
        p = noise_distribution(vocab)
        np.testing.assert_allclose(p, 0.25)

    def test_interleaving_layout(self):
        vocab, _ = toy_corpus([["a b c"]])
        centers = np.array([0, 1], dtype=np.int64)
        contexts = np.array([1, 2], dtype=np.int64)
        out_centers, out_contexts, labels = labelled_stream(
            vocab, (centers, contexts), ratio=2, seed=0)
        assert labels.tolist() == [1, 0, 0, 1, 0, 0]
        assert out_centers.tolist() == [0, 0, 0, 1, 1, 1]
        assert out_contexts[0] == 1 and out_contexts[3] == 2

    def test_empirical_convergence_to_power_law(self):
        # seeded, so this is a deterministic regression of the sampler
        docs = [["a"] * 500 + ["b"] * 120 + ["c"] * 40 + ["d"] * 10 + ["e"] * 3]
        vocab, _ = toy_corpus([[" ".join(docs[0])]])
        expected = noise_distribution(vocab)
        n = 1_000_000
        centers = np.zeros(n // 2, dtype=np.int64)
        contexts = np.zeros(n // 2, dtype=np.int64)
        drawn = sample_negatives(vocab, (centers, contexts), ratio=2, seed=99).reshape(-1)
        counts = np.bincount(drawn, minlength=vocab.size)
        freqs = counts / counts.sum()
        rel_err = np.abs(freqs - expected) / expected
        assert rel_err.max() < 0.02

    def test_deterministic_given_seed(self):
        vocab, corpus = toy_corpus([["a b c d e f g h"]])
        positives = extract_pairs(corpus.slices[0], window=3)
        contexts1 = sample_negatives(vocab, positives, ratio=3, seed=[5, 1])
        contexts2 = sample_negatives(vocab, positives, ratio=3, seed=[5, 1])
        np.testing.assert_array_equal(contexts1, contexts2)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=30),
           st.integers(1, 4), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @example([], 1, 1, 0)
    @example([(0, 1)] * 6, 2, 3, 0)
    def test_pair_stream_triple(self, pairs, ratio, batch_size, seed):
        # the draws are a read-only (n, ratio) int64 array, and the
        # minibatches built from them are (centers, contexts, labels)
        # triples of read-only int64 arrays
        vocab, _ = toy_corpus([["a b c d e"]])
        centers = np.array([c for c, _ in pairs], dtype=np.int64)
        contexts = np.array([x for _, x in pairs], dtype=np.int64)
        n, group = len(pairs), 1 + ratio
        draws = sample_negatives(vocab, (centers, contexts), ratio, seed)
        assert draws.dtype == np.int64 and draws.shape == (n, ratio)
        assert not draws.flags.writeable
        assert ((0 <= draws) & (draws < vocab.size)).all()

        chunks = list(iter_minibatches((centers, contexts), draws, batch_size))
        assert len(chunks) == -(-n // batch_size)
        for chunk in chunks:
            assert len(chunk) == 3
            for array in chunk:
                assert array.dtype == np.int64 and not array.flags.writeable
        for chunk in chunks[:-1]:
            assert [len(array) for array in chunk] == [batch_size * group] * 3
        out_centers, out_contexts, labels = (array.reshape(n, group)
                                             for array in concatenated(chunks))
        # every positive starts its group, followed by its noise pairs
        np.testing.assert_array_equal(labels, np.repeat([[1] + [0] * ratio], n, axis=0))
        np.testing.assert_array_equal(out_centers, np.repeat(centers[:, None], group, axis=1))
        np.testing.assert_array_equal(out_contexts[:, 0], contexts)
        np.testing.assert_array_equal(out_contexts[:, 1:], draws)


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
