from collections import Counter

import numpy as np
import pytest

from driftvec.corpus import build_vocabulary, encode_sliced_docs
from driftvec.synth import (PlantedChange, SynthSpec, TopicProfile, generate, word_names,
                            write_synth_corpus)

from reference import synth_generate


def small_spec(**kwargs):
    base = dict(vocab_size=60, T=5, tokens_per_slice=6000, seed=0)
    base.update(kwargs)
    return SynthSpec(**base)


def planted(word="w0059", change_slice=2, mode="abrupt"):
    return PlantedChange(word=word, change_slice=change_slice, old_topic=0,
                         new_topic=1, mode=mode)


def context_unigram(raw_docs, word, window=4):
    counts = Counter()
    for doc in raw_docs:
        positions = [i for i, tok in enumerate(doc) if tok == word]
        for p in positions:
            lo = max(0, p - window)
            for q in range(lo, min(len(doc), p + window + 1)):
                if q != p and doc[q] != word:
                    counts[doc[q]] += 1
    total = sum(counts.values())
    return {w: c / total for w, c in counts.items()}


class TestGenerate:
    def test_no_changes_means_all_stable(self):
        result = generate(small_spec())
        assert result.changes == ()

    def test_abrupt_change_moves_context_distribution(self):
        result = generate(small_spec(planted_changes=[planted()]))
        before = context_unigram(result.raw_slices[1], "w0059")
        after = context_unigram(result.raw_slices[3], "w0059")
        words = set(before) | set(after)
        tv = 0.5 * sum(abs(before.get(w, 0.0) - after.get(w, 0.0)) for w in words)
        assert tv > 0.5

    def test_gradual_change_ramps_monotonically(self):
        result = generate(small_spec(planted_changes=[planted(mode="gradual")],
                                     T=5))
        topic_b_words = set()
        # topic words are disjoint from the pool; recover topic 1's words
        # from the final slice's planted contexts
        final = context_unigram(result.raw_slices[4], "w0059")
        first = context_unigram(result.raw_slices[0], "w0059")
        shared = set(final) & set(first)
        new_only = set(final) - shared
        masses = []
        for t in range(5):
            dist = context_unigram(result.raw_slices[t], "w0059")
            masses.append(sum(dist.get(w, 0.0) for w in new_only))
        assert all(b > a for a, b in zip(masses, masses[1:]))

    def test_same_seed_identical_bytes(self):
        a = generate(small_spec(planted_changes=[planted()]))
        b = generate(small_spec(planted_changes=[planted()]))
        assert a.raw_slices == b.raw_slices
        for t in range(a.corpus.T):
            for da, db in zip(a.corpus.slices[t], b.corpus.slices[t]):
                np.testing.assert_array_equal(da, db)

    def test_token_counts_within_one_document(self):
        spec = small_spec(tokens_per_slice=5000, doc_length=12)
        result = generate(spec)
        for count in result.corpus.token_counts():
            assert abs(count - 5000) <= 12

    def test_labels_partition_vocabulary(self):
        result = generate(small_spec(planted_changes=[planted()]))
        changed = {c.word for c in result.changes}
        stable = set(result.vocab.words) - changed
        assert changed == {"w0059"}
        assert changed | stable == set(result.vocab.words)
        assert not (changed & stable)

    def test_planted_word_absent_from_normal_documents(self):
        result = generate(small_spec(planted_changes=[planted()]))
        # every document containing the planted word must contain it in
        # its dedicated periodic slots
        for docs in result.raw_slices:
            for doc in docs:
                if "w0059" in doc:
                    assert doc[0] == "w0059"


class TestValidation:
    def test_change_slice_out_of_range(self):
        with pytest.raises(ValueError, match="change_slice"):
            generate(small_spec(planted_changes=[planted(change_slice=7)]))

    def test_unknown_topic(self):
        bad = PlantedChange(word="w0001", change_slice=1, old_topic=0, new_topic=5)
        with pytest.raises(ValueError, match="topic"):
            generate(small_spec(planted_changes=[bad]))

    def test_duplicate_planted_words(self):
        with pytest.raises(ValueError, match="distinct"):
            generate(small_spec(planted_changes=[planted(), planted()]))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            PlantedChange(word="w0001", change_slice=1, old_topic=0,
                          new_topic=1, mode="sudden")

    def test_nonword_planted(self):
        with pytest.raises(ValueError, match="vocabulary word"):
            generate(small_spec(planted_changes=[planted(word="zebra")]))

    @pytest.mark.parametrize("length", [0, -3])
    def test_doc_length_below_one(self, length):
        with pytest.raises(ValueError, match="doc_length must be >= 1"):
            generate(small_spec(doc_length=length))

    @pytest.mark.parametrize("fraction", [-0.5, 2.0, float("nan")])
    def test_planted_doc_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match=r"planted_doc_fraction must lie in \[0, 1\]"):
            generate(small_spec(planted_doc_fraction=fraction))

    def test_planted_documents_over_a_slice(self):
        changes = [planted(word=f"w{i:04d}", change_slice=1) for i in range(170, 200)]
        with pytest.raises(ValueError, match="30 planted changes take 120 documents per "
                                             "slice, more than the slice's 100"):
            generate(small_spec(vocab_size=200, T=2, tokens_per_slice=1200,
                                planted_changes=changes))

    def test_planted_documents_may_fill_a_slice(self):
        changes = [planted(word=f"w{i:04d}", change_slice=1) for i in range(175, 200)]
        result = generate(small_spec(vocab_size=200, T=2, tokens_per_slice=1200,
                                     planted_changes=changes))
        assert result.corpus.doc_counts() == [100, 100]
        assert all(doc[0] in {c.word for c in changes}
                   for docs in result.raw_slices for doc in docs)

    def test_planted_words_take_the_whole_pool(self):
        # the pool is the first max(2, round(0.3 * 10)) = 3 names
        changes = [planted(word=f"w{i:04d}", change_slice=1) for i in range(3)]
        with pytest.raises(ValueError, match="the planted words take all 3 shared-pool words"):
            generate(small_spec(vocab_size=10, T=2, tokens_per_slice=100,
                                planted_changes=changes))

    @pytest.mark.parametrize("skew", [-1.0, float("nan"), float("inf")])
    def test_topic_skew_must_be_finite_and_non_negative(self, skew):
        with pytest.raises(ValueError, match="skew must be a finite number >= 0"):
            TopicProfile(skew=skew)

    @pytest.mark.parametrize("skew", [-1.0, float("nan"), float("inf")])
    def test_pool_skew_must_be_finite_and_non_negative(self, skew):
        with pytest.raises(ValueError, match="pool_skew must be a finite number >= 0"):
            generate(small_spec(pool_skew=skew))


def gradual(word, change_slice=1):
    return planted(word=word, change_slice=change_slice, mode="gradual")


ORACLE_SPECS = {
    "count-ties": dict(vocab_size=60, T=2, tokens_per_slice=120),
    "unseen-words": dict(vocab_size=500, T=1, tokens_per_slice=60),
    "five-digit-names": dict(vocab_size=10001, T=2, tokens_per_slice=3000),
    "abrupt": dict(planted_changes=[planted()]),
    "gradual": dict(T=4, planted_changes=[gradual("w0059"), gradual("w0003", 2)]),
    "one-topic": dict(topics=[TopicProfile()], planted_changes=[
        PlantedChange(word="w0030", change_slice=1, old_topic=0, new_topic=0)]),
    "three-topics": dict(topics=[TopicProfile(0.5), TopicProfile(), TopicProfile(2.0)],
                         planted_changes=[PlantedChange(word="w0040", change_slice=3,
                                                        old_topic=2, new_topic=0)]),
    "skew-0": dict(topics=[TopicProfile(0.0), TopicProfile(0.0)], pool_skew=0.0,
                   planted_changes=[planted()]),
    "doc-length-7": dict(doc_length=7, tokens_per_slice=1000, planted_changes=[gradual("w0010")]),
    "all-planted": dict(T=2, tokens_per_slice=1200, planted_doc_fraction=0.5,
                        planted_changes=[planted(change_slice=1), gradual("w0001")]),
}


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_ids_match_the_token_string_oracle(name):
    spec = small_spec(**ORACLE_SPECS[name])
    got, want = generate(spec), synth_generate(spec)
    assert got.vocab.words == want.vocab.words
    assert got.vocab.total_count.dtype == want.vocab.total_count.dtype
    np.testing.assert_array_equal(got.vocab.total_count, want.vocab.total_count)
    assert got.raw_slices == want.raw_slices
    assert got.changes == want.changes
    assert got.corpus.T == want.corpus.T
    for got_docs, want_docs in zip(got.corpus.slices, want.corpus.slices):
        assert len(got_docs) == len(want_docs)
        for a, b in zip(got_docs, want_docs):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
    # the path build-vocab and slice take on the written corpus
    built = build_vocabulary(got.raw_slices, set(), spec.vocab_size)
    assert built.words == got.vocab.words
    np.testing.assert_array_equal(built.total_count, got.vocab.total_count)
    rebuilt = encode_sliced_docs(got.raw_slices, got.vocab)
    for got_docs, rebuilt_docs in zip(got.corpus.slices, rebuilt.slices):
        for a, b in zip(got_docs, rebuilt_docs):
            np.testing.assert_array_equal(a, b)
    if name == "count-ties":
        assert (np.diff(got.vocab.total_count) == 0).any()
    if name == "unseen-words":
        assert got.vocab.size < spec.vocab_size


class TestFileOutput:
    def test_writes_manifest_documents_and_truth(self, tmp_path):
        spec = small_spec(tokens_per_slice=600, T=2,
                          planted_changes=[planted(change_slice=1)])
        result = generate(spec)
        write_synth_corpus(result, tmp_path)
        manifest = (tmp_path / "manifest.tsv").read_text().splitlines()
        total_docs = sum(len(d) for d in result.raw_slices)
        assert len(manifest) == total_docs
        ts, rel = manifest[0].split("\t")
        assert ts == "2000-01-01"
        assert (tmp_path / rel).exists()
        truth = (tmp_path / "truth.csv").read_text().splitlines()
        assert truth[0] == "word,change_slice"
        assert truth[1] == "w0059,1"


def test_word_names_are_padded_and_unique():
    names = word_names(500)
    assert len(set(names)) == 500
    assert names[0] == "w0000" and names[499] == "w0499"
