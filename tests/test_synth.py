from collections import Counter

import numpy as np
import pytest

from driftvec.synth import PlantedChange, SynthSpec, generate, word_names, write_synth_corpus


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
