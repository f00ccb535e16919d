import math

import numpy as np
import pytest

import driftvec
from driftvec.analysis import (DriftSeries, directedness, drift_histogram, drift_series,
                               evaluate_lpos, format_lpos_report, stability_fraction,
                               write_drift_csv, write_histogram_csv)
from driftvec.errors import DataError, EmptyCorpusError
from driftvec.shrinkreg import word_drifts

from conftest import toy_corpus


def series_from_columns(columns, reference_slice=0):
    values = np.column_stack(columns)
    return DriftSeries(reference_slice=reference_slice, values=values)


class TestComputeDrift:
    def test_identical_matrices(self):
        U = np.ones((4, 3))
        assert not word_drifts(U, U.copy()).any()

    def test_pythagorean(self):
        U0 = np.zeros((1, 2))
        Ut = np.array([[3.0, 4.0]])
        assert word_drifts(Ut, U0)[0] == pytest.approx(5.0, abs=1e-15)

    def test_scalar_loop_oracle(self, rng):
        Ut = rng.normal(size=(7, 3))
        U0 = rng.normal(size=(7, 3))
        got = word_drifts(Ut, U0)
        for i in range(7):
            expected = math.sqrt(sum((Ut[i][k] - U0[i][k]) ** 2 for k in range(3)))
            assert got[i] == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_shared_rotation(self, rng):
        # a random orthogonal rotation applied to both matrices
        Ut = rng.normal(size=(5, 3))
        U0 = rng.normal(size=(5, 3))
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        np.testing.assert_allclose(word_drifts(Ut @ Q, U0 @ Q),
                                   word_drifts(Ut, U0), atol=1e-9)

    @pytest.mark.parametrize("norm", [driftvec.word_drifts, word_drifts])
    def test_shape_mismatch_raises_through_both_names(self, norm):
        # the package export and the module function; (1, 3) would broadcast
        # against (4, 3), so it must raise instead
        with pytest.raises(ValueError, match="share a shape"):
            norm(np.ones((4, 3)), np.zeros((1, 3)))


class TestDriftSeries:
    def test_reference_column_is_zero(self, rng):
        mats = [rng.normal(size=(3, 2)) for _ in range(4)]
        series = drift_series(mats, reference_slice=1)
        assert not series.values[:, 1].any()
        assert series.target_slices == [0, 2, 3]

    def test_values_nonnegative(self, rng):
        mats = [rng.normal(size=(3, 2)) for _ in range(3)]
        series = drift_series(mats, 0)
        assert (series.values >= 0).all()


class TestHistogram:
    def test_single_word_single_target(self):
        series = series_from_columns([[0.0], [2.5]])
        hist = drift_histogram(series, bins=4)
        counts = hist.counts[1]
        assert counts.sum() == 1
        assert (counts > 0).sum() == 1

    def test_all_zero_drifts_land_in_first_bin(self):
        series = series_from_columns([np.zeros(5), np.zeros(5)])
        hist = drift_histogram(series, bins=7)
        assert hist.counts[1][0] == 5
        assert hist.counts[1][1:].sum() == 0

    def test_counts_conserve_vocabulary(self, rng):
        values = np.abs(rng.normal(size=(50, 4)))
        values[:, 0] = 0.0
        series = DriftSeries(reference_slice=0, values=values)
        hist = drift_histogram(series, bins=6)
        for t in (1, 2, 3):
            assert hist.counts[t].sum() == 50

    def test_shared_edges(self, rng):
        values = np.abs(rng.normal(size=(10, 3)))
        values[:, 0] = 0.0
        hist = drift_histogram(DriftSeries(0, values), bins=5)
        assert len(hist.bin_edges) == 6
        assert hist.bin_edges[0] == pytest.approx(values[:, 1:].min())
        assert hist.bin_edges[-1] == pytest.approx(values[:, 1:].max())


class TestDirectedness:
    def test_strictly_increasing(self):
        series = series_from_columns([np.zeros(3), np.full(3, 1.0),
                                      np.full(3, 2.0), np.full(3, 3.0)])
        assert directedness(series) == 1.0

    def test_constant_is_zero(self):
        series = series_from_columns([np.zeros(3)] + [np.full(3, 2.0)] * 3)
        assert directedness(series) == 0.0

    def test_hand_enumerated_pairs(self):
        # mean drifts (1, 3, 2): concordant 2, discordant 1, pairs 3
        series = series_from_columns([np.zeros(1), [1.0], [3.0], [2.0]])
        assert directedness(series) == pytest.approx((2 - 1) / 3)

    def test_too_few_targets(self):
        series = series_from_columns([np.zeros(2), np.ones(2)])
        with pytest.raises(DataError):
            directedness(series)

    def test_word_subset(self):
        values = np.array([[0.0, 1.0, 2.0, 3.0],
                           [0.0, 3.0, 2.0, 1.0]])
        series = DriftSeries(0, values)
        assert directedness(series, word_ids=[0]) == 1.0
        assert directedness(series, word_ids=[1]) == -1.0


class TestStability:
    def test_all_equal_drifts(self):
        series = series_from_columns([np.zeros(4), np.full(4, 2.0)])
        assert stability_fraction(series, 1, 0.5) == 0.0

    def test_one_mover_nine_stable(self):
        col = np.array([10.0] + [0.0] * 9)
        series = series_from_columns([np.zeros(10), col])
        assert stability_fraction(series, 1, 0.5) == pytest.approx(0.9)


class TestEvaluateLpos:
    def test_zero_embeddings_give_log_half(self):
        vocab, corpus = toy_corpus([["a b c"], ["c a"]])
        Z = [np.zeros((vocab.size, 4))] * 2
        per_slice, mean = evaluate_lpos(corpus, Z, Z, window=2)
        for v in per_slice:
            assert v == pytest.approx(-math.log(2), abs=1e-12)
        assert mean == pytest.approx(-math.log(2), abs=1e-12)

    def test_slice_without_pairs_warns_and_scores_zero(self):
        vocab, corpus = toy_corpus([["a b c"], ["c"]])
        Z = [np.zeros((vocab.size, 2))] * 2
        with pytest.warns(UserWarning, match="slice 1 has no held-out pairs"):
            per_slice, _ = evaluate_lpos(corpus, Z, Z, window=1)
        assert per_slice == [pytest.approx(-math.log(2)), 0.0]

    def test_mean_leaves_out_slices_without_pairs(self):
        # the empty slice's 0.0 would count as a perfect score
        vocab, corpus = toy_corpus([["c"], ["a b c"], ["b"], ["c a"]])
        Z = [np.zeros((vocab.size, 2))] * 4
        with pytest.warns(UserWarning) as caught:
            per_slice, mean = evaluate_lpos(corpus, Z, Z, window=1)
        assert [str(w.message) for w in caught] == ["slice 0 has no held-out pairs",
                                                     "slice 2 has no held-out pairs"]
        assert per_slice == [0.0, pytest.approx(-math.log(2)), 0.0,
                             pytest.approx(-math.log(2))]
        assert mean == pytest.approx(-math.log(2), abs=1e-12)

    def test_no_slice_with_pairs_is_a_data_error(self):
        vocab, corpus = toy_corpus([["a"], ["b", "c"]])
        Z = [np.zeros((vocab.size, 2))] * 2
        with pytest.raises(EmptyCorpusError, match="^no slice has held-out pairs$"):
            evaluate_lpos(corpus, Z, Z, window=1)

    def test_deterministic_bitwise(self, rng):
        vocab, corpus = toy_corpus([["a b c d"] * 5, ["d c b a"] * 5])
        U = [rng.normal(size=(vocab.size, 3)) for _ in range(2)]
        V = [rng.normal(size=(vocab.size, 3)) for _ in range(2)]
        r1 = evaluate_lpos(corpus, U, V, window=2)
        r2 = evaluate_lpos(corpus, U, V, window=2)
        assert r1 == r2

    def test_never_positive(self, rng):
        vocab, corpus = toy_corpus([["a b c d e"] * 4])
        for _ in range(5):
            U = [rng.normal(size=(vocab.size, 3)) * 4]
            V = [rng.normal(size=(vocab.size, 3)) * 4]
            per_slice, mean = evaluate_lpos(corpus, U, V, window=3)
            assert mean <= 0 and all(v <= 0 for v in per_slice)

    def test_slice_count_mismatch(self):
        vocab, corpus = toy_corpus([["a b"], ["b a"]])
        with pytest.raises(ValueError):
            evaluate_lpos(corpus, [np.zeros((vocab.size, 2))],
                          [np.zeros((vocab.size, 2))], window=1)


class TestReports:
    def test_lpos_report_four_decimals(self):
        text = format_lpos_report([-0.69314718, -1.23456789], -0.96385753)
        lines = text.splitlines()
        assert lines[0] == "slice\tlpos"
        assert lines[1] == "0\t-0.6931"
        assert lines[2] == "1\t-1.2346"
        assert lines[3] == "mean\t-0.9639"

    def test_drift_csv(self, tmp_path, rng):
        mats = [rng.normal(size=(2, 2)) for _ in range(2)]
        series = drift_series(mats, 0)
        path = tmp_path / "drift.csv"
        write_drift_csv(series, ["wa", "wb"], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "word,t,drift"
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("wa,0,")

    def test_histogram_csv(self, tmp_path):
        series = series_from_columns([np.zeros(3), np.array([1.0, 2.0, 3.0])])
        hist = drift_histogram(series, bins=2)
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,t,count"
        counts = [int(line.split(",")[-1]) for line in lines[1:]]
        assert sum(counts) == 3
