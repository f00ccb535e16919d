import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftvec.adam import AdamState, save_adam_state
from driftvec import sgns
from driftvec.errors import DataError
from driftvec.sgns import (LPOS_BLOCK, TrainConfig, load_embedding_text, save_embedding_text,
                           batch_grad_rows, mean_lpos, sigmoid, log_sigmoid, touched_rows)

from conftest import make_batch
from reference import sgns_gradients, sgns_log_likelihood


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    @pytest.mark.parametrize("x", [-3.0, 1.7, 40.0])
    def test_reflection_identity(self, x):
        assert sigmoid(x) == pytest.approx(1.0 - sigmoid(-x), abs=1e-15)

    def test_large_argument_against_extended_precision(self):
        # 50-digit oracle for the stable branch; the true value lies in
        # (1 - 1e-17, 1), below float64 resolution, so the double result
        # must be its correct rounding (exactly 1.0) with no overflow
        mpmath.mp.dps = 50
        exact = 1 / (1 + mpmath.e ** -40)
        assert mpmath.mpf(1) - mpmath.mpf("1e-17") < exact < 1
        got = sigmoid(40.0)
        assert got == float(exact) == 1.0
        # log-sigmoid keeps the sub-resolution tail and must match the oracle
        assert log_sigmoid(40.0) == pytest.approx(float(mpmath.log(exact)), rel=1e-12)

    def test_no_overflow_far_out(self):
        assert sigmoid(-750.0) == 0.0
        assert sigmoid(750.0) == 1.0
        assert log_sigmoid(-750.0) == -750.0

    def test_bits_equal_the_two_branch_form(self):
        # reference: 1/(1+exp(-x)) on x >= 0 and exp(x)/(1+exp(x))
        # elsewhere, each branch evaluated on its own masked entries
        far = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 709.8, -709.8,
               36.7, -36.7, np.inf, -np.inf, np.nan, -np.nan]
        tiny = [5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308]
        x = np.concatenate([far, tiny, np.linspace(-800.0, 800.0, 4001),
                            np.geomspace(1e-320, 1e3, 500) * [[1.0], [-1.0]]],
                           axis=None)
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        got = sigmoid(x)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
        for v, e in zip(x[:len(far) + len(tiny)], expected):
            got = sigmoid(v)
            assert type(got) is float
            assert np.float64(got).view(np.uint64) == e.view(np.uint64)


class TestLogLikelihood:
    def test_single_positive_zero_dot(self):
        U = np.zeros((2, 3))
        V = np.zeros((2, 3))
        total, lpos = sgns_log_likelihood(make_batch([0], [1], [1]), U, V)
        assert total == pytest.approx(-math.log(2), abs=1e-15)
        assert lpos == total

    def test_positive_plus_negative_zero_dots(self):
        U = np.zeros((2, 3))
        V = np.zeros((2, 3))
        total, lpos = sgns_log_likelihood(make_batch([0, 0], [1, 1], [1, 0]), U, V)
        assert total == pytest.approx(-2 * math.log(2), abs=1e-15)
        assert lpos == pytest.approx(-math.log(2), abs=1e-15)

    def test_matches_scalar_loop_oracle(self, rng):
        L, d = 6, 3
        U = rng.normal(size=(L, d))
        V = rng.normal(size=(L, d))
        batch = make_batch(rng.integers(0, L, 5), rng.integers(0, L, 5),
                           [1, 0, 1, 1, 0])
        total, lpos = sgns_log_likelihood(batch, U, V)
        # independent scalar re-implementation
        expected = 0.0
        expected_pos = 0.0
        for c, x, y in zip(*batch):
            dot = sum(U[c][k] * V[x][k] for k in range(d))
            term = math.log(1 / (1 + math.exp(-dot))) if y == 1 else \
                math.log(1 / (1 + math.exp(dot)))
            expected += term
            if y == 1:
                expected_pos += term
        assert total == pytest.approx(expected, abs=1e-12)
        assert lpos == pytest.approx(expected_pos, abs=1e-12)

    def test_never_positive(self, rng):
        for _ in range(20):
            L, d = 5, 4
            U = rng.normal(size=(L, d)) * 3
            V = rng.normal(size=(L, d)) * 3
            n = int(rng.integers(1, 12))
            batch = make_batch(rng.integers(0, L, n), rng.integers(0, L, n),
                               rng.integers(0, 2, n))
            total, lpos = sgns_log_likelihood(batch, U, V)
            assert total <= 0
            assert lpos <= 0


def finite_difference(f, x, step=1e-5):
    """Central finite differences of a scalar function over an array."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f()
        x[idx] = orig - step
        lo = f()
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * step)
        it.iternext()
    return grad


class TestGradients:
    def test_empty_batch(self):
        U = np.ones((3, 2))
        V = np.ones((3, 2))
        gU, gV = sgns_gradients(make_batch([], [], []), U, V)
        assert not gU.any() and not gV.any()

    def test_single_pair_half_context(self):
        # sigma(0) = 0.5, so the positive-pair gradient is 0.5 * v_j
        U = np.zeros((2, 3))
        V = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -1.0]])
        gU, gV = sgns_gradients(make_batch([0], [1], [1]), U, V)
        np.testing.assert_allclose(gU[0], 0.5 * V[1])
        np.testing.assert_allclose(gV[1], 0.5 * U[0])

    def test_matches_finite_differences(self, rng):
        L, d, n = 6, 4, 10
        U = rng.normal(size=(L, d))
        V = rng.normal(size=(L, d))
        batch = make_batch(rng.integers(0, L, n), rng.integers(0, L, n),
                           rng.integers(0, 2, n))
        gU, gV = sgns_gradients(batch, U, V)
        fdU = finite_difference(lambda: sgns_log_likelihood(batch, U, V)[0], U)
        fdV = finite_difference(lambda: sgns_log_likelihood(batch, U, V)[0], V)
        np.testing.assert_allclose(gU, fdU, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(gV, fdV, rtol=1e-4, atol=1e-7)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_row_compact_path_matches_dense(self, data):
        self.check_row_compact_path(data)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_row_compact_path_matches_dense_in_small_blocks(self, data):
        # blocks of 3 pairs: most batches are scored in several blocks
        # and summed a few columns at a time, one column once 3 * d < n
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sgns, "LPOS_BLOCK", 3)
            self.check_row_compact_path(data)

    @staticmethod
    def check_row_compact_path(data):
        # the compact rows are the bits of the np.add.at path: both sum
        # each row's contributions in pair order, starting from 0.0
        L = data.draw(st.integers(1, 12), label="L")
        d = data.draw(st.integers(1, 6), label="d")
        n = data.draw(st.integers(1, 40), label="n")
        ids = st.lists(st.integers(0, L - 1), min_size=n, max_size=n)
        centers = data.draw(ids, label="centers")
        contexts = data.draw(ids, label="contexts")
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                           label="labels")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0]), label="scale")
        rng = np.random.default_rng(seed)
        U = rng.normal(size=(L, d)) * scale
        V = rng.normal(size=(L, d)) * scale
        batch = make_batch(centers, contexts, labels)
        gU, gV = sgns_gradients(batch, U, V)
        u_rows, gU_rows, v_rows, gV_rows, total, lpos = batch_grad_rows(*batch, U, V)
        assert (total, lpos) == sgns_log_likelihood(batch, U, V)
        np.testing.assert_array_equal(u_rows, np.unique(centers))
        np.testing.assert_array_equal(v_rows, np.unique(contexts))
        np.testing.assert_array_equal(gU_rows, gU[u_rows])
        np.testing.assert_array_equal(gV_rows, gV[v_rows])
        untouched = np.setdiff1d(np.arange(L), u_rows)
        assert not gU[untouched].any()

    @pytest.mark.parametrize("d", [1, 7, 64])
    def test_blocked_bits_equal_one_block(self, rng, monkeypatch, d):
        # d = 1 sums one column at a time even at the full block size
        L, n = 500, 3 * LPOS_BLOCK + 17
        U = rng.normal(size=(L, d))
        V = rng.normal(size=(L, d))
        batch = make_batch(rng.integers(0, L, n), rng.integers(0, L, n), rng.integers(0, 2, n))
        blocked = batch_grad_rows(*batch, U, V)
        monkeypatch.setattr(sgns, "LPOS_BLOCK", n)
        whole = batch_grad_rows(*batch, U, V)
        for got, want in zip(blocked, whole):
            got, want = np.asarray(got), np.asarray(want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad, error", [([0, 5], IndexError), ([-1, 0], ValueError)])
    def test_out_of_range_ids_are_an_error(self, bad, error):
        # the gathers clip, so these checks are all that stops a wrong row
        U = np.ones((5, 2))
        ok = [0, 1]
        for centers, contexts in ((bad, ok), (ok, bad)):
            with pytest.raises(error):
                batch_grad_rows(*make_batch(centers, contexts, [1, 0]), U, U)

    def test_touched_rows_equal_unique(self, rng):
        for n_rows, n in ((1, 1), (7, 3), (50, 200), (1000, 64)):
            ids = rng.integers(0, n_rows, n)
            rows, inverse = touched_rows(ids, n_rows)
            want_rows, want_inverse = np.unique(ids, return_inverse=True)
            np.testing.assert_array_equal(rows, want_rows)
            np.testing.assert_array_equal(inverse, want_inverse)

    def test_scratch_memory_of_a_large_batch(self, rng):
        # at most two n x d blocks may be alive at once (the scaled
        # contributions and the scatter's flat index), plus O(n) arrays;
        # holding both gathered sides through a scatter would need three
        L, n, d = 4000, 32768, 64
        U = rng.normal(size=(L, d))
        V = rng.normal(size=(L, d))
        centers = rng.integers(0, L, n)
        contexts = rng.integers(0, L, n)
        labels = rng.integers(0, 2, n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = batch_grad_rows(centers, contexts, labels, U, V)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        del result
        assert peak <= 2.5 * n * d * 8

    def test_scratch_of_a_large_batch_is_bounded_by_the_block(self, rng):
        # the two gather buffers hold LPOS_BLOCK x d values each, however
        # many pairs there are; two n x d blocks would take 32 MiB here
        L, n, d = 4000, 32768, 64
        U = rng.normal(size=(L, d))
        V = rng.normal(size=(L, d))
        batch = make_batch(rng.integers(0, L, n), rng.integers(0, L, n), rng.integers(0, 2, n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = batch_grad_rows(*batch, U, V)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in result[:4])
        assert peak <= outputs + 12 * n * 8 + 2 * LPOS_BLOCK * d * 8


class TestMeanLpos:
    @pytest.mark.parametrize("n", [1, LPOS_BLOCK - 1, LPOS_BLOCK, 3 * LPOS_BLOCK + 17])
    @pytest.mark.parametrize("d", [7, 25, 64])
    def test_bits_equal_one_full_gather(self, rng, n, d):
        L = 300
        U = rng.normal(size=(L, d))
        V = rng.normal(size=(L, d))
        centers = rng.integers(0, L, n)
        contexts = rng.integers(0, L, n)
        scores = np.einsum("ij,ij->i", U[centers], V[contexts])
        expected = float(np.mean(-np.logaddexp(0.0, -scores)))
        got = mean_lpos((centers, contexts), U, V)
        assert np.float64(got).view(np.uint64) == np.float64(expected).view(np.uint64)

    def test_scratch_memory_is_bounded_by_the_block(self, rng):
        # a single gather over all pairs would take 2 * n * d * 8 bytes
        n, d, L = 30_000, 64, 2000
        U = rng.normal(size=(L, d))
        V = rng.normal(size=(L, d))
        centers = rng.integers(0, L, n)
        contexts = rng.integers(0, L, n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mean_lpos((centers, contexts), U, V)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * LPOS_BLOCK * d * 8 + 4 * n * 8


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.dim == 100 and cfg.epochs == 100

    @pytest.mark.parametrize("kwargs", [
        {"dim": 0}, {"epochs": 0}, {"learning_rate": 0.0}, {"window": 0},
        {"negative_ratio": 0}, {"batch_size": 0}, {"seed": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestTextFormat:
    def test_round_trip_preserves_exact_values(self, tmp_path, rng):
        words = ["alpha", "beta", "gamma"]
        matrix = rng.normal(size=(3, 5))
        path = tmp_path / "vecs.txt"
        save_embedding_text(path, words, matrix)
        loaded_words, loaded = load_embedding_text(path)
        assert loaded_words == words
        np.testing.assert_array_equal(loaded, matrix)  # %.17g is exact

    def test_header_format(self, tmp_path):
        path = tmp_path / "vecs.txt"
        save_embedding_text(path, ["a"], np.array([[1.0, 2.0]]))
        first = path.read_text().splitlines()[0]
        assert first == "1 2"

    def test_word_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            save_embedding_text(tmp_path / "x.txt", ["a", "b"], np.ones((1, 2)))

    def test_writers_match_per_element_formatting(self, tmp_path, rng):
        # random, tiny (subnormal), huge and signed-zero values must come
        # out exactly as formatting each numpy scalar with "%.17g" would
        matrix = np.concatenate([
            rng.normal(size=(3, 4)),
            [[5e-324, -2.2250738585072014e-308, 1e-300, 1.5e-310]],
            [[1.7976931348623157e308, -1e300, 1e22, 123456789012345680.0]],
            [[-0.0, 0.0, -0.0, 1.0]],
        ])
        words = [f"w{i}" for i in range(len(matrix))]

        def per_element(mat):
            return [" ".join("%.17g" % v for v in row) for row in mat]

        path = tmp_path / "vecs.txt"
        save_embedding_text(path, words, matrix)
        expected = [f"{len(words)} 4"] + [
            w + " " + line for w, line in zip(words, per_element(matrix))]
        assert path.read_text().split("\n") == expected + [""]

        state = AdamState(m=matrix, v=np.abs(matrix[::-1]), step_count=3)
        path = tmp_path / "adam.txt"
        save_adam_state(state, path)
        lines = path.read_text().split("\n")
        assert lines[1:] == per_element(state.m) + per_element(state.v) + [""]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=12),
           st.sampled_from(["%.17g", "%r", "%.6e", "%g", "%.3f"]))
    def test_parsed_values_are_the_bits_of_float(self, tmp_path_factory,
                                                 values, form):
        values += [5e-324, -0.0, 1e300, -2.2250738585072014e-308]
        tokens = [form % v for v in values]
        path = tmp_path_factory.mktemp("vec") / "vecs.txt"
        path.write_text(f"2 {len(tokens)}\na {' '.join(tokens)}\n"
                        f"b {' '.join(reversed(tokens))}\n")
        words, matrix = load_embedding_text(path)
        expected = np.array([[float(t) for t in tokens],
                             [float(t) for t in reversed(tokens)]])
        assert words == ["a", "b"]
        np.testing.assert_array_equal(matrix.view(np.uint64),
                                      expected.view(np.uint64))

    @pytest.mark.parametrize("content, where", [
        ("2 x\na 1\nb 2\n", ":1:"),
        ("2 1\na 1.5\nb one\n", ":3:"),
        ("1 2\na 1 nan(x)\n", ":2:"),
        # a column reader must not drop the fields beyond the header's d
        ("2 2\na 1 2\nb 3 4 5\n", ":3: 3 values in the row of 'b', expected 2"),
        ("2 2\na 1 2 9\nb 3 4 5\n", ":2: 3 values in the row of 'a', expected 2"),
        ("2 2\na 1\nb 3 4\n", ":2: 1 values in the row of 'a', expected 2"),
        ("3 2\na 1 2\nb 3 4\n", "bad.vec: ends after 2 of the header's 3 rows"),
        ("2 2\na 1 2\n\nb 3 4\n", ":3: blank line where row 2 of 2 belongs"),
        ("2 1\na 1\nb nan\n", ":3: non-finite value in the row of 'b'"),
        ("2 2\na -inf 1\nb 1 1\n", ":2: non-finite value in the row of 'a'"),
        ("1 1\na 1e999\n", ":2: non-finite"),
        ("1 2\na 1 2\nb 3 4\n", ":3: more rows than the header's count of 1"),
        ("0 2\n\n\na 1 2\n", ":4: more rows than the header's count of 0"),
    ])
    def test_malformed_text_is_a_data_error(self, tmp_path, content, where):
        path = tmp_path / "bad.vec"
        path.write_text(content)
        with pytest.raises(DataError, match=where):
            load_embedding_text(path)

    def test_blank_lines_after_the_rows_are_ignored(self, tmp_path):
        path = tmp_path / "vecs.vec"
        path.write_text("1 2\na 1 2\n\n  \n")
        words, matrix = load_embedding_text(path)
        assert words == ["a"]
        np.testing.assert_array_equal(matrix, [[1.0, 2.0]])
