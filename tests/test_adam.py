import numpy as np
import pytest

from driftvec.adam import BETA1, BETA2, EPSILON, AdamState, adam_step, adam_step_rows
from driftvec.errors import NumericalError


def test_zero_gradient_leaves_params_unchanged():
    params = np.array([[1.0, 2.0], [3.0, 4.0]])
    state = AdamState.for_shape(params.shape)
    adam_step(params, np.zeros_like(params), state, 0.1)
    np.testing.assert_array_equal(params, [[1.0, 2.0], [3.0, 4.0]])
    assert state.step_count == 1


def test_first_step_magnitude():
    # hand evaluation of the bias-corrected recurrence: with g=1,
    # mhat=1, vhat=1, so the step is lr * 1/(1+eps) ~ lr
    params = np.zeros((1, 1))
    state = AdamState.for_shape((1, 1))
    adam_step(params, np.ones((1, 1)), state, 0.1)
    assert params[0, 0] == pytest.approx(0.1 * 1.0 / (1.0 + 1e-8), abs=1e-12)


def test_minimizes_quadratic():
    # 1000 steps on f(x) = x^2 from x=5; caller passes -grad(f) for descent
    x = np.full((1, 1), 5.0)
    state = AdamState.for_shape((1, 1))
    for _ in range(1000):
        adam_step(x, -2.0 * x, state, 0.1)
    assert abs(x[0, 0]) < 1e-2
    assert state.step_count == 1000


def test_deterministic_bitwise():
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=(4, 3)) for _ in range(50)]
    outs = []
    for _ in range(2):
        params = np.zeros((4, 3))
        state = AdamState.for_shape((4, 3))
        for g in grads:
            adam_step(params, g, state, 0.05)
        outs.append(params.copy())
    np.testing.assert_array_equal(outs[0], outs[1])


def test_nan_gradient_names_matrix():
    params = np.zeros((2, 2))
    state = AdamState.for_shape((2, 2))
    bad = np.array([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericalError, match="word_matrix"):
        adam_step(params, bad, state, 0.1, name="word_matrix")


@pytest.mark.parametrize("rows", [None, [1]], ids=["dense", "rows"])
def test_overflow_names_matrix(rows):
    # a finite gradient whose square overflows the second moment
    params, grad = np.zeros((2, 2)), np.full((2, 2), 1e200)
    state = AdamState.for_shape((2, 2))
    with pytest.raises(NumericalError, match="overflow in the Adam step of parameter matrix 'U'"):
        if rows is None:
            adam_step(params, grad, state, 0.1, name="U")
        else:
            adam_step_rows(params, np.array(rows), grad[rows], state, 0.1, name="U")


def test_dense_step_matches_textbook_form():
    # the in-place step must give the same bits as the plain expression
    rng = np.random.default_rng(8)
    params = rng.normal(size=(7, 3))
    reference = params.copy()
    state = AdamState.for_shape((7, 3))
    m, v = np.zeros((7, 3)), np.zeros((7, 3))
    lr, b1, b2, eps = 0.05, BETA1, BETA2, EPSILON
    for t in range(1, 6):
        grad = rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-8, 8, size=(7, 3))
        adam_step(params, grad, state, lr)
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        reference += lr * mhat / (np.sqrt(vhat) + eps)
        np.testing.assert_array_equal(params, reference)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)


class TestRowUpdates:
    def test_matches_dense_on_touched_rows(self):
        rng = np.random.default_rng(3)
        L, d = 6, 4
        dense = rng.normal(size=(L, d))
        sparse = dense.copy()
        state_dense = AdamState.for_shape((L, d))
        state_sparse = AdamState.for_shape((L, d))
        rows = np.array([1, 4])
        grad = rng.normal(size=(2, d))
        full = np.zeros((L, d))
        full[rows] = grad
        adam_step(dense, full, state_dense, 0.1)
        adam_step_rows(sparse, rows, grad, state_sparse, 0.1)
        # untouched rows decay nothing under the lazy scheme, but with
        # zero prior moments the dense update leaves them unchanged too
        np.testing.assert_allclose(sparse, dense, atol=1e-15)

    def test_every_row_touched_equals_dense_bitwise(self):
        # the lazy step runs the dense update body, so with every row
        # touched (in any order) it gives the dense step's bits, moments
        # included, step after step
        rng = np.random.default_rng(6)
        L, d = 9, 5
        dense = rng.normal(size=(L, d))
        sparse = dense.copy()
        state_dense = AdamState.for_shape((L, d))
        state_sparse = AdamState.for_shape((L, d))
        for _ in range(6):
            grad = rng.normal(size=(L, d)) * 10.0 ** rng.integers(-6, 6, size=(L, d))
            rows = rng.permutation(L)
            adam_step(dense, grad, state_dense, 0.05)
            adam_step_rows(sparse, rows, grad[rows], state_sparse, 0.05)
            np.testing.assert_array_equal(sparse, dense)
            np.testing.assert_array_equal(state_sparse.m, state_dense.m)
            np.testing.assert_array_equal(state_sparse.v, state_dense.v)
        assert state_sparse.step_count == state_dense.step_count == 6
        assert state_dense.m.any() and state_dense.v.any()

    def test_untouched_rows_bit_identical(self):
        rng = np.random.default_rng(4)
        params = rng.normal(size=(5, 3))
        before = params.copy()
        state = AdamState.for_shape((5, 3))
        for _ in range(7):
            adam_step_rows(params, np.array([0, 2]), rng.normal(size=(2, 3)),
                           state, 0.1)
        np.testing.assert_array_equal(params[[1, 3, 4]], before[[1, 3, 4]])
        assert not np.array_equal(params[[0, 2]], before[[0, 2]])
        assert state.step_count == 7
