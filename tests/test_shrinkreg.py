import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftvec.shrinkreg import (RegConfig, drift_regularizer,
                                drift_regularizer_grad, hardshrink,
                                resolve_beta, word_drifts)

from test_sgns import finite_difference


class TestHardshrink:
    def test_dead_zone(self):
        assert hardshrink(0.5, 1.0) == 0.0

    def test_positive_branch(self):
        assert hardshrink(2.0, 1.0) == 2.0

    def test_negative_branch_flips_sign(self):
        assert hardshrink(-2.0, 1.0) == 2.0

    def test_boundary_is_inside_dead_zone(self):
        assert hardshrink(1.0, 1.0) == 0.0
        assert hardshrink(-1.0, 1.0) == 0.0

    @given(st.floats(-1.0, 1.0), st.floats(1.0, 5.0))
    def test_dead_zone_is_exact(self, x, beta):
        assert hardshrink(x, beta) == 0.0

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    def test_nonnegative_on_norms(self, x, beta):
        assert hardshrink(x, beta) >= 0.0

    def test_elementwise_on_arrays(self):
        out = hardshrink(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]), 1.0)
        np.testing.assert_array_equal(out, [2.0, 0.0, 0.0, 0.0, 2.0])


class TestDriftRegularizer:
    def test_zero_drift(self):
        U = np.ones((3, 2))
        assert drift_regularizer(U, U.copy(), alpha=1.0, beta=0.5) == 0.0

    def test_alpha_zero(self, rng):
        U = rng.normal(size=(3, 2))
        R = rng.normal(size=(3, 2))
        assert drift_regularizer(U, R, alpha=0.0, beta=0.0) == 0.0

    def test_hand_evaluated_instance(self):
        # three words with drifts 0.2, 1.5 and 3.0
        ref = np.zeros((3, 2))
        cur = np.array([[0.2, 0.0], [1.5, 0.0], [0.0, 3.0]])
        value = drift_regularizer(cur, ref, alpha=0.5, beta=1.0)
        assert value == pytest.approx(0.5 * (0.0 + 1.5 + 3.0), abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(10):
            cur = rng.normal(size=(5, 3))
            ref = rng.normal(size=(5, 3))
            assert drift_regularizer(cur, ref, 0.3, 0.7) >= 0.0


class TestGradient:
    def test_zero_inside_dead_zone(self):
        ref = np.zeros((2, 2))
        cur = np.array([[0.1, 0.1], [0.0, 0.2]])
        grad = drift_regularizer_grad(cur, ref, alpha=1.0, beta=1.0)
        assert not grad.any()

    def test_unit_direction_above_threshold(self):
        ref = np.zeros((1, 2))
        cur = np.array([[3.0, 4.0]])   # drift 5
        grad = drift_regularizer_grad(cur, ref, alpha=2.0, beta=1.0)
        np.testing.assert_allclose(grad, [[2.0 * 3.0 / 5.0, 2.0 * 4.0 / 5.0]])

    def test_matches_finite_differences_away_from_kink(self, rng):
        ref = rng.normal(size=(4, 3))
        cur = ref + rng.normal(size=(4, 3))
        beta = 0.2  # all drifts comfortably above or below
        drifts = word_drifts(cur, ref)
        assert np.abs(drifts - beta).min() > 0.05
        grad = drift_regularizer_grad(cur, ref, alpha=0.7, beta=beta)
        fd = finite_difference(lambda: drift_regularizer(cur, ref, 0.7, beta), cur)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)


class TestRegConfig:
    def test_mean_sentinel(self):
        cfg = RegConfig(alpha=0.5, beta="mean")
        assert resolve_beta(cfg, np.array([1.0, 2.0, 3.0])) == 2.0

    def test_fixed_beta(self):
        cfg = RegConfig(alpha=0.5, beta=0.25)
        assert resolve_beta(cfg, np.array([1.0, 9.0])) == 0.25

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            RegConfig(alpha=-1.0)

    def test_rejects_unknown_sentinel(self):
        with pytest.raises(ValueError):
            RegConfig(alpha=0.1, beta="median")
