import math

import numpy as np
import pytest

from driftvec import dbe as dbe_mod
from driftvec import isg as isg_mod
from driftvec.corpus import TimeSlicedCorpus
from driftvec.dbe import (DbeParams, _round_robin, dbe_prior,
                          dbe_prior_grads, sweep_prior_grads, train_dbe)
from driftvec.errors import NumericalError
from driftvec.inits import init_random
from driftvec.sgns import TrainConfig, batch_grad_rows
from driftvec.shrinkreg import RegConfig

from conftest import make_batch, toy_corpus
from reference import dbe_loss, drift_regularizer, sgns_gradients
from test_sgns import finite_difference


def small_config(**kwargs):
    base = dict(dim=6, window=1, negative_ratio=1, learning_rate=0.1,
                epochs=6, batch_size=128, seed=0)
    base.update(kwargs)
    return TrainConfig(**base)


class TestPrior:
    def test_all_zero_parameters(self):
        U_all = [np.zeros((2, 3)) for _ in range(4)]
        assert dbe_prior(U_all, np.zeros((2, 3)), DbeParams()) == 0.0

    def test_hand_evaluated_instance(self):
        # single word, d=2, v=(1,0), base precision 0.01, one slice of zeros
        V = np.array([[1.0, 0.0]])
        U_all = [np.zeros((1, 2))]
        value = dbe_prior(U_all, V, DbeParams(drift_precision=1.0,
                                              base_precision=0.01))
        assert value == pytest.approx(-0.005, abs=1e-12)

    def test_identical_slices_have_no_drift_penalty(self, rng):
        U = rng.normal(size=(3, 2))
        U_all = [U.copy() for _ in range(5)]
        V = rng.normal(size=(3, 2))
        weak = dbe_prior(U_all, V, DbeParams(drift_precision=1e-6))
        strong = dbe_prior(U_all, V, DbeParams(drift_precision=1e6))
        assert weak == strong  # drift term contributes exactly zero

    def test_nonpositive_and_zero_iff_all_zero(self, rng):
        for _ in range(10):
            U_all = [rng.normal(size=(3, 2)) for _ in range(3)]
            V = rng.normal(size=(3, 2))
            value = dbe_prior(U_all, V, DbeParams())
            assert value < 0.0
        assert dbe_prior([np.zeros((3, 2))] * 3, np.zeros((3, 2)), DbeParams()) == 0.0


class TestLoss:
    def test_zero_data_zero_parameters(self):
        U_all = [np.zeros((2, 2))]
        total, like, lpos, prior = dbe_loss([], U_all, np.zeros((2, 2)), DbeParams())
        assert total == like == lpos == prior == 0.0

    def test_single_positive_logit_zero(self):
        U_all = [np.zeros((2, 2)), np.ones((2, 2))]
        V = np.full((2, 2), 0.5)
        batch = make_batch([0], [1], [1])
        total, like, lpos, prior = dbe_loss([(0, batch)], U_all, V, DbeParams())
        assert like == pytest.approx(-math.log(2), abs=1e-12)
        assert total == pytest.approx(-math.log(2) + prior, abs=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        T, L, d = 3, 5, 3
        U_all = [rng.normal(size=(L, d)) for _ in range(T)]
        V = rng.normal(size=(L, d))
        params = DbeParams(drift_precision=0.8, base_precision=0.05)
        batches = []
        for t in range(T):
            n = 6
            batches.append(make_batch(rng.integers(0, L, n), rng.integers(0, L, n),
                                      rng.integers(0, 2, n)))

        def total():
            return dbe_loss(enumerate(batches), U_all, V, params)[0]

        gradU_prior, gradV_prior = dbe_prior_grads(U_all, V, params)
        for t in range(T):
            gU, gV_part = sgns_gradients(batches[t], U_all[t], V)
            analytic = gU + gradU_prior[t]
            fd = finite_difference(total, U_all[t])
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-7)
        analyticV = gradV_prior.copy()
        for t in range(T):
            _, gV = sgns_gradients(batches[t], U_all[t], V)
            analyticV += gV
        np.testing.assert_allclose(analyticV, finite_difference(total, V),
                                   rtol=1e-4, atol=1e-7)


class TestTraining:
    def test_single_slice_static_training(self):
        vocab, corpus = toy_corpus([["a b c d"] * 50])
        cfg = small_config(epochs=4)
        init = init_random(vocab.size, cfg.dim, 0, "dbe")
        model = train_dbe(corpus, vocab, init, DbeParams(), cfg)
        assert len(model.matrices["word"]) == 1
        assert np.isfinite(model.matrices["word"][0]).all()
        # with one slice the prior has no drift term at all
        assert model.prior_trace[-1] == pytest.approx(
            dbe_prior([model.matrices["word"][0]], model.matrices["context"][0],
                      DbeParams(drift_precision=123.0)), abs=1e-9)

    def test_identical_slices_drift_below_shuffled_control(self):
        # identical slices: any drift is pure sampling noise, which
        # saturates at a floor set by the learning rate. Control: relabel
        # every slice's tokens with an independent permutation, so every
        # word's context genuinely changes and the data term keeps
        # pushing the slices apart.
        rng = np.random.default_rng(0)
        base_docs = tuple(rng.integers(0, 30, size=10).astype(np.int64)
                          for _ in range(240))
        vocab, _ = toy_corpus([[" ".join(f"w{i}" for i in range(30))] * 2])
        identical = TimeSlicedCorpus(slices=(base_docs, base_docs, base_docs))
        shuffled_slices = [base_docs]
        for t in (1, 2):
            perm = np.random.default_rng(100 + t).permutation(30)
            shuffled_slices.append(tuple(perm[d].astype(np.int64) for d in base_docs))
        shuffled = TimeSlicedCorpus(slices=tuple(shuffled_slices))

        cfg = small_config(epochs=30, window=2, learning_rate=0.005)
        init = init_random(vocab.size, cfg.dim, 1, "dbe")
        params = DbeParams()
        U_a = train_dbe(identical, vocab, init, params, cfg).matrices["word"]
        U_b = train_dbe(shuffled, vocab, init, params, cfg).matrices["word"]
        drifts_a = np.linalg.norm(U_a[2] - U_a[0], axis=1)
        drifts_b = np.linalg.norm(U_b[2] - U_b[0], axis=1)
        assert drifts_a.max() < np.percentile(drifts_b, 10)

    def test_majority_of_words_stay_stable_on_identical_slices(self):
        # vocabulary of 60, but only the top 15 ever occur in the slices:
        # the scarce-data regime where most words are absent and the
        # random-walk prior keeps them exactly in place
        rng = np.random.default_rng(3)
        docs = tuple(rng.integers(0, 15, size=12).astype(np.int64) for _ in range(200))
        vocab, _ = toy_corpus([[" ".join(f"w{i}" for i in range(60))] * 2])
        corpus = TimeSlicedCorpus(slices=(docs, docs, docs))
        cfg = small_config(epochs=8, window=2)
        init = init_random(vocab.size, cfg.dim, 2, "dbe")
        U_all = train_dbe(corpus, vocab, init, DbeParams(), cfg).matrices["word"]
        drifts = np.linalg.norm(U_all[2] - U_all[0], axis=1)
        near_zero = (drifts < 0.1 * drifts.mean()).mean()
        assert near_zero > 0.5

    def test_rerun_bitwise_identical(self):
        vocab, corpus = toy_corpus([["a b c"] * 25, ["c b a"] * 25])
        cfg = small_config(epochs=3)
        init = init_random(vocab.size, cfg.dim, 5, "dbe")
        m1 = train_dbe(corpus, vocab, init, DbeParams(), cfg).matrices
        m2 = train_dbe(corpus, vocab, init, DbeParams(), cfg).matrices
        for t in range(2):
            np.testing.assert_array_equal(m1["word"][t], m2["word"][t])
        np.testing.assert_array_equal(m1["context"][0], m2["context"][0])

    def test_non_finite_loss_names_slice_epoch_and_sweep(self, monkeypatch):
        # dbe takes isg's row step, so the error places the minibatch as isg's does
        vocab, corpus = toy_corpus([["a b c"] * 25, ["c b a"] * 25])
        real, calls = isg_mod.batch_grad_rows, []

        def nan_on_fourth_call(*args):
            calls.append(None)
            *rows, loglik, lpos = real(*args)
            return (*rows, math.nan if len(calls) == 4 else loglik, lpos)

        monkeypatch.setattr(isg_mod, "batch_grad_rows", nan_on_fourth_call)
        cfg = small_config(epochs=1, batch_size=16)
        # sweeps 0 and 1 each take a minibatch of slice 0, then of slice 1
        with pytest.raises(NumericalError,
                           match=r"^non-finite loss at slice 1, epoch 0, batch 1$"):
            train_dbe(corpus, vocab, init_random(vocab.size, cfg.dim, 0, "dbe"),
                      DbeParams(), cfg)


class TestSweepSchedule:
    def test_round_robin_sweeps(self):
        sweeps = list(_round_robin([["a0", "a1", "a2"], [], ["c0"]]))
        assert sweeps == [[(0, "a0"), (2, "c0")], [(0, "a1")], [(0, "a2")]]

    def test_round_robin_reads_one_minibatch_at_a_time(self):
        # one-shot iterators of unequal length, one of them empty, give the
        # sweeps of lists; a slice's k-th batch is taken as sweep k is built
        taken = []

        def batches(t, n):
            for k in range(n):
                taken.append((t, k))
                yield f"{t}.{k}"

        sweeps = []
        for k, sweep in enumerate(_round_robin([batches(0, 3), batches(1, 0),
                                                batches(2, 1), batches(3, 2)])):
            assert max(j for _, j in taken) == k
            sweeps.append(sweep)
        assert sweeps == [[(0, "0.0"), (2, "2.0"), (3, "3.0")], [(0, "0.1"), (3, "3.1")],
                          [(0, "0.2")]]
        assert taken == [(0, 0), (2, 0), (3, 0), (0, 1), (3, 1), (0, 2)]
        lists = [["0.0", "0.1", "0.2"], [], ["2.0"], ["3.0", "3.1"]]
        assert list(_round_robin(lists)) == sweeps

    def test_sweep_weights_of_an_epoch_sum_to_one(self, monkeypatch):
        # unequal slices, so later sweeps cover fewer slices
        vocab, corpus = toy_corpus([["a b c d e f"] * 40, ["f e d c b a"] * 15,
                                    ["a c e b d f"] * 5])
        weights = []

        def recording(U_all, V, params, weight, penalty=None):
            weights.append(weight)
            return sweep_prior_grads(U_all, V, params, weight, penalty)

        monkeypatch.setattr(dbe_mod, "sweep_prior_grads", recording)
        cfg = small_config(epochs=1, batch_size=16)
        train_dbe(corpus, vocab, init_random(vocab.size, cfg.dim, 0, "dbe"),
                  DbeParams(), cfg)
        assert len(weights) > 3
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_sweep_gradient_matches_dense_objective(self, rng):
        # at fixed parameters, the row-sparse likelihood gradients of one
        # sweep plus its weighted prior step are the gradient of
        # likelihood(sweep) + weight * (prior - drift penalty)
        T, L, d = 3, 6, 3
        U_all = [rng.normal(size=(L, d)) for _ in range(T)]
        V = rng.normal(size=(L, d))
        params = DbeParams(drift_precision=0.8, base_precision=0.05)
        reg = RegConfig(alpha=0.7, beta=0.1)
        ref = rng.normal(size=(L, d))
        betas = [0.0, 0.1, 0.2]
        per_slice = []
        for n_batches in (2, 2, 1):
            batches = []
            for _ in range(n_batches):
                n = 8
                batches.append((rng.integers(0, L, n), rng.integers(0, L, n),
                                rng.integers(0, 2, n)))
            per_slice.append(batches)
        # the second sweep skips slice 2, whose only minibatch came first
        sweep = list(_round_robin(per_slice))[1]
        assert [t for t, _ in sweep] == [0, 1]
        weight = 0.3

        gradU = [np.zeros((L, d)) for _ in range(T)]
        gradV = np.zeros((L, d))
        for t, (centers, contexts, labels) in sweep:
            u_rows, gU, v_rows, gV, _, _ = batch_grad_rows(
                centers, contexts, labels, U_all[t], V)
            gradU[t][u_rows] += gU
            gradV[v_rows] += gV
        priorU, priorV = sweep_prior_grads(U_all, V, params, weight,
                                           (reg, ref, betas))
        gradU = [g + p for g, p in zip(gradU, priorU)]
        gradV += priorV

        def objective():
            _, likelihood, _, prior = dbe_loss(sweep, U_all, V, params)
            penalty = sum(drift_regularizer(U_all[s], ref, reg.alpha, betas[s])
                          for s in range(1, T))
            return likelihood + weight * (prior - penalty)

        for t in range(T):
            np.testing.assert_allclose(gradU[t], finite_difference(objective, U_all[t]),
                                       rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(gradV, finite_difference(objective, V),
                                   rtol=1e-4, atol=1e-7)

    def test_dense_work_per_epoch_is_linear_in_slices(self, monkeypatch):
        dense_elems = [0]
        dense_step = dbe_mod.adam_step

        def counting(params, grad, state, learning_rate, name="params"):
            dense_elems[0] += params.size
            return dense_step(params, grad, state, learning_rate, name)

        monkeypatch.setattr(dbe_mod, "adam_step", counting)
        rng = np.random.default_rng(4)
        docs = tuple(rng.integers(0, 20, size=10).astype(np.int64) for _ in range(60))
        vocab, _ = toy_corpus([[" ".join(f"w{i}" for i in range(20))] * 2])
        cfg = small_config(epochs=1, batch_size=64)
        counts = {}
        for T in (2, 6):
            dense_elems[0] = 0
            corpus = TimeSlicedCorpus(slices=(docs,) * T)
            train_dbe(corpus, vocab, init_random(vocab.size, cfg.dim, 0, "dbe"),
                      DbeParams(), cfg)
            counts[T] = dense_elems[0]
        # equal tokens per slice: the same number of sweeps, each with one
        # dense step per word matrix plus one for V
        n_sweeps = counts[2] // (3 * vocab.size * cfg.dim)
        assert n_sweeps > 1
        assert counts[2] == n_sweeps * 3 * vocab.size * cfg.dim
        assert counts[6] == n_sweeps * 7 * vocab.size * cfg.dim

    def test_word_absent_from_middle_slice_is_smoothed(self):
        # "z" occurs in slices 0 and 2 only; the random-walk prior must
        # still pull its slice-1 vector towards its neighbours
        vocab, corpus = toy_corpus([["a b z c d"] * 40, ["a b c d"] * 40,
                                    ["z d c b a"] * 40])
        z = vocab.id_of["z"]
        cfg = small_config(epochs=8, window=2)
        init = init_random(vocab.size, cfg.dim, 3, "dbe")
        model = train_dbe(corpus, vocab, init, DbeParams(), cfg)
        U = [m[z] for m in model.matrices["word"]]
        start = init[0][z]
        assert not np.array_equal(U[1], start)
        midpoint = 0.5 * (U[0] + U[2])
        assert np.linalg.norm(U[1] - midpoint) < 0.5 * np.linalg.norm(start - midpoint)
