"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one
``[ACCEPTANCE] criterion N (...): PASS|FAIL`` line. Training
configurations for the synthetic-corpus criteria were tuned once on the
generator (documented inline) and are pinned together with their seeds;
the qualitative claims they check are seed-tolerant per the criteria
(">= 4 of 5 seeds") but the pinned runs are deterministic.
"""

import contextlib
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from driftvec.analysis import (directedness, drift_histogram, drift_series,
                               evaluate_lpos, stability_fraction,
                               write_histogram_csv)
from driftvec.corpus import TimeSlicedCorpus, split_holdout
from driftvec.dbe import DbeParams, dbe_prior, train_dbe
from driftvec.dsg import DsgParams, combine_priors, train_dsg
from driftvec.inits import init_internal, init_random
from driftvec.isg import train_incremental
from driftvec.runs import save_checkpoints
from driftvec.sgns import TrainConfig
from driftvec.shrinkreg import RegConfig, drift_regularizer_grad, word_drifts
from driftvec.synth import PlantedChange, SynthSpec, TopicProfile, generate
from driftvec import dsg as dsg_mod

from conftest import dense_likelihood_grads, make_batch, toy_corpus
from reference import drift_regularizer, hardshrink, sgns_gradients, sgns_log_likelihood
from test_sgns import finite_difference

ARTIFACT_DIR = Path(os.environ.get("DRIFTVEC_ACCEPT_DIR", "acceptance_out"))

# dsg hyperparameters tuned for the desk-scale synthetic corpora: a tight
# diffusion with a weak anchor keeps consecutive posteriors chained. The
# defaults (diffusion 1.0, anchor 0.1) suit far larger slices; they shrink
# every mean 11x per slice, which erases accumulated signal at these sizes.
DSG_TUNED = DsgParams(diffusion_var=0.01, anchor_var=10.0, samples_per_step=2)


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] criterion {number} ({name}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# Shared corpora and runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gradual_full():
    """Criterion 3's corpus: vocab 500, T=5, 100k tokens/slice, one
    planted gradual change."""
    spec = SynthSpec(vocab_size=500, T=5, tokens_per_slice=100_000, seed=0,
                     planted_doc_fraction=0.04,
                     planted_changes=[PlantedChange("w0499", 2, 0, 1, "gradual")])
    return generate(spec)


def scarce_abrupt_spec(seed=0):
    """Criterion 4/6 corpus: heavy-tailed frequencies (most words nearly
    absent per slice, the scarce regime under study) and one abrupt change."""
    return SynthSpec(vocab_size=500, T=5, tokens_per_slice=6000, seed=seed,
                     topics=[TopicProfile(skew=2.4), TopicProfile(skew=2.4)],
                     pool_skew=2.0, planted_doc_fraction=0.12,
                     planted_changes=[PlantedChange("w0499", 2, 0, 1, "abrupt")])


@pytest.fixture(scope="module")
def abrupt_scarce():
    return generate(scarce_abrupt_spec())


def dsg_word_means(corpus, vocab, cfg, params=DSG_TUNED, reg=None):
    init = init_random(vocab.size, cfg.dim, cfg.seed, "dsg")
    return train_dsg(corpus, vocab, init, params, cfg, reg=reg).matrices["word"]


def dbe_word_mats(corpus, vocab, cfg, params, reg=None):
    init = init_random(vocab.size, cfg.dim, cfg.seed, "dbe")
    return train_dbe(corpus, vocab, init, params, cfg, reg=reg).matrices["word"]


DSG_SCARCE_CFG = TrainConfig(dim=4, window=4, negative_ratio=1,
                             learning_rate=0.03, epochs=20, batch_size=4096, seed=0)
DBE_SCARCE_CFG = TrainConfig(dim=4, window=4, negative_ratio=1,
                             learning_rate=0.025, epochs=25, batch_size=4096, seed=0)
DBE_SCARCE_PARAMS = DbeParams(drift_precision=10.0, base_precision=0.01)


@pytest.fixture(scope="module")
def abrupt_dsg_means(abrupt_scarce):
    return dsg_word_means(abrupt_scarce.corpus, abrupt_scarce.vocab, DSG_SCARCE_CFG)


@pytest.fixture(scope="module")
def abrupt_dbe_mats(abrupt_scarce):
    return dbe_word_mats(abrupt_scarce.corpus, abrupt_scarce.vocab,
                         DBE_SCARCE_CFG, DBE_SCARCE_PARAMS)


# ---------------------------------------------------------------------------
# 1. Gradient suite
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(101)
    instances = 0

    with criterion(1, "gradient suite"):
        # skip-gram likelihood gradients
        for _ in range(40):
            L = int(rng.integers(2, 9))
            d = int(rng.integers(2, 6))
            n = int(rng.integers(3, 13))
            U = rng.normal(size=(L, d))
            V = rng.normal(size=(L, d))
            batch = make_batch(rng.integers(0, L, n), rng.integers(0, L, n),
                               rng.integers(0, 2, n))
            gU, gV = sgns_gradients(batch, U, V)
            np.testing.assert_allclose(
                gU, finite_difference(lambda: sgns_log_likelihood(batch, U, V)[0], U),
                rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(
                gV, finite_difference(lambda: sgns_log_likelihood(batch, U, V)[0], V),
                rtol=1e-4, atol=1e-7)
            instances += 1

        # sampled bound of the Bayesian model w.r.t. the variational means
        # (fixed draws), looser tolerance per the criterion
        for _ in range(25):
            L = int(rng.integers(2, 9))
            d = int(rng.integers(2, 6))
            n = int(rng.integers(3, 10))
            muU, muV = rng.normal(size=(2, L, d))
            lvU, lvV = rng.normal(size=(2, L, d)) * 0.4
            centers = rng.integers(0, L, n)
            contexts = rng.integers(0, L, n)
            labels = rng.integers(0, 2, n)
            eps = (rng.standard_normal((1, L, d)), rng.standard_normal((1, L, d)))

            def value():
                return dsg_mod.sampled_likelihood_grads(
                    centers, contexts, labels, muU, lvU, muV, lvV, *eps)[0]

            _, _, *sides = dsg_mod.sampled_likelihood_grads(
                centers, contexts, labels, muU, lvU, muV, lvV, *eps)
            gmuU, _, gmuV, _ = dense_likelihood_grads((L, d), *sides)
            np.testing.assert_allclose(gmuU, finite_difference(value, muU),
                                       rtol=1e-3, atol=1e-6)
            np.testing.assert_allclose(gmuV, finite_difference(value, muV),
                                       rtol=1e-3, atol=1e-6)
            instances += 1

        # joint Bernoulli objective (likelihood plus random-walk prior)
        from driftvec.dbe import dbe_prior_grads
        from reference import dbe_loss
        for _ in range(25):
            T = int(rng.integers(1, 4))
            L = int(rng.integers(2, 9))
            d = int(rng.integers(2, 6))
            U_all = [rng.normal(size=(L, d)) for _ in range(T)]
            V = rng.normal(size=(L, d))
            params = DbeParams(drift_precision=float(rng.uniform(0.2, 3.0)),
                               base_precision=float(rng.uniform(0.01, 0.5)))
            batches = [make_batch(rng.integers(0, L, 5), rng.integers(0, L, 5),
                                  rng.integers(0, 2, 5))
                       for t in range(T)]

            def total():
                return dbe_loss(enumerate(batches), U_all, V, params)[0]

            gradU_prior, gradV_prior = dbe_prior_grads(U_all, V, params)
            for t in range(T):
                gU, _ = sgns_gradients(batches[t], U_all[t], V)
                np.testing.assert_allclose(gU + gradU_prior[t],
                                           finite_difference(total, U_all[t]),
                                           rtol=1e-4, atol=1e-7)
            gV_total = gradV_prior.copy()
            for t in range(T):
                _, gV = sgns_gradients(batches[t], U_all[t], V)
                gV_total += gV
            np.testing.assert_allclose(gV_total, finite_difference(total, V),
                                       rtol=1e-4, atol=1e-7)
            instances += 1

        # drift penalty away from the kink
        for _ in range(20):
            L = int(rng.integers(2, 9))
            d = int(rng.integers(2, 6))
            ref = rng.normal(size=(L, d))
            cur = ref + rng.normal(size=(L, d))
            beta = 0.3
            drifts = word_drifts(cur, ref)
            if np.abs(drifts - beta).min() < 0.05:
                cur = ref + rng.normal(size=(L, d)) * 2.0
                if np.abs(word_drifts(cur, ref) - beta).min() < 0.05:
                    continue
            alpha = float(rng.uniform(0.1, 2.0))
            grad = drift_regularizer_grad(cur, ref, alpha, beta)
            fd = finite_difference(lambda: drift_regularizer(cur, ref, alpha, beta),
                                   cur)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)
            instances += 1

        elapsed = time.time() - start
        assert instances >= 100, f"only {instances} instances checked"
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Closed-form suite
# ---------------------------------------------------------------------------

def test_criterion_2_closed_forms():
    with criterion(2, "closed forms"):
        prev = np.array([[2.0, -3.0], [0.5, 1.0]])
        mean, var = combine_priors(prev, 1.0, 0.1)
        assert abs(var - 1.0 / 11.0) < 1e-12
        np.testing.assert_allclose(mean, prev / 11.0, atol=1e-12)

        assert hardshrink(2.0, 1.0) == 2.0
        assert hardshrink(-2.0, 1.0) == 2.0
        assert hardshrink(0.5, 1.0) == 0.0

        # hand-evaluated random-walk prior values
        V = np.array([[1.0, 0.0]])
        assert abs(dbe_prior([np.zeros((1, 2))], V,
                             DbeParams(1.0, 0.01)) - (-0.005)) < 1e-12
        U0 = np.array([[1.0, 1.0]])
        U1 = np.array([[2.0, 1.0]])
        # -0.01/2*(1) - 0.01/2*(1+1) - 2/2*(1) = -0.005 - 0.01 - 1.0
        value = dbe_prior([U0, U1], V, DbeParams(drift_precision=2.0,
                                                 base_precision=0.01))
        assert abs(value - (-0.005 - 0.01 - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# 3. Directedness
# ---------------------------------------------------------------------------

def test_criterion_3_directedness(gradual_full):
    start = time.time()
    res = gradual_full
    w = res.vocab.id_of["w0499"]
    full_cfg = TrainConfig(dim=16, window=4, negative_ratio=1, learning_rate=0.1,
                           epochs=3, batch_size=8192, seed=0)

    with criterion(3, "directedness"):
        means = dsg_word_means(res.corpus, res.vocab, full_cfg)
        tau_dsg_full = directedness(drift_series(means, 0), word_ids=[w])
        assert tau_dsg_full >= 0.8, f"DSG full-corpus directedness {tau_dsg_full}"

        mats = dbe_word_mats(res.corpus, res.vocab, full_cfg, DbeParams())
        tau_dbe_full = directedness(drift_series(mats, 0), word_ids=[w])
        assert tau_dbe_full >= 0.8, f"DBE full-corpus directedness {tau_dbe_full}"

        # 1%-scale budget: ~1k tokens/slice, same generator family; the
        # skip-gram walk makes the planted drift noisy while the chained
        # posterior keeps tracking the ramp
        ok = 0
        gaps = []
        for seed in range(5):
            spec = SynthSpec(vocab_size=500, T=5, tokens_per_slice=1000, seed=seed,
                             planted_doc_fraction=0.08,
                             planted_changes=[PlantedChange("w0499", 2, 0, 1,
                                                            "gradual")])
            small = generate(spec)
            ws = small.vocab.id_of["w0499"]
            cfg = TrainConfig(dim=4, window=4, negative_ratio=1, learning_rate=0.1,
                              epochs=20, batch_size=4096, seed=seed)
            iU, iV = init_random(small.vocab.size, cfg.dim, seed, "isg")
            model = train_incremental(small.corpus, small.vocab, (iU, iV), cfg)
            tau_isg = directedness(
                drift_series(model.matrices["word"], 0), word_ids=[ws])
            means = dsg_word_means(small.corpus, small.vocab, cfg)
            tau_dsg = directedness(drift_series(means, 0), word_ids=[ws])
            gaps.append((tau_isg, tau_dsg))
            ok += tau_isg <= tau_dsg - 0.3
        assert ok >= 4, f"ordering held in {ok}/5 seeds: {gaps}"
        elapsed = time.time() - start
        assert elapsed < 900.0, f"criterion 3 took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 4. Discrimination
# ---------------------------------------------------------------------------

def test_criterion_4_discrimination(abrupt_scarce, abrupt_dsg_means,
                                    abrupt_dbe_mats):
    start = time.time()
    res = abrupt_scarce
    w = res.vocab.id_of["w0499"]
    top = max(1, int(np.ceil(res.vocab.size * 0.01)))

    with criterion(4, "discrimination"):
        for tag, mats in (("dsg", abrupt_dsg_means), ("dbe", abrupt_dbe_mats)):
            series = drift_series(mats, 0)
            final = series.values[:, series.T - 1]
            rank = int((final > final[w]).sum())
            assert rank < top, f"{tag} planted rank {rank} not in top {top}"
        dbe_series = drift_series(abrupt_dbe_mats, 0)
        stability = stability_fraction(dbe_series, dbe_series.T - 1, 0.5)
        assert stability >= 0.5, f"DBE stability fraction {stability}"
        elapsed = time.time() - start
        assert elapsed < 900.0, f"criterion 4 took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 5. Initialization benefit
# ---------------------------------------------------------------------------

def _final_matrices(kind, corpus, vocab, cfg, init):
    if kind == "isg":
        mats = train_incremental(corpus, vocab, init, cfg).matrices
        return mats["word"], mats["context"]
    if kind == "dsg":
        mats = train_dsg(corpus, vocab, init, DSG_TUNED, cfg).matrices
        return mats["word"], mats["context"]
    mats = train_dbe(corpus, vocab, init, DbeParams(), cfg).matrices
    return mats["word"], mats["context"] * corpus.T


def test_criterion_5_initialization_benefit():
    with criterion(5, "initialization benefit"):
        wins = {kind: 0 for kind in ("isg", "dsg", "dbe")}
        for seed in range(5):
            spec = SynthSpec(vocab_size=200, T=3, tokens_per_slice=2000, seed=seed)
            res = generate(spec)
            train, valid, _ = split_holdout(res.corpus, 0.2, seed)
            # scarce slices, short diachronic budget; the pooled static
            # model gets a full budget of its own
            cfg = TrainConfig(dim=8, window=4, negative_ratio=1,
                              learning_rate=0.03, epochs=3, batch_size=4096,
                              seed=seed)
            static_cfg = replace(cfg, epochs=25, learning_rate=0.1)
            for kind in wins:
                random_init = init_random(res.vocab.size, cfg.dim, seed, kind)
                internal_init = init_internal(
                    train, res.vocab, static_cfg, kind,
                    DSG_TUNED if kind == "dsg" else DbeParams())
                U, V = _final_matrices(kind, train, res.vocab, cfg, internal_init)
                lpos_internal = evaluate_lpos(valid, U, V, cfg.window)[1]
                U, V = _final_matrices(kind, train, res.vocab, cfg, random_init)
                lpos_random = evaluate_lpos(valid, U, V, cfg.window)[1]
                wins[kind] += lpos_internal >= lpos_random
        for kind, count in wins.items():
            assert count >= 4, f"{kind}: internal init won only {count}/5 seeds"


# ---------------------------------------------------------------------------
# 6. Regularization effect
# ---------------------------------------------------------------------------

def _tail_p999(mats):
    series = drift_series(mats, 0)
    return float(np.percentile(series.values[:, series.T - 1], 99.9)), series


def test_criterion_6_regularization_effect(abrupt_scarce, abrupt_dsg_means,
                                           abrupt_dbe_mats):
    res = abrupt_scarce
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)

    # alphas tuned on this corpus; the Bernoulli model needs a much larger
    # constant because its planted-word gradients are stronger
    setups = {
        "dsg": (DSG_SCARCE_CFG, RegConfig(alpha=10.0, beta="mean"),
                abrupt_dsg_means,
                lambda cfg, reg: dsg_word_means(res.corpus, res.vocab, cfg, reg=reg)),
        "dbe": (DBE_SCARCE_CFG, RegConfig(alpha=300.0, beta="mean"),
                abrupt_dbe_mats,
                lambda cfg, reg: dbe_word_mats(res.corpus, res.vocab, cfg,
                                               DBE_SCARCE_PARAMS, reg=reg)),
    }

    with criterion(6, "regularization effect"):
        for tag, (cfg, reg, seed0_mats, runner) in setups.items():
            unreg_p999 = []
            reg_p999 = []
            for seed in (0, 1, 2):
                seeded = replace(cfg, seed=seed)
                mats = seed0_mats if seed == 0 else runner(seeded, None)
                p_unreg, series_unreg = _tail_p999(mats)
                unreg_p999.append(p_unreg)
                p_reg, series_reg = _tail_p999(runner(seeded, reg))
                reg_p999.append(p_reg)
                if seed == 0:
                    write_histogram_csv(drift_histogram(series_unreg, 60),
                                        ARTIFACT_DIR / f"{tag}_hist_unregularized.csv")
                    write_histogram_csv(drift_histogram(series_reg, 60),
                                        ARTIFACT_DIR / f"{tag}_hist_regularized.csv")
            band = max(unreg_p999) - min(unreg_p999)
            shift = abs(float(np.mean(reg_p999)) - float(np.mean(unreg_p999)))
            assert shift > band, (
                f"{tag}: tail shift {shift:.3f} within the seed noise band "
                f"{band:.3f} (unreg {unreg_p999}, reg {reg_p999})")


# ---------------------------------------------------------------------------
# 7. Determinism and conservation
# ---------------------------------------------------------------------------

def test_criterion_7_determinism_and_conservation(tmp_path):
    with criterion(7, "determinism and conservation"):
        vocab, corpus = toy_corpus([["a b c d e"] * 30, ["e d c b a"] * 30,
                                    ["c a e b d"] * 30])
        cfg = TrainConfig(dim=6, window=2, negative_ratio=1, learning_rate=0.1,
                          epochs=3, batch_size=128, seed=7)

        # bitwise-identical checkpoints for every model family
        for kind in ("isg", "dsg", "dbe"):
            dirs = []
            for attempt in (0, 1):
                outdir = tmp_path / f"{kind}{attempt}"
                if kind == "isg":
                    iU, iV = init_random(vocab.size, cfg.dim, cfg.seed, kind)
                    result = train_incremental(corpus, vocab, (iU, iV), cfg)
                elif kind == "dsg":
                    init = init_random(vocab.size, cfg.dim, cfg.seed, kind)
                    result = train_dsg(corpus, vocab, init, DsgParams(), cfg)
                else:
                    init = init_random(vocab.size, cfg.dim, cfg.seed, kind)
                    result = train_dbe(corpus, vocab, init, DbeParams(), cfg)
                save_checkpoints(outdir, kind, vocab.words, result.matrices)
                dirs.append(outdir / kind)
            files = sorted(p.name for p in dirs[0].iterdir())
            assert files
            for name in files:
                assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

        # holdout partitions exactly
        docs = tuple(np.array([i], dtype=np.int64) for i in range(41))
        one = TimeSlicedCorpus(slices=(docs,))
        parts = split_holdout(one, 0.2, seed=3)
        ids = [frozenset(int(d[0]) for d in p.slices[0]) for p in parts]
        assert ids[0] | ids[1] | ids[2] == set(range(41))
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])

        # histogram counts conserve the vocabulary; reference drift is zero
        rng = np.random.default_rng(1)
        mats = [rng.normal(size=(40, 5)) for _ in range(4)]
        series = drift_series(mats, 0)
        assert not series.values[:, 0].any()
        hist = drift_histogram(series, 13)
        for t, counts in hist.counts.items():
            assert counts.sum() == 40

        # held-out log-likelihood is never positive
        U = [rng.normal(size=(vocab.size, 6)) * 3 for _ in range(corpus.T)]
        V = [rng.normal(size=(vocab.size, 6)) * 3 for _ in range(corpus.T)]
        per_slice, mean = evaluate_lpos(corpus, U, V, window=2)
        assert mean <= 0 and all(v <= 0 for v in per_slice)


# ---------------------------------------------------------------------------
# 8. Absent-word invariant
# ---------------------------------------------------------------------------

def test_criterion_8_absent_word_invariant():
    with criterion(8, "absent-word invariant"):
        vocab, corpus = toy_corpus([
            ["z q z q z", "a b c d a b c d"],
            ["a b c d a b c d", "d c b a"],
            ["b a d c", "a b c d"],
        ])
        z = vocab.id_of["z"]
        assert all(z not in doc for t in (1, 2) for doc in corpus.slices[t])
        cfg = TrainConfig(dim=6, window=2, negative_ratio=1, learning_rate=0.1,
                          epochs=5, batch_size=64, seed=2)
        iU, iV = init_random(vocab.size, cfg.dim, cfg.seed, "isg")
        U = train_incremental(corpus, vocab, (iU, iV), cfg).matrices["word"]
        assert not np.array_equal(U[0][z], iU[z])  # trained in slice 0
        np.testing.assert_array_equal(U[1][z], U[0][z])
        np.testing.assert_array_equal(U[2][z], U[1][z])
