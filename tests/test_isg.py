import numpy as np

from driftvec.corpus import extract_pairs
from driftvec.inits import init_random
from driftvec.isg import train_incremental, train_slice
from driftvec.sgns import TrainConfig, sigmoid

from conftest import toy_corpus


def small_config(**kwargs):
    base = dict(dim=8, window=1, negative_ratio=1, learning_rate=0.1,
                epochs=5, batch_size=64, seed=0)
    base.update(kwargs)
    return TrainConfig(**base)


def test_empty_slice_returns_init_unchanged():
    vocab, _ = toy_corpus([["a b"]])
    U0, V0 = init_random(vocab.size, 4, 0, "isg")
    U, V, trace = train_slice((), vocab, U0, V0, small_config(dim=4, epochs=1))
    np.testing.assert_array_equal(U, U0)
    np.testing.assert_array_equal(V, V0)
    assert trace["lpos"] == [0.0]


# the target pair plus filler pairs; fillers dilute the noise
# distribution so a negative draw rarely produces the true context
# (with 14 equally frequent words the optimum is sigma = 14/15)
TOY_DOCS = (["a b"] * 500 + ["c d"] * 500 + ["e f"] * 500 + ["g h"] * 500
            + ["i j"] * 500 + ["k l"] * 500 + ["m n"] * 500)


def test_repeated_pair_becomes_probable():
    vocab, corpus = toy_corpus([TOY_DOCS])
    U0, V0 = init_random(vocab.size, 8, 1, "isg")
    U, V, _ = train_slice(corpus.slices[0], vocab, U0, V0,
                          small_config(epochs=50))
    a, b = vocab.id_of["a"], vocab.id_of["b"]
    assert sigmoid(float(U[a] @ V[b])) > 0.9


def test_holdout_lpos_trend_is_nondecreasing_early():
    # gradual regime (small steps, few batches per epoch) so the first
    # ten epochs sit on the improving part of the curve
    vocab, corpus = toy_corpus([TOY_DOCS])
    eval_pairs = extract_pairs(corpus.slices[0][::10], window=1)
    U0, V0 = init_random(vocab.size, 8, 2, "isg")
    _, _, trace = train_slice(corpus.slices[0], vocab, U0, V0,
                              small_config(epochs=10, learning_rate=0.02,
                                           batch_size=2048),
                              eval_pairs=eval_pairs)
    held = trace["holdout_lpos"]
    assert len(held) == 10
    for earlier, later in zip(held, held[1:]):
        assert later >= earlier - 0.01


def test_single_slice_equals_train_slice():
    vocab, corpus = toy_corpus([["a b c a b", "c b a"]])
    cfg = small_config(epochs=3)
    U0, V0 = init_random(vocab.size, cfg.dim, 5, "isg")
    model, traces, order = train_incremental(corpus, vocab, U0, V0, cfg)
    U, V, _ = train_slice(corpus.slices[0], vocab, U0, V0, cfg, slice_index=0)
    assert order == [0]
    np.testing.assert_array_equal(model.U[0], U)
    np.testing.assert_array_equal(model.V[0], V)


def test_incremental_drift_below_reinitialization_drift():
    docs = ["a b c d", "b a d c", "c d a b"] * 40
    vocab, corpus = toy_corpus([docs, docs])
    cfg = small_config(epochs=4, learning_rate=0.01)
    U0, V0 = init_random(vocab.size, cfg.dim, 7, "isg")
    model, _, _ = train_incremental(corpus, vocab, U0, V0, cfg)
    incremental = np.linalg.norm(model.U[1] - model.U[0],
                                 axis=1).mean()
    # baseline: slice 1 retrained from an independent random start
    U0b, V0b = init_random(vocab.size, cfg.dim, 99, "isg")
    Ub, _, _ = train_slice(corpus.slices[1], vocab, U0b, V0b, cfg, slice_index=1)
    reinit = np.linalg.norm(Ub - model.U[0], axis=1).mean()
    assert incremental < reinit


def test_backward_direction_trains_new_to_old():
    # "z" occurs only in the last slice: a backward run trains it there
    # first and carries it bit-identical into slices 1 and 0
    vocab, corpus = toy_corpus([["a b"], ["b c"], ["c a z"]])
    cfg = small_config(epochs=1)
    U0, V0 = init_random(vocab.size, cfg.dim, 0, "isg")
    model, traces, order = train_incremental(corpus, vocab, U0, V0, cfg,
                                             direction="backward")
    assert order == [2, 1, 0]
    z = vocab.id_of["z"]
    assert not np.array_equal(model.U[2][z], U0[z])
    np.testing.assert_array_equal(model.U[1][z], model.U[2][z])
    np.testing.assert_array_equal(model.U[0][z], model.U[1][z])


def test_absent_words_keep_bit_identical_vectors():
    # "z" occurs only in slice 0; its word vector must pass through
    # slice 1 untouched
    vocab, corpus = toy_corpus([
        ["z q z q", "a b c a b c"],
        ["a b c a b c", "b c a"],
    ])
    cfg = small_config(epochs=6)
    U0, V0 = init_random(vocab.size, cfg.dim, 11, "isg")
    model, _, _ = train_incremental(corpus, vocab, U0, V0, cfg)
    z = vocab.id_of["z"]
    assert all(z not in doc for doc in corpus.slices[1])
    np.testing.assert_array_equal(model.U[1][z], model.U[0][z])
    # and it was genuinely trained in slice 0
    assert not np.array_equal(model.U[0][z], U0[z])


def test_rerun_is_bitwise_identical():
    vocab, corpus = toy_corpus([["a b c d e"] * 20, ["e d c b a"] * 20])
    cfg = small_config(epochs=3)
    U0, V0 = init_random(vocab.size, cfg.dim, 13, "isg")
    m1, _, _ = train_incremental(corpus, vocab, U0, V0, cfg)
    m2, _, _ = train_incremental(corpus, vocab, U0, V0, cfg)
    for t in range(2):
        np.testing.assert_array_equal(m1.U[t], m2.U[t])
        np.testing.assert_array_equal(m1.V[t], m2.V[t])


def test_all_outputs_finite():
    vocab, corpus = toy_corpus([["a b b a c"] * 30])
    cfg = small_config(epochs=10, learning_rate=0.5)
    U0, V0 = init_random(vocab.size, cfg.dim, 3, "isg")
    model, _, _ = train_incremental(corpus, vocab, U0, V0, cfg)
    assert np.isfinite(model.U[0]).all()
    assert np.isfinite(model.V[0]).all()
