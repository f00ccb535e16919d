"""Workload parameters of the round-trip benchmark.

Every workload trains isg, dsg and dbe on a seeded ``synth`` corpus with
window 4, one negative per positive, a 10% holdout (half valid, half
test) and one gradual planted change. Each workload is chosen for the
layer that dominates it:

* ``baseline``: the dense O(L*d) Adam and dsg noise work done on every
  minibatch of dsg and dbe; isg only takes row-sparse steps, so it is the
  control inside the workload.
* ``scarce-t10``: many thin slices with internal (pooled) initialization
  and the HardShrink drift penalty; dbe pays T*L*d per minibatch here.
* ``io-wide``: the widest checkpoint files with few large minibatches,
  so the checkpoint text writes in ``train`` and reads in
  ``eval``/``drift`` dominate.

Sizes are smaller than the full configurations (V=2000/T=4/d=50/50k
tokens, V=1000/T=10/d=50/6k tokens x 4 epochs, V=4000/T=4/d=100/25k
tokens). On a 2-core x86-64 VM whose speed swings by tens of percent
within seconds, a round trip of 9-13 s lets a 40 s run average three or
four round trips. Dimensions shrink rather than token counts alone
because the dense, gradient and text I/O costs all scale with d, so the
dominant layer stays the same; tokens alone would leave the per-file
text I/O dominating every workload.
"""

COMMON = {
    "window": 4,
    "negative_ratio": 1,
    "holdout": 0.1,
    "doc_length": 12,
}

WORKLOADS = {
    "baseline": {
        "vocab_size": 2000, "slices": 4, "tokens_per_slice": 22_000,
        "dim": 25, "batch_size": 1024, "epochs": 1,
        "init": "random", "reg_alpha": None,
    },
    "scarce-t10": {
        "vocab_size": 1000, "slices": 10, "tokens_per_slice": 4_000,
        "dim": 16, "batch_size": 1024, "epochs": 2,
        "init": "internal", "reg_alpha": 0.1,
    },
    "io-wide": {
        "vocab_size": 4000, "slices": 2, "tokens_per_slice": 8_000,
        "dim": 64, "batch_size": 16384, "epochs": 1,
        "init": "random", "reg_alpha": None,
    },
}

MODELS = ("isg", "dsg", "dbe")


def params(name):
    """Full parameter record of one workload."""
    return {**COMMON, **WORKLOADS[name]}


def train_argv(p, model, seed, files, out):
    """``driftvec train`` arguments for one model of a workload."""
    argv = ["train", "--model", model, "--out", str(out),
            "--vocab", str(files["vocab"]), "--train", str(files["train"]),
            "--valid", str(files["valid"]), "--test", str(files["test"]),
            "--dim", str(p["dim"]), "--window", str(p["window"]),
            "--negative-ratio", str(p["negative_ratio"]),
            "--epochs", str(p["epochs"]), "--batch-size", str(p["batch_size"]),
            "--seed", str(seed), "--init", p["init"]]
    if p["reg_alpha"] is not None and model != "isg":
        argv += ["--reg-alpha", str(p["reg_alpha"]), "--reg-beta", "mean"]
    return argv
