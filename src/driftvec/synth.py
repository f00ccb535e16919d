"""Deterministic synthetic corpus with planted semantic change.

Vocabulary is split into a shared function-word pool plus disjoint topic
word sets. Every stable word keeps one topic for the whole corpus;
planted words live in dedicated documents whose remaining tokens are
drawn from the word's current topic, so a planted word's context
distribution moves from its old to its new topic on the schedule below:

* ``abrupt``  - old topic before ``change_slice``, new topic from it on
* ``gradual`` - linear old->new mixture ramp across the whole horizon
  (``change_slice`` records the nominal midpoint)

Token draws inside each group follow a rank-power distribution so
frequencies are skewed like natural text. Every draw is a word id; the
names of :func:`word_names` appear only in ``raw_slices``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import TimeSlicedCorpus, Vocabulary, check_seed

ABRUPT = "abrupt"
GRADUAL = "gradual"

POOL_FRACTION = 0.3        # share of tokens drawn from the shared pool
POOL_VOCAB_FRACTION = 0.3  # share of the vocabulary reserved for the pool
PLANTED_PERIOD = 3         # a planted word occupies every k-th position of its documents


def _check_skew(name, skew):
    if not 0 <= skew < math.inf:        # NaN fails both comparisons
        raise ValueError(f"{name} must be a finite number >= 0, not {skew}")


@dataclass(frozen=True)
class TopicProfile:
    skew: float = 1.0     # token probability ~ 1 / rank^skew within the topic

    def __post_init__(self):
        _check_skew("skew", self.skew)


@dataclass(frozen=True)
class PlantedChange:
    word: str
    change_slice: int
    old_topic: int
    new_topic: int
    mode: str = GRADUAL

    def __post_init__(self):
        if self.mode not in (ABRUPT, GRADUAL):
            raise ValueError(f"unknown change mode {self.mode!r}")


@dataclass
class SynthSpec:
    vocab_size: int = 500
    T: int = 5
    tokens_per_slice: int = 100_000
    seed: int = 0
    topics: list = field(default_factory=lambda: [TopicProfile(), TopicProfile()])
    planted_changes: list = field(default_factory=list)
    doc_length: int = 12
    pool_skew: float = 1.0              # rank-power exponent of the pool distribution
    planted_doc_fraction: float = 0.04  # share of documents dedicated to each planted word

    def validate(self):
        if self.vocab_size < 4:
            raise ValueError("vocab_size too small")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        check_seed(self.seed)
        if self.doc_length < 1:
            raise ValueError("doc_length must be >= 1")
        if self.tokens_per_slice < self.doc_length:
            raise ValueError("tokens_per_slice must cover at least one document")
        if len(self.topics) < 1:
            raise ValueError("need at least one topic")
        _check_skew("pool_skew", self.pool_skew)
        if not 0 <= self.planted_doc_fraction <= 1:
            raise ValueError(f"planted_doc_fraction must lie in [0, 1], "
                             f"not {self.planted_doc_fraction}")
        n_docs, n_planted_each = _slice_docs(self)
        n_planted = n_planted_each * len(self.planted_changes)
        if n_planted > n_docs:
            raise ValueError(
                f"{len(self.planted_changes)} planted changes take {n_planted} documents "
                f"per slice, more than the slice's {n_docs}")
        words = [c.word for c in self.planted_changes]
        if len(set(words)) != len(words):
            raise ValueError("planted words must be distinct")
        for c in self.planted_changes:
            if not 1 <= c.change_slice < max(self.T, 2):
                raise ValueError(
                    f"change_slice {c.change_slice} outside [1, T) for word {c.word!r}")
            for k in (c.old_topic, c.new_topic):
                if not 0 <= k < len(self.topics):
                    raise ValueError(f"topic index {k} out of range for word {c.word!r}")


@dataclass(frozen=True)
class SynthResult:
    corpus: TimeSlicedCorpus
    vocab: Vocabulary
    changes: tuple          # PlantedChange entries, the changed partition
    raw_slices: list        # per slice, list of token-string documents


def _slice_docs(spec):
    """Documents per slice, and the planted documents of each change."""
    n_docs = -(-spec.tokens_per_slice // spec.doc_length)
    return n_docs, round(n_docs * spec.planted_doc_fraction)


def word_names(vocab_size: int):
    width = max(4, len(str(vocab_size - 1)))
    return [f"w{i:0{width}d}" for i in range(vocab_size)]


def _rank_power_cdf(n: int, skew: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** skew
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return cdf


def _draw(rng, cdf, count):
    return np.searchsorted(cdf, rng.random(count), side="right")


def _new_topic_weight(change: PlantedChange, t: int, T: int) -> float:
    if change.mode == ABRUPT:
        return 1.0 if t >= change.change_slice else 0.0
    if T <= 1:
        return 0.0
    return t / (T - 1)


def generate(spec: SynthSpec) -> SynthResult:
    """Build the corpus, its vocabulary, and the change/stable partition.

    Deterministic given ``spec.seed``; each slice draws from its own
    derived stream so slices could be generated independently. The
    vocabulary ranks the words that occur by total count, then by name,
    as :func:`~driftvec.corpus.build_vocabulary` does on ``raw_slices``.
    """
    spec.validate()
    names = word_names(spec.vocab_size)
    planted_ids = []
    for c in spec.planted_changes:
        if c.word not in names:
            raise ValueError(f"planted word {c.word!r} is not a generated vocabulary word")
        planted_ids.append(names.index(c.word))

    pool_size = max(2, round(spec.vocab_size * POOL_VOCAB_FRACTION))
    pool = np.setdiff1d(np.arange(pool_size), planted_ids)
    if len(pool) == 0:
        raise ValueError(f"the planted words take all {pool_size} shared-pool words")
    rest = np.setdiff1d(np.arange(pool_size, spec.vocab_size), planted_ids)
    K = len(spec.topics)
    if len(rest) < K:
        raise ValueError("vocabulary too small for the requested topics")
    topic_words = [rest[k::K] for k in range(K)]

    pool_cdf = _rank_power_cdf(len(pool), spec.pool_skew)
    topic_cdfs = [_rank_power_cdf(len(topic_words[k]), spec.topics[k].skew)
                  for k in range(K)]

    n_docs, n_planted_each = _slice_docs(spec)
    n_normal = n_docs - n_planted_each * len(spec.planted_changes)
    id_slices = []
    for t in range(spec.T):
        rng = np.random.default_rng([spec.seed, t, 0x517])
        docs = []
        for c, word_id in zip(spec.planted_changes, planted_ids):
            w_new = _new_topic_weight(c, t, spec.T)
            for _ in range(n_planted_each):
                docs.append(_planted_doc(rng, c, word_id, w_new, spec, pool, pool_cdf,
                                         topic_words, topic_cdfs))
        if n_normal > 0:
            docs.append(_normal_docs(rng, n_normal, spec, pool, pool_cdf,
                                     topic_words, topic_cdfs))
        # every document holds exactly doc_length tokens, so a slice is
        # one (documents, doc_length) array
        ids = np.concatenate(docs).reshape(-1, spec.doc_length)
        id_slices.append(ids[rng.permutation(len(ids))])

    counts = np.bincount(np.concatenate([ids.ravel() for ids in id_slices]),
                         minlength=spec.vocab_size)
    # word_names pads every name to one width, so id order is name order
    # and a stable sort on the count breaks ties by name
    ranked = np.argsort(-counts, kind="stable")
    ranked = ranked[counts[ranked] > 0]
    vocab_id = np.empty(spec.vocab_size, dtype=np.int64)
    vocab_id[ranked] = np.arange(len(ranked))
    vocab = Vocabulary(words=tuple(names[i] for i in ranked),
                       total_count=counts[ranked])
    corpus = TimeSlicedCorpus(slices=tuple(tuple(vocab_id[ids]) for ids in id_slices))
    name_of = np.array(names, dtype=object)
    raw_slices = [name_of[ids].tolist() for ids in id_slices]
    return SynthResult(corpus=corpus, vocab=vocab,
                       changes=tuple(spec.planted_changes), raw_slices=raw_slices)


def _normal_docs(rng, n_docs, spec, pool, pool_cdf, topic_words, topic_cdfs):
    """``n_docs`` documents of word ids, joined into one flat array."""
    K = len(topic_words)
    dl = spec.doc_length
    total = n_docs * dl
    doc_topic = rng.integers(0, K, size=n_docs)
    token_topic = np.repeat(doc_topic, dl)
    from_pool = rng.random(total) < POOL_FRACTION
    out = np.empty(total, dtype=np.int64)
    out[from_pool] = pool[_draw(rng, pool_cdf, int(from_pool.sum()))]
    for k in range(K):
        mask = (~from_pool) & (token_topic == k)
        out[mask] = topic_words[k][_draw(rng, topic_cdfs[k], int(mask.sum()))]
    return out


def _planted_doc(rng, change, word_id, new_weight, spec, pool, pool_cdf,
                 topic_words, topic_cdfs):
    dl = spec.doc_length
    tokens = np.empty(dl, dtype=np.int64)
    slots = np.arange(dl) % PLANTED_PERIOD == 0
    n_ctx = int((~slots).sum())
    from_pool = rng.random(n_ctx) < POOL_FRACTION
    use_new = rng.random(n_ctx) < new_weight
    ctx = np.empty(n_ctx, dtype=np.int64)
    n_pool = int(from_pool.sum())
    ctx[from_pool] = pool[_draw(rng, pool_cdf, n_pool)]
    for topic, mask in ((change.new_topic, (~from_pool) & use_new),
                        (change.old_topic, (~from_pool) & ~use_new)):
        ctx[mask] = topic_words[topic][_draw(rng, topic_cdfs[topic], int(mask.sum()))]
    tokens[slots] = word_id
    tokens[~slots] = ctx
    return tokens


# ---------------------------------------------------------------------------
# File output (standard manifest + plaintext documents + ground truth)
# ---------------------------------------------------------------------------

def write_synth_corpus(result: SynthResult, outdir) -> None:
    """Write documents, a manifest (one yearly slice per generated
    slice starting at 2000), and the ground-truth change CSV."""
    from pathlib import Path

    outdir = Path(outdir)
    docs_dir = outdir / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    for t, docs in enumerate(result.raw_slices):
        slice_dir = docs_dir / f"t{t}"
        slice_dir.mkdir(exist_ok=True)
        for j, tokens in enumerate(docs):
            rel = Path("docs") / f"t{t}" / f"d{j}.txt"
            (outdir / rel).write_text(" ".join(tokens) + "\n", encoding="utf-8")
            manifest_lines.append(f"{2000 + t}-01-01\t{rel}")
    (outdir / "manifest.tsv").write_text("\n".join(manifest_lines) + "\n",
                                         encoding="utf-8")
    with open(outdir / "truth.csv", "w", encoding="utf-8") as fh:
        fh.write("word,change_slice\n")
        for c in result.changes:
            fh.write(f"{c.word},{c.change_slice}\n")
