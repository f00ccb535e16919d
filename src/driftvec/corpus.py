"""Corpus ingestion: tokenization, vocabulary, time slicing, holdout
splits, subsampling, skip-gram pair extraction and negative sampling.

An epoch's pair stream is its positive pairs, the ``(centers,
contexts)`` arrays of :func:`extract_pairs`, plus the (n, ratio) noise
contexts that :func:`sample_negatives` draws for them: each positive is
stored once. ``isg.iter_minibatches`` builds the labelled
``(centers, contexts, labels)`` triples the trainers take from those,
one minibatch at a time. All values produced here are frozen after
construction and safe to share between threads. Every seeded operation
derives its generator from ``numpy.random.default_rng([seed, ...])`` so
results are reproducible byte for byte.
"""

import bisect
import gzip
import json
import string
import warnings
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, pairwise
from pathlib import Path

import numpy as np

from .errors import DataError, EmptyCorpusError, open_text

NOISE_POWER = 0.75  # exponent of the unigram noise distribution
# Noise draws that sample_negatives makes at a time, so that its scratch is
# two blocks of DRAW_BLOCK values beside the draws it returns
DRAW_BLOCK = 1 << 16

_PUNC_TABLE = str.maketrans("", "", string.punctuation)


def check_seed(seed: int) -> None:
    """Raise a ValueError naming ``seed`` unless it is >= 0: the numpy
    generators seeded from it accept only non-negative integers."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, not {seed}")


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation characters, split on whitespace."""
    return text.lower().translate(_PUNC_TABLE).split()


def read_stopwords(path) -> set[str]:
    """One word per line, UTF-8; blank lines ignored."""
    words = set()
    with open_text(path) as fh:
        for line in fh:
            word = line.strip()
            if word:
                words.add(word.lower())
    return words


def parse_timestamp(text: str) -> datetime:
    """ISO-8601 timestamp as a naive UTC datetime: one without an offset is
    read as UTC. A bare year is taken as January 1st."""
    text = text.strip()
    try:
        ts = (datetime(int(text), 1, 1) if text.isdigit() and len(text) == 4
              else datetime.fromisoformat(text))
    except ValueError as exc:
        raise DataError(f"unparseable timestamp {text!r}") from exc
    if ts.tzinfo is None:
        return ts
    try:
        return ts.astimezone(timezone.utc).replace(tzinfo=None)
    except OverflowError as exc:
        raise DataError(f"timestamp {text!r} falls outside the years 1-9999 in UTC") from exc


def read_manifest(path) -> list[tuple[datetime, Path]]:
    """Manifest format: one ``<ISO-8601 timestamp>\\t<document path>`` per line.

    Relative document paths are resolved against the manifest's directory.
    """
    base = Path(path).parent
    records = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(
                    f"{path}:{lineno}: expected '<timestamp>\\t<path>', got {line!r}"
                )
            ts = parse_timestamp(parts[0])
            doc_path = Path(parts[1])
            if not doc_path.is_absolute():
                doc_path = base / doc_path
            records.append((ts, doc_path))
    return records


def load_documents(manifest_path) -> list[tuple[datetime, list[str]]]:
    """Read and tokenize every document named in a manifest."""
    docs = []
    for ts, doc_path in read_manifest(manifest_path):
        if not doc_path.exists():
            raise DataError(f"document not found: {doc_path}")
        with open_text(doc_path) as fh:
            docs.append((ts, tokenize(fh.read())))
    return docs


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vocabulary:
    """Dense word<->id map with total occurrence counts.

    Words are ordered by descending total count, ties broken
    lexicographically, so ids are stable across runs on the same corpus.
    ``id_of`` maps each word to its position in ``words``.
    """

    words: tuple
    total_count: np.ndarray       # shape (L,), int64
    id_of: dict = field(init=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.words)

    def __post_init__(self):
        object.__setattr__(self, "id_of", {w: i for i, w in enumerate(self.words)})
        self.total_count.setflags(write=False)


def assign_slices(documents, boundaries):
    """Bucket timestamped documents into half-open intervals.

    ``boundaries`` must be a strictly increasing sequence of at least two
    timestamps; slice ``t`` covers ``[boundaries[t], boundaries[t+1])``.
    Documents outside every interval are dropped.

    Returns ``(sliced_docs, dropped)`` where ``sliced_docs[t]`` is a list
    of token lists.
    """
    if len(boundaries) < 2:
        raise DataError("need at least two slice boundaries")
    for a, b in pairwise(boundaries):
        if not a < b:
            raise DataError("slice boundaries must be strictly increasing")
    T = len(boundaries) - 1
    sliced = [[] for _ in range(T)]
    dropped = 0
    for ts, tokens in documents:
        if ts < boundaries[0] or ts >= boundaries[-1]:
            dropped += 1
            continue
        sliced[bisect.bisect_right(boundaries, ts) - 1].append(tokens)
    if all(len(s) == 0 for s in sliced):
        raise EmptyCorpusError("empty corpus: every document fell outside the slice boundaries")
    return sliced, dropped


def build_vocabulary(sliced_docs, stopwords, max_size: int) -> Vocabulary:
    """Count words over all slices and keep the ``max_size`` most frequent.

    ``sliced_docs`` is a per-slice list of token-list documents, as
    produced by :func:`assign_slices`. Stopwords are excluded before
    ranking. Raises :class:`EmptyCorpusError` if nothing survives.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    totals = Counter(chain.from_iterable(chain.from_iterable(sliced_docs)))
    for word in stopwords:
        del totals[word]        # a Counter ignores absent keys
    if not totals:
        raise EmptyCorpusError("empty corpus: no tokens left after stopword filtering")

    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
    words = tuple(w for w, _ in ranked)
    total_count = np.array([n for _, n in ranked], dtype=np.int64)
    return Vocabulary(words=words, total_count=total_count)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Export as ``<word>\\t<id>\\t<total_count>`` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, word in enumerate(vocab.words):
            fh.write(f"{word}\t{i}\t{int(vocab.total_count[i])}\n")


_INT64_MAX = int(np.iinfo(np.int64).max)


def load_vocabulary(path) -> Vocabulary:
    """Load an exported vocabulary. Each count is an int64 >= 0, and
    at least one is > 0, since the counts weight the noise distribution."""
    id_of = {}
    totals = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: malformed vocabulary line")
            word, idx, total = parts
            try:
                idx, total = int(idx), int(total)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed vocabulary line: id and "
                                f"count must be integers, got {line.rstrip()!r}") from exc
            if idx != len(id_of):
                raise DataError(f"{path}:{lineno}: ids must be dense and ordered")
            if not 0 <= total <= _INT64_MAX:
                raise DataError(f"{path}:{lineno}: count {total} does not lie in "
                                f"0..{_INT64_MAX}")
            # a word is one whitespace-free field of the embedding text format
            if word.split() != [word]:
                raise DataError(f"{path}:{lineno}: word {word!r} is empty or holds whitespace")
            if word in id_of:
                raise DataError(f"{path}:{lineno}: word {word!r} given twice")
            id_of[word] = idx
            totals.append(total)
    if not id_of:
        raise EmptyCorpusError(f"empty vocabulary file: {path}")
    if not any(totals):
        raise DataError(f"{path}: every count is 0, so no word can be drawn as a negative")
    return Vocabulary(words=tuple(id_of), total_count=np.array(totals, dtype=np.int64))


# ---------------------------------------------------------------------------
# Time-sliced corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceReport:
    kept: int
    dropped: int
    oov_tokens: int
    empty_slices: tuple = ()


@dataclass(frozen=True)
class TimeSlicedCorpus:
    """Documents bucketed into T chronologically ordered slices.

    Each document is an int64 array of token ids below the owning
    vocabulary's size. Arrays are read-only.
    """

    slices: tuple          # per slice: tuple of np.ndarray documents
    split_tag: str = "full"

    @property
    def T(self) -> int:
        return len(self.slices)

    def __post_init__(self):
        for docs in self.slices:
            for doc in docs:
                doc.setflags(write=False)

    def doc_counts(self) -> list[int]:
        return [len(docs) for docs in self.slices]

    def token_counts(self) -> list[int]:
        return [int(sum(len(d) for d in docs)) for docs in self.slices]


def slice_corpus(documents, boundaries, vocab: Vocabulary):
    """Assign timestamped token documents to slices and encode them.

    Tokens outside the vocabulary are dropped. Returns
    ``(TimeSlicedCorpus, SliceReport)``; raises
    :class:`EmptyCorpusError` when every document is dropped.
    """
    sliced, dropped = assign_slices(documents, boundaries)
    corpus = encode_sliced_docs(sliced, vocab)
    doc_counts = corpus.doc_counts()
    n_tokens = sum(len(tokens) for docs in sliced for tokens in docs)
    report = SliceReport(kept=sum(doc_counts), dropped=dropped,
                         oov_tokens=n_tokens - sum(corpus.token_counts()),
                         empty_slices=tuple(t for t, n in enumerate(doc_counts) if n == 0))
    return corpus, report


def encode_sliced_docs(sliced_docs, vocab: Vocabulary) -> TimeSlicedCorpus:
    """Encode already-sliced token documents, dropping tokens outside
    the vocabulary."""
    id_of = vocab.id_of
    out = tuple(
        tuple(np.asarray([id_of[t] for t in tokens if t in id_of], dtype=np.int64)
              for tokens in docs)
        for docs in sliced_docs
    )
    return TimeSlicedCorpus(slices=out)


def split_holdout(corpus: TimeSlicedCorpus, fraction: float, seed: int):
    """Hold out ``fraction`` of each slice's documents, half for
    validation and half for testing (validation gets the smaller half
    when the holdout count is odd).

    The three returned corpora partition the input exactly and the split
    is deterministic given ``seed``.
    """
    check_seed(seed)
    if not 0 < fraction < 1:
        raise ValueError("holdout fraction must lie in (0, 1)")
    train, valid, test = [], [], []
    for t, docs in enumerate(corpus.slices):
        n = len(docs)
        if n < 3:
            raise DataError(f"slice {t} has only {n} documents; need at least 3 to hold out")
        n_hold = round(n * fraction)
        if n_hold < 2:
            raise DataError(
                f"slice {t}: holdout fraction {fraction} selects {n_hold} of {n} "
                "documents; need at least 2 (one validation, one test)"
            )
        rng = np.random.default_rng([seed, t, 0x5eed])
        order = rng.permutation(n)
        held = order[:n_hold]
        v_idx = sorted(held[: n_hold // 2].tolist())
        s_idx = sorted(held[n_hold // 2:].tolist())
        t_idx = sorted(order[n_hold:].tolist())
        train.append(tuple(docs[i] for i in t_idx))
        valid.append(tuple(docs[i] for i in v_idx))
        test.append(tuple(docs[i] for i in s_idx))
    return (
        TimeSlicedCorpus(slices=tuple(train), split_tag="train"),
        TimeSlicedCorpus(slices=tuple(valid), split_tag="valid"),
        TimeSlicedCorpus(slices=tuple(test), split_tag="test"),
    )


def subsample_corpus(corpus: TimeSlicedCorpus, fraction: float,
                     seed: int) -> TimeSlicedCorpus:
    """Keep roughly ``fraction`` of each slice's documents.

    ``fraction=1`` returns the corpus unchanged. A slice that ends up
    empty triggers a warning, not an error: extreme scarcity is a valid
    operating point.
    """
    check_seed(seed)
    if not 0 < fraction <= 1:
        raise ValueError("subsample fraction must lie in (0, 1]")
    if fraction == 1:
        return corpus
    out = []
    for t, docs in enumerate(corpus.slices):
        n = len(docs)
        keep = round(n * fraction)
        rng = np.random.default_rng([seed, t, 0x50b5])
        idx = sorted(rng.permutation(n)[:keep].tolist())
        if n and not idx:
            warnings.warn(f"subsample left slice {t} empty", stacklevel=2)
        out.append(tuple(docs[i] for i in idx))
    return TimeSlicedCorpus(slices=tuple(out), split_tag=corpus.split_tag)


# ---------------------------------------------------------------------------
# Training pairs and negatives
# ---------------------------------------------------------------------------

def extract_pairs(docs, window: int):
    """Emit every (center, context) pair within ``window`` positions.

    Pairs never cross document boundaries. The canonical order is
    offset-major: for each offset k = 1..window, all left-neighbour pairs
    by position, then all right-neighbour pairs.

    Returns ``(centers, contexts)`` int64 arrays.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    docs = [np.asarray(d, dtype=np.int64) for d in docs]
    lengths = np.array([len(d) for d in docs], dtype=np.int64)
    flat = np.concatenate([np.empty(0, dtype=np.int64), *docs])
    doc_id = np.repeat(np.arange(len(docs)), lengths)
    offsets = range(1, min(window, len(flat)) + 1)
    # a document of n tokens holds n - k pairs k apart
    counts = [int(np.maximum(lengths - k, 0).sum()) for k in offsets]
    centers = np.empty(2 * sum(counts), dtype=np.int64)
    contexts = np.empty_like(centers)
    start = 0
    for k, n in zip(offsets, counts):
        same_doc = doc_id[:-k] == doc_id[k:]
        left, right = slice(start, start + n), slice(start + n, start + 2 * n)
        np.compress(same_doc, flat[:-k], out=centers[left])
        np.compress(same_doc, flat[k:], out=centers[right])
        contexts[left], contexts[right] = centers[right], centers[left]
        start += 2 * n
    return centers, contexts


def noise_distribution(vocab: Vocabulary) -> np.ndarray:
    """Unigram distribution raised to the 0.75 power, renormalized."""
    weights = vocab.total_count.astype(np.float64) ** NOISE_POWER
    return weights / weights.sum()


def sample_negatives(vocab: Vocabulary, positives, ratio: int, seed):
    """Draw ``ratio`` noise contexts for each positive pair.

    Noise pairs keep the positive's center and draw the context from the
    power-0.75 unigram distribution. ``seed`` may be an int or a sequence
    of ints (used to derive per-slice/per-epoch streams).

    Returns the read-only (n, ratio) int64 array of noise-context ids:
    row i holds the draws of positive i, in draw order. The labelled
    pairs are built from it by ``isg.iter_minibatches``.
    """
    if ratio < 1:
        raise ValueError("negative ratio must be >= 1")
    n = len(positives[0])
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(noise_distribution(vocab))
    # above every uniform in [0, 1), so every draw is below vocab.size
    cdf[-1] = 1.0
    draws = np.empty(n * ratio, dtype=np.int64)
    # the generator's doubles come one at a time, so drawing them a block
    # at a time gives the stream of one call over all n * ratio
    uniforms = np.empty(min(len(draws), DRAW_BLOCK))
    for start in range(0, len(draws), DRAW_BLOCK):
        block = draws[start:start + DRAW_BLOCK]
        u = uniforms[:len(block)]
        rng.random(out=u)
        block[:] = np.searchsorted(cdf, u, side="right")
    draws = draws.reshape(n, ratio)
    draws.setflags(write=False)
    return draws


# ---------------------------------------------------------------------------
# Corpus files
# ---------------------------------------------------------------------------

def save_corpus(corpus: TimeSlicedCorpus, path) -> None:
    """Write a corpus as JSON (gzipped when the path ends in .gz)."""
    payload = {
        "split": corpus.split_tag,
        "T": corpus.T,
        "slices": [[doc.tolist() for doc in docs] for docs in corpus.slices],
    }
    raw = json.dumps(payload).encode("utf-8")
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "wb") as fh:
            fh.write(raw)
    else:
        path.write_bytes(raw)


def _document_ids(path, t, k, doc) -> np.ndarray:
    try:
        ids = np.array(doc) if isinstance(doc, list) else None
    except ValueError:
        ids = None
    if ids is None or ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise DataError(f"{path}: slice {t}, document {k} is not a list of integer token ids")
    return ids.astype(np.int64, copy=False)


def load_corpus(path, vocab_size: int | None = None) -> TimeSlicedCorpus:
    """Read a corpus written by :func:`save_corpus`.

    With ``vocab_size`` given, every token id must lie in
    ``[0, vocab_size)``. A corpus with no slices raises :class:`DataError`
    naming the file; so does any malformed content, naming the offending
    slice and document too.
    """
    path = Path(path)
    try:
        if path.suffix == ".gz":
            with gzip.open(path, "rb") as fh:
                payload = json.loads(fh.read().decode("utf-8"))
        else:
            payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"unreadable corpus file {path}: {exc}") from exc
    raw = payload.get("slices") if isinstance(payload, dict) else None
    if not isinstance(raw, list) or not all(isinstance(docs, list) for docs in raw):
        raise DataError(f'{path}: no "slices" list of per-slice document lists')
    if not raw:
        raise DataError(f"{path}: the corpus holds no slices")
    if payload.get("T", len(raw)) != len(raw):
        raise DataError(f"{path}: header says T={payload['T']} but holds {len(raw)} slices")
    slices = tuple(
        tuple(_document_ids(path, t, k, doc) for k, doc in enumerate(docs))
        for t, docs in enumerate(raw)
    )
    if vocab_size is not None:
        for t, docs in enumerate(slices):
            ids = np.concatenate(docs) if docs else np.empty(0, dtype=np.int64)
            outside = (ids < 0) | (ids >= vocab_size)
            if outside.any():
                i = int(np.argmax(outside))
                k = int(np.searchsorted(np.cumsum([len(doc) for doc in docs]), i,
                                        side="right"))
                raise DataError(f"{path}: slice {t}, document {k}: token id {ids[i]} "
                                f"is outside the vocabulary of {vocab_size} words")
    return TimeSlicedCorpus(slices=slices, split_tag=payload.get("split", "full"))
