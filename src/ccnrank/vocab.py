"""Word counting, frequency-band splitting, integer encoding, and the CWF score.

The vocabulary reserves id 0 for padding and id 1 for out-of-vocabulary
tokens; real words get dense ids from 2 upward (descending train-set count,
ties broken lexicographically).  ``FrequencySplit`` partitions real words
into a high band (count > threshold) and a low band (count <= threshold);
out-of-vocabulary tokens are treated as low-band, being by definition rare.
Its boolean id->high table lets ``filter_rows`` band-filter [n x L] id matrices.

The CWF score of a (context, response) pair is the sum of 1/n_w over the
common word types, where n_w is the word's occurrence count in the train
set; words never seen in training contribute 1/1.  Utterance/turn markers
carry no matching signal and are excluded throughout.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .corpus import MARKER_TOKENS
from .numerics import ContractError

PAD_ID = 0
OOV_ID = 1
DEFAULT_FREQUENCY_THRESHOLD = 5
DEFAULT_MAX_LEN = 160

HIGH = "high"
LOW = "low"
CONTEXT = "context"
RESPONSE = "response"


@dataclass(frozen=True, eq=False)
class Vocabulary:
    word_to_id: dict
    counts: dict
    words_by_id: tuple  # real words only, index i holds the word with id i + 2

    @property
    def size(self):
        """Total id space including pad and oov."""
        return len(self.words_by_id) + 2

    def lookup(self, token) -> int:
        return self.word_to_id.get(token, OOV_ID)

    def serialize(self) -> str:
        return "".join(f"{w}\t{self.counts[w]}\n" for w in self.words_by_id)

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()


def build_vocab(train_instances) -> Vocabulary:
    """Count every token over train contexts and responses (both label classes)."""
    if not train_instances:
        raise ContractError("build_vocab requires a non-empty train set")
    counts = {}
    for inst in train_instances:
        for token in inst.context:
            counts[token] = counts.get(token, 0) + 1
        for token in inst.response:
            counts[token] = counts.get(token, 0) + 1
    ordered = sorted(counts, key=lambda w: (-counts[w], w))
    word_to_id = {w: i + 2 for i, w in enumerate(ordered)}
    return Vocabulary(word_to_id=word_to_id, counts=counts, words_by_id=tuple(ordered))


def save_vocab(vocab: Vocabulary, path):
    """One ``word<TAB>count`` line per real word, ordered by id."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(vocab.serialize())


def load_vocab(path) -> Vocabulary:
    """Read a ``save_vocab`` file; a malformed line, a count that is not a
    non-negative integer or a repeated word raises ContractError."""
    counts = {}
    ordered = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            word, sep, count = line.partition("\t")
            if not sep or not word:
                raise ContractError(f"{path}: line {lineno}: expected 'word<TAB>count'")
            if not (count.isascii() and count.isdigit()):
                raise ContractError(f"{path}: line {lineno}: count {count!r} is not a non-negative integer")
            if word in counts:
                raise ContractError(f"{path}: line {lineno}: duplicate word {word!r}")
            counts[word] = int(count)
            ordered.append(word)
    word_to_id = {w: i + 2 for i, w in enumerate(ordered)}
    return Vocabulary(word_to_id=word_to_id, counts=counts, words_by_id=tuple(ordered))


@dataclass(frozen=True, eq=False)
class FrequencySplit:
    threshold: int
    high: frozenset
    low: frozenset
    is_high: np.ndarray  # bool per id in the vocabulary's id space; pad and oov are False


def split_by_frequency(vocab: Vocabulary, threshold=DEFAULT_FREQUENCY_THRESHOLD) -> FrequencySplit:
    if threshold < 0:
        raise ContractError("threshold must be >= 0")
    # pad (id 0) and oov (id 1) are never high; words_by_id[i] has id i + 2
    is_high = np.array([False, False] + [vocab.counts[w] > threshold for w in vocab.words_by_id])
    high, low = np.flatnonzero(is_high), np.flatnonzero(~is_high)[2:]
    return FrequencySplit(threshold, frozenset(high.tolist()), frozenset(low.tolist()), is_high)


@dataclass(eq=False)
class EncodedSequence:
    """Fixed-length id vector; positions at and beyond true_length are pad."""

    ids: np.ndarray
    true_length: int

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)


def encode(tokens, vocab: Vocabulary, length=DEFAULT_MAX_LEN, side=CONTEXT) -> EncodedSequence:
    """Map tokens to ids, truncate to ``length`` and right-pad with pad ids.

    Overlong contexts keep their last ``length`` tokens (the most recent
    turns), overlong responses keep their first ``length`` tokens.
    """
    if length < 1:
        raise ContractError("encode requires length >= 1")
    if side not in (CONTEXT, RESPONSE):
        raise ContractError(f"side must be {CONTEXT!r} or {RESPONSE!r}, got {side!r}")
    kept = tokens[-length:] if side == CONTEXT else tokens[:length]
    ids = np.full(length, PAD_ID, dtype=np.int64)
    ids[: len(kept)] = [vocab.lookup(token) for token in kept]
    return EncodedSequence(ids=ids, true_length=len(kept))


def filter_rows(ids, split: FrequencySplit, band: str):
    """Keep the ids of ``band`` in each row of an [n x L] integer array, moved to
    the front in their original order and re-padded; returns (ids, [n] kept counts)."""
    if band not in (HIGH, LOW):
        raise ContractError(f"band must be {HIGH!r} or {LOW!r}, got {band!r}")
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= len(split.is_high):
        raise ContractError(f"token id out of range [0, {len(split.is_high)}) in band filter")
    high = split.is_high[ids]
    keep = high if band == HIGH else ~high & (ids != PAD_ID)
    order = np.argsort(~keep, axis=1, kind="stable")  # kept ids first, in order
    return np.take_along_axis(np.where(keep, ids, PAD_ID), order, axis=1), keep.sum(axis=1)


def filter_sequence(seq: EncodedSequence, split: FrequencySplit, band: str) -> EncodedSequence:
    """Keep only ids of the requested band, compacted and re-padded to the same length."""
    ids, lengths = filter_rows(seq.ids[None, :], split, band)
    return EncodedSequence(ids=ids[0], true_length=int(lengths[0]))


def common_words(context, response) -> tuple:
    """Token types present in both sequences, ordered by first appearance in
    the response, deduplicated; utterance/turn markers excluded."""
    context_types = set(context) - MARKER_TOKENS
    seen = set()
    out = []
    for token in response:
        if token in context_types and token not in seen and token not in MARKER_TOKENS:
            seen.add(token)
            out.append(token)
    return tuple(out)


def cwf_score(context, response, vocab: Vocabulary) -> float:
    """Sum of reciprocal train-set counts over common word types.

    Words absent from the count table are maximally rare and contribute 1/1.
    """
    return float(sum(1.0 / vocab.counts.get(w, 1) for w in common_words(context, response)))
