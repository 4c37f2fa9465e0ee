"""Word counting, frequency-band splitting, integer encoding, and the CWF score.

The vocabulary reserves id 0 for padding and id 1 for out-of-vocabulary
tokens; real words get dense ids from 2 upward (descending train-set count,
ties broken lexicographically).  ``FrequencySplit`` partitions real words
into a high band (count > threshold) and a low band (count <= threshold);
out-of-vocabulary tokens are treated as low-band, being by definition rare.

Every sequence is a row: ``encode`` turns a list of token sequences into an
[n x W] id matrix, W the longest row's length, and its [n] true lengths, and
``filter_rows`` band-filters such a matrix (through the split's boolean
id->high table) into the same pair of arrays.

The CWF score of a (context, response) pair is the sum of 1/n_w over the
common word types, where n_w is the word's occurrence count in the train
set; words never seen in training contribute 1/1.  Utterance/turn markers
carry no matching signal and are excluded throughout.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from .corpus import MARKER_TOKENS, text_lines
from .numerics import ContractError

PAD_ID = 0
OOV_ID = 1
DEFAULT_FREQUENCY_THRESHOLD = 5

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

    def serialize(self) -> str:
        return "".join(f"{w}\t{self.counts[w]}\n" for w in self.words_by_id)

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()


def build_vocab(train_instances) -> Vocabulary:
    """Count every token over train contexts and responses (both label classes)."""
    if not train_instances:
        raise ContractError("build_vocab requires a non-empty train set")
    sides = chain.from_iterable(map(attrgetter("context", "response"), train_instances))
    counts = dict(Counter(chain.from_iterable(sides)))  # first-seen order; a missing word raises
    ordered = sorted(counts, key=lambda w: (-counts[w], w))
    word_to_id = {w: i + 2 for i, w in enumerate(ordered)}
    return Vocabulary(word_to_id=word_to_id, counts=counts, words_by_id=tuple(ordered))


def save_vocab(vocab: Vocabulary, path):
    """One ``word<TAB>count`` line per real word, ordered by id."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(vocab.serialize())


def load_vocab(path) -> Vocabulary:
    """Read a ``save_vocab`` file; a line that is not UTF-8, a malformed
    line, a count that is not a non-negative integer or a repeated word
    raises ContractError."""
    counts = {}
    ordered = []
    for lineno, raw in text_lines(path, ContractError):
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
    high: frozenset
    low: frozenset
    is_high: np.ndarray  # bool per id in the vocabulary's id space; pad and oov are False


def split_by_frequency(vocab: Vocabulary, threshold=DEFAULT_FREQUENCY_THRESHOLD) -> FrequencySplit:
    if threshold < 0:
        raise ContractError("threshold must be >= 0")
    # pad (id 0) and oov (id 1) are never high; words_by_id[i] has id i + 2
    is_high = np.array([False, False] + [vocab.counts[w] > threshold for w in vocab.words_by_id])
    high, low = np.flatnonzero(is_high), np.flatnonzero(~is_high)[2:]
    return FrequencySplit(frozenset(high.tolist()), frozenset(low.tolist()), is_high)


def encode(texts, vocab: Vocabulary, length, side=CONTEXT):
    """Map each token sequence of ``texts`` to a row of ids, truncated to
    ``length`` and right-padded with pad ids; returns (ids [n x W], [n] true
    lengths), where W is the longest true length (0 for no rows).

    Overlong contexts keep their last ``length`` tokens (the most recent
    turns), overlong responses keep their first ``length`` tokens.  The
    tokens of all rows are looked up in one pass.
    """
    if length < 1:
        raise ContractError("encode requires length >= 1")
    if side not in (CONTEXT, RESPONSE):
        raise ContractError(f"side must be {CONTEXT!r} or {RESPONSE!r}, got {side!r}")
    kept = [t[-length:] for t in texts] if side == CONTEXT else [t[:length] for t in texts]
    lengths = np.fromiter(map(len, kept), dtype=np.int64, count=len(kept))
    ids = np.full((len(kept), lengths.max(initial=0)), PAD_ID, dtype=np.int64)
    words = map(vocab.word_to_id.get, chain.from_iterable(kept), repeat(OOV_ID))
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = np.fromiter(words, dtype=np.int64, count=int(lengths.sum()))
    return ids, lengths


def filter_rows(ids, split: FrequencySplit, band: str):
    """Keep the ids of ``band`` in each row of an [n x L] integer array, moved to
    the front in their original order and re-padded; returns (ids [n x W],
    [n] kept counts), where W is the largest kept count."""
    if band not in (HIGH, LOW):
        raise ContractError(f"band must be {HIGH!r} or {LOW!r}, got {band!r}")
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= len(split.is_high):
        raise ContractError(f"token id out of range [0, {len(split.is_high)}) in band filter")
    high = split.is_high[ids]
    keep = high if band == HIGH else ~high & (ids != PAD_ID)
    counts = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")[:, : counts.max(initial=0)]  # kept ids first, in order
    kept = np.take_along_axis(ids, order, axis=1)
    kept[np.arange(kept.shape[1]) >= counts[:, None]] = PAD_ID
    return kept, counts


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
