"""Tokenization, dataset file IO, and deterministic synthetic corpora.

File formats
------------
Train CSV (UTF-8, RFC-4180 quoting), header ``Context,Utterance,Label``:
one labeled (context, response) pair per row, Label is the literal 0 or 1.

Eval CSV, header ``Context,Ground Truth Utterance,Distractor_0,...,
Distractor_8``: one context plus 10 candidate responses per row, the
ground-truth candidate first.

Loading tokenizes each distinct text, and each distinct whitespace chunk,
once per file: the per-load tables hold every token tuple and share one
string object among equal tokens, and nothing is cached across loads.  A
file that is not UTF-8, holds a field over the csv module's size limit or
breaks its format raises ``ParseError`` naming the file and the line or row.

The synthetic generator builds desk-scale corpora in the same shape as the
real data: dialogues draw a topic, each topic owns rare keyword tokens and
a slice of frequent topical vocabulary, the correct response shares a rare
keyword (and echoes topical words) with its context, and negatives or
distractors come from other topics.  Keyword pools are sized so every
keyword lands at or below the frequency threshold in the emitted train set
while filler words land above it.
"""

from __future__ import annotations

import csv
import math
import re
import string
from dataclasses import dataclass
from itertools import chain

import numpy as np

TokenSequence = tuple  # tuple of token strings

END_OF_UTTERANCE = "__eou__"
END_OF_TURN = "__eot__"
MARKER_TOKENS = frozenset({END_OF_UTTERANCE, END_OF_TURN})
NUM_CANDIDATES = 10

TRAIN_HEADER = ["Context", "Utterance", "Label"]
EVAL_HEADER = ["Context", "Ground Truth Utterance"] + [f"Distractor_{i}" for i in range(9)]

_TAG_RE = re.compile(r"^__[a-z0-9_]+__$")
_PUNCT = frozenset(string.punctuation)


class ParseError(ValueError):
    """A dataset file does not match its format."""


class ConfigError(ValueError):
    """A configuration value is unusable."""


def _chunk_tokens(chunk):
    """The tokens of one lowercased whitespace-free chunk: leading and trailing
    punctuation characters become their own tokens, unless the chunk is a tag."""
    if chunk[0] not in _PUNCT and chunk[-1] not in _PUNCT:  # tags start with "_", so reach the regex
        return (chunk,)
    if _TAG_RE.match(chunk):
        return (chunk,)
    i, j = 0, len(chunk)
    while i < j and chunk[i] in _PUNCT:
        i += 1
    while j > i and chunk[j - 1] in _PUNCT:
        j -= 1
    if i == j:
        return tuple(chunk)
    return (*chunk[:i], chunk[i:j], *chunk[j:])


def tokenize(text: str) -> TokenSequence:
    """Rule-based tokenizer: lowercase, split on whitespace, detach edge punctuation.

    Leading/trailing punctuation characters of a chunk become their own
    tokens; interior punctuation is kept (``don't`` stays whole).  Tag
    tokens of the form ``__name__`` (including ``__eou__``/``__eot__``)
    are never split.  Deterministic, and idempotent on its own output
    joined by single spaces.
    """
    return tuple(chain.from_iterable(map(_chunk_tokens, text.lower().split())))


def _load_tokenizer():
    """``tokenize`` for one file load: each distinct text and each distinct
    chunk is tokenized once, and equal tokens share one string object."""
    texts, words = {}, {}

    class ChunkTable(dict):
        def __missing__(self, chunk):
            tokens = self[chunk] = tuple(words.setdefault(t, t) for t in _chunk_tokens(chunk))
            return tokens

    chunk_tokens = ChunkTable().__getitem__

    def tokenize_text(text):
        tokens = texts.get(text)
        if tokens is None:
            tokens = texts[text] = tuple(chain.from_iterable(map(chunk_tokens, text.lower().split())))
        return tokens

    return tokenize_text


@dataclass(frozen=True)
class TrainInstance:
    context: TokenSequence
    response: TokenSequence
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ParseError(f"label must be 0 or 1, got {self.label!r}")


@dataclass(frozen=True)
class EvalInstance:
    """A context with exactly 10 candidates; index 0 is the correct response."""

    context: TokenSequence
    candidates: tuple

    def __post_init__(self):
        if len(self.candidates) != NUM_CANDIDATES:
            raise ParseError(f"expected {NUM_CANDIDATES} candidates, got {len(self.candidates)}")


# -- file IO -----------------------------------------------------------------


def _rows(path, header):
    """Yield ``(row number, row)`` for each data row of a CSV file whose first
    row is ``header``; malformed input raises ParseError naming the file."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            first = next(reader, None)
            if first is None:
                raise ParseError(f"{path}: empty file")
            if first != header:
                raise ParseError(f"{path}: row 1: expected header {header}, got {first}")
            yield from enumerate(reader, start=1)
        except csv.Error as err:  # e.g. a field over the csv module's size limit
            raise ParseError(f"{path}: line {reader.line_num}: {err}") from None
        except UnicodeDecodeError as err:
            raise ParseError(f"{path}: not UTF-8 after line {reader.line_num}: {err.reason}") from None


def load_train(path) -> list:
    """Read a train CSV into TrainInstances, preserving row order."""
    out = []
    tokens = _load_tokenizer()  # a context appears on two rows, once per label
    for i, row in _rows(path, TRAIN_HEADER):
        if len(row) != 3:
            raise ParseError(f"{path}: row {i}: expected 3 columns, got {len(row)}")
        if row[2] not in ("0", "1"):
            raise ParseError(f"{path}: row {i}: label must be 0 or 1, got {row[2]!r}")
        out.append(TrainInstance(tokens(row[0]), tokens(row[1]), int(row[2])))
    return out


def write_train(instances, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(TRAIN_HEADER)
        for inst in instances:
            writer.writerow([" ".join(inst.context), " ".join(inst.response), str(inst.label)])


def load_eval(path) -> list:
    """Read an eval CSV; candidates[0] is the ground-truth column."""
    out = []
    tokens = _load_tokenizer()
    for i, row in _rows(path, EVAL_HEADER):
        if len(row) != 1 + NUM_CANDIDATES:
            raise ParseError(f"{path}: row {i}: expected {1 + NUM_CANDIDATES} columns, got {len(row)}")
        out.append(EvalInstance(tokens(row[0]), tuple(tokens(c) for c in row[1:])))
    return out


def write_eval(instances, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(EVAL_HEADER)
        for inst in instances:
            writer.writerow([" ".join(inst.context)] + [" ".join(c) for c in inst.candidates])


# -- synthetic corpus ---------------------------------------------------------


@dataclass(frozen=True)
class SyntheticConfig:
    topics: int = 4
    keywords_per_topic: int = 50
    filler_vocab_size: int = 60
    context_turns: int = 2

    def __post_init__(self):
        if self.topics < 2:
            raise ConfigError("topics must be >= 2 (negatives are drawn from other topics)")
        if self.keywords_per_topic < 1:
            raise ConfigError("keywords_per_topic must be >= 1")
        if self.filler_vocab_size < 2 * self.topics:
            raise ConfigError("filler_vocab_size must be at least 2 * topics")
        if self.context_turns < 1:
            raise ConfigError("context_turns must be >= 1")


def text_lines(path, error):
    """Yield ``(line number, line)`` for each line of a UTF-8 text file,
    numbered from 1; a line that is not UTF-8 raises ``error`` naming the
    file and line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line.encode("utf-8")  # a byte that did not decode is a lone surrogate now
            except UnicodeEncodeError:
                raise error(f"{path}: line {lineno}: not UTF-8") from None
            yield lineno, line


def parse_config_file(path) -> dict:
    """Parse a ``key = value`` text file (one pair per line, # comments); a key may appear once."""
    values = {}
    for lineno, raw in text_lines(path, ConfigError):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


class _TopicWorld:
    """Vocabulary pools and keyword bookkeeping for one generation run."""

    #: fraction of filler draws taken from the active topic's pool (the rest
    #: are universal); high enough that sequence encoders can pick the topic
    #: up from a few hundred gradient steps
    topical_share = 0.85

    def __init__(self, rng: np.random.Generator, config: SyntheticConfig):
        self.rng = rng
        self.config = config
        n_universal = config.filler_vocab_size // 2
        per_topic = (config.filler_vocab_size - n_universal) // config.topics
        self.universal = [f"w{i:03d}" for i in range(n_universal)]
        self.topical = [
            [f"t{t}x{i:02d}" for i in range(per_topic)] for t in range(config.topics)
        ]
        self.keyword_pool_size = [config.keywords_per_topic] * config.topics
        self.pos_counter = [0] * config.topics
        self.neg_counter = [0] * config.topics
        self.eval_counter = [0] * config.topics

    def grow_pools(self, pos_per_topic, neg_per_topic):
        # Keep every keyword at <= 3 occurrences from its own positive pair
        # (context counted twice via the negative mirror row, response once)
        # plus <= 2 reuses as a negative-response keyword: 5 <= threshold.
        for t in range(self.config.topics):
            need = max(self.keyword_pool_size[t], pos_per_topic[t], math.ceil(neg_per_topic[t] / 2))
            self.keyword_pool_size[t] = need

    def keyword(self, topic, index):
        return f"kw{topic}x{index % self.keyword_pool_size[topic]}"

    def filler(self, topic):
        if self.rng.random() >= self.topical_share:
            return self.universal[self.rng.integers(len(self.universal))]
        pool = self.topical[topic]
        return pool[self.rng.integers(len(pool))]

    def utterance(self, topic, n_tokens):
        return [self.filler(topic) for _ in range(n_tokens)]

    def context(self, topic, keyword):
        tokens = []
        turns = self.config.context_turns
        kw_turn = int(self.rng.integers(turns))
        for turn in range(turns):
            body = self.utterance(topic, int(self.rng.integers(5, 9)))
            if turn == kw_turn:
                body.insert(int(self.rng.integers(len(body) + 1)), keyword)
            tokens.extend(body)
            tokens.append(END_OF_UTTERANCE)
            tokens.append(END_OF_TURN)
        return tuple(tokens)

    def response(self, topic, keyword, echo_source=None):
        """A single utterance of ``topic``; echoes two topical words of the context
        when ``echo_source`` is given, else draws two fresh topical words so that
        correct responses and distractors share the same length profile."""
        body = self.utterance(topic, int(self.rng.integers(6, 9)))
        topical = self.topical[topic]
        pool = topical if echo_source is None else list(filter(set(topical).__contains__, echo_source))
        for _ in range(2):  # each word draws its position, then a pool word (a filler if the pool is empty)
            position = int(self.rng.integers(len(body) + 1))
            body.insert(position, pool[int(self.rng.integers(len(pool)))] if pool else self.filler(topic))
        body.insert(int(self.rng.integers(len(body) + 1)), keyword)
        body.append(END_OF_UTTERANCE)
        return tuple(body)


def _other_topic(topic, draw, n_topics):
    return (topic + 1 + draw) % n_topics


def generate_splits(seed, n_train, n_eval, n_val, config=SyntheticConfig()):
    """Deterministic synthetic (train, eval, validation) sets; validation is
    in eval format and drawn last from the same stream, so the train and eval
    sets do not depend on ``n_val``."""
    if n_train < 1 or n_eval < 1 or n_val < 0:
        raise ConfigError(f"n_train and n_eval must be >= 1 and n_val >= 0, got {n_train}, {n_eval}, {n_val}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    T = config.topics

    n_pairs = (n_train + 1) // 2
    pair_topics = rng.integers(0, T, size=n_pairs)
    neg_topics = np.array(
        [_other_topic(t, int(rng.integers(T - 1)), T) for t in pair_topics]
    )
    pos_per_topic = np.bincount(pair_topics, minlength=T)
    neg_per_topic = np.bincount(neg_topics, minlength=T)

    world = _TopicWorld(rng, config)
    world.grow_pools(pos_per_topic, neg_per_topic)

    train = []
    for topic, neg_topic in zip(pair_topics, neg_topics):
        topic, neg_topic = int(topic), int(neg_topic)
        kw = world.keyword(topic, world.pos_counter[topic])
        world.pos_counter[topic] += 1
        ctx = world.context(topic, kw)
        train.append(TrainInstance(ctx, world.response(topic, kw, echo_source=ctx), 1))
        neg_kw = world.keyword(neg_topic, world.neg_counter[neg_topic])
        world.neg_counter[neg_topic] += 1
        train.append(TrainInstance(ctx, world.response(neg_topic, neg_kw), 0))
    train = train[:n_train]

    def eval_instance():
        topic = int(rng.integers(T))
        kw = world.keyword(topic, world.eval_counter[topic])
        world.eval_counter[topic] += 1
        ctx = world.context(topic, kw)
        correct = world.response(topic, kw, echo_source=ctx)
        candidates = [correct]
        for _ in range(NUM_CANDIDATES - 1):
            d_topic = _other_topic(topic, int(rng.integers(T - 1)), T)
            d_kw = world.keyword(d_topic, world.eval_counter[d_topic])
            world.eval_counter[d_topic] += 1
            candidates.append(world.response(d_topic, d_kw))
        return EvalInstance(ctx, tuple(candidates))

    evals = [eval_instance() for _ in range(n_eval)]
    vals = [eval_instance() for _ in range(n_val)]
    return train, evals, vals


def topic_keywords(instance_tokens) -> set:
    """Keyword tokens (``kw<topic>x<i>``) occurring in a token sequence."""
    return {t for t in instance_tokens if t.startswith("kw")}
