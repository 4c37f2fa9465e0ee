"""The three ranking architectures and their bit-exact persistence.

An architecture is its row in ``BRANCHES``: a tuple of score branches, each
``(kind, band, embedding table, encoder prefix, head)``.  The table alone
decides the parameters (``parameter_spec``), the id columns
``prepare_pairs`` builds and the layers ``forward_batch`` runs.  Kinds:

``pair``          tied-weight LSTM over the band's context and response
                  words, bilinear score.
``common``        LSTM over the band's common words, dense score.
``ccn``           cross-convolution over the band's context and response
                  words; ``ccn_head`` ``parallel`` gives it a second dense
                  head, scored sigmoid(first) + second.

``forward_batch`` hands each branch's tensors, looked up by these names, to
the layers.  A model always holds the vocabulary it was trained on: the
frequency bands and the CWF counts come from it.  ``RankingModel``'s
constructor takes it, checks its id count against the embedding tables'
rows and derives the frequency split and the vocabulary hash once.  It also
zeroes every table's padding row (row 0), so built and loaded models alike
start with it zero;
``randomize_parameters`` zeroes it again after its redraw, and
``layers.embed_lookup`` never scatters gradient into it.

``dual_lstm`` is one high-band pair branch.  ``mfcw_lstm`` has a pair and a
common-word branch per band; the two bands have their own embedding tables
and the common-word encoders their own LSTM weights.  ``ccn_lstm`` pairs a
high-band LSTM branch with a cross-convolution branch on a second table.
With more than one branch, the raw scores combine through trainable
``branch_weights`` under one sigmoid.

``prepare_pairs`` keeps one row of context ids per distinct context (a
ranked instance's ten candidates share one), and ``forward_batch`` runs the
context LSTM once per distinct context in the batch and gathers the
encodings back to the pairs (``layers.gather_rows``, whose backward adds the
pairs' gradients).  The cross-convolution grid is per pair, so that branch
takes each pair's context ids.

There is one forward, ``_forward_slice``, over a list of members: it
selects the rows, lists the LSTM encodings the branches need
(``_encoder_jobs``), runs them (``_encode``) and scores each member
(``_branch_scores``).  Jobs of all members that share rows, steps, sizes and
dtype run as one ``layers.lstm_encode_stack`` if they have at most
``_STACK_ROWS`` (16) rows, every other job alone.  ``forward_batch``
(training, gradient checks) is its one-member case on the tape, and
``score_members`` (``RankingModel.score_pairs``, ``evaluation.score_instances``)
runs it per 256-pair slice without one.  A request's one-row contexts and
ten-row candidates stack; full training batches, validation and
``evaluate`` slices do not, since stacking gains little at that size and
keeps a larger transient.

Checkpoints are a binary container: 8-byte magic ``CCNRANK1``, a 4-byte
little-endian header length, a canonical-JSON header (format version 2,
model config, vocabulary hash, parameter manifest), the raw little-endian
row-major float payloads in manifest order, and the 32-byte sha256 of every
byte before it.  The manifest is derived, not stored freely: ``_manifest``
lists every parameter of ``parameter_spec`` in name order with the config's
dtype, and a file loads only if its manifest equals the one its config and
first embedding table's row count imply.  Any other file, a damaged one or
one of another format version, raises ``CheckpointError`` instead of
loading as another model.  ``load_checkpoint`` takes the vocabulary too and
loads the file only if that vocabulary's hash is the one its header holds
(else ContractError).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import numerics as nm
from . import vocab as vb
from .layers import (
    apply_pretrained,
    bilinear_score,
    cross_convolution,
    dense_score,
    embed_lookup,
    gather_rows,
    init_embedding_matrix,
    init_lstm_arrays,
    lstm_encode,
    lstm_encode_stack,
)
from .numerics import ContractError, NonFiniteError, ParameterSet, Tensor
from .vocab import Vocabulary

DUAL_LSTM = "dual_lstm"
MFCW_LSTM = "mfcw_lstm"
CCN_LSTM = "ccn_lstm"
ARCHITECTURES = (DUAL_LSTM, MFCW_LSTM, CCN_LSTM)
CCN_HEADS = ("sigmoid", "parallel")

PAIR, COMMON, CCN = "pair", "common", "ccn"
# architecture -> branches, each (kind, band, embedding table, encoder prefix, head)
BRANCHES = {
    DUAL_LSTM: ((PAIR, vb.HIGH, "embedding_high", "encoder", "bilinear"),),
    MFCW_LSTM: (
        (PAIR, vb.HIGH, "embedding_high", "encoder_high", "bilinear_high"),
        (PAIR, vb.LOW, "embedding_low", "encoder_low", "bilinear_low"),
        (COMMON, vb.HIGH, "embedding_high", "encoder_common_high", "common_head_high"),
        (COMMON, vb.LOW, "embedding_low", "encoder_common_low", "common_head_low"),
    ),
    CCN_LSTM: (
        (PAIR, vb.HIGH, "embedding_lstm", "encoder", "bilinear"),
        (CCN, vb.HIGH, "embedding_ccn", None, "ccn"),
    ),
}

CHECKPOINT_MAGIC = b"CCNRANK1"
CHECKPOINT_VERSION = 2
_DIGEST_SIZE = 32  # the sha256 that ends a file
_DTYPES = {"float64": "<f8", "float32": "<f4"}
PRECISIONS = tuple(_DTYPES)


class CheckpointError(ValueError):
    """A checkpoint file cannot be read back."""


@dataclass(frozen=True)
class ModelConfig:
    architecture: str
    embedding_dim: int = 300
    hidden_size: int = 256
    max_len: int = 160
    k: int = 1
    frequency_threshold: int = vb.DEFAULT_FREQUENCY_THRESHOLD
    seed: int = 0
    precision: str = "float64"
    ccn_head: str = "sigmoid"

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ContractError(f"unknown architecture {self.architecture!r}; choose from {ARCHITECTURES}")
        for name in ("embedding_dim", "hidden_size", "max_len", "k"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1")
        if self.k > self.max_len:
            raise ContractError("k cannot exceed max_len")
        for name in ("frequency_threshold", "seed"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.precision not in PRECISIONS:
            raise ContractError(f"precision must be one of {PRECISIONS}")
        if self.ccn_head not in CCN_HEADS:
            raise ContractError(f"ccn_head must be one of {CCN_HEADS}")


def parameter_spec(config: ModelConfig, vocab_size: int):
    """Ordered (name, shape) list of every parameter of the architecture:
    embedding tables, encoders, heads, then the branch weights."""
    n, h, kl = config.embedding_dim, config.hidden_size, config.k * config.max_len
    branches = BRANCHES[config.architecture]
    spec = [(table, (vocab_size, n)) for table in _embedding_names(config)]
    for prefix in dict.fromkeys(encoder for _, _, _, encoder, _ in branches if encoder):
        spec += zip(_lstm_names(prefix), ((4 * h, n), (4 * h, h), (4 * h,)))
    for kind, _, _, _, head in branches:
        if kind == PAIR:
            spec.append((head, (h, h)))
        elif kind == COMMON:
            spec.append((head, (h,)))
        else:
            for weight, bias in _dense_head_names(config, head):
                spec += [(weight, (kl,)), (bias, (1,))]
    if len(branches) > 1:
        spec.append(("branch_weights", (len(branches),)))
    return spec


def _lstm_names(prefix):
    """The encoder's input weight, recurrent weight and bias, in ``lstm_encode``'s order."""
    return f"{prefix}.w_in", f"{prefix}.w_rec", f"{prefix}.bias"


def _dense_head_names(config: ModelConfig, head):
    """(weight, bias) names of a ccn branch's dense heads: one, or two for the parallel head."""
    heads = (head, f"{head}2") if config.ccn_head == "parallel" else (head,)
    return [(f"{dense}.weight", f"{dense}.bias") for dense in heads]


class RankingModel:
    """A configured architecture bound to the vocabulary it was trained on and its parameters."""

    def __init__(self, config: ModelConfig, params: ParameterSet, vocab: Vocabulary):
        rows = params[_embedding_names(config)[0]].shape[0]
        if vocab.size != rows:
            raise ContractError(f"vocabulary has {vocab.size} ids, model tables have {rows} rows")
        self.config = config
        self.params = params
        self.vocab = vocab
        self.split = vb.split_by_frequency(vocab, config.frequency_threshold)
        self.vocab_hash = vocab.content_hash()
        for name in _embedding_names(config):  # the padding row, which embed_lookup maps pads to
            params[name].data[0, :] = 0.0

    # scoring ----------------------------------------------------------------

    def score_pairs(self, pairs, batch_size=256) -> np.ndarray:
        """Probabilities for (context tokens, response tokens) pairs, no tape:
        ``score_members`` of this model alone."""
        return score_members([self], pairs, batch_size)[0]


def _embedding_names(config: ModelConfig):
    return tuple(dict.fromkeys(table for _, _, table, _, _ in BRANCHES[config.architecture]))


def build_model(config: ModelConfig, vocab: Vocabulary, pretrained_vectors=None):
    """Initialize a model over ``vocab``; optionally load pretrained vectors
    into the first (high-frequency) embedding table.  Returns the model and
    the pretrained coverage count."""
    dtype = np.dtype(_DTYPES[config.precision])
    params = ParameterSet()
    for name, value in _initial_values(config, vocab.size).items():
        params.add(name, value.astype(dtype))
    coverage = 0
    if pretrained_vectors is not None:
        table = params[_embedding_names(config)[0]]
        coverage = apply_pretrained(table.data, vocab, pretrained_vectors)
    return RankingModel(config, params, vocab), coverage


def _initial_values(config: ModelConfig, vocab_size):
    """Initial arrays by name, drawn from one seeded stream in parameter_spec
    order, so a seed fixes every parameter bit for bit."""
    rng = np.random.default_rng(config.seed)
    values = {}
    for name, shape in parameter_spec(config, vocab_size):
        if name in values:  # the .w_rec and .bias of an LSTM drawn at its .w_in
            continue
        if name.startswith("embedding"):
            values[name] = init_embedding_matrix(shape[0], shape[1], rng)
        elif name.endswith(".w_in"):
            prefix = name[: -len(".w_in")]
            arrays = init_lstm_arrays(shape[1], shape[0] // 4, rng)
            values.update(zip((name, f"{prefix}.w_rec", f"{prefix}.bias"), arrays))
        elif name == "branch_weights":
            values[name] = np.ones(shape)
        elif name.startswith("bilinear"):
            # similarity prior: start the learned bilinear form at plain inner
            # product so aligned encodings score high from the first step
            values[name] = np.eye(shape[0])
        elif name.endswith(".bias"):  # ccn dense biases
            values[name] = np.zeros(shape)
        else:  # score heads: common-word heads, ccn dense weights
            values[name] = rng.uniform(-0.08, 0.08, size=shape)
    return values


def randomize_parameters(model: RankingModel, rng):
    """Redraw every parameter uniform in [-0.5, 0.5]; pad rows stay zero.

    Gradient verification needs a well-conditioned operating point:
    init-scale weights leave the loss nearly flat, so finite differences
    drown in rounding noise.
    """
    for name in sorted(model.params.names()):
        t = model.params[name]
        t.data = rng.uniform(-0.5, 0.5, size=t.shape).astype(t.data.dtype)
    for name in _embedding_names(model.config):
        model.params[name].data[0, :] = 0.0


# -- batched forward ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PreparedPairs:
    """Stacked band-filtered id columns for a list of (context, response) pairs.

    The context columns (``ctx_<band>``) hold one row per distinct context,
    and ``context_of`` gives each pair its context's row; every other column
    holds one row per pair.  ``select(rows)`` returns the chosen pairs'
    columns, with the context columns cut to the distinct contexts those
    pairs use (in order of first use), and each chosen pair's index into
    them.  So ``forward_batch`` encodes a context once for all its
    candidates and gathers the encoding back to the pairs.

    Each column is stored as ``vocab.filter_rows`` builds it, as wide as its
    longest row, and ``select`` cuts it further to the longest true length
    among the rows it returns, so the layers see no padding column that
    every row has.  Filtered rows keep their pads at the end, so the cut
    drops pads only.
    """

    columns: dict  # name -> (ids [n x W], lengths [n]), W the longest length
    context_of: np.ndarray  # [pairs] row of each pair's context in the ctx_ columns

    def select(self, rows=None):
        """(name -> (ids, lengths) of the chosen pairs, [pairs] index into the ctx_ rows)."""
        rows = slice(None) if rows is None else rows
        contexts, first, context_of = np.unique(self.context_of[rows], return_index=True, return_inverse=True)
        order = np.argsort(first)  # the contexts in order of first use
        contexts = contexts[order]
        selected = {}
        for name, (ids, lengths) in self.columns.items():
            picked = contexts if name.startswith("ctx_") else rows
            ids, lengths = ids[picked], lengths[picked]
            selected[name] = (ids[:, : lengths.max(initial=0)], lengths)
        return selected, np.argsort(order)[context_of]


def prepare_pairs(model: RankingModel, pairs) -> PreparedPairs:
    """Encode token pairs into the per-band id columns the architecture needs.

    One ``vocab.encode`` call per side (the distinct contexts, the responses
    and, for common-word branches, each pair's common words) and one
    ``filter_rows`` call per side and band; each distinct context is encoded
    once."""
    length, vocab = model.config.max_len, model.vocab
    contexts = {}  # token tuple -> its row, in order of first appearance
    context_of = np.array([contexts.setdefault(tuple(c), len(contexts)) for c, _ in pairs], dtype=np.int64)
    sides = {
        "ctx": vb.encode(list(contexts), vocab, length, vb.CONTEXT),
        "resp": vb.encode([r for _, r in pairs], vocab, length, vb.RESPONSE),
    }
    branches = BRANCHES[model.config.architecture]
    if any(kind == COMMON for kind, *_ in branches):
        commons = [vb.common_words(c, r) for c, r in pairs]
        sides["common"] = vb.encode(commons, vocab, length, vb.RESPONSE)
    bands = dict.fromkeys(band for _, band, *_ in branches)
    columns = {}
    for side, (ids, _) in sides.items():
        for band in bands:
            columns[f"{side}_{band}"] = vb.filter_rows(ids, model.split, band)
    return PreparedPairs(columns, context_of)


def forward_batch(model: RankingModel, prepared: PreparedPairs, rows=None) -> Tensor:
    """Probabilities for the prepared rows; differentiable w.r.t. model parameters."""
    return _forward_slice([model], [prepared], rows)[0]


def _forward_slice(members, prepared, rows):
    """Each member's probabilities for the rows ``rows`` of its prepared pairs."""
    selected = [batch.select(rows) for batch in prepared]
    jobs = [_encoder_jobs(m, cols) for m, (cols, _) in zip(members, selected)]
    return [_branch_scores(m, cols, context_of, encoded)
            for m, (cols, context_of), encoded in zip(members, selected, _encode(jobs))]


def _encoder_jobs(model: RankingModel, cols):
    """The batch's LSTM encodings to run: (branch index, side) ->
    ``lstm_encode`` arguments, side ``ctx`` (one row per distinct context),
    ``resp`` or ``common``."""
    p = model.params
    jobs = {}
    for i, (kind, band, table, encoder, _) in enumerate(BRANCHES[model.config.architecture]):
        if encoder is None:
            continue
        lstm = [p[name] for name in _lstm_names(encoder)]
        for side in ("common",) if kind == COMMON else ("ctx", "resp"):
            ids, lengths = cols[f"{side}_{band}"]
            jobs[i, side] = (embed_lookup(ids, p[table]), lengths, *lstm)
    return jobs


def _branch_scores(model: RankingModel, cols, context_of, encoded) -> Tensor:
    """Probabilities of the batch from its encodings (keyed as ``_encoder_jobs``)."""
    p = model.params
    branches = BRANCHES[model.config.architecture]
    total = None
    for i, (kind, band, table, _, head) in enumerate(branches):
        if kind == COMMON:
            score = dense_score(encoded[i, "common"], p[head])
        elif kind == PAIR:
            score = bilinear_score(gather_rows(encoded[i, "ctx"], context_of), encoded[i, "resp"], p[head])
        else:  # the grid is per pair: each pair takes its context's ids
            (ctx_ids, ctx_len), (resp_ids, resp_len) = cols[f"ctx_{band}"], cols[f"resp_{band}"]
            heads = [(p[weight], p[bias]) for weight, bias in _dense_head_names(model.config, head)]
            score = cross_convolution(embed_lookup(ctx_ids[context_of], p[table]), embed_lookup(resp_ids, p[table]),
                                      model.config.k, heads, ctx_len[context_of], resp_len)
        if len(branches) > 1:  # weighted sum of the raw branch scores
            score = nm.mul(nm.narrow(p["branch_weights"], 0, i, 1), score)
        total = score if total is None else nm.add(total, score)
    return nm.sigmoid(total)


# Encoder jobs of at most this many rows run stacked.  Measured on a 2-core
# VM with OpenBLAS at one thread (E=3, T=70, no tape, one timing each), the
# stacked time over separate time was 0.37 at 1 row, 0.41 at 2, 0.46 at 4,
# 0.57 at 8, 0.74 at 16, 0.88 at 26 and 1.01 at 64.  Stacking every 256-pair
# ``evaluate`` slice gained no speed, while its tracemalloc peak on the
# train_short bench rose from 6.2 to 22.0 MB, above a training epoch's
# 17.4 MB.  So a request's context and candidates stack, and full training
# batches, validation and ``evaluate`` slices do not.
_STACK_ROWS = 16


def score_members(members, pairs, batch_size=256) -> np.ndarray:
    """[members x pairs] probabilities of every member for (context tokens,
    response tokens) pairs, no tape.

    Each ``batch_size``-pair slice runs through ``_forward_slice`` for all
    members at once, so the encoder jobs of all members that have at most
    ``_STACK_ROWS`` rows and share rows, steps, sizes and dtype run as one
    ``lstm_encode_stack``; every probability keeps its bits.  Raises
    NonFiniteError when a probability is NaN (e.g. NaN weights).
    """
    prepared = [prepare_pairs(m, pairs) for m in members]
    out = np.empty((len(members), len(pairs)))
    with nm.no_grad():
        for start in range(0, len(pairs), batch_size):
            rows = slice(start, start + batch_size)
            out[:, rows] = [probs.data for probs in _forward_slice(members, prepared, rows)]
    for m, probs in zip(members, out):
        finite = np.isfinite(probs)
        if not finite.all():
            raise NonFiniteError(
                f"{m.config.architecture}: {int((~finite).sum())} of {len(probs)} pair "
                "probabilities are not finite"
            )
    return out


def _encode(jobs):
    """Each member's encodings of its ``_encoder_jobs``: the jobs of at most
    ``_STACK_ROWS`` rows that share rows, steps, sizes and dtype in one
    stack, every other job alone."""
    groups = {}
    for m, member_jobs in enumerate(jobs):
        for key, (x, lengths, _, w_rec, _) in member_jobs.items():
            shape = (*x.shape[:2], int(lengths.max(initial=0)), w_rec.shape[1], x.dtype)
            groups.setdefault(shape if x.shape[0] <= _STACK_ROWS else (m, key), []).append((m, key))
    encoded = [{} for _ in jobs]
    for group in groups.values():
        group_jobs = [jobs[m][key] for m, key in group]
        outs = lstm_encode_stack(group_jobs) if len(group) > 1 else [lstm_encode(*group_jobs[0])]
        for (m, key), h in zip(group, outs):
            encoded[m][key] = h
    return encoded


# -- persistence ----------------------------------------------------------------


def _manifest(config: ModelConfig, vocab_rows):
    """The header's parameter manifest, which the config and the vocabulary
    size fix: every parameter in name order, in the config's dtype."""
    dtype = _DTYPES[config.precision]
    return [{"dtype": dtype, "name": name, "shape": list(shape)}
            for name, shape in sorted(parameter_spec(config, vocab_rows))]


def save_checkpoint(model: RankingModel, path):
    """Write the model bit-exactly; save -> load -> save is byte-identical.

    A parameter whose shape or dtype is not the one the manifest gives it
    raises CheckpointError naming the parameter, before the file is opened.
    """
    config = model.config
    manifest = _manifest(config, model.params[_embedding_names(config)[0]].shape[0])
    for e in manifest:
        data = model.params[e["name"]].data
        if list(data.shape) != e["shape"] or data.dtype != np.dtype(e["dtype"]):
            raise CheckpointError(f"{path}: parameter {e['name']!r} is {data.dtype} {list(data.shape)}, "
                                  f"the config implies {np.dtype(e['dtype'])} {e['shape']}")
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "vocab_hash": model.vocab_hash,
        "manifest": manifest,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = [np.ascontiguousarray(model.params[e["name"]].data, dtype=e["dtype"]).tobytes() for e in manifest]
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for chunk in (CHECKPOINT_MAGIC, struct.pack("<I", len(blob)), blob, *payload):
            f.write(chunk)
            digest.update(chunk)
        f.write(digest.digest())


def load_checkpoint(path, vocab: Vocabulary) -> RankingModel:
    """Read a checkpoint as a model over ``vocab``.  The manifest must be the
    one the config implies; damage raises CheckpointError, and a vocabulary
    other than the one whose hash the header holds raises ContractError."""
    with open(path, "rb") as f:
        raw = f.read()
    start = len(CHECKPOINT_MAGIC) + 4  # magic, header length
    if len(raw) < start or raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    (header_len,) = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))
    if start + header_len > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: unreadable header: {err}") from None
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: format version {version} is not {CHECKPOINT_VERSION}")
    config = header.get("config")
    types = {f.name: f.type for f in fields(ModelConfig)}  # annotation strings: "int", "str"
    if not isinstance(config, dict) or {k: type(v).__name__ for k, v in config.items()} != types:
        raise CheckpointError(f"{path}: config {config!r} is not ModelConfig's fields {types}")
    try:
        config = ModelConfig(**config)
    except ContractError as err:
        raise CheckpointError(f"{path}: bad config: {err}") from None
    entries, table = header.get("manifest"), _embedding_names(config)[0]
    try:
        rows = next(e["shape"][0] for e in entries if e["name"] == table)
    except (KeyError, TypeError, IndexError, StopIteration):
        rows = None
    if type(rows) is not int or rows < 1:
        raise CheckpointError(f"{path}: the manifest gives no row count for {table!r}")
    manifest = _manifest(config, rows)
    if entries != manifest:
        i = next((i for i, pair in enumerate(zip(entries, manifest)) if pair[0] != pair[1]),
                 min(len(entries), len(manifest)))  # where they first differ, or where one ends
        found, implied = (m[i] if i < len(m) else "nothing" for m in (entries, manifest))
        raise CheckpointError(f"{path}: manifest entry {i} is {found}, the config implies {implied}")
    vocab_hash = header.get("vocab_hash")
    if not isinstance(vocab_hash, str):
        raise CheckpointError(f"{path}: vocabulary hash is not a string")
    dtype = np.dtype(_DTYPES[config.precision])
    end = start + header_len + dtype.itemsize * sum(math.prod(e["shape"]) for e in manifest)
    if len(raw) != end + _DIGEST_SIZE:
        raise CheckpointError(f"{path}: truncated or extended: {len(raw)} bytes, expected {end + _DIGEST_SIZE}")
    if hashlib.sha256(memoryview(raw)[:end]).digest() != raw[end:]:
        raise CheckpointError(f"{path}: sha256 mismatch: the file is damaged")
    digest = vocab.content_hash()
    if digest != vocab_hash:
        raise ContractError(f"vocabulary hash mismatch: model expects {vocab_hash[:12]}..., got {digest[:12]}...")
    params, offset = ParameterSet(), start + header_len
    for e in manifest:
        arr = np.frombuffer(raw, dtype, math.prod(e["shape"]), offset).reshape(e["shape"])
        params.add(e["name"], arr.copy())
        offset += arr.nbytes
    return RankingModel(config, params, vocab)
