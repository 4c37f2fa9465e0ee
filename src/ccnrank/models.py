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

Checkpoints are a binary container: 8-byte magic ``CCNRANK1``, a 4-byte
little-endian header length, a canonical-JSON header (format version,
model config, vocabulary hash, ordered parameter manifest), then the raw
little-endian row-major float payloads in manifest order.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import numerics as nm
from . import vocab as vb
from .layers import (
    CcnParams,
    EmbeddingTable,
    LstmParams,
    apply_pretrained,
    bilinear_score,
    cross_convolution,
    dense_score,
    embed_lookup,
    gather_rows,
    init_embedding_matrix,
    init_lstm_arrays,
    lstm_encode,
)
from .numerics import ContractError, NonFiniteError, ParameterSet, Tensor
from .vocab import FrequencySplit, Vocabulary

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
CHECKPOINT_VERSION = 1
_DTYPES = {"float64": "<f8", "float32": "<f4"}


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
        if self.frequency_threshold < 0:
            raise ContractError("frequency_threshold must be >= 0")
        if self.precision not in _DTYPES:
            raise ContractError(f"precision must be one of {tuple(_DTYPES)}")
        if self.ccn_head not in CCN_HEADS:
            raise ContractError(f"ccn_head must be one of {CCN_HEADS}")


def parameter_spec(config: ModelConfig, vocab_size: int):
    """Ordered (name, shape) list of every parameter of the architecture:
    embedding tables, encoders, heads, then the branch weights."""
    n, h, kl = config.embedding_dim, config.hidden_size, config.k * config.max_len
    branches = BRANCHES[config.architecture]
    spec = [(table, (vocab_size, n)) for table in _embedding_names(config)]
    for prefix in dict.fromkeys(encoder for _, _, _, encoder, _ in branches if encoder):
        spec += [(f"{prefix}.w_in", (4 * h, n)), (f"{prefix}.w_rec", (4 * h, h)),
                 (f"{prefix}.bias", (4 * h,))]
    for kind, _, _, _, head in branches:
        if kind == PAIR:
            spec.append((head, (h, h)))
        elif kind == COMMON:
            spec.append((head, (h,)))
        else:
            for dense in (head, f"{head}2") if config.ccn_head == "parallel" else (head,):
                spec += [(f"{dense}.weight", (kl,)), (f"{dense}.bias", (1,))]
    if len(branches) > 1:
        spec.append(("branch_weights", (len(branches),)))
    return spec


class RankingModel:
    """A configured architecture bound to a vocabulary and its parameters."""

    def __init__(self, config: ModelConfig, params: ParameterSet, vocab=None, vocab_hash=None):
        self.config = config
        self.params = params
        self.vocab: Vocabulary | None = None
        self.split: FrequencySplit | None = None
        self.vocab_hash = vocab_hash
        # table views are built once so the zero-pad-row constructor contract
        # runs at model construction, never during training steps
        self._tables = {name: EmbeddingTable(params[name]) for name in _embedding_names(config)}
        if vocab is not None:
            self.attach_vocab(vocab)

    def attach_vocab(self, vocab: Vocabulary):
        digest = vocab.content_hash()
        if self.vocab_hash is not None and digest != self.vocab_hash:
            raise ContractError(
                f"vocabulary hash mismatch: model expects {self.vocab_hash[:12]}..., got {digest[:12]}..."
            )
        expected_rows = self.params[_embedding_names(self.config)[0]].shape[0]
        if vocab.size != expected_rows:
            raise ContractError(f"vocabulary has {vocab.size} ids, model tables have {expected_rows} rows")
        self.vocab = vocab
        self.split = vb.split_by_frequency(vocab, self.config.frequency_threshold)
        self.vocab_hash = digest

    # layer-parameter views -------------------------------------------------

    def embedding(self, name) -> EmbeddingTable:
        return self._tables[name]

    def lstm(self, prefix) -> LstmParams:
        return LstmParams(
            w_in=self.params[f"{prefix}.w_in"],
            w_rec=self.params[f"{prefix}.w_rec"],
            bias=self.params[f"{prefix}.bias"],
        )

    def ccn(self, head) -> CcnParams:
        parallel = self.config.ccn_head == "parallel"
        return CcnParams(
            k=self.config.k,
            weight=self.params[f"{head}.weight"],
            bias=self.params[f"{head}.bias"],
            weight2=self.params[f"{head}2.weight"] if parallel else None,
            bias2=self.params[f"{head}2.bias"] if parallel else None,
        )

    # scoring ----------------------------------------------------------------

    def score_pairs(self, pairs, batch_size=256) -> np.ndarray:
        """Probabilities for (context tokens, response tokens) pairs, no tape.

        Raises NonFiniteError when a probability is NaN (e.g. NaN weights).
        """
        prepared = prepare_pairs(self, pairs)
        out = np.empty(len(pairs))
        with nm.no_grad():
            for start in range(0, len(pairs), batch_size):
                rows = slice(start, start + batch_size)
                out[rows] = forward_batch(self, prepared, rows).data
        finite = np.isfinite(out)
        if not finite.all():
            raise NonFiniteError(
                f"{self.config.architecture}: {int((~finite).sum())} of {len(out)} pair "
                "probabilities are not finite"
            )
        return out


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
        table.data[0, :] = 0.0
    model = RankingModel(config, params, vocab=vocab)
    return model, coverage


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


def randomize_parameters(model: RankingModel, rng, scale=0.5):
    """Redraw every parameter uniform in [-scale, scale]; pad rows stay zero.

    Gradient verification needs a well-conditioned operating point:
    init-scale weights leave the loss nearly flat, so finite differences
    drown in rounding noise.
    """
    for name in sorted(model.params.names()):
        t = model.params[name]
        t.data = rng.uniform(-scale, scale, size=t.shape).astype(t.data.dtype)
    for name in _embedding_names(model.config):
        model.params[name].data[0, :] = 0.0


# -- batched forward ----------------------------------------------------------


class PreparedPairs:
    """Stacked band-filtered id columns for a list of (context, response) pairs.

    The context columns (``ctx_<band>``) hold one row per distinct context,
    and ``context_of`` gives each pair its context's row; every other column
    holds one row per pair.  ``select(rows)`` returns the chosen pairs'
    columns, with the context columns cut to the distinct contexts those
    pairs use (in order of first use), and each chosen pair's index into
    them.  So ``forward_batch`` encodes a context once for all its
    candidates and gathers the encoding back to the pairs.

    ``select`` also cuts every id column down to the longest true length
    among the rows it returns (never below the column's floor in
    ``min_cols``), so the layers see no padding column that every row has.
    Filtered rows keep their pads at the end, so the cut drops pads only.
    The columns are stored already cut for all the rows.
    """

    def __init__(self, columns, context_of, min_cols):
        self.columns = columns  # name -> (ids [n x W], lengths [n]), W <= max_len
        self.context_of = context_of  # [pairs] row of each pair's context in the ctx_ columns
        self.min_cols = min_cols  # name -> fewest columns select may leave
        columns, self.context_of = self.select()
        self.columns = {name: (ids.copy(), lengths) for name, (ids, lengths) in columns.items()}

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
            width = max(int(lengths.max(initial=0)), self.min_cols.get(name, 0))
            selected[name] = (ids[:, :width], lengths)
        return selected, np.argsort(order)[context_of]


def prepare_pairs(model: RankingModel, pairs) -> PreparedPairs:
    """Encode token pairs into the per-band id columns the architecture needs.

    One ``vocab.encode`` call per side (the distinct contexts, the responses
    and, for common-word branches, each pair's common words) and one
    ``filter_rows`` call per side and band; each distinct context is encoded
    once."""
    if model.vocab is None:
        raise ContractError("model has no vocabulary attached")
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
    # cross-convolution pools k values per response word from the context columns
    min_cols = {f"ctx_{band}": model.config.k for kind, band, *_ in branches if kind == CCN}
    return PreparedPairs(columns, context_of, min_cols)


def forward_batch(model: RankingModel, prepared: PreparedPairs, rows=None) -> Tensor:
    """Probabilities for the prepared rows; differentiable w.r.t. model parameters."""
    cols, context_of = prepared.select(rows)
    branches = BRANCHES[model.config.architecture]
    total = None
    for i, (kind, band, table, encoder, head) in enumerate(branches):
        emb = model.embedding(table)
        if kind == COMMON:
            ids, lengths = cols[f"common_{band}"]
            encoded = lstm_encode(embed_lookup(ids, emb), lengths, model.lstm(encoder))
            score = dense_score(encoded, model.params[head])
        else:
            (ctx_ids, ctx_len), (resp_ids, resp_len) = cols[f"ctx_{band}"], cols[f"resp_{band}"]
            if kind == PAIR:
                enc = model.lstm(encoder)
                c = lstm_encode(embed_lookup(ctx_ids, emb), ctx_len, enc)  # one row per context
                r = lstm_encode(embed_lookup(resp_ids, emb), resp_len, enc)
                score = bilinear_score(gather_rows(c, context_of), r, model.params[head])
            else:  # the grid is per pair: each pair takes its context's ids
                score = cross_convolution(
                    embed_lookup(ctx_ids[context_of], emb),
                    embed_lookup(resp_ids, emb),
                    model.ccn(head),
                    context_length=ctx_len[context_of],
                    response_length=resp_len,
                )
        if len(branches) > 1:  # weighted sum of the raw branch scores
            score = nm.mul(model.params["branch_weights"].narrow(0, i, 1), score)
        total = score if total is None else nm.add(total, score)
    return nm.sigmoid(total)


# -- persistence ----------------------------------------------------------------


def save_checkpoint(model: RankingModel, path):
    """Write the model bit-exactly; save -> load -> save is byte-identical."""
    manifest = []
    payload = []
    for name in sorted(model.params.names()):
        t = model.params[name]
        dtype = _DTYPES[model.config.precision]
        manifest.append({"name": name, "shape": list(t.shape), "dtype": dtype})
        payload.append(np.ascontiguousarray(t.data, dtype=np.dtype(dtype)).tobytes())
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "vocab_hash": model.vocab_hash,
        "manifest": manifest,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for chunk in payload:
            f.write(chunk)


def _decode_header(header, path):
    """Config, vocabulary hash and (name, shape, dtype) manifest entries of a
    parsed header.  Any malformed field raises CheckpointError."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format version {header.get('format_version')} != {CHECKPOINT_VERSION}"
        )
    try:
        keys = set(header["config"])
        if keys != {f.name for f in fields(ModelConfig)}:
            raise CheckpointError(f"{path}: config keys {sorted(map(str, keys))} are not ModelConfig's")
        config = ModelConfig(**header["config"])
        # older files also carry a "trainable" flag per entry; it is ignored
        entries = [(e["name"], tuple(e["shape"]), e["dtype"]) for e in header["manifest"]]
    except (KeyError, TypeError, ContractError) as err:
        raise CheckpointError(f"{path}: malformed header: {err!r}") from None
    for name, shape, _ in entries:
        if not isinstance(name, str) or not all(type(d) is int and d > 0 for d in shape):
            raise CheckpointError(f"{path}: malformed manifest entry {name!r} with shape {shape}")
    vocab_hash = header.get("vocab_hash")
    if vocab_hash is not None and not isinstance(vocab_hash, str):
        raise CheckpointError(f"{path}: vocabulary hash is not a string")
    return config, vocab_hash, entries


def load_checkpoint(path, vocab: Vocabulary | None = None) -> RankingModel:
    """Read a checkpoint; attach ``vocab`` (hash-checked) when provided."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(CHECKPOINT_MAGIC) + 4 or raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    offset = len(CHECKPOINT_MAGIC)
    (header_len,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if offset + header_len > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: unreadable header: {err}") from None
    offset += header_len
    config, vocab_hash, manifest = _decode_header(header, path)
    if not manifest:
        raise CheckpointError(f"{path}: empty manifest")
    table = _embedding_names(config)[0]
    vocab_rows = next((shape[0] for name, shape, _ in manifest if name == table and shape), None)
    if vocab_rows is None:
        raise CheckpointError(f"{path}: manifest lacks the embedding table")
    expected = dict(parameter_spec(config, vocab_rows))
    params = ParameterSet()
    for name, shape, dtype in manifest:
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected parameter {name!r}")
        if name in params:
            raise CheckpointError(f"{path}: duplicate parameter {name!r}")
        if shape != expected[name]:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {shape}, expected {expected[name]}"
            )
        if dtype not in _DTYPES.values():
            raise CheckpointError(f"{path}: parameter {name!r} has unsupported dtype {dtype!r}")
        count = int(np.prod(shape))
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated payload for parameter {name!r}")
        arr = np.frombuffer(raw, dtype=np.dtype(dtype), count=count, offset=offset).reshape(shape)
        offset += nbytes
        params.add(name, arr.copy())
    missing = set(expected) - set(params.names())
    if missing:
        raise CheckpointError(f"{path}: missing parameters {sorted(missing)}")
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes after payload")
    model = RankingModel(config, params, vocab_hash=vocab_hash)
    if vocab is not None:
        model.attach_vocab(vocab)
    return model
