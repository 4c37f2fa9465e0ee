"""The three ranking architectures and their bit-exact persistence.

``dual_lstm``     one tied-weight LSTM over shared high-band embeddings for
                  context and response, bilinear score, sigmoid.
``mfcw_lstm``     high- and low-frequency bands, each with its own embedding
                  table and tied context/response LSTM, plus per-band
                  common-word encoders with separate LSTM weights; the four
                  branch scores combine through trainable weights under one
                  sigmoid.
``ccn_lstm``      the dual-encoder branch on one embedding table plus a
                  cross-convolution branch on a second table (tables do not
                  share weights); both branches see high-band words only and
                  their raw scores combine under one sigmoid.  ``ccn_head``
                  ``parallel`` gives the cross-convolution branch a second
                  dense head: its score is sigmoid(first) + second.

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
    BilinearParams,
    CcnParams,
    DenseScorerParams,
    EmbeddingTable,
    LstmParams,
    apply_pretrained,
    bilinear_score,
    cross_convolution,
    dense_score,
    embed_lookup,
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


def _lstm_spec(prefix, n, h):
    return [
        (f"{prefix}.w_in", (4 * h, n)),
        (f"{prefix}.w_rec", (4 * h, h)),
        (f"{prefix}.bias", (4 * h,)),
    ]


def parameter_spec(config: ModelConfig, vocab_size: int):
    """Ordered (name, shape) list of every parameter of the architecture."""
    n, h, length = config.embedding_dim, config.hidden_size, config.max_len
    spec = []
    if config.architecture == DUAL_LSTM:
        spec.append(("embedding_high", (vocab_size, n)))
        spec.extend(_lstm_spec("encoder", n, h))
        spec.append(("bilinear", (h, h)))
    elif config.architecture == MFCW_LSTM:
        spec.append(("embedding_high", (vocab_size, n)))
        spec.append(("embedding_low", (vocab_size, n)))
        spec.extend(_lstm_spec("encoder_high", n, h))
        spec.extend(_lstm_spec("encoder_low", n, h))
        spec.extend(_lstm_spec("encoder_common_high", n, h))
        spec.extend(_lstm_spec("encoder_common_low", n, h))
        spec.append(("bilinear_high", (h, h)))
        spec.append(("bilinear_low", (h, h)))
        spec.append(("common_head_high", (h,)))
        spec.append(("common_head_low", (h,)))
        spec.append(("branch_weights", (4,)))
    else:
        spec.append(("embedding_lstm", (vocab_size, n)))
        spec.append(("embedding_ccn", (vocab_size, n)))
        spec.extend(_lstm_spec("encoder", n, h))
        spec.append(("bilinear", (h, h)))
        spec.append(("ccn.weight", (config.k * length,)))
        spec.append(("ccn.bias", (1,)))
        if config.ccn_head == "parallel":
            spec.append(("ccn2.weight", (config.k * length,)))
            spec.append(("ccn2.bias", (1,)))
        spec.append(("branch_weights", (2,)))
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

    def bilinear(self, name="bilinear") -> BilinearParams:
        return BilinearParams(weight=self.params[name])

    def ccn(self) -> CcnParams:
        parallel = self.config.ccn_head == "parallel"
        return CcnParams(
            k=self.config.k,
            weight=self.params["ccn.weight"],
            bias=self.params["ccn.bias"],
            weight2=self.params["ccn2.weight"] if parallel else None,
            bias2=self.params["ccn2.bias"] if parallel else None,
        )

    # scoring ----------------------------------------------------------------

    def score_pairs(self, pairs, batch_size=256) -> np.ndarray:
        """Probabilities for (context tokens, response tokens) pairs, no tape.

        Raises NonFiniteError when a probability is NaN (e.g. NaN weights).
        """
        out = np.empty(len(pairs))
        with nm.no_grad():
            for start in range(0, len(pairs), batch_size):
                chunk = pairs[start : start + batch_size]
                prepared = prepare_pairs(self, chunk)
                out[start : start + len(chunk)] = forward_batch(self, prepared).data
        finite = np.isfinite(out)
        if not finite.all():
            raise NonFiniteError(
                f"{self.config.architecture}: {int((~finite).sum())} of {len(out)} pair "
                "probabilities are not finite"
            )
        return out


def _embedding_names(config: ModelConfig):
    if config.architecture == MFCW_LSTM:
        return ("embedding_high", "embedding_low")
    if config.architecture == CCN_LSTM:
        return ("embedding_lstm", "embedding_ccn")
    return ("embedding_high",)


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
    """Stacked encoded columns for a list of (context, response) pairs."""

    def __init__(self, columns, n):
        self.columns = columns  # name -> (ids [n x L], lengths [n])
        self.n = n

    def select(self, rows):
        if rows is None:
            return self.columns
        return {k: (ids[rows], lengths[rows]) for k, (ids, lengths) in self.columns.items()}


def _stack(encoded):
    ids = np.stack([e.ids for e in encoded])
    lengths = np.array([e.true_length for e in encoded], dtype=np.int64)
    return ids, lengths


def prepare_pairs(model: RankingModel, pairs) -> PreparedPairs:
    """Encode token pairs into the per-band id columns the architecture needs."""
    if model.vocab is None:
        raise ContractError("model has no vocabulary attached")
    length = model.config.max_len
    vocab, split = model.vocab, model.split
    ctx = [vb.encode(c, vocab, length, vb.CONTEXT) for c, _ in pairs]
    resp = [vb.encode(r, vocab, length, vb.RESPONSE) for _, r in pairs]
    columns = {}
    if model.config.architecture == MFCW_LSTM:
        common = [
            vb.encode(vb.common_words(c, r), vocab, length, vb.RESPONSE) for c, r in pairs
        ]
        for band in (vb.HIGH, vb.LOW):
            columns[f"ctx_{band}"] = _stack([vb.filter_sequence(e, split, band) for e in ctx])
            columns[f"resp_{band}"] = _stack([vb.filter_sequence(e, split, band) for e in resp])
            columns[f"common_{band}"] = _stack([vb.filter_sequence(e, split, band) for e in common])
    else:
        columns["ctx_high"] = _stack([vb.filter_sequence(e, split, vb.HIGH) for e in ctx])
        columns["resp_high"] = _stack([vb.filter_sequence(e, split, vb.HIGH) for e in resp])
    return PreparedPairs(columns, len(pairs))


def _branch_combine(weights: Tensor, scores) -> Tensor:
    total = None
    for i, s in enumerate(scores):
        term = nm.mul(weights.narrow(0, i, 1), s)
        total = term if total is None else nm.add(total, term)
    return total


def forward_batch(model: RankingModel, prepared: PreparedPairs, rows=None) -> Tensor:
    """Probabilities for the prepared rows; differentiable w.r.t. model parameters."""
    cols = prepared.select(rows)
    arch = model.config.architecture
    if arch == DUAL_LSTM:
        emb = model.embedding("embedding_high")
        enc = model.lstm("encoder")
        c = lstm_encode(embed_lookup(cols["ctx_high"][0], emb), cols["ctx_high"][1], enc)
        r = lstm_encode(embed_lookup(cols["resp_high"][0], emb), cols["resp_high"][1], enc)
        return nm.sigmoid(bilinear_score(c, r, model.bilinear()))
    if arch == MFCW_LSTM:
        scores = []
        for band in (vb.HIGH, vb.LOW):
            emb = model.embedding(f"embedding_{band}")
            enc = model.lstm(f"encoder_{band}")
            c = lstm_encode(embed_lookup(cols[f"ctx_{band}"][0], emb), cols[f"ctx_{band}"][1], enc)
            r = lstm_encode(embed_lookup(cols[f"resp_{band}"][0], emb), cols[f"resp_{band}"][1], enc)
            scores.append(bilinear_score(c, r, model.bilinear(f"bilinear_{band}")))
        for band in (vb.HIGH, vb.LOW):
            emb = model.embedding(f"embedding_{band}")
            enc = model.lstm(f"encoder_common_{band}")
            common = lstm_encode(
                embed_lookup(cols[f"common_{band}"][0], emb), cols[f"common_{band}"][1], enc
            )
            scores.append(dense_score(common, DenseScorerParams(weight=model.params[f"common_head_{band}"])))
        return nm.sigmoid(_branch_combine(model.params["branch_weights"], scores))
    # ccn_lstm
    emb_lstm = model.embedding("embedding_lstm")
    enc = model.lstm("encoder")
    ctx_ids, ctx_len = cols["ctx_high"]
    resp_ids, resp_len = cols["resp_high"]
    c = lstm_encode(embed_lookup(ctx_ids, emb_lstm), ctx_len, enc)
    r = lstm_encode(embed_lookup(resp_ids, emb_lstm), resp_len, enc)
    s_lstm = bilinear_score(c, r, model.bilinear())
    emb_ccn = model.embedding("embedding_ccn")
    s_ccn = cross_convolution(
        embed_lookup(ctx_ids, emb_ccn),
        embed_lookup(resp_ids, emb_ccn),
        model.ccn(),
        context_length=ctx_len,
        response_length=resp_len,
    )
    return nm.sigmoid(_branch_combine(model.params["branch_weights"], [s_lstm, s_ccn]))


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
