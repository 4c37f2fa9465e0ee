import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccnrank.corpus import TrainInstance
from ccnrank.models import (
    randomize_parameters,
    ARCHITECTURES,
    CheckpointError,
    ModelConfig,
    build_model,
    forward_batch,
    load_checkpoint,
    parameter_spec,
    prepare_pairs,
    save_checkpoint,
)
from ccnrank.numerics import ContractError, NonFiniteError, finite_diff_check, mean, mul, sub, Tensor
from ccnrank.training import batch_loss
from ccnrank.vocab import PAD_ID, build_vocab


def tiny_vocab(n_high=4, n_low=3):
    """Vocabulary with n_high frequent and n_low rare words, threshold 5."""
    instances = []
    for i in range(n_high):
        for _ in range(6):
            instances.append(TrainInstance((f"hi{i}",), (f"hi{i}",), 1))
    for i in range(n_low):
        instances.append(TrainInstance((f"lo{i}",), (f"lo{i}",), 0))
    return build_vocab(instances)


def tiny_config(arch, **kw):
    defaults = dict(architecture=arch, embedding_dim=2, hidden_size=2, max_len=3, k=1, seed=3)
    defaults.update(kw)
    return ModelConfig(**defaults)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_forward_oracle(ids, w_in, w_rec, bias, table, hidden):
    """Hand-rolled embed + LSTM + final hidden state, independent of the tape."""
    h, c = np.zeros(hidden), np.zeros(hidden)
    for token_id in ids:
        x = table[token_id]
        pre = w_in @ x + w_rec @ h + bias
        i = sigmoid(pre[:hidden])
        f = sigmoid(pre[hidden : 2 * hidden])
        g = np.tanh(pre[2 * hidden : 3 * hidden])
        o = sigmoid(pre[3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def high_ids(tokens, vocab, threshold, length, side):
    kept = list(tokens[-length:] if side == "context" else tokens[:length])
    return [vocab.word_to_id[t] for t in kept if vocab.counts.get(t, 0) > threshold]


class TestZeroScoreBranches:
    """With every score-branch parameter zeroed, the probability is exactly 0.5."""

    def zero_heads(self, model):
        for name in model.params.names():
            if name.startswith(("bilinear", "common_head", "ccn")):
                model.params[name].data[:] = 0.0

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_probability_is_half(self, arch):
        vocab = tiny_vocab()
        model, _ = build_model(tiny_config(arch), vocab)
        self.zero_heads(model)
        pairs = [(("hi0", "hi1", "lo0"), ("hi2", "lo1"))]
        prob = forward_batch(model, prepare_pairs(model, pairs))
        assert float(prob.data[0]) == 0.5

    def test_empty_pair_is_half_without_zeroing(self):
        vocab = tiny_vocab()
        model, _ = build_model(tiny_config("dual_lstm"), vocab)
        prob = forward_batch(model, prepare_pairs(model, [((), ())]))
        assert float(prob.data[0]) == 0.5


class TestDualForward:
    def test_matches_independent_oracle(self):
        vocab = tiny_vocab()
        config = tiny_config("dual_lstm")
        model, _ = build_model(config, vocab)
        ctx_tokens = ("hi0", "lo0", "hi1", "hi2")  # 4 tokens, L=3 keeps last 3
        resp_tokens = ("hi3", "lo1")
        got = model.score_pairs([(ctx_tokens, resp_tokens)])[0]

        table = model.params["embedding_high"].data
        w_in = model.params["encoder.w_in"].data
        w_rec = model.params["encoder.w_rec"].data
        bias = model.params["encoder.bias"].data
        m = model.params["bilinear"].data
        c = lstm_forward_oracle(high_ids(ctx_tokens, vocab, 5, 3, "context"), w_in, w_rec, bias, table, 2)
        r = lstm_forward_oracle(high_ids(resp_tokens, vocab, 5, 3, "response"), w_in, w_rec, bias, table, 2)
        expected = sigmoid(c @ m @ r)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_tied_encoder_is_the_same_object(self):
        vocab = tiny_vocab()
        model, _ = build_model(tiny_config("dual_lstm"), vocab)
        assert model.lstm("encoder").w_in is model.lstm("encoder").w_in
        # one parameter tensor serves both context and response encodes
        assert model.params["encoder.w_in"] is model.lstm("encoder").w_in

    def test_forward_deterministic_bitwise(self):
        vocab = tiny_vocab()
        model, _ = build_model(tiny_config("dual_lstm"), vocab)
        pairs = [(("hi0", "hi1"), ("hi2",))]
        assert model.score_pairs(pairs)[0] == model.score_pairs(pairs)[0]


class TestCcnForward:
    def test_matches_composed_oracle(self):
        vocab = tiny_vocab()
        config = tiny_config("ccn_lstm", k=2, max_len=3)
        model, _ = build_model(config, vocab)
        ctx_tokens = ("hi0", "hi1", "lo0")
        resp_tokens = ("hi2", "hi0")
        got = model.score_pairs([(ctx_tokens, resp_tokens)])[0]

        p = model.params
        ids_c = high_ids(ctx_tokens, vocab, 5, 3, "context")
        ids_r = high_ids(resp_tokens, vocab, 5, 3, "response")
        c = lstm_forward_oracle(ids_c, p["encoder.w_in"].data, p["encoder.w_rec"].data,
                                p["encoder.bias"].data, p["embedding_lstm"].data, 2)
        r = lstm_forward_oracle(ids_r, p["encoder.w_in"].data, p["encoder.w_rec"].data,
                                p["encoder.bias"].data, p["embedding_lstm"].data, 2)
        s_lstm = c @ p["bilinear"].data @ r

        table = p["embedding_ccn"].data
        k, length = config.k, config.max_len
        pooled = []
        for i in range(length):
            r_vec = table[ids_r[i]] if i < len(ids_r) else np.zeros(2)
            row = [float(r_vec @ table[j]) for j in ids_c]
            row.sort(reverse=True)
            row = row[:k] + [0.0] * max(0, k - len(row))
            pooled.extend(row)
        s_ccn = p["ccn.weight"].data @ np.array(pooled) + p["ccn.bias"].data[0]
        alphas = p["branch_weights"].data
        expected = sigmoid(alphas[0] * s_lstm + alphas[1] * s_ccn)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_zero_response(self):
        vocab = tiny_vocab()
        model, _ = build_model(tiny_config("ccn_lstm"), vocab)
        for name in ("bilinear", "ccn.weight"):
            model.params[name].data[:] = 0.0
        model.params["ccn.bias"].data[:] = 0.25
        # lstm branch scores 0 (r = 0), ccn branch scores its bias
        alphas = model.params["branch_weights"].data
        got = model.score_pairs([(("hi0", "hi1"), ())])[0]
        assert got == pytest.approx(sigmoid(alphas[1] * 0.25))

    def test_parallel_head_changes_scores(self):
        vocab = tiny_vocab()
        single, _ = build_model(tiny_config("ccn_lstm"), vocab)
        parallel, _ = build_model(tiny_config("ccn_lstm", ccn_head="parallel"), vocab)
        # same seed: the shared parameters are equal, only the second head differs
        for name in single.params.names():
            np.testing.assert_array_equal(single.params[name].data, parallel.params[name].data)
        pairs = [(("hi0", "hi1"), ("hi2", "hi0")), (("hi3",), ("hi1",)), (("hi2",), ())]
        assert not np.any(single.score_pairs(pairs) == parallel.score_pairs(pairs))


class TestMfcwForward:
    def test_no_common_words_zeroes_common_branches(self):
        vocab = tiny_vocab()
        model, _ = build_model(tiny_config("mfcw_lstm"), vocab)
        # zero the pair branches so only common branches could contribute
        model.params["bilinear_high"].data[:] = 0.0
        model.params["bilinear_low"].data[:] = 0.0
        assert model.score_pairs([(("hi0", "lo0"), ("hi1", "lo1"))])[0] == 0.5

    def test_every_nonpad_token_lands_in_exactly_one_band(self):
        vocab = tiny_vocab()
        model, _ = build_model(tiny_config("mfcw_lstm", max_len=8), vocab)
        pairs = [(("hi0", "lo0", "hi1", "nonsense"), ("lo1", "hi2", "hi0"))]
        prepared = prepare_pairs(model, pairs)
        for side, tokens in (("ctx", pairs[0][0]), ("resp", pairs[0][1])):
            hi_ids, hi_len = prepared.columns[f"{side}_high"]
            lo_ids, lo_len = prepared.columns[f"{side}_low"]
            merged = sorted(list(hi_ids[0][: hi_len[0]]) + list(lo_ids[0][: lo_len[0]]))
            expected = sorted(vocab.lookup(t) for t in tokens)
            assert merged == expected

    def test_common_branch_uses_token_types_not_oov_ids(self):
        vocab = tiny_vocab()
        model, _ = build_model(tiny_config("mfcw_lstm", max_len=4), vocab)
        # distinct unknown words share the oov id but are not common words
        prepared = prepare_pairs(model, [(("ghost1",), ("ghost2",))])
        assert prepared.columns["common_low"][1][0] == 0
        prepared = prepare_pairs(model, [(("ghost1",), ("ghost1",))])
        assert prepared.columns["common_low"][1][0] == 1


def recipe_values(config, vocab_size):
    """Initial values drawn one parameter at a time in parameter_spec order."""
    rng = np.random.default_rng(config.seed)
    values = {}
    for name, shape in parameter_spec(config, vocab_size):
        if name.startswith("embedding"):
            values[name] = rng.uniform(-0.1, 0.1, size=shape)
            values[name][PAD_ID] = 0.0
        elif name == "branch_weights":
            values[name] = np.ones(shape)
        elif name.startswith("bilinear"):
            values[name] = np.eye(shape[0])
        elif name.startswith("ccn") and name.endswith(".bias"):
            values[name] = np.zeros(shape)
        elif name.endswith(".bias"):
            values[name] = np.zeros(shape)
            values[name][shape[0] // 4 : shape[0] // 2] = 1.0  # forget gate
        else:  # LSTM weights, common-word heads, ccn dense weights
            values[name] = rng.uniform(-0.08, 0.08, size=shape)
    return values


class TestBuildModel:
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize(
        "arch,head",
        [("dual_lstm", "sigmoid"), ("mfcw_lstm", "sigmoid"), ("ccn_lstm", "sigmoid"), ("ccn_lstm", "parallel")],
    )
    def test_seeded_values_bit_identical_to_recipe(self, arch, head, precision):
        vocab = tiny_vocab()
        config = tiny_config(arch, embedding_dim=3, hidden_size=2, max_len=4, k=2,
                             ccn_head=head, precision=precision)
        model, _ = build_model(config, vocab)
        expected = recipe_values(config, vocab.size)
        assert sorted(model.params.names()) == sorted(expected)
        for name, value in expected.items():
            got = model.params[name].data
            assert got.dtype == np.dtype(precision), name
            assert got.tobytes() == value.astype(precision).tobytes(), name


class TestEndToEndGradients:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_batch_loss_gradients(self, arch):
        vocab = tiny_vocab()
        model, _ = build_model(tiny_config(arch, max_len=4), vocab)
        # init-scale weights make the loss nearly flat and finite differences
        # noise-bound; check at a well-conditioned random operating point
        randomize_parameters(model, np.random.default_rng(0))
        pairs = [
            (("hi0", "lo0", "hi1"), ("hi1", "lo0")),
            (("hi2", "hi3"), ("hi2", "lo1")),
        ]
        labels = Tensor(np.array([1.0, 0.0]))
        prepared = prepare_pairs(model, pairs)

        def loss():
            p = forward_batch(model, prepared)
            d = sub(p, labels)
            return mean(mul(d, d))

        # h=1e-4: central-difference roundoff at h=1e-5 exceeds the tolerance
        # on coordinates whose true gradient is ~1e-8
        report = finite_diff_check(loss, model.params, h=1e-4, max_coords_per_param=8)
        assert report.passed, (arch, report.worst_parameter, report.max_relative_error)


def tape_nodes(output):
    """Recorded ops (tensors with parents) reachable from ``output``."""
    seen, stack, count = set(), [output], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += bool(node._parents)
        stack.extend(node._parents)
    return count


class TestTapeSize:
    def test_dual_lstm_training_batch_is_a_small_tape(self):
        # each LSTM encoding is one op, whatever the sequence length
        model, _ = build_model(tiny_config("dual_lstm", max_len=12), tiny_vocab())
        pairs = [(("hi0", "hi1", "hi2") * 4, ("hi1", "hi3") * 3), (("hi2",), ("hi0", "hi1"))]
        objective = batch_loss(forward_batch(model, prepare_pairs(model, pairs)), np.array([1.0, 0.0]))
        assert tape_nodes(objective) <= 15


class TestNonFiniteScores:
    def test_nan_weight_raises_non_finite_error(self):
        model, _ = build_model(tiny_config("dual_lstm"), tiny_vocab())
        model.params["bilinear"].data[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            model.score_pairs([(("hi0",), ("hi1",))])


class TestCheckpoint:
    def build(self, arch="ccn_lstm"):
        vocab = tiny_vocab()
        model, _ = build_model(tiny_config(arch), vocab)
        return model, vocab

    def test_round_trip_is_byte_identical(self, tmp_path):
        model, vocab = self.build()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1, vocab=vocab)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parameters_bit_exact(self, tmp_path):
        model, vocab = self.build("mfcw_lstm")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, vocab=vocab)
        for name in model.params.names():
            assert loaded.params[name].data.tobytes() == model.params[name].data.tobytes()
        assert loaded.config == model.config

    def test_loaded_model_scores_identically(self, tmp_path):
        model, vocab = self.build("dual_lstm")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, vocab=vocab)
        pairs = [(("hi0", "hi1"), ("hi2",)), (("hi3",), ("hi0", "lo1"))]
        np.testing.assert_array_equal(model.score_pairs(pairs), loaded.score_pairs(pairs))

    def test_truncated_file_rejected(self, tmp_path):
        model, _ = self.build()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        model, _ = self.build()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        # bump format_version inside the JSON header
        idx = blob.find(b'"format_version":1')
        blob[idx : idx + len(b'"format_version":1')] = b'"format_version":9'
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_shape_mismatch_names_field(self, tmp_path):
        model, _ = self.build("dual_lstm")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        # shrink the declared bilinear shape without touching the payload
        broken = blob.replace(b'"name":"bilinear","shape":[2,2]', b'"name":"bilinear","shape":[2,1]')
        assert broken != blob
        path.write_bytes(broken)
        with pytest.raises(CheckpointError, match="bilinear"):
            load_checkpoint(path)

    def test_vocab_hash_mismatch_rejected(self, tmp_path):
        model, _ = self.build()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        other_vocab = build_vocab([TrainInstance(("zzz",) * 8, ("qqq",), 1)] * 3)
        with pytest.raises(ContractError, match="hash"):
            load_checkpoint(path, vocab=other_vocab)

    @staticmethod
    def rewrite_header(path, edit):
        blob = path.read_bytes()
        (length,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + length])
        edit(header)
        new = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + length :])

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h["config"].update(extra_key=1),
            lambda h: h["config"].pop("k"),
            lambda h: h["config"].update(k=0),
            lambda h: h.pop("config"),
            lambda h: h["manifest"][0].pop("shape"),
            lambda h: h["manifest"][0].update(shape=[-2, 2]),
            lambda h: h["manifest"].append(h["manifest"][0]),
            lambda h: h.update(manifest=7),
            lambda h: h.update(vocab_hash=[1]),
        ],
        ids=["extra-config-key", "missing-config-key", "bad-config-value", "no-config",
             "entry-without-shape", "negative-shape", "duplicate-entry", "manifest-not-a-list",
             "hash-not-a-string"],
    )
    def test_malformed_header_is_checkpoint_error(self, tmp_path, edit):
        model, vocab = self.build()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        self.rewrite_header(path, edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, vocab=vocab)

    def test_trainable_flags_of_older_files_ignored(self, tmp_path):
        model, vocab = self.build()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        self.rewrite_header(path, lambda h: [e.update(trainable=True) for e in h["manifest"]])
        loaded = load_checkpoint(path, vocab=vocab)
        for name in model.params.names():
            assert loaded.params[name].data.tobytes() == model.params[name].data.tobytes()

    def test_pad_row_zero_after_load(self, tmp_path):
        model, vocab = self.build("mfcw_lstm")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, vocab=vocab)
        np.testing.assert_array_equal(loaded.params["embedding_low"].data[PAD_ID], 0.0)


class TestParameterSpec:
    def test_covers_all_architectures(self):
        for arch in ARCHITECTURES:
            spec = parameter_spec(tiny_config(arch), vocab_size=10)
            names = [n for n, _ in spec]
            assert len(names) == len(set(names))
            assert any(n.startswith("embedding") for n in names)

    def test_parallel_head_adds_second_dense(self):
        spec = dict(parameter_spec(tiny_config("ccn_lstm", ccn_head="parallel"), 10))
        assert "ccn2.weight" in spec and "ccn2.bias" in spec

    def test_bad_config_rejected(self):
        with pytest.raises(ContractError):
            ModelConfig(architecture="transformer")
        with pytest.raises(ContractError):
            ModelConfig(architecture="dual_lstm", hidden_size=0)
        with pytest.raises(ContractError):
            ModelConfig(architecture="dual_lstm", precision="float16")
        with pytest.raises(ContractError):
            ModelConfig(architecture="ccn_lstm", ccn_head="linear")


@pytest.fixture(scope="module")
def ccn_checkpoint(tmp_path_factory):
    """A saved ccn_lstm checkpoint's bytes, and a path to write damaged copies to."""
    model, _ = build_model(tiny_config("ccn_lstm"), tiny_vocab())
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_checkpoint(model, path)
    return path.read_bytes(), path


class TestCheckpointFuzz:
    """Damaged checkpoints load or raise CheckpointError, never anything else."""

    @settings(max_examples=200, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_truncated_file(self, ccn_checkpoint, fraction):
        blob, path = ccn_checkpoint
        path.write_bytes(blob[: int(fraction * len(blob))])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @settings(max_examples=500, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           value=st.integers(min_value=0, max_value=255))
    def test_one_header_byte_overwritten(self, ccn_checkpoint, fraction, value):
        blob, path = ccn_checkpoint
        damaged = bytearray(blob)
        (length,) = struct.unpack_from("<I", damaged, 8)
        damaged[int(fraction * (12 + length))] = value  # magic, length field or JSON
        path.write_bytes(bytes(damaged))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass
