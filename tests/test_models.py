import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccnrank import layers, models, vocab as vb
from ccnrank.corpus import SyntheticConfig, TrainInstance, generate_splits
from ccnrank.models import (
    randomize_parameters,
    ARCHITECTURES,
    CheckpointError,
    ModelConfig,
    PreparedPairs,
    build_model,
    forward_batch,
    load_checkpoint,
    parameter_spec,
    prepare_pairs,
    save_checkpoint,
    score_members,
)
from ccnrank.numerics import (
    ContractError, NonFiniteError, Tensor, backward, finite_diff_check, mean, mul, no_grad, sub,
)
from ccnrank.training import batch_loss
from ccnrank.vocab import CONTEXT, OOV_ID, PAD_ID, RESPONSE, build_vocab, common_words, encode, filter_rows


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
            expected = sorted(vocab.word_to_id.get(t, OOV_ID) for t in tokens)
            assert merged == expected

    def test_common_branch_uses_token_types_not_oov_ids(self):
        vocab = tiny_vocab()
        model, _ = build_model(tiny_config("mfcw_lstm", max_len=4), vocab)
        # distinct unknown words share the oov id but are not common words
        prepared = prepare_pairs(model, [(("ghost1",), ("ghost2",))])
        assert prepared.columns["common_low"][1][0] == 0
        prepared = prepare_pairs(model, [(("ghost1",), ("ghost1",))])
        assert prepared.columns["common_low"][1][0] == 1


class TestPreparePairs:
    # empty sides, an unknown word ("ghost" maps to the oov id) and sequences
    # longer than max_len 4 on both sides
    PAIRS = [
        ((), ()),
        (("hi0", "lo0", "ghost"), ()),
        ((), ("hi1", "ghost", "lo1")),
        (("hi0", "hi1", "lo0", "hi2", "lo1", "hi3", "ghost"), ("hi3", "lo0", "hi0", "hi1", "lo2", "hi2")),
        (("ghost", "hi2", "ghost", "lo2"), ("ghost", "lo2", "hi2")),
    ]

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_columns_equal_pairwise_encode_and_filter(self, arch):
        vocab = tiny_vocab()
        model, _ = build_model(tiny_config(arch, max_len=4, k=2), vocab)
        # each pair's sequences encoded alone, as one-row batches
        encoders = {
            "ctx": lambda c, r: encode([c], vocab, 4, CONTEXT)[0],
            "resp": lambda c, r: encode([r], vocab, 4, RESPONSE)[0],
            "common": lambda c, r: encode([common_words(c, r)], vocab, 4, RESPONSE)[0],
        }
        expected = {"ctx_high", "resp_high"}
        if arch == "mfcw_lstm":
            expected |= {"common_high", "ctx_low", "resp_low", "common_low"}
        prepared = prepare_pairs(model, self.PAIRS)
        assert set(prepared.columns) == expected
        # one context row per distinct context: the two empty contexts share row 0
        np.testing.assert_array_equal(prepared.context_of, [0, 1, 0, 2, 3])
        for name, (ids, lengths) in prepared.columns.items():
            side, band = name.split("_")
            row_of = prepared.context_of if side == "ctx" else np.arange(len(self.PAIRS))
            width = lengths.max()  # stored as wide as the widest row, k or not
            assert ids.shape == (row_of.max() + 1, width) and ids.dtype == np.int64, name
            for pair, (c, r) in enumerate(self.PAIRS):
                row = row_of[pair]
                ref_ids, ref_lengths = filter_rows(encoders[side](c, r), model.split, band)
                assert ref_ids.shape == (1, ref_lengths[0]), (name, row)  # a lone row is as wide as itself
                np.testing.assert_array_equal(ids[row], np.pad(ref_ids[0], (0, width - ref_lengths[0])),
                                              err_msg=f"{name} row {row}")
                assert lengths[row] == ref_lengths[0], (name, row)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_no_pairs(self, arch):
        model, _ = build_model(tiny_config(arch, max_len=4), tiny_vocab())
        for ids, lengths in prepare_pairs(model, []).columns.values():
            assert ids.shape[0] == 0 and lengths.shape == (0,)
        assert model.score_pairs([]).shape == (0,)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_score_pairs_equals_per_chunk_forward(self, arch):
        vocab = tiny_vocab()
        model, _ = build_model(tiny_config(arch, max_len=6, k=2), vocab)
        randomize_parameters(model, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        words = list(vocab.word_to_id) + ["ghost"]
        pairs = [
            tuple(tuple(words[i] for i in rng.integers(0, len(words), size=rng.integers(0, 9)))
                  for _ in range(2))
            for _ in range(30)
        ]
        for batch_size in (1, 7, 256):
            with no_grad():
                expected = np.concatenate([
                    forward_batch(model, prepare_pairs(model, pairs[s : s + batch_size])).data
                    for s in range(0, len(pairs), batch_size)
                ])
            got = model.score_pairs(pairs, batch_size=batch_size)
            assert got.tobytes() == expected.tobytes(), batch_size


@pytest.fixture(scope="module")
def long_context_pairs():
    """400 synthetic pairs with 8-turn contexts (about 70 tokens) and their vocabulary."""
    train, _, _ = generate_splits(7, 400, 1, 0, SyntheticConfig(context_turns=8))
    return [(t.context, t.response) for t in train], build_vocab(train)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_prepare_pairs_peak_memory_is_at_most_five_times_what_it_keeps(arch, long_context_pairs):
    # the bound of a transient that grows with the kept columns, not with max_len x rows
    pairs, vocab = long_context_pairs
    model, _ = build_model(ModelConfig(arch, embedding_dim=2, hidden_size=2, max_len=160, k=2), vocab)
    tracemalloc.start()
    try:
        prepared = prepare_pairs(model, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = prepared.context_of.nbytes + sum(ids.nbytes + lengths.nbytes for ids, lengths in prepared.columns.values())
    assert peak <= 5 * kept, (peak, kept)


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


    def test_ccn_ragged_lengths_after_the_trim(self):
        # context lengths 0, 1, 3, 4 and response lengths 2, 0, 1, 3 under max_len 8:
        # the batch is cut to 4 context and 3 response columns
        model, _ = build_model(tiny_config("ccn_lstm", max_len=8, k=2), tiny_vocab())
        randomize_parameters(model, np.random.default_rng(1))
        pairs = [
            (("lo0",), ("hi1", "lo0", "hi2")),
            (("hi2", "lo1"), ("lo2",)),
            (("hi0", "hi1", "lo0", "hi3"), ("hi0",)),
            (("hi3", "hi2", "hi1", "hi0"), ("hi1", "hi2", "hi3")),
        ]
        prepared = prepare_pairs(model, pairs)
        assert [ids.shape[1] for ids, _ in prepared.columns.values()] == [4, 3]
        labels = Tensor(np.array([1.0, 0.0, 1.0, 0.0]))

        def loss():
            d = sub(forward_batch(model, prepared), labels)
            return mean(mul(d, d))

        report = finite_diff_check(loss, model.params, h=1e-4, max_coords_per_param=8)
        assert report.passed, (report.worst_parameter, report.max_relative_error)


def full_width(prepared, max_len):
    """The same rows with every column padded to max_len."""
    columns = {
        name: (np.pad(ids, ((0, 0), (0, max_len - ids.shape[1]))), lengths)
        for name, (ids, lengths) in prepared.columns.items()
    }
    return PreparedPairs(columns, prepared.context_of)


class TestBatchTrim:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_prepare_pairs_cuts_columns_to_the_longest_true_length(self, arch):
        model, _ = build_model(tiny_config(arch, max_len=6, k=3), tiny_vocab())
        pairs = [(("hi0", "lo0"), ("hi1", "hi2", "lo1")), (("hi1",), ()), (("lo0", "hi2", "lo1"), ("hi3",))]
        whole = prepare_pairs(model, pairs)
        for rows in (None, [1], [2, 0]):
            prepared = prepare_pairs(model, pairs if rows is None else [pairs[i] for i in rows])
            np.testing.assert_array_equal(prepared.context_of, np.arange(3 if rows is None else len(rows)))
            assert prepared.columns.keys() == whole.columns.keys()
            for name, (ids, lengths) in prepared.columns.items():
                assert ids.shape == (len(lengths), lengths.max(initial=0)), (name, rows)
                full_ids, full_lengths = whole.columns[name]
                picked = slice(None) if rows is None else rows  # distinct contexts: row i is pair i's
                np.testing.assert_array_equal(lengths, full_lengths[picked])
                np.testing.assert_array_equal(ids, full_ids[picked][:, : ids.shape[1]])
                assert not full_ids[picked][:, ids.shape[1] :].any()  # only pads were cut

    @pytest.mark.parametrize(
        "arch,k,pairs",
        [
            pytest.param(arch, 1, [(("hi0", "lo0", "hi1"), ("hi1", "lo0")), (("hi2",), ("hi2", "hi3", "lo1"))],
                         id=f"{arch}-ragged")
            for arch in ARCHITECTURES
        ]
        + [
            pytest.param("ccn_lstm", 2, [(("hi0", "lo0"), ("hi1", "hi2")), (("lo1",), ("hi3",)), ((), ("hi0",))],
                         id="ccn_lstm-every-context-shorter-than-k"),
            pytest.param("ccn_lstm", 2, [(("hi0", "hi1", "hi2"), ("lo0",)), (("hi3",), ())],
                         id="ccn_lstm-every-response-empty"),
            pytest.param("dual_lstm", 1, [(("hi0", "hi1", "hi2"), ("lo0",)), (("hi3",), ())],
                         id="dual_lstm-every-response-empty"),
            pytest.param("ccn_lstm", 3, [(("hi0", "hi1", "hi2", "hi3"), ("hi0", "hi3")), (("hi1",), ("lo2", "hi2"))],
                         id="ccn_lstm-k3"),
        ],
    )
    def test_trimmed_batch_scores_as_the_full_width_batch(self, arch, k, pairs):
        model, _ = build_model(tiny_config(arch, max_len=6, k=k, hidden_size=3), tiny_vocab())
        randomize_parameters(model, np.random.default_rng(2))
        labels = np.arange(len(pairs)) % 2.0
        prepared = prepare_pairs(model, pairs)
        results = []
        for batch in (prepared, full_width(prepared, 6)):
            model.params.zero_gradients()
            p = forward_batch(model, batch)
            backward(batch_loss(p, labels))
            results.append((p.data, {name: t.grad.copy() for name, t in model.params.items()}))
        (p_trim, g_trim), (p_full, g_full) = results
        np.testing.assert_array_equal(p_trim, p_full)
        for name, grad in g_full.items():
            np.testing.assert_allclose(g_trim[name], grad, rtol=1e-13, atol=1e-300, err_msg=name)


def distinct_contexts(prepared):
    """The same pairs with each pair given its own copy of its context's rows."""
    columns = {
        name: (ids[prepared.context_of], lengths[prepared.context_of]) if name.startswith("ctx_")
        else (ids, lengths)
        for name, (ids, lengths) in prepared.columns.items()
    }
    return PreparedPairs(columns, np.arange(len(prepared.context_of)))


class TestSharedContexts:
    """prepare_pairs keeps one row per distinct context; forward_batch encodes
    it once and gathers the encoding back to every pair that uses it."""

    # three contexts, the empty one among them, shared by seven pairs in interleaved order
    A, EMPTY, C = ("hi0", "lo0", "hi1", "hi2"), (), ("lo1", "hi3")
    PAIRS = [(A, ("hi1", "lo0")), (EMPTY, ("hi2",)), (A, ("hi3", "hi0", "lo1")), (C, ("lo1",)),
             (A, ()), (C, ("hi0", "hi3")), (EMPTY, ("lo2", "hi1"))]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_shared_contexts_score_as_distinct_ones(self, arch, k):
        model, _ = build_model(tiny_config(arch, max_len=6, k=k, hidden_size=3), tiny_vocab())
        randomize_parameters(model, np.random.default_rng(6))
        assert prepare_pairs(model, self.PAIRS).columns["ctx_high"][0].shape[0] == 3
        for rows in (None, [4, 0, 6, 2, 1]):
            prepared = prepare_pairs(model, self.PAIRS if rows is None else [self.PAIRS[i] for i in rows])
            labels = np.arange(len(prepared.context_of)) % 2.0
            results = []
            for batch in (prepared, distinct_contexts(prepared)):
                model.params.zero_gradients()
                p = forward_batch(model, batch)
                backward(batch_loss(p, labels))
                results.append((p.data, {name: t.grad.copy() for name, t in model.params.items()}))
            (p_shared, g_shared), (p_distinct, g_distinct) = results
            assert p_shared.tobytes() == p_distinct.tobytes(), rows
            for name, grad in g_distinct.items():
                np.testing.assert_allclose(g_shared[name], grad, rtol=1e-13, atol=1e-300, err_msg=name)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_gradients_through_a_context_shared_by_three_pairs(self, arch):
        # context lengths 3, 0 and 1 (one word per band)
        model, _ = build_model(tiny_config(arch, max_len=4), tiny_vocab())
        randomize_parameters(model, np.random.default_rng(8))
        shared, empty, short = ("hi0", "lo0", "hi1"), (), ("lo1", "hi2")
        pairs = [(shared, ("hi1", "lo0")), (empty, ("hi2",)), (shared, ("hi3", "hi0")),
                 (short, ("lo1", "hi2")), (shared, ("lo0",))]
        prepared = prepare_pairs(model, pairs)
        np.testing.assert_array_equal(prepared.context_of, [0, 1, 0, 2, 0])
        labels = Tensor(np.array([1.0, 0.0, 1.0, 0.0, 1.0]))

        def loss():
            d = sub(forward_batch(model, prepared), labels)
            return mean(mul(d, d))

        report = finite_diff_check(loss, model.params, h=1e-4, max_coords_per_param=8)
        assert report.passed, (arch, report.worst_parameter, report.max_relative_error)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_each_distinct_context_is_encoded_once(self, arch, monkeypatch):
        model, _ = build_model(tiny_config(arch, max_len=6), tiny_vocab())
        texts = {CONTEXT: 0, RESPONSE: 0}  # sequences encoded, by side
        encode_rows = vb.encode

        def counting_encode(rows, vocab, length, side):
            texts[side] += len(rows)
            return encode_rows(rows, vocab, length, side)

        monkeypatch.setattr(vb, "encode", counting_encode)
        prepare_pairs(model, self.PAIRS)
        assert texts[CONTEXT] == 3
        # responses, and for mfcw_lstm each pair's common words, stay per pair
        assert texts[RESPONSE] == len(self.PAIRS) * (2 if arch == "mfcw_lstm" else 1)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_prepare_pairs_keeps_only_the_contexts_of_the_chosen_pairs(self, arch):
        model, _ = build_model(tiny_config(arch, max_len=6, k=3), tiny_vocab())
        whole = prepare_pairs(model, self.PAIRS)
        bands = ("high", "low") if arch == "mfcw_lstm" else ("high",)
        # (pairs, their distinct contexts in order of first use, each pair's index into those)
        for rows, contexts, context_of in (([1, 3], [1, 2], [0, 1]), ([4, 0, 6], [0, 1], [0, 0, 1]),
                                           ([5, 3], [2], [0, 0]), ([6], [1], [0])):
            prepared = prepare_pairs(model, [self.PAIRS[i] for i in rows])
            np.testing.assert_array_equal(prepared.context_of, context_of)
            for band in bands:
                ids, lengths = prepared.columns[f"ctx_{band}"]
                full_ids, full_lengths = whole.columns[f"ctx_{band}"]
                np.testing.assert_array_equal(lengths, full_lengths[contexts])
                assert ids.shape == (len(contexts), lengths.max()), (rows, band)
                np.testing.assert_array_equal(ids, full_ids[contexts][:, : ids.shape[1]])
                assert not full_ids[contexts][:, ids.shape[1] :].any()  # only pads were cut


class TestRequestEqualsBatch:
    """A request, one instance's ten pairs through score_pairs, scores bit for
    bit as the batch path's 256-pair batches score the same pairs.

    Only dual_lstm is held to this.  mfcw_lstm's common-word heads
    (``dense_score``) and ccn_lstm's dense head are [B x n]·[n x 1] products,
    which numpy sends to OpenBLAS gemv; gemv rounds the last B mod 4 rows of a
    product unlike the others, so a request's candidates 8 and 9 can differ
    from the batch path in the last bit.  That part of batch invariance is
    still open; the LSTM encodings of every architecture are exact (see
    tests/test_layers.py).  A batch of one pair is left out for the same
    reason: its bilinear product is a one-row gemv.
    """

    @pytest.mark.parametrize("turns,max_len", [(2, 40), (8, 160)])
    def test_dual_lstm_requests_score_as_the_batch(self, turns, max_len):
        train, evals, _ = generate_splits(3, 40, 26, 1, SyntheticConfig(context_turns=turns))
        config = ModelConfig("dual_lstm", embedding_dim=32, hidden_size=32, max_len=max_len, seed=1)
        model, _ = build_model(config, build_vocab(train))
        randomize_parameters(model, np.random.default_rng(7))
        pairs = [(inst.context, cand) for inst in evals for cand in inst.candidates]
        batch = model.score_pairs(pairs)  # batches of 256 and 4 pairs
        for instances in (1, 10):
            size = 10 * instances
            for start in range(0, len(pairs), size):
                got = model.score_pairs(pairs[start : start + size])
                assert got.tobytes() == batch[start : start + size].tobytes(), (instances, start)


class TestScoreMembers:
    """An ensemble's members score together as each scores alone, bit for
    bit, while their request-sized encoder jobs run stacked."""

    @staticmethod
    def ensemble(head, precision):
        train, evals, _ = generate_splits(5, 60, 4, 1, SyntheticConfig(context_turns=3))
        vocab = build_vocab(train)
        members = []
        for i, arch in enumerate(ARCHITECTURES):
            config = ModelConfig(arch, embedding_dim=8, hidden_size=8, max_len=40, k=2, seed=i,
                                 precision=precision, ccn_head=head, frequency_threshold=2)
            model, _ = build_model(config, vocab)
            randomize_parameters(model, np.random.default_rng(i))
            members.append(model)
        return members, evals

    @staticmethod
    def count_stacks(monkeypatch):
        """(jobs, rows) of every stacked kernel call, and rows of every lone one."""
        stacks, alone = [], []

        def stacked(jobs):
            stacks.append((len(jobs), jobs[0][0].shape[0]))
            return layers.lstm_encode_stack(jobs)

        def single(x, *args):
            alone.append(x.shape[0])
            return layers.lstm_encode(x, *args)

        monkeypatch.setattr(models, "lstm_encode_stack", stacked)
        monkeypatch.setattr(models, "lstm_encode", single)
        return stacks, alone

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("head", ["sigmoid", "parallel"])
    @pytest.mark.parametrize("instances", [1, 3])
    def test_members_score_as_alone(self, monkeypatch, instances, head, precision):
        members, evals = self.ensemble(head, precision)
        pairs = [(inst.context, cand) for inst in evals[:instances] for cand in inst.candidates]
        alone = [m.score_pairs(pairs) for m in members]
        stacks, _ = self.count_stacks(monkeypatch)
        together = score_members(members, pairs)
        assert together.shape == (3, len(pairs))
        assert [row.tobytes() for row in together] == [probs.tobytes() for probs in alone]
        assert stacks  # the comparison covered the stacked path

    def test_a_request_stacks_and_a_64_row_job_does_not(self, monkeypatch):
        members, evals = self.ensemble("sigmoid", "float64")
        stacks, alone = self.count_stacks(monkeypatch)
        request = [(evals[0].context, cand) for cand in evals[0].candidates]
        score_members(members, request)
        # the three members' high-band contexts (one row each) and candidates (ten rows)
        assert (3, 1) in stacks and (3, 10) in stacks
        stacks.clear()
        contexts = [inst.context for inst in evals]
        score_members(members, [(contexts[i % 4], evals[i % 4].candidates[i // 4 % 10]) for i in range(64)])
        assert all(rows <= 16 for _, rows in stacks) and 64 in alone

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_a_batch_size_below_one_is_refused_before_any_work(self, monkeypatch, batch_size):
        model, _ = build_model(tiny_config("dual_lstm"), tiny_vocab())
        pairs = [(("hi0",), ("hi1",))] * 10

        def unreachable(*args):
            raise AssertionError("prepared pairs for a refused batch size")

        monkeypatch.setattr(models, "prepare_pairs", unreachable)
        with pytest.raises(ContractError, match="batch_size"):
            model.score_pairs(pairs, batch_size=batch_size)
        with pytest.raises(ContractError, match="batch_size"):
            score_members([model], pairs, batch_size)


class TestForwardBatchStacks:
    """On the tape, a small batch's stacked encoder jobs give the
    probabilities and gradients of the jobs run alone, bit for bit."""

    def test_stacked_batch_equals_jobs_alone(self, monkeypatch):
        train, _, _ = generate_splits(2, 40, 1, 0, SyntheticConfig(context_turns=2))
        config = ModelConfig("mfcw_lstm", embedding_dim=8, hidden_size=8, max_len=40, seed=3,
                             frequency_threshold=2)
        model, _ = build_model(config, build_vocab(train))
        randomize_parameters(model, np.random.default_rng(3))
        batch = train[:16]
        prepared = prepare_pairs(model, [(t.context, t.response) for t in batch])
        labels = np.array([t.label for t in batch], dtype=np.float64)
        stacks, _ = TestScoreMembers.count_stacks(monkeypatch)

        def run():
            model.params.zero_gradients()
            probs = forward_batch(model, prepared)
            backward(batch_loss(probs, labels))
            return probs.data.tobytes(), {name: t.grad.tobytes() for name, t in model.params.items()}

        stacked = run()
        assert stacks  # some of the batch's jobs ran as one stack
        stacks.clear()
        monkeypatch.setattr(models, "_STACK_ROWS", 0)
        alone = run()
        assert not stacks
        assert stacked == alone


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


    def test_nan_cross_convolution_embedding_raises_non_finite_error(self):
        # NaN grid entries win the k-max pooling for every k instead of pooling to zero
        for k in (1, 2):
            model, _ = build_model(tiny_config("ccn_lstm", k=k), tiny_vocab())
            model.params["embedding_ccn"].data[1:] = np.nan
            with pytest.raises(NonFiniteError):
                model.score_pairs([(("hi0", "hi1"), ("hi2",))])


def read_checkpoint_file(path):
    """A saved checkpoint's parsed header and its payload bytes."""
    blob = path.read_bytes()
    (length,) = struct.unpack_from("<I", blob, 8)
    return json.loads(blob[12 : 12 + length]), blob[12 + length : -32]


def write_checkpoint_file(path, header, payload):
    """Write ``header`` and ``payload`` as a checkpoint with a valid sha256."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"CCNRANK1" + struct.pack("<I", len(blob)) + blob + payload
    path.write_bytes(body + hashlib.sha256(body).digest())


def retype_entry(path, name, dtype):
    """Rewrite one manifest entry of a saved checkpoint, and its payload, in
    ``dtype``, keeping every other entry and a valid sha256."""
    header, payload = read_checkpoint_file(path)
    parts, offset = [], 0
    for entry in header["manifest"]:
        count = int(np.prod(entry["shape"]))
        values = np.frombuffer(payload, entry["dtype"], count, offset)
        offset += values.nbytes
        if entry["name"] == name:
            entry["dtype"], values = dtype, values.astype(dtype)
        parts.append(values.tobytes())
    write_checkpoint_file(path, header, b"".join(parts))


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
        model, vocab = self.build()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path, vocab=vocab)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path, vocab=tiny_vocab())

    def test_version_mismatch_rejected(self, tmp_path):
        model, vocab = self.build()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        # bump format_version inside the JSON header
        idx = blob.find(b'"format_version":2')
        blob[idx : idx + len(b'"format_version":2')] = b'"format_version":9'
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path, vocab=vocab)

    def test_shape_mismatch_names_field(self, tmp_path):
        model, vocab = self.build("dual_lstm")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        # shrink the declared bilinear shape without touching the payload
        broken = blob.replace(b'"name":"bilinear","shape":[2,2]', b'"name":"bilinear","shape":[2,1]')
        assert broken != blob
        path.write_bytes(broken)
        with pytest.raises(CheckpointError, match="bilinear"):
            load_checkpoint(path, vocab=vocab)

    def test_vocab_hash_mismatch_rejected(self, tmp_path):
        model, _ = self.build()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        other_vocab = build_vocab([TrainInstance(("zzz",) * 8, ("qqq",), 1)] * 3)
        with pytest.raises(ContractError, match="hash"):
            load_checkpoint(path, vocab=other_vocab)

    @staticmethod
    def rewrite_header(path, edit):
        """Apply ``edit`` to a saved file's header and write a fresh checksum, so
        a test reaches the header checks rather than the checksum's."""
        header, payload = read_checkpoint_file(path)
        edit(header)
        write_checkpoint_file(path, header, payload)

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
            lambda h: h.update(vocab_hash=None),  # names no vocabulary, so none may load it
            lambda h: h["config"].update(k=1.0),
            lambda h: h["config"].update(seed=-1),
        ],
        ids=["extra-config-key", "missing-config-key", "bad-config-value", "no-config",
             "entry-without-shape", "negative-shape", "duplicate-entry", "manifest-not-a-list",
             "hash-not-a-string", "null-hash", "float-config-value", "negative-seed"],
    )
    def test_malformed_header_is_checkpoint_error(self, tmp_path, edit):
        model, vocab = self.build()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        self.rewrite_header(path, edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, vocab=vocab)

    def test_version_1_file_refused(self, tmp_path):
        # version 1 had the same header with format_version 1 and ended at the payloads
        model, vocab = self.build()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-32].replace(b'"format_version":2', b'"format_version":1'))
        with pytest.raises(CheckpointError, match="format version 1 is not 2"):
            load_checkpoint(path, vocab=vocab)

    def test_entry_in_another_dtype_names_the_parameter(self, tmp_path):
        model, vocab = self.build("dual_lstm")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        retype_entry(path, "encoder.w_rec", "<f4")
        message = (r"manifest entry 4 is \{'dtype': '<f4', 'name': 'encoder\.w_rec'.*"
                   r"the config implies \{'dtype': '<f8', 'name': 'encoder\.w_rec'")
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path, vocab=vocab)

    @pytest.mark.parametrize("name, value, found", [
        ("bilinear", np.zeros((3, 3)), r"float64 \[3, 3\], the config implies float64 \[2, 2\]"),
        ("encoder.bias", np.zeros(8, dtype=np.float32), r"float32 \[8\], the config implies float64 \[8\]"),
    ], ids=["shape", "dtype"])
    def test_save_refuses_a_parameter_unlike_the_manifest(self, tmp_path, name, value, found):
        model, _ = self.build("dual_lstm")
        model.params[name].data = value
        path = tmp_path / "m.ckpt"
        with pytest.raises(CheckpointError, match=f"parameter '{name}' is {found}"):
            save_checkpoint(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda m: [e for e in m if e["name"] != "encoder.w_in"],
         r"entry 3 is \{.*'encoder\.w_rec'.*\}, the config implies \{.*'encoder\.w_in'"),
        (lambda m: m + [{"dtype": "<f8", "name": "extra", "shape": [1]}],
         r"entry 5 is \{.*'extra'.*\}, the config implies nothing"),
    ], ids=["dropped-entry", "extra-entry"])
    def test_dropped_or_extra_entry_is_named(self, tmp_path, edit, message):
        model, vocab = self.build("dual_lstm")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        self.rewrite_header(path, lambda h: h.update(manifest=edit(h["manifest"])))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path, vocab=vocab)

    def test_embedding_table_without_rows_refused(self, tmp_path):
        # a consistent file, payload and sha256 included, of a model whose table has no rows
        model, vocab = self.build("dual_lstm")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        header, payload = read_checkpoint_file(path)
        assert [e["name"] for e in header["manifest"][:2]] == ["bilinear", "embedding_high"]
        header["manifest"][1]["shape"][0] = 0
        start, size = model.params["bilinear"].data.nbytes, model.params["embedding_high"].data.nbytes
        write_checkpoint_file(path, header, payload[:start] + payload[start + size :])
        with pytest.raises(CheckpointError, match="no row count for 'embedding_high'"):
            load_checkpoint(path, vocab=vocab)

    def test_pad_row_zero_after_load(self, tmp_path):
        vocab = tiny_vocab()
        path = tmp_path / "m.ckpt"
        for arch, head in TestParameterSpec.PINNED:
            config = tiny_config(arch, ccn_head=head)
            tables = [name for name, _ in parameter_spec(config, vocab.size) if name.startswith("embedding")]
            model, _ = build_model(config, vocab)
            for name in tables:
                assert not model.params[name].data[PAD_ID].any(), (arch, name)
                model.params[name].data[PAD_ID] = 1.0  # a file written with a nonzero padding row
            save_checkpoint(model, path)
            loaded = load_checkpoint(path, vocab=vocab)
            for name in tables:
                assert not loaded.params[name].data[PAD_ID].any(), (arch, name)


class TestCheckpointBytes:
    # sha256 of each tiny seeded model's checkpoint, as the format writes it;
    # a change to the bytes the format writes changes these
    PINNED = {
        ("dual_lstm", "sigmoid", "float64"): "20a9d14aaa6f52d2102d0c4efd608a3fa994c552da568c7c8bea66af2928f9af",
        ("dual_lstm", "sigmoid", "float32"): "53ea8a9e1a2e3acc9f609e8e05ebf9d2a772e07866c2bcf1513ecaddb7d727a3",
        ("dual_lstm", "parallel", "float64"): "ab9b0068621ef952595a8808bac57fe74f60d22ee62c8708bbce43b625b2cd93",
        ("dual_lstm", "parallel", "float32"): "9125d68a6e4aa628035fbbf3bfa1e37e35dc2ea11aa1690a331a5eb6429c4444",
        ("mfcw_lstm", "sigmoid", "float64"): "1c1eba006a3d4e60b993f2f5c34dba0545506559aa9970390a55f9b80a3265aa",
        ("mfcw_lstm", "sigmoid", "float32"): "72966ebae130c9d9ae9918b43a7c63e35dd8d3c4a6936369017d835a1a6153e5",
        ("mfcw_lstm", "parallel", "float64"): "ab3db33715f4fb6a6f2128a27dba3ddf94fad5cc7efa2b0014192d0f6b4f511a",
        ("mfcw_lstm", "parallel", "float32"): "2c9b254728ee81942c0562e393bbfbd5c9f85719a72e0d83728ee623b8656727",
        ("ccn_lstm", "sigmoid", "float64"): "7fa9c3e20f3fbacaf002edc784b2feb5760eec73a2a37704dad4a361e93d6bd4",
        ("ccn_lstm", "sigmoid", "float32"): "df97ad2577a9afbaec1da1ee5010ebed28e2fe396c23c36d0d06c0ef91faecc9",
        ("ccn_lstm", "parallel", "float64"): "f0164861131859dbb4470d52852ea71f013295d2a2f6847c58920b9e65cd168b",
        ("ccn_lstm", "parallel", "float32"): "c2c8a6e79cdf16ff8929f0b875526c4a0e5a06fb644d00337f791eab61c1ffbb",
    }

    @pytest.mark.parametrize("arch, head, precision", list(PINNED))
    def test_saved_bytes_are_pinned(self, tmp_path, arch, head, precision):
        model, _ = build_model(tiny_config(arch, ccn_head=head, precision=precision), tiny_vocab())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED[arch, head, precision]


def lstm_spec(prefix):
    """An LSTM's spec entries at embedding_dim 3, hidden_size 2."""
    return [(f"{prefix}.w_in", (8, 3)), (f"{prefix}.w_rec", (8, 2)), (f"{prefix}.bias", (8,))]


class TestParameterSpec:
    def test_covers_all_architectures(self):
        for arch in ARCHITECTURES:
            spec = parameter_spec(tiny_config(arch), vocab_size=10)
            names = [n for n, _ in spec]
            assert len(names) == len(set(names))
            assert any(n.startswith("embedding") for n in names)

    PINNED = {
        ("dual_lstm", "sigmoid"): [("embedding_high", (10, 3)), *lstm_spec("encoder"), ("bilinear", (2, 2))],
        ("mfcw_lstm", "sigmoid"): [
            ("embedding_high", (10, 3)), ("embedding_low", (10, 3)),
            *lstm_spec("encoder_high"), *lstm_spec("encoder_low"),
            *lstm_spec("encoder_common_high"), *lstm_spec("encoder_common_low"),
            ("bilinear_high", (2, 2)), ("bilinear_low", (2, 2)),
            ("common_head_high", (2,)), ("common_head_low", (2,)), ("branch_weights", (4,)),
        ],
        ("ccn_lstm", "sigmoid"): [
            ("embedding_lstm", (10, 3)), ("embedding_ccn", (10, 3)), *lstm_spec("encoder"),
            ("bilinear", (2, 2)), ("ccn.weight", (10,)), ("ccn.bias", (1,)), ("branch_weights", (2,)),
        ],
        ("ccn_lstm", "parallel"): [
            ("embedding_lstm", (10, 3)), ("embedding_ccn", (10, 3)), *lstm_spec("encoder"),
            ("bilinear", (2, 2)), ("ccn.weight", (10,)), ("ccn.bias", (1,)),
            ("ccn2.weight", (10,)), ("ccn2.bias", (1,)), ("branch_weights", (2,)),
        ],
    }

    @pytest.mark.parametrize("arch, head", list(PINNED))
    def test_exact_names_shapes_and_order(self, arch, head):
        # the order fixes the seeded draw stream and the checkpoint manifest
        config = tiny_config(arch, embedding_dim=3, hidden_size=2, max_len=5, k=2, ccn_head=head)
        assert parameter_spec(config, vocab_size=10) == self.PINNED[arch, head]

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
        with pytest.raises(ContractError, match="seed must be >= 0, got -1"):
            ModelConfig(architecture="dual_lstm", seed=-1)


@pytest.fixture(scope="module")
def ccn_checkpoint(tmp_path_factory):
    """A saved ccn_lstm checkpoint's bytes, a path to write damaged copies to and its vocabulary."""
    vocab = tiny_vocab()
    model, _ = build_model(tiny_config("ccn_lstm"), vocab)
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_checkpoint(model, path)
    return path.read_bytes(), path, vocab


class TestCheckpointFuzz:
    """Damaged checkpoints raise CheckpointError, never anything else."""

    def test_every_single_byte_overwrite_rejected(self, ccn_checkpoint):
        # two overwrites of every byte (lowest bit flipped, all bits flipped),
        # and every other value of the format version's digit
        blob, path, vocab = ccn_checkpoint
        version_digit = blob.index(b'"format_version":2') + len(b'"format_version":')
        overwrites = [(i, blob[i] ^ mask) for i in range(len(blob)) for mask in (0x01, 0xFF)]
        overwrites += [(version_digit, value) for value in range(256) if value != blob[version_digit]]
        loaded = []
        for i, value in overwrites:
            damaged = bytearray(blob)
            damaged[i] = value
            path.write_bytes(bytes(damaged))
            try:
                load_checkpoint(path, vocab=vocab)
                loaded.append((i, value))
            except CheckpointError:
                pass
        assert not loaded, f"{len(loaded)} overwrites loaded, e.g. (offset, value) {loaded[:5]}"

    @settings(max_examples=200, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_truncated_file(self, ccn_checkpoint, fraction):
        blob, path, vocab = ccn_checkpoint
        path.write_bytes(blob[: int(fraction * len(blob))])
        with pytest.raises(CheckpointError):
            load_checkpoint(path, vocab=vocab)

    @settings(max_examples=500, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           value=st.integers(min_value=0, max_value=255))
    def test_one_header_byte_overwritten(self, ccn_checkpoint, fraction, value):
        blob, path, vocab = ccn_checkpoint
        damaged = bytearray(blob)
        (length,) = struct.unpack_from("<I", damaged, 8)
        damaged[int(fraction * (12 + length))] = value  # magic, length field or JSON
        path.write_bytes(bytes(damaged))
        try:
            load_checkpoint(path, vocab=vocab)
        except CheckpointError:
            pass
