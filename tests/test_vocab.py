import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccnrank.corpus import TrainInstance, generate_synthetic, tokenize
from ccnrank.numerics import ContractError
from ccnrank.vocab import (
    HIGH,
    LOW,
    OOV_ID,
    PAD_ID,
    Vocabulary,
    build_vocab,
    common_words,
    cwf_score,
    encode,
    filter_rows,
    load_vocab,
    save_vocab,
    split_by_frequency,
)


def make_vocab(counts):
    ordered = sorted(counts, key=lambda w: (-counts[w], w))
    return Vocabulary(
        word_to_id={w: i + 2 for i, w in enumerate(ordered)},
        counts=dict(counts),
        words_by_id=tuple(ordered),
    )


class TestBuildVocab:
    def test_single_pair_counts(self):
        vocab = build_vocab([TrainInstance(tokenize("a a b"), tokenize("b"), 1)])
        assert vocab.counts == {"a": 2, "b": 2}

    def test_deterministic_ids(self):
        instances = [TrainInstance(tokenize("c b a"), tokenize("b c"), 0)]
        v1, v2 = build_vocab(instances), build_vocab(instances)
        assert v1.word_to_id == v2.word_to_id
        # descending count, lexicographic ties: b(2), c(2), a(1)
        assert v1.words_by_id == ("b", "c", "a")
        assert v1.word_to_id["b"] == 2

    def test_counts_match_streaming_recount(self):
        train, _ = generate_synthetic(21, 300, 5)
        vocab = build_vocab(train)
        recount = Counter()
        for inst in train:
            recount.update(inst.context)
            recount.update(inst.response)
        assert vocab.counts == dict(recount)

    def test_empty_train_set_rejected(self):
        with pytest.raises(ContractError):
            build_vocab([])

    def test_reserved_ids(self):
        vocab = build_vocab([TrainInstance(("x",), ("y",), 1)])
        assert PAD_ID == 0 and OOV_ID == 1
        assert min(vocab.word_to_id.values()) == 2
        assert vocab.size == 4


class TestVocabFile:
    def test_round_trip(self, tmp_path):
        train, _ = generate_synthetic(4, 40, 5)
        vocab = build_vocab(train)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        loaded = load_vocab(path)
        assert loaded.word_to_id == vocab.word_to_id
        assert loaded.counts == vocab.counts
        assert loaded.content_hash() == vocab.content_hash()


    @pytest.mark.parametrize("count", ["abc", "-1", "3.0", ""])
    def test_count_must_be_a_non_negative_integer(self, tmp_path, count):
        path = tmp_path / "vocab.txt"
        path.write_text(f"a\t3\nhello\t{count}\n", encoding="utf-8")
        with pytest.raises(ContractError, match=re.escape(f"{path}: line 2: count")):
            load_vocab(path)

    def test_duplicate_word_is_rejected(self, tmp_path):
        # it would load as a second id for one word, the first left an orphan
        path = tmp_path / "vocab.txt"
        path.write_text("hello\t3\nworld\t2\nhello\t2\n", encoding="utf-8")
        with pytest.raises(ContractError, match=re.escape(f"{path}: line 3: duplicate word 'hello'")):
            load_vocab(path)


class TestFrequencySplit:
    def test_boundary_above_threshold_is_high(self):
        vocab = make_vocab({"often": 6, "rare": 5})
        split = split_by_frequency(vocab, 5)
        assert vocab.word_to_id["often"] in split.high
        assert vocab.word_to_id["rare"] in split.low

    def test_threshold_zero_all_high(self):
        vocab = make_vocab({"a": 1, "b": 3})
        split = split_by_frequency(vocab, 0)
        assert not split.low
        assert split.high == frozenset(vocab.word_to_id.values())

    def test_partition_laws(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            counts = {f"w{i}": int(rng.integers(1, 12)) for i in range(30)}
            vocab = make_vocab(counts)
            threshold = int(rng.integers(0, 12))
            split = split_by_frequency(vocab, threshold)
            assert not (split.high & split.low)
            assert split.high | split.low == frozenset(vocab.word_to_id.values())
            for w, i in vocab.word_to_id.items():
                assert (i in split.high) == (counts[w] > threshold)
            assert set(np.flatnonzero(split.is_high)) == split.high

    def test_oov_routed_low(self):
        split = split_by_frequency(make_vocab({"a": 9}), 5)
        assert not split.is_high[OOV_ID] and not split.is_high[PAD_ID]
        ids = np.array([[PAD_ID, OOV_ID, 2, PAD_ID]])
        high, high_len = filter_rows(ids, split, HIGH)
        low, low_len = filter_rows(ids, split, LOW)
        assert high.tolist() == [[2, PAD_ID, PAD_ID, PAD_ID]] and high_len.tolist() == [1]
        assert low.tolist() == [[OOV_ID, PAD_ID, PAD_ID, PAD_ID]] and low_len.tolist() == [1]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ContractError):
            split_by_frequency(make_vocab({"a": 1}), -1)


class TestEncode:
    def test_padding(self):
        vocab = make_vocab({"a": 3, "b": 2})
        ids, lengths = encode([("a", "b")], vocab, length=4, side="context")
        np.testing.assert_array_equal(ids, [[2, 3, 0, 0]])
        assert lengths.tolist() == [2]

    def test_context_keeps_last(self):
        vocab = make_vocab({f"w{i}": 1 for i in range(6)})
        tokens = tuple(f"w{i}" for i in range(6))
        ids, _ = encode([tokens], vocab, length=4, side="context")
        assert [vocab.words_by_id[i - 2] for i in ids[0]] == ["w2", "w3", "w4", "w5"]

    def test_response_keeps_first(self):
        vocab = make_vocab({f"w{i}": 1 for i in range(6)})
        tokens = tuple(f"w{i}" for i in range(6))
        ids, _ = encode([tokens], vocab, length=4, side="response")
        assert [vocab.words_by_id[i - 2] for i in ids[0]] == ["w0", "w1", "w2", "w3"]

    def test_unknown_token_maps_to_oov(self):
        vocab = make_vocab({"a": 1})
        ids, _ = encode([("a", "mystery")], vocab, length=3)
        assert ids[0, 1] == OOV_ID

    def test_output_length_exact(self):
        vocab = make_vocab({"a": 1})
        for n_tokens in (0, 1, 5, 9):
            ids, lengths = encode([("a",) * n_tokens], vocab, length=5)
            assert ids.shape == (1, 5) and lengths.tolist() == [min(n_tokens, 5)]

    def test_bad_args(self):
        vocab = make_vocab({"a": 1})
        with pytest.raises(ContractError):
            encode([("a",)], vocab, length=0)
        with pytest.raises(ContractError):
            encode([("a",)], vocab, length=3, side="sideways")

    def test_no_texts(self):
        ids, lengths = encode([], make_vocab({"a": 1}), length=3)
        assert ids.shape == (0, 3) and ids.dtype == np.int64
        assert lengths.shape == (0,) and lengths.dtype == np.int64

    def test_empty_texts(self):
        vocab = make_vocab({"a": 1})
        ids, lengths = encode([(), ("a",), ()], vocab, length=2, side="response")
        np.testing.assert_array_equal(ids, [[PAD_ID, PAD_ID], [2, PAD_ID], [PAD_ID, PAD_ID]])
        assert lengths.tolist() == [0, 1, 0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_match_per_token_lookup(self, data):
        vocab = make_vocab({f"w{i}": i + 1 for i in range(5)})
        words = st.sampled_from(list(vocab.word_to_id) + ["ghost", "__eou__"])
        texts = data.draw(st.lists(st.lists(words, max_size=9).map(tuple), max_size=6))
        length, side = data.draw(st.integers(1, 7)), data.draw(st.sampled_from(["context", "response"]))
        ids, lengths = encode(texts, vocab, length, side)
        assert ids.shape == (len(texts), length)
        for row, tokens in enumerate(texts):
            kept = tokens[-length:] if side == "context" else tokens[:length]
            want = [vocab.word_to_id.get(t, OOV_ID) for t in kept]
            assert ids[row].tolist() == want + [PAD_ID] * (length - len(kept))
            assert lengths[row] == len(kept)


class TestFilterSequence:
    """``filter_rows`` on one sequence, a one-row batch."""

    def setup_method(self):
        self.vocab = make_vocab({"hi1": 10, "hi2": 8, "lo1": 2, "lo2": 1})
        self.split = split_by_frequency(self.vocab, 5)

    def test_all_high_unchanged_in_high_band(self):
        ids, _ = encode([("hi1", "hi2")], self.vocab, length=4)
        out, lengths = filter_rows(ids, self.split, HIGH)
        np.testing.assert_array_equal(out, ids)
        assert lengths.tolist() == [2]

    def test_all_high_empties_low_band(self):
        ids, _ = encode([("hi1", "hi2")], self.vocab, length=4)
        out, lengths = filter_rows(ids, self.split, LOW)
        assert lengths.tolist() == [0]
        assert (out == PAD_ID).all()

    def test_mixed_matches_membership_oracle(self):
        rng = np.random.default_rng(5)
        words = list(self.vocab.word_to_id)
        for _ in range(50):
            tokens = tuple(words[i] for i in rng.integers(0, len(words), size=rng.integers(0, 9)))
            ids, _ = encode([tokens], self.vocab, length=10)
            for band in (HIGH, LOW):
                out, lengths = filter_rows(ids, self.split, band)
                oracle = [
                    self.vocab.word_to_id[t]
                    for t in tokens
                    if (self.vocab.counts[t] > 5) == (band == HIGH)
                ]
                np.testing.assert_array_equal(out[0, : lengths[0]], oracle)

    def test_bands_union_to_real_word_multiset(self):
        rng = np.random.default_rng(6)
        words = list(self.vocab.word_to_id) + ["unseen1", "unseen2"]
        for _ in range(50):
            tokens = tuple(words[i] for i in rng.integers(0, len(words), size=rng.integers(0, 12)))
            ids, lengths = encode([tokens], self.vocab, length=12)
            hi, hi_len = filter_rows(ids, self.split, HIGH)
            lo, lo_len = filter_rows(ids, self.split, LOW)
            merged = Counter(hi[0, : hi_len[0]]) + Counter(lo[0, : lo_len[0]])
            original = Counter(i for i in ids[0, : lengths[0]] if i != PAD_ID)
            assert merged == original


class TestFilterRows:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_membership_oracle(self, data):
        counts = {f"w{i}": c for i, c in enumerate(data.draw(st.lists(st.integers(1, 10), max_size=12)))}
        vocab = make_vocab(counts)
        split = split_by_frequency(vocab, data.draw(st.integers(0, 10)))
        n, length = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 40))
        # ragged rows of ids in [0, size): pad (also inside a row), oov and real words
        ids = np.zeros((n, length), dtype=np.int64)
        for row in range(n):
            used = data.draw(st.integers(0, length))
            ids[row, :used] = data.draw(
                st.lists(st.integers(0, vocab.size - 1), min_size=used, max_size=used)
            )
        filtered = {}
        for band in (HIGH, LOW):
            out, lengths = filter_rows(ids, split, band)
            filtered[band] = lengths
            assert out.shape == ids.shape and lengths.shape == (n,)
            for row in range(n):
                kept = [i for i in ids[row] if i != PAD_ID and (i in split.high) == (band == HIGH)]
                np.testing.assert_array_equal(out[row], kept + [PAD_ID] * (length - len(kept)))
                assert lengths[row] == len(kept)
        # the two bands partition every row's non-pad ids
        np.testing.assert_array_equal(filtered[HIGH] + filtered[LOW], (ids != PAD_ID).sum(axis=1))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_ids_outside_the_table_rejected(self, bad):
        split = split_by_frequency(make_vocab({"a": 9, "b": 1}), 5)  # ids 0..3
        with pytest.raises(ContractError, match="out of range"):
            filter_rows(np.array([[2, bad]]), split, HIGH)

    def test_bad_band_rejected(self):
        split = split_by_frequency(make_vocab({"a": 9}), 5)
        with pytest.raises(ContractError):
            filter_rows(np.array([[2]]), split, "middle")


class TestCommonWords:
    def test_disjoint(self):
        assert common_words(("a", "b"), ("c", "d")) == ()

    def test_order_by_first_appearance_in_response(self):
        assert common_words(("a", "b", "c"), ("c", "a", "c")) == ("c", "a")

    def test_markers_excluded(self):
        assert common_words(("a", "__eou__", "__eot__"), ("__eou__", "a", "__eot__")) == ("a",)

    def test_matches_set_intersection_oracle(self):
        rng = np.random.default_rng(8)
        alphabet = [f"w{i}" for i in range(12)] + ["__eou__", "__eot__"]
        for _ in range(200):
            ctx = tuple(alphabet[i] for i in rng.integers(0, len(alphabet), size=rng.integers(0, 15)))
            resp = tuple(alphabet[i] for i in rng.integers(0, len(alphabet), size=rng.integers(0, 15)))
            got = common_words(ctx, resp)
            expected = (set(ctx) & set(resp)) - {"__eou__", "__eot__"}
            assert set(got) == expected
            assert len(got) == len(set(got))


class TestCwfScore:
    def test_no_common_words(self):
        vocab = make_vocab({"a": 1, "b": 1})
        assert cwf_score(("a",), ("b",), vocab) == 0.0

    def test_reciprocal_sum(self):
        vocab = make_vocab({"x": 3, "y": 100, "z": 7})
        got = cwf_score(("x", "y", "z"), ("y", "x"), vocab)
        assert got == pytest.approx(1.0 / 3 + 1.0 / 100)

    def test_unseen_common_word_counts_as_one(self):
        vocab = make_vocab({"a": 4})
        assert cwf_score(("ghost",), ("ghost",), vocab) == pytest.approx(1.0)

    def test_symmetric_and_monotone(self):
        vocab = make_vocab({"x": 3, "y": 100, "z": 7})
        a = cwf_score(("x", "z"), ("x",), vocab)
        b = cwf_score(("x", "z"), ("x", "z"), vocab)
        assert b > a >= 0
        assert cwf_score(("x", "z"), ("x",), vocab) == cwf_score(("x",), ("x", "z"), vocab)

    def test_matches_reciprocal_oracle_on_synthetic_pairs(self):
        train, _ = generate_synthetic(31, 400, 5)
        vocab = build_vocab(train)
        checked = 0
        for inst in train:
            # independent recomputation, same word set and summation order
            # (common types by first appearance in the response)
            expected = 0.0
            summed = set()
            for w in inst.response:
                if w in ("__eou__", "__eot__") or w in summed or w not in set(inst.context):
                    continue
                summed.add(w)
                expected += 1.0 / vocab.counts.get(w, 1)
            assert cwf_score(inst.context, inst.response, vocab) == expected
            checked += 1
        assert checked == 400
