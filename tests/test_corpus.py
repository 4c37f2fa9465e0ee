import string

import pytest
from hypothesis import example, given, settings, strategies as st

from ccnrank.corpus import (
    ConfigError,
    EvalInstance,
    ParseError,
    SyntheticConfig,
    TrainInstance,
    generate_splits,
    generate_synthetic,
    load_eval,
    load_train,
    parse_config_file,
    tokenize,
    topic_keywords,
    write_eval,
    write_train,
)


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == ()

    def test_markers_kept_whole(self):
        assert tokenize("Hello world __eou__") == ("hello", "world", "__eou__")

    def test_punctuation_detached(self):
        assert tokenize("hi, there.") == ("hi", ",", "there", ".")

    def test_interior_punctuation_kept(self):
        assert tokenize("don't stop") == ("don't", "stop")

    def test_tag_tokens_never_split(self):
        assert tokenize("go to __url__ now") == ("go", "to", "__url__", "now")

    def test_wrapped_punctuation(self):
        assert tokenize("(yes!)") == ("(", "yes", "!", ")")

    def test_pure_punctuation_chunk(self):
        assert tokenize("wait ...") == ("wait", ".", ".", ".")

    def test_idempotent_on_own_output(self):
        samples = [
            "Hello, World! __eou__ __eot__ check http-ish: (foo) don't",
            "a,b c. __eou__ 'quoted' x",
            "",
        ]
        for text in samples:
            once = tokenize(text)
            again = tokenize(" ".join(once))
            assert once == again

    @settings(max_examples=500, deadline=None)
    @given(text=st.lists(
        st.one_of(
            st.sampled_from(string.ascii_letters + string.digits + string.punctuation),
            st.sampled_from(["__eou__", "__EOT__", "__url__", "__a_1__", "_____", "__", "İ", "ß", "ǅ", "ﬁ"]),
            st.sampled_from([" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003",
                             "\u2028", "\u3000"]),
            st.characters(),
        ),
        max_size=40,
    ).map("".join))
    @example(text="(__eou__),")
    @example(text="__eou__\u2003__EOU__\xa0x__eou__")
    def test_idempotent_property(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestTrainFile:
    def test_round_trip(self, tmp_path):
        instances = [
            TrainInstance(tokenize("hi there __eou__"), tokenize("hello !"), 1),
            TrainInstance(tokenize("a , b"), tokenize("c"), 0),
        ]
        path = tmp_path / "train.csv"
        write_train(instances, path)
        assert load_train(path) == instances

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Context,Utterance,Label\nfirst,resp,1\nsecond,resp,0\n")
        loaded = load_train(path)
        assert len(loaded) == 2
        assert loaded[0].context == ("first",)
        assert loaded[1].context == ("second",)

    def test_bad_label_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Context,Utterance,Label\nctx,resp,1\nctx,resp,2\n")
        with pytest.raises(ParseError, match="row 2"):
            load_train(path)

    def test_wrong_column_count_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("Context,Utterance,Label\nctx,resp\n")
        with pytest.raises(ParseError, match="row 1"):
            load_train(path)

    def test_quoted_comma_is_one_field(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('Context,Utterance,Label\n"hi, there",resp,1\n')
        loaded = load_train(path)
        assert loaded[0].context == ("hi", ",", "there")

    def test_tokens_are_tokenize_output_shared_within_the_load(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('Context,Utterance,Label\n"Hi, there!",hi you,1\n"Hi, there!",there,0\n')
        first, second = load_train(path)
        assert first.context == tokenize("Hi, there!") and type(first.context) is tuple
        assert first.response == tokenize("hi you")
        assert second.context is first.context  # one tuple for a text read twice
        assert second.response[0] is first.context[2]  # one string for a token read twice

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("A,B,C\n")
        with pytest.raises(ParseError, match="row 1"):
            load_train(path)


class TestEvalFile:
    def header(self):
        return "Context,Ground Truth Utterance," + ",".join(f"Distractor_{i}" for i in range(9))

    def test_valid_row(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(self.header() + "\n" + ",".join(["ctx", "good"] + [f"d{i}" for i in range(9)]) + "\n")
        loaded = load_eval(path)
        assert len(loaded) == 1
        assert len(loaded[0].candidates) == 10
        assert loaded[0].candidates[0] == ("good",)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(self.header() + "\n" + ",".join(["ctx", "good"] + [f"d{i}" for i in range(8)]) + "\n")
        with pytest.raises(ParseError, match="row 1"):
            load_eval(path)

    def test_empty_distractor_cell_accepted(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(self.header() + "\n" + ",".join(["ctx", "good", ""] + [f"d{i}" for i in range(8)]) + "\n")
        loaded = load_eval(path)
        assert loaded[0].candidates[1] == ()

    def test_round_trip(self, tmp_path):
        _, evals = generate_synthetic(3, 20, 5)
        path = tmp_path / "e.csv"
        write_eval(evals, path)
        assert load_eval(path) == evals


class TestSynthetic:
    def test_same_seed_is_byte_identical(self, tmp_path):
        a_train, a_eval = generate_synthetic(11, 200, 30)
        b_train, b_eval = generate_synthetic(11, 200, 30)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_train(a_train, pa)
        write_train(b_train, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert a_eval == b_eval

    def test_different_seed_differs(self):
        a, _ = generate_synthetic(1, 50, 5)
        b, _ = generate_synthetic(2, 50, 5)
        assert a != b

    def test_exact_count_and_balance(self):
        train, _ = generate_synthetic(5, 1000, 5)
        assert len(train) == 1000
        positives = sum(inst.label for inst in train)
        assert positives == 500

    def test_odd_count(self):
        train, _ = generate_synthetic(5, 7, 2)
        assert len(train) == 7
        assert sum(inst.label for inst in train) == 4

    def test_positive_pairs_share_a_keyword(self):
        train, evals = generate_synthetic(7, 400, 50)
        for inst in train:
            if inst.label == 1:
                shared = topic_keywords(inst.context) & topic_keywords(inst.response)
                assert shared, inst
        for inst in evals:
            shared = topic_keywords(inst.context) & topic_keywords(inst.candidates[0])
            assert shared

    def test_distractors_do_not_share_context_keywords(self):
        _, evals = generate_synthetic(7, 400, 50)
        for inst in evals:
            ctx_kw = topic_keywords(inst.context)
            for cand in inst.candidates[1:]:
                assert not (ctx_kw & topic_keywords(cand))

    def test_keyword_frequencies_calibrated(self):
        # keywords at or below the band threshold, fillers above it
        train, _ = generate_synthetic(9, 1000, 10)
        counts = {}
        for inst in train:
            for tok in list(inst.context) + list(inst.response):
                counts[tok] = counts.get(tok, 0) + 1
        keywords = {w for w in counts if w.startswith("kw")}
        fillers = {w for w in counts if w.startswith(("w", "t")) and not w.startswith("kw")}
        fillers -= {"__eou__", "__eot__"}
        assert keywords and fillers
        assert max(counts[w] for w in keywords) <= 5
        assert min(counts[w] for w in fillers) > 5

    def test_generate_splits_prefix_matches(self):
        train_a, eval_a = generate_synthetic(13, 60, 8)
        train_b, eval_b, val_b = generate_splits(13, 60, 8, 4)
        assert train_a == train_b
        assert eval_a == eval_b
        assert len(val_b) == 4
        assert all(isinstance(v, EvalInstance) for v in val_b)

    def test_zero_topic_config_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(topics=0)
        with pytest.raises(ConfigError):
            SyntheticConfig(keywords_per_topic=0)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(0, 0, 5)
        with pytest.raises(ConfigError):
            generate_synthetic(0, 5, 0)


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "syn.cfg"
        path.write_text("# synthetic corpus\ntopics = 4\nkeywords_per_topic = 10\nseed = 3\n")
        values = parse_config_file(path)
        assert values == {"topics": "4", "keywords_per_topic": "10", "seed": "3"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "syn.cfg"
        path.write_text("topics 4\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_file(path)
