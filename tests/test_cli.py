import argparse
import json
import re
import shlex
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest

import numpy as np

from ccnrank import cli, models, training
from ccnrank.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from ccnrank.corpus import load_eval, load_train, write_eval, write_train
from ccnrank.models import ARCHITECTURES, ModelConfig, load_checkpoint, save_checkpoint
from ccnrank.numerics import GradCheckReport
from ccnrank.training import EpochReport, TrainConfig
from ccnrank.vocab import build_vocab, load_vocab
from test_models import retype_entry


@pytest.fixture(autouse=True)
def run_in_tmpdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def gen(tmp_path, n_train=80, n_eval=10, seed=7, out="data"):
    rc = main(
        [
            "gen-synthetic",
            "--seed", str(seed),
            "--train", str(n_train),
            "--eval", str(n_eval),
            "--out", str(tmp_path / out),
        ]
    )
    assert rc == EXIT_OK
    return tmp_path / out


def listing(root):
    """Every path under ``root``, relative to it."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def train_tiny(tmp_path, data, arch="dual_lstm", out="model.ckpt", extra=()):
    rc = main(
        [
            "train",
            "--arch", arch,
            "--train", str(data / "train.csv"),
            "--val", str(data / "validation.csv"),
            "--out", str(tmp_path / out),
            "--seed", "1",
            "--epochs", "1",
            "--batch-size", "16",
            "--hidden-size", "4",
            "--embedding-dim", "4",
            "--max-len", "16",
            *extra,
        ]
    )
    return rc, tmp_path / out


def load_trained(ckpt):
    """The checkpoint ``train`` wrote, over the vocabulary it wrote beside it."""
    return load_checkpoint(ckpt, load_vocab(f"{ckpt}.vocab.txt"))


class TestGenSynthetic:
    def test_writes_three_csvs_and_manifest(self, run_in_tmpdir):
        out = gen(run_in_tmpdir)
        for name in ("train.csv", "validation.csv", "eval.csv", "manifest.json"):
            assert (out / name).exists()
        assert len(load_train(out / "train.csv")) == 80
        assert len(load_eval(out / "eval.csv")) == 10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen-synthetic"
        assert manifest["seed"] == 7

    def test_missing_out_is_usage_error(self, run_in_tmpdir):
        rc = main(["gen-synthetic", "--seed", "1", "--train", "10", "--eval", "2"])
        assert rc == EXIT_USAGE

    def test_rerun_is_byte_identical(self, run_in_tmpdir):
        a = gen(run_in_tmpdir, out="a")
        b = gen(run_in_tmpdir, out="b")
        for name in ("train.csv", "validation.csv", "eval.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_file_merges_under_flags(self, run_in_tmpdir):
        cfg = run_in_tmpdir / "syn.cfg"
        cfg.write_text("topics = 3\nseed = 5\n")
        rc = main(
            [
                "gen-synthetic",
                "--train", "20",
                "--eval", "2",
                "--out", str(run_in_tmpdir / "c"),
                "--config", str(cfg),
                "--seed", "9",  # explicit flag wins over the config value
            ]
        )
        assert rc == EXIT_OK
        manifest = json.loads((run_in_tmpdir / "c" / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["configuration"]["topics"] == 3

    def test_bad_config_value_is_usage_error(self, run_in_tmpdir, capsys):
        cfg = run_in_tmpdir / "syn.cfg"
        cfg.write_text("topics = 0\n")
        rc = main(
            ["gen-synthetic", "--train", "10", "--eval", "2",
             "--out", str(run_in_tmpdir / "x"), "--config", str(cfg)]
        )
        assert rc == EXIT_USAGE
        assert f"{cfg} and the command line: topics" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text", [
        ("--vocab", b"hello\t3\nw\xff\t2\n"),
        ("--embeddings", b"hello 0.25 0.25 0.25 0.25\nw\xff 0.25 0.25 0.25 0.25\n"),
        ("--config", b"seed = 1\nepochs = \xff\n"),
    ], ids=["vocab", "embeddings", "config"])
    def test_non_utf8_input_is_usage_error(self, run_in_tmpdir, flag, text, capsys):
        data = gen(run_in_tmpdir)
        path = run_in_tmpdir / "input.txt"
        path.write_bytes(text)
        before = listing(run_in_tmpdir)
        capsys.readouterr()
        rc, _ = train_tiny(run_in_tmpdir, data, extra=(flag, str(path)))
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{path}: line 2: not UTF-8" in err and "Traceback" not in err
        assert listing(run_in_tmpdir) == before

    def test_non_numeric_config_value_is_usage_error(self, run_in_tmpdir, capsys):
        cfg = run_in_tmpdir / "syn.cfg"
        cfg.write_text("topics = x\n")
        rc = main(
            ["gen-synthetic", "--train", "10", "--eval", "2",
             "--out", str(run_in_tmpdir / "x"), "--config", str(cfg)]
        )
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(cfg) in err and "topics" in err
        assert not (run_in_tmpdir / "x").exists()


    @pytest.mark.parametrize("flags,message", [(("--train", "0"), "--train must be >= 1, got 0"),
                                               (("--val", "-1"), "--val must be >= 0, got -1")])
    def test_bad_count_is_usage_error_before_any_write(self, run_in_tmpdir, flags, message, capsys):
        rc = main(["gen-synthetic", "--train", "10", "--eval", "5", "--out", "z", *flags])
        assert rc == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert list(run_in_tmpdir.iterdir()) == []


class TestPrepareVocab:
    def test_writes_vocab_and_manifest(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        out = run_in_tmpdir / "vocab.txt"
        rc = main(["prepare-vocab", "--train", str(data / "train.csv"), "--out", str(out)])
        assert rc == EXIT_OK
        assert out.exists()
        assert (run_in_tmpdir / "vocab.txt.manifest.json").exists()
        stdout = capsys.readouterr().out
        assert "vocab_size\t" in stdout and "vocab_hash\t" in stdout

    def test_missing_train_file_is_io_error(self, run_in_tmpdir):
        rc = main(["prepare-vocab", "--train", "nope.csv", "--out", "v.txt"])
        assert rc == EXIT_IO

    @pytest.mark.parametrize("body, message", [
        (b"ctx,resp,1\n" + b"x" * 200_000 + b",resp,0\n", "train.csv: line 3: field larger than field limit"),
        (b"ctx,resp,1\nctx,r\xe9ponse,0\n", "train.csv: not UTF-8 after line 0"),
    ], ids=["oversized-field", "not-utf8"])
    def test_unreadable_csv_is_usage_error(self, run_in_tmpdir, capsys, body, message):
        (run_in_tmpdir / "train.csv").write_bytes(b"Context,Utterance,Label\n" + body)
        rc = main(["prepare-vocab", "--train", "train.csv", "--out", "v.txt"])
        assert rc == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (run_in_tmpdir / "v.txt").exists()

    def test_header_only_csv_is_usage_error_before_any_write(self, run_in_tmpdir, capsys):
        write_train([], run_in_tmpdir / "train.csv")
        rc = main(["prepare-vocab", "--train", "train.csv", "--out", "v.txt"])
        assert rc == EXIT_USAGE
        assert "train.csv: no instances" in capsys.readouterr().err
        assert listing(run_in_tmpdir) == ["train.csv"]


class TestTrain:
    def test_writes_checkpoint_log_vocab_manifest(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data)
        assert rc == EXIT_OK
        assert ckpt.exists()
        assert (run_in_tmpdir / "model.ckpt.log").exists()
        assert (run_in_tmpdir / "model.ckpt.vocab.txt").exists()
        assert (run_in_tmpdir / "model.ckpt.manifest.json").exists()
        stdout = capsys.readouterr().out
        assert "val_accuracy\t" in stdout
        assert "val_recall@1\t" in stdout

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_defaults_are_the_config_defaults(self, run_in_tmpdir, monkeypatch, arch):
        def no_training(model, train_set, config):
            assert asdict(config) == asdict(TrainConfig(validation=config.validation, log_path=config.log_path))
            assert model.config == ModelConfig(arch)
            return model, [EpochReport(epoch=1, train_loss=0.0, val_accuracy=0.5, val_recall1=0.5, seconds=0.0)]

        monkeypatch.setattr(training, "train", no_training)
        data = gen(run_in_tmpdir)
        rc = main(["train", "--arch", arch, "--train", str(data / "train.csv"),
                   "--val", str(data / "validation.csv"), "--out", "model.ckpt"])
        assert rc == EXIT_OK

    def test_bogus_architecture_is_usage_error(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        rc, _ = train_tiny(run_in_tmpdir, data, arch="bogus")
        assert rc == EXIT_USAGE
        assert "dual_lstm" in capsys.readouterr().err  # usage lists valid choices

    def test_pretrained_embeddings_coverage_printed(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        words = set()
        for inst in load_train(data / "train.csv")[:20]:
            words.update(inst.context)
        vectors = run_in_tmpdir / "vectors.txt"
        with open(vectors, "w") as f:
            for w in sorted(words)[:10]:
                f.write(w + " " + " ".join(["0.25"] * 4) + "\n")
        rc, _ = train_tiny(run_in_tmpdir, data, extra=("--embeddings", str(vectors)))
        assert rc == EXIT_OK
        assert "pretrained_coverage\t10" in capsys.readouterr().out


    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_gradient_under_clip_norm_is_numeric_failure(self, run_in_tmpdir, monkeypatch, capsys):
        # An infinite first coordinate in every word's embedding saturates
        # every gate, so the loss stays finite while the input weights'
        # gradient is 0 * inf = NaN.  No input file can set it (vector files
        # reject values a table cannot hold), so the built model gets it.
        build_model = models.build_model

        def build_with_infinite_embeddings(*args, **kwargs):
            model, coverage = build_model(*args, **kwargs)
            model.params["embedding_high"].data[1:, 0] = np.inf
            return model, coverage

        monkeypatch.setattr(models, "build_model", build_with_infinite_embeddings)
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data, extra=("--clip-norm", "1.0"))
        assert rc == EXIT_NUMERIC
        assert "non-finite gradient norm in epoch 1, batch 0" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_vector_beyond_float32_is_usage_error(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        vectors = run_in_tmpdir / "vectors.txt"
        word = sorted(build_vocab(load_train(data / "train.csv")).word_to_id)[-1]
        vectors.write_text(f"{word} 1e39 0.25 0.25 0.25\n")
        rc, ckpt = train_tiny(run_in_tmpdir, data, extra=("--embeddings", str(vectors), "--precision", "float32"))
        assert rc == EXIT_USAGE
        assert f"{vectors}: line 1: vector for {word!r} overflows float32" in capsys.readouterr().err
        # rejected before anything is written
        assert sorted(p.name for p in run_in_tmpdir.iterdir()) == ["data", "vectors.txt"]
        rc, _ = train_tiny(run_in_tmpdir, data, extra=("--embeddings", str(vectors)))  # fits float64
        assert rc == EXIT_OK

    @pytest.mark.parametrize("name, write, message", [
        ("train.csv", lambda path: path.write_text("Context,Utterance,Label\nctx,resp,2\n"),
         "label must be 0 or 1"),
        ("train.csv", lambda path: write_train([], path), "no instances"),
        ("validation.csv", lambda path: write_eval([], path), "no instances"),
    ], ids=["bad-label", "header-only-train", "header-only-val"])
    def test_unusable_csv_is_usage_error_before_any_write(self, run_in_tmpdir, capsys, name, write, message):
        data = gen(run_in_tmpdir)
        write(data / name)
        before = listing(run_in_tmpdir)
        capsys.readouterr()
        rc, _ = train_tiny(run_in_tmpdir, data)
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{data / name}: " in err and message in err
        assert listing(run_in_tmpdir) == before

    @pytest.mark.parametrize("rate", ["nan", "inf", "0"])
    def test_learning_rate_must_be_finite_and_positive(self, run_in_tmpdir, rate, capsys):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data, extra=("--learning-rate", rate))
        assert rc == EXIT_USAGE
        assert f"learning_rate must be finite and > 0, got {float(rate)}" in capsys.readouterr().err
        # rejected before anything is written
        assert sorted(p.name for p in run_in_tmpdir.iterdir()) == ["data"]

    @pytest.mark.parametrize("bound", ["0", "-1", "nan"])
    def test_clip_norm_must_be_positive(self, run_in_tmpdir, bound, capsys):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data, extra=("--clip-norm", bound))
        assert rc == EXIT_USAGE
        assert "clip_norm must be > 0" in capsys.readouterr().err
        # rejected before anything is written
        assert not ckpt.exists() and not (run_in_tmpdir / "model.ckpt.manifest.json").exists()

    @pytest.mark.parametrize("flag,field", [("--epochs", "max_epochs"), ("--patience", "patience")])
    def test_epochs_and_patience_must_be_positive(self, run_in_tmpdir, flag, field, capsys):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data, extra=(flag, "0"))
        assert rc == EXIT_USAGE
        assert f"{field} must be >= 1" in capsys.readouterr().err
        assert not ckpt.exists() and not (run_in_tmpdir / "model.ckpt.manifest.json").exists()
        assert not (run_in_tmpdir / "model.ckpt.vocab.txt").exists()

    @pytest.mark.parametrize("text,problem", [("hello\tabc\n", "count 'abc'"),
                                              ("hello\t3\nhello\t2\n", "duplicate word 'hello'")],
                             ids=["non-integer-count", "duplicate-word"])
    def test_bad_vocab_file_is_usage_error(self, run_in_tmpdir, text, problem, capsys):
        data = gen(run_in_tmpdir)
        vocab = run_in_tmpdir / "bad.vocab.txt"
        vocab.write_text(text, encoding="utf-8")
        capsys.readouterr()
        rc, ckpt = train_tiny(run_in_tmpdir, data, extra=("--vocab", str(vocab)))
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{vocab}: line" in err and problem in err
        assert not ckpt.exists() and not (run_in_tmpdir / "model.ckpt.manifest.json").exists()
        assert not (run_in_tmpdir / "model.ckpt.log").exists()

    @pytest.mark.parametrize("value,problem", [("abc", "'abc'"), ("nan", "non-finite")],
                             ids=["not-a-number", "non-finite"])
    def test_bad_embeddings_file_is_usage_error(self, run_in_tmpdir, value, problem, capsys):
        data = gen(run_in_tmpdir)
        vectors = run_in_tmpdir / "vectors.txt"
        vectors.write_text(f"hello 0.25 0.25 0.25 0.25\nworld 0.25 {value} 0.25 0.25\n")
        capsys.readouterr()
        rc, ckpt = train_tiny(run_in_tmpdir, data, extra=("--embeddings", str(vectors)))
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{vectors}: line 2" in err and problem in err
        assert not ckpt.exists() and not (run_in_tmpdir / "model.ckpt.manifest.json").exists()
        assert not (run_in_tmpdir / "model.ckpt.log").exists()
        assert not (run_in_tmpdir / "model.ckpt.vocab.txt").exists()

    def test_non_numeric_config_value_is_usage_error(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        cfg = run_in_tmpdir / "train.cfg"
        cfg.write_text("learning_rate = fast\n")
        rc, ckpt = train_tiny(run_in_tmpdir, data, extra=("--config", str(cfg)))
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(cfg) in err and "learning_rate" in err
        assert not ckpt.exists() and not (run_in_tmpdir / "model.ckpt.manifest.json").exists()

    def test_config_value_a_config_refuses_names_the_file(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        cfg = run_in_tmpdir / "train.cfg"
        cfg.write_text("k = 17\n")  # above train_tiny's --max-len 16
        rc, ckpt = train_tiny(run_in_tmpdir, data, extra=("--config", str(cfg)))
        assert rc == EXIT_USAGE
        assert f"{cfg} and the command line: k cannot exceed max_len" in capsys.readouterr().err
        assert sorted(p.name for p in run_in_tmpdir.iterdir()) == ["data", "train.cfg"]


def option_names(command):
    """Every ``--flag`` of a command, written as a config key."""
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [opt[2:].replace("-", "_") for action in commands.choices[command]._actions
            for opt in action.option_strings if opt.startswith("--") and opt != "--help"]


# a non-default value for every option of the commands that take --config
CONFIG_VALUES = {
    "gen-synthetic": {"seed": 3, "train": 20, "eval": 4, "val": 2, "out": "o", "topics": 3,
                      "keywords_per_topic": 5, "filler_vocab_size": 12, "context_turns": 3},
    "train": {"arch": "ccn_lstm", "train": "t.csv", "val": "v.csv", "out": "m.ckpt", "seed": 3,
              "vocab": "v.txt", "embeddings": "e.txt", "epochs": 2, "batch_size": 8, "learning_rate": 0.01,
              "hidden_size": 5, "embedding_dim": 6, "max_len": 7, "k": 2, "threshold": 4, "patience": 3,
              "precision": "float32", "ccn_head": "parallel", "clip_norm": 1.5},
}
REQUIRED_FLAGS = {
    "gen-synthetic": {"train": 10, "eval": 2, "out": "x"},
    "train": {"arch": "dual_lstm", "train": "x.csv", "val": "y.csv", "out": "x.ckpt"},
}


class TestConfigFile:
    @pytest.mark.parametrize(
        "command,key", [(c, k) for c in CONFIG_VALUES for k in option_names(c) if k != "config"]
    )
    def test_every_option_is_a_config_key(self, run_in_tmpdir, command, key):
        cfg = run_in_tmpdir / "f.cfg"
        cfg.write_text(f"{key} = {CONFIG_VALUES[command][key]}\n")
        required = REQUIRED_FLAGS[command]
        args = cli.parse_args([command, "--config", str(cfg), *(f"--{k}={v}" for k, v in required.items())])
        # the file sets the key unless the command line gives it too
        assert getattr(args, key) == required.get(key, CONFIG_VALUES[command][key])

    def test_precision_float32_writes_a_float32_checkpoint(self, run_in_tmpdir):
        data = gen(run_in_tmpdir)
        cfg = run_in_tmpdir / "train.cfg"
        cfg.write_text("precision = float32\n")
        rc, ckpt = train_tiny(run_in_tmpdir, data, extra=("--config", str(cfg)))
        assert rc == EXIT_OK
        model = load_trained(ckpt)
        assert model.config.precision == "float32"
        assert {t.data.dtype for _, t in model.params.items()} == {np.dtype(np.float32)}

    def test_clip_norm_and_ccn_head_reach_the_configs(self, run_in_tmpdir, monkeypatch):
        seen = {}

        def no_training(model, train_set, config):
            seen["model"], seen["train"] = model.config, config
            return model, [EpochReport(epoch=1, train_loss=0.0, val_accuracy=0.5, val_recall1=0.5, seconds=0.0)]

        monkeypatch.setattr(training, "train", no_training)
        data = gen(run_in_tmpdir)
        cfg = run_in_tmpdir / "train.cfg"
        cfg.write_text("clip_norm = 1.5\nccn_head = parallel\n")
        rc, _ = train_tiny(run_in_tmpdir, data, arch="ccn_lstm", extra=("--config", str(cfg)))
        assert rc == EXIT_OK
        assert seen["train"].clip_norm == 1.5
        assert seen["model"].ccn_head == "parallel"

    def test_explicit_flag_beats_the_file(self, run_in_tmpdir):
        data = gen(run_in_tmpdir)
        cfg = run_in_tmpdir / "train.cfg"
        cfg.write_text("epochs = 3\nhidden_size = 5\n")
        rc, _ = train_tiny(run_in_tmpdir, data, extra=("--config", str(cfg)))  # gives --epochs 1
        assert rc == EXIT_OK
        manifest = json.loads((run_in_tmpdir / "model.ckpt.manifest.json").read_text())
        assert manifest["configuration"]["epochs"] == 1
        assert manifest["configuration"]["hidden_size"] == 4  # train_tiny's --hidden-size 4

    def test_value_outside_the_choices_is_usage_error(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        cfg = run_in_tmpdir / "train.cfg"
        cfg.write_text("precision = float16\n")
        before = set(run_in_tmpdir.iterdir())
        rc, _ = train_tiny(run_in_tmpdir, data, extra=("--config", str(cfg)))
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(cfg) in err and "precision" in err and "float16" in err
        assert set(run_in_tmpdir.iterdir()) == before

    def test_unknown_key_is_usage_error(self, run_in_tmpdir, capsys):
        cfg = run_in_tmpdir / "syn.cfg"
        cfg.write_text("topics = 3\nbatch_size = 8\n")  # a train flag, not a gen-synthetic one
        rc = main(["gen-synthetic", "--train", "10", "--eval", "2", "--out", "x", "--config", str(cfg)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(cfg) in err and "batch_size" in err
        assert not (run_in_tmpdir / "x").exists()


TINY_TRAIN = "seed = 1\nepochs = 1\nbatch_size = 16\nhidden_size = 4\nembedding_dim = 4\nmax_len = 16\n"


class TestOneParse:
    """A --config file's lines and the explicit flags go through one parse."""

    def test_gen_synthetic_takes_every_required_key_from_the_file(self, run_in_tmpdir):
        cfg = run_in_tmpdir / "syn.cfg"
        cfg.write_text("train = 20\neval = 2\nout = from_file\n")
        assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_OK
        assert len(load_train(run_in_tmpdir / "from_file" / "train.csv")) == 20
        assert len(load_eval(run_in_tmpdir / "from_file" / "validation.csv")) == 2

    def test_train_takes_every_required_key_from_the_file(self, run_in_tmpdir):
        data = gen(run_in_tmpdir)
        cfg = run_in_tmpdir / "train.cfg"
        cfg.write_text(f"arch = ccn_lstm\ntrain = {data / 'train.csv'}\nval = {data / 'validation.csv'}\n"
                       f"out = from_file.ckpt\n{TINY_TRAIN}")
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        assert load_trained(run_in_tmpdir / "from_file.ckpt").config.architecture == "ccn_lstm"

    def test_explicit_flag_beats_a_required_key_of_the_file(self, run_in_tmpdir):
        data = gen(run_in_tmpdir)
        cfg = run_in_tmpdir / "train.cfg"
        cfg.write_text(f"arch = ccn_lstm\ntrain = {data / 'train.csv'}\nval = {data / 'validation.csv'}\n"
                       f"out = from_file.ckpt\n{TINY_TRAIN}")
        assert main(["train", "--config", str(cfg), "--out", "explicit.ckpt", "--arch", "dual_lstm"]) == EXIT_OK
        assert load_trained(run_in_tmpdir / "explicit.ckpt").config.architecture == "dual_lstm"
        assert not (run_in_tmpdir / "from_file.ckpt").exists()

    def test_required_flag_in_neither_is_usage_error(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        cfg = run_in_tmpdir / "train.cfg"
        cfg.write_text(f"train = {data / 'train.csv'}\nval = {data / 'validation.csv'}\nout = m.ckpt\n")
        before = set(run_in_tmpdir.iterdir())
        assert main(["train", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err.rstrip().endswith("the following arguments are required: --arch")
        assert set(run_in_tmpdir.iterdir()) == before

    def test_abbreviated_flag_is_usage_error(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data, extra=("--epoch", "3"))
        assert rc == EXIT_USAGE
        assert "unrecognized arguments: --epoch 3" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_abbreviated_key_is_usage_error(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        cfg = run_in_tmpdir / "train.cfg"
        cfg.write_text("epoch = 3\n")
        rc, ckpt = train_tiny(run_in_tmpdir, data, extra=("--config", str(cfg)))
        assert rc == EXIT_USAGE
        assert f"{cfg}: unknown keys ['epoch']" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_duplicate_key_is_usage_error(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        cfg = run_in_tmpdir / "train.cfg"
        cfg.write_text("patience = 2\npatience = 4\n")
        rc, ckpt = train_tiny(run_in_tmpdir, data, extra=("--config", str(cfg)))
        assert rc == EXIT_USAGE
        assert f"{cfg}: line 2: duplicate key 'patience'" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_config_on_a_command_without_it_is_usage_error(self, run_in_tmpdir, capsys):
        assert main(["gradcheck", "--arch", "dual_lstm", "--config", "missing.cfg"]) == EXIT_USAGE
        assert "unrecognized arguments: --config missing.cfg" in capsys.readouterr().err
        assert list(run_in_tmpdir.iterdir()) == []

    def test_config_key_in_a_file_is_usage_error(self, run_in_tmpdir, capsys):
        other = run_in_tmpdir / "other.cfg"
        other.write_text("train = 20\neval = 2\nout = o\n")
        cfg = run_in_tmpdir / "syn.cfg"
        cfg.write_text(f"config = {other}\n")
        assert main(["gen-synthetic", "--config", str(cfg)]) == EXIT_USAGE
        assert f"{cfg}: a config file cannot name another config file" in capsys.readouterr().err
        assert not (run_in_tmpdir / "o").exists()


def command_lines(tmp_path):
    """One command line per command, and the files the later ones read."""
    data = gen(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("clip_norm = 2.5\n")
    return {
        "gen-synthetic": ["gen-synthetic", "--train", "10", "--eval", "2", "--out", "g", "--topics", "3"],
        "prepare-vocab": ["prepare-vocab", "--train", str(data / "train.csv"), "--out", "v.txt"],
        "train": ["train", "--arch", "dual_lstm", "--train", str(data / "train.csv"),
                  "--val", str(data / "validation.csv"), "--out", "m.ckpt", "--epochs", "1",
                  "--hidden-size", "4", "--embedding-dim", "4", "--max-len", "16", "--config", str(cfg)],
        "evaluate": ["evaluate", "--models", "m.ckpt,m.ckpt", "--vocab", "m.ckpt.vocab.txt",
                     "--eval", str(data / "eval.csv"), "--cwf-scale", "0.5"],
        "gradcheck": ["gradcheck", "--arch", "mfcw_lstm", "--h", "1e-5", "--manifest", "g.json"],
    }


MANIFESTS = {"gen-synthetic": "g/manifest.json", "prepare-vocab": "v.txt.manifest.json",
             "train": "m.ckpt.manifest.json", "evaluate": "run-manifest.json", "gradcheck": "g.json"}


@pytest.mark.parametrize("command", list(MANIFESTS))
def test_manifest_configuration_is_the_parsed_flags(run_in_tmpdir, command):
    lines = command_lines(run_in_tmpdir)
    if command == "evaluate":
        assert main(lines["train"]) == EXIT_OK
    assert main(lines[command]) == EXIT_OK
    manifest = json.loads((run_in_tmpdir / MANIFESTS[command]).read_text())
    parsed = vars(cli.parse_args(lines[command]))
    if command == "gen-synthetic":
        parsed["val"] = parsed["eval"]  # --val defaults to --eval
    assert manifest["command"] == parsed.pop("command") == command
    del parsed["handler"]
    assert manifest["configuration"] == parsed
    assert manifest["seed"] == parsed.get("seed")


def readme_commands():
    """Each ``ccnrank ...`` command in README.md's code blocks, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", readme, flags=re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.strip().startswith("ccnrank ")]


@pytest.mark.parametrize("argv", [
    ["gen-synthetic", "--seed", "-1", "--train", "4", "--eval", "2", "--out", "d"],
    ["train", "--arch", "dual_lstm", "--train", "data/train.csv", "--val", "data/validation.csv", "--out", "m.ckpt",
     "--seed", "-1"],
    ["gradcheck", "--arch", "dual_lstm", "--seed", "-2"],
], ids=["gen-synthetic", "train", "gradcheck"])
def test_negative_seed_is_usage_error_before_any_write(run_in_tmpdir, argv, capsys):
    gen(run_in_tmpdir)  # train's inputs
    before = listing(run_in_tmpdir)
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "argument --seed: must be >= 0" in err and "Traceback" not in err
    assert listing(run_in_tmpdir) == before


class TestReadme:
    def test_readme_shows_every_command(self):
        shown = {shlex.split(c)[1] for c in readme_commands()}
        assert shown == {"gen-synthetic", "prepare-vocab", "train", "evaluate", "gradcheck"}

    @pytest.mark.parametrize("command", readme_commands())
    def test_command_parses(self, command):
        cli.build_parser().parse_args(shlex.split(command, comments=True)[1:])


class TestEvaluate:
    def make_model(self, tmp_path, arch="dual_lstm", out="m.ckpt"):
        data = gen(tmp_path)
        rc, ckpt = train_tiny(tmp_path, data, arch=arch, out=out)
        assert rc == EXIT_OK
        return data, ckpt, tmp_path / "model.ckpt.vocab.txt" if out == "model.ckpt" else (
            tmp_path / f"{out}.vocab.txt"
        )

    def test_single_model_report(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data)
        vocab = run_in_tmpdir / "model.ckpt.vocab.txt"
        capsys.readouterr()
        rc = main(
            ["evaluate", "--models", str(ckpt), "--vocab", str(vocab),
             "--eval", str(data / "eval.csv"), "--cwf-scale", "0"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "recall@1\t" in out and "recall@5\t" in out and "n_instances\t10" in out
        assert (run_in_tmpdir / "run-manifest.json").exists()

    def test_tune_cwf_prints_scale(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data)
        vocab = run_in_tmpdir / "model.ckpt.vocab.txt"
        capsys.readouterr()
        rc = main(
            ["evaluate", "--models", str(ckpt), "--vocab", str(vocab),
             "--eval", str(data / "eval.csv"), "--tune-cwf", str(data / "validation.csv")]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "tuned_scale\t" in out

    def test_ensemble_eval_two_models(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        rc1, ckpt1 = train_tiny(run_in_tmpdir, data, out="a.ckpt")
        vocab = run_in_tmpdir / "a.ckpt.vocab.txt"
        rc2, ckpt2 = train_tiny(
            run_in_tmpdir, data, arch="ccn_lstm", out="b.ckpt", extra=("--vocab", str(vocab))
        )
        assert rc1 == rc2 == EXIT_OK
        capsys.readouterr()
        rc = main(
            ["evaluate", "--models", f"{ckpt1},{ckpt2}", "--vocab", str(vocab),
             "--eval", str(data / "eval.csv")]
        )
        assert rc == EXIT_OK
        assert "recall@1\t" in capsys.readouterr().out

    def test_vocab_hash_mismatch_is_usage_error(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data)
        other = gen(run_in_tmpdir, seed=99, out="other")
        rc, _ = train_tiny(run_in_tmpdir, other, out="other.ckpt")
        capsys.readouterr()
        vocab = run_in_tmpdir / "other.ckpt.vocab.txt"
        rc = main(["evaluate", "--models", str(ckpt), "--vocab", str(vocab), "--eval", str(data / "eval.csv")])
        assert rc == EXIT_USAGE
        assert f"{vocab}: vocabulary hash mismatch" in capsys.readouterr().err

    def test_bad_vocab_file_is_usage_error(self, run_in_tmpdir, capsys):
        data, ckpt, _ = self.make_model(run_in_tmpdir)
        vocab = run_in_tmpdir / "bad.vocab.txt"
        vocab.write_text("hello\t3\nhello\t2\n", encoding="utf-8")
        capsys.readouterr()
        rc = main(["evaluate", "--models", str(ckpt), "--vocab", str(vocab), "--eval", str(data / "eval.csv")])
        assert rc == EXIT_USAGE
        assert f"{vocab}: line 2: duplicate word 'hello'" in capsys.readouterr().err
        assert not (run_in_tmpdir / "run-manifest.json").exists()

    def test_empty_model_list_is_usage_error_before_the_manifest(self, run_in_tmpdir, capsys):
        data, _, vocab = self.make_model(run_in_tmpdir)
        capsys.readouterr()
        rc = main(["evaluate", "--models", ",", "--vocab", str(vocab), "--eval", str(data / "eval.csv")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--models names no checkpoint" in err and "evaluating" not in err
        assert not (run_in_tmpdir / "run-manifest.json").exists()

    def test_nan_weights_are_numeric_failure(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data)
        model = load_trained(ckpt)
        model.params["bilinear"].data[0, 0] = np.nan
        save_checkpoint(model, ckpt)
        capsys.readouterr()
        rc = main(
            ["evaluate", "--models", str(ckpt), "--vocab", str(run_in_tmpdir / "model.ckpt.vocab.txt"),
             "--eval", str(data / "eval.csv")]
        )
        assert rc == EXIT_NUMERIC
        assert "probabilities are not finite" in capsys.readouterr().err

    def test_nan_cross_convolution_embedding_is_numeric_failure(self, run_in_tmpdir, capsys):
        # NaN grid entries win the k-max pooling instead of pooling to zero
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data, arch="ccn_lstm")
        model = load_trained(ckpt)
        model.params["embedding_ccn"].data[1:] = np.nan
        save_checkpoint(model, ckpt)
        capsys.readouterr()
        rc = main(
            ["evaluate", "--models", str(ckpt), "--vocab", str(run_in_tmpdir / "model.ckpt.vocab.txt"),
             "--eval", str(data / "eval.csv")]
        )
        assert rc == EXIT_NUMERIC
        assert "probabilities are not finite" in capsys.readouterr().err

    def test_malformed_checkpoint_header_is_usage_error(self, run_in_tmpdir):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data)
        blob = ckpt.read_bytes()
        # an extra config key, same header length: "seed" becomes "sedd"
        ckpt.write_bytes(blob.replace(b'"seed":', b'"sedd":', 1))
        rc = main(
            ["evaluate", "--models", str(ckpt), "--vocab", str(run_in_tmpdir / "model.ckpt.vocab.txt"),
             "--eval", str(data / "eval.csv")]
        )
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
    def test_cwf_scale_must_be_finite_and_non_negative(self, run_in_tmpdir, scale, capsys):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["evaluate", "--models", str(ckpt), "--vocab", str(run_in_tmpdir / "model.ckpt.vocab.txt"),
                       "--eval", str(data / "eval.csv"), "--cwf-scale", scale])
        assert rc == EXIT_USAGE
        assert f"cwf scale must be finite and >= 0, got {float(scale)}" in capsys.readouterr().err
        assert not (run_in_tmpdir / "run-manifest.json").exists()  # rejected before the manifest

    def test_damaged_checkpoint_is_usage_error(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data)
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0x10  # a payload byte
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        rc = main(["evaluate", "--models", str(ckpt), "--vocab", str(run_in_tmpdir / "model.ckpt.vocab.txt"),
                   "--eval", str(data / "eval.csv")])
        assert rc == EXIT_USAGE
        assert "sha256 mismatch" in capsys.readouterr().err
        assert not (run_in_tmpdir / "run-manifest.json").exists()

    def test_checkpoint_entry_in_another_dtype_is_usage_error(self, run_in_tmpdir, capsys):
        data, ckpt, vocab = self.make_model(run_in_tmpdir)
        retype_entry(ckpt, "encoder.w_rec", "<f4")  # a float64 model with one float32 entry
        before = listing(run_in_tmpdir)
        capsys.readouterr()
        rc = main(["evaluate", "--models", str(ckpt), "--vocab", str(vocab), "--eval", str(data / "eval.csv")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'encoder.w_rec'" in err and "the config implies" in err
        assert listing(run_in_tmpdir) == before

    @pytest.mark.parametrize("flag", ["--eval", "--tune-cwf"])
    def test_header_only_csv_is_usage_error_before_any_write(self, run_in_tmpdir, capsys, flag):
        data, ckpt, vocab = self.make_model(run_in_tmpdir)
        empty = run_in_tmpdir / "empty.csv"
        write_eval([], empty)
        csvs = {"--eval": data / "eval.csv", "--tune-cwf": data / "validation.csv", flag: empty}
        before = listing(run_in_tmpdir)
        capsys.readouterr()
        rc = main(["evaluate", "--models", str(ckpt), "--vocab", str(vocab),
                   *(arg for pair in csvs.items() for arg in map(str, pair))])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{empty}: no instances" in err and "evaluating" not in err
        assert listing(run_in_tmpdir) == before

    def test_cwf_scale_and_tune_cwf_are_exclusive(self, run_in_tmpdir):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data)
        vocab = run_in_tmpdir / "model.ckpt.vocab.txt"
        rc = main(
            ["evaluate", "--models", str(ckpt), "--vocab", str(vocab),
             "--eval", str(data / "eval.csv"), "--cwf-scale", "5",
             "--tune-cwf", str(data / "validation.csv")]
        )
        assert rc == EXIT_USAGE
        rc = main(
            ["evaluate", "--models", str(ckpt), "--vocab", str(vocab),
             "--eval", str(data / "eval.csv"), "--cwf-scale", "0.5"]
        )
        assert rc == EXIT_OK


class TestGradcheck:
    @pytest.mark.parametrize("arch", ["dual_lstm", "mfcw_lstm", "ccn_lstm"])
    def test_passes_for_each_architecture(self, run_in_tmpdir, arch, capsys):
        rc = main(["gradcheck", "--arch", arch, "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK, out
        assert "max_relative_error\t" in out
        assert "passed\t1" in out

    def test_corrupted_gradient_fails_with_exit_4(self, run_in_tmpdir, monkeypatch, capsys):
        failing = GradCheckReport(max_relative_error=0.5, worst_parameter="bilinear", tolerance=1e-4,
                                  passed=False)
        monkeypatch.setattr(cli, "finite_diff_check", lambda *args, **kwargs: failing)
        rc = main(["gradcheck", "--arch", "dual_lstm"])
        assert rc == EXIT_VERIFICATION
        assert "passed\t0" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--h", "0"), ("--h", "-1e-4"), ("--h", "nan"), ("--h", "inf"),
                                             ("--tolerance", "-1"), ("--tolerance", "nan"),
                                             ("--tolerance", "inf")])
    def test_bad_step_or_tolerance_is_usage_error_before_any_write(self, run_in_tmpdir, capsys, flag, value):
        rc = main(["gradcheck", "--arch", "dual_lstm", flag, value])
        assert rc == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert list(run_in_tmpdir.iterdir()) == []

    def test_writes_manifest_first(self, run_in_tmpdir):
        main(["gradcheck", "--arch", "dual_lstm"])
        manifest = json.loads((run_in_tmpdir / "run-manifest.json").read_text())
        assert manifest["command"] == "gradcheck"
