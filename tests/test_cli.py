import json
from dataclasses import asdict

import pytest

import numpy as np

from ccnrank import training
from ccnrank.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from ccnrank.corpus import load_eval, load_train
from ccnrank.models import ARCHITECTURES, ModelConfig, load_checkpoint, save_checkpoint
from ccnrank.training import EpochReport, TrainConfig
from ccnrank.vocab import build_vocab


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

    def test_bad_config_value_is_usage_error(self, run_in_tmpdir):
        cfg = run_in_tmpdir / "syn.cfg"
        cfg.write_text("topics = 0\n")
        rc = main(
            ["gen-synthetic", "--train", "10", "--eval", "2",
             "--out", str(run_in_tmpdir / "x"), "--config", str(cfg)]
        )
        assert rc == EXIT_USAGE

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
            return model, [EpochReport(epoch=1, train_loss=0.0, val_accuracy=0.5, val_recall1=0.5, seconds=0.0)]

        monkeypatch.setattr(training, "train", no_training)
        data = gen(run_in_tmpdir)
        rc = main(["train", "--arch", arch, "--train", str(data / "train.csv"),
                   "--val", str(data / "validation.csv"), "--out", "model.ckpt"])
        assert rc == EXIT_OK
        manifest = json.loads((run_in_tmpdir / "model.ckpt.manifest.json").read_text())
        assert manifest["configuration"]["model"] == asdict(ModelConfig(arch))

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
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_gradient_under_clip_norm_is_numeric_failure(self, run_in_tmpdir, capsys):
        # A first coordinate beyond float32's range is infinite in a float32
        # table.  It saturates every gate, so the loss stays finite while the
        # input weights' gradient is 0 * inf = NaN.
        data = gen(run_in_tmpdir)
        vectors = run_in_tmpdir / "vectors.txt"
        words = build_vocab(load_train(data / "train.csv")).word_to_id
        vectors.write_text("".join(f"{w} 1e39 0.25 0.25 0.25\n" for w in words))
        rc, ckpt = train_tiny(
            run_in_tmpdir, data,
            extra=("--embeddings", str(vectors), "--clip-norm", "1.0", "--precision", "float32"),
        )
        assert rc == EXIT_NUMERIC
        assert "non-finite gradient norm in epoch 1, batch 0" in capsys.readouterr().err
        assert not ckpt.exists()

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

    def test_vocab_hash_mismatch_is_usage_error(self, run_in_tmpdir):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data)
        other = gen(run_in_tmpdir, seed=99, out="other")
        rc, _ = train_tiny(run_in_tmpdir, other, out="other.ckpt")
        rc = main(
            ["evaluate", "--models", str(ckpt), "--vocab",
             str(run_in_tmpdir / "other.ckpt.vocab.txt"), "--eval", str(data / "eval.csv")]
        )
        assert rc == EXIT_USAGE

    def test_bad_vocab_file_is_usage_error(self, run_in_tmpdir, capsys):
        data, ckpt, _ = self.make_model(run_in_tmpdir)
        vocab = run_in_tmpdir / "bad.vocab.txt"
        vocab.write_text("hello\t3\nhello\t2\n", encoding="utf-8")
        capsys.readouterr()
        rc = main(["evaluate", "--models", str(ckpt), "--vocab", str(vocab), "--eval", str(data / "eval.csv")])
        assert rc == EXIT_USAGE
        assert f"{vocab}: line 2: duplicate word 'hello'" in capsys.readouterr().err
        assert not (run_in_tmpdir / "run-manifest.json").exists()

    def test_nan_weights_are_numeric_failure(self, run_in_tmpdir, capsys):
        data = gen(run_in_tmpdir)
        rc, ckpt = train_tiny(run_in_tmpdir, data)
        model = load_checkpoint(ckpt)
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
        model = load_checkpoint(ckpt)
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

    def test_corrupted_gradient_fails_with_exit_4(self, run_in_tmpdir):
        rc = main(["gradcheck", "--arch", "dual_lstm", "--corrupt-gradient", "2.0"])
        assert rc == EXIT_VERIFICATION

    def test_writes_manifest_first(self, run_in_tmpdir):
        main(["gradcheck", "--arch", "dual_lstm"])
        manifest = json.loads((run_in_tmpdir / "run-manifest.json").read_text())
        assert manifest["command"] == "gradcheck"
