"""Command-line entry points wiring the library into reproducible runs.

Commands: gen-synthetic, prepare-vocab, train, evaluate (one checkpoint or
an ensemble of several, optionally CWF-rescored), gradcheck.

Conventions:
  * every command writes a JSON run manifest (command, resolved
    configuration, input hashes, seed, output paths) before doing work;
  * progress goes to standard error, machine-readable results (tab-separated
    ``name<TAB>value`` lines) to standard output;
  * exit codes: 0 success, 1 IO failure, 2 usage/config error, 3 numerical
    failure, 4 verification failure;
  * all randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import corpus, evaluation, models, training, vocab as vb
from .layers import ConfigurationError, load_word_vectors
from .numerics import ContractError, NonFiniteError, ShapeError, finite_diff_check
from .training import TrainingDiverged

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFICATION = 4

_CONFIG_ERRORS = (
    corpus.ParseError,
    corpus.ConfigError,
    ContractError,
    ShapeError,
    ConfigurationError,
    models.CheckpointError,
)


def _progress(message):
    print(message, file=sys.stderr)


def _emit(name, value):
    print(f"{name}\t{value}")


def _file_hash(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, command, configuration, inputs, outputs, seed):
    """Record everything needed to reproduce the run, before work begins."""
    manifest = {
        "command": command,
        "configuration": configuration,
        "input_hashes": {str(p): _file_hash(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "seed": seed,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def _merge_config_file(args, spec):
    """Fill flag values from --config where the flag was not given explicitly.

    ``spec`` maps config keys to (attribute, type); explicit flags win.
    """
    if not getattr(args, "config", None):
        return
    values = corpus.parse_config_file(args.config)
    unknown = set(values) - set(spec)
    if unknown:
        raise corpus.ConfigError(f"{args.config}: unknown keys {sorted(unknown)}")
    for key, (attr, cast) in spec.items():
        if key in values and getattr(args, attr) is None:
            try:
                setattr(args, attr, cast(values[key]))
            except ValueError:
                raise corpus.ConfigError(f"{args.config}: bad {key} value {values[key]!r}") from None


def _default(args, attr, value):
    if getattr(args, attr) is None:
        setattr(args, attr, value)


# -- gen-synthetic -------------------------------------------------------------


def cmd_gen_synthetic(args):
    _merge_config_file(
        args,
        {
            "topics": ("topics", int),
            "keywords_per_topic": ("keywords_per_topic", int),
            "filler_vocab_size": ("filler_vocab_size", int),
            "context_turns": ("context_turns", int),
            "seed": ("seed", int),
        },
    )
    _default(args, "seed", 0)
    _default(args, "topics", corpus.SyntheticConfig.topics)
    _default(args, "keywords_per_topic", corpus.SyntheticConfig.keywords_per_topic)
    _default(args, "filler_vocab_size", corpus.SyntheticConfig.filler_vocab_size)
    _default(args, "context_turns", corpus.SyntheticConfig.context_turns)
    if args.val is None:
        args.val = args.eval
    config = corpus.SyntheticConfig(
        topics=args.topics,
        keywords_per_topic=args.keywords_per_topic,
        filler_vocab_size=args.filler_vocab_size,
        context_turns=args.context_turns,
    )
    os.makedirs(args.out, exist_ok=True)
    paths = {name: os.path.join(args.out, f"{name}.csv") for name in ("train", "validation", "eval")}
    write_manifest(
        os.path.join(args.out, "manifest.json"),
        "gen-synthetic",
        {
            "n_train": args.train,
            "n_eval": args.eval,
            "n_validation": args.val,
            "topics": args.topics,
            "keywords_per_topic": args.keywords_per_topic,
            "filler_vocab_size": args.filler_vocab_size,
            "context_turns": args.context_turns,
        },
        inputs=[],
        outputs=list(paths.values()),
        seed=args.seed,
    )
    train_set, eval_set, val_set = corpus.generate_splits(args.seed, args.train, args.eval, args.val, config)
    corpus.write_train(train_set, paths["train"])
    corpus.write_eval(val_set, paths["validation"])
    corpus.write_eval(eval_set, paths["eval"])
    _progress(f"wrote {args.train} train, {args.val} validation, {args.eval} eval instances to {args.out}")
    for name, path in paths.items():
        _emit(f"{name}_csv", path)
    return EXIT_OK


# -- prepare-vocab ---------------------------------------------------------------


def cmd_prepare_vocab(args):
    write_manifest(
        args.out + ".manifest.json",
        "prepare-vocab",
        {"train": args.train},
        inputs=[args.train],
        outputs=[args.out],
        seed=None,
    )
    train_set = corpus.load_train(args.train)
    vocabulary = vb.build_vocab(train_set)
    vb.save_vocab(vocabulary, args.out)
    _progress(f"vocabulary of {len(vocabulary.words_by_id)} words written to {args.out}")
    _emit("vocab_size", vocabulary.size)
    _emit("vocab_hash", vocabulary.content_hash())
    return EXIT_OK


# -- train ------------------------------------------------------------------------


def cmd_train(args):
    _merge_config_file(
        args,
        {
            "epochs": ("epochs", int),
            "batch_size": ("batch_size", int),
            "learning_rate": ("learning_rate", float),
            "hidden_size": ("hidden_size", int),
            "embedding_dim": ("embedding_dim", int),
            "max_len": ("max_len", int),
            "k": ("k", int),
            "threshold": ("threshold", int),
            "patience": ("patience", int),
            "seed": ("seed", int),
        },
    )
    for attr, value in (
        ("seed", models.ModelConfig.seed),
        ("epochs", training.TrainConfig.max_epochs),
        ("batch_size", training.TrainConfig.batch_size),
        ("learning_rate", training.TrainConfig.learning_rate),
        ("hidden_size", models.ModelConfig.hidden_size),
        ("embedding_dim", models.ModelConfig.embedding_dim),
        ("max_len", models.ModelConfig.max_len),
        ("k", models.ModelConfig.k),
        ("threshold", models.ModelConfig.frequency_threshold),
        ("patience", training.TrainConfig.patience),
    ):
        _default(args, attr, value)

    inputs = [args.train, args.val]
    if args.vocab:
        inputs.append(args.vocab)
    if args.embeddings:
        inputs.append(args.embeddings)
    log_path = args.out + ".log"
    vocab_out = None if args.vocab else args.out + ".vocab.txt"
    outputs = [args.out, log_path] + ([vocab_out] if vocab_out else [])
    config = models.ModelConfig(
        architecture=args.arch,
        embedding_dim=args.embedding_dim,
        hidden_size=args.hidden_size,
        max_len=args.max_len,
        k=args.k,
        frequency_threshold=args.threshold,
        seed=args.seed,
        precision=args.precision,
        ccn_head=args.ccn_head,
    )
    train_config = training.TrainConfig(
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        max_epochs=args.epochs,
        seed=args.seed,
        patience=args.patience,
        clip_norm=args.clip_norm,
        log_path=log_path,
    )
    # bad --vocab or --embeddings files fail before any write
    vocabulary = vb.load_vocab(args.vocab) if args.vocab else None
    pretrained = load_word_vectors(args.embeddings, dim=args.embedding_dim) if args.embeddings else None
    write_manifest(
        args.out + ".manifest.json",
        "train",
        {
            "model": asdict(config),
            "epochs": args.epochs,
            "batch_size": args.batch_size,
            "learning_rate": args.learning_rate,
            "patience": args.patience,
            "clip_norm": args.clip_norm,
            "train": args.train,
            "validation": args.val,
            "vocab": args.vocab,
            "embeddings": args.embeddings,
        },
        inputs=inputs,
        outputs=outputs,
        seed=args.seed,
    )

    train_set = corpus.load_train(args.train)
    val_set = corpus.load_eval(args.val)
    if vocabulary is None:
        vocabulary = vb.build_vocab(train_set)
        vb.save_vocab(vocabulary, vocab_out)
        _progress(f"built vocabulary ({vocabulary.size} ids) -> {vocab_out}")
    model, coverage = models.build_model(config, vocabulary, pretrained_vectors=pretrained)
    if args.embeddings:
        _progress(f"pretrained vectors cover {coverage}/{len(vocabulary.words_by_id)} words")
        _emit("pretrained_coverage", coverage)

    if os.path.exists(log_path):
        os.remove(log_path)
    train_config.validation = val_set
    _progress(f"training {args.arch} on {len(train_set)} instances ({args.epochs} epochs max)")
    model, reports = training.train(model, train_set, train_config)
    models.save_checkpoint(model, args.out)
    best = max(reports, key=lambda r: r.val_accuracy)
    _progress(f"best epoch {best.epoch}: accuracy {best.val_accuracy:.4f}, recall@1 {best.val_recall1:.4f}")
    _emit("epochs_run", len(reports))
    _emit("best_epoch", best.epoch)
    _emit("val_accuracy", f"{best.val_accuracy:.6f}")
    _emit("val_recall@1", f"{best.val_recall1:.6f}")
    _emit("checkpoint", args.out)
    return EXIT_OK


# -- evaluate ---------------------------------------------------------------------------


def cmd_evaluate(args):
    model_paths = [p for p in args.models.split(",") if p]
    vocabulary = vb.load_vocab(args.vocab)  # a bad file fails before the manifest is written
    inputs = model_paths + [args.vocab, args.eval] + ([args.tune_cwf] if args.tune_cwf else [])
    write_manifest(
        args.manifest,
        "evaluate",
        {
            "models": model_paths,
            "vocab": args.vocab,
            "eval": args.eval,
            "cwf_scale": args.cwf_scale,
            "tune_cwf": args.tune_cwf,
        },
        inputs=inputs,
        outputs=[],
        seed=None,
    )
    loaded = [models.load_checkpoint(p, vocab=vocabulary) for p in model_paths]
    eval_set = corpus.load_eval(args.eval)
    scale = args.cwf_scale if args.cwf_scale is not None else 0.0
    if args.tune_cwf:
        tune_set = corpus.load_eval(args.tune_cwf)
        _progress(f"tuning cwf scale on {len(tune_set)} validation instances")
        scale = evaluation.tune_scale(loaded, tune_set)
        _emit("tuned_scale", f"{scale:g}")
    _progress(f"evaluating {len(loaded)} model(s) on {len(eval_set)} instances (scale {scale:g})")
    report = evaluation.evaluate(loaded, eval_set, scale=scale)
    sys.stdout.write(report.to_tsv())
    return EXIT_OK


# -- gradcheck -------------------------------------------------------------------------


def cmd_gradcheck(args):
    write_manifest(
        args.manifest,
        "gradcheck",
        {"arch": args.arch, "tolerance": args.tolerance, "h": args.step},
        inputs=[],
        outputs=[],
        seed=args.seed,
    )
    train_set, _ = corpus.generate_synthetic(args.seed, 40, 1)
    vocabulary = vb.build_vocab(train_set)
    config = models.ModelConfig(
        architecture=args.arch,
        embedding_dim=8,
        hidden_size=8,
        max_len=12,
        k=min(2, 12),
        seed=args.seed,
    )
    model, _ = models.build_model(config, vocabulary)
    models.randomize_parameters(model, np.random.default_rng(args.seed))
    batch = train_set[:6]
    prepared = models.prepare_pairs(model, [(t.context, t.response) for t in batch])
    labels = np.array([t.label for t in batch], dtype=np.float64)

    def batch_objective():
        return training.batch_loss(models.forward_batch(model, prepared), labels)

    report = finite_diff_check(
        batch_objective,
        model.params,
        h=args.step,
        tolerance=args.tolerance,
        max_coords_per_param=16,
        seed=args.seed,
        corrupt_scale=args.corrupt_gradient,
    )
    _emit("max_relative_error", f"{report.max_relative_error:.3e}")
    _emit("worst_parameter", report.worst_parameter)
    _emit("tolerance", f"{report.tolerance:g}")
    _emit("passed", int(report.passed))
    return EXIT_OK if report.passed else EXIT_VERIFICATION


# -- parser ------------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ccnrank",
        description="Train and evaluate next-response ranking models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synthetic", help="write a deterministic synthetic corpus")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--train", type=int, required=True, help="number of train instances")
    gen.add_argument("--eval", type=int, required=True, help="number of eval instances")
    gen.add_argument("--val", type=int, default=None, help="validation instances (default: --eval)")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--topics", type=int, default=None)
    gen.add_argument("--keywords-per-topic", type=int, default=None, dest="keywords_per_topic")
    gen.add_argument("--filler-vocab-size", type=int, default=None, dest="filler_vocab_size")
    gen.add_argument("--context-turns", type=int, default=None, dest="context_turns")
    gen.add_argument("--config", default=None, help="key=value file merged under explicit flags")
    gen.set_defaults(handler=cmd_gen_synthetic)

    prep = sub.add_parser("prepare-vocab", help="count words of a train CSV into a vocabulary file")
    prep.add_argument("--train", required=True)
    prep.add_argument("--out", required=True)
    prep.set_defaults(handler=cmd_prepare_vocab)

    tr = sub.add_parser("train", help="train one architecture and save the best checkpoint")
    tr.add_argument("--arch", required=True, choices=models.ARCHITECTURES)
    tr.add_argument("--train", required=True)
    tr.add_argument("--val", required=True, help="eval-format validation CSV")
    tr.add_argument("--out", required=True, help="checkpoint path")
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--vocab", default=None, help="existing vocabulary file (default: build from train)")
    tr.add_argument("--embeddings", default=None, help="pretrained word vector file for the high-frequency table")
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    tr.add_argument("--learning-rate", type=float, default=None, dest="learning_rate")
    tr.add_argument("--hidden-size", type=int, default=None, dest="hidden_size")
    tr.add_argument("--embedding-dim", type=int, default=None, dest="embedding_dim")
    tr.add_argument("--max-len", type=int, default=None, dest="max_len")
    tr.add_argument("--k", type=int, default=None)
    tr.add_argument("--threshold", type=int, default=None, help="high/low frequency boundary")
    tr.add_argument("--patience", type=int, default=None)
    tr.add_argument("--precision", default=models.ModelConfig.precision, choices=("float64", "float32"))
    tr.add_argument(
        "--ccn-head", default=models.ModelConfig.ccn_head, choices=models.CCN_HEADS, dest="ccn_head",
        help="ccn_lstm cross-convolution branch: sigmoid (one dense head, raw score) or parallel "
        "(two dense heads, sigmoid(first) + second); the final sigmoid applies in both",
    )
    tr.add_argument("--clip-norm", type=float, default=None, dest="clip_norm")
    tr.add_argument("--config", default=None)
    tr.set_defaults(handler=cmd_train)

    ev = sub.add_parser("evaluate", help="rank an eval CSV with one model or an ensemble")
    ev.add_argument("--models", required=True, help="comma-separated checkpoint paths")
    ev.add_argument("--vocab", required=True)
    ev.add_argument("--eval", required=True)
    cwf = ev.add_mutually_exclusive_group()
    cwf.add_argument("--cwf-scale", type=float, default=None, dest="cwf_scale", help="CWF scale (default 0)")
    cwf.add_argument("--tune-cwf", default=None, dest="tune_cwf", help="validation CSV for scale tuning")
    ev.add_argument("--manifest", default="run-manifest.json")
    ev.set_defaults(handler=cmd_evaluate)

    gc = sub.add_parser("gradcheck", help="verify model gradients against finite differences")
    gc.add_argument("--arch", required=True, choices=models.ARCHITECTURES)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--tolerance", type=float, default=1e-4)
    gc.add_argument("--h", type=float, default=1e-4, dest="step")
    gc.add_argument("--manifest", default="run-manifest.json")
    gc.add_argument(
        "--corrupt-gradient",
        type=float,
        default=1.0,
        dest="corrupt_gradient",
        help=argparse.SUPPRESS,  # checker self-test hook
    )
    gc.set_defaults(handler=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except _CONFIG_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDiverged, NonFiniteError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
