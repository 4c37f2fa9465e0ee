"""Command-line entry points wiring the library into reproducible runs.

Commands: gen-synthetic, prepare-vocab, train, evaluate (one checkpoint or
an ensemble of several, optionally CWF-rescored), gradcheck.

Conventions:
  * every command reads and checks its inputs, then writes a JSON run
    manifest (command, every resolved flag, input hashes, seed, output
    paths) before doing work, so a usage error leaves no file behind;
  * progress goes to standard error, machine-readable results (tab-separated
    ``name<TAB>value`` lines) to standard output;
  * exit codes: 0 success, 1 IO failure, 2 usage/config error, 3 numerical
    failure, 4 verification failure;
  * all randomness flows from --seed;
  * each option is declared once, in the parser, with its real default;
    the ``key = value`` lines of a ``--config`` file (gen-synthetic, train)
    go through the same parser, under the explicit flags, so a file can set
    any flag, required ones included; flags and keys are spelled in full.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import corpus, evaluation, models, training, vocab as vb
from .layers import load_word_vectors
from .numerics import ContractError, NonFiniteError, ShapeError, finite_diff_check
from .training import TrainingDiverged

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFICATION = 4

CONFIG_COMMANDS = ("gen-synthetic", "train")  # the commands that take --config

_CONFIG_ERRORS = (
    argparse.ArgumentError,
    corpus.ParseError,
    corpus.ConfigError,
    ContractError,
    ShapeError,
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


def write_manifest(path, args, inputs, outputs):
    """Record everything needed to reproduce the run, before work begins: the
    configuration is every resolved flag of the parsed command line."""
    manifest = {
        "command": args.command,
        "configuration": {k: v for k, v in vars(args).items() if k not in ("command", "handler")},
        "input_hashes": {str(p): _file_hash(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "seed": getattr(args, "seed", None),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


@contextlib.contextmanager
def _settings(args):
    """Build configs from the flags; a value refused names the ``--config`` file, which may have set it."""
    try:
        yield
    except (corpus.ConfigError, ContractError) as err:
        raise type(err)(f"{args.config} and the command line: {err}" if args.config else str(err)) from None


def _instances(load, path):
    """The instances ``load`` reads from a CSV; a file with none is a usage error."""
    instances = load(path)
    if not instances:
        raise corpus.ConfigError(f"{path}: no instances")
    return instances


# -- gen-synthetic -------------------------------------------------------------


def cmd_gen_synthetic(args):
    if args.val is None:
        args.val = args.eval
    with _settings(args):
        for flag, count, least in (("--train", args.train, 1), ("--eval", args.eval, 1), ("--val", args.val, 0)):
            if count < least:  # before anything is written
                raise corpus.ConfigError(f"{flag} must be >= {least}, got {count}")
        config = corpus.SyntheticConfig(
            topics=args.topics,
            keywords_per_topic=args.keywords_per_topic,
            filler_vocab_size=args.filler_vocab_size,
            context_turns=args.context_turns,
        )
    os.makedirs(args.out, exist_ok=True)
    paths = {name: os.path.join(args.out, f"{name}.csv") for name in ("train", "validation", "eval")}
    write_manifest(os.path.join(args.out, "manifest.json"), args, inputs=[], outputs=list(paths.values()))
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
    train_set = _instances(corpus.load_train, args.train)
    write_manifest(args.out + ".manifest.json", args, inputs=[args.train], outputs=[args.out])
    vocabulary = vb.build_vocab(train_set)
    vb.save_vocab(vocabulary, args.out)
    _progress(f"vocabulary of {len(vocabulary.words_by_id)} words written to {args.out}")
    _emit("vocab_size", vocabulary.size)
    _emit("vocab_hash", vocabulary.content_hash())
    return EXIT_OK


# -- train ------------------------------------------------------------------------


def cmd_train(args):
    inputs = [args.train, args.val]
    if args.vocab:
        inputs.append(args.vocab)
    if args.embeddings:
        inputs.append(args.embeddings)
    log_path = args.out + ".log"
    vocab_out = None if args.vocab else args.out + ".vocab.txt"
    outputs = [args.out, log_path] + ([vocab_out] if vocab_out else [])
    with _settings(args):
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
    # every input is read and checked before the first write
    vocabulary = vb.load_vocab(args.vocab) if args.vocab else None
    pretrained = (load_word_vectors(args.embeddings, dim=args.embedding_dim, dtype=args.precision)
                  if args.embeddings else None)
    train_set = _instances(corpus.load_train, args.train)
    train_config.validation = _instances(corpus.load_eval, args.val)
    write_manifest(args.out + ".manifest.json", args, inputs, outputs)

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
    if not model_paths:
        raise corpus.ConfigError(f"--models names no checkpoint: {args.models!r}")
    if args.cwf_scale is not None:
        evaluation.check_scale(args.cwf_scale)
    vocabulary = vb.load_vocab(args.vocab)
    try:  # a checkpoint trained with another vocabulary
        loaded = [models.load_checkpoint(p, vocab=vocabulary) for p in model_paths]
    except ContractError as err:
        raise ContractError(f"{args.vocab}: {err}") from None
    eval_set = _instances(corpus.load_eval, args.eval)
    tune_set = _instances(corpus.load_eval, args.tune_cwf) if args.tune_cwf else None
    inputs = model_paths + [args.vocab, args.eval] + ([args.tune_cwf] if args.tune_cwf else [])
    write_manifest(args.manifest, args, inputs, outputs=[])
    scale = args.cwf_scale if args.cwf_scale is not None else 0.0
    if tune_set:
        _progress(f"tuning cwf scale on {len(tune_set)} validation instances")
        scale = evaluation.tune_scale(loaded, tune_set)
        _emit("tuned_scale", f"{scale:g}")
    _progress(f"evaluating {len(loaded)} model(s) on {len(eval_set)} instances (scale {scale:g})")
    report = evaluation.evaluate(loaded, eval_set, scale=scale)
    sys.stdout.write(report.to_tsv())
    return EXIT_OK


# -- gradcheck -------------------------------------------------------------------------


def cmd_gradcheck(args):
    if not 0 < args.step < math.inf:  # before anything is written
        raise corpus.ConfigError(f"--h must be a finite number > 0, got {args.step}")
    if not 0 <= args.tolerance < math.inf:
        raise corpus.ConfigError(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    write_manifest(args.manifest, args, inputs=[], outputs=[])
    train_set, _, _ = corpus.generate_splits(args.seed, 40, 1, 0)
    vocabulary = vb.build_vocab(train_set)
    config = models.ModelConfig(
        architecture=args.arch,
        embedding_dim=8,
        hidden_size=8,
        max_len=12,
        k=2,
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
    )
    _emit("max_relative_error", f"{report.max_relative_error:.3e}")
    _emit("worst_parameter", report.worst_parameter)
    _emit("tolerance", f"{report.tolerance:g}")
    _emit("passed", int(report.passed))
    return EXIT_OK if report.passed else EXIT_VERIFICATION


# -- parser ------------------------------------------------------------------------------


def seed(text):
    """A ``--seed`` value: an integer >= 0, as numpy's generators take."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser():
    """The ccnrank parser; each flag's default is its real default, read from
    the config dataclass field that the flag sets."""
    parser = argparse.ArgumentParser(
        prog="ccnrank",
        description="Train and evaluate next-response ranking models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    synthetic, model_config, train_config = corpus.SyntheticConfig, models.ModelConfig, training.TrainConfig
    config_help = ("file of 'key = value' lines; a key is any flag of the command, with underscores; "
                   "explicit flags win")

    gen = sub.add_parser("gen-synthetic", help="write a deterministic synthetic corpus")
    gen.add_argument("--seed", type=seed, default=0)
    gen.add_argument("--train", type=int, required=True, help="number of train instances")
    gen.add_argument("--eval", type=int, required=True, help="number of eval instances")
    gen.add_argument("--val", type=int, help="validation instances (default: --eval)")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--topics", type=int, default=synthetic.topics)
    gen.add_argument("--keywords-per-topic", type=int, default=synthetic.keywords_per_topic)
    gen.add_argument("--filler-vocab-size", type=int, default=synthetic.filler_vocab_size)
    gen.add_argument("--context-turns", type=int, default=synthetic.context_turns)
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
    tr.add_argument("--seed", type=seed, default=model_config.seed)
    tr.add_argument("--vocab", help="existing vocabulary file (default: build from train)")
    tr.add_argument("--embeddings", help="pretrained word vector file for the high-frequency table")
    tr.add_argument("--epochs", type=int, default=train_config.max_epochs)
    tr.add_argument("--batch-size", type=int, default=train_config.batch_size)
    tr.add_argument("--learning-rate", type=float, default=train_config.learning_rate)
    tr.add_argument("--hidden-size", type=int, default=model_config.hidden_size)
    tr.add_argument("--embedding-dim", type=int, default=model_config.embedding_dim)
    tr.add_argument("--max-len", type=int, default=model_config.max_len)
    tr.add_argument(
        "--k", type=int, default=model_config.k,
        help="values k-max pooled per response word; only ccn_lstm's cross-convolution branch uses it "
        "(dual_lstm and mfcw_lstm ignore it)",
    )
    tr.add_argument(
        "--threshold", type=int, default=model_config.frequency_threshold, help="high/low frequency boundary"
    )
    tr.add_argument("--patience", type=int, default=train_config.patience)
    tr.add_argument("--precision", default=model_config.precision, choices=models.PRECISIONS)
    tr.add_argument(
        "--ccn-head", default=model_config.ccn_head, choices=models.CCN_HEADS,
        help="ccn_lstm cross-convolution branch: sigmoid (one dense head, raw score) or parallel "
        "(two dense heads, sigmoid(first) + second); the final sigmoid applies in both",
    )
    tr.add_argument("--clip-norm", type=float, help="global gradient-norm bound (default: no clipping)")
    tr.set_defaults(handler=cmd_train)

    ev = sub.add_parser("evaluate", help="rank an eval CSV with one model or an ensemble")
    ev.add_argument("--models", required=True, help="comma-separated checkpoint paths")
    ev.add_argument("--vocab", required=True)
    ev.add_argument("--eval", required=True)
    cwf = ev.add_mutually_exclusive_group()
    cwf.add_argument("--cwf-scale", type=float, help="CWF scale (default 0)")
    cwf.add_argument("--tune-cwf", help="validation CSV for scale tuning")
    ev.add_argument("--manifest", default="run-manifest.json")
    ev.set_defaults(handler=cmd_evaluate)

    gc = sub.add_parser("gradcheck", help="verify model gradients against finite differences")
    gc.add_argument("--arch", required=True, choices=models.ARCHITECTURES)
    gc.add_argument("--seed", type=seed, default=0)
    gc.add_argument("--tolerance", type=float, default=1e-4)
    gc.add_argument("--h", type=float, default=1e-4, dest="step")
    gc.add_argument("--manifest", default="run-manifest.json")
    gc.set_defaults(handler=cmd_gradcheck)
    for command in CONFIG_COMMANDS:
        sub.choices[command].add_argument("--config", help=config_help)
    for command_parser in (parser, *sub.choices.values()):
        command_parser.allow_abbrev = False  # a flag or config key names its option in full
        command_parser.exit_on_error = False  # a bad value raises ArgumentError, which main maps to exit 2
    return parser


def parse_args(argv):
    """Parse a command line once; a --config file's lines go through the same parser.

    Each ``key = value`` line becomes ``--key-with-dashes=value`` in front of
    the explicit arguments (``argv[0]`` is the command), so explicit flags
    win, every value passes its flag's own type and choices, and a required
    flag may come from the file.
    """
    parser = build_parser()
    scan = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    scan.add_argument("--config")  # finds the file, nothing else
    path = scan.parse_known_args(argv[1:])[0].config if argv and argv[0] in CONFIG_COMMANDS else None
    values = corpus.parse_config_file(path) if path else {}
    if "config" in values:
        raise corpus.ConfigError(f"{path}: a config file cannot name another config file")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]

    def sets(arguments, flag):
        return any(a == flag or a.startswith(flag + "=") for a in arguments)

    try:
        args, extras = parser.parse_known_args([*argv[:1], *flags, *argv[1:]])
    except argparse.ArgumentError as err:
        flag = err.argument_name or ""
        if sets(flags, flag) and not sets(argv[1:], flag):  # a bad value only the file sets
            raise corpus.ConfigError(f"{path}: bad {flag[2:].replace('-', '_')} value: {err.message}") from None
        raise
    unknown = [key for key, flag in zip(values, flags) if flag in extras]
    if unknown:
        raise corpus.ConfigError(f"{path}: unknown keys {unknown}")
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.handler(args)
    except SystemExit as exc:  # argparse: --help, or a missing or unrecognized argument
        return EXIT_USAGE if exc.code else EXIT_OK
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
