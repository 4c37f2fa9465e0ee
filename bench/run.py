"""End-to-end benchmark of ccnrank: train the three rankers, then rank with them as one ensemble.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload train_short --seed 1 --seconds 25 --trace 0

Every workload repeats the same round until ``--seconds`` have passed (and
at least MIN_ROUNDS times).  A round sets up (reads the inputs, builds the
vocabulary and the models) and trains ``dual_lstm``, ``mfcw_lstm`` and
``ccn_lstm`` from the seed for one epoch each, validating after the epoch;
saves the three checkpoints and loads them back; tunes the CWF scale on the
validation split; and runs ``evaluate`` on the eval split.  Between these
steps an ensemble trained briefly before the rounds serves single-context
requests one at a time (closed loop, one client).  The workloads differ only
in their inputs (see WORKLOADS and README.md).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the functions of ``ccnrank`` are wrapped in spans (see tracing.py) and the
per-layer metrics are printed instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every run checks the program's outputs against the benchmark's own
computations (see reference.py).  Inputs, checkpoints, the result record
and the spans go to ``.bench_out/<workload>/``.
"""

import os

# BLAS threading must be fixed before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np
    import ccnrank
    from ccnrank import corpus, evaluation, layers, models, numerics, training, vocab
except ImportError as err:  # run outside a checkout of the program
    print(f"error: cannot import ccnrank from {ROOT / 'src'}: {err}", file=sys.stderr)
    sys.exit(2)
if (ROOT / "src") not in Path(ccnrank.__file__).resolve().parents:
    print(f"error: ccnrank was imported from {ccnrank.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

ARCHS = ("dual_lstm", "mfcw_lstm", "ccn_lstm")
MIN_ROUNDS = 3  # a run goes on until --seconds have passed and at least this many rounds ran
EPOCHS = 1  # per member per round
TAIL_PERCENTILE = 90  # every run serves >= 3 x 50 requests, so >= 15 lie beyond it
# Held-out recall@1 each trained member must reach; random ranking gives 0.1.
# One epoch does not train dual_lstm reliably (0.165 on train_short seed 9),
# so it has no floor; the gradient, numpy reference and CWF checks still
# cover it.
RECALL_FLOOR = {"mfcw_lstm": 0.5, "ccn_lstm": 0.5}
REFERENCE_INSTANCES = 2  # eval instances (x10 pairs) re-scored by the numpy reference
ENSEMBLE_SAMPLE = 10  # eval instances scored again through the ensemble path
DEPLOY_PAIRS, DEPLOY_VAL = 128, 10  # brief training of the serving ensemble
SERVED_INSTANCES = 25  # requests cycle through the first eval instances
N_REQUESTS = 50  # single-context requests served per round, in five bursts
PROB_TOL = 1e-9  # float64: program vs numpy reference probabilities
GRAD_TOL = 1e-4  # worst relative error of the central-difference check
REQUEST_TOL = 1e-15  # a few float64 ulps at probability ~0.5: single request vs batch path


@dataclass(frozen=True)
class Workload:
    context_turns: int
    max_len: int
    n_train: int  # labelled pairs
    n_val: int  # eval-format instances validated after every epoch
    n_tune: int  # the leading validation instances the CWF scale is tuned on
    n_eval: int  # instances ranked by `evaluate`
    learning_rate: float


WORKLOADS = {
    # The acceptance settings (4000 pairs, ~18-token contexts, max_len 40,
    # dim 32, hidden 32, batch 64): per-op Python and tape overhead dominate
    # training.
    "train_short": Workload(
        context_turns=2, max_len=40, n_train=4000, n_val=200, n_tune=100, n_eval=200,
        learning_rate=1e-3,
    ),
    # ~70-token contexts at the paper's max_len 160: the recurrence and its
    # backward pass dominate training, and ranking (tuning, `evaluate`,
    # serving) takes about a third of the round.  The larger step lets one
    # epoch of 800 pairs train mfcw_lstm and ccn_lstm well.
    "rank_ensemble": Workload(
        context_turns=8, max_len=160, n_train=800, n_val=100, n_tune=50, n_eval=100,
        learning_rate=3e-2,
    ),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment -----------------------------------------------------------------


def environment():
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 prints its configuration only
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- inputs ------------------------------------------------------------------------


def write_inputs(w, seed, out):
    """Generate the workload's splits from the seed and write them as CSV files."""
    train, evals, val = corpus.generate_splits(
        seed, w.n_train, w.n_eval, w.n_val, corpus.SyntheticConfig(context_turns=w.context_turns)
    )
    paths = {"train": out / "train.csv", "val": out / "validation.csv", "eval": out / "eval.csv"}
    corpus.write_train(train, paths["train"])
    corpus.write_eval(val, paths["val"])
    corpus.write_eval(evals, paths["eval"])

    def lengths(seqs):
        n = [len(s) for s in seqs]
        return {"mean": round(statistics.fmean(n), 1), "min": min(n), "max": max(n)}

    make_up = {
        "pairs": len(train),
        "val_instances": len(val),
        "eval_instances": len(evals),
        "context_tokens": lengths([i.context for i in train]),
        "response_tokens": lengths([i.response for i in train]),
        "candidate_tokens": lengths([c for i in evals for c in i.candidates]),
    }
    return paths, make_up


@dataclass
class Prepared:
    train: list
    val: list
    evals: list
    vocab: object
    models: list


def model_config(w, arch, seed):
    return models.ModelConfig(architecture=arch, embedding_dim=32, hidden_size=32, max_len=w.max_len, seed=seed)


def set_up(w, paths, seed):
    """What a run pays before its first step: read inputs, build vocabulary and models."""
    train = corpus.load_train(paths["train"])
    val = corpus.load_eval(paths["val"])
    evals = corpus.load_eval(paths["eval"])
    voc = vocab.build_vocab(train)
    built = [models.build_model(model_config(w, arch, seed), voc)[0] for arch in ARCHS]
    return Prepared(train, val, evals, voc, built)


# -- one round ---------------------------------------------------------------------


@dataclass
class RoundResult:
    setup_s: list  # one per set-up
    epoch_s: dict  # arch -> wall of train / epochs
    rank_instances_per_s: float
    latencies_ms: list
    data: Prepared  # inputs and vocabulary of the round's first set-up
    models: list  # loaded members
    scale: float
    report: object
    served: list  # (eval index, probabilities, rank) per request


@dataclass
class Serving:
    """The ensemble that answers the run's requests."""

    models: list
    scale: float
    instances: list  # requests cycle through these eval instances


def deploy(w, data, seed, out):
    """Train the members briefly, save and load them back and tune their CWF
    scale, before the measured rounds.  This ensemble serves the requests of
    every round, so request bursts can go between the round's training steps
    while the round trains its own members."""
    validation = data.val[:DEPLOY_VAL]
    members = []
    for model in data.models:
        config = training.TrainConfig(batch_size=64, learning_rate=w.learning_rate, max_epochs=1,
                                      seed=seed, validation=validation, epsilon=1e-8)
        training.train(model, data.train[:DEPLOY_PAIRS], config)
        path = out / f"serving-{model.config.architecture}.ckpt"
        models.save_checkpoint(model, path)
        members.append(models.load_checkpoint(path, data.vocab))
    scale = evaluation.tune_scale(members, validation)
    return Serving(members, scale, data.evals[:SERVED_INSTANCES])


def run_round(w, paths, seed, out, serving, tracer, done):
    """One round; ``done[0]`` counts the operations finished so far.

    Set-up runs once before each member's training and provides that
    member's model, and requests are served in five bursts (after each
    member's training, after tuning and after ``evaluate``), so that the
    samples of both spread over the round.
    """
    def phase(name):
        if tracer is not None:
            tracer.phase = name

    latencies, served = [], []
    burst = N_REQUESTS // 5

    def serve():
        phase("rank")
        for _ in range(burst):
            index = len(served) % len(serving.instances)
            started = time.perf_counter()
            scored = evaluation.score_instances(serving.models, [serving.instances[index]])[0]
            rank = evaluation.rank_candidates(evaluation.cwf_rescore(scored, serving.scale))
            latencies.append((time.perf_counter() - started) * 1e3)
            served.append((index, scored.probabilities, rank))
            done[0] += 1

    setup_s, epoch_s, trained = [], {}, []
    for index, arch in enumerate(ARCHS):
        phase("setup")
        started = time.perf_counter()
        prepared = set_up(w, paths, seed)
        setup_s.append(time.perf_counter() - started)
        if index == 0:
            data = prepared
        model = prepared.models[index]
        phase("train")
        config = training.TrainConfig(
            batch_size=64, learning_rate=w.learning_rate, max_epochs=EPOCHS, seed=seed,
            patience=EPOCHS, validation=data.val, epsilon=1e-8,
        )
        started = time.perf_counter()
        _, reports = training.train(model, data.train, config)
        epoch_s[arch] = (time.perf_counter() - started) / len(reports)
        trained.append(model)
        done[0] += EPOCHS
        serve()

    phase("rank")
    loaded = []
    for model in trained:
        path = out / f"{model.config.architecture}.ckpt"
        models.save_checkpoint(model, path)
        loaded.append(models.load_checkpoint(path, data.vocab))
    tuning = data.val[: w.n_tune]
    started = time.perf_counter()
    scale = evaluation.tune_scale(loaded, tuning)
    tune_s = time.perf_counter() - started
    done[0] += len(tuning)
    serve()
    started = time.perf_counter()
    report = evaluation.evaluate(loaded, data.evals, scale=scale)
    evaluate_s = time.perf_counter() - started
    done[0] += len(data.evals)
    serve()
    if tracer is not None:
        tracer.count("rank.instances", len(tuning) + len(data.evals) + len(served))
    phase(None)
    rate = (len(tuning) + len(data.evals)) / (tune_s + evaluate_s)
    return RoundResult(setup_s, epoch_s, rate, latencies, data, loaded, scale, report, served)


# -- correctness checks ------------------------------------------------------------


class Checks:
    def __init__(self):
        self.results = []  # (name, passed, detail)

    def add(self, name, passed, detail=""):
        self.results.append((name, bool(passed), detail))
        if not passed:
            print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.results)


def check_gradients(w, data, seed, checks):
    """Central differences through forward_batch at the workload's sequence lengths."""
    positive = next(i for i in data.train if i.label == 1)
    negative = next(i for i in data.train if i.label == 0)
    pairs = [(positive.context, positive.response), (negative.context, negative.response)]
    labels = np.array([1.0, 0.0])

    def loss_of(model, prepared, y):
        return training.batch_loss(models.forward_batch(model, prepared), y)

    for arch in ARCHS:
        model, _ = models.build_model(model_config(w, arch, seed), data.vocab)
        prepared = models.prepare_pairs(model, pairs)
        errors = reference.gradient_errors(
            model, prepared, labels, np.random.default_rng(seed), loss_of, numerics.backward,
            numerics.no_grad,
        )
        name, worst = max(errors.items(), key=lambda kv: kv[1])
        checks.add(f"gradient.{arch}", worst <= GRAD_TOL, f"worst relative error {worst:.2e} ({name})")


def check_round(w, result, checks):
    """Compare the round's outputs with the benchmark's own computations."""
    data, members, scale, evals = result.data, result.models, result.scale, result.data.evals
    pairs = [(inst.context, cand) for inst in evals for cand in inst.candidates]
    member_probs = [m.score_pairs(pairs).reshape(len(evals), -1) for m in members]
    cwf = np.array([[reference.cwf(inst.context, c, data.vocab.counts) for c in inst.candidates]
                    for inst in evals])

    def recall1(scores):
        return float(np.mean([reference.oracle_rank(row) == 1 for row in scores]))

    for m, probs in zip(members, member_probs):
        arch = m.config.architecture
        if arch in RECALL_FLOOR:
            r1 = recall1(probs)
            checks.add(f"recall_floor.{arch}", r1 >= RECALL_FLOOR[arch],
                       f"held-out recall@1 {r1:.3f}, floor {RECALL_FLOOR[arch]}")

        params = {name: t.data for name, t in m.params.items()}
        config = vars(m.config)
        highs = reference.high_ids(data.vocab, m.config.frequency_threshold)
        worst = 0.0
        for i, inst in enumerate(evals[:REFERENCE_INSTANCES]):
            for j, cand in enumerate(inst.candidates):
                ref = reference.probability(arch, params, config, data.vocab, highs, inst.context, cand)
                worst = max(worst, abs(ref - probs[i, j]))
        checks.add(f"numpy_reference.{arch}", worst <= PROB_TOL, f"max |difference| {worst:.2e}")

    # the ensemble path on a sample; the member batch path on the whole split
    sample = evaluation.score_instances(members, evals[:ENSEMBLE_SAMPLE])
    ensemble = np.mean(np.stack(member_probs), axis=0)
    sample_probs = np.array([s.probabilities for s in sample])
    sample_cwf = np.array([s.cwf for s in sample])
    n = len(sample)
    checks.add("ensemble_is_member_mean", np.allclose(sample_probs, ensemble[:n], rtol=0, atol=1e-12),
               f"max |difference| {np.abs(sample_probs - ensemble[:n]).max():.2e}")
    checks.add("cwf_matches_reference", np.allclose(sample_cwf, cwf[:n], rtol=0, atol=1e-12),
               f"max |difference| {np.abs(sample_cwf - cwf[:n]).max():.2e}")
    program = evaluation.ranks_at_scale(sample, scale)
    oracle_sample = [reference.oracle_rank(row) for row in sample_probs + scale * sample_cwf]
    checks.add("ranks_match_oracle", list(program) == oracle_sample,
               f"{sum(a != b for a, b in zip(program, oracle_sample))} of {n} differ")

    adjusted = ensemble + scale * cwf
    oracle = [reference.oracle_rank(row) for row in adjusted]
    recall_ok = all(abs(result.report.recall_at[k] - np.mean([r <= k for r in oracle])) < 1e-12
                    for k in result.report.recall_at)
    checks.add("evaluate_matches_oracle", recall_ok and result.report.n_instances == len(evals),
               f"evaluate {result.report.recall_at}")

    # CWF: the ensemble's tuned scale must not lower held-out recall@1.  An
    # ensemble that already ranks every validation instance right keeps the
    # scale at 0 (ties go to the smaller scale), so the positive scale is
    # required of the high-band dual encoder, which cannot see rare keywords.
    r0, rs = recall1(ensemble), recall1(adjusted)
    checks.add("cwf_ensemble", scale >= 0 and rs >= r0,
               f"scale {scale:g}, held-out recall@1 {r0:.3f} -> {rs:.3f}")
    dual = ARCHS.index("dual_lstm")
    dual_scale = evaluation.tune_scale([members[dual]], data.val[: w.n_tune])
    d0, ds = recall1(member_probs[dual]), recall1(member_probs[dual] + dual_scale * cwf)
    checks.add("cwf_dual_lstm", dual_scale > 0 and ds >= d0,
               f"scale {dual_scale:g}, held-out recall@1 {d0:.3f} -> {ds:.3f}")


def check_serving(serving, served, vocab, checks):
    """Each request scores as the batch path scores its instance and ranks as the oracle does."""
    instances = serving.instances
    pairs = [(inst.context, cand) for inst in instances for cand in inst.candidates]
    batch = np.mean([m.score_pairs(pairs) for m in serving.models], axis=0).reshape(len(instances), -1)
    cwf = np.array([[reference.cwf(inst.context, c, vocab.counts) for c in inst.candidates]
                    for inst in instances])
    # A request is scored in a batch of 10 pairs, the batch path in batches of
    # 256; BLAS may round the two differently in the last bit (see CHANGES.md).
    inexact = [i for i, probs, _ in served if not np.array_equal(probs, batch[i])]
    worst = max(np.abs(probs - batch[i]).max() for i, probs, _ in served)
    wrong_rank = [i for i, probs, rank in served
                  if rank != reference.oracle_rank(probs + serving.scale * cwf[i])]
    checks.add("request_equals_batch", worst <= REQUEST_TOL and not wrong_rank,
               f"{len(inexact)} of {len(served)} requests not bit-equal to the batch path "
               f"(max |difference| {worst:.2e}), {len(wrong_rank)} ranked unlike the oracle")


# -- tracing -----------------------------------------------------------------------


def instrument(tracer):
    """Wrap ccnrank's public functions under the names their callers use."""
    def arch_of(args):
        return args[0].config.architecture

    def lstm_counts(t, args):
        x, lengths = args[0], args[1]
        if t.in_training_batch:
            t.count("layers.lstm_steps", int(np.max(lengths)))
        if t.phase == "rank":
            t.count("layers.lstm_rows", x.shape[0] if x.ndim == 3 else 1)

    tracer.wrap(corpus, "load_train", "corpus.load")
    tracer.wrap(corpus, "load_eval", "corpus.load")
    tracer.wrap(vocab, "build_vocab", "vocab.build_vocab")
    tracer.wrap(models, "build_model", "models.build_model")
    tracer.wrap(models, "save_checkpoint", "models.save_checkpoint", arch_of)
    tracer.wrap(models, "load_checkpoint", "models.load_checkpoint")
    tracer.wrap(training, "train", "training.train", arch_of)
    tracer.wrap(training, "prepare_pairs", "models.prepare_pairs", arch_of)
    tracer.wrap(training, "forward_batch", "training.forward_batch", arch_of, counts_ops=True)
    tracer.wrap(training, "batch_loss", "training.batch_loss", counts_ops=True)
    tracer.wrap(training, "backward", "numerics.backward",
                before=lambda t, args: t.count("training.batches"))
    tracer.wrap(numerics.RmsProp, "step", "numerics.rmsprop_step")
    tracer.wrap(training, "validation_metrics", "training.validation_metrics", arch_of)
    tracer.wrap(models.RankingModel, "score_pairs", "models.score_pairs", arch_of)
    tracer.wrap(models, "prepare_pairs", "models.prepare_pairs", arch_of)
    tracer.wrap(models, "forward_batch", "models.forward_batch", arch_of)
    for name in ("embed_lookup", "bilinear_score", "dense_score", "cross_convolution"):
        tracer.wrap(models, name, f"layers.{name}")
    tracer.wrap(models, "lstm_encode", "layers.lstm_encode", before=lstm_counts)
    tracer.wrap(layers, "kmax_pool", "layers.kmax_pool")
    tracer.wrap(evaluation, "tune_scale", "evaluation.tune_scale")
    tracer.wrap(evaluation, "evaluate", "evaluation.evaluate")
    tracer.wrap(evaluation, "score_instances", "evaluation.score_instances")
    tracer.wrap(evaluation, "cwf_score", "vocab.cwf_score")
    tracer.wrap_counter(vocab, "encode", "vocab.encode")
    for op in ("add", "sub", "mul", "scale", "sigmoid", "tanh", "matmul", "transpose_last",
               "reshape", "narrow", "tsum", "mean", "custom_op"):
        tracer.wrap_counter(numerics, op, "numerics.ops", only_in_training_batch=True)


# Per-layer metrics: self time per set-up (set-up layers) plus per round.
# ``models.forward_batch`` is the validation and ranking forward; the
# training-batch forward is ``training.forward_batch``, whose time is given
# children included (``training.forward_total_s``) to set beside the backward.
LAYER_SECONDS = {
    "corpus.load": (), "vocab.build_vocab": (), "models.load_checkpoint": (),
    "models.prepare_pairs": ARCHS, "models.forward_batch": ARCHS, "layers.embed_lookup": (),
    "layers.lstm_encode": ARCHS, "layers.bilinear_score": (), "layers.dense_score": (),
    "layers.cross_convolution": (), "layers.kmax_pool": (), "numerics.backward": ARCHS,
    "numerics.rmsprop_step": (), "training.validation_metrics": (), "models.score_pairs": ARCHS,
    "vocab.cwf_score": (), "evaluation.tune_scale": (), "evaluation.evaluate": (),
}
LAYER_TOTALS = {"training.forward_total": ("training.forward_batch", ARCHS)}
# count metrics: (counter, phase, denominator counter); the values listed
# under an architecture are the ones that architecture's members produce
LAYER_COUNTS = {
    "vocab.encode_per_instance": ("vocab.encode", "rank", "rank.instances", ()),
    "numerics.ops_per_batch": ("numerics.ops", "train", "training.batches", ARCHS),
    "layers.lstm_steps_per_batch": ("layers.lstm_steps", "train", "training.batches", ()),
    "layers.lstm_rows_per_instance": ("layers.lstm_rows", "rank", "rank.instances", ARCHS),
}


def per_layer_metric_names():
    """The names ``per_layer_metrics`` returns, in order (BENCHMARK.json's ``per_layer``)."""
    names = []
    for layer, archs in LAYER_SECONDS.items():
        names += [f"{layer}_s"] + [f"{layer}_s.{a}" for a in archs]
    for metric, (_, archs) in LAYER_TOTALS.items():
        names += [f"{metric}_s"] + [f"{metric}_s.{a}" for a in archs]
    for metric, (*_, archs) in LAYER_COUNTS.items():
        names += [metric] + [f"{metric}.{a}" for a in archs]
    return names


def per_layer_metrics(tracer, n_setups, n_rounds):
    own, whole = tracer.self_times(), tracer.durations()
    metrics = {}

    def seconds(layer, arch=None, times=own):
        total = 0.0
        for (phase, name, a), s in times.items():
            if name == layer and (arch is None or a == arch) and phase is not None:
                total += s / (n_setups if phase == "setup" else n_rounds)
        return total

    def counted(counter, phase, arch=None):
        return sum(n for (p, name, a), n in tracer.counts.items()
                   if p == phase and name == counter and (arch is None or a == arch))

    for layer, archs in LAYER_SECONDS.items():
        metrics[f"{layer}_s"] = (seconds(layer), "s")
        for a in archs:
            metrics[f"{layer}_s.{a}"] = (seconds(layer, a), "s")
    for metric, (span, archs) in LAYER_TOTALS.items():
        metrics[f"{metric}_s"] = (seconds(span, times=whole), "s")
        for a in archs:
            metrics[f"{metric}_s.{a}"] = (seconds(span, a, whole), "s")
    for metric, (counter, phase, denominator, archs) in LAYER_COUNTS.items():
        per_arch = denominator == "training.batches"
        base = max(counted(denominator, phase), 1)
        metrics[metric] = (counted(counter, phase) / base, "count")
        for a in archs:
            base_a = max(counted(denominator, phase, a), 1) if per_arch else base
            metrics[f"{metric}.{a}"] = (counted(counter, phase, a) / base_a, "count")
    return metrics


# -- main --------------------------------------------------------------------------


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def main(argv=None):
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    env = environment()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(env)}", file=sys.stderr)

    paths, make_up = write_inputs(w, args.seed, out)
    checks = Checks()
    tracer = Tracer() if args.trace else None

    data = set_up(w, paths, args.seed)  # warm-up, unmeasured
    make_up["vocab_size"] = data.vocab.size
    serving = deploy(w, data, args.seed, out)
    check_gradients(w, data, args.seed, checks)
    if tracer is not None:
        instrument(tracer)

    ops_per_round = 3 * EPOCHS + w.n_tune + w.n_eval + N_REQUESTS
    attempted = failed = 0
    results, errors = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        done = [0]
        attempted += ops_per_round
        try:
            results.append(run_round(w, paths, args.seed, out, serving, tracer, done))
        except (ValueError, RuntimeError, ArithmeticError) as err:  # a failing program operation
            failed += ops_per_round - done[0]
            errors.append(repr(err))
            print(f"round failed: {err!r}", file=sys.stderr)
        if time.perf_counter() >= deadline and len(results) + len(errors) >= MIN_ROUNDS:
            break
    if tracer is not None:
        tracer.restore()

    started = time.perf_counter()
    checks.add("rounds_completed", bool(results),
               f"{len(results)} of {len(results) + len(errors)} rounds ran to their end")
    if results:
        check_round(w, results[-1], checks)
        check_serving(serving, results[-1].served, data.vocab, checks)
    print(f"# {len(results) + len(errors)} rounds; checks took {time.perf_counter() - started:.1f} s",
          file=sys.stderr)
    setup_s = [s for r in results for s in r.setup_s]
    latencies = [ms for r in results for ms in r.latencies_ms]
    end_to_end = {}
    if results:
        end_to_end["setup_s"] = (statistics.median(setup_s), "s")
        for arch in ARCHS:
            end_to_end[f"train_epoch_s.{arch}"] = (statistics.median(r.epoch_s[arch] for r in results), "s")
        # The slowest round: ranking runs at two speed levels on a shared
        # machine, and the slow level holds steady from run to run while the
        # share of time spent at the fast one does not (README.md, Bounds).
        end_to_end["rank_instances_per_s"] = (min(r.rank_instances_per_s for r in results), "instances/s")
        end_to_end["rank_ms.mean"] = (statistics.fmean(latencies), "ms")
        end_to_end["rank_ms.tail"] = (percentile(latencies, TAIL_PERCENTILE), "ms")
    end_to_end["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    if tracer is not None:
        metrics = per_layer_metrics(tracer, max(len(setup_s), 1), len(results) + len(errors))
        tracer.write(out / "spans.jsonl")
    else:
        metrics = end_to_end

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "inputs": make_up, "rounds": len(results) + len(errors),
        "setup_s": setup_s, "latencies_ms": latencies, "tail_percentile": TAIL_PERCENTILE,
        "epoch_s_per_round": [r.epoch_s for r in results],
        "rank_instances_per_s_per_round": [r.rank_instances_per_s for r in results],
        "rank_ms.p50": percentile(latencies, 50) if latencies else None,
        "checks": checks.results, "errors": errors,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with open(out / f"result-trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    print(json.dumps({
        "correct": checks.passed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if checks.passed else 1


if __name__ == "__main__":
    sys.exit(main())
