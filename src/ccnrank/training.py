"""Mini-batch training: squared-error loss, RMSProp, validation-based selection.

Each epoch shuffles with the run's seeded generator, walks fixed-size
batches (the final short batch is kept), and applies one RMSProp step per
batch.  After every epoch the model is scored on an eval-format validation
set; the parameters from the epoch with the highest validation accuracy
(ties to the earlier epoch) are restored into the model before returning.
Training stops early after ``patience`` consecutive epochs without
improvement.

Given the same seed, config, and data, two runs produce identical batch
order, identical metrics, and bit-identical parameters; only the wall-clock
column of the run log can differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .evaluation import rank_candidates, recall_at_k
from .models import RankingModel, forward_batch, prepare_pairs
from .numerics import ContractError, RmsProp, Tensor, backward


class TrainingDiverged(RuntimeError):
    """The loss became non-finite; carries the offending batch index."""

    def __init__(self, message, epoch, batch_index):
        super().__init__(message)
        self.epoch = epoch
        self.batch_index = batch_index


@dataclass
class TrainConfig:
    batch_size: int = 256
    learning_rate: float = 1e-3
    max_epochs: int = 10
    seed: int = 0
    patience: int = 2
    validation: list = field(default_factory=list)  # eval-format instances
    epsilon: float = 1e-6
    clip_norm: float | None = None  # global-norm clip, off by default
    log_path: str | None = None

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.learning_rate < np.inf:  # NaN fails too
            raise ContractError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.clip_norm is not None and not self.clip_norm > 0:  # NaN fails too
            raise ContractError("clip_norm must be > 0")


@dataclass
class EpochReport:
    epoch: int
    train_loss: float
    val_accuracy: float
    val_recall1: float
    seconds: float


def loss(p: Tensor, y) -> Tensor:
    """Elementwise squared error (p - y)^2 of predictions against labels."""
    d = nm.sub(p, Tensor(np.asarray(y, dtype=p.dtype)))
    return nm.mul(d, d)


def batch_loss(probabilities: Tensor, labels) -> Tensor:
    """Mean squared error over a batch (mean, so the step size is batch-size free)."""
    return nm.mean(loss(probabilities, labels))


def batch_indices(order, batch_size):
    """Consecutive index slices of a shuffled order; the short tail batch is kept."""
    order = np.asarray(order)
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


def validation_metrics(model: RankingModel, validation):
    """(pair accuracy at threshold 0.5, recall@1) over an eval-format set."""
    pairs = [(inst.context, cand) for inst in validation for cand in inst.candidates]
    probs = model.score_pairs(pairs).reshape(len(validation), -1)
    labels = np.zeros_like(probs)
    labels[:, 0] = 1.0
    accuracy = float(((probs >= 0.5) == (labels == 1.0)).mean())
    ranks = [rank_candidates(row) for row in probs]
    return accuracy, recall_at_k(ranks, 1)


def _clip_gradients(params, max_norm, epoch, batch_index):
    """Scale the gradients down to global norm ``max_norm``; a NaN or
    infinite norm raises TrainingDiverged instead of reaching the step."""
    norm = params.global_grad_norm()
    if not np.isfinite(norm):
        raise TrainingDiverged(
            f"non-finite gradient norm in epoch {epoch}, batch {batch_index}", epoch, batch_index
        )
    if norm > max_norm:
        factor = max_norm / norm
        for _, t in params.items():
            if t.grad is not None:
                t.grad = t.grad * factor


def _log_line(report: EpochReport):
    return (
        f"{report.epoch}\t{report.train_loss:.6f}\t{report.val_accuracy:.6f}"
        f"\t{report.val_recall1:.6f}\t{report.seconds:.3f}\n"
    )


def train(model: RankingModel, train_instances, config: TrainConfig):
    """Fit the model; returns it holding the best-validation-epoch parameters.

    Also returns the per-epoch reports.  Raises TrainingDiverged if a batch
    loss goes non-finite, or, when clipping, the gradient norm does.
    """
    if not train_instances:
        raise ContractError("train requires a non-empty train set")
    if not config.validation:
        raise ContractError("train requires a validation set (eval-format instances)")
    pairs = [(inst.context, inst.response) for inst in train_instances]
    labels = np.array([inst.label for inst in train_instances], dtype=np.float64)
    prepared = prepare_pairs(model, pairs)

    rng = np.random.default_rng(config.seed)
    optimizer = RmsProp(model.params, learning_rate=config.learning_rate, epsilon=config.epsilon)
    reports = []
    best_accuracy = -1.0
    best_values = None
    stale_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(pairs))
        total = 0.0
        for batch_index, rows in enumerate(batch_indices(order, config.batch_size)):
            probabilities = forward_batch(model, prepared, rows)
            objective = batch_loss(probabilities, labels[rows])
            value = float(objective.data)
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss in epoch {epoch}, batch {batch_index}",
                    epoch,
                    batch_index,
                )
            backward(objective)
            if config.clip_norm is not None:
                _clip_gradients(model.params, config.clip_norm, epoch, batch_index)
            optimizer.step()
            total += value * len(rows)
        accuracy, recall1 = validation_metrics(model, config.validation)
        report = EpochReport(
            epoch=epoch,
            train_loss=total / len(pairs),
            val_accuracy=accuracy,
            val_recall1=recall1,
            seconds=time.perf_counter() - started,
        )
        reports.append(report)
        if config.log_path:
            with open(config.log_path, "a", encoding="utf-8") as f:
                f.write(_log_line(report))
        if accuracy > best_accuracy:
            best_accuracy = accuracy
            best_values = model.params.copy_values()
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= config.patience:
                break
    model.params.load_values(best_values)
    return model, reports
