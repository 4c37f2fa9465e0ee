import numpy as np
import pytest

from ccnrank.corpus import generate_splits
from ccnrank.models import ARCHITECTURES, ModelConfig, build_model, save_checkpoint
from ccnrank.numerics import ContractError, ParameterSet, Tensor, backward, finite_diff_check
from ccnrank.training import (
    TrainConfig,
    TrainingDiverged,
    _clip_gradients,
    batch_indices,
    batch_loss,
    loss,
    train,
    validation_metrics,
)
from ccnrank.vocab import build_vocab


class TestLoss:
    def test_zero_when_correct(self):
        assert loss(Tensor(1.0), 1).item() == 0.0
        assert loss(Tensor(0.0), 0).item() == 0.0

    def test_half_probability(self):
        assert loss(Tensor(0.5), 1).item() == pytest.approx(0.25)

    def test_gradient_matches_finite_differences(self):
        ps = ParameterSet()
        p = ps.add("p", np.array([0.3, 0.8]))
        y = np.array([1.0, 0.0])
        report = finite_diff_check(lambda: batch_loss(p, y), ps)
        assert report.passed
        # d mean((p-y)^2) / dp = 2 (p - y) / n
        ps.zero_gradients()
        out = batch_loss(p, y)
        backward(out)
        np.testing.assert_allclose(p.grad, 2 * (p.data - y) / 2, atol=1e-12)


class TestBatchIndices:
    def test_visits_every_instance_once(self):
        rng = np.random.default_rng(0)
        for n, b in ((10, 3), (8, 8), (7, 13), (256, 64)):
            order = rng.permutation(n)
            batches = batch_indices(order, b)
            flat = np.concatenate(batches)
            assert sorted(flat) == list(range(n))
            assert all(len(chunk) == b for chunk in batches[:-1])
            assert len(batches[-1]) == n - b * (len(batches) - 1)


class TestToyConvergence:
    def test_sigmoid_weight_loss_strictly_decreases(self):
        # one-parameter model p = sigmoid(w), single example y = 1
        from ccnrank import numerics as nm
        from ccnrank.numerics import RmsProp, backward

        ps = ParameterSet()
        w = ps.add("w", np.array([0.0]))
        opt = RmsProp(ps, learning_rate=1e-3)
        losses = []
        for _ in range(100):
            objective = batch_loss(nm.sigmoid(w), np.array([1.0]))
            losses.append(float(objective.data))
            backward(objective)
            opt.step()
        assert all(a > b for a, b in zip(losses, losses[1:]))


def small_setup(arch="dual_lstm", n_train=60, n_val=8, seed=5):
    train_set, _, val_set = generate_splits(seed, n_train, 1, n_val)
    vocab = build_vocab(train_set)
    config = ModelConfig(architecture=arch, embedding_dim=4, hidden_size=4, max_len=16, seed=seed)
    model, _ = build_model(config, vocab)
    return model, train_set, val_set, vocab


class TestTrainLoop:
    def test_deterministic_reports_and_checkpoints(self, tmp_path):
        results = []
        for run in range(2):
            model, train_set, val_set, _ = small_setup()
            cfg = TrainConfig(batch_size=16, max_epochs=2, seed=9, validation=val_set)
            fitted, reports = train(model, train_set, cfg)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(fitted, path)
            results.append((reports, path.read_bytes()))
        (reports_a, blob_a), (reports_b, blob_b) = results
        assert blob_a == blob_b
        for ra, rb in zip(reports_a, reports_b):
            assert (ra.epoch, ra.train_loss, ra.val_accuracy, ra.val_recall1) == (
                rb.epoch,
                rb.train_loss,
                rb.val_accuracy,
                rb.val_recall1,
            )

    def test_log_file_format(self, tmp_path):
        model, train_set, val_set, _ = small_setup()
        log = tmp_path / "run.log"
        cfg = TrainConfig(batch_size=16, max_epochs=2, seed=9, validation=val_set, log_path=str(log))
        train(model, train_set, cfg)
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 2
        for i, line in enumerate(lines, start=1):
            fields = line.split("\t")
            assert len(fields) == 5
            assert int(fields[0]) == i
            assert all(np.isfinite(float(v)) for v in fields[1:])

    def test_pad_embedding_row_stays_zero(self):
        model, train_set, val_set, _ = small_setup("mfcw_lstm", n_train=40)
        cfg = TrainConfig(batch_size=10, max_epochs=2, seed=1, validation=val_set)
        fitted, _ = train(model, train_set, cfg)
        for name in ("embedding_high", "embedding_low"):
            np.testing.assert_array_equal(fitted.params[name].data[0], 0.0)

    def test_best_epoch_parameters_returned(self):
        model, train_set, val_set, _ = small_setup(n_train=80)
        overfit = TrainConfig(batch_size=16, max_epochs=4, seed=2, validation=val_set, patience=10)
        fitted, reports = train(model, train_set, overfit)
        best = max(reports, key=lambda r: r.val_accuracy)
        first_best = next(r for r in reports if r.val_accuracy == best.val_accuracy)
        accuracy, _ = validation_metrics(fitted, val_set)
        assert accuracy == first_best.val_accuracy

    def test_early_stopping_respects_patience(self):
        model, train_set, val_set, _ = small_setup(n_train=40)
        cfg = TrainConfig(batch_size=10, max_epochs=50, seed=3, validation=val_set, patience=1)
        _, reports = train(model, train_set, cfg)
        assert len(reports) < 50

    def test_missing_validation_rejected(self):
        model, train_set, _, _ = small_setup()
        with pytest.raises(ContractError):
            train(model, train_set, TrainConfig(validation=[]))

    def test_divergence_raises_with_batch_index(self):
        model, train_set, val_set, _ = small_setup()
        model.params["bilinear"].data[:] = np.nan
        cfg = TrainConfig(batch_size=16, max_epochs=1, seed=0, validation=val_set)
        with pytest.raises(TrainingDiverged) as err:
            train(model, train_set, cfg)
        assert err.value.batch_index == 0

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_float32_parameters_stay_float32(self, arch):
        train_set, _, val_set = generate_splits(5, 128, 1, 8)
        config = ModelConfig(architecture=arch, embedding_dim=4, hidden_size=4, max_len=16, seed=5,
                             precision="float32")
        model, _ = build_model(config, build_vocab(train_set))
        train(model, train_set, TrainConfig(batch_size=32, max_epochs=1, seed=0, validation=val_set))
        wrong = {name: t.dtype for name, t in model.params.items() if t.dtype != np.float32}
        assert not wrong

    def test_config_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(batch_size=0)
        with pytest.raises(ContractError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ContractError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("field", ["max_epochs", "patience"])
    @pytest.mark.parametrize("bad", [0, -1])
    def test_epochs_and_patience_must_be_positive(self, field, bad):
        # max_epochs=0 trains nothing and leaves no best epoch to restore;
        # patience=0 would stop exactly where patience=1 does
        with pytest.raises(ContractError, match=f"{field} must be >= 1"):
            TrainConfig(**{field: bad})
        assert getattr(TrainConfig(**{field: 1}), field) == 1

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_clip_norm_must_be_positive(self, bad):
        # a negative bound flips every gradient's sign: RMSProp would ascend the loss
        with pytest.raises(ContractError, match="clip_norm"):
            TrainConfig(clip_norm=bad)
        assert TrainConfig(clip_norm=0.5).clip_norm == 0.5


class TestClipGradients:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_norm_raises(self, bad):
        ps = ParameterSet()
        ps.add("w", np.ones(3)).grad = np.array([1.0, bad, 0.0])
        with pytest.raises(TrainingDiverged) as err:
            _clip_gradients(ps, 1.0, epoch=2, batch_index=5)
        assert (err.value.epoch, err.value.batch_index) == (2, 5)

    def test_scales_down_to_max_norm(self):
        ps = ParameterSet()
        w = ps.add("w", np.ones(2))
        w.grad = np.array([3.0, 4.0])
        _clip_gradients(ps, 1.0, epoch=1, batch_index=0)
        np.testing.assert_allclose(w.grad, [0.6, 0.8])
        _clip_gradients(ps, 2.0, epoch=1, batch_index=0)
        np.testing.assert_allclose(w.grad, [0.6, 0.8])


class TestValidationMetrics:
    def test_perfect_and_chance_bounds(self):
        model, train_set, val_set, _ = small_setup()
        accuracy, recall1 = validation_metrics(model, val_set)
        assert 0.0 <= accuracy <= 1.0
        assert 0.0 <= recall1 <= 1.0
