"""Tests for the TrainStep strategy seam and the shared update tail."""

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.models import ClassicalAE, build_model
from repro.nn import Parameter
from repro.nn.schedulers import StepLR
from repro.training import (
    NonFiniteGradientError,
    NonFiniteLossError,
    SequentialTrainStep,
    ShardedTrainStep,
    TrainConfig,
    Trainer,
    TrainStep,
    clip_grad_norm,
    evaluate_reconstruction,
)


def toy_data(n=24, dim=16, seed=0):
    gen = np.random.default_rng(seed)
    base = gen.normal(size=(4, dim))
    return ArrayDataset(gen.normal(size=(n, 4)) @ base)


def make_model(seed=3, dim=16, dtype=None):
    return build_model("ae", dim, 4, 2, 4, seed=seed) if dtype is None else \
        build_model("ae", dim, 4, 2, 4, seed=seed, dtype=dtype)


class TestStrategySeam:
    def test_default_strategy_is_sequential(self):
        trainer = Trainer(make_model(), TrainConfig(epochs=1))
        assert isinstance(trainer.strategy, SequentialTrainStep)

    def test_workers_config_selects_parallel_strategy(self):
        from repro.training import ParallelTrainStep

        trainer = Trainer(make_model(), TrainConfig(epochs=1, workers=2))
        assert isinstance(trainer.strategy, ParallelTrainStep)
        assert trainer.strategy.n_workers == 2

    def test_lifecycle_setup_steps_close(self):
        calls = []

        class Spy(SequentialTrainStep):
            def setup(self, trainer, features):
                calls.append("setup")
                super().setup(trainer, features)

            def step(self, indices):
                calls.append("step")
                return super().step(indices)

            def close(self):
                calls.append("close")

        data = toy_data(n=16)
        config = TrainConfig(epochs=2, batch_size=8)
        Trainer(make_model(), config, strategy=Spy()).fit(data)
        assert calls == ["setup"] + ["step"] * 4 + ["close"]

    def test_close_runs_when_step_raises_mid_epoch(self):
        closed = []

        class Exploding(SequentialTrainStep):
            def step(self, indices):
                raise RuntimeError("boom")

            def close(self):
                closed.append(True)

        trainer = Trainer(make_model(), TrainConfig(epochs=1, batch_size=8),
                          strategy=Exploding())
        with pytest.raises(RuntimeError, match="boom"):
            trainer.fit(toy_data(n=16))
        assert closed == [True]

    def test_step_receives_loader_index_batches(self):
        seen = []

        class Recorder(SequentialTrainStep):
            def step(self, indices):
                seen.append(np.asarray(indices).copy())
                return super().step(indices)

        data = toy_data(n=16)
        config = TrainConfig(epochs=1, batch_size=8, seed=11)
        Trainer(make_model(), config, strategy=Recorder()).fit(data)
        flat = np.concatenate(seen)
        assert sorted(flat.tolist()) == list(range(16))

    def test_abstract_step_raises(self):
        with pytest.raises(NotImplementedError):
            TrainStep().step(np.arange(4))


class TestStrategyParity:
    """Scheduler stepping and early stopping are trainer-side concerns —
    identical whichever strategy executes the updates."""

    def _run(self, strategy):
        train, test = toy_data(n=24, seed=1), toy_data(n=8, seed=2)
        config = TrainConfig(
            epochs=6, batch_size=8, seed=5, max_grad_norm=1.0,
            early_stop_patience=2,
            scheduler=lambda opt: StepLR(opt, step_size=2, gamma=0.5),
        )
        model = make_model()
        trainer = Trainer(model, config, strategy=strategy)
        history = trainer.fit(train, test_data=test)
        lrs = [group["lr"] for group in trainer.optimizer.param_groups]
        return history, lrs, model

    def test_scheduler_and_early_stop_identical_across_strategies(self):
        h_seq, lr_seq, m_seq = self._run(SequentialTrainStep())
        h_shard, lr_shard, m_shard = self._run(ShardedTrainStep(1))
        assert len(h_seq.epochs) == len(h_shard.epochs)
        assert lr_seq == lr_shard
        assert h_seq.train_losses == h_shard.train_losses
        assert h_seq.test_losses == h_shard.test_losses
        assert h_seq.batch_losses == h_shard.batch_losses
        for (_, a), (_, b) in zip(m_seq.named_parameters(),
                                  m_shard.named_parameters()):
            assert (a.data == b.data).all()

    def test_epoch_records_carry_wall_clock_seconds(self):
        history, _, _ = self._run(SequentialTrainStep())
        assert all(r.seconds is not None and r.seconds > 0
                   for r in history.epochs)


class TestNonFiniteLoss:
    """One NaN row must stop the fit at its batch, before any update."""

    @staticmethod
    def _snapshotting(strategy_cls, *args):
        class Snapshot(strategy_cls):
            def step(self, indices):
                self.before = {
                    name: p.data.copy()
                    for name, p in self.model.named_parameters()
                }
                self.adam_steps = dict(self.optimizer._t)
                return super().step(indices)

        return Snapshot(*args)

    @pytest.mark.parametrize(
        "strategy_cls, args",
        [(SequentialTrainStep, ()), (ShardedTrainStep, (2,))],
        ids=["sequential", "sharded"],
    )
    def test_nan_row_raises_naming_epoch_and_batch(self, strategy_cls, args):
        data = toy_data(n=32)
        data.features[19, 5] = np.nan  # rows 16..23 form batch 3
        strategy = self._snapshotting(strategy_cls, *args)
        model = make_model()
        config = TrainConfig(epochs=2, batch_size=8, shuffle=False,
                             max_grad_norm=1.0)
        trainer = Trainer(model, config, strategy=strategy)
        with pytest.raises(NonFiniteLossError, match=r"epoch 1, batch 3: "
                           r"non-finite training loss") as info:
            trainer.fit(data)
        assert isinstance(info.value, ValueError)
        for name, param in model.named_parameters():
            assert np.isfinite(param.data).all(), name
            assert np.array_equal(param.data, strategy.before[name]), name
        assert trainer.optimizer._t == strategy.adam_steps


class TestNonFiniteGradient:
    """A finite loss with one non-finite gradient entry must not step."""

    @staticmethod
    def _poisoning(strategy_cls, *args, at_batch=3):
        class Poison(strategy_cls):
            batches = 0

            def step(self, indices):
                self.batches += 1
                self.before = {
                    name: p.data.copy()
                    for name, p in self.model.named_parameters()
                }
                self.adam = tuple(
                    {key: np.copy(value) for key, value in table.items()}
                    for table in (self.optimizer._m, self.optimizer._v)
                ) + (dict(self.optimizer._t),)
                return super().step(indices)

            def apply_update(self, terms):
                self.loss = terms.total
                if self.batches == at_batch:
                    name, param = list(self.model.named_parameters())[1]
                    self.poisoned = name
                    grad = param.grad.copy()
                    grad.flat[0] = np.inf
                    param.grad = grad
                super().apply_update(terms)

        return Poison(*args)

    @pytest.mark.parametrize(
        "strategy_cls, args",
        [(SequentialTrainStep, ()), (ShardedTrainStep, (2,))],
        ids=["sequential", "sharded"],
    )
    def test_raises_naming_parameter_epoch_and_batch(self, strategy_cls,
                                                    args):
        strategy = self._poisoning(strategy_cls, *args)
        model = make_model()
        config = TrainConfig(epochs=2, batch_size=8, shuffle=False,
                             max_grad_norm=1.0)
        trainer = Trainer(model, config, strategy=strategy)
        with pytest.raises(NonFiniteGradientError) as info:
            trainer.fit(toy_data(n=32))
        message = str(info.value)
        assert isinstance(info.value, ValueError)
        assert message.startswith("epoch 1, batch 3: non-finite gradient "
                                  f"for parameter {strategy.poisoned!r}")
        assert np.isfinite(strategy.loss)
        for name, param in model.named_parameters():
            assert np.isfinite(param.data).all(), name
            assert np.array_equal(param.data, strategy.before[name]), name
        optimizer = trainer.optimizer
        m_before, v_before, t_before = strategy.adam
        assert optimizer._t == t_before
        for table, before in ((optimizer._m, m_before),
                              (optimizer._v, v_before)):
            assert table.keys() == before.keys()
            for key, value in before.items():
                assert np.array_equal(table[key], value)


class TestClipGradNormEdgeCases:
    def test_all_grads_none_returns_zero(self):
        params = [Parameter(np.zeros(3)), Parameter(np.zeros(2))]
        assert clip_grad_norm(params, max_norm=1.0) == 0.0
        assert all(p.grad is None for p in params)

    def test_norm_exactly_at_max_is_untouched(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])  # norm exactly 5.0
        before = p.grad
        norm = clip_grad_norm([p], max_norm=5.0)
        assert norm == 5.0
        assert p.grad is before
        np.testing.assert_array_equal(p.grad, [3.0, 4.0])

    def test_scales_in_place(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])
        buffer = p.grad
        clip_grad_norm([p], max_norm=1.0)
        assert p.grad is buffer  # no rebinding, no fresh allocation
        np.testing.assert_allclose(np.linalg.norm(p.grad), 1.0, rtol=1e-6)

    def test_norm_is_independent_of_gradient_memory_layout(self):
        gen = np.random.default_rng(0)
        values = gen.normal(size=(64, 48))
        c_param = Parameter(np.zeros_like(values))
        f_param = Parameter(np.zeros_like(values))
        c_param.grad = np.ascontiguousarray(values)
        f_param.grad = np.asfortranarray(values)
        norm_c = clip_grad_norm([c_param], max_norm=1e9)
        norm_f = clip_grad_norm([f_param], max_norm=1e9)
        assert norm_c == norm_f  # bitwise: sum order must not follow layout

    def test_reexported_from_trainer_module(self):
        from repro.training.strategies import clip_grad_norm as canonical
        from repro.training.trainer import clip_grad_norm as reexport

        assert reexport is canonical


class TestEvaluatePrecisionScope:
    def test_evaluate_runs_under_config_precision(self):
        """Regression: evaluate() outside fit() used to pick up the ambient
        precision policy instead of the trainer's configured one."""
        data = toy_data(n=16)
        model = make_model(dtype="float32")
        trainer = Trainer(model, TrainConfig(epochs=1, precision="float32"))
        got = trainer.evaluate(data)  # ambient policy here is float64
        expected = evaluate_reconstruction(model, data, batch_size=32,
                                           dtype="float32")
        drifted = evaluate_reconstruction(model, data, batch_size=32,
                                          dtype="float64")
        assert got == expected
        assert got != drifted  # float32 batches round differently
