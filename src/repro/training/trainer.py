"""Training loop with the paper's optimizer configuration.

Section IV-B: mini-batches of 32, Adam with default betas (0.9, 0.999),
learning rate 0.001 for the depth study, and — after the Fig. 7 ablation —
*heterogeneous* learning rates: 0.03 for quantum rotation angles and 0.01
for classical weights.  :class:`TrainConfig` exposes exactly those knobs.

The loop itself is split in two: :class:`Trainer` runs everything that
happens *between* optimizer updates (epoch accounting, the scheduler,
early stopping, history), while a :class:`~repro.training.strategies
.TrainStep` strategy executes each update.  The default strategy is the
historical in-process loop body; ``TrainConfig.workers`` swaps in the
shared-memory data-parallel strategy from :mod:`repro.training.parallel`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.loader import ArrayDataset, DataLoader
from ..models.base import Autoencoder
from ..nn.optim import Optimizer, heterogeneous_adam
from ..nn.precision import resolve_precision, use_precision
from ..nn.schedulers import LRScheduler
from ..nn.tensor import Tensor, no_grad
from ..quantum.backends import resolve_backend, use_backend
from .history import EpochRecord, History
from .strategies import (
    NonFiniteGradientError,
    NonFiniteLossError,
    SequentialTrainStep,
    TrainStep,
    clip_grad_norm,
)

__all__ = ["TrainConfig", "Trainer", "evaluate_reconstruction",
           "clip_grad_norm"]

PAPER_QUANTUM_LR = 0.03
PAPER_CLASSICAL_LR = 0.01


@dataclass
class TrainConfig:
    """Hyperparameters for one training run."""

    epochs: int = 20
    batch_size: int = 32
    quantum_lr: float = 0.001
    classical_lr: float = 0.001
    beta: float = 1.0  # KL weight (variational models only)
    seed: int = 0
    shuffle: bool = True
    max_grad_norm: float | None = None  # global-norm gradient clipping
    early_stop_patience: int | None = None  # epochs without test improvement
    # Precision policy for the whole run (None = active policy, float64 by
    # default).  "float32" casts every batch to single precision and scopes
    # the policy over the loop, so gradients/optimizer state follow too —
    # pair with a model built with the same dtype to train fully in float32.
    precision: str | None = None
    # Kernel backend for the whole run (None = active policy, NumPy by
    # default).  "threaded" scopes the row-sharding backend over the loop,
    # so every quantum layer's stacked passes run on the worker pool.
    backend: str | None = None
    # Data-parallel worker processes (None = single-process strategy).
    # Each batch is sharded across N spawned workers that compute
    # gradients against a shared-memory parameter block; the master
    # reduces them in fixed worker order, so a given N is deterministic
    # and workers=1 reproduces the sequential trainer bit for bit.
    workers: int | None = None
    # Learning-rate schedule: a factory called once with the optimizer
    # (e.g. ``lambda opt: StepLR(opt, step_size=5, gamma=0.5)``) and
    # stepped once per epoch.  Schedulers rescale every parameter group
    # relative to its initial lr, so the paper's heterogeneous
    # quantum/classical ratio is preserved across the decay.
    scheduler: Callable[[Optimizer], LRScheduler] | None = None

    @classmethod
    def paper_sq(cls, epochs: int = 20, seed: int = 0) -> "TrainConfig":
        """The final SQ-VAE/AE configuration (Fig. 7's best cell)."""
        return cls(
            epochs=epochs,
            quantum_lr=PAPER_QUANTUM_LR,
            classical_lr=PAPER_CLASSICAL_LR,
            seed=seed,
        )


class Trainer:
    """Fits one autoencoder on one dataset and records the loss trace."""

    def __init__(
        self,
        model: Autoencoder,
        config: TrainConfig,
        strategy: TrainStep | None = None,
    ):
        self.model = model
        self.config = config
        self.precision = resolve_precision(config.precision)
        # None stays None (follow the active backend policy at fit time —
        # a caller's use_backend scope must not be overridden); an
        # explicit config.backend pins the whole run.
        self.backend = (
            None if config.backend is None else resolve_backend(config.backend)
        )
        self.optimizer = heterogeneous_adam(
            model, quantum_lr=config.quantum_lr, classical_lr=config.classical_lr
        )
        self.scheduler = (
            config.scheduler(self.optimizer)
            if config.scheduler is not None
            else None
        )
        if strategy is None:
            if config.workers is None:
                strategy = SequentialTrainStep()
            else:
                from .parallel import ParallelTrainStep

                strategy = ParallelTrainStep(config.workers)
        self.strategy = strategy

    def fit(
        self,
        train_data: ArrayDataset,
        test_data: ArrayDataset | None = None,
    ) -> History:
        """Train for ``config.epochs`` epochs; evaluates test loss per epoch.

        The whole loop runs under the config's precision policy (batches
        are cast to its real dtype and gradient buffers follow its
        accumulation rule) and kernel backend (every quantum execution
        dispatches through it).
        """
        with use_precision(self.precision), self._backend_scope():
            return self._fit(train_data, test_data)

    def _backend_scope(self):
        """The config's backend scope — a no-op when it follows the policy."""
        return nullcontext() if self.backend is None else use_backend(self.backend)

    def _fit(
        self,
        train_data: ArrayDataset,
        test_data: ArrayDataset | None = None,
    ) -> History:
        config = self.config
        # The patience counter only ever advances on test losses; without
        # test data it was silently ignored and training ran every epoch.
        if config.early_stop_patience is not None and test_data is None:
            raise ValueError(
                f"early_stop_patience={config.early_stop_patience} requires "
                "test_data: the patience counter advances on per-epoch test "
                "losses, so without a test set it would silently never stop"
            )
        loader = DataLoader(
            train_data,
            batch_size=config.batch_size,
            shuffle=config.shuffle,
            seed=config.seed,
        )
        # An empty loader used to surface as a bare ZeroDivisionError from
        # the epoch-mean division below; fail up front with the cause.
        if len(loader) == 0:
            raise ValueError(
                f"training loader yields no batches: dataset has "
                f"{len(train_data)} sample(s) at batch_size="
                f"{config.batch_size}"
            )
        history = History()
        best_test = float("inf")
        epochs_since_best = 0
        self.strategy.setup(self, train_data.features)
        try:
            for epoch in range(1, config.epochs + 1):
                started = time.perf_counter()
                epoch_total = epoch_recon = epoch_kl = 0.0
                n_batches = 0
                self.model.train()
                for indices in loader.iter_index_batches():
                    try:
                        terms = self.strategy.step(indices)
                    except (NonFiniteLossError,
                            NonFiniteGradientError) as exc:
                        raise type(exc)(
                            f"epoch {epoch}, batch {n_batches + 1}: {exc}"
                        ) from None
                    epoch_total += terms.total
                    epoch_recon += terms.reconstruction
                    epoch_kl += terms.kl
                    n_batches += 1
                    history.batch_losses.append(terms.total)
                record = EpochRecord(
                    epoch=epoch,
                    train_loss=epoch_total / n_batches,
                    train_reconstruction=epoch_recon / n_batches,
                    train_kl=epoch_kl / n_batches,
                )
                if test_data is not None:
                    record.test_loss = self.evaluate(test_data)
                    record.test_reconstruction = record.test_loss
                record.seconds = time.perf_counter() - started
                history.append(record)
                if self.scheduler is not None:
                    self.scheduler.step()
                if (
                    config.early_stop_patience is not None
                    and record.test_loss is not None
                ):
                    if record.test_loss < best_test - 1e-12:
                        best_test = record.test_loss
                        epochs_since_best = 0
                    else:
                        epochs_since_best += 1
                        if epochs_since_best >= config.early_stop_patience:
                            break
        finally:
            self.strategy.close()
        return history

    def evaluate(self, data: ArrayDataset) -> float:
        """Mean reconstruction MSE over a dataset (no gradient tracking).

        Runs under the config's precision policy *and* backend scope —
        evaluation used to pick up whatever ambient precision the caller
        had active, so a float32-configured trainer evaluated in float64
        when called outside ``fit``.
        """
        with use_precision(self.precision), self._backend_scope():
            return evaluate_reconstruction(
                self.model, data, self.config.batch_size, dtype=self.precision
            )


@no_grad()
def evaluate_reconstruction(
    model: Autoencoder, data: ArrayDataset, batch_size: int = 32, dtype=None
) -> float:
    """Reconstruction MSE of ``model`` on ``data`` (posterior mean path).

    Runs entirely untracked (``no_grad`` in decorator form — nothing here
    needs a tape).  ``dtype`` casts each batch to the policy's real dtype
    before encoding (None follows the active policy); the squared error
    itself accumulates in float64 either way.

    The model's mode is restored on exit: every submodule gets back the
    ``training`` flag it entered with (an unconditional ``model.train()``
    here used to clobber a caller's eval mode).
    """
    if len(data) == 0:
        raise ValueError("cannot evaluate reconstruction on an empty dataset")
    real = resolve_precision(dtype).real
    prior_modes = [(module, module.training) for module in model.modules()]
    model.eval()
    total = 0.0
    count = 0
    try:
        for start in range(0, len(data), batch_size):
            batch = data.features[start : start + batch_size]
            recon = model.decode(model.encode(Tensor(batch, dtype=real)))
            total += float(
                ((recon.data.astype(np.float64) - batch) ** 2).sum()
            )
            count += batch.size
    finally:
        for module, was_training in prior_modes:
            module.training = was_training
    return total / count
