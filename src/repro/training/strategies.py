"""Pluggable training execution strategies (the ``TrainStep`` seam).

:class:`~repro.training.trainer.Trainer` owns everything that happens
*between* optimizer updates — epoch accounting, the scheduler, early
stopping, history — while a :class:`TrainStep` strategy owns the update
itself.  The contract:

* ``setup(trainer, features)`` binds the strategy to one ``fit`` call:
  the trainer's model/optimizer/config and the training feature matrix.
  It runs inside the fit's precision and backend scopes, so a strategy
  that captures execution context (the parallel one) reads the *resolved*
  policies here.
* ``step(indices)`` performs exactly one optimizer update from the rows
  ``features[indices]`` — forward, loss, backward, optional gradient
  clipping, ``optimizer.step()`` — and returns the batch's
  :class:`~repro.training.losses.LossTerms`.  The trainer's model holds
  the post-update parameters when it returns, whatever machinery computed
  the gradients.  A non-finite batch loss raises
  :class:`NonFiniteLossError` instead, with no update applied.
* ``close()`` releases whatever ``setup`` acquired; the trainer calls it
  on every exit path (including a ``step`` raising mid-epoch), and it
  must be idempotent.

:class:`SequentialTrainStep` is the default strategy: the original
single-process loop body, bit-for-bit.  The data-parallel strategies live
in :mod:`repro.training.parallel`.
"""

from __future__ import annotations

import math

import numpy as np

from ..nn.tensor import Tensor
from .losses import LossTerms, autoencoder_loss

__all__ = [
    "TrainStep",
    "SequentialTrainStep",
    "NonFiniteLossError",
    "clip_grad_norm",
]


class NonFiniteLossError(ValueError):
    """A training step's loss was NaN or infinite; no update was applied."""


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (torch semantics).  Parameters without
    gradients are skipped; a norm *exactly* at ``max_norm`` is left
    untouched.  Scaling happens in place (``out=p.grad``) — one steady
    buffer per parameter instead of a fresh allocation per clipped step.

    The squared temporaries are forced into C order before summing:
    ``.sum()`` reduces in *memory* order, so an F-ordered gradient (a
    matmul VJP is often a transposed view) would otherwise round its
    pairwise sum differently from a C-ordered copy of the same values —
    the norm must not depend on gradient memory layout, or the
    data-parallel strategies (whose reduced gradients are C-contiguous)
    could never bitwise-match the sequential path.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(
        float(np.multiply(p.grad, p.grad, order="C").sum()) for p in params
    )))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for param in params:
            np.multiply(param.grad, scale, out=param.grad)
    return total


class TrainStep:
    """One optimizer update's execution strategy; see the module docstring."""

    name = "abstract"

    def setup(self, trainer, features: np.ndarray) -> None:
        """Bind to one ``fit`` call (model, optimizer, config, data)."""
        self.model = trainer.model
        self.optimizer = trainer.optimizer
        self.config = trainer.config
        self.precision = trainer.precision
        self.features = features

    def step(self, indices: np.ndarray) -> LossTerms:
        """Run one optimizer update over ``features[indices]``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release per-fit resources; idempotent, called on every exit."""

    # -- shared update tail ---------------------------------------------
    def apply_update(self, terms: LossTerms) -> None:
        """Clip (when configured) and step the optimizer on current grads.

        Every strategy funnels through this once its gradients are in the
        master model's ``param.grad`` buffers and ``terms`` holds the
        batch's (reduced) loss, so clipping and the optimizer see
        identical arithmetic whatever computed them.

        A non-finite loss raises :class:`NonFiniteLossError` before
        clipping or ``optimizer.step``: one NaN row would otherwise make
        every gradient, and after the step every parameter and optimizer
        moment, non-finite.
        """
        if not math.isfinite(terms.total):
            raise NonFiniteLossError(
                f"non-finite training loss ({terms}); parameters and "
                "optimizer state left at their pre-step values"
            )
        if self.config.max_grad_norm is not None:
            clip_grad_norm(self.model.parameters(), self.config.max_grad_norm)
        self.optimizer.step()


class SequentialTrainStep(TrainStep):
    """The default in-process strategy (the historical loop body)."""

    name = "sequential"

    def step(self, indices: np.ndarray) -> LossTerms:
        real = self.precision.real
        batch = self.features[indices]
        # set_to_none: the backward below then takes each leaf .grad as a
        # fresh copy of its first contribution instead of adding it into
        # a zero-filled buffer, which skips a fill and an add per
        # parameter.
        self.optimizer.zero_grad(set_to_none=True)
        output = self.model(Tensor(batch, dtype=real))
        loss, terms = autoencoder_loss(
            output, Tensor(batch, dtype=real), beta=self.config.beta
        )
        loss.backward()
        self.apply_update(terms)
        return terms
