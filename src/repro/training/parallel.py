"""Shared-memory data-parallel training strategies.

:class:`ParallelTrainStep` shards every mini-batch across ``N`` spawned
worker processes.  The transport is two ``multiprocessing.shared_memory``
blocks:

* a *state* block holding the master's parameters (offset 0) followed by
  one gradient region per worker, laid out by the picklable
  :class:`~repro.nn.flat.FlatLayout` both sides share;
* a *feature* block holding the training matrix once, so a dispatched
  task is just an index array on a queue.

Workers never receive a pickled module.  Each rebuilds the architecture
from :func:`repro.models.factory.model_metadata` and re-enters the run's
execution context from picklable descriptors
(:meth:`repro.nn.precision.Precision.descriptor`,
:meth:`repro.quantum.backends.KernelBackend.descriptor`), then serves a
queue of index batches: sync parameters from the state block, run
forward/loss/backward on its shard, publish gradients into its own
region, and report which parameters actually produced one.

**Reduction-order determinism contract.**  The master reduces shard
gradients and loss terms in fixed worker order with weights
``rows_k / total_rows``::

    acc  = w_0 * g_0
    acc += w_1 * g_1
    ...

For a given worker count the result is a pure function of the model
state and batch — reruns are bit-for-bit identical.  With one worker the
weight is exactly ``1.0`` and the reduction is the identity, so
``workers=1`` reproduces the sequential trainer *bit for bit* (plain
``==`` on parameters and losses) for deterministic models.
:class:`ShardedTrainStep` runs the same shard/reduce pipeline in
process — the reference that ``workers=N`` must match exactly.

Variational models carry per-process noise RNGs: each worker's stream
advances independently, so VAE runs are deterministic per worker count
but do not bitwise-match a single-stream reference.  The equality
anchors therefore use the deterministic (non-variational) models.
"""

from __future__ import annotations

import queue as queue_module
import traceback
from multiprocessing import get_context, shared_memory

import numpy as np

from ..models.factory import build_from_metadata, model_metadata
from ..nn.flat import (
    FlatLayout,
    gradient_layout,
    parameter_layout,
    read_parameters,
    unique_named_parameters,
    write_gradients,
    write_parameters,
)
from ..nn.precision import precision_from_descriptor, use_precision
from ..nn.tensor import Tensor
from ..quantum.backends import backend_from_descriptor, resolve_backend, use_backend
from .losses import LossTerms, autoencoder_loss
from .strategies import TrainStep

__all__ = [
    "ParallelTrainStep",
    "ShardedTrainStep",
    "split_indices",
    "reduce_gradients",
    "reduce_loss_terms",
]

# How long one result-queue poll blocks before re-checking worker
# liveness; bounds how late a hard worker death is noticed.
_POLL_SECONDS = 0.2
# Grace period for an exiting worker's final message to arrive before a
# death is reported without its traceback.
_DRAIN_SECONDS = 1.0
_JOIN_SECONDS = 5.0


def split_indices(indices: np.ndarray, n_shards: int) -> list[np.ndarray]:
    """Contiguously split a batch's index array into ≤ ``n_shards`` shards.

    ``np.array_split`` order — shard boundaries depend only on the batch
    size and shard count, so master and any reference implementation
    agree on them.  Empty shards (batch smaller than the worker pool) are
    dropped; with one shard the batch passes through unchanged.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be positive")
    return [s for s in np.array_split(indices, n_shards) if s.size]


def shard_weights(shards: list[np.ndarray]) -> list[float]:
    """``rows_k / total_rows`` per shard; exactly ``[1.0]`` for one shard."""
    total = sum(s.size for s in shards)
    return [s.size / total for s in shards]


def reduce_gradients(model, shard_grads, weights) -> None:
    """Weighted-sum shard gradients into ``param.grad``, in shard order.

    ``shard_grads`` is a list of ``(present_names, views)`` pairs — the
    tuple :func:`~repro.nn.flat.write_gradients` returned plus a
    name-to-array mapping.  Every unique parameter is assigned: the fixed
    ``w_0*g_0 + w_1*g_1 + ...`` accumulation when any shard produced a
    gradient, or ``None`` when none did (the optimizer then skips it,
    exactly as after a sequential backward that never touched it).
    """
    for name, param in unique_named_parameters(model):
        acc = None
        for (present, views), weight in zip(shard_grads, weights):
            if name not in present:
                continue
            if acc is None:
                acc = weight * views[name]
            else:
                acc += weight * views[name]
        param.grad = acc


def reduce_loss_terms(shard_terms, weights) -> LossTerms:
    """Row-weighted mean of shard loss terms, in shard order from 0.0."""
    total = recon = kl = 0.0
    for (t, r, k), weight in zip(shard_terms, weights):
        total += weight * t
        recon += weight * r
        kl += weight * k
    return LossTerms(total=total, reconstruction=recon, kl=kl)


def _clear_grads(model) -> None:
    """Drop every gradient so the next backward allocates fresh buffers."""
    for _, param in unique_named_parameters(model):
        param.grad = None


def _shard_forward_backward(model, features, indices, real, beta):
    """One shard's gradient computation — the worker and the in-process
    reference run this exact function, so their arithmetic is identical."""
    _clear_grads(model)
    batch = features[indices]
    output = model(Tensor(batch, dtype=real))
    loss, terms = autoencoder_loss(output, Tensor(batch, dtype=real), beta=beta)
    loss.backward()
    return terms


class ShardedTrainStep(TrainStep):
    """In-process reference for the parallel reduction order.

    Runs the shards of each batch sequentially on the master model and
    reduces through the same :func:`reduce_gradients` /
    :func:`reduce_loss_terms` helpers in the same order, so
    ``ParallelTrainStep(n)`` must match it bit for bit (deterministic
    models) — the correctness anchor that separates "parallelism bug"
    from "expected reduction-order float drift" in tests.
    """

    name = "sharded"

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        self.n_shards = n_shards

    def step(self, indices: np.ndarray) -> LossTerms:
        real = self.precision.real
        shards = split_indices(indices, self.n_shards)
        weights = shard_weights(shards)
        shard_grads = []
        shard_terms = []
        for shard in shards:
            terms = _shard_forward_backward(
                self.model, self.features, shard, real, self.config.beta
            )
            present = []
            views = {}
            for name, param in unique_named_parameters(self.model):
                if param.grad is not None:
                    present.append(name)
                    views[name] = param.grad.copy()
            shard_grads.append((tuple(present), views))
            shard_terms.append((terms.total, terms.reconstruction, terms.kl))
        reduce_gradients(self.model, shard_grads, weights)
        terms = reduce_loss_terms(shard_terms, weights)
        self.apply_update(terms)
        return terms


def _attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach an existing block; the master owns unlinking.

    Spawned children share the master's ``resource_tracker`` (the fd
    rides along in the spawn preparation data), so the attach-time
    registration this performs is an idempotent no-op on the tracker's
    cache and the master's eventual ``unlink`` clears the single entry.
    Do NOT unregister here: a second unregister for the same name makes
    the shared tracker raise ``KeyError`` when the master unlinks.
    """
    return shared_memory.SharedMemory(name=name)


def _worker_main(payload: dict, work_queue, result_queue) -> None:
    """Worker-process entry point: serve index batches until ``stop``.

    Everything in ``payload`` is picklable by construction — layouts,
    model metadata, precision/backend descriptors — and the model is
    rebuilt here, never unpickled.
    """
    index = payload["index"]
    state_shm = features_shm = None
    try:
        state_shm = _attach_shared_memory(payload["state_shm"])
        features_shm = _attach_shared_memory(payload["features_shm"])
        param_layout: FlatLayout = payload["param_layout"]
        grad_layout: FlatLayout = payload["grad_layout"]
        grad_base: int = payload["grad_base"]
        beta: float = payload["beta"]
        features = np.ndarray(
            payload["features_shape"], dtype=np.float64, buffer=features_shm.buf
        )
        precision = precision_from_descriptor(payload["precision"])
        backend = backend_from_descriptor(payload["backend"])
        with use_precision(precision), use_backend(backend):
            model = build_from_metadata(payload["metadata"])
            model.train()
            real = precision.real
            result_queue.put(("ready", index))
            while True:
                task = work_queue.get()
                if task[0] == "stop":
                    break
                _, step_id, indices = task
                read_parameters(model, param_layout, state_shm.buf)
                terms = _shard_forward_backward(
                    model, features, indices, real, beta
                )
                present = write_gradients(
                    model, grad_layout, state_shm.buf, base=grad_base
                )
                result_queue.put(
                    (
                        "ok",
                        index,
                        step_id,
                        present,
                        (terms.total, terms.reconstruction, terms.kl),
                    )
                )
    except Exception:
        try:
            result_queue.put(("error", index, traceback.format_exc()))
        except Exception:
            pass
    finally:
        for shm in (state_shm, features_shm):
            if shm is not None:
                try:
                    shm.close()
                except Exception:
                    pass


class ParallelTrainStep(TrainStep):
    """Shared-memory data-parallel strategy; see the module docstring.

    ``setup`` owns the expensive part — two shared-memory blocks and
    ``n_workers`` spawned processes, each paying the interpreter+model
    startup cost once per ``fit``.  ``close`` is idempotent, runs on
    every fit exit path (the trainer wraps the epoch loop in
    ``try/finally``), and always releases the shared memory, even when
    workers have to be terminated.
    """

    name = "parallel"

    def __init__(self, n_workers: int):
        if not isinstance(n_workers, int) or n_workers < 1:
            raise ValueError(
                f"n_workers must be a positive integer, got {n_workers!r}"
            )
        self.n_workers = n_workers
        self._closed = True  # nothing to release until setup ran
        self._procs = []
        self._work_queues = []
        self._result_queue = None
        self._shms = []
        self._step_id = 0

    # -- lifecycle ------------------------------------------------------

    def setup(self, trainer, features: np.ndarray) -> None:
        super().setup(trainer, features)
        metadata = model_metadata(self.model, seed=self.config.seed)
        self._validate_rebuild(metadata)
        self.param_layout = parameter_layout(self.model)
        self.grad_layout = gradient_layout(self.model, self.precision)
        # Per-worker gradient regions tile the state block after the
        # parameter region; FlatLayout.nbytes is 16-byte aligned, so
        # every region starts aligned.
        self._grad_bases = [
            self.param_layout.nbytes + k * self.grad_layout.nbytes
            for k in range(self.n_workers)
        ]
        state_bytes = (
            self.param_layout.nbytes
            + self.n_workers * self.grad_layout.nbytes
        )
        features = np.ascontiguousarray(features, dtype=np.float64)
        self.features = features
        self._closed = False
        try:
            ctx = get_context("spawn")
            state_shm = shared_memory.SharedMemory(
                create=True, size=max(state_bytes, 1)
            )
            self._shms.append(state_shm)
            features_shm = shared_memory.SharedMemory(
                create=True, size=max(features.nbytes, 1)
            )
            self._shms.append(features_shm)
            shared_features = np.ndarray(
                features.shape, dtype=np.float64, buffer=features_shm.buf
            )
            shared_features[...] = features
            self._state_shm = state_shm
            self._result_queue = ctx.Queue()
            # setup runs inside fit's precision/backend scopes, so the
            # *resolved* active backend is the one workers must mirror.
            backend_descriptor = resolve_backend(None).descriptor()
            for k in range(self.n_workers):
                work_queue = ctx.Queue()
                payload = {
                    "index": k,
                    "state_shm": state_shm.name,
                    "features_shm": features_shm.name,
                    "param_layout": self.param_layout,
                    "grad_layout": self.grad_layout,
                    "grad_base": self._grad_bases[k],
                    "features_shape": features.shape,
                    "metadata": metadata,
                    "precision": self.precision.descriptor(),
                    "backend": backend_descriptor,
                    "beta": self.config.beta,
                }
                proc = ctx.Process(
                    target=_worker_main,
                    args=(payload, work_queue, self._result_queue),
                    name=f"repro-train-worker-{k}",
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
                self._work_queues.append(work_queue)
            self._await_ready()
        except BaseException:
            self.close()
            raise

    def _validate_rebuild(self, metadata: dict) -> None:
        """Fail fast when a worker rebuild would not mirror this model.

        ``model_metadata`` covers the factory hyperparameters, not every
        constructor argument — e.g. a ``ClassicalAE`` built with custom
        ``hidden_dims`` rebuilds with the defaults.  Probe-build once on
        the master and compare parameter layouts before paying for any
        worker spawn.
        """
        probe = build_from_metadata(metadata)
        probe_specs = parameter_layout(probe).specs()
        model_specs = parameter_layout(self.model).specs()
        if probe_specs != model_specs:
            raise ValueError(
                f"cannot data-parallel train this {type(self.model).__name__}:"
                f" rebuilding it from factory metadata {metadata!r} yields "
                "different parameters (e.g. non-default hidden_dims); "
                f"rebuilt {probe_specs!r} vs model {model_specs!r}"
            )

    def _await_ready(self) -> None:
        """Block until every worker finished building its model."""
        ready = set()
        while len(ready) < self.n_workers:
            message = self._next_message()
            if message[0] == "ready":
                ready.add(message[1])
            # anything else ("ok" for a step not yet dispatched) is
            # impossible here; errors raise inside _next_message

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for work_queue, proc in zip(self._work_queues, self._procs):
            if proc.is_alive():
                try:
                    work_queue.put(("stop",))
                except Exception:
                    pass
        for proc in self._procs:
            proc.join(timeout=_JOIN_SECONDS)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_JOIN_SECONDS)
        queues = list(self._work_queues)
        if self._result_queue is not None:
            queues.append(self._result_queue)
        for q in queues:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        for shm in self._shms:
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass
        self._procs = []
        self._work_queues = []
        self._result_queue = None
        self._shms = []

    # -- the step -------------------------------------------------------

    def step(self, indices: np.ndarray) -> LossTerms:
        if self._closed:
            raise RuntimeError("ParallelTrainStep is closed (setup not active)")
        self._step_id += 1
        step_id = self._step_id
        # Publish the authoritative parameters.  They live on the master
        # (Adam rebinds param.data each update, so parameters cannot be
        # long-lived shared-memory views); one copy pass per step.
        write_parameters(self.model, self.param_layout, self._state_shm.buf)
        shards = split_indices(indices, self.n_workers)
        weights = shard_weights(shards)
        for k, shard in enumerate(shards):
            self._work_queues[k].put(("step", step_id, shard))
        results = self._collect(len(shards), step_id)
        shard_grads = []
        shard_terms = []
        for k in range(len(shards)):
            present, terms = results[k]
            views = self.grad_layout.views(
                self._state_shm.buf, base=self._grad_bases[k]
            )
            shard_grads.append((present, views))
            shard_terms.append(terms)
        reduce_gradients(self.model, shard_grads, weights)
        terms = reduce_loss_terms(shard_terms, weights)
        self.apply_update(terms)
        return terms

    def _collect(self, expected: int, step_id: int) -> dict:
        """Gather one result per dispatched shard, keyed by worker index."""
        results: dict = {}
        while len(results) < expected:
            message = self._next_message()
            if message[0] != "ok":
                continue  # late "ready" duplicates are harmless
            _, worker, seen_step, present, terms = message
            if seen_step != step_id:
                continue  # stale result from an aborted step
            results[worker] = (present, terms)
        return results

    def _next_message(self):
        """One result-queue message; raises promptly on worker failure."""
        while True:
            try:
                message = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                self._check_alive()
                continue
            if message[0] == "error":
                _, worker, tb = message
                proc = self._procs[worker]
                raise RuntimeError(
                    f"data-parallel worker {worker} "
                    f"({proc.name}, pid {proc.pid}) failed:\n{tb}"
                )
            return message

    def _check_alive(self) -> None:
        """Raise naming any dead worker — a crash must never hang ``fit``."""
        dead = [
            (k, proc)
            for k, proc in enumerate(self._procs)
            if not proc.is_alive()
        ]
        if not dead:
            return
        # Give an exiting worker's final error message a moment to land
        # so the traceback makes it into the exception.
        deadline_polls = int(_DRAIN_SECONDS / _POLL_SECONDS)
        for _ in range(deadline_polls):
            try:
                message = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                break
            if message[0] == "error":
                _, worker, tb = message
                proc = self._procs[worker]
                raise RuntimeError(
                    f"data-parallel worker {worker} "
                    f"({proc.name}, pid {proc.pid}) failed:\n{tb}"
                )
        k, proc = dead[0]
        raise RuntimeError(
            f"data-parallel worker {k} ({proc.name}, pid {proc.pid}) died "
            f"with exit code {proc.exitcode} before returning its gradient "
            "shard"
        )
