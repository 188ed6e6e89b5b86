"""The paper workloads, driven through the program's public entry points.

Every workload builds its inputs from the seed alone: the SQ-VAE's
initial weights and noise stream, the batch order, the prior draws and
the request schedule.  The ligand set is the program's default
PDBbind-like set (see :func:`make_data`).  Each measures for
the requested seconds (longer only when a percentile needs more samples,
and on the serving workload, whose phases are fixed request counts),
checks its outputs, and returns a :class:`Result`.

Set-up runs :data:`SETUP_REPS` times and ``setup_s`` is the median, so
work moved into set-up shows.  Quality metrics (``recon_mse``,
``sample_qed_mean``) are computed after the measured window from the
workload's trained model.

Traced runs (``trace=True``) alternate untraced and traced operations
(fits, sets, blocks of requests) through one window, installing the
:mod:`spans` wrappers for each traced one, so both sides see the same host
state; their medians give ``trace.overhead_frac`` and the per-layer
metrics come from the traced side only.  Per-layer times are milliseconds
per root operation — per optimizer step, per 1000-molecule set, per
served request — unless the name says otherwise.
"""

from __future__ import annotations

import gc
import math
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.chem import batch as chem_batch
from repro.chem import metrics as chem_metrics
from repro.chem import sa as chem_sa
from repro.data import loader as data_loader
from repro.data.loader import train_test_split
from repro.data.pdbbind import load_pdbbind_ligands
from repro.evaluation import sampling
from repro.models.factory import build_model
from repro.models.scalable import ScalableQuantumVAE
from repro.nn import optim as nn_optim
from repro.nn.precision import resolve_precision
from repro.nn.serialization import save_module
from repro.nn.tensor import Tensor
from repro.qnn import patched as qnn_patched
from repro.serving import batcher as serving_batcher
from repro.serving import service as serving_service
from repro.serving.registry import ModelRegistry
from repro.training.trainer import TrainConfig, Trainer

import harness
import spec
from spans import Patches, Tracer

# The paper shape (Section IV): 32x32 ligands, 4 patches, 5 layers,
# batch 32, heterogeneous learning rates 0.03 / 0.01 (TrainConfig.paper_sq).
MODEL = "sq-vae"
INPUT_DIM = 1024
N_PATCHES = 4
N_LAYERS = 5
N_LIGANDS = 256  # 218 train / 38 held-out rows; 7 steps per epoch
FIT_EPOCHS = 4  # per measured fit on the training workloads
SETUP_EPOCHS = 2  # the model table2 and serving train during set-up
SETUP_REPS = 3
SET_SIZE = 1000  # Table II draws 1000 prior samples per set
SET_DRAWS = 8  # distinct prior sets, cycled so each one repeats
MIN_STEPS = 100  # smallest sample with 10 steps beyond p90

# Serving: one rate well below capacity for the latency figures, a short
# ladder of higher rates for the highest one that holds the latency
# limit, then a closed loop for capacity.  A rate holds the limit when
# the highest percentile of due-to-done time its request count supports
# (p99 at the reference rate, p98 on a rung) is within LIMIT_MS, no
# request failed, and the backlog drained within the limit.
REF_RATE = 100.0
LADDER = (150.0, 200.0, 300.0)
LIMIT_MS = 100.0
MIN_REQUESTS = 1000  # smallest sample with 10 requests beyond p99
RUNG_REQUESTS = 500  # 10 requests beyond p98
WARMUP_REQUESTS = 100
REQUEST_TIMEOUT_S = 5.0
CAPACITY_REQUESTS = 1500
IN_FLIGHT = 16  # requests the capacity loop keeps outstanding
POOL = 32  # distinct payloads per request kind
TRACE_BLOCK = 250  # requests per alternating block of a traced run
REQUEST_ROWS = 4

# No run may exceed this many measured seconds, whatever it still lacks.
HARD_CAP_S = 100.0


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)  # end-to-end, untraced
    layers: dict = field(default_factory=dict)  # per-layer, traced
    report: list = field(default_factory=list)  # human-readable lines
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # failed output checks

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, ok: bool, what: str) -> None:
        if not ok and what not in self.problems:
            self.problems.append(what)


_clock = time.perf_counter


# ----------------------------------------------------------------------
# Shared set-up pieces
# ----------------------------------------------------------------------
@dataclass
class SetupTimes:
    total: list = field(default_factory=list)
    generate: list = field(default_factory=list)
    fragment_table: list = field(default_factory=list)


def make_data(times: SetupTimes):
    """The program's own PDBbind-like set and a fixed 85/15 split.

    The data do not depend on the run seed: every run trains on the same
    ligands, so seeds vary what a user's reruns vary (initial weights,
    reparameterization noise, batch order, prior draws, traffic) and not
    the data set's size distribution, which would move every timing.
    """
    started = _clock()
    data = load_pdbbind_ligands(n_samples=N_LIGANDS)
    times.generate.append(_clock() - started)
    train, test = train_test_split(data, test_fraction=0.15)
    return data, train, test


def make_model(seed: int, train):
    model = build_model(MODEL, INPUT_DIM, N_PATCHES, N_LAYERS, 16, seed)
    model.init_output_bias(train.features.mean(axis=0))
    return model


def paper_config(seed: int, epochs: int) -> TrainConfig:
    return TrainConfig.paper_sq(epochs=epochs, seed=seed)


def build_fragment_table(times: SetupTimes) -> None:
    """Rebuild the cached SA fragment table, as a fresh process would."""
    chem_sa.default_fragment_table.cache_clear()
    started = _clock()
    chem_sa.default_fragment_table()
    times.fragment_table.append(_clock() - started)


def prior_set(model, seed: int, draw: int):
    """One Table II set: sample, decode, correct and score 1000 molecules."""
    rng = np.random.default_rng([seed, draw])
    matrices = sampling.sample_matrices(model, SET_SIZE, rng)
    return chem_metrics.score_matrices(matrices)


def scores_finite(scores) -> bool:
    return all(math.isfinite(v) for v in (scores.qed, scores.logp, scores.sa,
                                          scores.validity, scores.uniqueness))


def quality(result: Result, model, seed: int, recon_mse: float,
            first_set=None) -> None:
    """The two quality metrics every workload reports."""
    scores = first_set if first_set is not None else prior_set(model, seed, 0)
    result.check(scores_finite(scores), "non-finite prior-set scores")
    result.check(math.isfinite(recon_mse), "non-finite held-out loss")
    result.metrics["recon_mse"] = recon_mse
    result.metrics["sample_qed_mean"] = scores.qed
    result.report.append(
        f"prior set [seed {seed}, draw 0]: {scores.n_scored}/{scores.n_total} "
        f"scored, validity {scores.validity:.4f}, logP {scores.logp:.4f}, "
        f"SA {scores.sa:.4f}, uniqueness {scores.uniqueness:.4f}"
    )


def _empty_layers() -> dict:
    return {name: 0.0 for name in spec.PER_LAYER}


def _per_op(totals, name: str, n_ops: int, self_time=False) -> float:
    if name not in totals or n_ops == 0:
        return 0.0
    seconds = totals[name].self_seconds if self_time else totals[name].seconds
    return seconds * 1e3 / n_ops


def _common_layers(layers: dict, totals, n_ops: int, tracer: Tracer) -> None:
    """Layer metrics whose spans look the same on every workload."""
    layers["qnn.fwd_ms"] = _per_op(totals, "qnn.fwd", n_ops)
    layers["qnn.bwd_ms"] = _per_op(totals, "qnn.bwd", n_ops)
    if n_ops:
        layers["qnn.fwd_calls"] = totals["qnn.fwd"].calls / n_ops
        layers["qnn.bwd_calls"] = totals["qnn.bwd"].calls / n_ops
        layers["qnn.fwd_rows"] = tracer.counts["qnn.fwd_rows"] / n_ops
    layers["evaluation.decode_ms"] = _per_op(totals, "evaluation.decode", n_ops)
    for short in ("pack", "valid", "sanitize", "qed", "logp", "sa", "unique"):
        layers[f"chem.{short}_ms"] = _per_op(totals, f"chem.{short}", n_ops,
                                             self_time=True)


def timings(result: Result, speed: harness.HostSpeed, setup_window,
            measure_window, setup_s: float, throughput: float, p50_ms: float,
            tail_ms: float) -> None:
    """Record the timing metrics as on a reference-speed host.

    Each figure is divided (a rate multiplied) by the host-speed factor of
    the window it was measured in; the figures as measured are printed.
    """
    f_setup = speed.factor(*setup_window)
    f_measure = speed.factor(*measure_window)
    result.metrics.update({
        "setup_s": setup_s / f_setup,
        "peak_rss_mb": harness.peak_rss_mb(),
        "throughput_per_s": throughput * f_measure,
        "op_p50_ms": p50_ms / f_measure,
        "op_tail_ms": tail_ms / f_measure,
    })
    result.report.append(
        f"host speed factor {f_setup:.4f} in set-up, {f_measure:.4f} while "
        f"measuring ({len(speed.samples)} probes, reference "
        f"{harness.PROBE_REF_MS} ms); as measured: setup_s {setup_s:.4f}, "
        f"throughput_per_s {throughput:.4f}, op_p50_ms {p50_ms:.4f}, "
        f"op_tail_ms {tail_ms:.4f}")


def install_patches(patches: Patches, model_cls=None) -> None:
    """Wrap each layer's public functions where their callers find them."""
    def count_rows(tracer, args, kwargs):
        inputs = args[1]  # execute_stacked(template, inputs (p, batch, n), ...)
        tracer.count("qnn.fwd_rows", inputs.shape[0] * inputs.shape[1])

    patches.wrap(qnn_patched, "execute_stacked", "qnn.fwd", count_rows)
    patches.wrap(qnn_patched, "backward_stacked", "qnn.bwd")
    if model_cls is not None:
        patches.wrap(model_cls, "forward", "nn.forward")
    patches.wrap(Tensor, "backward", "nn.backward")
    patches.wrap(nn_optim.Adam, "step", "nn.optim")
    patches.wrap(data_loader.DataLoader, "iter_index_batches",
                 "training.loader")
    patches.wrap(Trainer, "evaluate", "training.eval")
    patches.wrap(sampling, "sample_matrices", "evaluation.decode")
    patches.wrap(serving_service, "decode_latents", "evaluation.decode")
    patches.wrap(chem_batch.MoleculeBatch, "from_matrices", "chem.pack")
    patches.wrap(chem_batch.MoleculeBatch, "from_molecules", "chem.pack")
    for module in (chem_metrics, chem_batch):
        patches.wrap(module, "valid_mask", "chem.valid")
    for module in (chem_metrics, serving_service):
        patches.wrap(module, "sanitize_batch", "chem.sanitize")
        patches.wrap(module, "qed_batch", "chem.qed")
        patches.wrap(module, "normalized_logp_batch", "chem.logp")
        patches.wrap(module, "normalized_sa_batch", "chem.sa")
    patches.wrap(chem_metrics, "unique_fraction", "chem.unique")


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
class TimedStep:
    """A TrainStep that delegates to the trainer's own and times each step.

    Counts steps attempted and failed (raised, or a non-finite loss).
    """

    def __init__(self, inner, tracer: Tracer | None):
        self.inner = inner
        self.tracer = tracer
        self.steps_ms: list[float] = []
        self.attempted = 0
        self.failed = 0

    def setup(self, trainer, features) -> None:
        self.inner.setup(trainer, features)

    def step(self, indices):
        self.attempted += 1
        span = (nullcontext() if self.tracer is None
                else self.tracer.span("training.step"))
        started = _clock()
        try:
            with span:
                terms = self.inner.step(indices)
        except Exception:
            self.failed += 1
            raise
        self.steps_ms.append((_clock() - started) * 1e3)
        if not math.isfinite(terms.total):
            self.failed += 1
        return terms

    def close(self) -> None:
        self.inner.close()


@dataclass
class FitPhase:
    steps_ms: list = field(default_factory=list)
    loop_s: float = 0.0
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    fits: int = 0


def _fit_once(state, phase: FitPhase, tracer, result: Result):
    seed, train, test = state["seed"], state["train"], state["test"]
    model = make_model(seed, train)
    trainer = Trainer(model, paper_config(seed, FIT_EPOCHS))
    timed = TimedStep(trainer.strategy, tracer)
    trainer.strategy = timed
    started = _clock()
    try:
        history = trainer.fit(train, test)
    except Exception as exc:
        result.check(False, f"fit raised {type(exc).__name__}: {exc}")
        history = None
    phase.loop_s += _clock() - started
    phase.fits += 1
    phase.attempted += timed.attempted
    phase.failed += timed.failed
    phase.steps_ms += timed.steps_ms
    if history is None:
        return model, None
    phase.rows += len(train) * len(history.epochs)
    losses = (history.batch_losses, [e.test_loss for e in history.epochs])
    result.check(all(math.isfinite(v) for v in losses[0] + losses[1]),
                 "non-finite training loss")
    reference = state.setdefault("reference_losses", losses)
    result.check(losses == reference,
                 "same-seed refit gave a different loss history")
    return model, history


def _fit_phase(state, seconds: float, result: Result, min_steps: int = 0,
               tracer: Tracer | None = None):
    """Repeat same-seed fits until the window closes.

    With a tracer, fits alternate untraced and traced (an even number of
    each); ``traced`` stays empty without one.
    """
    plain, traced = FitPhase(), FitPhase()
    started = _clock()
    model = history = None
    k = 0
    while True:
        if tracer is not None and k % 2:
            with Patches(tracer) as patches:
                install_patches(patches, ScalableQuantumVAE)
                model, history = _fit_once(state, traced, tracer, result)
        else:
            model, history = _fit_once(state, plain, None, result)
        k += 1
        elapsed = _clock() - started
        if history is None or elapsed > HARD_CAP_S:
            break
        if (elapsed >= seconds and len(plain.steps_ms) >= min_steps
                and (tracer is None or k % 2 == 0)):
            break
    return plain, traced, model, history


def _train_setup(seed: int, times: SetupTimes):
    state = None
    for _ in range(SETUP_REPS):
        started = _clock()
        data, train, test = make_data(times)
        make_model(seed, train)
        times.total.append(_clock() - started)
        state = {"seed": seed, "train": train, "test": test}
    return state


def run_train(seed: int, seconds: float, trace: bool,
              speed: harness.HostSpeed) -> Result:
    result = Result()
    times = SetupTimes()
    started = _clock()
    state = _train_setup(seed, times)
    setup_window = (started, _clock())
    if not trace:
        phase, _, model, history = _fit_phase(state, seconds, result,
                                              MIN_STEPS)
        _train_metrics(result, phase, times, speed,
                       setup_window, (setup_window[1], _clock()))
        if history is not None:
            quality(result, model, seed, history.epochs[-1].test_loss)
    else:
        tracer = Tracer()
        phase, traced, _, _ = _fit_phase(state, seconds, result,
                                         tracer=tracer)
        _train_layers(result, phase, traced, tracer, times)
        phase.attempted += traced.attempted
        phase.failed += traced.failed
    result.attempted = phase.attempted
    result.failed = phase.failed
    return result


def _train_metrics(result: Result, phase: FitPhase, times: SetupTimes,
                   speed: harness.HostSpeed, setup_window,
                   measure_window) -> None:
    steps = phase.steps_ms
    if not steps:
        return
    q, tail = harness.tail_percentile(steps, 90)
    timings(result, speed, setup_window, measure_window,
            harness.median(times.total), phase.rows / phase.loop_s,
            harness.median(steps), tail)
    result.report.append(
        f"{phase.fits} fits x {FIT_EPOCHS} epochs, {len(steps)} steps, "
        f"{phase.rows} rows in {phase.loop_s:.2f} s of fit loop; step tail "
        f"is p{q:g}"
    )


def _train_layers(result: Result, plain: FitPhase, traced: FitPhase,
                  tracer: Tracer, times: SetupTimes) -> None:
    totals = tracer.summary()
    layers = _empty_layers()
    steps = totals["training.step"].calls
    _common_layers(layers, totals, steps, tracer)
    layers["nn.forward_self_ms"] = _per_op(totals, "nn.forward", steps, True)
    layers["nn.backward_self_ms"] = _per_op(totals, "nn.backward", steps, True)
    layers["nn.optim_ms"] = _per_op(totals, "nn.optim", steps)
    layers["training.step_ms"] = _per_op(totals, "training.step", steps)
    layers["training.loader_ms"] = _per_op(totals, "training.loader", steps)
    layers["training.eval_ms"] = _per_op(totals, "training.eval", steps)
    layers["data.generate_s"] = harness.median(times.generate)
    layers["trace.overhead_frac"] = (
        harness.median(traced.steps_ms) / harness.median(plain.steps_ms) - 1.0
    )
    layers["trace.unattributed_frac"] = _unattributed(totals, "training.step")
    result.layers = layers

def _unattributed(totals, root: str) -> float:
    if root not in totals or totals[root].seconds == 0:
        return 0.0
    return totals[root].self_seconds / totals[root].seconds


# ----------------------------------------------------------------------
# Table II: sample -> decode -> correct -> score
# ----------------------------------------------------------------------
def _trained_model(seed: int, times: SetupTimes):
    """Set-up shared by table2 and serving: data, a short paper fit, and
    the SA fragment table."""
    data, train, test = make_data(times)
    model = make_model(seed, train)
    history = Trainer(model, paper_config(seed, SETUP_EPOCHS)).fit(train, test)
    build_fragment_table(times)
    return data, model, history.epochs[-1].test_loss


def _one_set(model, seed: int, draw: int, tracer):
    if tracer is None:
        return prior_set(model, seed, draw)
    with Patches(tracer) as patches:
        install_patches(patches)
        with tracer.span("table2.set"):
            scores = prior_set(model, seed, draw)
    tracer.count("chem.molecules", scores.n_total)
    tracer.count("chem.usable", scores.n_scored)
    return scores


def _set_phase(model, seed: int, seconds: float, reference: dict,
               result: Result, tracer: Tracer | None = None):
    """Score prior sets, cycling through SET_DRAWS draws, until the window
    closes.  With a tracer, sets alternate untraced and traced, shifted by
    one each cycle so every draw is seen both ways; ``traced_ms`` stays
    empty without one."""
    plain_ms, traced_ms = [], []
    started = _clock()
    k = 0
    while True:
        draw = k % SET_DRAWS
        traced = tracer is not None and (k + k // SET_DRAWS) % 2 == 1
        t0 = _clock()
        scores = _one_set(model, seed, draw, tracer if traced else None)
        (traced_ms if traced else plain_ms).append((_clock() - t0) * 1e3)
        result.attempted += 1
        if not scores_finite(scores):
            result.failed += 1
            result.check(False, "non-finite prior-set scores")
        first = reference.setdefault(draw, scores)
        if scores != first:
            result.failed += 1
            result.check(False, f"prior set draw {draw} scored differently "
                                "on a same-seed repeat")
        k += 1
        elapsed = _clock() - started
        if elapsed > HARD_CAP_S:
            break
        # Every draw repeats at least once, so the same-seed check always
        # runs, and a traced run has untraced and traced sets of each draw.
        if elapsed >= seconds and k >= 2 * SET_DRAWS:
            break
    return plain_ms, traced_ms, elapsed


def run_table2(seed: int, seconds: float, trace: bool,
               speed: harness.HostSpeed) -> Result:
    result = Result()
    times = SetupTimes()
    setup_start = _clock()
    for _ in range(SETUP_REPS):
        started = _clock()
        _, model, recon_mse = _trained_model(seed, times)
        times.total.append(_clock() - started)
    setup_window = (setup_start, _clock())
    reference: dict = {}
    if not trace:
        times_ms, _, elapsed = _set_phase(model, seed, seconds, reference,
                                          result)
        q, tail = harness.tail_percentile(times_ms, 90)
        timings(result, speed, setup_window, (setup_window[1], _clock()),
                harness.median(times.total),
                SET_SIZE * len(times_ms) / elapsed,
                harness.median(times_ms), tail)
        result.report.append(
            f"{len(times_ms)} sets of {SET_SIZE} in {elapsed:.2f} s; "
            f"op_tail_ms is p{q:g} (the highest the set count supports); "
            f"fragment table {harness.median(times.fragment_table):.3f} s"
        )
        quality(result, model, seed, recon_mse, reference[0])
        return result
    tracer = Tracer()
    plain_ms, traced_ms, _ = _set_phase(model, seed, seconds, reference,
                                        result, tracer)
    totals = tracer.summary()
    layers = _empty_layers()
    n_sets = totals["table2.set"].calls
    _common_layers(layers, totals, n_sets, tracer)
    layers["chem.molecules"] = tracer.counts["chem.molecules"] / n_sets
    layers["chem.usable"] = tracer.counts["chem.usable"] / n_sets
    layers["chem.usable_frac"] = (tracer.counts["chem.usable"]
                                  / tracer.counts["chem.molecules"])
    layers["chem.fragment_table_s"] = harness.median(times.fragment_table)
    layers["data.generate_s"] = harness.median(times.generate)
    layers["trace.overhead_frac"] = (harness.median(traced_ms)
                                     / harness.median(plain_ms) - 1.0)
    layers["trace.unattributed_frac"] = _unattributed(totals, "table2.set")
    result.layers = layers
    return result


# ----------------------------------------------------------------------
# Serving: open-loop sample/score traffic on GenerationService
# ----------------------------------------------------------------------
class ServeState:
    """A warm service over a saved checkpoint, plus the request pool.

    ``expected`` holds each pooled request's result as the service returns
    it with nothing else in flight — the sequential single-request result
    every fused response must equal.
    """

    def __init__(self, seed: int, times: SetupTimes, workdir: Path):
        data, model, self.recon_mse = _trained_model(seed, times)
        self.model = model
        self.seed = seed
        self.checkpoint = save_module(model, workdir / "sq-vae.npz", metadata={
            "model": MODEL, "input_dim": INPUT_DIM, "n_patches": N_PATCHES,
            "n_layers": N_LAYERS, "latent_dim": 16, "seed": seed,
            "precision": resolve_precision(None).name, "backend": None,
        })
        self.service = serving_service.GenerationService(
            ModelRegistry(), default_timeout=REQUEST_TIMEOUT_S)
        self.service.registry.load(self.checkpoint)
        rng = np.random.default_rng([seed, 1])
        self.sample_seeds = [int(s) for s in rng.integers(0, 2**31, POOL)]
        rows = rng.integers(0, len(data), (POOL, REQUEST_ROWS))
        self.score_stacks = [data.raw[r].astype(np.float64) for r in rows]
        self.expected = None
        self.sequential_ms = {"sample": [], "score": []}

    def compute_expected(self) -> None:
        self.expected = {"sample": [], "score": []}
        for j in range(POOL):
            for kind in ("sample", "score"):
                started = _clock()
                out = self.call(kind, j)
                self.sequential_ms[kind].append((_clock() - started) * 1e3)
                self.expected[kind].append(out)

    def call(self, kind: str, j: int):
        return self.submit(kind, j).result(REQUEST_TIMEOUT_S)

    def submit(self, kind: str, j: int):
        if kind == "sample":
            return self.service.sample_async(
                REQUEST_ROWS, seed=self.sample_seeds[j],
                checkpoint=self.checkpoint, timeout=REQUEST_TIMEOUT_S)
        return self.service.score_async(self.score_stacks[j],
                                        timeout=REQUEST_TIMEOUT_S)

    def matches(self, kind: str, j: int, out) -> bool:
        want = self.expected[kind][j]
        if kind == "sample":
            return np.array_equal(out, want)
        return out.keys() == want.keys() and all(
            np.array_equal(out[name], want[name]) for name in want)

    def close(self) -> None:
        self.service.close()


@dataclass
class RatePhase:
    rate: float
    loop: harness.OpenLoop
    records: list
    failed: int
    responses_per_s: float
    response_ms: list
    p50_ms: float
    tail_q: float
    tail_ms: float
    met: bool


def run_rate(state: ServeState, rate: float, n: int, plan_rng,
             result: Result, tracer=None, window=None) -> RatePhase:
    """Send ``n`` requests of the 50/50 mix at ``rate`` per second and
    check every response against its sequential result."""
    kinds = plan_rng.random(n) < 0.5
    picks = plan_rng.integers(0, POOL, n)
    outputs: dict[int, tuple] = {}

    def send(record):
        kind = "sample" if kinds[record.index] else "score"
        future = state.submit(kind, int(picks[record.index]))

        def done(fut):
            exc = fut.exception()
            if exc is None:
                outputs[record.index] = (kind, fut.result())
            loop.finish(record, None if exc is None else type(exc).__name__)

        future.add_done_callback(done)

    loop = harness.OpenLoop(rate, n, send, window=window)
    records = loop.run(timeout=REQUEST_TIMEOUT_S * 4)
    # Responses per second and their latencies, taken before the output
    # check marks wrong ones failed: how fast the service worked, right or
    # wrong.
    responses_per_s = loop.achieved_rate()
    response_ms = [r.latency_ms for r in records if r.ok]
    for record in records:
        if record.ok:
            kind, out = outputs[record.index]
            if not state.matches(kind, int(picks[record.index]), out):
                record.error = "mismatch"
                result.check(False, f"served {kind} response differs from "
                                    "its sequential result")
            elif tracer is not None and kind == "score":
                tracer.count("chem.molecules", REQUEST_ROWS)
                tracer.count("chem.usable", int(out["usable"].sum()))
        # A refusal at submit is recorded as "QueueFull: <message>".
        if tracer is not None and (record.error or "").startswith("QueueFull"):
            tracer.count("serving.queue_full")
    failed = harness.count_failed(records)
    result.attempted += len(records)
    result.failed += failed
    # A failed request counts as waiting out the request timeout, the most
    # a client waits: above any limit, yet a finite figure to report.
    latencies = [min(r.latency_ms, REQUEST_TIMEOUT_S * 1e3) for r in records]
    q, tail_ms = harness.tail_percentile(latencies, 99)
    met = (not loop.stopped_early and q > 50.0
           and harness.meets_limit(records, q, LIMIT_MS, loop.drain_ms()))
    return RatePhase(rate, loop, records, failed, responses_per_s,
                     response_ms, harness.median(latencies), q, tail_ms, met)


def _requests(rate: float, seconds: float) -> int:
    return max(MIN_REQUESTS, int(rate * seconds))


def run_serve(seed: int, seconds: float, trace: bool,
              speed: harness.HostSpeed) -> Result:
    result = Result()
    times = SetupTimes()
    root = Path(__file__).resolve().parent.parent / ".bench_build"
    root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=root))
    state = None
    try:
        setup_start = _clock()
        for _ in range(SETUP_REPS):
            if state is not None:
                state.close()
            started = _clock()
            state = ServeState(seed, times, workdir)
            times.total.append(_clock() - started)
        setup_window = (setup_start, _clock())
        state.compute_expected()
        plan_rng = np.random.default_rng([seed, 2])
        # Collect the set-ups' garbage and run a short untimed stretch at
        # the reference rate, so neither lands in the first timed requests.
        gc.collect()
        run_rate(state, REF_RATE, WARMUP_REQUESTS, plan_rng, result)
        if not trace:
            _serve_measure(state, seconds, plan_rng, result, times, speed,
                           setup_window)
            quality(result, state.model, seed, state.recon_mse)
        else:
            _serve_trace(state, seconds, plan_rng, result, times)
    finally:
        if state is not None:
            state.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _serve_measure(state: ServeState, seconds: float, plan_rng,
                   result: Result, times: SetupTimes,
                   speed: harness.HostSpeed, setup_window) -> None:
    ref = run_rate(state, REF_RATE, _requests(REF_RATE, 0.6 * seconds),
                   plan_rng, result)
    rungs = [ref]
    for rate in LADDER:
        if not rungs[-1].met:
            break
        rungs.append(run_rate(state, rate, RUNG_REQUESTS, plan_rng, result))
    held = [phase for phase in rungs if phase.met]
    started = _clock()
    capacity = run_rate(state, math.inf, CAPACITY_REQUESTS, plan_rng, result,
                        window=IN_FLIGHT)
    # The bounded latencies are the closed loop's, like its throughput.
    # Those at the reference rate are printed only: under load well below
    # capacity they follow the host's slow spells, queueing included, far
    # more than the host-speed factor does (p90 17-41 ms over ten seeds).
    q, tail_ms = harness.tail_percentile(capacity.response_ms, 99)
    timings(result, speed, setup_window, (started, _clock()),
            harness.median(times.total), capacity.responses_per_s,
            harness.median(capacity.response_ms), tail_ms)
    seq = state.sequential_ms
    result.report.append(
        f"sequential requests: sample {harness.median(seq['sample']):.2f} ms,"
        f" score {harness.median(seq['score']):.2f} ms (median of {POOL})")
    for phase in rungs:
        result.report.append(
            f"rate {phase.rate:g}/s: {len(phase.records)} requests, "
            f"{phase.failed} failed, p50 {phase.p50_ms:.2f} ms, "
            f"p{phase.tail_q:g} {phase.tail_ms:.2f} ms, drain "
            f"{phase.loop.drain_ms():.1f} ms, generator late <= "
            f"{phase.loop.late_ms_max():.2f} ms, "
            f"{'met' if phase.met else 'missed'} the {LIMIT_MS:g} ms limit")
    result.report.append(
        f"serve_max_rate_rps = {held[-1].rate if held else 0.0:g} 1/s  "
        "[highest fixed rate that met the limit, 0 if none did; printed, "
        "not bounded: it moves in ladder steps]")
    result.report.append(
        f"capacity: {len(capacity.records)} requests with {IN_FLIGHT} in "
        f"flight, {capacity.failed} failed; response p50 and p{q:g} "
        "are op_p50_ms and op_tail_ms")


def _install_serve_patches(patches: Patches, tracer: Tracer) -> None:
    def queue_waits(tracer, args, kwargs):
        # A request's deadline is its submit time plus the fixed timeout.
        now = time.monotonic()
        for request in args[1]:
            tracer.sample("serving.queue_wait_ms",
                          (now - (request.deadline - REQUEST_TIMEOUT_S)) * 1e3)

    install_patches(patches)
    # The batcher's flush and the service's per-kind executors are
    # private, but they are where queueing ends and a batch runs.
    patches.wrap(serving_batcher.MicroBatcher, "_flush", "serving.flush",
                 queue_waits)
    patches.wrap(serving_service.GenerationService, "_run_sample",
                 "serving.exec_sample")
    patches.wrap(serving_service.GenerationService, "_run_score",
                 "serving.exec_score")


_SERVICE_COUNTERS = (("batcher", "batches"), ("batcher", "requests"),
                     ("batcher", "expired"), ("registry", "hits"),
                     ("registry", "misses"))


def _serve_trace(state: ServeState, seconds: float, plan_rng,
                 result: Result, times: SetupTimes) -> None:
    """Blocks of TRACE_BLOCK requests at the reference rate, alternately
    untraced and traced; service counters are summed over traced blocks."""
    pairs = math.ceil(_requests(REF_RATE, seconds / 2) / TRACE_BLOCK)
    tracer = Tracer()
    plain: list[RatePhase] = []
    traced: list[RatePhase] = []
    moved = dict.fromkeys(_SERVICE_COUNTERS, 0)
    for _ in range(pairs):
        plain.append(run_rate(state, REF_RATE, TRACE_BLOCK, plan_rng, result))
        before = state.service.stats()
        with Patches(tracer) as patches:
            _install_serve_patches(patches, tracer)
            traced.append(run_rate(state, REF_RATE, TRACE_BLOCK, plan_rng,
                                   result, tracer))
        after = state.service.stats()
        for section, key in _SERVICE_COUNTERS:
            moved[section, key] += after[section][key] - before[section][key]
    totals = tracer.summary()
    layers = _empty_layers()
    records = [r for phase in traced for r in phase.records]
    _common_layers(layers, totals, sum(1 for r in records if r.ok), tracer)
    waits = tracer.values["serving.queue_wait_ms"]
    layers["serving.queue_wait_ms_p50"] = harness.median(waits)
    layers["serving.queue_wait_ms_p99"] = harness.percentile(waits, 99)
    for kind in ("sample", "score"):
        name = f"serving.exec_{kind}"
        if totals[name].calls:
            layers[f"{name}_ms"] = totals[name].seconds * 1e3 / totals[name].calls
    batches = moved["batcher", "batches"]
    layers["serving.batches"] = batches
    layers["serving.batch_size_mean"] = (moved["batcher", "requests"] / batches
                                         if batches else 0.0)
    layers["serving.expired"] = moved["batcher", "expired"]
    layers["serving.queue_full"] = tracer.counts["serving.queue_full"]
    layers["serving.registry_hits"] = moved["registry", "hits"]
    layers["serving.registry_misses"] = moved["registry", "misses"]
    layers["chem.molecules"] = tracer.counts["chem.molecules"]
    layers["chem.usable"] = tracer.counts["chem.usable"]
    if tracer.counts["chem.molecules"]:
        layers["chem.usable_frac"] = (tracer.counts["chem.usable"]
                                      / tracer.counts["chem.molecules"])
    layers["chem.fragment_table_s"] = harness.median(times.fragment_table)
    layers["data.generate_s"] = harness.median(times.generate)
    layers["loadgen.late_ms_max"] = max(p.loop.late_ms_max() for p in traced)
    plain_ms = [r.latency_ms for p in plain for r in p.records]
    layers["trace.overhead_frac"] = (
        harness.median([r.latency_ms for r in records])
        / harness.median(plain_ms) - 1.0)
    exec_seconds = sum(totals[f"serving.exec_{k}"].seconds
                       for k in ("sample", "score"))
    exec_self = sum(totals[f"serving.exec_{k}"].self_seconds
                    for k in ("sample", "score"))
    layers["trace.unattributed_frac"] = (exec_self / exec_seconds
                                         if exec_seconds else 0.0)
    result.layers = layers


RUNNERS = {
    spec.TRAIN: run_train,
    spec.TABLE2: run_table2,
    spec.SERVE: run_serve,
}
