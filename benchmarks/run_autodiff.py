"""Autodiff-regression runner: time the tape vs the closure design.

The tape refactor replaced per-op backward closures with a recorded graph
of registered primitives (:mod:`repro.nn.autodiff`).  That swap must not
tax the classical training step: this runner times identical
forward+backward workloads on the new tape ``Tensor`` and on the frozen
pre-refactor closure implementation vendored in
:mod:`closure_baseline`, derives tape-vs-closure speedups for every
``<name>`` / ``<name>_closure`` pair, and writes everything to
``BENCH_autodiff.json`` at the repo root — the file future PRs diff
against.

Paired workloads are timed *interleaved*: each round runs the tape step
then the closure step back to back, and the reported speedup is the
median of the per-round ratios.  Adjacent steps see the same machine
state, so the ratio is insensitive to the CPU-frequency drift that makes
two separately-timed minima incomparable on shared runners — which
matters here because the floors are parity (1.0x), not a wide multiple.

Alongside the paired workloads it records two absolute timings with no
baseline pair: the full SQ-AE hybrid train step (the number that matters
end to end; quantum statevector work dominates it, so it is tracked
absolute rather than floored) and a Hessian-vector product on an MLP
(the higher-order capability the tape added; the closure design cannot
run it at all).

Each payload is stamped with the git commit it was generated at plus the
CPU count and BLAS vendor (floors are only meaningful on comparable
machines), and ``--check`` turns the runner into a perf-regression gate:
it fails (exit 1) when any measured tape-vs-closure speedup drops below
its floor in :data:`SPEEDUP_FLOORS` (parity, 1.0x — the tape refactor's
contract is "no classical-step overhead").

Usage::

    PYTHONPATH=src python benchmarks/run_autodiff.py [--only SUBSTR]
        [--rounds N] [--output PATH] [--check]
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_machine import machine_stamp  # noqa: E402

_CLOSURE_SUFFIX = "_closure"

# Floors asserted by --check: the measured speedup of each tape workload
# over its ``*_closure`` twin must stay at or above these.  Both sit at
# exactly 1.0 by design — the tape refactor promised gradient parity at no
# classical-step cost, so the gate is "never slower than the design it
# replaced" rather than a headline win.  (Measured medians land at
# ~1.05-1.3x: the tape's generic walk skips per-op closure allocation and
# adopts intermediate cotangents without the defensive copy the closure
# design paid per node.)
SPEEDUP_FLOORS = {
    "bench_mlp_fwd_bwd": 1.0,
    "bench_elementwise_chain_fwd_bwd": 1.0,
}



def git_commit() -> str | None:
    """The commit the benchmarked tree is based on, or None outside git.

    Suffixed with ``-dirty`` when the working tree has uncommitted changes,
    so BENCH_autodiff.json never attributes numbers measured on modified
    code to a clean commit.
    """
    def _git(*args):
        try:
            proc = subprocess.run(
                ["git", *args],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout if proc.returncode == 0 else None

    head = _git("rev-parse", "HEAD")
    if head is None:
        return None
    status = _git("status", "--porcelain")
    dirty = "-dirty" if status is None or status.strip() else ""
    return head.strip() + dirty


class TimerShim:
    """Duck-types the pytest-benchmark fixture: ``benchmark(fn)`` times
    min/mean over ``rounds`` calls after one warmup (the warmup also absorbs
    one-time work like quantum plan compilation)."""

    def __init__(self, rounds: int):
        self.rounds = rounds
        self.stats: dict[str, float] | None = None

    def __call__(self, fn):
        result = fn()  # warmup
        times = []
        for _ in range(self.rounds):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
        self.stats = {
            "min_s": min(times),
            "mean_s": sum(times) / len(times),
            "max_s": max(times),
            "rounds": self.rounds,
        }
        return result


def _stats(times: list) -> dict:
    return {
        "min_s": min(times),
        "mean_s": sum(times) / len(times),
        "max_s": max(times),
        "rounds": len(times),
    }


def run_pair(builder, rounds: int):
    """Time a paired workload interleaved: tape step, closure step, repeat.

    Returns ``(tape_stats, closure_stats, median_ratio)`` where the ratio
    is closure-time / tape-time per round — the drift-insensitive speedup
    the floors gate on.
    """
    from repro.nn.tensor import Tensor
    from closure_baseline import ClosureTensor

    tape_step = builder(Tensor)
    closure_step = builder(ClosureTensor)
    tape_step()  # warmup both sides
    closure_step()
    tape_times, closure_times, ratios = [], [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        tape_step()
        t1 = time.perf_counter()
        closure_step()
        t2 = time.perf_counter()
        tape_times.append(t1 - t0)
        closure_times.append(t2 - t1)
        ratios.append((t2 - t1) / (t1 - t0))
    return _stats(tape_times), _stats(closure_times), statistics.median(ratios)


# ----------------------------------------------------------------------
# Paired workloads: identical math on the tape Tensor and the frozen
# closure baseline.  Each builder takes the tensor class and returns a
# zero-arg step closure doing one full forward+backward; parameters
# persist across rounds (grads are cleared each step) so what gets timed
# is the steady-state training cost.
# ----------------------------------------------------------------------

_MLP_DIMS = (128, 256, 64)  # in -> hidden -> out
_MLP_BATCH = 64
_CHAIN_SHAPE = (64, 128)
_CHAIN_DEPTH = 30


def _mlp_step(tensor_cls):
    rng = np.random.default_rng(0)
    d_in, d_hidden, d_out = _MLP_DIMS
    x = tensor_cls(rng.normal(size=(_MLP_BATCH, d_in)))
    y = tensor_cls(rng.normal(size=(_MLP_BATCH, d_out)))
    w1 = tensor_cls(rng.normal(size=(d_in, d_hidden)) * 0.1, requires_grad=True)
    b1 = tensor_cls(np.zeros(d_hidden), requires_grad=True)
    w2 = tensor_cls(rng.normal(size=(d_hidden, d_out)) * 0.1, requires_grad=True)
    b2 = tensor_cls(np.zeros(d_out), requires_grad=True)
    params = (w1, b1, w2, b2)
    scale = 1.0 / (_MLP_BATCH * d_out)

    def step():
        for p in params:
            p.zero_grad()
        hidden = (x @ w1 + b1).relu()
        pred = hidden @ w2 + b2
        loss = ((pred - y) ** 2).sum() * scale
        loss.backward()
        return w1.grad

    return step


def _chain_step(tensor_cls):
    rng = np.random.default_rng(1)
    t0 = tensor_cls(rng.normal(size=_CHAIN_SHAPE), requires_grad=True)

    def step():
        t0.zero_grad()
        t = t0
        for _ in range(_CHAIN_DEPTH):
            t = (t * 0.9 + 0.05).tanh()
            t = t.sigmoid() * t
        (t * t).sum().backward()
        return t0.grad

    return step


# ``<name>`` / ``<name>_closure`` stats pairs come from these builders,
# timed interleaved by :func:`run_pair`.
PAIRED_BENCHES = {
    "bench_mlp_fwd_bwd": _mlp_step,
    "bench_elementwise_chain_fwd_bwd": _chain_step,
}


# ----------------------------------------------------------------------
# Absolute timings (no closure pair): the end-to-end hybrid train step the
# refactor must not tax, and the higher-order capability it added.
# ----------------------------------------------------------------------


def bench_hybrid_train_step(benchmark):
    """Full SQ-AE train step: forward, MSE, tape backward through the
    stacked quantum adjoints, SGD update."""
    from repro.models.scalable import ScalableQuantumAE
    from repro.nn.functional import mse_loss
    from repro.nn.optim import SGD
    from repro.nn.tensor import Tensor

    rng = np.random.default_rng(2)
    model = ScalableQuantumAE(
        input_dim=64, n_patches=2, n_layers=1, rng=np.random.default_rng(3)
    )
    optimizer = SGD(model.parameters(), lr=0.01)
    x = Tensor(rng.normal(size=(8, 64)))

    def step():
        optimizer.zero_grad()
        loss = mse_loss(model(x).reconstruction, x)
        loss.backward()
        optimizer.step()
        return loss.data

    benchmark(step)


def bench_hvp_mlp(benchmark):
    """Hessian-vector product through the MLP workload — grad-of-grad on
    the tape; the closure design had no equivalent."""
    from repro.nn import Tensor, hvp

    rng = np.random.default_rng(4)
    d_in, d_hidden, d_out = _MLP_DIMS
    x = Tensor(rng.normal(size=(_MLP_BATCH, d_in)))
    y = Tensor(rng.normal(size=(_MLP_BATCH, d_out)))
    w1 = Tensor(rng.normal(size=(d_in, d_hidden)) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal(size=(d_hidden, d_out)) * 0.1, requires_grad=True)
    v1 = rng.normal(size=w1.shape)
    v2 = rng.normal(size=w2.shape)
    scale = 1.0 / (_MLP_BATCH * d_out)

    def step():
        pred = (x @ w1).relu() @ w2
        loss = ((pred - y) ** 2).sum() * scale
        h1, h2 = hvp(loss, [w1, w2], [v1, v2])
        return h1.data

    benchmark(step)


def discover(only: str | None):
    module = sys.modules[__name__]
    benches = []
    for name, fn in inspect.getmembers(module, inspect.isfunction):
        if not name.startswith("bench_"):
            continue
        if only and only not in name:
            continue
        params = inspect.signature(fn).parameters
        if list(params) != ["benchmark"]:
            continue
        benches.append((name, fn))
    return sorted(benches)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", help="substring filter on benchmark names")
    parser.add_argument("--rounds", type=int, default=30,
                        help="timed rounds per benchmark (default 30)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_autodiff.json")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any measured speedup falls below its "
                             "floor in SPEEDUP_FLOORS")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    results: dict[str, dict] = {}
    measured: dict[str, float] = {}
    ran = 0
    for name, builder in sorted(PAIRED_BENCHES.items()):
        if args.only and args.only not in name:
            continue
        tape_stats, closure_stats, ratio = run_pair(builder, args.rounds)
        results[name] = tape_stats
        results[name + _CLOSURE_SUFFIX] = closure_stats
        measured[name] = round(ratio, 3)
        ran += 1
        print(f"{name:44s} min {tape_stats['min_s'] * 1e3:10.3f} ms  "
              f"vs closure {closure_stats['min_s'] * 1e3:10.3f} ms  "
              f"median ratio {ratio:6.3f}x", file=sys.stderr)

    for name, fn in discover(args.only):
        shim = TimerShim(args.rounds)
        fn(shim)
        results[name] = shim.stats
        ran += 1
        print(f"{name:44s} min {shim.stats['min_s'] * 1e3:10.3f} ms  "
              f"mean {shim.stats['mean_s'] * 1e3:10.3f} ms", file=sys.stderr)

    if not ran:
        print(f"no benchmarks match --only {args.only!r}; not writing output",
              file=sys.stderr)
        return 1

    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_commit": git_commit(),
        **machine_stamp(),
        "rounds": args.rounds,
        "benchmarks": results,
        "speedup_tape_vs_closure": measured,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)

    if args.check:
        checked = 0
        failures = []
        for name, floor in sorted(SPEEDUP_FLOORS.items()):
            if name not in measured:
                print(f"warning: floored benchmark {name} was not measured "
                      f"(filtered by --only?)", file=sys.stderr)
                continue
            checked += 1
            if measured[name] < floor:
                failures.append((name, measured[name], floor))
        for name, got, floor in failures:
            print(f"REGRESSION {name}: tape-vs-closure speedup {got:.2f}x "
                  f"below floor {floor:.2f}x", file=sys.stderr)
        if failures:
            return 1
        if not checked:
            print("--check measured no floored benchmark; refusing to pass "
                  "an empty gate", file=sys.stderr)
            return 1
        print(f"--check ok: {checked} speedup floor(s) held",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
