"""Paper-workload benchmark: one command per workload, one JSON result line.

Usage, from the repository root::

    python3 paperbench/run.py --workload train-sqvae-1024 --seed 1 \\
        --seconds 30 --trace 0

Workloads are listed in ``spec.WORKLOADS`` (and in ``BENCHMARK.json``);
``spec.WITHHELD`` names one more that runs but is not listed.  With ``--trace 0`` the last stdout line carries every end-to-end metric;
with ``--trace 1`` every per-layer metric.  The lines before it name the
paper-workload metrics with their units, the environment stamp, the
timings as measured before the host-speed factor, and any failed output
check.  The program under test is imported from ``src/``
next to this directory; without it the command exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Variables that change how many threads numpy's BLAS and the program use;
# timings can move several-fold with them.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "REPRO_BACKEND",
    "REPRO_BACKEND_WORKERS", "REPRO_TAPE_COMPILE",
)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment_stamp() -> dict:
    from bench_machine import machine_stamp

    stamp = machine_stamp()
    stamp["blas_threads"] = blas_threads()
    stamp["thread_env"] = {name: os.environ.get(name)
                           for name in THREAD_VARIABLES}
    return stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmarks"))

    import harness
    import spec
    import workloads

    if args.workload not in workloads.RUNNERS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.RUNNERS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    print("env:", json.dumps(environment_stamp(), sort_keys=True))
    # Host-speed probes only in untraced runs: traced runs report layer
    # times, which are not normalised, and the probe is no layer.
    speed = harness.HostSpeed()
    with speed if not args.trace else nullcontext():
        result = workloads.RUNNERS[args.workload](
            args.seed, args.seconds, bool(args.trace), speed)

    # A metric a failed run could not measure is null; the run is then
    # reported as not correct.
    if args.trace:
        metrics = {name: {"value": result.layers.get(name), "unit": unit}
                   for name, (unit, _, _)
                   in spec.layer_metrics(args.workload).items()}
    else:
        metrics = {name: {"value": result.metrics.get(name), "unit": unit}
                   for name, (unit, _, _) in spec.END_TO_END.items()}
        names = {**spec.COMMON_NAMES, **spec.WORKLOAD_NAMES[args.workload]}
        for name, (unit, _, _) in spec.END_TO_END.items():
            paper_name, meaning = names[name]
            print(f"{paper_name} = {result.metrics.get(name)} {unit}  "
                  f"[{name}: {meaning}]")
    if any(m["value"] is None for m in metrics.values()):
        result.check(False, "a metric could not be measured")
    for line in result.report:
        print(line)
    frac = result.failed / result.attempted if result.attempted else 0.0
    print(f"ops_failed_frac = {frac:.6g} ({result.failed}/{result.attempted})")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
