"""What the benchmark reports: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root carries the names, units,
directions and bounds the benchmark is judged by; the self-tests check
that it agrees with the tables here.  The tables add what that file has
no room for: what each end-to-end metric means on each workload, and for
each per-layer metric the end-to-end metric and workload it should move,
in which direction, when that layer gets faster (or, for counts, when the
count falls or rises as its ``better`` says).

Every workload reports every end-to-end metric, so the names are generic;
:data:`WORKLOAD_NAMES` maps them to the paper-workload names they stand
for.  Timing metrics are reported as on a reference-speed host: each is
divided (a rate multiplied) by the :class:`harness.HostSpeed` factor of
the window it was measured in, and the run prints the figures as
measured next to them.  Operation failures are the ``attempted``/``failed`` fields of the
result line, not a bounded metric: a healthy run has none.

The serving workload (:data:`SERVE`) is withheld from ``BENCHMARK.json``
because it is not healthy: when its closed loop fuses ten or more
``sample`` requests into one decode (about 40 latent rows and up), the
SQ-VAE's patched quantum decoder returns last bits (up to about 7e-16)
that differ from the sequential 4-row decode, so those responses fail the ``==`` micro-batching check
and the run reports ``correct: false``.  It stays runnable by name, with
that check unchanged, so the program change that fixes the decoder can
show the check passing and list the workload again with its per-layer
metrics (:data:`SERVE_LAYERS`).
"""

from __future__ import annotations

TRAIN = "train-sqvae-1024"
TABLE2 = "table2-sample-score"
SERVE = "serve-mixed-open"

WORKLOADS = {
    TRAIN: "sequential Trainer.fit of the paper SQ-VAE (1024-d, 4 patches, "
           "5 layers, batch 32): the quantum-kernel workload",
    TABLE2: "Table II: 1000-molecule prior sets decoded, packed, corrected "
            "and scored with no backward pass: the chemistry workload",
}
# Runnable by name but not listed in BENCHMARK.json (see the docstring).
WITHHELD = {
    SERVE: "50/50 sample(4)/score(4) requests to GenerationService, open "
           "loop at 100/s, then 16 in flight: micro-batching and queueing "
           "at tiny batches",
}

# name -> (unit, better, bound).  The timing bounds are the widest allowed
# because a shared 2-vCPU host's speed drifts by tens of percent between
# runs, which the host-speed factor only partly removes (see RESULTS.md);
# the quality metrics are deterministic per seed.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.2),
    "throughput_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_tail_ms": ("ms", "lower", 0.25),
    "recon_mse": ("mse", "lower", 0.05),
    "sample_qed_mean": ("qed", "higher", 0.05),
}

_TRAIN_NAMES = {
    "throughput_per_s": ("train_samples_per_s", "rows/s over the fit "
                         "loops, per-epoch held-out evaluation included"),
    "op_p50_ms": ("train_step_ms_p50", "median optimizer step"),
    "op_tail_ms": ("train_step_ms_p90", "p90 optimizer step"),
}
WORKLOAD_NAMES = {
    TRAIN: _TRAIN_NAMES,
    TABLE2: {
        "throughput_per_s": ("sample_mol_per_s", "molecules/s through "
                             "sample -> decode -> correct -> score"),
        "op_p50_ms": ("sample_set_ms_p50", "median 1000-molecule set"),
        # A 30 s run holds about 30 sets, so the ten-beyond rule supports
        # no percentile above about p66: on this workload op_tail_ms is an
        # upper quantile, not a tail, and a stall in a few sets will not
        # show in it.
        "op_tail_ms": ("sample_set_ms_upper", "highest percentile of set "
                       "time the set count supports; about p66 at 30 s "
                       "(not a tail)"),
    },
    SERVE: {
        "throughput_per_s": ("serve_capacity_rps", "responses/s with 16 "
                             "requests kept in flight, wrong ones included "
                             "(they count as failed)"),
        "op_p50_ms": ("serve_closed_p50_ms", "median response time with 16 "
                      "in flight (the 100/s open-loop p50 is printed)"),
        "op_tail_ms": ("serve_closed_p99_ms", "p99 response time with 16 in "
                       "flight (the 100/s open-loop p99 is printed)"),
    },
}
COMMON_NAMES = {
    "setup_s": ("setup_s", "median of repeated set-ups"),
    "peak_rss_mb": ("peak_rss_mb", "peak resident set of the process"),
    "recon_mse": ("train_recon_mse", "held-out reconstruction MSE of the "
                  "workload's trained SQ-VAE"),
    "sample_qed_mean": ("sample_qed_mean", "mean QED of one 1000-molecule "
                        "prior set from that model"),
}

ALL = tuple(WORKLOADS)

# name -> (unit, better, [(end-to-end metric, workloads, direction)])
# "direction" is how the end-to-end metric should move when this layer
# metric moves the way its "better" says; "none" is a stated prediction
# of no change.
PER_LAYER = {
    "qnn.fwd_ms": ("ms", "lower", [("op_p50_ms", (TRAIN,), "lower"),
                                   ("throughput_per_s", (TABLE2,), "higher"),
                                   ("op_p50_ms", (SERVE,), "lower")]),
    "qnn.fwd_calls": ("count", "lower", [("op_p50_ms", (TRAIN,), "lower")]),
    "qnn.fwd_rows": ("count", "lower", [("op_p50_ms", (TRAIN,), "lower")]),
    "qnn.bwd_ms": ("ms", "lower", [("op_p50_ms", (TRAIN,), "lower"),
                                   ("throughput_per_s", (TABLE2,), "none"),
                                   ("op_p50_ms", (SERVE,), "none")]),
    "qnn.bwd_calls": ("count", "lower", [("op_p50_ms", (TRAIN,), "lower")]),
    "nn.forward_self_ms": ("ms", "lower", [("op_p50_ms", (TRAIN,), "lower")]),
    "nn.backward_self_ms": ("ms", "lower", [("op_p50_ms", (TRAIN,), "lower")]),
    "nn.optim_ms": ("ms", "lower", [("op_p50_ms", (TRAIN,), "lower")]),
    "training.step_ms": ("ms", "lower", [("op_p50_ms", (TRAIN,), "lower")]),
    "training.loader_ms": ("ms", "lower",
                           [("throughput_per_s", (TRAIN,), "higher")]),
    "training.eval_ms": ("ms", "lower",
                         [("throughput_per_s", (TRAIN,), "higher")]),
    "evaluation.decode_ms": ("ms", "lower",
                             [("throughput_per_s", (TABLE2,), "higher"),
                              ("op_p50_ms", (SERVE,), "lower")]),
    "chem.pack_ms": ("ms", "lower", [("throughput_per_s", (TABLE2,), "higher"),
                                     ("op_tail_ms", (SERVE,), "lower")]),
    "chem.valid_ms": ("ms", "lower", [("throughput_per_s", (TABLE2,), "higher"),
                                      ("op_tail_ms", (SERVE,), "lower")]),
    "chem.sanitize_ms": ("ms", "lower",
                         [("throughput_per_s", (TABLE2,), "higher"),
                          ("op_tail_ms", (SERVE,), "lower")]),
    "chem.qed_ms": ("ms", "lower", [("throughput_per_s", (TABLE2,), "higher"),
                                    ("op_tail_ms", (SERVE,), "lower")]),
    "chem.logp_ms": ("ms", "lower", [("throughput_per_s", (TABLE2,), "higher"),
                                     ("op_tail_ms", (SERVE,), "lower")]),
    "chem.sa_ms": ("ms", "lower", [("throughput_per_s", (TABLE2,), "higher"),
                                   ("op_tail_ms", (SERVE,), "lower")]),
    "chem.unique_ms": ("ms", "lower",
                       [("throughput_per_s", (TABLE2,), "higher")]),
    "chem.fragment_table_s": ("s", "lower",
                              [("setup_s", (TABLE2, SERVE), "lower")]),
    "chem.molecules": ("count", "higher", [("throughput_per_s", (TABLE2,),
                                            "none")]),
    "chem.usable": ("count", "higher", [("sample_qed_mean", (TABLE2,),
                                         "none")]),
    "chem.usable_frac": ("fraction", "higher",
                         [("sample_qed_mean", (TABLE2,), "none")]),
    "data.generate_s": ("s", "lower", [("setup_s", ALL, "lower")]),
    "trace.overhead_frac": ("fraction", "lower", []),
    "trace.unattributed_frac": ("fraction", "lower", []),
}

# Per-layer metrics only the withheld serving workload measures; its traced
# run reports them after PER_LAYER's.
SERVE_LAYERS = {
    "serving.queue_wait_ms_p50": ("ms", "lower", [("op_p50_ms", (SERVE,),
                                                   "lower")]),
    "serving.queue_wait_ms_p99": ("ms", "lower",
                                  [("op_tail_ms", (SERVE,), "lower")]),
    "serving.exec_sample_ms": ("ms", "lower", [("op_p50_ms", (SERVE,),
                                                "lower")]),
    "serving.exec_score_ms": ("ms", "lower", [("op_p50_ms", (SERVE,),
                                               "lower")]),
    "serving.batch_size_mean": ("requests", "higher",
                                [("throughput_per_s", (SERVE,), "higher")]),
    "serving.batches": ("count", "lower", [("throughput_per_s", (SERVE,),
                                            "higher")]),
    "serving.expired": ("count", "lower", [("op_tail_ms", (SERVE,), "lower")]),
    "serving.queue_full": ("count", "lower", [("op_tail_ms", (SERVE,),
                                               "lower")]),
    "serving.registry_hits": ("count", "higher", [("op_p50_ms", (SERVE,),
                                                   "lower")]),
    "serving.registry_misses": ("count", "lower", [("op_p50_ms", (SERVE,),
                                                    "lower")]),
    "loadgen.late_ms_max": ("ms", "lower", [("op_tail_ms", (SERVE,), "lower")]),
}


def layer_metrics(workload: str) -> dict:
    """The per-layer metrics a traced run of ``workload`` reports."""
    if workload == SERVE:
        return {**PER_LAYER, **SERVE_LAYERS}
    return PER_LAYER
