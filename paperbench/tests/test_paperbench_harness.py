"""Self-tests for the benchmark harness: percentiles, open-loop accounting,
failure counting, host-speed factors, span self time, and BENCHMARK.json
against spec.py.

Run from the repository root: ``python -m pytest paperbench/tests -q``.
"""

import json
import math
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import harness  # noqa: E402
import spec  # noqa: E402
from spans import Patches, Span, Tracer, covered, self_times  # noqa: E402


class FakeClock:
    """A clock that only moves when the code under test sleeps or works."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
class TestPercentiles:
    def test_ten_samples_must_lie_beyond(self):
        assert harness.supports(100, 90)
        assert not harness.supports(99, 90)
        assert harness.supports(1000, 99)
        assert not harness.supports(999, 99)

    def test_unsupported_percentile_refused(self):
        with pytest.raises(ValueError, match="fewer than 10 beyond"):
            harness.percentile(range(99), 90)

    def test_nearest_rank_value(self):
        values = list(range(1, 101))  # 1..100
        assert harness.percentile(values, 90) == 90
        assert harness.median(values) == 50
        assert harness.median([3.0]) == 3.0

    def test_tail_picks_highest_supported(self):
        values = list(range(50))  # p80 leaves exactly 10 beyond
        q, value = harness.tail_percentile(values, 90)
        assert q == 80.0
        assert value == 39
        assert len(values) - harness.nearest_rank(50, q) == 10

    def test_tail_falls_back_to_median(self):
        values = [5.0, 1.0, 3.0]
        assert harness.tail_percentile(values, 90) == (50.0, 3.0)

    def test_tail_keeps_wanted_when_supported(self):
        q, value = harness.tail_percentile(list(range(1000)), 99)
        assert q == 99.0 and value == 989


# ----------------------------------------------------------------------
# Open-loop due times and lateness
# ----------------------------------------------------------------------
class TestOpenLoop:
    def _run(self, rate, n, service_s, **kwargs):
        clock = FakeClock()
        loop = None

        def send(record):
            clock.now += service_s  # a synchronous service blocks the sender
            loop.finish(record)

        loop = harness.OpenLoop(rate, n, send, clock=clock,
                                sleep=clock.sleep, **kwargs)
        return loop, loop.run()

    def test_due_times_follow_the_schedule(self):
        loop, records = self._run(rate=10.0, n=5, service_s=0.01)
        assert [r.due for r in records] == pytest.approx(
            [0.0, 0.1, 0.2, 0.3, 0.4])
        assert all(r.late_ms == pytest.approx(0.0) for r in records)
        assert [r.latency_ms for r in records] == pytest.approx([10.0] * 5)

    def test_latency_counts_from_due_time_when_generator_is_late(self):
        loop, records = self._run(rate=10.0, n=3, service_s=0.25)
        # sent at 0, 0.25, 0.5 against due 0, 0.1, 0.2
        assert [r.late_ms for r in records] == pytest.approx(
            [0.0, 150.0, 300.0])
        assert [r.latency_ms for r in records] == pytest.approx(
            [250.0, 400.0, 550.0])
        assert loop.late_ms_max() == pytest.approx(300.0)
        assert loop.drain_ms() == pytest.approx(550.0)

    def test_window_keeps_a_closed_loop(self):
        clock = FakeClock()
        pending = []
        most = []

        def send(record):
            pending.append(record)
            most.append(len(pending))
            if len(pending) == 3:  # the service answers once three wait
                clock.now += 0.5
                while pending:
                    loop.finish(pending.pop(0))

        loop = harness.OpenLoop(math.inf, 9, send, window=3, clock=clock,
                                sleep=clock.sleep)
        records = loop.run()
        assert max(most) == 3
        assert all(r.ok for r in records)
        # each group of three is due when the previous group's slots free
        assert [r.due for r in records] == pytest.approx(
            [0.0] * 3 + [0.5] * 3 + [1.0] * 3)
        assert [r.latency_ms for r in records] == pytest.approx([500.0] * 9)
        assert loop.achieved_rate() == pytest.approx(9 / 1.5)

    def test_full_window_times_out(self):
        clock = FakeClock()
        loop = harness.OpenLoop(math.inf, 5, lambda record: None, window=2,
                                clock=clock, sleep=clock.sleep)
        records = loop.run(timeout=0.01)
        assert loop.stopped_early
        assert len(records) == 2
        assert all(r.error == "unfinished" for r in records)

    def test_achieved_rate(self):
        loop, records = self._run(rate=10.0, n=11, service_s=0.0)
        assert loop.achieved_rate() == pytest.approx(11 / 1.0)


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------
class TestFailures:
    def _records(self, n, latency_s=0.005):
        return [harness.OpRecord(i, due=i * 0.01, sent=i * 0.01,
                                 done=i * 0.01 + latency_s)
                for i in range(n)]

    def test_failed_op_is_infinite_latency(self):
        record = harness.OpRecord(0, due=0.0, sent=0.0, done=0.001,
                                  error="mismatch")
        assert not record.ok
        assert record.latency_ms == math.inf
        unfinished = harness.OpRecord(1, due=0.0, sent=0.0)
        assert unfinished.latency_ms == math.inf

    def test_count_failed(self):
        records = self._records(10)
        records[3].error = "QueueFull"
        records[7].error = "RequestTimeout"
        assert harness.count_failed(records) == 2

    def test_one_failure_misses_the_limit(self):
        records = self._records(2000)
        assert harness.meets_limit(records, 99, limit_ms=100.0)
        records[5].error = "mismatch"
        assert not harness.meets_limit(records, 99, limit_ms=100.0)

    def test_slow_tail_or_slow_drain_misses_the_limit(self):
        records = self._records(1000)
        assert harness.meets_limit(records, 99, limit_ms=10.0, drain_ms=5.0)
        assert not harness.meets_limit(records, 99, limit_ms=10.0,
                                       drain_ms=50.0)
        for record in records[-11:]:
            record.done += 1.0
        assert not harness.meets_limit(records, 99, limit_ms=10.0)

    def test_refused_submit_is_counted(self):
        clock = FakeClock()

        def send(record):
            if record.index % 2:
                raise RuntimeError("queue full")
            loop.finish(record)

        loop = harness.OpenLoop(10.0, 4, send, clock=clock, sleep=clock.sleep)
        records = loop.run()
        assert harness.count_failed(records) == 2
        assert records[1].error == "RuntimeError: queue full"


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
class TestHostSpeed:
    def test_factor_is_window_mean_over_reference(self):
        speed = harness.HostSpeed()
        ref = harness.PROBE_REF_MS / 1e3
        speed.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 4 * ref)]
        assert speed.factor(0.0, 1.0) == pytest.approx(1.5)
        assert speed.factor(1.5, 9.0) == pytest.approx(4.0)
        assert speed.factor(5.0, 9.0) == 1.0  # no probe in the window

    def test_probes_run_during_work_and_handler_is_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        with harness.HostSpeed(interval=0.01) as speed:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                sum(range(1000))
        assert len(speed.samples) >= 5
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
class TestSpans:
    def test_covered_merges_and_clips(self):
        assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
        assert covered([(-5, 2), (9, 20)], 0, 10) == 3
        assert covered([], 0, 10) == 0

    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            Span("step", 0.0, 10.0, None),
            Span("forward", 1.0, 4.0, 0),
            Span("qnn", 2.0, 3.0, 1),  # grandchild: not subtracted from step
            Span("backward", 5.0, 9.0, 0),
        ]
        assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_tracer_nesting_and_summary(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("step"):
            clock.now += 1
            with tracer.span("fwd"):
                clock.now += 2
            with tracer.span("fwd"):
                clock.now += 3
        totals = tracer.summary()
        assert totals["step"].calls == 1
        assert totals["step"].seconds == pytest.approx(6.0)
        assert totals["step"].self_seconds == pytest.approx(1.0)
        assert totals["fwd"].calls == 2
        assert totals["fwd"].self_seconds == pytest.approx(5.0)
        assert [s.parent for s in tracer.spans] == [None, 0, 0]


class _Base:
    def method(self):
        return "base"


class _Owner(_Base):
    @classmethod
    def make(cls, x):
        return (cls.__name__, x)

    @staticmethod
    def util(x):
        return x * 2

    def numbers(self, n):
        yield from range(n)


def _module_function(x):
    return x + 1


class TestPatches:
    def test_wraps_and_restores_every_kind(self):
        tracer = Tracer()
        module = sys.modules[__name__]
        originals = {name: _Owner.__dict__[name]
                     for name in ("make", "util", "numbers")}
        seen = []
        with Patches(tracer) as patches:
            patches.wrap(module, "_module_function", "fn",
                         lambda t, args, kw: seen.append(args))
            patches.wrap(_Owner, "make", "make")
            patches.wrap(_Owner, "util", "util")
            patches.wrap(_Owner, "numbers", "next")
            patches.wrap(_Owner, "method", "inherited")
            assert _module_function(1) == 2
            assert _Owner.make(3) == ("_Owner", 3)
            assert _Owner().util(4) == 8
            assert list(_Owner().numbers(3)) == [0, 1, 2]
            assert _Owner().method() == "base"
        totals = tracer.summary()
        assert seen == [(1,)]
        assert {name: totals[name].calls for name in
                ("fn", "make", "util", "inherited")} == dict.fromkeys(
                    ("fn", "make", "util", "inherited"), 1)
        assert totals["next"].calls == 4  # three items and the final stop
        assert module._module_function is _module_function
        for name, raw in originals.items():
            assert _Owner.__dict__[name] is raw
        assert "method" not in _Owner.__dict__


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with spec.py
# ----------------------------------------------------------------------
def test_benchmark_json_matches_spec():
    path = HERE.parent.parent / "BENCHMARK.json"
    config = json.loads(path.read_text())
    assert [(w["name"], w["why"]) for w in config["workloads"]] == [
        (name, spec.WORKLOADS[name]) for name in spec.ALL]
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in config["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in config["per_layer"]} == {
        name: (unit, better)
        for name, (unit, better, _) in spec.PER_LAYER.items()}
    assert config["paths"] == ["paperbench"]
    assert not set(spec.WITHHELD) & set(spec.WORKLOADS)


def test_every_prediction_names_real_metrics():
    runnable = set(spec.WORKLOADS) | set(spec.WITHHELD)
    for name, (_, _, moves) in spec.layer_metrics(spec.SERVE).items():
        for metric, workloads, direction in moves:
            assert metric in spec.END_TO_END, name
            assert set(workloads) <= runnable, name
            assert direction in ("higher", "lower", "none"), name
    for names in spec.WORKLOAD_NAMES.values():
        assert set(names) | set(spec.COMMON_NAMES) == set(spec.END_TO_END)
