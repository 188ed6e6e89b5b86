"""Measurement rules every paper workload shares.

* **Percentiles** are nearest-rank and only reported when at least
  :data:`MIN_BEYOND` samples lie beyond them, so a "p99" is never the
  maximum of a few hundred samples.  :func:`tail_percentile` picks the
  highest percentile (up to a wanted one) that the sample supports.
* **Failures** are counted against attempts, and a failed operation counts
  as missing any latency limit: its latency is ``inf``.
* **Open loop**: requests are sent on a fixed schedule whatever the
  service does; a request's latency runs from its *due* time, so a stall
  also charges the requests queued behind it, and the generator reports
  how late it ran.  The same generator runs a closed loop (a fixed
  number of requests in flight) to measure capacity.
* **Memory** is the peak resident set of this process.
* **Host speed**: a shared host runs at different speeds for seconds to
  minutes at a time, moving every timing of a run together.
  :class:`HostSpeed` times a fixed probe kernel throughout a run, so
  timings can be reported as on a host where the probe takes
  :data:`PROBE_REF_MS`.

Nothing here imports the program under test, so the harness self-tests
run without it.
"""

from __future__ import annotations

import math
import resource
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

MIN_BEYOND = 10


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest-rank index of percentile ``q`` in ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(1, math.ceil(q / 100.0 * n))


def supports(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least MIN_BEYOND beyond percentile q."""
    return n >= 1 and n - nearest_rank(n, q) >= MIN_BEYOND


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; refuses one the sample cannot support."""
    ordered = sorted(values)
    n = len(ordered)
    if not supports(n, q):
        raise ValueError(
            f"p{q:g} of {n} samples leaves fewer than {MIN_BEYOND} beyond it"
        )
    return ordered[nearest_rank(n, q) - 1]


def median(values) -> float:
    """Nearest-rank p50 (always defined for a non-empty sample)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[nearest_rank(len(ordered), 50.0) - 1]


def tail_percentile(values, wanted: float) -> tuple[float, float]:
    """``(q, value)`` for the highest whole q <= ``wanted`` the sample
    supports, never below the median (which is returned when nothing above
    it is supported)."""
    n = len(values)
    q = float(wanted)
    while q > 50.0 and not supports(n, q):
        q -= 1.0
    if q <= 50.0 or not supports(n, q):
        return 50.0, median(values)
    return q, percentile(values, q)


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
@dataclass
class OpRecord:
    """One operation of an open-loop schedule.

    ``due`` is when the schedule wanted it sent, ``sent`` when the
    generator actually sent it, ``done`` when its result (or failure)
    arrived; ``error`` names the failure (mismatch, queue full, timeout,
    exception) or is None.  All times are seconds on one monotonic clock.
    """

    index: int
    due: float
    sent: float | None = None
    done: float | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.done is not None

    @property
    def latency_ms(self) -> float:
        """Due-to-done milliseconds; ``inf`` for a failed or unfinished op."""
        if not self.ok:
            return math.inf
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        """How far behind schedule the generator sent this op."""
        return 0.0 if self.sent is None else (self.sent - self.due) * 1e3


def count_failed(records) -> int:
    """Operations that failed, were refused or never finished."""
    return sum(1 for r in records if not r.ok)


def meets_limit(records, q: float, limit_ms: float,
                drain_ms: float | None = None) -> bool:
    """Whether a phase held its latency limit.

    True only when the phase had no failures, its ``q`` percentile of
    due-to-done latency (failures count as ``inf``) is within
    ``limit_ms``, and — when ``drain_ms`` is given — the backlog drained
    within the limit after the last due time (a growing queue does not).
    """
    if not records or count_failed(records):
        return False
    if percentile([r.latency_ms for r in records], q) > limit_ms:
        return False
    return drain_ms is None or drain_ms <= limit_ms


# ----------------------------------------------------------------------
# Open-loop generator
# ----------------------------------------------------------------------
class OpenLoop:
    """Send ``n`` operations at ``rate`` per second on a fixed schedule.

    ``send(record)`` must start operation ``record.index`` without blocking
    on its result and arrange for :meth:`finish` to be called when it
    completes.  The generator sleeps until each due time and never waits
    for replies (open loop).  ``window`` instead makes the generator wait,
    before each send, until fewer than that many are outstanding; with
    ``rate=math.inf`` that is a closed loop keeping ``window`` operations in
    flight, whose :meth:`achieved_rate` is the service's capacity.  In a
    closed loop an operation is due when its slot frees, so its latency
    runs from then.  A window that stays full for the run's timeout ends
    the schedule early.
    ``clock``/``sleep`` are injectable for tests.
    """

    def __init__(self, rate: float, n: int, send, *, window=None,
                 clock=time.perf_counter, sleep=time.sleep):
        if rate <= 0 or n < 1:
            raise ValueError("rate and n must be positive")
        self.rate = rate
        self.n = n
        self.send = send
        self.window = window
        self.clock = clock
        self.sleep = sleep
        self.records: list[OpRecord] = []
        self.stopped_early = False
        self._outstanding = 0
        self._lock = threading.Lock()
        self._slot_free = threading.Condition(self._lock)
        self._all_done = threading.Event()

    def finish(self, record: OpRecord, error: str | None = None) -> None:
        """Mark ``record`` complete (thread-safe; call exactly once)."""
        record.done = self.clock()
        record.error = error
        with self._lock:
            self._outstanding -= 1
            self._slot_free.notify()
            if self._outstanding == 0:
                self._all_done.set()

    def run(self, timeout: float = 60.0) -> list[OpRecord]:
        """Run the schedule, then wait for every outstanding operation."""
        start = self.clock()
        for i in range(self.n):
            due = start + i / self.rate
            wait = due - self.clock()
            if wait > 0:
                self.sleep(wait)
            with self._lock:
                if self._must_stop(timeout):
                    self.stopped_early = True
                    break
                self._outstanding += 1
                self._all_done.clear()
            if self.window is not None:
                due = max(due, self.clock())
            record = OpRecord(i, due)
            self.records.append(record)
            record.sent = self.clock()
            try:
                self.send(record)
            except Exception as exc:  # refused at submit (e.g. queue full)
                self.finish(record, f"{type(exc).__name__}: {exc}")
        with self._lock:
            idle = self._outstanding == 0
        if not idle and not self._all_done.wait(timeout):
            for record in self.records:
                if record.done is None:
                    record.error = "unfinished"
        return self.records

    def _must_stop(self, timeout: float) -> bool:
        """Whether to end the schedule now (called holding the lock).

        With a window, waits for a free slot; a window that stays full for
        ``timeout`` seconds ends the schedule.
        """
        if self.window is None:
            return False
        return not self._slot_free.wait_for(
            lambda: self._outstanding < self.window, timeout)

    @property
    def last_due(self) -> float:
        return self.records[-1].due if self.records else 0.0

    def drain_ms(self) -> float:
        """Last completion minus last due time (backlog left at the end)."""
        done = [r.done for r in self.records if r.done is not None]
        if not done:
            return math.inf
        return max(0.0, (max(done) - self.last_due) * 1e3)

    def late_ms_max(self) -> float:
        return max((r.late_ms for r in self.records), default=0.0)

    def achieved_rate(self) -> float:
        """Successful operations per second, first due to last completion."""
        ok = [r for r in self.records if r.ok]
        if not ok:
            return 0.0
        span = max(r.done for r in ok) - self.records[0].due
        return len(ok) / span if span > 0 else 0.0


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (``ru_maxrss`` is kB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
PROBE_REF_MS = 0.1


def _probe(x) -> int:
    """A fixed mix of interpreter and small-array work, ~0.1 ms."""
    total = 0
    for i in range(600):
        total += i * i
    for _ in range(20):
        np.multiply(x, 1.0000001, out=x)
    return total


class HostSpeed:
    """Times :func:`_probe` on a timer signal every ``interval`` seconds.

    The probe runs in the main thread between the program's bytecodes, so
    it sees the speed the program sees at that moment.  Its duration is
    thread CPU time, so time spent waiting for the interpreter lock while
    other threads run (the serving workload) does not count.  :meth:`factor` is
    the mean probe time over a window divided by :data:`PROBE_REF_MS`; a
    time measured in that window divided by it (a rate multiplied by it)
    reads as on a host where the probe takes PROBE_REF_MS.  At the default
    interval the probe costs about 0.2% of the run.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, CPU seconds)
        self._x = np.ones(2048)
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        started, cpu = time.perf_counter(), time.thread_time()
        _probe(self._x)
        self.samples.append((started, time.thread_time() - cpu))

    def factor(self, start: float, end: float) -> float:
        """Mean probe time in ``[start, end]`` over PROBE_REF_MS; 1.0 when
        no probe ran in the window."""
        times = [seconds for at, seconds in self.samples if start <= at <= end]
        if not times:
            return 1.0
        return sum(times) / len(times) * 1e3 / PROBE_REF_MS
