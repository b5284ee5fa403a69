"""Closed-loop op runner, host-speed scaling and the statistics the
benchmark reports."""

from __future__ import annotations

import math
import statistics
import sys
import traceback
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable

#: Tail percentiles tried, highest first: the reported tail is the
#: highest one with at least ``TAIL_MIN_BEYOND`` samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    h = (len(ordered) - 1) * p / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (h - lo)


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the ``p``-th percentile position."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def tail(values: list[float],
         top: float = TAIL_LADDER[0]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) of the reported tail.

    The highest ladder percentile not above ``top`` with at least
    ``TAIL_MIN_BEYOND`` samples beyond it.  A workload caps the ladder at
    the percentile its usual sample count qualifies for, so the reported
    percentile does not step up or down with a few ops more or less.
    With fewer than ``TAIL_MIN_BEYOND + 1`` samples no percentile
    qualifies, and the median is reported with its true count.
    """
    n = len(values)
    for p in (q for q in TAIL_LADDER if q <= top):
        beyond = samples_beyond(n, p)
        if beyond >= TAIL_MIN_BEYOND:
            return p, percentile(values, p), beyond
    p = TAIL_LADDER[-1]
    return p, percentile(values, p), samples_beyond(n, p)


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that runs no program code."""
    start = perf_counter()
    table, names, total = {}, [], 0
    for i in range(40_000):
        total += i * i % 7
        table[i % 997] = total
        names.append(str(i))
    names.sort()
    return perf_counter() - start


class HostSpeed:
    """Scales wall time to a reference host.

    The speed of a shared host drifts by tens of percent over seconds and
    minutes, and that drift would swamp any change in the program.  The
    calibration loop is timed between ops (at most every ``INTERVAL_S``);
    an interval's reference time is its wall time times
    ``REFERENCE_S`` over the median of the ``WINDOW`` calibrations just
    before and the ``WINDOW`` just after it: the time it would have taken
    on a host where the loop takes ``REFERENCE_S``.  The median keeps a
    calibration that another process preempted from skewing its
    neighbours.  The loop runs no program code, so a change to the
    program moves reference times as much as wall times.
    """

    REFERENCE_S = 0.012
    INTERVAL_S = 0.25
    WINDOW = 3

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (taken at, seconds)

    def sample(self) -> None:
        self.samples.append((perf_counter(), calibration_loop()))

    def sample_if_due(self) -> None:
        if (not self.samples
                or perf_counter() - self.samples[-1][0] >= self.INTERVAL_S):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end]``."""
        taken = [t for t, _ in self.samples]
        before = bisect_right(taken, start)
        after = bisect_left(taken, end)
        around = (self.samples[max(0, before - self.WINDOW):before]
                  + self.samples[after:after + self.WINDOW])
        return self.REFERENCE_S / statistics.median(s for _, s in around)

    def latest_scale(self) -> float:
        """The scale of an op that has just ended, before the next
        calibration is taken."""
        end = perf_counter()
        return self.scale(end, end)


@dataclass
class OpRecord:
    index: int
    kind: str
    point: tuple
    seconds: float
    ok: bool
    started: float = 0.0
    #: ``seconds`` on the reference host (``HostSpeed``); equal to
    #: ``seconds`` when the run was not scaled.
    ref_seconds: float = 0.0


def failed_fraction(records: list[OpRecord]) -> float:
    """Ops that raised or failed their check, over ops attempted."""
    return sum(not r.ok for r in records) / len(records) if records else 0.0


def drive(workload, ops: Iterable, *, seconds: float | None = None,
          recorder=None, first_index: int = 0,
          speed: HostSpeed | None = None,
          wall_cap: float | None = None,
          between: Callable[[], None] | None = None) -> list[OpRecord]:
    """Run ops back to back (one client, no think time).

    Stops at the end of the round (``Op.ends_round``) in which the ops
    have taken ``seconds``, or when ``ops`` is exhausted.  With ``speed``
    the ops' time is reference time, so a run makes the same ops on a
    fast host as on a slow one, and ``wall_cap`` bounds the run's wall
    time; without it, the ops' wall time.  Only ``workload.run`` is
    timed; the output check, calibration and ``between`` (called before
    each op) run while the clock is stopped.  An op that raises, or
    whose output fails its check, is recorded as failed.
    """
    started = perf_counter()
    spent = 0.0
    records: list[OpRecord] = []
    for index, op in enumerate(ops, first_index):
        if between is not None:
            between()
        if speed is not None:
            speed.sample_if_due()
        if recorder is not None:
            recorder.begin_op(index, f"op.{op.kind}")
        result, ok = None, True
        start = perf_counter()
        try:
            result = workload.run(op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        elapsed = perf_counter() - start
        if recorder is not None:
            recorder.end_op()
        if ok:
            try:
                ok = bool(workload.check(op, result))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                print(f"output check failed: {op.kind} {op.point}",
                      file=sys.stderr)
        records.append(OpRecord(index, op.kind, op.point, elapsed, ok,
                                start, elapsed))
        spent += elapsed * (speed.latest_scale() if speed else 1.0)
        if seconds is not None and spent >= seconds and op.ends_round:
            break
        if wall_cap is not None and perf_counter() - started >= wall_cap:
            print(f"wall-time cap of {wall_cap:g} s reached after "
                  f"{spent:.1f} s of reference op time", file=sys.stderr)
            break
    if speed is not None:
        speed.sample()
        for r in records:
            r.ref_seconds = r.seconds * speed.scale(r.started,
                                                    r.started + r.seconds)
    return records
