"""The benchmark's own in-memory span recorder.

It wraps public functions of the program from the outside, records one
span per call (name, start, end, parent, op id, thread) and keeps
per-name totals.  It does not use ``repro.tracing``, which is itself
under measurement.

Self time is a span's duration minus the time its child spans cover.
Children on the span's own thread run one after another, so their
durations are summed as they close.  The op root span is the exception:
work on other threads (the capture thread of a live session) hangs off
it, so its covered time is the union of its children's intervals.

Hot functions (called thousands of times per op) are recorded as totals
only; they still take part in the self-time accounting, but produce no
span in the Chrome file.

Each wrapper's own time outside the wrapped call (entry, exit and the
counter notes) is booked to ``perfbench.recorder`` and counts as covered
time of the caller, so the recorder's cost lands in no layer's self time.
Each thread keeps its own stack, totals and counters, so a call takes no
lock; the totals are merged when read.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass(slots=True)
class Totals:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    failures: int = 0

    def add(self, other: Totals) -> None:
        self.calls += other.calls
        self.inclusive_s += other.inclusive_s
        self.self_s += other.self_s
        self.failures += other.failures


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    self_s: float
    parent: int | None
    op_id: int | None
    thread: int


@dataclass
class _Op:
    sid: int
    op_id: int
    name: str
    start: float
    intervals: list = field(default_factory=list)  # top-level children


class _ThreadState:
    """One thread's open calls, totals and counters."""

    __slots__ = ("tid", "stack", "totals", "counters", "overhead")

    def __init__(self, tid: int, overhead_name: str) -> None:
        self.tid = tid
        self.stack: list[list] = []  # open calls: [sid, child seconds]
        self.overhead = Totals()
        self.totals: dict[str, Totals] = {overhead_name: self.overhead}
        self.counters: dict[str, float] = defaultdict(float)


class Recorder:
    """Collects spans and per-name totals while an op is open."""

    #: Name of the bucket holding the recorder's own bookkeeping time.
    OVERHEAD = "perfbench.recorder"

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op: _Op | None = None
        self._states: list[_ThreadState] = []
        self._tids: dict[int, int] = {}

    @property
    def totals(self) -> dict[str, Totals]:
        """Per-name totals over every thread."""
        merged: dict[str, Totals] = defaultdict(Totals)
        for state in list(self._states):
            for name, totals in list(state.totals.items()):
                merged[name].add(totals)
        return dict(merged)

    @property
    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = defaultdict(float)
        for state in list(self._states):
            for key, value in list(state.counters.items()):
                merged[key] += value
        return dict(merged)

    # -- ops ------------------------------------------------------------
    def begin_op(self, op_id: int, name: str) -> None:
        self._op = _Op(next(self._ids), op_id, name, perf_counter())

    def end_op(self) -> Span:
        end = perf_counter()
        op, self._op = self._op, None
        covered = _union(op.intervals, op.start, end)
        span = Span(op.sid, op.name, op.start, end, end - op.start - covered,
                    None, op.op_id, self._state().tid)
        self.op_spans.append(span)
        self.spans.append(span)
        return span

    @property
    def current_op_id(self) -> int | None:
        op = self._op
        return op.op_id if op is not None else None

    # -- wrapping ---------------------------------------------------------
    def wrap(self, fn: Callable, name: str, *, hot: bool = False,
             note: Callable[..., dict[str, float]] | None = None) -> Callable:
        """A wrapper recording each call of ``fn`` under ``name``.

        ``note(args, kwargs, result)`` returns counters to add after a
        successful call.  The wrapper's own time around the call, entry
        and exit bookkeeping and the note, is booked to :attr:`OVERHEAD`.
        """
        recorder = self
        local = self._local
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder._op is None:
                return fn(*args, **kwargs)
            entered = perf_counter()
            state = getattr(local, "state", None) or recorder._state()
            stack = state.stack
            frame = [next(ids), 0.0]
            stack.append(frame)
            result = None
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                recorder._close(state, name, hot, frame, start, end, failed)
                if note is not None and not failed:
                    counters = state.counters
                    for key, value in note(args, kwargs, result).items():
                        counters[key] += value
                recorder._book_overhead(state, entered, start, end)

        return wrapper

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                tid = self._tids.setdefault(threading.get_ident(),
                                            len(self._tids))
                state = _ThreadState(tid, self.OVERHEAD)
                self._states.append(state)
            self._local.state = state
        return state

    def _close(self, state, name, hot, frame, start, end, failed) -> None:
        duration = end - start
        self_s = duration - frame[1]
        op = self._op
        stack = state.stack
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_sid = parent[0]
        else:
            parent_sid = op.sid if op is not None else None
            if op is not None:
                op.intervals.append((start, end))
        totals = state.totals.get(name)
        if totals is None:
            totals = state.totals[name] = Totals()
        totals.calls += 1
        totals.inclusive_s += duration
        totals.self_s += self_s
        totals.failures += failed
        if not hot:
            self.spans.append(Span(frame[0], name, start, end, self_s,
                                   parent_sid,
                                   op.op_id if op is not None else None,
                                   state.tid))

    def _book_overhead(self, state, entered, start, end) -> None:
        """Book the wrapper's time outside ``[start, end]`` to OVERHEAD and
        mark it covered, so it is in no layer's self time."""
        done = perf_counter()
        cost = (start - entered) + (done - end)
        overhead = state.overhead
        overhead.calls += 1
        overhead.inclusive_s += cost
        overhead.self_s += cost
        op = self._op
        if state.stack:
            state.stack[-1][1] += cost
        elif op is not None:
            op.intervals += [(entered, start), (end, done)]

    # -- output -------------------------------------------------------------
    def chrome_json(self) -> str:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        if not self.spans:
            return json.dumps({"traceEvents": []})
        origin = min(s.start for s in self.spans)
        events: list[dict[str, Any]] = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": "client" if tid == 0 else f"thread {tid}"}}
            for tid in sorted(set(self._tids.values()))
        ]
        for s in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            events.append({
                "name": s.name, "cat": s.name.rsplit(".", 1)[0], "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1, "tid": s.thread,
                "args": {"span": s.sid, "parent": s.parent, "op": s.op_id,
                         "self_us": s.self_s * 1e6},
            })
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total
