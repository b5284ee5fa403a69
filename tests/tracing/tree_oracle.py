"""Interval-tree reference oracle for parent reconstruction.

The paper (Sec. III-A) reconstructs missing parent-child relationships by
building an interval tree over span start/end timestamps and checking
interval set inclusion.  ``repro.tracing.correlation`` computes the same
containment sets with one sweep over start-sorted rows; this module keeps
the paper's formulation as the test-side oracle the sweep is fuzzed
against (``test_sweepline.py``) and benchmarked against
(``benchmarks/bench_ablation_interval_tree.py``, which loads this file
by path).

:class:`IntervalTree` is a classic centered interval tree answering
containment queries (all intervals containing a query interval) in
O(log n + k).  Construction is iterative (no recursion depth limit on
adversarial traces) and every node precomputes the endpoint arrays its
queries bisect over, so the oracle is fast enough to time against the
sweep on a 50k-span trace.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Generic, Iterable, List, Optional, TypeVar

from repro.tracing.correlation import (
    _EXECUTION_CODE,
    CorrelationResult,
    _choose_parent,
    _parent_level_map,
)
from repro.tracing.table import NONE_ID
from repro.tracing.trace import Trace

T = TypeVar("T")


@dataclass(frozen=True)
class Interval(Generic[T]):
    """An interval ``[start, end]`` carrying a payload.

    Containment treats both endpoints as inclusive, matching the paper's
    span-inclusion rule (a kernel launched at exactly the layer's start
    timestamp belongs to that layer).
    """

    start: int
    end: int
    data: T = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} precedes start {self.start}")

    @property
    def length(self) -> int:
        return self.end - self.start

    def contains_interval(self, other: "Interval[Any]") -> bool:
        return self.start <= other.start and other.end <= self.end


@dataclass
class _Node(Generic[T]):
    center: int
    # Intervals crossing `center`, sorted by start ascending / end descending,
    # with their endpoint arrays precomputed for bisection.
    by_start: List[Interval[T]] = field(default_factory=list)
    by_end: List[Interval[T]] = field(default_factory=list)
    starts: List[int] = field(default_factory=list)  # by_start[i].start
    neg_ends: List[int] = field(default_factory=list)  # -by_end[i].end (asc)
    left: Optional["_Node[T]"] = None
    right: Optional["_Node[T]"] = None


class IntervalTree(Generic[T]):
    """Static centered interval tree built once from :class:`Interval`\\ s."""

    def __init__(self, intervals: Iterable[Interval[T]] = ()) -> None:
        self._root = self._build(list(intervals))

    @staticmethod
    def _build(intervals: list[Interval[T]]) -> Optional[_Node[T]]:
        """Iterative centered-tree construction (explicit work stack)."""
        if not intervals:
            return None
        root = _Node(center=0)  # placeholder; filled by the first work item
        work: list[tuple[list[Interval[T]], _Node[T]]] = [(intervals, root)]
        while work:
            ivs, node = work.pop()
            endpoints = sorted({iv.start for iv in ivs} | {iv.end for iv in ivs})
            center = endpoints[len(endpoints) // 2]
            crossing: list[Interval[T]] = []
            lefts: list[Interval[T]] = []
            rights: list[Interval[T]] = []
            for iv in ivs:
                if iv.end < center:
                    lefts.append(iv)
                elif iv.start > center:
                    rights.append(iv)
                else:
                    crossing.append(iv)
            node.center = center
            node.by_start = sorted(crossing, key=lambda iv: iv.start)
            node.by_end = sorted(crossing, key=lambda iv: -iv.end)
            node.starts = [iv.start for iv in node.by_start]
            node.neg_ends = [-iv.end for iv in node.by_end]
            if lefts:
                node.left = _Node(center=0)
                work.append((lefts, node.left))
            if rights:
                node.right = _Node(center=0)
                work.append((rights, node.right))
        return root

    def containing(self, query: Interval[Any]) -> list[Interval[T]]:
        """All intervals that fully contain ``query``."""
        qs, qe = query.start, query.end
        out: list[Interval[T]] = []
        node = self._root
        while node is not None:
            if qs < node.center:
                # Crossing intervals with start <= qs contain the stab point;
                # keep those whose end also reaches qe.
                idx = bisect.bisect_right(node.starts, qs)
                for iv in node.by_start[:idx]:
                    if iv.end >= qe:
                        out.append(iv)
                node = node.left
            elif qs > node.center:
                # All crossing intervals start <= center < qs; keep those
                # whose end reaches qe (>= qe implies >= qs here).
                idx = bisect.bisect_right(node.neg_ends, -qe)
                out.extend(node.by_end[:idx])
                node = node.right
            else:
                idx = bisect.bisect_right(node.neg_ends, -qe)
                out.extend(node.by_end[:idx])
                node = None
        return out

    def tightest_containing(self, query: Interval[Any]) -> Optional[Interval[T]]:
        """The smallest-length interval containing ``query``, or ``None``."""
        candidates = self.containing(query)
        if not candidates:
            return None
        return min(candidates, key=lambda iv: (iv.length, iv.start))


def reconstruct_tree(
    trace: Trace, *, strict: bool = True, since_row: int = 0
) -> CorrelationResult:
    """``reconstruct_parents`` computed by per-orphan interval-tree queries.

    Same contract as :func:`repro.tracing.correlation.reconstruct_parents`
    (strict-mode raises, ambiguity recording, the ``since_row``
    watermark): the candidate parents of each orphan are the
    next-present-level spans whose interval contains it, and the shared
    ``_choose_parent`` picks among them.
    """
    result = CorrelationResult(trace=trace)
    try:
        _assign(trace, strict=strict, result=result, since_row=since_row)
    finally:
        trace.touch_parents()
    return result


def _assign(
    trace: Trace, *, strict: bool, result: CorrelationResult, since_row: int
) -> None:
    index = trace.index
    table = trace.table
    levels = index.levels_present()
    parent_of_level = _parent_level_map(levels)
    starts = table.start_ns
    ends = table.end_ns
    kinds = table.kind
    parents = table.parent_id
    level_codes = table.level
    span_ids = table.span_id

    trees = {
        int(lvl): IntervalTree(
            Interval(starts[row], ends[row], row)
            for row in index.level_rows().get(lvl, ())
        )
        for lvl in levels
    }
    parent_code_of = {
        int(lvl): (None if up is None else int(up))
        for lvl, up in parent_of_level.items()
    }

    for row in index.rows_sorted():
        if row < since_row:
            continue  # settled in an earlier increment
        if parents[row] != NONE_ID:
            continue
        if kinds[row] == _EXECUTION_CODE:
            continue  # handled by launch/execution correlation
        target_code = parent_code_of.get(level_codes[row])
        if target_code is None:
            continue  # top-of-stack spans legitimately have no parent
        candidates = [
            iv.data
            for iv in trees[target_code].containing(
                Interval(starts[row], ends[row])
            )
            if iv.data != row
        ]
        if not candidates:
            continue
        chosen = _choose_parent(
            table, row, candidates, strict=strict, result=result
        )
        if chosen is not None:
            chosen_id = span_ids[chosen]
            parents[row] = chosen_id
            result.assigned[span_ids[row]] = chosen_id
