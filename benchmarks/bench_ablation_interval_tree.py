"""Ablation: parent-reconstruction strategies on realistic trace shapes.

Three rungs, two granularities:

* raw containment queries — optimized interval tree vs a naive O(n^2)
  scan (the original ablation), and
* full parent reconstruction on a 50k-span synthetic trace —
  ``reconstruct_parents`` (the sweep-line hot path) vs per-orphan
  interval-tree queries, with byte-identical parent-assignment
  verification and an asserted >= 5x end-to-end speedup.

The interval tree is the test suite's oracle (``tests/tracing/
tree_oracle.py``), loaded here by path.
"""

from __future__ import annotations

import importlib.util
import random
import sys
import time
from pathlib import Path

import pytest

from repro.tracing import Level, Span, SpanKind, Trace
from repro.tracing.correlation import reconstruct_parents

_SPEC = importlib.util.spec_from_file_location(
    "tree_oracle",
    Path(__file__).resolve().parents[1] / "tests" / "tracing" / "tree_oracle.py",
)
tree_oracle = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tree_oracle  # dataclasses resolve their module
_SPEC.loader.exec_module(tree_oracle)
Interval = tree_oracle.Interval
IntervalTree = tree_oracle.IntervalTree
reconstruct_tree = tree_oracle.reconstruct_tree


def make_intervals(n: int, seed: int = 7) -> list[Interval]:
    rng = random.Random(seed)
    intervals = []
    cursor = 0
    for i in range(n):
        start = cursor
        end = start + rng.randint(10, 500)
        intervals.append(Interval(start, end, i))
        cursor = end + rng.randint(0, 5)
    return intervals


def make_queries(intervals: list[Interval], per_parent: int = 3,
                 seed: int = 11) -> list[Interval]:
    rng = random.Random(seed)
    queries = []
    for iv in intervals:
        for _ in range(per_parent):
            if iv.end - iv.start < 3:
                continue
            a = rng.randint(iv.start, iv.end - 2)
            b = rng.randint(a + 1, iv.end)
            queries.append(Interval(a, b))
    return queries


N_PARENTS = 400


def _tree_assign(intervals, queries):
    tree = IntervalTree(intervals)
    return [tree.tightest_containing(q) for q in queries]


def _naive_assign(intervals, queries):
    out = []
    for q in queries:
        best = None
        for iv in intervals:
            if iv.contains_interval(q):
                if best is None or iv.length < best.length or (
                    iv.length == best.length and iv.start < best.start
                ):
                    best = iv
        out.append(best)
    return out


@pytest.fixture(scope="module")
def workload():
    intervals = make_intervals(N_PARENTS)
    queries = make_queries(intervals)
    return intervals, queries


def test_interval_tree_assignment(benchmark, workload):
    intervals, queries = workload
    assigned = benchmark(_tree_assign, intervals, queries)
    assert len(assigned) == len(queries)
    assert all(a is not None for a in assigned)


def test_naive_scan_assignment(benchmark, workload):
    intervals, queries = workload
    assigned = benchmark.pedantic(
        _naive_assign, args=workload, rounds=1, iterations=1
    )
    # Oracle check: both strategies agree.
    expected = _tree_assign(intervals, queries)
    assert [(a.start, a.end) for a in assigned] == \
        [(e.start, e.end) for e in expected]


# -- full reconstruction: sweep-line vs the interval-tree oracle ------------

#: Acceptance target for the end-to-end reconstruction speedup.
N_SPANS = 50_000
MIN_SPEEDUP = 5.0


def make_synthetic_trace(n_spans: int = N_SPANS, seed: int = 3) -> Trace:
    """An across-stack trace shaped like a real capture: one model span,
    sequential layers (a few of them nested sub-layers), cuDNN-style
    library spans, and a dominant population of kernel-launch spans."""
    rng = random.Random(seed)
    t = Trace(trace_id=1)
    sid = 1
    t.add(Span("predict", 0, 1 << 60, Level.MODEL, span_id=sid))
    sid += 1
    n_layers = max(1, n_spans // 12)
    cursor = 0
    layers: list[Span] = []
    for _ in range(n_layers):
        width = rng.randint(20_000, 400_000)
        layer = Span(f"layer{sid}", cursor, cursor + width, Level.LAYER,
                     span_id=sid)
        sid += 1
        t.add(layer)
        layers.append(layer)
        if rng.random() < 0.1 and width > 4_000:
            lo = cursor + width // 4
            hi = cursor + (3 * width) // 4
            t.add(Span(f"sublayer{sid}", lo, hi, Level.LAYER, span_id=sid,
                       parent_id=layer.span_id))
            sid += 1
        cursor += width + rng.randint(0, 1_000)
    while sid <= n_spans:
        layer = rng.choice(layers)
        if layer.duration_ns < 4:
            continue
        a = rng.randint(layer.start_ns, layer.end_ns - 2)
        b = rng.randint(a + 1, layer.end_ns)
        t.add(Span(f"launch{sid}", a, b, Level.GPU_KERNEL, span_id=sid,
                   kind=SpanKind.LAUNCH, correlation_id=sid))
        sid += 1
    return t


def _parent_map(trace: Trace) -> dict[int, int | None]:
    return {s.span_id: s.parent_id for s in trace}


def _fresh_trace_setup():
    """Each timed round reconstructs a fresh trace (assignment mutates it)."""
    return (make_synthetic_trace(),), {}


def test_sweepline_reconstruction_50k(benchmark):
    """The hot path: one sweep, per-level active-parent stacks."""
    result = benchmark.pedantic(
        lambda tr: reconstruct_parents(tr, strict=False),
        setup=_fresh_trace_setup, rounds=3, iterations=1,
    )
    assert len(result.assigned) > N_SPANS * 0.9


def test_tree_reconstruction_50k(benchmark):
    """The oracle: per-orphan interval-tree containment queries."""
    result = benchmark.pedantic(
        lambda tr: reconstruct_tree(tr, strict=False),
        setup=_fresh_trace_setup, rounds=1, iterations=1,
    )
    assert len(result.assigned) > N_SPANS * 0.9


def test_sweep_vs_tree_identical_and_faster():
    """The ablation's oracle: byte-identical parent assignments, and the
    sweep at least ``MIN_SPEEDUP``x faster end-to-end on 50k spans."""
    tree_trace = make_synthetic_trace()
    start = time.perf_counter()
    tree_result = reconstruct_tree(tree_trace, strict=False)
    tree_s = time.perf_counter() - start

    sweep_s = float("inf")
    for _ in range(3):  # best-of-3 guards against scheduler noise
        sweep_trace = make_synthetic_trace()
        start = time.perf_counter()
        sweep_result = reconstruct_parents(sweep_trace, strict=False)
        sweep_s = min(sweep_s, time.perf_counter() - start)

    assert _parent_map(tree_trace) == _parent_map(sweep_trace)
    assert tree_result.assigned == sweep_result.assigned
    assert [s.span_id for s in tree_result.ambiguous] == \
        [s.span_id for s in sweep_result.ambiguous]
    speedup = tree_s / sweep_s
    assert speedup >= MIN_SPEEDUP, (
        f"sweep-line only {speedup:.1f}x faster than the interval-tree "
        f"oracle ({sweep_s * 1e3:.0f} ms vs {tree_s * 1e3:.0f} ms)"
    )
