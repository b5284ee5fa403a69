"""Sweep-line correlator == interval-tree oracle, on adversarial forests.

``reconstruct_parents`` computes the paper's interval-containment sets
with one sweep; these tests pin its exact equivalence with per-orphan
interval-tree queries (``tree_oracle.reconstruct_tree``) — parent
assignments, ambiguity detection, strict-mode raises, and the
``since_row`` watermark — on randomly generated span forests that
deliberately mix nesting, partial overlap, identical intervals, touching
endpoints, and skipped levels.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracing import (
    AmbiguousParentError,
    Level,
    Span,
    SpanKind,
    Trace,
    reconstruct_parents,
)

from tree_oracle import reconstruct_tree

#: The two implementations under comparison.
ENGINES = {"sweep": reconstruct_parents, "tree": reconstruct_tree}

LEVELS = [Level.MODEL, Level.LAYER, Level.LIBRARY, Level.GPU_KERNEL]


def _random_forest(rng: random.Random, n_spans: int) -> Trace:
    """A span forest with nested, overlapping, and identical intervals."""
    t = Trace(trace_id=1)
    sid = 0
    horizon = 40 * n_spans
    for _ in range(n_spans):
        sid += 1
        level = rng.choice(LEVELS)
        style = rng.random()
        if style < 0.15 and len(t):
            # Clone an existing interval (identical-interval ambiguity food).
            other = t.table.view(rng.randrange(len(t)))
            start, end = other.start_ns, other.end_ns
        elif style < 0.45 and len(t):
            # Nest inside an existing span.
            outer = t.table.view(rng.randrange(len(t)))
            if outer.duration_ns >= 2:
                start = rng.randint(outer.start_ns, outer.end_ns - 1)
                end = rng.randint(start, outer.end_ns)
            else:
                start, end = outer.start_ns, outer.end_ns
        else:
            start = rng.randint(0, horizon)
            end = start + rng.randint(0, horizon // 4)
        kind = rng.choice(
            [SpanKind.INTERNAL, SpanKind.INTERNAL, SpanKind.LAUNCH,
             SpanKind.EXECUTION]
        )
        t.add(Span(f"s{sid}", start, end, level, span_id=sid, kind=kind))
    return t


def _parents(trace: Trace) -> dict[int, int | None]:
    return {s.span_id: s.parent_id for s in trace}


def _run(trace: Trace, *, strict: bool, engine: str, since_row: int = 0):
    """(parents, assigned, ambiguous-ids, raised-span-id or None)."""
    try:
        result = ENGINES[engine](trace, strict=strict, since_row=since_row)
    except AmbiguousParentError as err:
        return (
            _parents(trace),
            None,
            None,
            (err.span.span_id, frozenset(c.span_id for c in err.candidates)),
        )
    return (
        _parents(trace),
        dict(result.assigned),
        [s.span_id for s in result.ambiguous],
        None,
    )


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("seed", range(25))
def test_sweep_matches_tree_on_random_forests(seed, strict):
    rng = random.Random(seed)
    n = rng.randint(2, 200)
    forest_tree = _random_forest(random.Random(seed * 1009 + 1), n)
    forest_sweep = _random_forest(random.Random(seed * 1009 + 1), n)
    assert _parents(forest_tree) == _parents(forest_sweep)  # same input
    out_tree = _run(forest_tree, strict=strict, engine="tree")
    out_sweep = _run(forest_sweep, strict=strict, engine="sweep")
    assert out_tree == out_sweep


@settings(max_examples=60, deadline=None)
@given(
    intervals=st.lists(
        st.tuples(
            st.integers(0, 60),
            st.integers(0, 25),
            st.sampled_from(LEVELS),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_sweep_matches_tree_hypothesis(intervals):
    """Tiny coordinate space maximizes identical/touching intervals."""
    def build():
        t = Trace(trace_id=1)
        for i, (start, width, level) in enumerate(intervals, 1):
            t.add(Span(f"s{i}", start, start + width, level, span_id=i))
        return t

    t_tree, t_sweep = build(), build()
    assert _run(t_tree, strict=False, engine="tree") == \
        _run(t_sweep, strict=False, engine="sweep")


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_sweep_matches_tree_since_row(seed, strict):
    """A random watermark on a finished forest: rows below it are settled,
    rows at/above it are this increment's orphans."""
    rng = random.Random(seed)
    n = rng.randint(2, 200)
    since_row = rng.randint(0, n)
    forest_tree = _random_forest(random.Random(seed * 7919 + 3), n)
    forest_sweep = _random_forest(random.Random(seed * 7919 + 3), n)
    assert _run(forest_tree, strict=strict, engine="tree",
                since_row=since_row) == \
        _run(forest_sweep, strict=strict, engine="sweep", since_row=since_row)


@pytest.mark.parametrize("seed", range(10))
def test_sweep_matches_tree_over_increments(seed):
    """Correlate a growing forest after every increment, each call
    starting at the previous watermark, as the live monitor does."""
    rng = random.Random(seed)
    n = rng.randint(10, 200)
    source = _random_forest(random.Random(seed * 104729 + 5), n)
    cuts = sorted(rng.sample(range(1, n), k=min(4, n - 1))) + [n]
    outcomes = {}
    for engine in ENGINES:
        live = Trace(trace_id=1)
        seen = 0
        steps = []
        for cut in cuts:
            for view in map(source.table.view, range(seen, cut)):
                live.add(Span(view.name, view.start_ns, view.end_ns,
                              view.level, span_id=view.span_id,
                              kind=view.kind))
            steps.append(_run(live, strict=False, engine=engine,
                              since_row=seen))
            seen = cut
        outcomes[engine] = steps
    assert outcomes["tree"] == outcomes["sweep"]


def test_sweep_detects_identical_interval_ambiguity():
    t = Trace(trace_id=1)
    t.add(Span("layerA", 0, 500, Level.LAYER, span_id=1))
    t.add(Span("layerB", 0, 500, Level.LAYER, span_id=2))
    t.add(Span("launch", 100, 110, Level.GPU_KERNEL, span_id=3,
               kind=SpanKind.LAUNCH, correlation_id=1))
    result = reconstruct_parents(t, strict=False)
    assert result.needs_serialized_rerun
    assert t.by_id()[3].parent_id is None


def test_sweep_strict_raises_on_partial_overlap():
    t = Trace(trace_id=1)
    t.add(Span("layerA", 0, 500, Level.LAYER, span_id=1))
    t.add(Span("layerB", 100, 700, Level.LAYER, span_id=2))
    t.add(Span("launch", 200, 210, Level.GPU_KERNEL, span_id=3,
               kind=SpanKind.LAUNCH, correlation_id=1))
    with pytest.raises(AmbiguousParentError, match="CUDA_LAUNCH_BLOCKING"):
        reconstruct_parents(t, strict=True)


def test_sweep_picks_tightest_nested_parent():
    t = Trace(trace_id=1)
    t.add(Span("outer", 0, 1000, Level.LAYER, span_id=1))
    t.add(Span("inner", 100, 900, Level.LAYER, span_id=2, parent_id=1))
    t.add(Span("launch", 200, 210, Level.GPU_KERNEL, span_id=3,
               kind=SpanKind.LAUNCH, correlation_id=1))
    reconstruct_parents(t)
    assert t.by_id()[3].parent_id == 2


def test_sweep_handles_sequential_layers_without_stack_growth():
    """Sequential (non-nested) same-level spans expire from the stack front;
    a long trace must not degrade to scanning every dead layer."""
    t = Trace(trace_id=1)
    t.add(Span("predict", 0, 10**9, Level.MODEL, span_id=1))
    sid = 2
    cursor = 0
    expected = {}
    for _ in range(300):
        layer = Span(f"layer{sid}", cursor, cursor + 100, Level.LAYER,
                     span_id=sid)
        t.add(layer)
        launch_id = sid + 1
        t.add(Span(f"launch{launch_id}", cursor + 10, cursor + 20,
                   Level.GPU_KERNEL, span_id=launch_id,
                   kind=SpanKind.LAUNCH, correlation_id=launch_id))
        expected[launch_id] = sid
        cursor += 150
        sid += 2
    reconstruct_parents(t)
    by_id = t.by_id()
    for launch_id, layer_id in expected.items():
        assert by_id[launch_id].parent_id == layer_id
