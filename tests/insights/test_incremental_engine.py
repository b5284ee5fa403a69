"""InsightEngine's findings cache: re-evaluate only rules whose ingredients
changed, and report exactly what a fresh engine would."""

from __future__ import annotations

from factories import build_basic_profile, make_matching_trace

from repro.insights import (
    Insight,
    InsightContext,
    InsightEngine,
    Rule,
    registry,
    rules_requiring,
)
from repro.tracing import Level, Span


def _probe_rule(name: str, requires: tuple[str, ...], counter: dict):
    def func(ctx):
        counter[name] = counter.get(name, 0) + 1
        return [
            Insight(
                rule=name,
                title=name,
                severity=0.5,
                recommendation="n/a",
            )
        ]

    return Rule(name=name, description=name, requires=requires, func=func)


def _context(profile=None, trace=None, sweep=None, peak=None):
    return InsightContext.build(
        profile if profile is not None else build_basic_profile(),
        trace=trace,
        sweep=sweep,
        peak_device_memory_bytes=peak,
    )


def _probe_engine():
    counter: dict[str, int] = {}
    rules = [
        _probe_rule("p-only", ("profile",), counter),
        _probe_rule("t-rule", ("profile", "trace"), counter),
        _probe_rule("s-rule", ("profile", "sweep"), counter),
    ]
    return InsightEngine(rules), counter


def test_first_analyze_runs_everything_then_nothing():
    engine, counter = _probe_engine()
    profile = build_basic_profile()
    trace = make_matching_trace(profile)
    context = _context(profile, trace=trace, sweep={1: 5.0, 2: 8.0})
    report = engine.analyze(context)
    assert counter == {"p-only": 1, "t-rule": 1, "s-rule": 1}
    assert sorted(engine.last_refreshed) == ["p-only", "s-rule", "t-rule"]
    # Unchanged context: zero rule evaluations, identical report.
    again = engine.analyze(context)
    assert counter == {"p-only": 1, "t-rule": 1, "s-rule": 1}
    assert engine.last_refreshed == []
    assert [i.rule for i in again] == [i.rule for i in report]


def test_trace_growth_refreshes_only_trace_rules():
    engine, counter = _probe_engine()
    profile = build_basic_profile()
    trace = make_matching_trace(profile)
    context = _context(profile, trace=trace, sweep={1: 5.0, 2: 8.0})
    engine.analyze(context)
    trace.add(Span("late", 0, 5, Level.MODEL, span_id=10_000))
    engine.analyze(context)
    assert counter == {"p-only": 1, "t-rule": 2, "s-rule": 1}
    assert engine.last_refreshed == ["t-rule"]


def test_sweep_change_refreshes_only_sweep_rules():
    engine, counter = _probe_engine()
    profile = build_basic_profile()
    trace = make_matching_trace(profile)
    context = _context(profile, trace=trace, sweep={1: 5.0, 2: 8.0})
    engine.analyze(context)
    context.sweep_latencies_ms[4] = 13.0
    engine.analyze(context)
    assert counter == {"p-only": 1, "t-rule": 1, "s-rule": 2}


def test_profile_replacement_refreshes_profile_dependents():
    engine, counter = _probe_engine()
    trace = make_matching_trace(build_basic_profile())
    engine.analyze(_context(trace=trace, sweep={1: 5.0, 2: 8.0}))
    # A re-derived but content-identical profile reads as unchanged
    # (the live flow rebuilds the profile object on every refresh) ...
    engine.analyze(_context(trace=trace, sweep={1: 5.0, 2: 8.0}))
    assert counter == {"p-only": 1, "t-rule": 1, "s-rule": 1}
    # ... while an actual content change re-runs every profile consumer.
    changed = build_basic_profile()
    changed.model_latency_ms *= 2
    engine.analyze(
        _context(changed, trace=trace, sweep={1: 5.0, 2: 8.0})
    )
    assert counter == {"p-only": 2, "t-rule": 2, "s-rule": 2}


def test_missing_ingredient_skips_and_reevaluates_on_arrival():
    engine, counter = _probe_engine()
    profile = build_basic_profile()
    report = engine.analyze(_context(profile))
    assert counter == {"p-only": 1}
    assert report.skipped_rules == {"t-rule": "trace", "s-rule": "sweep"}
    trace = make_matching_trace(profile)
    report = engine.analyze(_context(profile, trace=trace))
    assert counter["t-rule"] == 1
    assert report.skipped_rules == {"s-rule": "sweep"}


def test_matches_plain_engine_on_builtin_rules():
    """Grow a trace across refreshes: every incremental report must be
    identical to a fresh full-engine run over the same context."""
    profile = build_basic_profile()
    full_trace = make_matching_trace(profile, gap_us=50.0)
    spans = list(full_trace)

    incremental = InsightEngine()
    from repro.tracing import Trace

    growing = Trace(trace_id=1)
    for cut in (len(spans) // 3, 2 * len(spans) // 3, len(spans)):
        while len(growing) < cut:
            view = spans[len(growing)]
            growing.add(
                Span(view.name, view.start_ns, view.end_ns, view.level,
                     span_id=view.span_id, kind=view.kind,
                     parent_id=view.parent_id,
                     correlation_id=view.correlation_id,
                     tags=dict(view.iter_tags()))
            )
        context = _context(profile, trace=growing, sweep={1: 5.0, 2: 8.0})
        live = incremental.analyze(context)
        reference = InsightEngine().analyze(context)
        assert [
            (i.rule, i.title, i.severity) for i in live
        ] == [(i.rule, i.title, i.severity) for i in reference]
        assert live.skipped_rules == reference.skipped_rules


def _summary(report):
    return (
        [(i.rule, i.title, i.severity) for i in report],
        dict(report.skipped_rules),
    )


def test_alternating_contexts_match_fresh_engines():
    """One engine fed A, B, A (different profiles and sweeps, the way
    ``aggregate_insights`` reuses its engine across grid points) reports
    what a fresh engine reports for each context."""
    profile_a = build_basic_profile()
    profile_b = build_basic_profile()
    profile_b.batch = 32
    profile_b.model_latency_ms *= 3
    for layer in profile_b.layers[::2]:
        layer.latency_ms *= 4
    context_a = _context(profile_a, sweep={1: 5.0, 2: 8.0, 4: 30.0})
    context_b = _context(profile_b, sweep={8: 9.0, 32: 20.0})
    engine = InsightEngine()
    outcomes = [
        _summary(engine.analyze(ctx))
        for ctx in (context_a, context_b, context_a)
    ]
    fresh_a = _summary(InsightEngine().analyze(context_a))
    fresh_b = _summary(InsightEngine().analyze(context_b))
    assert fresh_a != fresh_b  # the contexts really differ
    assert outcomes == [fresh_a, fresh_b, fresh_a]


def test_reregistered_rule_is_reevaluated_on_unchanged_context():
    """The cache is keyed on the rule object, not its name: replacing a
    registered rule under the same name runs the new function even
    though no ingredient changed."""
    counter: dict[str, int] = {}
    original = _probe_rule("zz-probe", ("profile",), counter)
    registry.register(original)
    try:
        engine = InsightEngine()
        context = _context()
        first = engine.analyze(context)
        assert [i.title for i in first.by_rule("zz-probe")] == ["zz-probe"]
        registry.unregister("zz-probe")

        def replacement(ctx):
            return [
                Insight(rule="zz-probe", title="replaced", severity=0.9,
                        recommendation="n/a")
            ]

        registry.register(
            Rule(name="zz-probe", description="zz-probe",
                 requires=("profile",), func=replacement)
        )
        second = engine.analyze(context)
        assert [i.title for i in second.by_rule("zz-probe")] == ["replaced"]
        assert engine.last_refreshed == ["zz-probe"]
        assert counter == {"zz-probe": 1}
    finally:
        registry.unregister("zz-probe")


def test_rules_requiring_selects_by_ingredient():
    trace_rules = {r.name for r in rules_requiring("trace")}
    assert "gpu-idle-bubbles" in trace_rules
    assert all(
        "trace" in registry.get_rule(name).requires for name in trace_rules
    )
    try:
        rules_requiring("bogus")
    except ValueError:
        pass
    else:  # pragma: no cover - assertion arm
        raise AssertionError("expected ValueError for unknown ingredient")
