"""LiveMonitor: insights over an in-flight capture via the stream cursor."""

from __future__ import annotations

import threading

from factories import build_basic_profile, make_matching_trace

from repro.insights import LiveMonitor
from repro.tracing import Level, TracingServer


def _capture_rows():
    """A realistic capture (model + layers + kernel pairs) as row fields,
    without parents (correlation rebuilds them)."""
    profile = build_basic_profile()
    trace = make_matching_trace(profile, gap_us=100.0)
    return [
        dict(name=v.name, start_ns=v.start_ns, end_ns=v.end_ns,
             level=v.level, span_id=v.span_id, kind=v.kind,
             correlation_id=v.correlation_id, tags=dict(v.iter_tags()))
        for v in trace
    ]


def _begin(server):
    return server.begin_trace(
        model="synthetic", system="Tesla_V100",
        framework="tensorflow_like", batch=8,
    )


def test_monitor_refreshes_per_batch_and_finishes():
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid, correlate=True)
    rows = _capture_rows()
    third = len(rows) // 3

    server.publish_rows(tid, rows[:third])
    first = monitor.poll()
    assert first is not None and not first.final
    assert first.new_rows == third
    assert first.refreshed_rules  # everything ran on the first refresh

    # Quiet capture: no rows -> no update, no rule evaluations.
    evaluations = dict(monitor.engine.evaluations)
    assert monitor.poll() is None
    assert monitor.engine.evaluations == evaluations

    server.publish_rows(tid, rows[third:])
    server.end_trace(tid)
    second = monitor.poll()
    assert second is not None and second.final
    assert second.n_spans == len(rows)
    assert monitor.done
    assert monitor.poll() is None

    # The completed capture's report carries real findings: the 100 us
    # inter-kernel gaps make the idle-bubble rule fire.
    assert second.report.by_rule("gpu-idle-bubbles")


def test_monitor_correlates_incrementally():
    """With correlate=True, kernels arriving unparented get resolved to
    their layers across increments, matching the profile view."""
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid, correlate=True)
    rows = _capture_rows()
    # Split on a span boundary such that each increment carries whole
    # layers (parents never arrive after their children's increment).
    layer_ids = [r["span_id"] for r in rows if r["level"] is Level.LAYER]
    cut = next(
        i for i, r in enumerate(rows) if r["span_id"] == layer_ids[1]
    ) + 1
    server.publish_rows(tid, rows[:cut])
    update = monitor.poll()
    assert update is not None
    server.publish_rows(tid, rows[cut:])
    server.end_trace(tid)
    final = monitor.poll()
    assert final is not None and final.final
    trace = monitor.trace
    # Every execution span ends up parented under some layer span.
    layer_set = set(layer_ids)
    from repro.tracing.span import SpanKind

    executions = [
        s for s in trace if s.kind is SpanKind.EXECUTION
    ]
    assert executions
    assert all(s.parent_id in layer_set for s in executions)


def test_monitor_blocking_updates_with_producer_thread():
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid)
    rows = _capture_rows()

    def produce():
        half = len(rows) // 2
        server.publish_rows(tid, rows[:half])
        server.publish_rows(tid, rows[half:])
        server.end_trace(tid)

    producer = threading.Thread(target=produce)
    producer.start()
    updates = list(monitor.updates())
    producer.join()
    assert updates  # at least one refresh observed
    assert updates[-1].final
    assert updates[-1].n_spans == len(rows)
    assert sum(u.new_rows for u in updates) == len(rows)


def test_monitor_empty_closed_trace_yields_nothing():
    server = TracingServer()
    tid = _begin(server)
    monitor = LiveMonitor(server, tid)
    server.end_trace(tid)
    assert monitor.poll() is None
    assert monitor.done
