"""Unit tests for the tracing server."""

from functools import partial

import pytest

from repro.tracing import Level, TracingServer, new_span_id


def _row(name, start=0, end=10, level=Level.MODEL):
    return dict(name=name, start_ns=start, end_ns=end, level=level,
                span_id=new_span_id())


def test_begin_trace_routes_spans():
    server = TracingServer()
    tid = server.begin_trace(model="m")
    server.ingest_rows(tid, [_row("a")])
    trace = server.end_trace(tid)
    assert [s.name for s in trace] == ["a"]
    assert trace.metadata["model"] == "m"


def test_publish_to_explicit_trace_id():
    """Rows go to the trace they are addressed to, not the newest one."""
    server = TracingServer()
    t1 = server.begin_trace()
    t2 = server.begin_trace()
    server.publish_rows(t1, [_row("explicit")])
    assert len(server.get_trace(t1)) == 1
    assert len(server.get_trace(t2)) == 0


def test_rows_for_an_unknown_trace_raise():
    """There is no implicit trace: rows need an open trace id."""
    server = TracingServer()
    with pytest.raises(KeyError):
        server.ingest_rows(12345, [_row("orphan")])
    with pytest.raises(KeyError):
        server.publish_rows(12345, [_row("orphan")])
    assert server.traces() == []


def test_end_trace_deactivates():
    server = TracingServer()
    tid = server.begin_trace()
    server.end_trace(tid)
    assert server.active_trace_id is None


def test_multiple_tracers_aggregate_into_one_timeline():
    """The core idea: spans from different tracers merge into one trace."""
    from repro.core.api import start_span
    from repro.sim import VirtualClock
    from repro.tracing import Tracer

    server = TracingServer()
    tid = server.begin_trace()
    ingest = partial(server.ingest_rows, tid)
    model_tracer = Tracer("model", Level.MODEL, ingest)
    layer_tracer = Tracer("layer", Level.LAYER, ingest)
    clock = VirtualClock()
    predict = start_span(model_tracer, clock.now, "predict")
    for name in ("conv", "relu"):
        layer = start_span(layer_tracer, clock.now, name)
        clock.advance_us(1)
        layer.finish()
    predict.finish()
    trace = server.end_trace(tid)
    assert len(trace) == 3
    assert {s.tags["tracer"] for s in trace} == {"model", "layer"}


def test_clear():
    server = TracingServer()
    tid = server.begin_trace()
    server.ingest_rows(tid, [_row("a")])
    server.clear()
    assert server.traces() == []


def test_end_trace_evicts_finished_trace():
    """A long-lived server must not grow without bound: ending a trace
    removes it from the server while the caller keeps the timeline."""
    server = TracingServer()
    tid = server.begin_trace(model="m")
    server.ingest_rows(tid, [_row("a")])
    trace = server.end_trace(tid)
    assert [s.name for s in trace] == ["a"]  # caller owns the result
    assert server.traces() == []  # server no longer holds it
    with pytest.raises(KeyError):
        server.get_trace(tid)


def test_get_trace_still_serves_open_traces():
    server = TracingServer()
    t1 = server.begin_trace()
    t2 = server.begin_trace()
    server.end_trace(t2)
    assert server.get_trace(t1) is not None  # open trace unaffected
    assert [t.trace_id for t in server.traces()] == [t1]


def test_many_trace_lifecycles_leave_server_empty():
    """The profile-many-models lifecycle: begin/ingest/end N times."""
    server = TracingServer()
    for i in range(50):
        tid = server.begin_trace(run=i)
        server.ingest_rows(tid, [_row(f"s{i}")])
        trace = server.end_trace(tid)
        assert len(trace) == 1
    assert server.traces() == []
    assert server.active_trace_id is None


def test_publish_after_end_is_dropped_not_resurrected():
    """Regression: a late publish addressed to an ended trace must not
    re-create an orphan timeline in the server (unbounded growth again):
    it raises, and the caller's timeline is untouched."""
    server = TracingServer()
    tid = server.begin_trace()
    server.ingest_rows(tid, [_row("on-time")])
    trace = server.end_trace(tid)
    with pytest.raises(KeyError):
        server.publish_rows(tid, [_row("late")])
    with pytest.raises(KeyError):
        server.ingest_rows(tid, [_row("late")])
    assert server.traces() == []  # nothing resurrected server-side
    assert [s.name for s in trace] == ["on-time"]


def test_eviction_state_is_bounded_across_many_lifecycles():
    """The leak fix must not swap trace growth for ended-id growth."""
    server = TracingServer()
    for i in range(200):
        tid = server.begin_trace()
        server.ingest_rows(tid, [_row(f"s{i}")])
        server.end_trace(tid)
    assert server.traces() == []
    # No per-trace bookkeeping outlives the trace.
    assert not any(
        isinstance(v, (set, list, dict)) and len(v) >= 200
        for v in vars(server).values()
    )


def test_publish_after_clear_is_dropped_too():
    """clear() must not let late publishes revive cleared traces."""
    server = TracingServer()
    tid = server.begin_trace()
    server.ingest_rows(tid, [_row("pre-clear")])
    server.clear()
    with pytest.raises(KeyError):
        server.publish_rows(tid, [_row("late")])
    assert server.traces() == []


def test_publication_builds_a_trace_only_on_a_miss(monkeypatch):
    """Publishing into an existing trace must not construct (and throw
    away) a Trace with a fresh SpanTable per batch; a miss raises and
    builds nothing either."""
    import repro.tracing.server as server_mod
    from repro.tracing.trace import Trace

    built = []

    class CountingTrace(Trace):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(server_mod, "Trace", CountingTrace)
    server = TracingServer()
    tid = server.begin_trace()
    for i in range(5):
        server.ingest_rows(tid, [_row(f"p{i}", i, i + 1)])
    server.publish_rows(tid, (_row(f"m{i}", i, i + 1) for i in range(5)))
    assert len(built) == 1  # begin_trace's
    assert len(server.end_trace(tid)) == 10
    with pytest.raises(KeyError):
        server.publish_rows(tid + 1000, (_row(f"o{i}") for i in range(3)))
    assert len(built) == 1


def test_ingest_rows_appends_without_publishing_rows(monkeypatch):
    """Per-run ingest lands rows in the open trace, returns them as
    views, and does not count as an application-timeline publication."""
    server = TracingServer()
    published = []
    monkeypatch.setattr(server, "publish_rows",
                        lambda *a, **k: published.append(a))
    tid = server.begin_trace()
    server.ingest_rows(tid, [_row("first")])
    stream = server.stream(tid)
    rows = [dict(name=f"r{i}", start_ns=i, end_ns=i + 1, level=Level.LAYER,
                 span_id=100 + i, tags={"tracer": "layer_tracer"})
            for i in range(3)]
    batch = server.ingest_rows(tid, rows)
    assert (batch.start, batch.stop) == (1, 4)
    views = batch.views()
    assert [s.name for s in views] == ["r0", "r1", "r2"]
    assert views[1].span_id == 101 and views[-1].trace_id == tid
    assert published == []
    batch = stream.poll()
    assert (batch.start, batch.stop) == (0, 4)
    trace = server.end_trace(tid)
    assert [s.name for s in trace] == ["first", "r0", "r1", "r2"]
