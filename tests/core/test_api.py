"""startSpan/finishSpan API tests."""

from functools import partial

from repro.core.api import finish_span, start_span
from repro.core.profilers import ModelTracer
from repro.sim import VirtualClock
from repro.tracing import Level, SpanView, TracingServer


def test_start_finish_measures_region():
    clock = VirtualClock()
    tracer = ModelTracer()
    scope = start_span(tracer, clock.now, "predict", batch=8)
    clock.advance_ms(5)
    span = finish_span(scope, status="ok")
    assert isinstance(span, SpanView)
    assert span.duration_ms == 5.0
    assert span.tags["batch"] == 8
    assert span.tags["status"] == "ok"
    assert span.level == Level.MODEL
    assert span.span_id == scope.span_id
    assert list(span.tags) == ["batch", "status", "tracer"]


def test_nested_spans_via_parent_id():
    clock = VirtualClock()
    tracer = ModelTracer()
    outer = start_span(tracer, clock.now, "evaluate")
    inner = start_span(tracer, clock.now, "predict",
                       parent_id=outer.span_id)
    clock.advance_ms(1)
    inner_span = finish_span(inner)
    clock.advance_ms(1)
    outer_span = finish_span(outer)
    assert inner_span.parent_id == outer_span.span_id
    assert outer_span.duration_ms == 2.0


def test_finished_spans_land_in_the_tracers_trace_in_finish_order():
    server = TracingServer()
    tid = server.begin_trace()
    clock = VirtualClock()
    tracer = ModelTracer(partial(server.ingest_rows, tid))
    outer = start_span(tracer, clock.now, "evaluate")
    inner = start_span(tracer, clock.now, "predict")
    clock.advance_ms(1)
    inner.finish()
    outer.finish()
    trace = server.end_trace(tid)
    assert [s.name for s in trace] == ["predict", "evaluate"]
    assert all(s.trace_id == tid for s in trace)
    assert outer.span_id < inner.span_id  # ids allocated at start
