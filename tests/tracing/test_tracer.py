"""Unit tests for tracers."""

from repro.core.api import start_span
from repro.sim import VirtualClock
from repro.tracing import Level, Tracer


def test_tracer_tags_origin():
    t = Tracer("layer_tracer", Level.LAYER)
    s = start_span(t, VirtualClock().now, "op").finish()
    assert s.tags["tracer"] == "layer_tracer"


def test_span_level_comes_from_tracer():
    t = Tracer("t", Level.GPU_KERNEL)
    s = start_span(t, VirtualClock().now, "kernel").finish()
    assert s.level == Level.GPU_KERNEL

