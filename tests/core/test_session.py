"""XSPSession integration tests."""

import pytest

from repro.core import (
    M,
    ML,
    MLG,
    ProfilingConfig,
    XSPSession,
    profile_from_trace,
)
from repro.tracing import Level, SpanKind


def _run(session, graph, batch=4, levels=MLG, **kw):
    return session.profile(graph, batch, ProfilingConfig(levels=levels, **kw))


def test_model_level_only(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph, levels=M)
    assert run.trace.at_level(Level.LAYER) == []
    assert run.trace.at_level(Level.GPU_KERNEL) == []
    names = {s.name for s in run.trace.at_level(Level.MODEL)}
    assert names == {"input_preprocess", "predict", "output_postprocess"}


def test_ml_level_has_layer_spans(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph, levels=ML)
    layers = run.trace.at_level(Level.LAYER)
    assert len(layers) > 5
    assert all(s.parent_id == run.predict_span.span_id for s in layers)
    assert run.trace.at_level(Level.GPU_KERNEL) == []


def test_mlg_level_full_stack(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph)
    kernels = run.trace.at_level(Level.GPU_KERNEL)
    assert kernels
    launches = [s for s in kernels if s.kind is SpanKind.LAUNCH]
    executions = [s for s in kernels if s.kind is SpanKind.EXECUTION]
    assert len(launches) == len(executions) == len(run.kernels)


def test_kernels_correlated_to_layers(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph)
    profile = profile_from_trace(run.trace)
    # Every kernel found its layer.
    assert len(profile.kernels) == len(run.kernels)
    # The first Conv2D layer owns at least one scudnn/implicit kernel.
    conv = next(l for l in profile.layers if l.layer_type == "Conv2D")
    conv_kernel_names = [k.name for k in conv.kernels]
    assert any("convolve" in n or "scudnn" in n for n in conv_kernel_names)


def test_launch_spans_contained_in_their_layer(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph)
    by_id = run.trace.by_id()
    for mk in run.kernels:
        layer = by_id[mk.parent_id]
        assert layer.contains(mk.launch)


def test_layer_spans_nest_in_predict(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph, levels=ML)
    for span in run.trace.at_level(Level.LAYER):
        assert run.predict_span.contains(span)


def test_metrics_attached(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph)
    flops = [
        dict(k.execution.iter_tags()).get("metric.flop_count_sp")
        for k in run.kernels
    ]
    assert any(f and f > 0 for f in flops)


def test_serialized_config_sets_env(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph, serialized=True)
    assert run.config.serialized
    assert not run.correlation.needs_serialized_rerun


def test_no_ambiguity_in_sequential_execution(v100_session, cnn_graph):
    run = _run(v100_session, cnn_graph)
    assert not run.correlation.needs_serialized_rerun
    assert not run.was_serialized_retry


def test_run_summary(v100_session, cnn_graph):
    summary = _run(v100_session, cnn_graph).summary()
    assert summary["system"] == "Tesla_V100"
    assert summary["levels"] == "M/L/G"
    assert summary["n_kernels"] > 0


def test_unknown_framework_rejected():
    with pytest.raises(KeyError, match="unknown framework"):
        XSPSession(framework="pytorch_like")


def test_framework_aliases():
    assert XSPSession(framework="tf").framework_cls.name == "tensorflow_like"
    assert XSPSession(framework="mx").framework_cls.name == "mxnet_like"


def test_mxnet_session_profiles(mx_session, cnn_graph):
    run = _run(mx_session, cnn_graph)
    types = {s.tags["layer_type"] for s in run.trace.at_level(Level.LAYER)}
    assert "Convolution" in types
    assert "BatchNorm" in types


def test_run_index_changes_latency_slightly(v100_session, cnn_graph):
    a = _run(v100_session, cnn_graph, levels=M, run_index=0)
    b = _run(v100_session, cnn_graph, levels=M, run_index=1)
    assert a.model_latency_ms != b.model_latency_ms
    assert abs(a.model_latency_ms - b.model_latency_ms) < 0.2 * a.model_latency_ms


def test_profiler_output_is_ingested_without_span_objects(
    cnn_graph, monkeypatch
):
    """Every tracer - model, layer, GPU and library - and the application
    span go straight into trace rows: a run builds no Span object."""
    from repro.core import MLLibG
    from repro.tracing import span as span_mod

    built = []
    original = span_mod.Span.__post_init__

    def counting(self):
        built.append(self.name)
        original(self)

    monkeypatch.setattr(span_mod.Span, "__post_init__", counting)
    session = XSPSession("Tesla_V100", "tensorflow_like")
    run = session.profile(cnn_graph, 2, ProfilingConfig(levels=MLLibG))
    assert built == []
    assert {s.level for s in run.trace} == {
        Level.MODEL, Level.LAYER, Level.LIBRARY, Level.GPU_KERNEL
    }
    app_trace, runs = session.profile_application(
        [(cnn_graph, 1), (cnn_graph, 2)], config=ProfilingConfig(levels=MLG)
    )
    assert built == []
    assert len(runs) == 2
    assert [s.name for s in app_trace.at_level(Level.APPLICATION)] == [
        "application"
    ]


def test_model_spans_stay_in_their_runs_trace(cnn_graph, monkeypatch):
    """Regression: another trace opened on the shared server mid-run
    (another session, a live monitor) must not capture the run's model
    spans - each tracer is bound to the run's own trace."""
    session = XSPSession("Tesla_V100", "tensorflow_like")
    original = session._predict
    opened = []

    def predict_and_open_another_trace(*args, **kwargs):
        opened.append(session.server.begin_trace(intruder=True))
        return original(*args, **kwargs)

    monkeypatch.setattr(session, "_predict", predict_and_open_another_trace)
    run = session.profile(cnn_graph, 2, ProfilingConfig(levels=M))
    assert [s.name for s in run.trace.at_level(Level.MODEL)] == [
        "input_preprocess", "predict", "output_postprocess"
    ]
    assert all(s.trace_id == run.trace.trace_id for s in run.trace)
    (other,) = opened
    assert len(session.server.get_trace(other)) == 0
