"""Framework executor behaviour tests (shared engine + both frameworks)."""

import pytest

from repro.frameworks import MXSim, RunOptions, TFSim
from repro.sim import CudaRuntime, VirtualClock, get_system

V100 = get_system("Tesla_V100")


def make(cls=TFSim):
    rt = CudaRuntime(V100, VirtualClock())
    return rt, cls(rt)


def test_predict_returns_latency_and_outputs(cnn_graph):
    rt, fw = make()
    model = fw.load(cnn_graph)
    result = fw.predict(model, 4)
    assert result.latency_ms > 0
    assert result.output_shapes == {"softmax": (4, 10)}
    assert result.native_profile is None


def test_layer_profiling_via_run_options(cnn_graph):
    rt, fw = make()
    model = fw.load(cnn_graph)
    result = fw.predict(model, 4, RunOptions(trace_level="FULL"))
    assert result.native_profile is not None
    assert "step_stats" in result.native_profile


def test_mx_profiler_state_toggle(cnn_graph):
    rt, fw = make(MXSim)
    model = fw.load(cnn_graph)
    assert fw.predict(model, 4).native_profile is None
    fw.set_profiler_state(True)
    profile = fw.predict(model, 4).native_profile
    assert profile is not None and "events" in profile
    fw.set_profiler_state(False)
    assert fw.predict(model, 4).native_profile is None


def test_profiling_inflates_latency_but_layer_latencies_accurate(cnn_graph):
    """Fig. 2: layer profiling adds overhead to the model prediction."""
    rt, fw = make()
    model = fw.load(cnn_graph)
    plain = fw.predict(model, 4).latency_ms
    rt.reset()
    profiled = fw.predict(model, 4, RunOptions(trace_level="FULL"))
    assert profiled.latency_ms > plain * 1.5
    from repro.frameworks.profiler_format import parse_tf_step_stats

    layer_total = sum(
        r.duration_ms for r in parse_tf_step_stats(profiled.native_profile)
    )
    # Accurate layer latencies: they sum to ~the unprofiled latency, far
    # below the inflated prediction latency.
    assert layer_total < plain * 1.15


def test_memory_released_after_predict(cnn_graph):
    rt, fw = make()
    model = fw.load(cnn_graph)
    fw.predict(model, 8)
    assert rt.memory.live_bytes == 0


def test_peak_memory_below_sum_of_all_layers(cnn_graph):
    """Liveness-based freeing keeps the working set bounded."""
    rt, fw = make()
    model = fw.load(cnn_graph)
    fw.predict(model, 8)
    total_allocated = sum(
        ev.nbytes for ev in rt.memory.log if ev.kind == "alloc"
    )
    assert rt.memory.peak_bytes < total_allocated


def test_wrong_framework_model_rejected(cnn_graph):
    _, tf = make()
    _, mx = make(MXSim)
    model = tf.load(cnn_graph)
    with pytest.raises(ValueError, match="compiled for"):
        mx.predict(model, 1)


def test_latency_grows_with_batch(cnn_graph):
    rt, fw = make()
    model = fw.load(cnn_graph)
    lat1 = fw.predict(model, 1).latency_ms
    rt.reset()
    lat64 = fw.predict(model, 64).latency_ms
    assert lat64 > lat1


def test_kernels_tagged_with_layer(cnn_graph):
    rt, fw = make()
    model = fw.load(cnn_graph)
    fw.predict(model, 4)
    assert all("layer_index" in r.spec.tags for r in rt.launch_records)
    assert all("layer_name" in r.spec.tags for r in rt.launch_records)


def test_data_layer_does_h2d_copy(cnn_graph):
    rt, fw = make()
    model = fw.load(cnn_graph)
    fw.predict(model, 4)
    kinds = [m.kind for m in rt.memcpy_records]
    assert "h2d" in kinds and "d2h" in kinds


def test_tf_eigen_vs_mx_mshadow_kernels(cnn_graph):
    rt_tf, tf = make()
    tf.predict(tf.load(cnn_graph), 4)
    tf_names = {r.spec.name for r in rt_tf.launch_records}
    assert any("Eigen::" in n for n in tf_names)

    rt_mx, mx = make(MXSim)
    mx.predict(mx.load(cnn_graph), 4)
    mx_names = {r.spec.name for r in rt_mx.launch_records}
    assert any("mxnet::" in n for n in mx_names)
    assert not any("Eigen::" in n for n in mx_names)


def test_mx_fewer_layers_than_tf(cnn_graph):
    """BN fusion means MXNet executes fewer layers."""
    _, tf = make()
    _, mx = make(MXSim)
    assert mx.load(cnn_graph).n_layers < tf.load(cnn_graph).n_layers


def test_compiled_model_helpers(cnn_graph):
    _, fw = make()
    model = fw.load(cnn_graph)
    assert model.n_layers == len(model.plan)
    assert model.layer_types()["Conv2D"] == 2
    shapes = model.shapes(4)
    assert shapes["softmax"].dims == (4, 10)
    assert model.shapes(4) is shapes  # cached


def _count_lowering(monkeypatch, cls):
    calls = []
    original = cls.emit_kernels

    def counting(self, layer, shapes):
        calls.append(layer.name)
        return original(self, layer, shapes)

    monkeypatch.setattr(cls, "emit_kernels", counting)
    return calls


def test_kernel_plan_lowered_once_per_batch_and_gpu(cnn_graph, monkeypatch):
    """Every run of a session replays one cached plan per (batch, GPU)."""
    calls = _count_lowering(monkeypatch, TFSim)
    rt, fw = make()
    model = fw.load(cnn_graph)
    first = fw.predict(model, 4)
    per_plan = len(calls)
    assert per_plan == sum(1 for l in model.plan if l.op != "Data")
    rt.reset()
    second = fw.predict(model, 4, RunOptions(trace_level="FULL"))
    assert len(calls) == per_plan
    assert second.output_shapes == first.output_shapes
    fw.predict(model, 8)
    assert len(calls) == 2 * per_plan
    # Same compiled model on another GPU: lowered again for that device.
    other = TFSim(CudaRuntime(get_system("Quadro_RTX"), VirtualClock()))
    other.predict(model, 4)
    assert len(calls) == 3 * per_plan
    assert fw.kernel_plan(model, 4) is fw.kernel_plan(model, 4)


def test_replayed_plan_matches_a_fresh_lowering(cnn_graph):
    """A run replaying the cached plan is identical to one that lowers
    from scratch, jitter and launch records included."""
    def run(model, run_index):
        rt = CudaRuntime(V100, VirtualClock(), run_index=run_index)
        result = TFSim(rt).predict(model, 4, RunOptions(trace_level="FULL"))
        launches = [(r.spec.name, dict(r.spec.tags), r.device_start_ns,
                     r.device_end_ns) for r in rt.launch_records]
        return result.latency_ns, result.native_profile, launches

    warm = make()[1].load(cnn_graph)
    run(warm, 0)
    for run_index in (0, 1):
        cold = make()[1].load(cnn_graph)
        assert run(warm, run_index) == run(cold, run_index)


def test_launch_with_cached_roofline_uses_the_one_duration_formula():
    from repro.sim.kernels import (
        KernelClass,
        KernelSpec,
        kernel_duration_ns,
        roofline_ns,
    )

    spec = KernelSpec("k", KernelClass.GEMM, 4e9, 1e7, 1e7, blocks=320)
    rt = CudaRuntime(V100, VirtualClock(), run_index=2)
    cached = rt.launch_kernel(spec, roofline_ns=roofline_ns(spec, V100))
    fresh = rt.launch_kernel(spec)
    expected = kernel_duration_ns(spec, V100, run_index=2)
    assert cached.duration_ns == fresh.duration_ns == expected


def test_out_of_memory_still_raised_on_replay(cnn_graph):
    """Device memory accounting is per run: a cached plan that does not
    fit raises every time, and leaves a smaller batch runnable."""
    from repro.sim.memory import OutOfDeviceMemoryError

    rt, fw = make()
    model = fw.load(cnn_graph)
    huge = 2_000_000
    for _ in range(2):
        with pytest.raises(OutOfDeviceMemoryError):
            fw.predict(model, huge)
        rt.reset()
    assert fw.predict(model, 4).latency_ns > 0
