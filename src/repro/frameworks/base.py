"""Framework ABC and the shared layer-execution engine.

A framework compiles a model graph into a layer plan (framework-specific
rewrites, see :mod:`repro.frameworks.optimizer`) and executes it against
the simulated CUDA runtime: per layer, it pays host-side scheduling cost,
allocates the output tensor, launches the layer's kernels, and waits for
the stream.  The difference between a layer's latency and its kernels'
device time is the paper's "non-GPU latency" (Fig. 8).

Lowering happens once per (model, batch, GPU): :meth:`Framework.kernel_plan`
turns the layer plan into a cached :class:`KernelPlan` (shapes, host
costs, tagged kernels and their roofline durations), and every run of a
leveled experiment replays it, applying only per-run effects.

The built-in layer profiler mirrors the real frameworks': enabling it adds
per-layer overhead to the prediction latency while the recorded per-layer
latencies stay accurate (the basis of leveled experimentation, Fig. 2);
output is produced in each framework's *native* format
(:mod:`repro.frameworks.profiler_format`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from repro.frameworks.graph import Graph
from repro.frameworks.optimizer import PlanLayer, RewriteRules, build_plan
from repro.frameworks.profiler_format import LayerRecord
from repro.frameworks.shapes import (
    TensorShape,
    infer_shapes,
    model_weight_bytes,
)
from repro.sim.calibration import (
    HOST_CALIBRATION,
    PROFILING_CALIBRATION,
    HostCalibration,
    ProfilingCalibration,
)
from repro.sim.cuda import CudaRuntime
from repro.sim.hardware import GPUSpec
from repro.sim.kernels import KernelSpec, roofline_ns
from repro.sim.memory import Allocation


@dataclass
class RunOptions:
    """TensorFlow-style per-call options (RunOptions.TraceLevel analog)."""

    trace_level: str = "NONE"  # "NONE" | "FULL"

    @property
    def layer_profiling(self) -> bool:
        return self.trace_level == "FULL"


@dataclass
class PredictionResult:
    """Outcome of one model-prediction call."""

    batch: int
    start_ns: int
    end_ns: int
    output_shapes: dict[str, tuple[int, ...]]
    #: Framework-native profile dump (None unless layer profiling was on).
    native_profile: dict[str, Any] | None = None
    #: High-water device memory during the prediction (weights + live
    #: activations under liveness-based freeing).
    peak_device_memory_bytes: int = 0

    @property
    def latency_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def latency_ms(self) -> float:
        return self.latency_ns / 1e6


@dataclass
class CompiledModel:
    """A graph compiled for one framework."""

    graph: Graph
    plan: list[PlanLayer]
    framework: str
    weight_bytes: int
    _shape_cache: dict[int, dict[str, TensorShape]] = field(default_factory=dict)
    #: Lowered kernel plans, keyed on (batch, GPU) - see Framework.kernel_plan.
    _kernel_plans: dict[tuple[int, GPUSpec], "KernelPlan"] = field(
        default_factory=dict, repr=False, compare=False
    )

    def shapes(self, batch: int) -> dict[str, TensorShape]:
        if batch not in self._shape_cache:
            self._shape_cache[batch] = infer_shapes(self.graph, batch)
        return self._shape_cache[batch]

    @property
    def n_layers(self) -> int:
        return len(self.plan)

    def layer_types(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for layer in self.plan:
            hist[layer.layer_type] = hist.get(layer.layer_type, 0) + 1
        return hist


@dataclass(frozen=True)
class PlannedLayer:
    """One layer of a :class:`KernelPlan`: everything a run replays."""

    layer: PlanLayer
    #: Output tensor dims (reported by the layer profiler).
    dims: tuple[int, ...]
    #: Device bytes allocated for the output (0: no allocation).
    alloc_bytes: int
    #: Host-side scheduling cost before the layer's work is issued.
    host_us: float
    #: Input feed copied host-to-device (Data layers only, else None).
    h2d_bytes: int | None
    #: (kernel spec tagged with the layer, pre-jitter roofline ns).
    kernels: tuple[tuple[KernelSpec, float], ...]
    #: Input tensors whose last consumer this layer is (freed after it).
    frees: tuple[str, ...]


@dataclass(frozen=True)
class KernelPlan:
    """A compiled model lowered for one (batch, GPU): a flat layer list.

    Everything run-invariant is computed once - output shapes and
    allocation sizes, host costs, the kernels each layer launches (tags
    included) and their roofline durations.  A prediction replays it and
    applies only per-run effects: the run's jitter, profiler overheads,
    launch blocking and device memory accounting.
    """

    layers: tuple[PlannedLayer, ...]
    #: Bytes of each model output copied back to the host.
    output_bytes: tuple[int, ...]
    output_shapes: dict[str, tuple[int, ...]]


class Framework(abc.ABC):
    """Base class for the TensorFlow-like and MXNet-like simulators."""

    #: Registry key; must match a HOST_CALIBRATION / profiler-format entry.
    name: str = ""
    display_name: str = ""
    #: Extra host cost per layer for host-interactive ops, as
    #: (fixed_us, per_output_MB_us, per_image_us).  `Where` dominates
    #: object-detection model latency through host round-trips whose work
    #: scales with the number of images' boxes (paper Sec. IV-A).
    HOST_EXTRA_US: dict[str, tuple[float, float, float]] = {
        "Where": (40.0, 80.0, 95.0),
        "Transpose": (8.0, 0.0, 0.0),
        "Concat": (6.0, 0.0, 0.0),
        "Reshape": (-2.0, 0.0, 0.0),  # pure metadata update
    }

    def __init__(
        self,
        runtime: CudaRuntime,
        *,
        profiling_calibration: ProfilingCalibration = PROFILING_CALIBRATION,
    ) -> None:
        if not self.name:
            raise TypeError("Framework subclasses must set a registry name")
        self.runtime = runtime
        self.host: HostCalibration = HOST_CALIBRATION[self.name]
        self.profiling_calibration = profiling_calibration
        self._profiler_state = False  # MXNet-style toggle

    # -- framework-specific hooks ------------------------------------------
    @property
    @abc.abstractmethod
    def rewrite_rules(self) -> RewriteRules:
        """Compilation rules (BN decomposition, type labels, naming)."""

    @abc.abstractmethod
    def emit_kernels(
        self, layer: PlanLayer, shapes: dict[str, TensorShape]
    ) -> list[Any]:
        """GPU kernels launched by one layer (list of KernelSpec)."""

    @abc.abstractmethod
    def serialize_profile(self, records: list[LayerRecord]) -> dict[str, Any]:
        """Dump layer records in the framework's native profiler format."""

    # -- profiler control -----------------------------------------------------
    def set_profiler_state(self, active: bool) -> None:
        """MXNet-style global profiler toggle (MXSetProfilerState analog)."""
        self._profiler_state = active

    def _profiling_active(self, options: RunOptions | None) -> bool:
        if options is not None and options.layer_profiling:
            return True
        return self._profiler_state

    # -- compilation -------------------------------------------------------------
    def load(self, graph: Graph) -> CompiledModel:
        """Compile a model graph for execution on this framework."""
        return CompiledModel(
            graph=graph,
            plan=build_plan(graph, self.rewrite_rules),
            framework=self.name,
            weight_bytes=model_weight_bytes(graph),
        )

    # -- prediction ----------------------------------------------------------------
    def predict(
        self,
        model: CompiledModel,
        batch: int,
        options: RunOptions | None = None,
    ) -> PredictionResult:
        """Run one inference; all time accounting is virtual nanoseconds."""
        if model.framework != self.name:
            raise ValueError(
                f"model compiled for {model.framework!r} cannot run on {self.name!r}"
            )
        rt = self.runtime
        clock = rt.clock
        memory = rt.memory
        launch = rt.launch_kernel
        profiling = self._profiling_active(options)
        layer_us = self.profiling_calibration.framework_layer_us
        plan = self.kernel_plan(model, batch)

        start_ns = clock.now()
        clock.advance_us(self.host.run_fixed_us + self.host.per_image_us * batch)
        weights: Allocation | None = None
        if model.weight_bytes:
            weights = memory.alloc(
                model.weight_bytes, tag="__weights__", timestamp_ns=clock.now()
            )

        live: dict[str, Allocation] = {}
        records: list[LayerRecord] = []
        for step in plan.layers:
            layer = step.layer
            layer_start = clock.now()
            clock.advance_us(step.host_us)
            if step.alloc_bytes:
                live[layer.name] = memory.alloc(
                    step.alloc_bytes, tag=layer.name, timestamp_ns=clock.now()
                )
            if step.h2d_bytes is not None:
                # Feeding the input: host-to-device copy of the input tensor.
                rt.memcpy(step.h2d_bytes, kind="h2d")
            else:
                for spec, roofline in step.kernels:
                    launch(spec, roofline_ns=roofline)
                rt.stream_synchronize()
            if profiling:
                records.append(
                    LayerRecord(
                        index=layer.index,
                        name=layer.name,
                        layer_type=layer.layer_type,
                        shape=step.dims,
                        start_ns=layer_start,
                        end_ns=clock.now(),
                        alloc_bytes=step.alloc_bytes,
                    )
                )
                # The profiler's own record-keeping cost lands *after* the
                # measured region: layer latencies stay accurate while the
                # prediction latency inflates (Fig. 2).
                clock.advance_us(layer_us)
            for name in step.frees:
                alloc = live.pop(name, None)
                if alloc is not None:
                    memory.free(alloc, timestamp_ns=clock.now())

        # Copy the model output(s) back to the host.
        for nbytes in plan.output_bytes:
            rt.memcpy(nbytes, kind="d2h")
        for alloc in live.values():
            memory.free(alloc, timestamp_ns=clock.now())
        if weights is not None:
            memory.free(weights, timestamp_ns=clock.now())

        end_ns = clock.now()
        return PredictionResult(
            batch=batch,
            start_ns=start_ns,
            end_ns=end_ns,
            output_shapes=dict(plan.output_shapes),
            native_profile=self.serialize_profile(records) if profiling else None,
            peak_device_memory_bytes=memory.peak_bytes,
        )

    # -- lowering ----------------------------------------------------------------
    def kernel_plan(self, model: CompiledModel, batch: int) -> KernelPlan:
        """The model lowered for ``batch`` on this runtime's GPU, cached on
        the compiled model: every run of a session replays one plan."""
        key = (batch, self.runtime.gpu)
        plan = model._kernel_plans.get(key)
        if plan is None:
            plan = model._kernel_plans[key] = self._lower(model, batch)
        return plan

    def _lower(self, model: CompiledModel, batch: int) -> KernelPlan:
        gpu = self.runtime.gpu
        shapes = model.shapes(batch)
        refcounts: dict[str, int] = {}
        for layer in model.plan:
            for inp in layer.inputs:
                refcounts[inp] = refcounts.get(inp, 0) + 1

        layers = []
        for layer in model.plan:
            out_shape = shapes[layer.source]
            out_bytes = 0 if layer.op == "Reshape" else out_shape.nbytes
            kernels: tuple[tuple[KernelSpec, float], ...] = ()
            if layer.op != "Data":
                tagged = [
                    spec.with_tags(layer_index=layer.index, layer_name=layer.name)
                    for spec in self.emit_kernels(layer, shapes)
                ]
                kernels = tuple((spec, roofline_ns(spec, gpu)) for spec in tagged)
            frees = []
            for inp in layer.inputs:
                refcounts[inp] -= 1
                if refcounts[inp] == 0:
                    frees.append(inp)
            layers.append(
                PlannedLayer(
                    layer=layer,
                    dims=out_shape.dims,
                    alloc_bytes=out_bytes,
                    host_us=self._host_us(layer.op, out_bytes, out_shape.batch),
                    h2d_bytes=out_shape.nbytes if layer.op == "Data" else None,
                    kernels=kernels,
                    frees=tuple(frees),
                )
            )
        outputs = model.graph.outputs()
        return KernelPlan(
            layers=tuple(layers),
            output_bytes=tuple(shapes[out.name].nbytes for out in outputs),
            output_shapes={out.name: shapes[out.name].dims for out in outputs},
        )

    def _host_us(self, op: str, out_bytes: int, batch: int) -> float:
        """Host cost of scheduling one layer (framework bookkeeping plus
        the op's host-interactive extra, if any)."""
        extra_fixed, extra_per_mb, extra_per_image = self.HOST_EXTRA_US.get(
            op, (0.0, 0.0, 0.0)
        )
        out_mb = out_bytes / 1e6
        host_us = (
            self.host.layer_fixed_us
            + self.host.layer_per_mb_us * out_mb
            + extra_fixed
            + extra_per_mb * out_mb
            + extra_per_image * batch
        )
        return max(0.5, host_us)
