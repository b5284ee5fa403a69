"""The three stack-level tracers (paper Sec. III-B).

1. **ModelTracer** — spans around user code regions (input pre-processing,
   model prediction, output post-processing), opened and finished with
   :func:`repro.core.api.start_span` / ``finish``; each finished span is
   ingested as one row.
2. **LayerTracer** — consumes the framework profiler's *native* output
   (TF step-stats or MXNet profile dump), converts each layer record to a
   span and parents it on the model-prediction span.  XSP "leverages the
   existing framework's profiling capabilities", so no framework
   modification happens here — only format parsing.
3. **GpuTracer** — consumes CUPTI records: each ``cudaLaunchKernel``
   callback becomes a *launch span*, each kernel activity an *execution
   span*; the two carry the CUPTI ``correlation_id``.  GPU metrics are
   attached to the execution span as ``metric.*`` tags.

The layer and GPU tracers convert offline: they build trace-row fields
straight from the native profile and the CUPTI records and ingest each
dump in one batch.  No tracer builds ``Span`` objects.  Rows
are generated as the trace consumes them, so a dump never exists twice
in memory.  Launch spans are ingested without parents; parent
reconstruction happens offline: a sweep computes the paper's
interval-containment sets
(:func:`repro.tracing.correlation.reconstruct_parents`).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.frameworks.profiler_format import PARSERS
from repro.sim.cupti import ActivityRecord, ApiRecord
from repro.tracing.span import Level, SpanKind, new_span_id
from repro.tracing.table import SpanView
from repro.tracing.tracer import RowIngest, Tracer


class ModelTracer(Tracer):
    """Tracer for user-code (model-level) spans."""

    def __init__(self, ingest: RowIngest | None = None) -> None:
        super().__init__("model_tracer", Level.MODEL, ingest)


class LayerTracer(Tracer):
    """Tracer converting framework-native layer profiles into trace rows."""

    def __init__(self, ingest: RowIngest | None = None) -> None:
        super().__init__("layer_tracer", Level.LAYER, ingest)

    def convert(
        self,
        native_profile: dict[str, Any],
        framework_name: str,
        parent_span_id: int | None,
    ) -> list[SpanView]:
        """Parse a native profile and ingest one row per layer.

        Layer spans are set as children of the model-prediction span, so
        "each layer [is] directly correlated to the model prediction step".
        """
        try:
            parser = PARSERS[framework_name]
        except KeyError:
            raise ValueError(
                f"no profile parser registered for framework {framework_name!r}; "
                f"known: {sorted(PARSERS)}"
            ) from None
        tracer = self.name
        rows = (
            {
                "name": record.name,
                "start_ns": record.start_ns,
                "end_ns": record.end_ns,
                "level": self.level,
                "span_id": new_span_id(),
                "parent_id": parent_span_id,
                "tags": {
                    "layer_index": record.index,
                    "layer_type": record.layer_type,
                    "shape": record.shape,
                    "alloc_bytes": record.alloc_bytes,
                    "tracer": tracer,
                },
            }
            for record in parser(native_profile)
        )
        return self.ingest(rows).views()


class GpuTracer(Tracer):
    """Tracer converting CUPTI callback/activity records into trace rows."""

    def __init__(self, ingest: RowIngest | None = None) -> None:
        super().__init__("gpu_tracer", Level.GPU_KERNEL, ingest)

    def convert(
        self,
        api_records: list[ApiRecord],
        activity_records: list[ActivityRecord],
    ) -> list[SpanView]:
        """Ingest a launch row per API record and an execution row per
        activity - the kernel-dominated bulk of a capture, as one batch."""
        activity_names = {
            a.correlation_id: a.name
            for a in activity_records
            if a.kind == "kernel"
        }
        tracer, level = self.name, self.level

        def rows() -> Iterator[dict[str, Any]]:
            for api in api_records:
                yield {
                    # Label the launch with the launched kernel when known.
                    "name": activity_names.get(api.correlation_id, api.name),
                    "start_ns": api.start_ns,
                    "end_ns": api.end_ns,
                    "level": level,
                    "span_id": new_span_id(),
                    "kind": SpanKind.LAUNCH,
                    "correlation_id": api.correlation_id,
                    "tags": {"api": api.name, "tracer": tracer},
                }
            for act in activity_records:
                tags: dict[str, Any] = {
                    "stream_id": act.stream_id,
                    "grid": act.grid,
                    "block": act.block,
                    "activity_kind": act.kind,
                }
                for metric, value in act.metrics.items():
                    tags[f"metric.{metric}"] = value
                tags["tracer"] = tracer
                kernel = act.kind == "kernel"
                yield {
                    "name": act.name,
                    "start_ns": act.start_ns,
                    "end_ns": act.end_ns,
                    "level": level,
                    "span_id": new_span_id(),
                    # Memory copies are synchronous host-visible activities;
                    # kernels are the async launch/execution pairs.
                    "kind": SpanKind.EXECUTION if kernel else SpanKind.INTERNAL,
                    "correlation_id": act.correlation_id if kernel else None,
                    "tags": tags,
                }

        return self.ingest(rows()).views()
