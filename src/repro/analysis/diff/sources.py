"""Diff inputs: profiles from store entries, profile JSONs, or raw traces.

``repro diff`` accepts either side of a comparison in three shapes:

* **store coordinates** — resolved against a
  :class:`~repro.core.cache.ProfileStore` (the PR 1 cache becomes A/B
  infrastructure: every cached entry is a comparable artifact),
* **a saved profile JSON** — a store document (``schema_version`` +
  ``key`` + ``profile``) or a bare :func:`profile_to_dict` payload,
* **a saved trace JSON** — a ``repro trace --output`` capture, converted
  to a single-run :class:`~repro.core.pipeline.ModelProfile` via
  :func:`profile_from_trace` (layer spans supply latencies, correlated
  execution spans supply the kernels and their ``metric.*`` tags).
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.pipeline import KernelProfile, LayerProfile, ModelProfile
from repro.tracing.export import trace_from_dict
from repro.tracing.span import Level, SpanKind
from repro.tracing.table import _KIND_CODE, NONE_ID
from repro.tracing.trace import Trace


def profile_from_trace(trace: Trace) -> ModelProfile:
    """A single-run profile view of one captured across-stack trace.

    Accuracy note (paper Sec. III-C): a trace mixes levels captured in
    one run, so layer latencies carry the GPU-profiling overhead the
    leveled pipeline removes — good enough for diffing two traces
    captured the same way, not a substitute for the merged profile.

    Consumes the trace's columnar storage directly (row partitions from
    the index, read-only tag access) — no span objects are materialized.
    """
    table = trace.table
    index = trace.index
    starts = table.start_ns
    ends = table.end_ns
    span_ids = table.span_id
    parents = table.parent_id

    layer_rows = sorted(
        index.level_rows().get(Level.LAYER, []),
        key=lambda row: table.peek_tags(row).get("layer_index", 0),
    )
    layers: list[LayerProfile] = []
    by_layer_span: dict[int, LayerProfile] = {}
    for row in layer_rows:
        tags = table.peek_tags(row)
        layer = LayerProfile(
            index=int(tags.get("layer_index", len(layers))),
            name=table.name_of(row),
            layer_type=str(tags.get("layer_type", "unknown")),
            shape=tuple(tags.get("shape", ())),
            latency_ms=(ends[row] - starts[row]) / 1e6,
            alloc_bytes=int(tags.get("alloc_bytes", 0)),
        )
        layers.append(layer)
        by_layer_span[span_ids[row]] = layer
    # Kernels hang off their layer span directly, or — when the library
    # level was captured — via an intermediate cuDNN/cuBLAS API span, so
    # resolve through the ancestor chain up to the enclosing layer.
    row_by_id = index.row_by_id()

    def enclosing_layer(row: int) -> LayerProfile | None:
        seen: set[int] = set()
        parent_id = parents[row]
        while parent_id != NONE_ID and parent_id not in seen:
            layer = by_layer_span.get(parent_id)
            if layer is not None:
                return layer
            seen.add(parent_id)
            parent_row = row_by_id.get(parent_id)
            parent_id = parents[parent_row] if parent_row is not None else NONE_ID
        return None

    execution_code = _KIND_CODE[SpanKind.EXECUTION]
    kinds = table.kind
    for row in index.level_rows().get(Level.GPU_KERNEL, []):
        if kinds[row] != execution_code:
            continue
        layer = enclosing_layer(row)
        if layer is None:
            continue  # kernel outside any layer span
        tags = table.peek_tags(row)
        layer.kernels.append(
            KernelProfile(
                name=table.name_of(row),
                layer_index=layer.index,
                position=len(layer.kernels),
                latency_ms=(ends[row] - starts[row]) / 1e6,
                flops=float(tags.get("metric.flop_count_sp", 0.0)),
                dram_read_bytes=float(tags.get("metric.dram_read_bytes", 0.0)),
                dram_write_bytes=float(
                    tags.get("metric.dram_write_bytes", 0.0)
                ),
                achieved_occupancy=float(
                    tags.get("metric.achieved_occupancy", 0.0)
                ),
                grid=tuple(tags.get("grid", (1, 1, 1))),
                block=tuple(tags.get("block", (1, 1, 1))),
            )
        )
    predict = trace.first_named("predict")
    if predict is not None:
        model_latency_ms = predict.duration_ms
    else:
        lo, hi = trace.span_extent_ns()
        model_latency_ms = (hi - lo) / 1e6
    meta = trace.metadata
    return ModelProfile(
        model_name=str(meta.get("model", f"trace-{trace.trace_id}")),
        system=str(meta.get("system", "unknown")),
        framework=str(meta.get("framework", "unknown")),
        batch=int(meta.get("batch", 1)),
        model_latency_ms=model_latency_ms,
        layers=layers,
        n_runs=1,
        metadata={"source": "trace", "trace_id": trace.trace_id},
    )


def profile_from_document(document: dict[str, Any]) -> ModelProfile:
    """A profile from an already-parsed JSON document (store or bare)."""
    # Imported here: cache imports pipeline; keep this module light to load.
    from repro.core.cache import profile_from_dict

    if "profile" in document and "schema_version" in document:
        return profile_from_dict(document["profile"])
    if "layers" in document and "model_name" in document:
        return profile_from_dict(document)
    raise ValueError(
        "JSON document is neither a profile-store entry, a bare profile, "
        "nor a trace"
    )


def load_profile_json(path: str) -> ModelProfile:
    """Load either a saved profile JSON or a saved trace JSON as a profile."""
    with open(path) as fh:
        text = fh.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object")
    try:
        if "spans" in document and "format_version" in document:
            return profile_from_trace(trace_from_dict(document))
        return profile_from_document(document)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
