"""User-facing tracing API: ``startSpan`` / ``finishSpan``.

The paper's model-level integration is deliberately minimal: "to measure
the time spent running the model prediction ... one places the tracing
APIs around the calls to TF_SessionRun ... This only requires adding two
extra lines in the user's inference code."  These helpers are those two
lines.  An open span is only its fields; finishing it ingests one row
through the tracer and returns that row's span view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.tracing.span import Level, new_span_id
from repro.tracing.table import SpanView
from repro.tracing.tracer import Tracer


@dataclass
class SpanScope:
    """An open span awaiting :func:`finish_span`.

    The span id is allocated when the span starts, so a child opened
    inside the region can name it as ``parent_id`` before it finishes.
    """

    tracer: Tracer
    clock: Callable[[], int]
    name: str
    level: Level
    start_ns: int
    parent_id: int | None = None
    tags: dict[str, Any] = field(default_factory=dict)
    span_id: int = field(default_factory=new_span_id)

    def finish(self, **tags: Any) -> SpanView:
        """Ingest the span as one row; tags are the start tags, then
        ``tags``, then the tracer's name."""
        row_tags = {**self.tags, **tags}
        row_tags.setdefault("tracer", self.tracer.name)
        row = {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.clock(),
            "level": self.level,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "tags": row_tags,
        }
        return self.tracer.ingest((row,)).views()[0]


def start_span(
    tracer: Tracer,
    clock: Callable[[], int],
    name: str,
    *,
    level: Level | None = None,
    parent_id: int | None = None,
    **tags: Any,
) -> SpanScope:
    """Open a span measuring a user code region; pair with :func:`finish_span`.

    ``level`` defaults to the tracer's own level.
    """
    return SpanScope(
        tracer=tracer,
        clock=clock,
        name=name,
        level=tracer.level if level is None else level,
        start_ns=clock(),
        parent_id=parent_id,
        tags=tags,
    )


def finish_span(scope: SpanScope, **tags: Any) -> SpanView:
    """Close a span opened by :func:`start_span` and ingest it."""
    return scope.finish(**tags)
