"""Tracer interface.

Each profiler in the stack owns a :class:`Tracer` — "some code to create and
publish spans" (paper Sec. III-A).  Tracers can be enabled or disabled at
runtime, which is how XSP's leveled experimentation selects which stack
levels are profiled in a given run.
"""

from __future__ import annotations

import abc
import contextlib
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.tracing.server import RowBatch, TracingServer
from repro.tracing.span import Level, Span, SpanKind

#: ``TracingServer.ingest_rows`` bound to a trace: rows in, row batch out.
RowIngest = Callable[[Iterable[Mapping[str, Any]]], RowBatch]


class Tracer(abc.ABC):
    """Creates spans and publishes finished spans to a sink.

    The sink is a callable (usually :meth:`repro.tracing.server.TracingServer.publish`)
    so that tracers do not depend on the server implementation — spans may
    equally be buffered and converted offline, as the paper allows.
    Offline conversion of a whole profiler dump is :class:`RowTracer`'s
    job.
    """

    def __init__(
        self,
        name: str,
        level: Level,
        sink: Callable[[Span], None] | None = None,
    ) -> None:
        self.name = name
        self.level = level
        self._sink = sink
        self._enabled = True

    # -- enable/disable -------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # -- span publication ------------------------------------------------
    def publish(self, span: Span) -> None:
        """Publish a finished span if this tracer is enabled."""
        if not self._enabled:
            return
        span.tags.setdefault("tracer", self.name)
        self.emit(span)

    @abc.abstractmethod
    def emit(self, span: Span) -> None:
        """Deliver a span to the sink. Subclasses decide buffering policy."""

    # -- convenience -----------------------------------------------------
    def span(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        *,
        kind: SpanKind = SpanKind.INTERNAL,
        parent_id: int | None = None,
        correlation_id: int | None = None,
        trace_id: int = 0,
        **tags: Any,
    ) -> Span:
        """Create and publish a span in one call; returns the span."""
        s = Span(
            name=name,
            start_ns=start_ns,
            end_ns=end_ns,
            level=self.level,
            kind=kind,
            parent_id=parent_id,
            correlation_id=correlation_id,
            trace_id=trace_id,
            tags=dict(tags),
        )
        self.publish(s)
        return s

    @contextlib.contextmanager
    def timed_span(
        self,
        name: str,
        clock: Callable[[], int],
        *,
        parent_id: int | None = None,
        **tags: Any,
    ) -> Iterator[Span]:
        """Context manager measuring a code region with ``clock`` (ns)."""
        start = clock()
        s = Span(
            name=name,
            start_ns=start,
            end_ns=start,
            level=self.level,
            parent_id=parent_id,
            tags=dict(tags),
        )
        try:
            yield s
        finally:
            s.end_ns = clock()
            self.publish(s)


class BufferingTracer(Tracer):
    """Tracer that forwards spans to the sink and keeps a local buffer.

    The buffer supports the paper's offline-conversion mode: a profiler can
    run to completion and have its buffered output converted to spans after
    the fact with zero in-run overhead.
    """

    def __init__(
        self,
        name: str,
        level: Level,
        sink: Callable[[Span], None] | None = None,
    ) -> None:
        super().__init__(name, level, sink)
        self.buffer: list[Span] = []

    def emit(self, span: Span) -> None:
        self.buffer.append(span)
        if self._sink is not None:
            self._sink(span)

    def drain(self) -> list[Span]:
        """Return and clear the local buffer."""
        out, self.buffer = self.buffer, []
        return out


class NoopTracer(Tracer):
    """Tracer that drops all spans; used when a stack level is disabled."""

    def emit(self, span: Span) -> None:  # noqa: D102 - interface impl
        pass


class RowTracer:
    """Converts a profiler's buffered output straight into trace rows.

    The offline-conversion tracers (layer, GPU kernel, library) build
    :meth:`~repro.tracing.trace.Trace.add_row` fields from the
    profiler's own records - no ``Span`` object in between - and hand a
    whole dump to :attr:`ingest` in one call: usually
    :meth:`~repro.tracing.server.TracingServer.ingest_rows` bound to the
    open trace (one server lock round per dump), by default a trace on a
    private server.  Either way the call returns the rows as a
    :class:`~repro.tracing.server.RowBatch`; ``convert`` methods hand
    back its span views, one per ingested row.
    """

    def __init__(
        self, name: str, level: Level, ingest: RowIngest | None = None
    ) -> None:
        if ingest is None:
            server = TracingServer()
            ingest = partial(server.ingest_rows, server.begin_trace())
        self.name = name
        self.level = level
        self.ingest = ingest
