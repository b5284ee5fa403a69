"""Tracer interface.

Each profiler in the stack owns a :class:`Tracer` — "some code to create and
publish spans" (paper Sec. III-A).  A tracer builds trace-row fields from
its profiler's output and hands them to its :attr:`Tracer.ingest`, one
call per dump (or per user span, for the model tracer); no ``Span`` object
is built on the way.  Which stack levels are profiled in a run is chosen
by which tracers the session runs (``ProfilingConfig.levels``).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable, Mapping

from repro.tracing.server import RowBatch, TracingServer
from repro.tracing.span import Level

#: ``TracingServer.ingest_rows`` bound to a trace: rows in, row batch out.
RowIngest = Callable[[Iterable[Mapping[str, Any]]], RowBatch]


class Tracer:
    """Turns one profiler's output into trace rows.

    Subclasses build :meth:`~repro.tracing.trace.Trace.add_row` fields
    from the profiler's own records and hand them to :attr:`ingest`:
    usually :meth:`~repro.tracing.server.TracingServer.ingest_rows`
    bound to the open trace (one server lock round per call), by default
    a trace on a private server.  Either way the call returns the rows
    as a :class:`~repro.tracing.server.RowBatch`, whose span views
    ``convert`` methods hand back, one per ingested row.
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
