"""Which public functions the traced run wraps, and the per-layer metrics.

Each probe names a function of the program, the span name its calls get
(``<module>.<call>``) and, optionally, counters read off its arguments
and result.  The layer of a span is its name without the last part, so
``sim.launch`` belongs to layer ``sim`` and ``analysis.diff.diff`` to
``analysis.diff``.

Every ``*_s`` metric is busy (self) time per op: the calls' time minus
the time of wrapped calls made inside them.  Counts are per op too.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass
from typing import Callable

from recorder import Recorder


@dataclass(frozen=True)
class Probe:
    module: str
    attr: str  # "function" or "Class.method"
    name: str
    hot: bool = False
    wait: bool = False
    #: ``note(recorder)`` makes the function that reads counters off a
    #: call: ``(args, kwargs, result) -> {counter: value}``.
    note: Callable | None = None


class _LaunchNote:
    """Counts launches whose spec (tags aside) already ran in the op."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.op_id = None
        self.seen: set = set()

    def __call__(self, args, kwargs, result):
        op_id = self.recorder.current_op_id
        if op_id != self.op_id:
            self.op_id, self.seen = op_id, set()
        spec = result.spec
        spec_key = (spec.name, spec.klass, spec.flops, spec.dram_read_bytes,
                    spec.dram_write_bytes, spec.blocks, spec.threads_per_block,
                    spec.eff_scale)
        repeat = spec_key in self.seen
        self.seen.add(spec_key)
        return {"sim.launches": 1, "sim.repeat_launches": repeat}


def _cache_get_note(recorder):
    def note(args, kwargs, result):
        if result is None:
            return {"core.cache.misses": 1}
        store = args[0]
        path = store.path_for(*args[1:], **kwargs)
        return {"core.cache.hits": 1,
                "core.cache.bytes_read": os.path.getsize(path)}
    return note


def _simple(fn):
    return lambda recorder: fn


NOTES = {
    "launch": _LaunchNote,
    "cache_get": _cache_get_note,
    "session": _simple(lambda a, k, r: {
        "core.session.retries": int(r.was_serialized_retry)}),
    "convert": _simple(lambda a, k, r: {"core.profilers.rows": len(r)}),
    "reconstruct": _simple(lambda a, k, r: {
        "tracing.correlation.rows": len(a[0]) - k.get("since_row", 0)}),
    "publish_rows": _simple(lambda a, k, r: {
        "tracing.server.rows_published": r}),
    "advance": _simple(lambda a, k, r: {"tracing.index.rows_absorbed": r}),
    "load": _simple(lambda a, k, r: {
        "tracing.export.bytes_loaded": os.path.getsize(a[0])}),
    "analyze": _simple(lambda a, k, r: {
        "insights.rules_considered": len(a[0].rules) - len(r.skipped_rules)}),
    "poll": _simple(lambda a, k, r: {
        "insights.live.refreshes": int(r is not None and r.new_rows > 0)}),
}

PROBES = [
    Probe("repro.frameworks.base", "Framework.load", "frameworks.load"),
    Probe("repro.frameworks.base", "Framework.emit_kernels", "frameworks.emit",
          hot=True),
    Probe("repro.frameworks.base", "Framework.predict", "frameworks.predict"),
    Probe("repro.sim.cuda", "CudaRuntime.launch_kernel", "sim.launch",
          hot=True, note=NOTES["launch"]),
    Probe("repro.sim.cupti", "Cupti.flush", "sim.cupti_flush"),
    Probe("repro.core.session", "XSPSession.profile", "core.session.run",
          note=NOTES["session"]),
    Probe("repro.core.leveled", "LeveledExperiment.run", "core.leveled.ladder"),
    Probe("repro.core.pipeline", "AnalysisPipeline.merge",
          "core.pipeline.merge"),
    Probe("repro.core.profilers", "LayerTracer.convert",
          "core.profilers.convert", note=NOTES["convert"]),
    Probe("repro.core.profilers", "GpuTracer.convert",
          "core.profilers.convert", note=NOTES["convert"]),
    Probe("repro.tracing.correlation", "reconstruct_parents",
          "tracing.correlation.reconstruct", note=NOTES["reconstruct"]),
    Probe("repro.tracing.correlation", "correlate_launch_execution",
          "tracing.correlation.launch_exec"),
    Probe("repro.tracing.server", "TracingServer.publish_rows",
          "tracing.server.publish", note=NOTES["publish_rows"]),
    Probe("repro.tracing.server", "TraceStream.read",
          "tracing.server.stream_wait", wait=True),
    Probe("repro.tracing.index", "TraceIndex.__init__", "tracing.index.build"),
    Probe("repro.tracing.index", "TraceIndex.advance", "tracing.index.advance",
          note=NOTES["advance"]),
    Probe("repro.tracing.export", "load_trace", "tracing.export.load",
          note=NOTES["load"]),
    Probe("repro.tracing.export", "save_trace", "tracing.export.save"),
    Probe("repro.tracing.export", "trace_to_chrome", "tracing.export.chrome"),
    Probe("repro.core.cache", "ProfileStore.get", "core.cache.get",
          note=NOTES["cache_get"]),
    Probe("repro.core.cache", "ProfileStore.put", "core.cache.put"),
    Probe("repro.analysis.report", "full_report", "analysis.report"),
    Probe("repro.analysis.diff.engine", "diff_profiles", "analysis.diff.diff"),
    Probe("repro.analysis.diff.sources", "profile_from_trace",
          "analysis.diff.profile_from_trace"),
    Probe("repro.insights.engine", "InsightEngine.analyze", "insights.analyze",
          note=NOTES["analyze"]),
    Probe("repro.insights.registry", "Rule.__call__", "insights.rule",
          hot=True),
    Probe("repro.insights.live", "LiveMonitor.poll", "insights.live.poll",
          note=NOTES["poll"]),
]


def _program_subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
            yield from _program_subclasses(sub)


def install(recorder: Recorder, probes=PROBES) -> Callable[[], None]:
    """Wrap every probed function; returns the function that unwraps."""
    undo: list[tuple[object, str, object]] = []
    for probe in probes:
        module = importlib.import_module(probe.module)
        note = probe.note(recorder) if probe.note else None
        owner_name, _, attr = probe.attr.rpartition(".")
        if owner_name:
            base = getattr(module, owner_name)
            for cls in (base, *_program_subclasses(base)):
                original = cls.__dict__.get(attr)
                if original is None or getattr(original,
                                               "__isabstractmethod__", False):
                    continue
                setattr(cls, attr, recorder.wrap(original, probe.name,
                                                 hot=probe.hot, note=note))
                undo.append((cls, attr, original))
            continue
        original = getattr(module, attr)
        wrapper = recorder.wrap(original, probe.name, hot=probe.hot, note=note)
        # Rebind every module-level name the function was imported under.
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, original))

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


WAIT_NAMES = {p.name for p in PROBES if p.wait}


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


#: (metric, unit) in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    ("frameworks.load_s", "s/op"), ("frameworks.emit_s", "s/op"),
    ("frameworks.predict_self_s", "s/op"),
    ("sim.launch_s", "s/op"), ("sim.launches", "1/op"),
    ("sim.launches_per_s", "1/s"), ("sim.cupti_flush_s", "s/op"),
    ("sim.repeat_spec_share", "ratio"),
    ("core.session.run_s", "s/op"), ("core.session.runs", "1/op"),
    ("core.session.retry_ratio", "ratio"), ("core.leveled.ladder_s", "s/op"),
    ("core.pipeline.merge_s", "s/op"),
    ("core.profilers.convert_s", "s/op"), ("core.profilers.rows", "1/op"),
    ("core.profilers.rows_per_s", "1/s"),
    ("tracing.correlation.reconstruct_s", "s/op"),
    ("tracing.correlation.launch_exec_s", "s/op"),
    ("tracing.correlation.spans_per_s", "1/s"),
    ("tracing.server.publish_s", "s/op"),
    ("tracing.server.rows_published", "1/op"),
    ("tracing.server.stream_wait_s", "s/op"),
    ("tracing.server.rows_per_batch", "count"),
    ("tracing.index.builds", "1/op"), ("tracing.index.advances", "1/op"),
    ("tracing.index.advance_s", "s/op"),
    ("tracing.index.rows_absorbed", "1/op"),
    ("tracing.export.load_s", "s/op"), ("tracing.export.load_mb_per_s", "MB/s"),
    ("tracing.export.save_s", "s/op"), ("tracing.export.chrome_s", "s/op"),
    ("core.cache.get_s", "s/op"), ("core.cache.put_s", "s/op"),
    ("core.cache.hits", "1/op"), ("core.cache.misses", "1/op"),
    ("core.cache.hit_ratio", "ratio"), ("core.cache.bytes_read", "B/op"),
    ("analysis.report_s", "s/op"), ("analysis.diff.diff_s", "s/op"),
    ("analysis.diff.profile_from_trace_s", "s/op"),
    ("insights.analyze_s", "s/op"), ("insights.rules_evaluated", "1/op"),
    ("insights.reuse_ratio", "ratio"), ("insights.live.refreshes", "1/op"),
    ("insights.live.refresh_s", "s/op"),
    ("perfbench.unattributed_share", "ratio"),
    ("perfbench.recorder_share", "ratio"),
    ("perfbench.trace_overhead_ratio", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``untraced_s`` is the op time of the same ops run without tracing;
    it is the base of ``sim.launches_per_s`` and of the overhead ratio.
    """
    t, c = recorder.totals, recorder.counters
    ops = recorder.op_spans
    n = len(ops) or 1
    op_time = sum(s.end - s.start for s in ops)

    def busy(name):
        return t[name].self_s / n if name in t else 0.0

    def calls(name):
        return t[name].calls if name in t else 0

    def per_op(counter):
        return c.get(counter, 0.0) / n

    launches = c.get("sim.launches", 0.0)
    rule_calls = calls("insights.rule")
    poll_s = t["insights.live.poll"].inclusive_s if "insights.live.poll" in t \
        else 0.0
    wait_s = t["tracing.server.stream_wait"].inclusive_s \
        if "tracing.server.stream_wait" in t else 0.0
    load = t.get("tracing.export.load")
    values = {
        "frameworks.load_s": busy("frameworks.load"),
        "frameworks.emit_s": busy("frameworks.emit"),
        "frameworks.predict_self_s": busy("frameworks.predict"),
        "sim.launch_s": busy("sim.launch"),
        "sim.launches": launches / n,
        "sim.launches_per_s": _ratio(launches, untraced_s),
        "sim.cupti_flush_s": busy("sim.cupti_flush"),
        "sim.repeat_spec_share": _ratio(c.get("sim.repeat_launches", 0.0),
                                        launches),
        "core.session.run_s": busy("core.session.run"),
        "core.session.runs": calls("core.session.run") / n,
        "core.session.retry_ratio": _ratio(c.get("core.session.retries", 0.0),
                                           calls("core.session.run")),
        "core.leveled.ladder_s": busy("core.leveled.ladder"),
        "core.pipeline.merge_s": busy("core.pipeline.merge"),
        "core.profilers.convert_s": busy("core.profilers.convert"),
        "core.profilers.rows": per_op("core.profilers.rows"),
        "core.profilers.rows_per_s": _ratio(
            c.get("core.profilers.rows", 0.0),
            busy("core.profilers.convert") * n),
        "tracing.correlation.reconstruct_s": busy(
            "tracing.correlation.reconstruct"),
        "tracing.correlation.launch_exec_s": busy(
            "tracing.correlation.launch_exec"),
        "tracing.correlation.spans_per_s": _ratio(
            c.get("tracing.correlation.rows", 0.0),
            busy("tracing.correlation.reconstruct") * n),
        "tracing.server.publish_s": busy("tracing.server.publish"),
        "tracing.server.rows_published": per_op(
            "tracing.server.rows_published"),
        "tracing.server.stream_wait_s": busy("tracing.server.stream_wait"),
        "tracing.server.rows_per_batch": _ratio(
            c.get("tracing.server.rows_published", 0.0),
            calls("tracing.server.publish")),
        "tracing.index.builds": calls("tracing.index.build") / n,
        "tracing.index.advances": calls("tracing.index.advance") / n,
        "tracing.index.advance_s": busy("tracing.index.advance"),
        "tracing.index.rows_absorbed": per_op("tracing.index.rows_absorbed"),
        "tracing.export.load_s": busy("tracing.export.load"),
        "tracing.export.load_mb_per_s": _ratio(
            c.get("tracing.export.bytes_loaded", 0.0) / 1e6,
            load.inclusive_s if load else 0.0),
        "tracing.export.save_s": busy("tracing.export.save"),
        "tracing.export.chrome_s": busy("tracing.export.chrome"),
        "core.cache.get_s": busy("core.cache.get"),
        "core.cache.put_s": busy("core.cache.put"),
        "core.cache.hits": per_op("core.cache.hits"),
        "core.cache.misses": per_op("core.cache.misses"),
        "core.cache.hit_ratio": _ratio(
            c.get("core.cache.hits", 0.0),
            c.get("core.cache.hits", 0.0) + c.get("core.cache.misses", 0.0)),
        "core.cache.bytes_read": per_op("core.cache.bytes_read"),
        "analysis.report_s": busy("analysis.report"),
        "analysis.diff.diff_s": busy("analysis.diff.diff"),
        "analysis.diff.profile_from_trace_s": busy(
            "analysis.diff.profile_from_trace"),
        "insights.analyze_s": busy("insights.analyze") + busy("insights.rule"),
        "insights.rules_evaluated": rule_calls / n,
        "insights.reuse_ratio": 1.0 - _ratio(
            rule_calls, c.get("insights.rules_considered", 0.0))
        if c.get("insights.rules_considered") else 0.0,
        "insights.live.refreshes": per_op("insights.live.refreshes"),
        "insights.live.refresh_s": (poll_s - wait_s) / n,
        "perfbench.unattributed_share": _ratio(sum(s.self_s for s in ops),
                                               op_time),
        "perfbench.recorder_share": _ratio(
            t[Recorder.OVERHEAD].self_s if Recorder.OVERHEAD in t else 0.0,
            op_time),
        "perfbench.trace_overhead_ratio": _ratio(op_time, untraced_s) - 1.0,
    }
    return values


def layer_table(recorder: Recorder) -> list[tuple[str, int, float, float, int]]:
    """(layer, calls, busy s, wait s, failures), busiest first, with the op
    roots' own time last as ``unattributed``."""
    rows: dict[str, list] = {}
    for name, totals in recorder.totals.items():
        row = rows.setdefault(layer_of(name), [0, 0.0, 0.0, 0])
        row[0] += totals.calls
        row[2 if name in WAIT_NAMES else 1] += totals.self_s
        row[3] += totals.failures
    table = sorted(((layer, *row) for layer, row in rows.items()),
                   key=lambda r: -r[2])
    ops = recorder.op_spans
    table.append(("unattributed", len(ops), sum(s.self_s for s in ops), 0.0, 0))
    return table
