"""The benchmark's three workloads: point spaces, fixtures, ops and checks.

All three are closed loops with one client and no think time: the next
op starts when the previous one (and its output check) has finished.
A workload draws its ops from its seed alone; the program only sees the
generated inputs (model, framework, system, batch, file paths).

* ``cold_campaign`` - distinct zoo points, each profiled cold
  (``profile``: ``repro profile --cache-dir`` against an empty store;
  ``sweep``: ``repro sweep`` over the model's Table VIII batches).
* ``offline_replay`` - no simulation while timed: reads of a filled
  ``ProfileStore`` and of saved captures built during set-up.
* ``live_monitor`` - ``AnalysisPipeline.advise_live`` sessions, where the
  capture thread's writes interleave with the monitor's queries.

Point spaces are defined here; ``make_references.py`` enumerates them
and ``references.json`` holds a digest for every point a seed can draw.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Iterator

from repro.analysis.diff import diff_profiles
from repro.analysis.diff.sources import profile_from_trace
from repro.analysis.report import full_report
from repro.core import AnalysisPipeline, ProfileStore, ProfilingConfig, XSPSession
from repro.insights import InsightContext, InsightEngine, advise
from repro.models import MODEL_ZOO, MXNET_ZOO
from repro.sim.hardware import SYSTEMS
from repro.tracing.export import load_trace, save_trace, trace_to_chrome
from repro.tracing.server import TracingServer
from repro.workloads import throughput_curve

import checks

#: Short framework tags used in point keys.
FRAMEWORKS = {"tf": "tensorflow_like", "mx": "mxnet_like"}
SYSTEM_NAMES = tuple(sorted(SYSTEMS))
#: Repetitions per profiling level, the ``repro profile`` default.
RUNS_PER_LEVEL = 3

# -- point spaces -----------------------------------------------------------

#: Table VIII models run on tensorflow_like, Table X models on mxnet_like
#: (the paper's pairings).
COLD_ENTRIES = (
    [("tf", mid) for mid in sorted(MODEL_ZOO)]
    + [("mx", mid) for mid in sorted(MXNET_ZOO)]
)
#: offline_replay store groups, profiled on two systems each: the
#: ResNet-50 variants, so that reads, reports and diffs cost the same
#: whichever groups a seed draws.
STORE_ENTRIES = [("tf", m) for m in (7, 10, 11, 12)]
#: offline_replay single-run captures, one of each on a seeded system:
#: 1.9-2.0k spans each, so every seed replays captures of the same sizes.
SINGLE_ENTRIES = [("tf", m) for m in (2, 4, 40)]
SINGLE_BATCH = 1
#: offline_replay application captures: ResNet-50 variants of the same
#: graph size, ~20k spans each.
APP_ENTRIES = [("tf", m) for m in (7, 11, 12)]
APP_BATCH = 16
APP_TARGET_SPANS = 20_000
#: live_monitor sessions: several evaluations, ~4k spans per session, of
#: the ResNet-50 variants (~690 spans per evaluation), so that every
#: session publishes increments of the same size and the lag
#: distribution does not depend on which models a seed draws.
LIVE_ENTRIES = [("tf", m) for m in (7, 10, 11, 12)] + [
    ("mx", m) for m in (10, 11)
]
LIVE_BATCHES = (1, 16)
LIVE_TARGET_SPANS = 4_000
LIVE_MIN_EVALUATIONS = 3


def graph_of(fw: str, mid: int):
    return MODEL_ZOO[mid].graph if fw == "tf" else MXNET_ZOO[mid].graph


def drop_graph(fw: str, mid: int) -> None:
    """Forget a zoo entry's built graph, so the next access rebuilds it."""
    entry = MODEL_ZOO[mid] if fw == "tf" else MXNET_ZOO[mid]
    entry.__dict__.pop("graph", None)


def cold_batches(mid: int) -> tuple[int, ...]:
    """First, middle and last of the model's Table VIII sweep batches."""
    sweep = MODEL_ZOO[mid].sweep_batches
    return tuple(sorted({sweep[0], sweep[len(sweep) // 2], sweep[-1]}))


def key(*parts: Any) -> str:
    return "|".join(str(p) for p in parts)


def evaluations_for(spans_per_evaluation: int, target: int,
                    minimum: int = 1) -> int:
    return max(minimum, math.ceil(target / spans_per_evaluation))


# -- the program's operations -------------------------------------------------


def profile_model(fw, mid, system, batch, store):
    session = XSPSession(system, FRAMEWORKS[fw])
    pipeline = AnalysisPipeline(session, runs_per_level=RUNS_PER_LEVEL,
                                store=store)
    return pipeline.profile_model(graph_of(fw, mid), batch)


def profile_point(fw, mid, system, batch, store):
    """``repro profile --cache-dir``: returns (profile, report text)."""
    profile = profile_model(fw, mid, system, batch, store)
    return profile, full_report(profile)


def sweep_point(fw, mid, system):
    """``repro sweep`` over the model's Table VIII batch sizes."""
    session = XSPSession(system, FRAMEWORKS[fw])
    return throughput_curve(session, graph_of(fw, mid),
                            MODEL_ZOO[mid].sweep_batches)


def single_capture(fw, mid, system, batch):
    """``repro trace --output``: one M/L/G run with GPU metrics."""
    run = XSPSession(system, FRAMEWORKS[fw]).profile(
        graph_of(fw, mid), batch, ProfilingConfig())
    return run.trace


def app_capture(fw, mid, system, batch, evaluations, prefix="app"):
    """An application capture opened with full coordinates, as
    ``advise_live`` opens it, of ``evaluations`` back-to-back runs."""
    session = XSPSession(system, FRAMEWORKS[fw])
    graph = graph_of(fw, mid)
    trace_id = session.server.begin_trace(
        model=graph.name, system=session.gpu.name,
        framework=session.framework_cls.name, batch=batch,
    )
    trace, _ = session.profile_application(
        [(graph, batch)] * evaluations, name=f"{prefix}:{graph.name}",
        config=ProfilingConfig(metrics=()), trace_id=trace_id,
    )
    return trace


def advise_trace(trace):
    """``repro advise --from-trace``: single-run profile view + rules."""
    return advise(profile_from_trace(trace), trace=trace)


def cold_insights(trace):
    """A fresh (non-incremental) engine pass over a closed capture."""
    context = InsightContext.build(profile_from_trace(trace), trace=trace)
    return InsightEngine().analyze(context)


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    kind: str
    point: tuple
    #: The last op of a round of the workload's sequence; a timed run
    #: stops only after such an op, so it always runs whole rounds.
    ends_round: bool = False


def rounds(sequence: Iterator[list[Op]]) -> Iterator[Op]:
    """The ops of a sequence of rounds, each round's last op marked."""
    for ops in sequence:
        *body, last = ops
        yield from body
        yield Op(last.kind, last.point, ends_round=True)


class Workload:
    """One seeded workload: fixtures, an op sequence, an output check."""

    name = ""
    #: Highest tail percentile reported (``harness.tail``): the one a
    #: run's op count qualifies for with room to spare.
    TAIL_TOP = 99.9

    def __init__(self, refs: dict, work_dir: str) -> None:
        self.refs = refs
        self.work_dir = work_dir
        #: (wall time of the publication, lag in wall seconds)
        self.lag_samples: list[tuple[float, float]] = []

    def setup(self, seed: int) -> None:
        """Build everything the timed ops need, cold: the zoo graphs it
        uses are dropped and rebuilt."""

    def ops(self, seed: int) -> Iterator[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, result: Any) -> bool:
        raise NotImplementedError


class ColdCampaign(Workload):
    name = "cold_campaign"
    TAIL_TOP = 75.0
    #: Entries sorted by graph size fall into strata of this many; every
    #: round of the op sequence takes one entry from each stratum, in a
    #: fixed small/large interleaved order.  Over a cycle of four rounds
    #: every entry of a stratum runs once, and its op kind is fixed by
    #: its size rank in the stratum (flipping in the next cycle), so the
    #: first four rounds run every entry once with the same kinds
    #: whatever the seed: a 22-second run makes exactly those rounds, and
    #: the op median does not hang on the seed.  The seed picks the
    #: systems, batches and the order within each stratum.
    STRATUM_SIZE = 4

    def __init__(self, refs, work_dir):
        super().__init__(refs, work_dir)
        self._stores = itertools.count()

    def setup(self, seed):
        for fw, mid in COLD_ENTRIES:
            drop_graph(fw, mid)
            graph_of(fw, mid)

    def strata(self) -> list[list[tuple[str, int]]]:
        entries = sorted(COLD_ENTRIES, key=lambda e: (len(graph_of(*e)), e))
        # The largest model is a stratum of its own, so every run's peak
        # memory comes from the same model.
        largest = entries.pop()
        size = self.STRATUM_SIZE
        chunks = [entries[i:i + size] for i in range(0, len(entries), size)]
        chunks.append([largest])
        small, large = chunks[:len(chunks) // 2], chunks[len(chunks) // 2:]
        order = []
        while small or large:
            if large:
                order.append(large.pop())
            if small:
                order.append(small.pop(0))
        return order

    def ops(self, seed):
        return rounds(self._rounds(seed))

    def _rounds(self, seed):
        rng = random.Random(seed)
        profiles = self.refs["profile"]
        sweeps = self.refs["sweep"]
        strata = self.strata()
        orders = [rng.sample(s, len(s)) for s in strata]
        used: set[str] = set()
        for rnd in itertools.count():
            ops = []
            for i, (stratum, order) in enumerate(zip(strata, orders)):
                entry = order[rnd % len(order)]
                fw, mid = entry
                kind = ("profile", "sweep")[
                    (stratum.index(entry) + i + rnd // len(order)) % 2]
                for _ in range(8):  # redraw a point already used
                    system = rng.choice(SYSTEM_NAMES)
                    if kind == "sweep":
                        point = (fw, mid, system)
                        space = sweeps
                    else:
                        point = (fw, mid, system,
                                 rng.choice(cold_batches(mid)))
                        space = profiles
                    k = key(*point)
                    if k in space and k not in used:
                        used.add(k)
                        ops.append(Op(kind, point))
                        break
            yield ops

    def run(self, op):
        if op.kind == "sweep":
            return sweep_point(*op.point)
        store = ProfileStore(os.path.join(self.work_dir,
                                          f"store-{next(self._stores)}"))
        return profile_point(*op.point, store)

    def check(self, op, result):
        k = key(*op.point)
        if op.kind == "sweep":
            return checks.curve_digest(result) == self.refs["sweep"].get(k)
        profile, report = result
        return (checks.profile_digest(profile, report)
                == self.refs["profile"].get(k))


class OfflineReplay(Workload):
    name = "offline_replay"
    TAIL_TOP = 95.0
    STORE_GROUPS = 3
    APP_CAPTURES = 1
    #: Ops per round, chosen so that each kind takes a sixth to a third
    #: of the op time at the commit that defined the benchmark, and so
    #: that the median and the p95 tail lie well inside one kind's
    #: latencies (``store_report``; ``trace_chrome`` on the single-run
    #: captures), not on the edge between two kinds, where they would
    #: jump from run to run.
    ROUND = (("store_report", 38), ("store_diff", 15),
             ("trace_advise", 3), ("trace_chrome", 3))

    def __init__(self, refs, work_dir):
        super().__init__(refs, work_dir)
        #: (kind, point) -> raw output already matched to its digest.
        self._verified: dict[tuple, Any] = {}

    def setup(self, seed):
        for fw, mid in set(STORE_ENTRIES + SINGLE_ENTRIES + APP_ENTRIES):
            drop_graph(fw, mid)
        rng = random.Random(seed)
        root = os.path.join(self.work_dir, "fixtures")
        store = ProfileStore(os.path.join(root, "store"))
        diffs = rng.sample(sorted(self.refs["diff"]), self.STORE_GROUPS)
        self.pairs = []
        for k in diffs:
            fw, mid, batch, sys_a, sys_b = k.split("|")
            sides = []
            for system in (sys_a, sys_b):
                point = (fw, int(mid), system, int(batch))
                profile_model(*point, store)
                sides.append(point)
            self.pairs.append(tuple(sides))
        self.store = store
        self.reports = [side for pair in self.pairs for side in pair]
        self.captures = []
        singles = [rng.choice([k for k in sorted(self.refs["single"])
                               if k.startswith(key(fw, mid, ""))])
                   for fw, mid in SINGLE_ENTRIES]
        apps = rng.sample(sorted(self.refs["app"]), self.APP_CAPTURES)
        for i, k in enumerate(singles + apps):
            fw, mid, system, batch, *rest = k.split("|")
            path = os.path.join(root, f"capture-{i}.json")
            if rest:
                trace = app_capture(fw, int(mid), system, int(batch),
                                    int(rest[0]))
            else:
                trace = single_capture(fw, int(mid), system, int(batch))
            save_trace(trace, path)
            self.captures.append((path, "app" if rest else "single", k))

    def ops(self, seed):
        rng = random.Random(seed + 1)
        kinds = [kind for kind, count in self.ROUND for _ in range(count)]
        # Each kind cycles through its fixtures in a seeded order, so the
        # fixtures' shares do not vary from run to run.
        fixtures = {"store_report": self.reports, "store_diff": self.pairs,
                    "trace_advise": self.captures,
                    "trace_chrome": self.captures}
        cycles = {kind: itertools.cycle(rng.sample(f, len(f)))
                  for kind, f in fixtures.items()}
        return rounds([Op(kind, next(cycles[kind]))
                       for kind in rng.sample(kinds, len(kinds))]
                      for _ in itertools.count())

    def _get(self, point):
        fw, mid, system, batch = point
        graph = graph_of(fw, mid)
        return self.store.get(graph.name, system, FRAMEWORKS[fw], batch,
                              RUNS_PER_LEVEL)

    def run(self, op):
        if op.kind == "store_report":
            profile = self._get(op.point)
            return profile, full_report(profile)
        if op.kind == "store_diff":
            return diff_profiles(self._get(op.point[0]),
                                 self._get(op.point[1]))
        trace = load_trace(op.point[0])
        if op.kind == "trace_advise":
            return trace, advise_trace(trace)
        return trace, trace_to_chrome(trace)

    def check(self, op, result):
        refs = self.refs
        if op.kind == "store_report":
            return (checks.profile_digest(*result)
                    == refs["profile"].get(key(*op.point)))
        # The canonical digests of a diff and of a Chrome document cost
        # more than the op; each is taken once per fixture, and later
        # outputs are compared raw against the verified one.
        if op.kind == "store_diff":
            (fw, mid, sys_a, batch), (_, _, sys_b, _) = op.point
            raw = (result.render(), result.to_dict())
            if (op.kind, op.point) not in self._verified:
                if checks.diff_digest(result) != refs["diff"].get(
                        key(fw, mid, batch, sys_a, sys_b)):
                    return False
                self._verified[op.kind, op.point] = raw
            return raw == self._verified[op.kind, op.point]
        trace, output = result
        capture_key = op.point[2]
        if op.kind == "trace_advise":
            return (checks.insight_digest(output, trace)
                    == refs["advise"].get(capture_key))
        raw = checks.sha(output)
        if (op.kind, op.point) not in self._verified:
            if checks.chrome_digest(output, trace) != refs["chrome"].get(
                    capture_key):
                return False
            self._verified[op.kind, op.point] = raw
        return raw == self._verified[op.kind, op.point]


class LagServer(TracingServer):
    """A tracing server that timestamps every row publication.

    ``published`` holds (time after ``publish_rows`` returned, rows
    visible then); ``app_trace`` is the closed application capture.
    """

    def __init__(self) -> None:
        super().__init__()
        self.published: list[tuple[float, int]] = []
        self.app_trace = None

    def publish_rows(self, trace_id, rows):
        count = super().publish_rows(trace_id, rows)
        self.published.append(
            (time.perf_counter(), self.get_trace(trace_id).watermark))
        return count

    def end_trace(self, trace_id):
        trace = super().end_trace(trace_id)
        if "application" in trace.metadata:
            self.app_trace = trace
        return trace


@dataclass
class LiveResult:
    updates: list  # (time yielded, LiveUpdate)
    published: list
    trace: Any


class LiveMonitorWorkload(Workload):
    name = "live_monitor"
    TAIL_TOP = 75.0

    def setup(self, seed):
        for fw, mid in LIVE_ENTRIES:
            drop_graph(fw, mid)
            graph_of(fw, mid)

    def ops(self, seed):
        return rounds(self._rounds(seed))

    def _rounds(self, seed):
        """Each round is one session of every entry, in seeded order on
        seeded systems; an entry alternates its batch from round to
        round, so every pair of rounds costs the same whatever the seed."""
        rng = random.Random(seed)
        points = sorted(self.refs["live"])
        for rnd in itertools.count():
            ops = []
            for j, (fw, mid) in enumerate(LIVE_ENTRIES):
                batch = LIVE_BATCHES[(rnd + j) % len(LIVE_BATCHES)]
                prefix = key(fw, mid)
                k = rng.choice([k for k in points
                                if k.startswith(f"{prefix}|")
                                and k.split("|")[3] == str(batch)])
                _, _, system, _, evaluations = k.split("|")
                ops.append(Op("advise_live", (fw, mid, system, batch,
                                              int(evaluations))))
            yield rng.sample(ops, len(ops))

    def run(self, op):
        fw, mid, system, batch, evaluations = op.point
        server = LagServer()
        pipeline = AnalysisPipeline(
            XSPSession(system, FRAMEWORKS[fw], server=server))
        updates = []
        for update in pipeline.advise_live(graph_of(fw, mid), batch,
                                           evaluations=evaluations):
            updates.append((time.perf_counter(), update))
        return LiveResult(updates, server.published, server.app_trace)

    def check(self, op, result):
        updates = result.updates
        if not updates or not updates[-1][1].final or result.trace is None:
            return False
        for published_at, watermark in result.published:
            seen_at = next((t for t, u in updates if u.n_spans >= watermark),
                           None)
            if seen_at is None:
                return False
            self.lag_samples.append((published_at, seen_at - published_at))
        final = updates[-1][1].report
        cold = cold_insights(result.trace)
        if final.to_dict() != cold.to_dict():
            return False
        return (checks.insight_digest(final, result.trace)
                == self.refs["live"].get(key(*op.point)))


WORKLOADS = {w.name: w for w in (ColdCampaign, OfflineReplay,
                                 LiveMonitorWorkload)}
