"""Write ``references.json``: a digest for every point a seed can draw.

    python3 perfbench/make_references.py

Run from the repository root.  It profiles every point of every
workload's space once, one worker process per core (several minutes
on two cores), so run it only when a change is meant to alter simulated
output, and say why in the change log.  Points whose op raises (a batch that does not fit in the
system's device memory) are listed under ``excluded`` with the error and
are never drawn.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
import time
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import campaigns as C  # noqa: E402
import checks  # noqa: E402
from repro.core import ProfileStore, ProfilingConfig, XSPSession  # noqa: E402
from repro.tracing.export import load_trace, save_trace  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work", "references")


def _spans_per_evaluation(fw, mid, system, batch):
    session = XSPSession(system, C.FRAMEWORKS[fw])
    run = session.profile(C.graph_of(fw, mid), batch,
                          ProfilingConfig(metrics=()))
    return len(run.trace)


def _capture_digests(trace, path):
    """Digests of trace_advise and trace_chrome on a saved capture."""
    save_trace(trace, path)
    loaded = load_trace(path)
    advice = checks.insight_digest(C.advise_trace(loaded), loaded)
    chrome = checks.chrome_digest(C.trace_to_chrome(loaded), loaded)
    os.unlink(path)
    return {"advise": advice, "chrome": chrome, "spans": len(loaded)}


def task(spec):
    """One point: returns (table, key, digests or None, error)."""
    table, point = spec
    k = C.key(*point)
    try:
        if table == "profile":
            store = ProfileStore(os.path.join(WORK, "store"))
            profile, report = C.profile_point(*point, store)
            return table, k, {"profile": checks.profile_digest(profile,
                                                               report)}, None
        if table == "sweep":
            return table, k, {"sweep": checks.curve_digest(
                C.sweep_point(*point))}, None
        if table == "diff":
            fw, mid, batch, sys_a, sys_b = point
            store = ProfileStore(os.path.join(WORK, "store"))
            name = C.graph_of(fw, mid).name
            sides = [store.get(name, s, C.FRAMEWORKS[fw], batch,
                               C.RUNS_PER_LEVEL) for s in (sys_a, sys_b)]
            if None in sides:
                return table, k, None, "a side is excluded"
            return table, k, {"diff": checks.diff_digest(
                C.diff_profiles(*sides))}, None
        path = os.path.join(WORK, f"{os.getpid()}.json")
        if table == "single":
            return table, k, _capture_digests(C.single_capture(*point),
                                              path), None
        fw, mid, system, batch = point
        spans = _spans_per_evaluation(*point)
        if table == "app":
            n = C.evaluations_for(spans, C.APP_TARGET_SPANS)
            trace = C.app_capture(fw, mid, system, batch, n)
            return table, C.key(*point, n), _capture_digests(trace, path), None
        n = C.evaluations_for(spans, C.LIVE_TARGET_SPANS,
                              C.LIVE_MIN_EVALUATIONS)
        trace = C.app_capture(fw, mid, system, batch, n, prefix="live")
        return table, C.key(*point, n), {"live": checks.insight_digest(
            C.cold_insights(trace), trace), "spans": len(trace)}, None
    except Exception as err:  # an op that fails is excluded from the space
        return table, k, None, f"{type(err).__name__}: {err}"


def point_specs():
    systems = C.SYSTEM_NAMES
    first = []
    for fw, mid in C.COLD_ENTRIES:
        for system in systems:
            first.append(("sweep", (fw, mid, system)))
            for batch in C.cold_batches(mid):
                first.append(("profile", (fw, mid, system, batch)))
    second = []
    for fw, mid in C.STORE_ENTRIES:
        for batch in C.cold_batches(mid)[:2]:
            for sys_a, sys_b in combinations(systems, 2):
                second.append(("diff", (fw, mid, batch, sys_a, sys_b)))
    for fw, mid in C.SINGLE_ENTRIES:
        for system in systems:
            second.append(("single", (fw, mid, system, C.SINGLE_BATCH)))
    for fw, mid in C.APP_ENTRIES:
        for system in systems:
            second.append(("app", (fw, mid, system, C.APP_BATCH)))
    for fw, mid in C.LIVE_ENTRIES:
        for system in systems:
            for batch in C.LIVE_BATCHES:
                second.append(("live", (fw, mid, system, batch)))
    return first, second


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    tables = {t: {} for t in ("profile", "sweep", "diff", "single", "app",
                              "advise", "chrome", "live")}
    spans: dict[str, int] = {}
    excluded: dict[str, str] = {}
    started = time.perf_counter()
    context = multiprocessing.get_context("spawn")
    try:
        with context.Pool() as pool:
            # Diffs read the profiles the first phase stored.
            for phase in point_specs():
                for table, k, digests, error in pool.imap_unordered(
                        task, phase, chunksize=4):
                    if error is not None:
                        excluded[f"{table}:{k}"] = error
                        continue
                    if "spans" in digests:
                        spans[f"{table}:{k}"] = digests.pop("spans")
                    if table in ("single", "app"):
                        tables["advise"][k] = digests["advise"]
                        tables["chrome"][k] = digests["chrome"]
                        tables[table][k] = True
                    else:
                        tables[table][k] = digests[table]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    document = {
        "about": "digests of every point a seed can draw; written by "
                 "make_references.py",
        **{t: dict(sorted(v.items())) for t, v in tables.items()},
        "spans": dict(sorted(spans.items())),
        "excluded": dict(sorted(excluded.items())),
    }
    with open(checks.REFERENCE_FILE, "w") as fh:
        json.dump(document, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_FILE}: "
          + ", ".join(f"{t}={len(v)}" for t, v in tables.items())
          + f", excluded={len(excluded)} in "
          f"{time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
