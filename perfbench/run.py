"""End-to-end benchmark of the XSP reproduction's own profiling stack.

    python3 perfbench/run.py --workload cold_campaign --seed 1 \\
        --seconds 22 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation, in reference-host time (see
``harness.HostSpeed``): the run makes whole rounds of ops until they
have taken ``--seconds`` on the reference host.  ``--trace 1`` first
runs untraced for part of the time, then replays the same ops with the
benchmark's span recorder wrapped around each layer's public functions;
it reports the per-layer metrics, the tracing overhead (traced over
untraced time of the same ops), a per-layer self-time table, and writes
a Chrome trace to ``.perfbench_out/``.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import probes  # noqa: E402
from recorder import Recorder  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = ".perfbench_work"
OUT_DIR = ".perfbench_out"
#: import_s times at least IMPORT_REPEATS fresh interpreters: one
#: between ops at most every IMPORT_EVERY_S of wall time, so that their
#: median spans the run's drifts in host speed as the op metrics do,
#: then more after the ops if needed.
IMPORT_REPEATS = 9
IMPORT_EVERY_S = 2.5
#: An untraced run stops at this multiple of --seconds of wall time even
#: if its ops have not yet taken --seconds on the reference host.
WALL_CAP = 2.0
#: Share of --seconds the traced mode spends on its warm-up pass; the
#: ops of that pass are then replayed untraced and traced.
TRACE_SHARE = 0.35
#: Untraced and traced replays alternate in blocks of about this long.
TRACE_BLOCK_SECONDS = 0.5

IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="XSP profiler benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["cold_campaign", "offline_replay",
                                 "live_monitor"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


class ImportProbes:
    """Reference times of ``import repro.cli`` in fresh interpreters,
    each scaled by the calibrations just before and after it."""

    def __init__(self, speed) -> None:
        self.speed = speed
        self.samples: list[float] = []
        self.last = perf_counter()

    def probe(self) -> None:
        env = dict(os.environ, PYTHONPATH=SRC)
        start = perf_counter()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        end = perf_counter()
        for _ in range(self.speed.WINDOW):
            self.speed.sample()
        self.samples.append(
            float(out.stdout.strip()) * self.speed.scale(start, end))
        self.last = perf_counter()

    def probe_if_due(self) -> None:
        if perf_counter() - self.last >= IMPORT_EVERY_S:
            self.probe()

    def median(self) -> float:
        while len(self.samples) < IMPORT_REPEATS:
            self.probe()
        return statistics.median(self.samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_metric(name, value, unit, note=""):
    print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}")


def end_to_end(workload, records, setup_s, imports, speed):
    times_ms = [r.ref_seconds * 1e3 for r in records]
    top = workload.TAIL_TOP
    p, tail_ms, beyond = harness.tail(times_ms, top)
    lags = [lag * 1e3 * speed.scale(at, at + lag)
            for at, lag in workload.lag_samples]
    if lags:
        lag_source = f"{len(lags)} publish->update lags"
    else:
        # Batch workloads deliver each result when its op returns, so
        # their result lag is the op latency.
        lags, lag_source = times_ms, "op latency (no live stream)"
    lag_p, lag_tail, lag_beyond = harness.tail(lags, top)
    wall_ops_per_s = len(records) / sum(r.seconds for r in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "import_s": (imports.median(), "s"),
        "ops_per_s": (len(records) / sum(r.ref_seconds for r in records),
                      "1/s"),
        "op_p50_ms": (harness.percentile(times_ms, 50), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "live_lag_p50_ms": (harness.percentile(lags, 50), "ms"),
        "live_lag_tail_ms": (lag_tail, "ms"),
    }
    notes = {
        "import_s": f"median of {len(imports.samples)} interpreters",
        "ops_per_s": f"{wall_ops_per_s:.4g}/s of wall time",
        "op_tail_ms": f"p{p:g}, {beyond} of {len(times_ms)} ops beyond",
        "live_lag_p50_ms": lag_source,
        "live_lag_tail_ms": f"p{lag_p:g}, {lag_beyond} of {len(lags)} beyond",
    }
    scales = [r.ref_seconds / r.seconds for r in records]
    print(f"end-to-end metrics ({workload.name}, times on the reference "
          f"host; reference/wall time p10-p90 "
          f"{harness.percentile(scales, 10):.3f}-"
          f"{harness.percentile(scales, 90):.3f}):")
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit, notes.get(name, ""))
    print_metric("failed_frac", harness.failed_fraction(records), "ratio",
                 f"{sum(not r.ok for r in records)} of {len(records)} ops")
    kinds = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.ref_seconds)
    for kind, secs in sorted(kinds.items()):
        print(f"  op {kind:<14} n={len(secs):<5} time share "
              f"{sum(secs) / sum(r.ref_seconds for r in records):6.1%} "
              f"p50 {harness.percentile(secs, 50) * 1e3:9.2f} ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for the run, its threads and its import probes: the
    # calibration loop then times the CPU that runs the measured work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    speed = harness.HostSpeed()
    calibrating = perf_counter()
    for _ in range(speed.WINDOW):
        speed.sample()
    calibration_s = perf_counter() - calibrating
    import campaigns

    imported = perf_counter() - STARTED - calibration_s
    refs = checks.load_references()
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        workload = campaigns.WORKLOADS[args.workload](refs, work_dir)
        workload.setup(args.seed)
        end = perf_counter()
        for _ in range(speed.WINDOW):
            speed.sample()
        # Process start to the first timed op, less the calibration,
        # scaled by the calibrations before the program's imports and
        # after the set-up.
        setup_wall = end - STARTED - calibration_s
        setup_s = setup_wall * speed.REFERENCE_S / statistics.median(
            seconds for _, seconds in speed.samples)
        print(f"set-up: {setup_wall:.3f} s of wall time, of which imports "
              f"{imported:.3f} s")
        ops = workload.ops(args.seed)
        if args.trace:
            records, metrics = traced_run(workload, ops, args.seconds,
                                          args.workload, args.seed)
        else:
            imports = ImportProbes(speed)
            records = harness.drive(workload, ops, seconds=args.seconds,
                                    speed=speed,
                                    wall_cap=WALL_CAP * args.seconds,
                                    between=imports.probe_if_due)
            metrics = end_to_end(workload, records, setup_s, imports,
                                 speed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    failed = sum(not r.ok for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_run(workload, ops, seconds, name, seed):
    """Per-layer metrics and tracing overhead.

    An untraced warm-up pass over part of the time fixes the op list;
    the list is then replayed in blocks, each block run once untraced
    and once with the recorder installed, so that warm-up and drifts in
    host speed fall equally on both sides of the overhead ratio.
    """
    from campaigns import Op

    # The warm-up need not end on a round: every op may end it.
    ops = (Op(op.kind, op.point, ends_round=True) for op in ops)
    warmup = harness.drive(workload, ops, seconds=seconds * TRACE_SHARE)
    blocks, block, block_s = [], [], 0.0
    for record in warmup:
        block.append(Op(record.kind, record.point))
        block_s += record.seconds
        if block_s >= TRACE_BLOCK_SECONDS:
            blocks.append(block)
            block, block_s = [], 0.0
    if block:
        blocks.append(block)
    recorder = Recorder()
    untraced, traced = [], []
    for block in blocks:
        untraced += harness.drive(workload, block)
        uninstall = probes.install(recorder)
        try:
            traced += harness.drive(workload, block, recorder=recorder,
                                    first_index=len(traced))
        finally:
            uninstall()
    untraced_s = sum(r.seconds for r in untraced)
    values = probes.layer_metrics(recorder, untraced_s)
    report_layers(recorder, values, untraced_s, name, seed)
    units = dict(probes.LAYER_METRICS)
    metrics = {k: {"value": values[k], "unit": units[k]}
               for k, _ in probes.LAYER_METRICS}
    return warmup + untraced + traced, metrics


def report_layers(recorder, values, untraced_s, name, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}.trace.json")
    with open(path, "w") as fh:
        fh.write(recorder.chrome_json())
    ops = recorder.op_spans
    op_wall = sum(s.end - s.start for s in ops)
    print(f"per-layer self time ({name}, {len(ops)} traced ops, "
          f"{op_wall:.3f} s op wall time):")
    print(f"  {'layer':<24} {'calls':>8} {'busy s':>10} {'busy %':>7} "
          f"{'wait s':>9} {'failures':>8}")
    for layer, calls, busy, wait, failures in probes.layer_table(recorder):
        print(f"  {layer:<24} {calls:>8} {busy:>10.4f} "
              f"{busy / op_wall:>7.1%} {wait:>9.4f} {failures:>8}")
    share = values["perfbench.unattributed_share"]
    own = values["perfbench.recorder_share"]
    named = 1 - share - own
    print(f"  named program layers: {named:.1%} of op wall time "
          f"({named / (1 - own):.1%} of the time outside the recorder); "
          f"recorder bookkeeping: {own:.1%}; unattributed: {share:.1%}")
    print(f"tracing overhead: {values['perfbench.trace_overhead_ratio']:+.1%} "
          f"(traced {op_wall:.3f} s vs untraced {untraced_s:.3f} s for the "
          f"same {len(ops)} ops)")
    print(f"workload properties: sim.repeat_spec_share="
          f"{values['sim.repeat_spec_share']:.3f} core.cache.hit_ratio="
          f"{values['core.cache.hit_ratio']:.3f}")
    print(f"chrome trace: {path}")


if __name__ == "__main__":
    sys.exit(main())
