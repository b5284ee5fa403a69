"""Self-checks of the benchmark harness.

    python3 perfbench/selfcheck.py

Run from the repository root; exits non-zero on the first failed check.
Covers tail-percentile selection, host-speed scaling, failure counting,
the digest check catching a perturbed output, and self-time accounting.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
from recorder import Recorder  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_tail_selection() -> None:
    for top in (harness.TAIL_LADDER[0], 95.0, 75.0):
        for n in range(1, 3000):
            values = [float(v) for v in range(n)]
            p, value, beyond = harness.tail(values, top)
            # The count is exact: samples strictly above the percentile.
            expect(beyond == sum(v > value for v in values),
                   f"n={n}: {beyond} reported beyond p{p}")
            qualifying = [q for q in harness.TAIL_LADDER
                          if q <= top and harness.samples_beyond(n, q)
                          >= harness.TAIL_MIN_BEYOND]
            expect(p == max(qualifying, default=harness.TAIL_LADDER[-1]),
                   f"n={n}: p{p} is not the highest percentile up to "
                   f"p{top} with {harness.TAIL_MIN_BEYOND} samples beyond")
    for n, p in ((21, 50.0), (40, 75.0), (100, 90.0), (250, 95.0),
                 (1000, 99.0), (10, 50.0)):
        expect(harness.tail([float(v) for v in range(n)])[0] == p,
               f"n={n} should report p{p}")
    expect(harness.tail([float(v) for v in range(1200)], 95.0)[0] == 95.0,
           "a capped ladder stops at its top")


def check_host_speed() -> None:
    speed = harness.HostSpeed()
    speed.samples = [(float(t), d) for t, d in enumerate(
        (0.020, 0.010, 0.030, 0.010, 0.012, 0.012, 0.012, 0.050))]
    # An op between samples 3 and 4 sees the three before (0.010, 0.030,
    # 0.010) and the three after (0.012 x 3); the median ignores the
    # preempted 0.030 that a mean would take in.
    expect(abs(speed.scale(3.5, 3.6) - speed.REFERENCE_S / 0.012) < 1e-12,
           "reference scale is REFERENCE_S over the window's median")
    expect(abs(speed.scale(-1.0, -0.5) - speed.REFERENCE_S / 0.020)
           < 1e-12, "an op before every sample uses the ones after it")


class _FakeWorkload:
    """Op i raises when i % 5 == 0 and fails its check when i % 7 == 0."""

    def run(self, op):
        if op.point[0] % 5 == 0:
            raise RuntimeError("injected")
        return op.point[0]

    def check(self, op, result):
        return result % 7 != 0


def check_failure_counting() -> None:
    from collections import namedtuple

    op = namedtuple("Op", "kind point")
    ops = [op("fake", (i,)) for i in range(1, 71)]
    stderr, sys.stderr = sys.stderr, open(os.devnull, "w")
    try:
        records = harness.drive(_FakeWorkload(), ops)
    finally:
        sys.stderr.close()
        sys.stderr = stderr
    raised = sum(1 for i in range(1, 71) if i % 5 == 0)
    rejected = sum(1 for i in range(1, 71) if i % 5 and i % 7 == 0)
    expect(len(records) == 70, "every op attempted is recorded")
    expect(sum(not r.ok for r in records) == raised + rejected,
           "raised and rejected ops are both failures")
    expect(abs(harness.failed_fraction(records)
               - (raised + rejected) / 70) < 1e-12,
           "failed_frac is failures over ops attempted")


def check_perturbed_output() -> None:
    import campaigns
    import checks

    refs = checks.load_references()
    workload = campaigns.ColdCampaign(refs, "")
    point = ("tf", 32, "Tesla_V100", 1)
    op = campaigns.Op("profile", point)
    profile, report = campaigns.profile_point(*point, None)
    expect(workload.check(op, (profile, report)), "true output passes")
    layer = next(layer for layer in profile.layers if layer.kernels)
    kernel = layer.kernels[0]
    layer.kernels[0] = replace(kernel,
                               latency_ms=kernel.latency_ms * (1 + 1e-12))
    expect(not workload.check(op, (profile, report)),
           "a kernel duration off in the 12th digit is flagged")
    layer.kernels[0] = kernel
    expect(not workload.check(op, (profile, report + " ")),
           "a changed report text is flagged")
    expect(not workload.check(campaigns.Op("profile", point[:3] + (2,)),
                              (profile, report)),
           "an output checked against another point's digest is flagged")


def check_self_time() -> None:
    recorder = Recorder()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        hot()
        leaf()

    def hot():
        time.sleep(0.0005)

    leaf = recorder.wrap(leaf, "test.leaf")
    hot = recorder.wrap(hot, "test.hot", hot=True)
    middle = recorder.wrap(middle, "test.middle")
    recorder.begin_op(0, "op.test")
    time.sleep(0.001)
    middle()
    leaf()
    op = recorder.end_op()
    total_self = sum(t.self_s for t in recorder.totals.values()) + op.self_s
    expect(abs(total_self - (op.end - op.start)) < 1e-9,
           "self times sum to the op span's duration")
    spans = {s.name: s for s in recorder.spans if s.name == "test.middle"}
    mid = spans["test.middle"]
    children = [s for s in recorder.spans if s.parent == mid.sid]
    covered = sum(s.end - s.start for s in children) \
        + recorder.totals["test.hot"].inclusive_s
    # What the children's durations leave over is their wrappers' time,
    # part of the recorder's own total.
    wrappers = (mid.end - mid.start) - covered - mid.self_s
    expect(0.0 <= wrappers <= recorder.totals[Recorder.OVERHEAD].self_s,
           "a span's self time is its duration minus its children's "
           "and their wrappers' time")

    # Another thread's spans overlap the client's: the op root subtracts
    # the union of its children's intervals, never more than its span.
    threaded = Recorder()
    work = threaded.wrap(lambda: time.sleep(0.01), "test.work")
    threaded.begin_op(1, "op.threads")
    worker = threading.Thread(target=work)
    worker.start()
    work()
    worker.join(timeout=5)
    expect(not worker.is_alive(), "worker finished")
    root = threaded.end_op()
    expect(0.0 <= root.self_s <= root.end - root.start,
           "op self time stays within its duration with threads")


def main() -> int:
    check_tail_selection()
    check_host_speed()
    check_failure_counting()
    check_self_time()
    check_perturbed_output()
    print("selfcheck: all harness checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
