"""Output digests: what the benchmark compares against its reference file.

Every digest is a SHA-256 over a canonical JSON rendering of an op's
output.  Process-local identifiers (span ids and trace ids come from
per-process counters, so they depend on what ran earlier in the
process) are replaced by the row a span occupies in its trace, which is
fixed by the simulation.  Floats are rendered with ``repr`` by ``json``,
so a digest changes whenever any simulated number changes in any digit.

The reference file (``references.json``) maps each point a seed can
draw to its digests; ``make_references.py`` writes it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "references.json")


def sha(obj: Any) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def profile_digest(profile, report: str) -> str:
    """Model/layer latencies, kernel names and durations, report text."""
    return sha({
        "model_latency_ms": profile.model_latency_ms,
        "layers": [[layer.name, layer.latency_ms] for layer in profile.layers],
        "kernels": [[k.name, k.latency_ms] for k in profile.kernels],
        "report": report,
    })


def curve_digest(curve) -> str:
    return sha({
        "latencies_ms": sorted(curve.latencies_ms.items()),
        "optimal_batch": curve.optimal_batch,
    })


def _round(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round(v) for v in value]
    return value


def diff_digest(diff) -> str:
    """Diff text and JSON, numbers to 12 significant digits.

    ``diff_profiles`` sums the kernel-mix distance in set order, so its
    last digit depends on the interpreter's string-hash seed; the
    tolerance keeps the check independent of ``PYTHONHASHSEED``.
    """
    return sha({"text": diff.render(), "json": _round(diff.to_dict())})


def _row_map(trace) -> dict[int, int]:
    """span id -> row, the id-free name of a span in its trace."""
    return {span_id: row for row, span_id in enumerate(trace.table.span_id)}


#: Evidence summaries that quote span ids (the idle-gap rule's).
_SPAN_PAIR = re.compile(r"spans #(\d+) and #(\d+)")


def insight_digest(report, trace) -> str:
    """Insight JSON with evidence span ids replaced by trace rows."""
    rows = _row_map(trace)

    def quoted(match: re.Match) -> str:
        a, b = (rows.get(int(g), -1) for g in match.groups())
        return f"spans row {a} and row {b}"

    data = report.to_dict()
    for insight in data["insights"]:
        for evidence in insight["evidence"]:
            evidence["span_ids"] = [rows.get(s, -1) for s in evidence["span_ids"]]
            evidence["summary"] = _SPAN_PAIR.sub(quoted, evidence["summary"])
    return sha(data)


def chrome_digest(text: str, trace) -> str:
    """Chrome trace JSON with pid (trace id) and span ids canonicalized."""
    rows = _row_map(trace)
    events = json.loads(text)["traceEvents"]
    for event in events:
        event["pid"] = 0
        args = event.get("args")
        if args and "span_id" in args:
            args["span_id"] = rows[args["span_id"]]
            if args.get("parent_id") is not None:
                args["parent_id"] = rows.get(args["parent_id"], -1)
    return sha(events)


def load_references() -> dict[str, Any]:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)
