"""Golden determinism digests: the simulator's output is a fixed contract.

Each case profiles one zoo point and digests (SHA-256) what came out:

* every trace column and tag set, row by row, with span ids replaced by
  the row they occupy (ids come from a process counter, so they depend
  on what ran before in the process; rows are fixed by the simulation);
* the ``profile_to_dict`` JSON of a merged leveled profile.

The recorded digests live in ``golden_digests.json`` next to this file.
A refactor of the simulator or the ingest path must leave every digest
unchanged; a change that is meant to alter simulated output rewrites
the file, and says why in the change log:

    PYTHONPATH=src python tests/integration/test_golden_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.core import AnalysisPipeline, ProfilingConfig, XSPSession
from repro.core.cache import profile_to_dict
from repro.core.levels import M, ML, MLG, MLLibG
from repro.models import MODEL_ZOO, MXNET_ZOO

GOLDEN_FILE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_digests.json"
)

#: Paper model ids present in both Table VIII and Table X: a ResNet (conv
#: helper kernels, cuBLAS) and a MobileNet (depthwise kernels).
MODELS = (11, 34)
FRAMEWORKS = ("tensorflow_like", "mxnet_like")
SYSTEMS = ("Tesla_V100", "Quadro_RTX")
BATCH = 2
CONFIGS = {
    "M": ProfilingConfig(levels=M, metrics=()),
    "M/L": ProfilingConfig(levels=ML, metrics=()),
    "M/L/G": ProfilingConfig(levels=MLG, metrics=()),
    "M/L/G+metrics": ProfilingConfig(levels=MLG),
    "M/L/Lib/G": ProfilingConfig(levels=MLLibG, metrics=()),
    "serialized": ProfilingConfig(levels=MLG, serialized=True, run_index=1),
}
#: The application case: three evaluations in one trace.
APP_WORKLOAD = ((34, 1), (11, 2), (34, 4))


def _graph(framework: str, model_id: int):
    zoo = MXNET_ZOO if framework == "mxnet_like" else MODEL_ZOO
    return zoo[model_id].graph


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(trace) -> str:
    """Every column and tag set, with span ids canonicalized to rows."""
    table = trace.table
    rows = {span_id: row for row, span_id in enumerate(table.span_id)}
    out = []
    for row in range(len(table)):
        parent = table.parent_id_of(row)
        out.append([
            table.name_of(row),
            table.start_ns[row],
            table.end_ns[row],
            table.level[row],
            table.kind[row],
            None if parent is None else rows.get(parent, -1),
            table.correlation_id_of(row),
            [[key, value] for key, value in table.iter_tags(row)],
            [[e.timestamp_ns, dict(e.fields)] for e in table.peek_logs(row)],
        ])
    return _sha(out)


def _cases():
    for model_id in MODELS:
        for framework in FRAMEWORKS:
            for system in SYSTEMS:
                yield f"{model_id}/{framework}/{system}", (
                    model_id, framework, system)


def point_digests(model_id: int, framework: str, system: str) -> dict:
    graph = _graph(framework, model_id)
    session = XSPSession(system, framework)
    digests = {
        label: trace_digest(session.profile(graph, BATCH, config).trace)
        for label, config in CONFIGS.items()
    }
    profile = AnalysisPipeline(session).profile_model(graph, BATCH)
    digests["profile"] = _sha(profile_to_dict(profile))
    return digests


def application_digest() -> str:
    session = XSPSession("Tesla_V100", "tensorflow_like")
    workload = [(_graph("tensorflow_like", m), b) for m, b in APP_WORKLOAD]
    trace, _ = session.profile_application(
        workload, config=ProfilingConfig(levels=MLG, metrics=())
    )
    return trace_digest(trace)


def compute_all() -> dict:
    points = {key: point_digests(*args) for key, args in _cases()}
    return {"points": points, "application": application_digest()}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_FILE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("key,args", list(_cases()), ids=lambda v: str(v))
def test_point_digests_unchanged(golden, key, args):
    assert point_digests(*args) == golden["points"][key]


def test_application_digest_unchanged(golden):
    assert application_digest() == golden["application"]


def test_golden_file_covers_every_case(golden):
    assert sorted(golden["points"]) == sorted(k for k, _ in _cases())
    for digests in golden["points"].values():
        assert sorted(digests) == sorted([*CONFIGS, "profile"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_digests.py --write")
    with open(GOLDEN_FILE, "w") as fh:
        json.dump(compute_all(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_FILE}")
