"""repro — reproduction of "XSP: Across-Stack Profiling and Analysis of
Machine Learning Models on GPUs" (Li, Dakkak et al., IPDPS 2020).

Quickstart::

    from repro import XSPSession, AnalysisPipeline
    from repro.models import get_model

    session = XSPSession(system="Tesla_V100", framework="tensorflow_like")
    pipeline = AnalysisPipeline(session, runs_per_level=3)
    profile = pipeline.profile_model(get_model(7).graph, batch=256)
    from repro.analysis.report import full_report
    print(full_report(profile))

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.tracing`    — distributed-tracing substrate (spans, server,
  sweep-line parent reconstruction)
* :mod:`repro.sim`        — simulated GPU/CUDA/CUPTI/cuDNN/Eigen substrate
* :mod:`repro.frameworks` — TensorFlow-like and MXNet-like framework sims
* :mod:`repro.models`     — the 65-model zoo of Tables VIII and X
* :mod:`repro.core`       — XSP sessions, leveled experimentation, pipeline
* :mod:`repro.analysis`   — the 15 automated analyses of Table I
* :mod:`repro.insights`   — rule-based across-stack bottleneck detection
* :mod:`repro.campaign`   — Sec. IV-scale measurement grids
* :mod:`repro.workloads`  — batch sweeps and quick measurements
"""

from repro.core import (
    AnalysisPipeline,
    LeveledExperiment,
    ProfiledRun,
    ProfilingConfig,
    XSPSession,
)
from repro.tracing import TracingServer

__version__ = "1.0.0"

__all__ = [
    "AnalysisPipeline",
    "LeveledExperiment",
    "ProfiledRun",
    "ProfilingConfig",
    "TracingServer",
    "XSPSession",
    "__version__",
]
