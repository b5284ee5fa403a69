"""XSP core: across-stack profiling sessions and leveled experimentation.

This package is the paper's primary contribution:

* :mod:`repro.core.levels`    — profiling level-set algebra (M, M/L, M/L/G)
* :mod:`repro.core.api`       — startSpan/finishSpan user tracing API
* :mod:`repro.core.profilers` — the three tracers (model, layer, GPU)
* :mod:`repro.core.session`   — XSPSession: wires tracers into one run and
                                aggregates spans into a timeline trace
* :mod:`repro.core.leveled`   — leveled experimentation (Sec. III-C)
* :mod:`repro.core.pipeline`  — the trace-to-profile builder, multi-run
                                pipeline + trimmed-mean profiles
* :mod:`repro.core.cache`     — persistent on-disk profile store
* :mod:`repro.core.stats`     — statistical summaries
"""

from repro.core.levels import ProfilingLevelSet, M, ML, MLG, MLLibG
from repro.core.api import SpanScope, start_span, finish_span
from repro.core.library_level import LibraryTracer
from repro.core.session import ProfiledRun, ProfilingConfig, XSPSession
from repro.core.leveled import LeveledExperiment, LeveledResult
from repro.core.pipeline import (
    AnalysisPipeline,
    KernelProfile,
    LayerProfile,
    ModelProfile,
    profile_from_trace,
)
from repro.core.cache import ProfileStore
from repro.core.stats import trimmed_mean

__all__ = [
    "AnalysisPipeline",
    "KernelProfile",
    "LayerProfile",
    "LeveledExperiment",
    "LeveledResult",
    "LibraryTracer",
    "M",
    "ML",
    "MLG",
    "MLLibG",
    "ModelProfile",
    "ProfileStore",
    "ProfiledRun",
    "ProfilingConfig",
    "ProfilingLevelSet",
    "SpanScope",
    "XSPSession",
    "finish_span",
    "profile_from_trace",
    "start_span",
    "trimmed_mean",
]
