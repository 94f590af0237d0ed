"""``repro.perf`` — benchmark registry, exact regression gate, profiling.

The paper's whole argument is throughput, so this repo needs a perf
story that survives across PRs.  This package provides it:

* :mod:`repro.perf.suite` — a registry of :class:`~repro.perf.suite.BenchCase`
  entries, the one definition of each experiment (fig5/fig6/fig7,
  shootout, fragmentation, the ablations, …): its bench entry point,
  tier arguments and seed, reduced to **virtual** throughput (simulated
  cycles via the cost model), bit-deterministic; every case runs twice
  and the runs must agree.  ``python -m repro <case>`` and
  ``benchmarks/`` run the same cases.
* :mod:`repro.perf.artifact` — a versioned, deterministically-serialized
  JSON schema; ``BENCH_PR<k>.json`` files at the repo root form the perf
  trajectory.
* :mod:`repro.perf.compare` — the gate: exact equality on every
  ``virtual:*`` metric against a baseline artifact; any change or
  missing metric exits nonzero.
* :mod:`repro.perf.profile` — cProfile hotspot attribution per case plus
  tracer-derived hot-word/telemetry stats, so optimization PRs know
  where to aim.

Host wall-clock is measured by ``benchmark/`` (interleaved A/B pairs),
not here.  CLI: ``python -m repro perf run|compare|profile`` (see
:mod:`repro.perf.cli`).
"""

from .suite import CASES, BenchCase, CaseRun, SuiteResult, run_case, run_suite
from .artifact import (
    SCHEMA,
    ArtifactError,
    find_artifacts,
    load_artifact,
    suite_to_doc,
    write_artifact,
)
from .compare import Delta, compare_docs, has_regressions, render_deltas

__all__ = [
    "CASES",
    "BenchCase",
    "CaseRun",
    "SuiteResult",
    "run_case",
    "run_suite",
    "SCHEMA",
    "ArtifactError",
    "find_artifacts",
    "load_artifact",
    "suite_to_doc",
    "write_artifact",
    "Delta",
    "compare_docs",
    "has_regressions",
    "render_deltas",
]
