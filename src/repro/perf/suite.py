"""Benchmark registry: one definition per experiment.

Every :class:`BenchCase` is plain data: the bench entry point it runs
(:func:`repro.bench.fig5.run` … :func:`repro.bench.ablations.run_buddy_ablation`),
the keyword arguments of its two tiers, its ``seed``, and a ``reduce``
that turns the bench's result object into a flat ``{metric: float}``
dict, recorded under the ``virtual:`` prefix: simulated-throughput
metrics derived from the cost model (ops per virtual second, cycle
totals, speedups, overhead ratios).  The simulator is seeded, so the
same code produces bit-identical values, and
:mod:`repro.perf.compare` gates them on exact equality.

The registry is the only place an experiment's sweep is written down:
``perf run``, ``perf profile`` and ``python -m repro <case>`` all call
:meth:`BenchCase.result`.  Each case has a ``quick`` tier (seconds of
host time — CI smoke and the gate) and a ``full`` tier (the
paper-scale sweeps behind EXPERIMENTS.md).  :func:`run_case` runs a
tier twice, and the two runs' metrics must agree exactly; a mismatch
raises — determinism is part of the simulator's contract.  Host
wall-clock is measured by ``benchmark/``, not here.

A case's ``claims`` are the paper's shapes as data: named predicates
over its full-tier metrics ("fig7: ours/cuda > 1.5x at 16-128 B").
:func:`check_claims` reads them off an artifact, and ``perf compare``
fails a full-tier run that breaks one, by name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..bench import (ablations, fig5, fig6, fig7, fragmentation, lockstep,
                     shootout)
from ..bench.reporting import format_table, geometric_mean, si
from ..par import pool
from ..resil import bench as resil_bench

#: (metrics, params) as reduced from one bench result
RunnerOutput = Tuple[Dict[str, float], Dict[str, object]]

TIERS = ("quick", "full")


class UnknownCase(KeyError):
    """A case name that neither the registry nor ``shootout@`` resolves."""


@dataclass(frozen=True)
class BenchCase:
    """One registered experiment: entry point, tier arguments, reduction."""

    name: str
    seed: int
    description: str
    #: the bench entry point, called ``run(seed=seed, **tier_kwargs)``;
    #: its result object has a ``table()``
    run: Callable[..., Any]
    quick: Mapping[str, object]
    full: Mapping[str, object]
    #: ``reduce(result, tier_kwargs) -> (metrics, params)``
    reduce: Callable[[Any, Mapping[str, object]], RunnerOutput]
    #: name -> what the full tier's metrics (keyed without ``virtual:``)
    #: must show
    claims: Mapping[str, Callable[[Mapping[str, float]], bool]] = field(
        default_factory=dict)

    def kwargs(self, tier: str) -> Mapping[str, object]:
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r} (expected one of {TIERS})")
        return self.quick if tier == "quick" else self.full

    def result(self, tier: str) -> Any:
        """Run ``tier`` once and return the bench's own result object."""
        return self.run(seed=self.seed, **self.kwargs(tier))


@dataclass
class CaseRun:
    """Measured result of one case at one tier."""

    case: str
    tier: str
    seed: int
    metrics: Dict[str, float]          # "virtual:*"
    params: Dict[str, object] = field(default_factory=dict)


@dataclass
class SuiteResult:
    """All case runs from one ``perf run`` invocation."""

    tier: str
    cases: List[CaseRun] = field(default_factory=list)

    def case(self, name: str) -> CaseRun:
        for c in self.cases:
            if c.case == name:
                return c
        raise KeyError(f"no case {name!r} in suite result")


def _slug(name: str) -> str:
    """'ours (scalar)' -> 'ours_scalar' — metric-key-safe labels."""
    out = "".join(c if c.isalnum() else "_" for c in name.lower())
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_")


# ----------------------------------------------------------------------
# entry points of the cases that replay one workload per backend
# ----------------------------------------------------------------------
@dataclass
class WorkloadResult:
    """One workload replayed per backend, keyed by roster name."""

    workload: Any                     # the replayed Trace
    reports: Dict[str, Any]           # name -> ReplayReport

    def table(self) -> str:
        return "\n\n".join(f"{name}:\n{rep.table()}"
                           for name, rep in self.reports.items())


def _replay_roster(workload, seed: int, lanes: int,
                   backends: Sequence[str]) -> WorkloadResult:
    from ..workloads.replay import replay

    return WorkloadResult(workload, {
        b: replay(workload, backend=b, seed=seed, lanes_per_tenant=lanes)
        for b in backends})


def run_family(*, seed: int, family: str, lanes: int,
               backends: Sequence[str], **family_args) -> WorkloadResult:
    """Replay a ``family`` trace generated from the seed, per backend."""
    from ..workloads import families

    return _replay_roster(families.generate(family, seed, **family_args),
                          seed, lanes, backends)


def run_trace(*, seed: int, trace: str, lanes: int,
              backends: Sequence[str]) -> WorkloadResult:
    """Replay a bundled recorded ``trace`` (the committed fixture is
    identical on every machine), per backend."""
    from ..workloads.trace import load_bundled

    return _replay_roster(load_bundled(trace), seed, lanes, backends)


#: backend heap bytes of the serve_replay case
_SERVE_POOL = 1 << 20


@dataclass
class ServeReplayResult:
    """One bundled trace served per backend, keyed by roster name."""

    trace: Any                        # the served Trace
    points: Dict[str, Any]            # name -> ServeBenchPoint

    def table(self) -> str:
        rows = [[name, si(p.ops_per_s), p.latency_p50, p.latency_p99,
                 f"{p.failure_rate:.1%}", f"{p.admission_failure_rate:.1%}",
                 p.episodes]
                for name, p in self.points.items()]
        return format_table(["backend", "ops/s", "p50 cyc", "p99 cyc",
                             "fail", "admission fail", "episodes"], rows)


def run_serve(*, seed: int, trace: str, batch_max: int,
              quota_bytes: Optional[int],
              backends: Sequence[str]) -> ServeReplayResult:
    """Serve a bundled trace through the allocator service's
    deterministic feeder, per backend: admission control (quota +
    pressure) in front of episode batching over a persistent heap."""
    from ..serve.bench import run_backend
    from ..workloads.trace import load_bundled

    served = load_bundled(trace)
    return ServeReplayResult(served, {
        b: run_backend(served, b, seed=seed, pool=_SERVE_POOL,
                       batch_max=batch_max, quota_bytes=quota_bytes)
        for b in backends})


# ----------------------------------------------------------------------
# per-bench reductions: (result, tier kwargs) -> (metrics, params)
# ----------------------------------------------------------------------
def _fig5(res, kw) -> RunnerOutput:
    peak = kw["thread_counts"][-1]
    c = res.counting.y_at(peak)
    b = res.bulk.y_at(peak)
    metrics = {
        "counting_ops_per_s_peak": c,
        "bulk_ops_per_s_peak": b,
        "bulk_speedup_peak": (b / c) if c else 0.0,
    }
    for n, c, b in zip(res.counting.xs, res.counting.ys, res.bulk.ys):
        if n > res.batch:
            metrics[f"bulk_speedup_{n}"] = b / c
    return metrics, {"thread_counts": list(kw["thread_counts"]),
                     "batch": res.batch}


def _fig5_batch(res, kw) -> RunnerOutput:
    metrics = {f"bulk_speedup_batch_{b}": res.bulk.y_at(b) / c
               for b, c in zip(res.counting.xs, res.counting.ys)}
    return metrics, dict(kw)


def _fig6(res, kw) -> RunnerOutput:
    speedups = [p.speedup for p in res.points]
    flagship = max(res.points, key=lambda p: p.nthreads // (1 + p.ratio))
    metrics = {
        "delegation_speedup_gmean": geometric_mean(speedups),
        "classical_cycles_total": float(sum(p.cycles_classical for p in res.points)),
        "delegated_cycles_total": float(sum(p.cycles_delegated for p in res.points)),
        "delegation_speedup_min": min(speedups),
        "delegation_speedup_max": max(speedups),
        "delegation_speedup_most_writers": flagship.speedup,
    }
    return metrics, {"ratios": list(kw["ratios"]),
                     "thread_targets": list(kw["thread_targets"]),
                     "points": len(res.points)}


#: Figure 7 sizes whose speedup the claims read (UAlloc's tail-using sizes)
_FIG7_WIN_SIZES = (16, 32, 64, 128)
#: Figure 7 sizes whose failure rate the claims read
_FIG7_FAIL_SIZES = (8, 512, 1024, 2048, 4096, 16384, 65536)


def _fig7(res, kw) -> RunnerOutput:
    ours = [p for p in res.points if p.allocator == "ours"]
    cuda = [p for p in res.points if p.allocator == "cuda"]
    metrics = {
        "ours_ops_per_s_gmean": geometric_mean([p.throughput for p in ours]),
        "cuda_ops_per_s_gmean": geometric_mean([p.throughput for p in cuda]),
        "mean_speedup": res.mean_speedup(),
        "ours_failure_rate_mean":
            sum(p.failure_rate for p in ours) / len(ours) if ours else 0.0,
    }
    cuda_at = {p.size: p for p in cuda}
    for p in ours:
        if p.size in _FIG7_WIN_SIZES:
            metrics[f"speedup_{p.size}"] = (p.throughput
                                            / cuda_at[p.size].throughput)
        if p.size in _FIG7_FAIL_SIZES:
            metrics[f"ours_failure_rate_{p.size}"] = p.failure_rate
    return metrics, {"sizes": list(kw["sizes"])}


def _storms(res, kw) -> RunnerOutput:
    metrics: Dict[str, float] = {}
    for label, (rate, atomics) in res.rows.items():
        metrics[f"ops_per_s_{_slug(label)}"] = rate
        metrics[f"atomics_{_slug(label)}"] = float(atomics)
    return metrics, dict(kw)


#: shootout designs that never fail on the non-exhausting churn
_SHOOTOUT_NEVER_FAIL = ("ours (scalar)", "CUDA-like")
_NEVER_FAIL_CLAIM = {"ours and CUDA-like never fail on the churn": lambda m: (
    m["failures_ours_scalar"] == m["failures_cuda_like"] == 0)}


def _shootout(res, kw) -> RunnerOutput:
    metrics: Dict[str, float] = {}
    for p in res.points:
        metrics[f"pairs_per_s_{_slug(p.name)}"] = p.throughput
        if p.name in _SHOOTOUT_NEVER_FAIL:
            metrics[f"failures_{_slug(p.name)}"] = float(p.failures)
    base = {p.name: p for p in res.points}.get("ours (scalar)")
    cuda = {p.name: p for p in res.points}.get("CUDA-like")
    if base and cuda and cuda.throughput:
        metrics["ours_vs_cuda_speedup"] = base.throughput / cuda.throughput
    params: Dict[str, object] = {"nthreads": kw["nthreads"],
                                 "iters": kw["iters"], "size": res.size}
    if "which" in kw:
        params["backends"] = list(kw["which"])
    return metrics, params


def _lockstep(res, kw) -> RunnerOutput:
    metrics = {
        "coalesced_slots_per_s": res.coalesced.slots_per_s,
        "plain_slots_per_s": res.plain.slots_per_s,
        "coalesce_speedup": res.speedup,
        "coalesce_width_mean": res.coalesced.coalesce_width_mean,
        "coalesced_cycles_total": float(res.coalesced.cycles),
    }
    return metrics, dict(kw)


def _fragmentation(res, kw) -> RunnerOutput:
    o, b = res.ours[-1], res.bump[-1]
    bump = [p.reserved for p in res.bump]
    metrics = {
        "ours_overhead_final": o.overhead,
        "bump_overhead_final": b.overhead,
        "ours_reserved_final_bytes": float(o.reserved),
        "ours_overhead_first": res.ours[0].overhead,
        "bump_reserved_first_bytes": float(bump[0]),
        "bump_reserved_final_bytes": float(bump[-1]),
        "bump_reserved_min_step_bytes": float(min(
            (y - x for x, y in zip(bump, bump[1:])), default=0)),
    }
    return metrics, dict(kw)


def _resil(res, kw) -> RunnerOutput:
    heavy = res.point("heavy")
    metrics = {
        "pairs_per_s_clean": res.point("clean").throughput,
        "pairs_per_s_light": res.point("light").throughput,
        "pairs_per_s_heavy": heavy.throughput,
        # graceful-degradation headline: fraction of fault-free
        # throughput retained under each plan (higher is better)
        "throughput_retained_light": res.retained("light"),
        "throughput_retained_heavy": res.retained("heavy"),
        # hard failures surfaced to callers after robust retries
        "heavy_failure_rate": heavy.failure_rate,
    }
    params = {
        "nthreads": kw["nthreads"], "iters": kw["iters"],
        "sizes": list(res.sizes),
        "faults_light": res.point("light").faults,
        "faults_heavy": heavy.faults,
        "retries_heavy": heavy.retries,
    }
    return metrics, params


def _workload(res, kw) -> RunnerOutput:
    metrics: Dict[str, float] = {}
    for b, report in res.reports.items():
        slug = _slug(b)
        totals = report.totals
        metrics[f"ops_per_s_{slug}"] = report.ops_per_s
        metrics[f"failure_rate_{slug}"] = totals.failure_rate
        metrics[f"fairness_{slug}"] = report.fairness()
        metrics[f"worst_tenant_failure_{slug}"] = max(
            st.failure_rate for st in report.tenants.values())
    # the trace name or the family with its arguments, then the trace
    # as replayed
    params = {k: v for k, v in kw.items() if k not in ("lanes", "backends")}
    params.update(events=len(res.workload.events),
                  tenants=res.workload.tenants,
                  lanes_per_tenant=kw["lanes"], backends=list(kw["backends"]))
    return metrics, params


def _serve_replay(res, kw) -> RunnerOutput:
    metrics: Dict[str, float] = {}
    for b, pt in res.points.items():
        slug = _slug(b)
        metrics[f"ops_per_s_{slug}"] = pt.ops_per_s
        metrics[f"latency_cycles_p50_{slug}"] = float(pt.latency_p50)
        metrics[f"latency_cycles_p99_{slug}"] = float(pt.latency_p99)
        metrics[f"failure_rate_{slug}"] = pt.failure_rate
        metrics[f"admission_failure_rate_{slug}"] = pt.admission_failure_rate
    params: Dict[str, object] = {
        "trace": kw["trace"], "events": len(res.trace.events),
        "tenants": res.trace.tenants, "batch_max": kw["batch_max"],
        "quota_bytes": kw["quota_bytes"], "pool": _SERVE_POOL,
        "backends": list(kw["backends"]),
    }
    return metrics, params


def _ablation(ours: str, other: str):
    """The reduction of an ablation's ``ours`` series against ``other``."""
    def reduce(res, kw) -> RunnerOutput:
        peak = kw["thread_counts"][-1]
        a, b = getattr(res, ours), getattr(res, other)
        metrics = {
            f"{ours}_ops_per_s_peak": a.y_at(peak),
            f"{other}_ops_per_s_peak": b.y_at(peak),
            f"{ours}_speedup_gmean": geometric_mean(
                [x / y for x, y in zip(a.ys, b.ys) if y]),
        }
        return metrics, {"thread_counts": list(kw["thread_counts"])}
    return reduce


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
CASES: Dict[str, BenchCase] = {}


def _register(case: BenchCase) -> BenchCase:
    if case.name in CASES:
        raise ValueError(f"duplicate bench case {case.name!r}")
    CASES[case.name] = case
    return case


_register(BenchCase(
    name="fig5",
    seed=1,
    description="two-stage allocation ceiling: counting vs bulk semaphores",
    run=fig5.run,
    quick={"thread_counts": (256, 1024)},
    full={"thread_counts": (256, 1024, 4096, 16384)},
    reduce=_fig5,
    claims={"bulk beats counting above the batch size": lambda m: min(
        m[f"bulk_speedup_{n}"] for n in (1024, 4096, 16384)) > 1},
))

_register(BenchCase(
    name="fig5_batch",
    seed=1,
    description="§5.1 'other batch sizes are analogous': Figure 5 per "
                "batch size",
    run=fig5.run_batches,
    quick={"batches": (32, 128), "nthreads": 1024},
    full={"batches": (32, 128, 512, 2048), "nthreads": 4096},
    reduce=_fig5_batch,
    claims={"bulk beats counting at every batch up to threads/4": lambda m:
            min(m[f"bulk_speedup_batch_{b}"] for b in (32, 128, 512)) > 1},
))

_register(BenchCase(
    name="fig6",
    seed=3,
    description="RCU delegation speedup over classical barriers",
    run=fig6.run,
    quick={"ratios": (32, 128), "thread_targets": (1024,)},
    full={"ratios": (32, 128, 512, 2048),
          "thread_targets": (1024, 4096, 12288)},
    reduce=_fig6,
    claims={
        "delegation never costs much (worst point > 0.85x)":
            lambda m: m["delegation_speedup_min"] > 0.85,
        "delegation clearly wins somewhere (best point > 1.3x)":
            lambda m: m["delegation_speedup_max"] > 1.3,
        "flagship 1:32 @ 12,276 threads (372 writers) > 3x":
            lambda m: m["delegation_speedup_most_writers"] > 3,
    },
))

_register(BenchCase(
    name="fig7",
    seed=7,
    description="allocator throughput & failure rate across sizes",
    run=fig7.run,
    quick={"sizes": (64, 4096, 65536)},
    full={"sizes": fig7.PAPER_SIZES},
    reduce=_fig7,
    claims={
        "ours/cuda > 1.5x at 16-128 B": lambda m: min(
            m[f"speedup_{size}"] for size in _FIG7_WIN_SIZES) > 1.5,
        "the degenerate 2 KB class fails > 40%":
            lambda m: m["ours_failure_rate_2048"] > 0.4,
        "8 B fails < 10%": lambda m: m["ours_failure_rate_8"] < 0.1,
        "bin-residue failures rise: 512 B < 1 KB < 2 KB": lambda m: (
            m["ours_failure_rate_512"] < m["ours_failure_rate_1024"]
            < m["ours_failure_rate_2048"]),
        "buddy sizes (4, 16, 64 KB) never fail": lambda m: max(
            m[f"ours_failure_rate_{s}"] for s in (4096, 16384, 65536)) == 0,
        "mean speedup over CUDA > 1.5x": lambda m: m["mean_speedup"] > 1.5,
    },
))

_register(BenchCase(
    name="fig7_steady",
    seed=7,
    description="Figure 7 context: 64 B malloc rate away from the "
                "exhaustion tail, 1 vs 4 SMs",
    run=fig7.run_steady,
    quick={"sm_counts": (1, 4), "nthreads": 2048},
    full={"sm_counts": (1, 4), "nthreads": 16384},
    reduce=_storms,
    claims={"arenas scale: 4 SMs > 2x the 1-SM rate":
            lambda m: m["ops_per_s_4_sm"] > 2 * m["ops_per_s_1_sm"]},
))

_register(BenchCase(
    name="shootout",
    seed=9,
    description="cross-allocator churn shootout (§2.2 designs)",
    run=shootout.run,
    quick={"nthreads": 512, "iters": 1},
    full={"nthreads": 2048, "iters": 2},
    reduce=_shootout,
    claims={
        "ours > 10x CUDA-like": lambda m: (
            m["pairs_per_s_ours_scalar"] > 10 * m["pairs_per_s_cuda_like"]),
        "ours > 10x XMalloc-like": lambda m: (
            m["pairs_per_s_ours_scalar"] > 10 * m["pairs_per_s_xmalloc_like"]),
        **_NEVER_FAIL_CLAIM,
    },
))

_register(BenchCase(
    name="lockstep",
    seed=13,
    description="whole-warp coalesced allocation ceiling (§4.2 "
                "aggregation vs per-lane atomics)",
    run=lockstep.run,
    quick={"nthreads": 4096, "rounds": 48, "plain_rounds": 6},
    full={"nthreads": 16384, "rounds": 64, "plain_rounds": 8},
    reduce=_lockstep,
    claims={"whole-warp aggregation beats per-lane atomics":
            lambda m: m["coalesce_speedup"] > 1},
))

_register(BenchCase(
    name="fragmentation",
    seed=23,
    description="live vs reserved bytes over churn rounds",
    run=fragmentation.run,
    quick={"rounds": 2, "nthreads": 256},
    full={"rounds": 6, "nthreads": 1024},
    reduce=_fragmentation,
    claims={
        "ours reclaims: overhead falls from the first round to the last":
            lambda m: m["ours_overhead_final"] < m["ours_overhead_first"],
        "bump reserved never shrinks":
            lambda m: m["bump_reserved_min_step_bytes"] >= 0,
        "bump reserved at round 6 > 5x round 1": lambda m: (
            m["bump_reserved_final_bytes"]
            > 5 * m["bump_reserved_first_bytes"]),
        "ours reserves less than bump by the last round": lambda m: (
            m["ours_reserved_final_bytes"] < m["bump_reserved_final_bytes"]),
    },
))

_register(BenchCase(
    name="resil",
    seed=17,
    description="throughput degradation under injected fault plans",
    run=resil_bench.run,
    quick={"nthreads": 128, "iters": 2},
    full={"nthreads": 512, "iters": 3},
    reduce=_resil,
    claims={
        "robust retries absorb every injected fault":
            lambda m: m["heavy_failure_rate"] == 0,
        "the heavy plan costs more than the light one": lambda m: (
            m["throughput_retained_heavy"] < m["throughput_retained_light"]),
    },
))

_register(BenchCase(
    name="ablation_buddy",
    seed=5,
    description="TBuddy vs global-lock buddy (order-0 storm)",
    run=ablations.run_buddy_ablation,
    quick={"thread_counts": (64, 256)},
    full={"thread_counts": (64, 256, 1024)},
    reduce=_ablation("tbuddy", "lock_buddy"),
    claims={"TBuddy > 1.5x the global-lock buddy at 1,024 threads": lambda m: (
        m["tbuddy_ops_per_s_peak"] > 1.5 * m["lock_buddy_ops_per_s_peak"])},
))

_register(BenchCase(
    name="ablation_collective",
    seed=6,
    description="collective vs per-thread mutex (list pop)",
    run=ablations.run_collective_ablation,
    quick={"thread_counts": (64, 256)},
    full={"thread_counts": (64, 256, 1024)},
    reduce=_ablation("collective", "plain"),
    claims={"collective > 1.5x the plain mutex at 1,024 threads": lambda m: (
        m["collective_ops_per_s_peak"] > 1.5 * m["plain_ops_per_s_peak"])},
))

_register(BenchCase(
    name="ablation_coalescing",
    seed=6,
    description="warp-coalesced vs scalar 64 B malloc (§2.2, Widmer et "
                "al.), with atomic counts",
    run=ablations.run_coalescing_ablation,
    quick={"nthreads": 1024},
    full={"nthreads": 4096},
    reduce=_storms,
    claims={
        "coalescing cuts atomics > 3x": lambda m: (
            m["atomics_scalar"] > 3 * m["atomics_warp_coalesced"]),
        "coalesced rate > 0.7x scalar": lambda m: (
            m["ops_per_s_warp_coalesced"] > 0.7 * m["ops_per_s_scalar"]),
    },
))

_register(BenchCase(
    name="workload_multitenant",
    seed=29,
    description="multi-tenant Zipfian contention: per-tenant QoS under "
                "one shared pool",
    run=run_family,
    quick={"family": "multi_tenant_zipf", "events": 600, "lanes": 2,
           "backends": ("ours",)},
    full={"family": "multi_tenant_zipf", "events": 2400, "tenants": 8,
          "lanes": 2, "backends": ("ours",)},
    reduce=_workload,
    claims={"Zipfian skew shows as unfairness, not failures": lambda m: (
        m["fairness_ours"] < 0.999 and m["failure_rate_ours"] == 0)},
))

_register(BenchCase(
    name="workload_diurnal",
    seed=31,
    description="bursty open-loop diurnal arrivals (triangle-wave rate)",
    run=run_family,
    quick={"family": "diurnal_burst", "events": 600, "lanes": 2,
           "backends": ("ours",)},
    full={"family": "diurnal_burst", "events": 2400, "tenants": 4,
          "lanes": 2, "backends": ("ours",)},
    reduce=_workload,
    claims={"the uniform mix stays fair (> 0.95) with no failures": lambda m: (
        m["fairness_ours"] > 0.95 and m["failure_rate_ours"] == 0)},
))

_register(BenchCase(
    name="workload_trace_replay",
    seed=37,
    description="bundled recorded-trace replay across backends "
                "(committed fixture)",
    run=run_trace,
    quick={"trace": "mt_small", "lanes": 1, "backends": ("ours", "cuda")},
    full={"trace": "mt_small", "lanes": 2,
          "backends": ("ours", "cuda", "hostbased")},
    reduce=_workload,
    claims={"ours outruns CUDA-like on the recorded trace":
            lambda m: m["ops_per_s_ours"] > m["ops_per_s_cuda"]},
))

_register(BenchCase(
    name="serve_replay",
    seed=41,
    description="allocator-as-a-service: admission (quota+pressure) + "
                "episode batching over the bundled trace",
    run=run_serve,
    quick={"trace": "mt_small", "batch_max": 16, "quota_bytes": 16 << 10,
           "backends": ("ours", "cuda")},
    full={"trace": "serve_small", "batch_max": 32, "quota_bytes": 16 << 10,
          "backends": ("ours", "cuda", "hostbased")},
    reduce=_serve_replay,
    claims={
        "every backend reports latency p99 >= p50 > 0": lambda m: all(
            m[f"latency_cycles_p99_{b}"] >= m[f"latency_cycles_p50_{b}"] > 0
            for b in ("ours", "cuda", "hostbased")),
        "the 16 KiB quota rejects some of ours' mallocs":
            lambda m: m["admission_failure_rate_ours"] > 0,
    },
))

#: roster for the host-based backend case: the paper allocator, the two
#: global-lock baselines it is usually compared with, and the Bell-style
#: host-based design the backend registry added (see EXPERIMENTS.md)
_HOSTBASED_ROSTER = ("ours", "cuda", "lock-buddy", "hostbased")

_register(BenchCase(
    name="backends_hostbased",
    seed=11,
    description="registry shootout incl. the host-based backend "
                "[Bell et al. 2024]",
    run=shootout.run,
    quick={"nthreads": 256, "iters": 1, "which": _HOSTBASED_ROSTER},
    full={"nthreads": 1024, "iters": 2, "which": _HOSTBASED_ROSTER},
    reduce=_shootout,
    claims={
        "the single-server host queue caps host-based below ours": lambda m: (
            m["pairs_per_s_host_based"] < m["pairs_per_s_ours_scalar"]),
        **_NEVER_FAIL_CLAIM,
    },
))


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def run_case(case: BenchCase, tier: str = "quick") -> CaseRun:
    """Run one case twice; both runs' metrics must agree exactly.

    The simulator is seeded, so any drift means nondeterminism crept
    into a bench runner, which would silently poison the perf trajectory.
    """
    kwargs = case.kwargs(tier)
    metrics, params = case.reduce(case.result(tier), kwargs)
    again, _ = case.reduce(case.result(tier), kwargs)
    if again != metrics:
        changed = sorted(k for k in metrics.keys() | again.keys()
                         if again.get(k) != metrics.get(k))
        raise RuntimeError(
            f"case {case.name!r} ({tier}) is nondeterministic: virtual "
            f"metrics changed between two runs ({', '.join(changed)})"
        )
    out = {f"virtual:{k}": float(v) for k, v in sorted(metrics.items())}
    return CaseRun(case=case.name, tier=tier, seed=case.seed, metrics=out,
                   params=params)


def resolve_case(name: str) -> BenchCase:
    """A registered case, or a dynamic ``shootout@b1+b2+...`` case.

    The ``@`` form parameterizes the shootout over any registered
    backend roster (``python -m repro perf run --backends ours,cuda``):
    the case name *is* the full parameterization, so it resolves
    identically in every shard worker and in the artifact's case list.
    """
    if name in CASES:
        return CASES[name]
    if name.startswith("shootout@"):
        from ..backends import UnknownBackend, get as get_backend

        raw = [b.strip() for b in name.split("@", 1)[1].split("+")]
        roster = tuple(b for b in raw if b)
        if not roster:
            raise UnknownCase(f"case {name!r} names no backends")
        try:
            labels = ", ".join(get_backend(b).name for b in roster)
        except UnknownBackend as exc:
            raise UnknownCase(f"case {name!r}: {exc.args[0]}") from None
        base = CASES["shootout"]
        return BenchCase(
            name=name,
            seed=base.seed,
            description=f"parameterized churn shootout over {labels}",
            run=base.run,
            quick={**base.quick, "which": roster},
            full={**base.full, "which": roster},
            reduce=base.reduce,
        )
    raise UnknownCase(
        f"unknown case {name!r}; registered: {sorted(CASES)} "
        "(or 'shootout@b1+b2' to parameterize the shootout by backend)"
    )


def _run_case_named(name: str, tier: str) -> CaseRun:
    """Module-level shard worker: run one case by *name*.

    A ``BenchCase`` holds functions that need not cross a process
    boundary; the name can (including the ``shootout@...`` form, which
    re-resolves from the name alone), and every worker rebuilds the
    registry on import — so this is the picklable unit
    :func:`run_suite` shards.
    """
    return run_case(resolve_case(name), tier)


def run_suite(tier: str = "quick", names: Optional[Sequence[str]] = None,
              progress: Optional[Callable[[str], None]] = None,
              workers: int = 1) -> SuiteResult:
    """Run the registered cases (all, or the ``names`` subset) at a tier.

    Cases go through :func:`repro.par.pool.map_sharded` by name
    (``workers`` as there: ``1`` inline, ``0`` one per CPU); the result
    is identical at any worker count (cases are seeded and independent).
    """
    if names is None:
        names = list(CASES)
    else:
        names = [resolve_case(n).name for n in names]  # fail before running
    if progress:
        progress(f"[{tier}] {len(names)} case(s) on "
                 f"{pool.resolve_workers(workers)} worker(s) ...")
    runs = pool.map_sharded(
        functools.partial(_run_case_named, tier=tier),
        names, workers=workers, log=progress,
        describe=lambda run: (
            f"[{tier}] {run.case}: {len(run.metrics)} metric(s), "
            "reproduced"),
    )
    return SuiteResult(tier=tier, cases=runs)


def check_claims(cases: Mapping[str, Mapping]) -> List[Tuple[str, bool]]:
    """``("case: claim", holds)`` for each claim of each registered case
    in an artifact's ``cases``; a missing metric fails its claim."""
    out = []
    for name, case in CASES.items():
        if name not in cases:
            continue
        metrics = {k.removeprefix("virtual:"): v
                   for k, v in cases[name]["metrics"].items()}
        for claim, holds in case.claims.items():
            try:
                ok = bool(holds(metrics))
            except KeyError:
                ok = False
            out.append((f"{name}: {claim}", ok))
    return out
