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
``perf run``, ``perf profile``, ``python -m repro <case>`` and the
paper-figure tests under ``benchmarks/`` all call
:meth:`BenchCase.result`.  Each case has a ``quick`` tier (seconds of
host time — CI smoke and the gate) and a ``full`` tier (the
paper-scale sweeps behind EXPERIMENTS.md).  :func:`run_case` runs a
tier twice, and the two runs' metrics must agree exactly; a mismatch
raises — determinism is part of the simulator's contract.  Host
wall-clock is measured by ``benchmark/``, not here.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..bench import (ablations, fig5, fig6, fig7, fragmentation, lockstep,
                     shootout)
from ..bench.reporting import format_table, geometric_mean, si
from ..par import pool
from ..resil import bench as resil_bench
from ..sim.trace import Tracer

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

    @property
    def traceable(self) -> bool:
        """A case can be traced when its entry point takes a tracer."""
        return "tracer" in inspect.signature(self.run).parameters

    def kwargs(self, tier: str) -> Mapping[str, object]:
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r} (expected one of {TIERS})")
        return self.quick if tier == "quick" else self.full

    def result(self, tier: str, tracer: Optional[Tracer] = None) -> Any:
        """Run ``tier`` once and return the bench's own result object."""
        kwargs = self.kwargs(tier)
        if tracer is None:
            return self.run(seed=self.seed, **kwargs)
        if not self.traceable:
            raise ValueError(f"case {self.name!r} takes no tracer")
        return self.run(seed=self.seed, tracer=tracer, **kwargs)


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
    return metrics, {"thread_counts": list(kw["thread_counts"]),
                     "batch": res.batch}


def _fig6(res, kw) -> RunnerOutput:
    speedups = [p.speedup for p in res.points]
    metrics = {
        "delegation_speedup_gmean": geometric_mean(speedups),
        "classical_cycles_total": float(sum(p.cycles_classical for p in res.points)),
        "delegated_cycles_total": float(sum(p.cycles_delegated for p in res.points)),
    }
    return metrics, {"ratios": list(kw["ratios"]),
                     "thread_targets": list(kw["thread_targets"]),
                     "points": len(res.points)}


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
    return metrics, {"sizes": list(kw["sizes"])}


def _shootout(res, kw) -> RunnerOutput:
    metrics: Dict[str, float] = {}
    for p in res.points:
        metrics[f"pairs_per_s_{_slug(p.name)}"] = p.throughput
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
    metrics = {
        "ours_overhead_final": o.overhead,
        "bump_overhead_final": b.overhead,
        "ours_reserved_final_bytes": float(o.reserved),
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


def _ablation_buddy(res, kw) -> RunnerOutput:
    peak = kw["thread_counts"][-1]
    ratios = [t / l for t, l in zip(res.tbuddy.ys, res.lock_buddy.ys) if l]
    metrics = {
        "tbuddy_ops_per_s_peak": res.tbuddy.y_at(peak),
        "lock_buddy_ops_per_s_peak": res.lock_buddy.y_at(peak),
        "tbuddy_speedup_gmean": geometric_mean(ratios),
    }
    return metrics, {"thread_counts": list(kw["thread_counts"])}


def _ablation_collective(res, kw) -> RunnerOutput:
    peak = kw["thread_counts"][-1]
    ratios = [c / p for c, p in zip(res.collective.ys, res.plain.ys) if p]
    metrics = {
        "collective_ops_per_s_peak": res.collective.y_at(peak),
        "plain_ops_per_s_peak": res.plain.y_at(peak),
        "collective_speedup_gmean": geometric_mean(ratios),
    }
    return metrics, {"thread_counts": list(kw["thread_counts"])}


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
))

_register(BenchCase(
    name="fig7",
    seed=7,
    description="allocator throughput & failure rate across sizes",
    run=fig7.run,
    quick={"sizes": (64, 4096, 65536)},
    full={"sizes": fig7.PAPER_SIZES},
    reduce=_fig7,
))

_register(BenchCase(
    name="shootout",
    seed=9,
    description="cross-allocator churn shootout (§2.2 designs)",
    run=shootout.run,
    quick={"nthreads": 512, "iters": 1},
    full={"nthreads": 2048, "iters": 2},
    reduce=_shootout,
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
))

_register(BenchCase(
    name="fragmentation",
    seed=23,
    description="live vs reserved bytes over churn rounds",
    run=fragmentation.run,
    quick={"rounds": 2, "nthreads": 256},
    full={"rounds": 6, "nthreads": 1024},
    reduce=_fragmentation,
))

_register(BenchCase(
    name="resil",
    seed=17,
    description="throughput degradation under injected fault plans",
    run=resil_bench.run,
    quick={"nthreads": 128, "iters": 2},
    full={"nthreads": 512, "iters": 3},
    reduce=_resil,
))

_register(BenchCase(
    name="ablation_buddy",
    seed=5,
    description="TBuddy vs global-lock buddy (order-0 storm)",
    run=ablations.run_buddy_ablation,
    quick={"thread_counts": (64, 256)},
    full={"thread_counts": (64, 256, 1024)},
    reduce=_ablation_buddy,
))

_register(BenchCase(
    name="ablation_collective",
    seed=6,
    description="collective vs per-thread mutex (list pop)",
    run=ablations.run_collective_ablation,
    quick={"thread_counts": (64, 256)},
    full={"thread_counts": (64, 256, 1024)},
    reduce=_ablation_collective,
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
