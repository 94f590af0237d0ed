"""Benchmark registry: the existing bench runners behind one interface.

Every :class:`BenchCase` wraps one of the repo's evaluation harnesses
(:mod:`repro.bench.fig5` … :mod:`repro.bench.ablations`) and reduces its
result object to a flat ``{metric: float}`` dict.  Two metric classes
are recorded, distinguished by prefix:

``virtual:*``
    Simulated-throughput metrics derived from the cost model (ops per
    virtual second, cycle totals, speedups, overhead ratios).  These
    are **deterministic**: the simulator is seeded, so the same code at
    the same seed produces bit-identical values — any delta across PRs
    is a real behavior change.

``wall:seconds``
    Host wall-clock for one run of the case — how fast the pure-Python
    simulator itself executes the workload.  This is the binding
    constraint on every sweep in this repo (a fig7 full sweep is
    minutes of host time for milliseconds of virtual time), so it is
    tracked as a first-class metric, but it is *noisy* and
    machine-dependent; :mod:`repro.perf.compare` gates it with a loose
    tolerance that can be disabled entirely for cross-machine runs.

Each case has a ``quick`` tier (seconds of host time — CI smoke and the
regression gate) and a ``full`` tier (the paper-scale sweeps behind
EXPERIMENTS.md).  Wall-clock is measured per repeat and the median is
recorded; virtual metrics must agree across repeats, and a mismatch
raises — determinism is part of the simulator's contract.

Metric-name convention (relied on by :mod:`repro.perf.compare` to pick
a comparison direction): names containing ``seconds``, ``cycles``,
``overhead``, ``failure``, ``reserved`` or ``wait`` are lower-is-better;
everything else (throughput, speedup) is higher-is-better.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bench import (ablations, fig5, fig6, fig7, fragmentation, lockstep,
                     shootout)
from ..bench.reporting import geometric_mean
from ..par import pool
from ..resil import bench as resil_bench
from ..sim.trace import Tracer

#: (metrics, params) as produced by one tier-runner invocation
RunnerOutput = Tuple[Dict[str, float], Dict[str, object]]

#: default wall-clock repeats per tier (median is recorded)
DEFAULT_REPEATS = {"quick": 3, "full": 1}

TIERS = ("quick", "full")


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark: tiered runners plus metadata."""

    name: str
    seed: int
    description: str
    quick: Callable[[], RunnerOutput]
    full: Callable[[], RunnerOutput]
    #: optional quick-tier runner that accepts a Tracer, for
    #: tracer-derived profiling (only fig5/6/7 support tracing today)
    traced_quick: Optional[Callable[[Tracer], object]] = None

    def runner(self, tier: str) -> Callable[[], RunnerOutput]:
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r} (expected one of {TIERS})")
        return self.quick if tier == "quick" else self.full


@dataclass
class CaseRun:
    """Measured result of one case at one tier."""

    case: str
    tier: str
    seed: int
    repeats: int
    wall_seconds: List[float]          # one entry per repeat
    metrics: Dict[str, float]          # "virtual:*" plus "wall:seconds"
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
# per-bench metric extractors
# ----------------------------------------------------------------------
def _fig5(thread_counts: Sequence[int], batch: int = 512) -> RunnerOutput:
    res = fig5.run(thread_counts=thread_counts, batch=batch)
    peak = thread_counts[-1]
    c = res.counting.y_at(peak)
    b = res.bulk.y_at(peak)
    metrics = {
        "counting_ops_per_s_peak": c,
        "bulk_ops_per_s_peak": b,
        "bulk_speedup_peak": (b / c) if c else 0.0,
    }
    return metrics, {"thread_counts": list(thread_counts), "batch": batch}


def _fig5_traced(tracer: Tracer) -> object:
    return fig5.run(thread_counts=(256, 1024), tracer=tracer)


def _fig6(ratios: Sequence[int], thread_targets: Sequence[int]) -> RunnerOutput:
    res = fig6.run(ratios=ratios, thread_targets=thread_targets)
    speedups = [p.speedup for p in res.points]
    metrics = {
        "delegation_speedup_gmean": geometric_mean(speedups),
        "classical_cycles_total": float(sum(p.cycles_classical for p in res.points)),
        "delegated_cycles_total": float(sum(p.cycles_delegated for p in res.points)),
    }
    return metrics, {"ratios": list(ratios),
                     "thread_targets": list(thread_targets),
                     "points": len(res.points)}


def _fig6_traced(tracer: Tracer) -> object:
    return fig6.run(ratios=(32,), thread_targets=(1024,), tracer=tracer)


def _fig7(sizes: Sequence[int]) -> RunnerOutput:
    res = fig7.run(sizes=sizes)
    ours = [p for p in res.points if p.allocator == "ours"]
    cuda = [p for p in res.points if p.allocator == "cuda"]
    metrics = {
        "ours_ops_per_s_gmean": geometric_mean([p.throughput for p in ours]),
        "cuda_ops_per_s_gmean": geometric_mean([p.throughput for p in cuda]),
        "mean_speedup": res.mean_speedup(),
        "ours_failure_rate_mean":
            sum(p.failure_rate for p in ours) / len(ours) if ours else 0.0,
    }
    return metrics, {"sizes": list(sizes)}


def _fig7_traced(tracer: Tracer) -> object:
    return fig7.run(sizes=(64, 4096), tracer=tracer)


def _shootout(nthreads: int, iters: int, seed: int = 9,
              backends: Optional[Sequence[str]] = None) -> RunnerOutput:
    res = shootout.run(nthreads=nthreads, iters=iters, seed=seed,
                       which=backends)
    metrics: Dict[str, float] = {}
    for p in res.points:
        metrics[f"pairs_per_s_{_slug(p.name)}"] = p.throughput
    base = {p.name: p for p in res.points}.get("ours (scalar)")
    cuda = {p.name: p for p in res.points}.get("CUDA-like")
    if base and cuda and cuda.throughput:
        metrics["ours_vs_cuda_speedup"] = base.throughput / cuda.throughput
    params: Dict[str, object] = {"nthreads": nthreads, "iters": iters,
                                 "size": res.size}
    if backends is not None:
        params["backends"] = list(backends)
    return metrics, params


def _lockstep(nthreads: int, rounds: int, plain_rounds: int) -> RunnerOutput:
    res = lockstep.run(nthreads=nthreads, rounds=rounds,
                       plain_rounds=plain_rounds)
    metrics = {
        "coalesced_slots_per_s": res.coalesced.slots_per_s,
        "plain_slots_per_s": res.plain.slots_per_s,
        "coalesce_speedup": res.speedup,
        "coalesce_width_mean": res.coalesced.coalesce_width_mean,
        "coalesced_cycles_total": float(res.coalesced.cycles),
    }
    return metrics, {"nthreads": nthreads, "rounds": rounds,
                     "plain_rounds": plain_rounds}


def _fragmentation(rounds: int, nthreads: int) -> RunnerOutput:
    res = fragmentation.run(rounds=rounds, nthreads=nthreads)
    o, b = res.ours[-1], res.bump[-1]
    metrics = {
        "ours_overhead_final": o.overhead,
        "bump_overhead_final": b.overhead,
        "ours_reserved_final_bytes": float(o.reserved),
    }
    return metrics, {"rounds": rounds, "nthreads": nthreads}


def _resil(nthreads: int, iters: int) -> RunnerOutput:
    res = resil_bench.run(nthreads=nthreads, iters=iters)
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
        "nthreads": nthreads, "iters": iters, "sizes": list(res.sizes),
        "faults_light": res.point("light").faults,
        "faults_heavy": heavy.faults,
        "retries_heavy": heavy.retries,
    }
    return metrics, params


def _workload_metrics(metrics: Dict[str, float], report,
                      backend_key: str) -> None:
    """Fold one :class:`~repro.workloads.replay.ReplayReport` into the
    case's metric dict under the backend's slug.  Metric names follow
    the module convention: ``failure`` keys gate lower-is-better,
    ``ops_per_s``/``fairness`` higher-is-better."""
    slug = _slug(backend_key)
    totals = report.totals
    metrics[f"ops_per_s_{slug}"] = report.ops_per_s
    metrics[f"failure_rate_{slug}"] = totals.failure_rate
    metrics[f"fairness_{slug}"] = report.fairness()
    metrics[f"worst_tenant_failure_{slug}"] = max(
        st.failure_rate for st in report.tenants.values())


def _workload_family(family: str, seed: int, events: int,
                     lanes: int = 2,
                     backends: Sequence[str] = ("ours",),
                     **overrides) -> RunnerOutput:
    """Generate a workload-family trace and replay it per backend."""
    from ..workloads import families as workload_families
    from ..workloads.replay import replay as replay_trace

    trace = workload_families.generate(family, seed, events=events,
                                       **overrides)
    metrics: Dict[str, float] = {}
    for b in backends:
        rep = replay_trace(trace, backend=b, seed=seed,
                           lanes_per_tenant=lanes)
        _workload_metrics(metrics, rep, b)
    params: Dict[str, object] = {
        "family": family, "events": len(trace.events),
        "tenants": trace.tenants, "lanes_per_tenant": lanes,
        "backends": list(backends),
    }
    params.update(overrides)
    return metrics, params


def _workload_trace(name: str, seed: int, lanes: int = 1,
                    backends: Sequence[str] = ("ours",)) -> RunnerOutput:
    """Replay a bundled recorded trace per backend — the committed
    fixture makes the workload identical on every machine, so the
    ``virtual:*`` metrics gate exactly across the trajectory."""
    from ..workloads.replay import replay as replay_trace
    from ..workloads.trace import load_bundled

    trace = load_bundled(name)
    metrics: Dict[str, float] = {}
    for b in backends:
        rep = replay_trace(trace, backend=b, seed=seed,
                           lanes_per_tenant=lanes)
        _workload_metrics(metrics, rep, b)
    params: Dict[str, object] = {
        "trace": name, "events": len(trace.events),
        "tenants": trace.tenants, "lanes_per_tenant": lanes,
        "backends": list(backends),
    }
    return metrics, params


def _serve_replay(name: str, seed: int, batch_max: int = 16,
                  quota_bytes: Optional[int] = None,
                  pool: int = 1 << 20,
                  backends: Sequence[str] = ("ours",)) -> RunnerOutput:
    """Serve a bundled trace through the allocator service's
    deterministic feeder, per backend: admission control (quota +
    pressure) in front of episode batching over a persistent heap.
    Latency percentiles are virtual cycles (lower-is-better by the
    metric-name convention), and the admission split is gated separately
    from backend NULLs."""
    from ..serve.bench import run_backend as serve_one_backend
    from ..workloads.trace import load_bundled

    trace = load_bundled(name)
    metrics: Dict[str, float] = {}
    for b in backends:
        pt = serve_one_backend(trace, b, seed=seed, pool=pool,
                               batch_max=batch_max, quota_bytes=quota_bytes)
        slug = _slug(b)
        metrics[f"ops_per_s_{slug}"] = pt.ops_per_s
        metrics[f"latency_cycles_p50_{slug}"] = float(pt.latency_p50)
        metrics[f"latency_cycles_p99_{slug}"] = float(pt.latency_p99)
        metrics[f"failure_rate_{slug}"] = pt.failure_rate
        metrics[f"admission_failure_rate_{slug}"] = pt.admission_failure_rate
    params: Dict[str, object] = {
        "trace": name, "events": len(trace.events),
        "tenants": trace.tenants, "batch_max": batch_max,
        "quota_bytes": quota_bytes, "pool": pool,
        "backends": list(backends),
    }
    return metrics, params


def _ablation_buddy(thread_counts: Sequence[int]) -> RunnerOutput:
    res = ablations.run_buddy_ablation(thread_counts=thread_counts)
    peak = thread_counts[-1]
    ratios = [t / l for t, l in zip(res.tbuddy.ys, res.lock_buddy.ys) if l]
    metrics = {
        "tbuddy_ops_per_s_peak": res.tbuddy.y_at(peak),
        "lock_buddy_ops_per_s_peak": res.lock_buddy.y_at(peak),
        "tbuddy_speedup_gmean": geometric_mean(ratios),
    }
    return metrics, {"thread_counts": list(thread_counts)}


def _ablation_collective(thread_counts: Sequence[int]) -> RunnerOutput:
    res = ablations.run_collective_ablation(thread_counts=thread_counts)
    peak = thread_counts[-1]
    ratios = [c / p for c, p in zip(res.collective.ys, res.plain.ys) if p]
    metrics = {
        "collective_ops_per_s_peak": res.collective.y_at(peak),
        "plain_ops_per_s_peak": res.plain.y_at(peak),
        "collective_speedup_gmean": geometric_mean(ratios),
    }
    return metrics, {"thread_counts": list(thread_counts)}


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
    quick=lambda: _fig5((256, 1024)),
    full=lambda: _fig5((256, 1024, 4096, 16384)),
    traced_quick=_fig5_traced,
))

_register(BenchCase(
    name="fig6",
    seed=3,
    description="RCU delegation speedup over classical barriers",
    quick=lambda: _fig6((32, 128), (1024,)),
    full=lambda: _fig6((32, 128, 512, 2048), (1024, 4096, 12288)),
    traced_quick=_fig6_traced,
))

_register(BenchCase(
    name="fig7",
    seed=7,
    description="allocator throughput & failure rate across sizes",
    quick=lambda: _fig7((64, 4096, 65536)),
    full=lambda: _fig7(fig7.PAPER_SIZES),
    traced_quick=_fig7_traced,
))

_register(BenchCase(
    name="shootout",
    seed=9,
    description="cross-allocator churn shootout (§2.2 designs)",
    quick=lambda: _shootout(nthreads=512, iters=1),
    full=lambda: _shootout(nthreads=2048, iters=2),
))

_register(BenchCase(
    name="lockstep",
    seed=13,
    description="whole-warp coalesced allocation ceiling (§4.2 "
                "aggregation vs per-lane atomics)",
    quick=lambda: _lockstep(nthreads=4096, rounds=48, plain_rounds=6),
    full=lambda: _lockstep(nthreads=16384, rounds=64, plain_rounds=8),
))

_register(BenchCase(
    name="fragmentation",
    seed=23,
    description="live vs reserved bytes over churn rounds",
    quick=lambda: _fragmentation(rounds=2, nthreads=256),
    full=lambda: _fragmentation(rounds=6, nthreads=1024),
))

_register(BenchCase(
    name="resil",
    seed=17,
    description="throughput degradation under injected fault plans",
    quick=lambda: _resil(nthreads=128, iters=2),
    full=lambda: _resil(nthreads=512, iters=3),
))

_register(BenchCase(
    name="ablation_buddy",
    seed=5,
    description="TBuddy vs global-lock buddy (order-0 storm)",
    quick=lambda: _ablation_buddy((64, 256)),
    full=lambda: _ablation_buddy((64, 256, 1024)),
))

_register(BenchCase(
    name="ablation_collective",
    seed=6,
    description="collective vs per-thread mutex (list pop)",
    quick=lambda: _ablation_collective((64, 256)),
    full=lambda: _ablation_collective((64, 256, 1024)),
))

_register(BenchCase(
    name="workload_multitenant",
    seed=29,
    description="multi-tenant Zipfian contention: per-tenant QoS under "
                "one shared pool",
    quick=lambda: _workload_family("multi_tenant_zipf", 29, events=600),
    full=lambda: _workload_family("multi_tenant_zipf", 29, events=2400,
                                  tenants=8),
))

_register(BenchCase(
    name="workload_diurnal",
    seed=31,
    description="bursty open-loop diurnal arrivals (triangle-wave rate)",
    quick=lambda: _workload_family("diurnal_burst", 31, events=600),
    full=lambda: _workload_family("diurnal_burst", 31, events=2400,
                                  tenants=4),
))

_register(BenchCase(
    name="workload_trace_replay",
    seed=37,
    description="bundled recorded-trace replay across backends "
                "(committed fixture)",
    quick=lambda: _workload_trace("mt_small", 37,
                                  backends=("ours", "cuda")),
    full=lambda: _workload_trace("mt_small", 37, lanes=2,
                                 backends=("ours", "cuda", "hostbased")),
))

#: roster for the host-based backend case: the paper allocator, the two
#: global-lock baselines it is usually compared with, and the Bell-style
#: host-based design the backend registry added (see EXPERIMENTS.md)
_HOSTBASED_ROSTER = ("ours", "cuda", "lock-buddy", "hostbased")

_register(BenchCase(
    name="serve_replay",
    seed=41,
    description="allocator-as-a-service: admission (quota+pressure) + "
                "episode batching over the bundled trace",
    quick=lambda: _serve_replay("mt_small", 41, quota_bytes=16 << 10,
                                backends=("ours", "cuda")),
    full=lambda: _serve_replay("serve_small", 41, batch_max=32,
                               quota_bytes=16 << 10,
                               backends=("ours", "cuda", "hostbased")),
))

_register(BenchCase(
    name="backends_hostbased",
    seed=11,
    description="registry shootout incl. the host-based backend "
                "[Bell et al. 2024]",
    quick=lambda: _shootout(nthreads=256, iters=1, seed=11,
                            backends=_HOSTBASED_ROSTER),
    full=lambda: _shootout(nthreads=1024, iters=2, seed=11,
                           backends=_HOSTBASED_ROSTER),
))


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def run_case(case: BenchCase, tier: str = "quick",
             repeats: Optional[int] = None) -> CaseRun:
    """Run one case: ``repeats`` timed repetitions, median wall-clock.

    Virtual metrics are required to be identical across repeats — the
    simulator is seeded, so any drift means nondeterminism crept into a
    bench runner, which would silently poison the perf trajectory.
    """
    runner = case.runner(tier)
    n = repeats if repeats is not None else DEFAULT_REPEATS[tier]
    if n < 1:
        raise ValueError(f"repeats must be >= 1 (got {n})")
    walls: List[float] = []
    metrics: Optional[Dict[str, float]] = None
    params: Dict[str, object] = {}
    for i in range(n):
        t0 = time.perf_counter()
        virt, params = runner()
        walls.append(time.perf_counter() - t0)
        if metrics is not None and virt != metrics:
            changed = sorted(k for k in virt if virt.get(k) != metrics.get(k))
            raise RuntimeError(
                f"case {case.name!r} ({tier}) is nondeterministic: virtual "
                f"metrics changed across repeats ({', '.join(changed)})"
            )
        metrics = virt
    assert metrics is not None
    out = {f"virtual:{k}": float(v) for k, v in sorted(metrics.items())}
    out["wall:seconds"] = statistics.median(walls)
    return CaseRun(case=case.name, tier=tier, seed=case.seed, repeats=n,
                   wall_seconds=walls, metrics=out, params=params)


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
            raise KeyError(f"case {name!r} names no backends")
        try:
            labels = ", ".join(get_backend(b).name for b in roster)
        except UnknownBackend as exc:
            raise KeyError(f"case {name!r}: {exc.args[0]}") from None
        return BenchCase(
            name=name,
            seed=9,
            description=f"parameterized churn shootout over {labels}",
            quick=lambda: _shootout(nthreads=512, iters=1, backends=roster),
            full=lambda: _shootout(nthreads=2048, iters=2, backends=roster),
        )
    raise KeyError(
        f"unknown case {name!r}; registered: {sorted(CASES)} "
        "(or 'shootout@b1+b2' to parameterize the shootout by backend)"
    )


def _run_case_named(name: str, tier: str, repeats: Optional[int]) -> CaseRun:
    """Module-level shard worker: run one case by *name*.

    ``BenchCase`` runners are lambdas and cannot cross a process
    boundary; the name can (including the ``shootout@...`` form, which
    re-resolves from the name alone), and every worker rebuilds the
    registry on import — so this is the picklable unit
    :func:`run_suite` shards.
    """
    return run_case(resolve_case(name), tier, repeats)


def run_suite(tier: str = "quick", names: Optional[Sequence[str]] = None,
              repeats: Optional[int] = None,
              progress: Optional[Callable[[str], None]] = None,
              workers: int = 1) -> SuiteResult:
    """Run the registered cases (all, or the ``names`` subset) at a tier.

    Cases go through :func:`repro.par.pool.map_sharded` by name
    (``workers`` as there: ``1`` inline, ``0`` one per CPU); the result
    is identical at any worker count (cases are seeded and independent),
    except that ``wall:seconds`` reflects a time-shared host when
    sharded — artifacts meant as wall-clock baselines should be
    recorded serially.
    """
    if names is None:
        names = list(CASES)
    else:
        names = [resolve_case(n).name for n in names]  # fail before running
    if progress:
        progress(f"[{tier}] {len(names)} case(s) on "
                 f"{pool.resolve_workers(workers)} worker(s) ...")
    runs = pool.map_sharded(
        functools.partial(_run_case_named, tier=tier, repeats=repeats),
        names, workers=workers, log=progress,
        describe=lambda run: (
            f"[{tier}] {run.case}: {run.metrics['wall:seconds']:.2f}s wall "
            f"(median of {run.repeats})"),
    )
    return SuiteResult(tier=tier, cases=runs)
