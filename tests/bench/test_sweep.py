"""Bench sweeps shard their points without changing a result.

Every sweep in :mod:`repro.bench` runs its points through
:func:`repro.bench.sweep.map_points`: one worker per CPU, results merged
in submission order, inline inside a ``tracing()`` block.  CPU counts
are pinned, so both paths run on any host.
"""

from __future__ import annotations

import pytest

from repro.bench import ablations, fig5, fig6, fig7, lockstep, shootout
from repro.par import pool
from repro.sim.trace import Tracer, tracing

#: each sweep at smoke size
SWEEPS = {
    "fig5": lambda: fig5.run((64, 128), seed=1, block=64),
    "fig5_batch": lambda: fig5.run_batches((16, 32), seed=1, nthreads=128),
    "fig7_steady": lambda: fig7.run_steady((1, 2), seed=7, nthreads=256),
    "ablation_coalescing": lambda: ablations.run_coalescing_ablation(
        seed=6, nthreads=128),
    "fig6": lambda: fig6.run((8, 32), (256,), seed=3, block=64),
    "fig7": lambda: fig7.run((64, 4096), seed=7, max_threads=256),
    "shootout": lambda: shootout.run(128, 1, seed=9,
                                     which=("ours", "cuda", "bump")),
    "ablation_buddy": lambda: ablations.run_buddy_ablation((32, 64), seed=5),
    "ablation_collective": lambda: ablations.run_collective_ablation(
        (32, 64), seed=6),
    "lockstep": lambda: lockstep.run(128, 4, 2, seed=13),
}


def _pools(monkeypatch, cpus: int) -> list:
    """Pin the CPU count; return the list of pools opened from now on."""
    opened = []

    class SpyPool(pool.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pool.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(pool, "ProcessPoolExecutor", SpyPool)
    return opened


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sharded_sweep_equals_inline(monkeypatch, name):
    opened = _pools(monkeypatch, 1)
    inline = SWEEPS[name]()
    assert opened == []
    opened = _pools(monkeypatch, 2)
    sharded = SWEEPS[name]()
    assert opened == [2]
    assert sharded == inline


def test_traced_sweep_stays_in_process(monkeypatch):
    # one run per point, labelled with the bench module and the spec
    opened = _pools(monkeypatch, 2)
    for name, labels in [
        ("fig7", ["fig7:(64, 'cuda', 7, 256)", "fig7:(64, 'ours', 7, 256)",
                  "fig7:(4096, 'cuda', 7, 256)",
                  "fig7:(4096, 'ours', 7, 256)"]),
        ("shootout", ["shootout:('ours', 128, 1, 9)",
                      "shootout:('cuda', 128, 1, 9)",
                      "shootout:('bump', 128, 1, 9)"]),
    ]:
        with tracing(Tracer(timeline=False)) as tracer:
            res = SWEEPS[name]()
        assert len(res.points) == len(labels)
        assert [r["label"] for r in tracer.runs] == labels
    assert opened == []


def test_sweeps_look_map_sharded_up_at_call_time(monkeypatch):
    # benchmark/layers.py times each point by replacing this attribute
    seen = []
    original = pool.map_sharded

    def recorder(fn, items, *args, **kwargs):
        seen.append(list(items))
        return original(fn, items, *args, **kwargs)

    monkeypatch.setattr(pool, "map_sharded", recorder)
    SWEEPS["fig7"]()
    SWEEPS["shootout"]()
    fig7_specs, shootout_specs = seen
    assert [(size, alloc) for size, alloc, *_ in fig7_specs] == [
        (64, "cuda"), (64, "ours"), (4096, "cuda"), (4096, "ours")]
    assert [spec[0] for spec in shootout_specs] == ["ours", "cuda", "bump"]


def test_profiled_sweep_stays_in_process(monkeypatch):
    from repro.perf.profile import profile_case
    from repro.perf.suite import CASES

    opened = _pools(monkeypatch, 2)
    report = profile_case(CASES["lockstep"], tier="quick", top=5)
    assert opened == []
    assert any("scheduler.py" in h.where for h in report.hotspots)
