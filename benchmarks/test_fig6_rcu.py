"""Figure 6 — RCU delegation speedup over classical RCU (paper §5.2).

Paper result: ~1x at low writer counts, growing to ~14x when many
writer blocks would otherwise sit on their SMs waiting for serialized
grace periods.
"""

from repro.bench import fig6
from repro.perf.suite import CASES

from conftest import attach


def test_fig6_delegation_grid(benchmark):
    def harness():
        return CASES["fig6"].result("full")

    res = benchmark.pedantic(harness, rounds=1, iterations=1)
    print("\nFigure 6 (RCU delegation speedup):")
    print(res.table())
    best = max(p.speedup for p in res.points)
    worst = min(p.speedup for p in res.points)
    attach(benchmark, best_speedup=best, worst_speedup=worst)
    # Shape: delegation never costs much (paper: worst case -1%), and
    # clearly wins somewhere in the grid.
    assert worst > 0.85
    assert best > 1.3


def test_fig6_flagship_high_writer_count(benchmark):
    """The paper's headline regime: many writers, high concurrency
    (writer:reader 1:32 at ~12k threads -> 372 serialized grace periods
    for classical RCU)."""

    def harness():
        cyc_classic, _, ok1 = fig6.run_one(372, 32, delegated=False)
        cyc_deleg, share, ok2 = fig6.run_one(372, 32, delegated=True)
        assert ok1 and ok2
        return cyc_classic / cyc_deleg, share

    speedup, share = benchmark.pedantic(harness, rounds=1, iterations=1)
    print(f"\nflagship 1:32 @ 12276 threads: delegation speedup "
          f"{speedup:.2f}x ({share:.0%} of barriers delegated; "
          "paper reports up to 14x at 250k threads)")
    attach(benchmark, flagship_speedup=speedup, delegated_share=share)
    assert speedup > 3.0
