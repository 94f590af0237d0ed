"""Trajectory parity: adjacent BENCH artifacts of a tier must agree exactly.

Every adjacent pair of committed ``BENCH_*.json`` artifacts of one tier
(quick or full), oldest first, goes through the same exact gate as CI
(:func:`compare_docs`): no ``virtual:*`` metric may change and none may
disappear; new cases and metrics are fine.  A PR that moves virtual
numbers on purpose commits a new ``BENCH_PRn.json`` and declares the
break in :data:`BREAKS` with a one-line reason, so the chain records
every intentional move.  A declared break whose pair is in fact
identical fails as stale.  The shapes a case must show are its registry
claims, checked on the full-tier artifact in ``test_gate.py``; the
tests below also pin the shapes each older artifact recorded when it
added its cases.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.artifact import find_artifacts, label_of, load_artifact
from repro.perf.compare import FAILING, compare_docs, render_deltas

ROOT = Path(__file__).resolve().parents[2]
PR6 = ROOT / "BENCH_PR6.json"
PR7 = ROOT / "BENCH_PR7.json"
PR8 = ROOT / "BENCH_PR8.json"
PR10 = ROOT / "BENCH_PR10.json"

ARTIFACTS = find_artifacts(ROOT)
CHAINS = [[p for p in ARTIFACTS if load_artifact(p)["tier"] == tier]
          for tier in ("quick", "full")]

#: adjacent (baseline, current) artifact pairs along each tier's chain
PAIRS = [pair for chain in CHAINS for pair in zip(chain, chain[1:])]

#: (baseline label, current label) -> why its virtual metrics moved
BREAKS = {
    ("PR3", "PR4"): "BulkSemaphore.wait backoff-reset fix moved fig7, "
                    "shootout and ablation_buddy",
}


def _labels(baseline: Path, current: Path):
    return label_of(baseline), label_of(current)


def _virtual_metrics(path: Path):
    doc = json.loads(path.read_text())
    return {
        name: {k: v for k, v in case["metrics"].items()
               if k.startswith("virtual:")}
        for name, case in doc["cases"].items()
    }


@pytest.mark.parametrize(
    "baseline, current", PAIRS,
    ids=[f"{b.stem}-vs-{c.stem}" for b, c in PAIRS])
def test_shared_cases_are_byte_identical(baseline, current):
    deltas = compare_docs(load_artifact(current), load_artifact(baseline))
    failing = [d for d in deltas if d.status in FAILING]
    pair = _labels(baseline, current)
    if pair in BREAKS:
        assert failing, (f"declared break {pair} is stale: the pair is "
                         f"identical; remove it from BREAKS")
    else:
        assert not failing, (
            f"virtual metrics moved between {baseline.name} and "
            f"{current.name} with no declared break:\n"
            + render_deltas(failing))


def test_breaks_name_adjacent_pairs():
    assert set(BREAKS) <= {_labels(b, c) for b, c in PAIRS}


@pytest.mark.skipif(not PR6.exists(),
                    reason="committed BENCH_PR6.json not present")
def test_pr6_adds_the_hostbased_case():
    cur = _virtual_metrics(PR6)
    assert "backends_hostbased" in cur
    m = cur["backends_hostbased"]
    # the single-server host queue must cap it below the paper allocator
    assert (m["virtual:pairs_per_s_host_based"]
            < m["virtual:pairs_per_s_ours_scalar"])


@pytest.mark.skipif(not PR7.exists(),
                    reason="committed BENCH_PR7.json not present")
def test_pr7_adds_the_workload_cases():
    cur = _virtual_metrics(PR7)
    for case in ("workload_multitenant", "workload_diurnal",
                 "workload_trace_replay"):
        assert case in cur, f"PR7 artifact is missing {case!r}"
    replayed = cur["workload_trace_replay"]
    # the recorded trace runs on both designs, and the paper allocator
    # must outrun the global-lock baseline on it
    assert (replayed["virtual:ops_per_s_ours"]
            > replayed["virtual:ops_per_s_cuda"])
    mt = cur["workload_multitenant"]
    # Zipfian rate skew shows up as measurably uneven service
    assert mt["virtual:fairness_ours"] < 0.999


@pytest.mark.skipif(not PR8.exists(),
                    reason="committed BENCH_PR8.json not present")
def test_pr8_adds_the_serve_case():
    cur = _virtual_metrics(PR8)
    assert "serve_replay" in cur, "PR8 artifact is missing 'serve_replay'"
    m = cur["serve_replay"]
    # both backends served the trace and reported latency percentiles
    for slug in ("ours", "cuda"):
        assert m[f"virtual:latency_cycles_p99_{slug}"] >= \
            m[f"virtual:latency_cycles_p50_{slug}"] > 0
    # the 16 KiB quota + pressure gate deterministically rejects some of
    # the paper backend's mallocs on the bundled trace
    assert m["virtual:admission_failure_rate_ours"] > 0


@pytest.mark.skipif(not PR10.exists(),
                    reason="committed BENCH_PR10.json not present")
def test_pr10_adds_lockstep_and_honest_engine_walls():
    doc = json.loads(PR10.read_text())
    assert "lockstep" in doc["cases"], "PR10 artifact is missing 'lockstep'"
    # every case records which run loop produced it (the event engine:
    # batch is parity-locked, but the trajectory baseline stays on the
    # reference loop)
    assert all(c.get("engine") == "event" for c in doc["cases"].values())
    wall = doc["engine_wall"]
    assert wall["event_seconds"] > wall["batch_seconds"] > 0
    # honest best-of-N interleaved measurement, not a cherry-pick: the
    # recorded speedup must reproduce from the recorded walls
    assert wall["speedup"] == pytest.approx(
        wall["event_seconds"] / wall["batch_seconds"], rel=1e-3)
    assert wall["speedup"] > 1.0
