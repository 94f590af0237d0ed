"""The gate has teeth: mutations of a committed artifact fail ``perf compare``.

Each test copies ``BENCH_PR10.json`` (or the full-tier ``BENCH_PR27.json``),
edits it the way a silently regressing (or silently improving) change
would, and runs the exact command CI runs against the committed baseline.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.perf import artifact
from repro.perf.cli import main as perf_main
from repro.perf.suite import CASES, check_claims

ROOT = Path(__file__).resolve().parents[2]
PR10 = ROOT / "BENCH_PR10.json"
PR27 = ROOT / "BENCH_PR27.json"
CASE, METRIC = "fig7", "virtual:mean_speedup"

pytestmark = pytest.mark.skipif(not PR10.exists(),
                                reason="committed BENCH_PR10.json not present")


def _nudge_ulp(doc):
    m = doc["cases"][CASE]["metrics"]
    m[METRIC] = math.nextafter(m[METRIC], math.inf)


def _scale(factor):
    def edit(doc):
        doc["cases"][CASE]["metrics"][METRIC] *= factor
    return edit


def _drop_metric(doc):
    del doc["cases"][CASE]["metrics"][METRIC]


def _drop_case(doc):
    del doc["cases"][CASE]


def _compare(tmp_path, edit, capsys, source=PR10, baseline=PR10, root=ROOT):
    doc = json.loads(source.read_text())
    edit(doc)
    doc["label"] = "CI"
    current = artifact.write_artifact(tmp_path / "bench_ci.json", doc)
    argv = ["compare", "--root", str(root), "--current", str(current)]
    rc = perf_main(argv + (["--baseline", str(baseline)] if baseline else []))
    return rc, capsys.readouterr()


@pytest.mark.parametrize("edit, status", [
    (_nudge_ulp, "changed"),
    (_scale(0.91), "changed"),
    (_scale(1.5), "changed"),
    (_drop_metric, "gone"),
    (_drop_case, "gone"),
], ids=["one-ulp", "drop-9pct", "gain-50pct", "deleted-metric",
        "deleted-case"])
def test_mutation_fails_the_gate(tmp_path, capsys, edit, status):
    rc, out = _compare(tmp_path, edit, capsys)
    assert rc == 1
    assert "PERF GATE: FAIL" in out.err
    assert f" {status}" in out.out and CASE in out.out


def test_added_case_passes_as_new(tmp_path, capsys):
    def add(doc):
        doc["cases"]["extra"] = {"seed": 0, "metrics": {"virtual:x": 1.0}}

    rc, out = _compare(tmp_path, add, capsys)
    assert rc == 0
    assert "1 new" in out.out and "PERF GATE: ok" in out.out


def test_new_style_run_passes_against_old_style_baseline(tmp_path, capsys):
    # BENCH_PR10.json carries wall:seconds, repeats and wall_seconds per
    # case; a current run records none of them and must gate clean
    def strip_wall(doc):
        for case in doc["cases"].values():
            case.pop("repeats")
            case.pop("wall_seconds")
            del case["metrics"]["wall:seconds"]

    rc, out = _compare(tmp_path, strip_wall, capsys)
    assert rc == 0
    assert "gone" not in out.out and "wall:seconds" not in out.out
    assert "verdict: 68 ok" in out.out


def test_default_baseline_is_the_newest_committed_artifact(tmp_path, capsys):
    # CI passes only --current; the baseline resolves to the newest
    # BENCH_* at the root, so committing an artifact is the whole bump
    newest = artifact.find_artifacts(ROOT)[-1]
    current = tmp_path / "bench_ci.json"
    current.write_text(newest.read_text())
    assert perf_main(["compare", "--root", str(ROOT),
                      "--current", str(current)]) == 0
    assert f"baseline: {newest}" in capsys.readouterr().out


needs_pr27 = pytest.mark.skipif(not PR27.exists(),
                                reason="committed BENCH_PR27.json not present")


def _failed_claims(out):
    return [line.removeprefix("claim FAILED: ")
            for line in out.splitlines() if line.startswith("claim FAILED")]


@needs_pr27
def test_quick_run_skips_the_newer_full_artifact(tmp_path, capsys):
    # a trajectory whose newest artifact, BENCH_PR27.json, is full tier
    # and whose newest quick one is the older BENCH_PR10.json
    root = tmp_path / "trajectory"
    root.mkdir()
    for path in (PR10, PR27):
        (root / path.name).write_text(path.read_text())
    rc, out = _compare(tmp_path, lambda doc: None, capsys, baseline=None,
                       root=root)
    assert rc == 0
    assert f"baseline: {root / PR10.name}" in out.out
    assert "verdict: 68 ok" in out.out


@needs_pr27
def test_full_only_metric_one_ulp_fails_against_the_full_artifact(
        tmp_path, capsys):
    def nudge(doc):  # fig7's 2 KB point runs only in the full tier
        m = doc["cases"]["fig7"]["metrics"]
        key = "virtual:ours_failure_rate_2048"
        m[key] = math.nextafter(m[key], math.inf)

    rc, out = _compare(tmp_path, nudge, capsys, source=PR27, baseline=None)
    assert rc == 1 and f"baseline: {PR27}" in out.out
    assert "verdict: 1 changed" in out.out and not _failed_claims(out.out)


@needs_pr27
def test_every_claim_holds_on_the_committed_full_artifact():
    claims = check_claims(artifact.load_artifact(PR27)["cases"])
    assert len(claims) == sum(len(c.claims) for c in CASES.values())
    assert [name for name, holds in claims if not holds] == []


@needs_pr27
@pytest.mark.parametrize("case, metric, value, claim", [
    ("fragmentation", "bump_reserved_min_step_bytes", -1.0,
     "fragmentation: bump reserved never shrinks"),
    ("fig6", "delegation_speedup_most_writers", 2.9,
     "fig6: flagship 1:32 @ 12,276 threads (372 writers) > 3x"),
], ids=["fragmentation", "fig6"])
def test_doctored_metric_fails_exactly_its_claim(tmp_path, capsys, case,
                                                 metric, value, claim):
    def doctor(doc):
        doc["cases"][case]["metrics"][f"virtual:{metric}"] = value

    rc, out = _compare(tmp_path, doctor, capsys, source=PR27, baseline=None)
    assert rc == 1 and _failed_claims(out.out) == [claim]

