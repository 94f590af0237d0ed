"""Tests of the benchmark itself: ``python -m pytest benchmark/tests``.

They run the benchmark at ``--smoke`` sizes, so they check plumbing and
contracts, not performance.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT, timeout=300):
    """The benchmark as its users run it: from the root of ``cwd``."""
    return subprocess.run([sys.executable, "benchmark/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "benchmark/run.py"]
    assert list(run.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_emits_every_declared_metric(workload, trace):
    out = _run("--workload", workload, "--seed", "2", "--smoke",
               "--trace", trace)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in line["metrics"].values())


def _fig7_addresses(backend: str):
    """A tiny fig7-style storm; returns malloc addresses and the report."""
    from repro.backends import get
    from repro.bench.workloads import malloc_storm
    from repro.sim import DeviceMemory, GPUDevice, Scheduler

    device = GPUDevice(num_sms=2, max_resident_blocks=4)
    mem = DeviceMemory(8 << 20)
    handle = get(backend).build(mem, device, 1 << 18, checked=False)
    kernel, out = malloc_storm(handle, 64)
    sched = Scheduler(mem, device, seed=7)
    sched.launch(kernel, 2, 128)
    report = sched.run()
    return list(out), (report.cycles, report.events, report.op_counts)


def _fig5():
    from repro.bench import fig5

    res = fig5.run((256, 512), seed=3)
    return res.bulk.ys, res.counting.ys


@pytest.mark.parametrize("part", ["fig7-ours", "fig7-cuda", "fig5"])
def test_wrappers_are_observation_only(part):
    fn = (_fig5 if part == "fig5"
          else lambda: _fig7_addresses(part.split("-")[1]))
    plain = fn()
    rec = layers.Recorder()
    with layers.instrument(rec, "full"):
        wrapped = fn()
    assert wrapped == plain
    spans = layers.spans_of(rec.export())
    assert spans["sim.run"].calls > 0
    if part == "fig5":
        assert spans["sync.bulk_semaphore.wait"].vcalls > 0
    elif part == "fig7-ours":
        assert spans["core.allocator.malloc"].calls == 256
        assert spans["core.allocator.malloc"].vcycles_mean > 0
    else:
        assert spans["backends.cuda.malloc"].calls == 256
    # every original is back once the block exits
    assert fn() == plain
    from repro.sim.scheduler import Scheduler
    assert not hasattr(Scheduler.run, "__wrapped__")


def test_lateness_guard_trips_when_the_client_is_late(monkeypatch):
    send = serve.Client._send

    def late_send(self, phase, *args):
        if phase.name == "open":
            import time
            time.sleep(2 * serve.LATE_P50_LIMIT_S)
        return send(self, phase, *args)

    monkeypatch.setattr(serve.Client, "_send", late_send)
    r = run.run_serve(seed=1, seconds=1, trace=False, smoke=True)
    guards = [name for name in r.checks if name.startswith("loadgen.late")]
    assert len(guards) == 2 and not any(r.checks[g] for g in guards)
    assert not r.correct


def test_scaling_takes_each_part_at_nominal_host_speed():
    import passes
    import reference

    nominal = reference.NOMINAL_S
    # the kernel ran at nominal speed before and after part a, and took
    # twice as long after part b
    p = passes.PassResult(3.0, {"a": 1.0, "b": 2.0}, {}, {},
                          refs=[nominal, nominal, 2 * nominal])
    assert p.scaled_s == pytest.approx(1.0 + 2.0 / 1.5)
    assert reference.kernel() == reference.kernel()


def test_repeat_reports_median_and_spread():
    out = _run("--workload", "sync_cohort", "--smoke", "--repeat", "2")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    summary = json.loads(out.stdout.strip().splitlines()[-1])["summary"]
    rows = summary["sync_cohort"]
    assert set(rows) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(row["iqr_frac"] >= 0 for row in rows.values())


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run("--workload", "alloc_churn", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert not out.stdout.strip()
