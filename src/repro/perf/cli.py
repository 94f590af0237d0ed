"""``python -m repro perf`` — run benchmarks, gate regressions, profile.

Usage::

    python -m repro perf run --quick            # CI tier, ~seconds
    python -m repro perf run --full             # paper-scale, ~minutes
    python -m repro perf run --quick --case fig5 --case shootout
    python -m repro perf run --quick --workers 4   # shard cases
    python -m repro perf compare                # latest BENCH_* vs previous
    python -m repro perf compare --current /tmp/now.json  # vs newest BENCH_*
    python -m repro perf profile                # hotspots for fig5 + shootout
    python -m repro perf profile --case fig7 --top 20

``run`` writes the trajectory artifact ``BENCH_<label>.json`` at the
repo root (label defaults to the next free ``PR<k>``).  ``compare``
exits 1 when any ``virtual:*`` metric differs from the baseline or is
missing, and 2 when the artifacts cannot be compared.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..bench.reporting import format_table, si
from ..par.pool import workers_arg
from . import artifact, compare, profile as profiling
from .suite import CASES, UnknownCase, resolve_case, run_suite


def _cmd_run(args) -> int:
    root = Path(args.root)
    tier = "full" if args.full else "quick"
    label = args.label or artifact.next_label(root)
    out = Path(args.out) if args.out else root / f"BENCH_{label}.json"
    names = list(args.case) if args.case else None
    if args.backends:
        # One extra dynamic case per --backends flag: the shootout
        # parameterized over that roster (resolved by name everywhere,
        # so it shards and records like any registered case).
        names = names or list(CASES)
        names += ["shootout@" + "+".join(
            b.strip() for b in spec.split(",") if b.strip()
        ) for spec in args.backends]
    try:
        suite = run_suite(tier, names=names, progress=print,
                          workers=args.workers)
    except UnknownCase as e:
        print(f"perf run: {e.args[0]}", file=sys.stderr)
        return 2
    doc = artifact.suite_to_doc(suite, label)
    artifact.write_artifact(out, doc)
    print(f"\nartifact: {out} (schema {artifact.SCHEMA}, tier {tier}, "
          f"label {label})")
    rows = []
    for run in suite.cases:
        for metric, value in run.metrics.items():
            rows.append([run.case, metric, si(value)])
    print("\n" + format_table(["case", "metric", "value"], rows))
    return 0


def _pick_pair(root: Path, current: Optional[str], baseline: Optional[str]):
    """Resolve the artifact pair: explicit paths beat trajectory order."""
    history = artifact.find_artifacts(root)
    if current is None:
        if not history:
            raise artifact.ArtifactError(
                f"no BENCH_*.json found under {root}; run "
                "`python -m repro perf run` first"
            )
        current = history[-1]
    current = Path(current)
    if baseline is None:
        prior = [p for p in history if p.resolve() != current.resolve()]
        # A one-artifact trajectory gates against itself: zero deltas,
        # always passes — that's the seed state of the trajectory.
        baseline = prior[-1] if prior else current
    return Path(current), Path(baseline)


def _cmd_compare(args) -> int:
    root = Path(args.root)
    try:
        cur_path, base_path = _pick_pair(root, args.current, args.baseline)
        cur = artifact.load_artifact(cur_path)
        base = artifact.load_artifact(base_path)
        deltas = compare.compare_docs(cur, base)
    except (artifact.ArtifactError, compare.CompareError) as e:
        print(f"perf compare: {e}", file=sys.stderr)
        return 2
    print(f"current:  {cur_path}  (label {cur['label']}, tier {cur['tier']})")
    print(f"baseline: {base_path}  (label {base['label']}, "
          f"tier {base['tier']})")
    if base_path.resolve() == cur_path.resolve():
        print("note: single-artifact trajectory — comparing against itself")
    print("gate: exact equality on every virtual:* metric\n")
    print(compare.render_deltas(deltas, only_interesting=args.brief))
    print(f"\nverdict: {compare.summarize(deltas)}")
    if compare.has_regressions(deltas):
        print("PERF GATE: FAIL", file=sys.stderr)
        return 1
    print("PERF GATE: ok")
    return 0


def _cmd_profile(args) -> int:
    try:
        cases = [resolve_case(n) for n in args.case or ["fig5", "shootout"]]
    except UnknownCase as e:
        print(f"perf profile: {e.args[0]}", file=sys.stderr)
        return 2
    for case in cases:
        print(f"== {case.name}: top {args.top} host hotspots "
              f"({args.tier} tier, cProfile by own time) ==")
        report = profiling.profile_case(case, tier=args.tier, top=args.top)
        print(report.table())
        print(f"profiled wall: {report.wall_seconds:.2f}s\n")
        if not args.no_trace:
            trace = profiling.trace_report(case, top=args.top)
            if trace is not None:
                print(trace)
                print()
    return 0


def _positive_int(raw: str) -> int:
    """``argparse`` ``type=`` for ``--top``: an integer ``>= 1``."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1 (got {raw!r})") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {value})")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description="Performance benchmark suite, regression gate and "
                    "profiler for the allocator reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the benchmark suite, write an "
                                       "artifact")
    tier = p_run.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_true", default=True,
                      help="quick tier (default): seconds of host time")
    tier.add_argument("--full", action="store_true",
                      help="full tier: the paper-scale sweeps")
    p_run.add_argument("--case", action="append", metavar="NAME",
                       help=f"run only this case (repeatable); "
                            f"registered: {', '.join(sorted(CASES))}, "
                            "plus 'shootout@b1+b2' parameterized by "
                            "backend roster")
    p_run.add_argument("--backends", action="append", metavar="B1,B2,...",
                       help="also run the churn shootout over this "
                            "comma-separated backend roster (repeatable; "
                            "names from `python -m repro backends list`)")
    p_run.add_argument("--label", default=None,
                       help="artifact label (default: next free PR<k>)")
    p_run.add_argument("--out", default=None, metavar="PATH",
                       help="artifact path (default: <root>/BENCH_<label>.json)")
    p_run.add_argument("--workers", type=workers_arg, default=1, metavar="N",
                       help="shard cases across N worker processes "
                            "(0 = one per CPU; default 1 = serial); "
                            "the artifact is identical either way")
    p_run.add_argument("--root", default=".",
                       help="repo root holding the BENCH_* trajectory")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="diff two artifacts, exit nonzero "
                                           "on any virtual-metric change")
    p_cmp.add_argument("--current", default=None, metavar="PATH",
                       help="artifact under test (default: newest BENCH_*)")
    p_cmp.add_argument("--baseline", default=None, metavar="PATH",
                       help="reference artifact (default: previous BENCH_*)")
    p_cmp.add_argument("--root", default=".",
                       help="repo root holding the BENCH_* trajectory")
    p_cmp.add_argument("--brief", action="store_true",
                       help="hide metrics whose status is plain ok")
    p_cmp.set_defaults(func=_cmd_compare)

    p_prof = sub.add_parser("profile", help="cProfile hotspots + simulator "
                                            "telemetry per case")
    p_prof.add_argument("--case", action="append", metavar="NAME",
                        help="case to profile (repeatable; default: fig5 and "
                             "shootout)")
    p_prof.add_argument("--top", type=_positive_int, default=10,
                        help="rows in the hotspot table (default %(default)s)")
    p_prof.add_argument("--tier", choices=("quick", "full"), default="quick")
    p_prof.add_argument("--no-trace", action="store_true",
                        help="skip the tracer-derived telemetry section")
    p_prof.set_defaults(func=_cmd_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
