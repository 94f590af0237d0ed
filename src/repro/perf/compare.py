"""Pairwise artifact comparison: the exact virtual-metric gate.

Only ``virtual:*`` metrics are compared.  They come from the seeded
simulator and are bit-deterministic, so the gate is exact equality:
any difference, in either direction, is a behavior change that must be
declared by committing a new baseline.  Each (case, metric) row is one
of

* ``ok`` — bit-equal;
* ``changed`` — any difference (fails the gate);
* ``gone`` — in the baseline, missing from the current run, whether
  one metric or a whole case (fails the gate);
* ``new`` — in the current run only (informational).

Other keys in an artifact's metrics — the ``wall:seconds`` that
artifacts up to ``BENCH_PR10.json`` carry — are ignored.  Wall-clock
claims come from ``benchmark/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..bench.reporting import format_table, si, signed_pct

#: prefix of the gated metric class
VIRTUAL = "virtual:"

#: row statuses that fail the gate
FAILING = ("changed", "gone")


class CompareError(ValueError):
    """The two artifacts cannot be meaningfully compared."""


@dataclass
class Delta:
    """One (case, metric) comparison row."""

    case: str
    metric: str
    baseline: float   # nan on a "new" row
    current: float    # nan on a "gone" row
    status: str       # "ok" | "changed" | "gone" | "new"

    @property
    def change(self) -> float:
        """Signed fractional change of current vs baseline (display only;
        ``±inf`` when a metric moves off zero)."""
        if self.baseline == self.current:
            return 0.0
        if self.baseline == 0:
            return math.copysign(math.inf, self.current)
        return (self.current - self.baseline) / abs(self.baseline)


def _virtual(case: dict) -> Dict[str, float]:
    return {k: v for k, v in case.get("metrics", {}).items()
            if k.startswith(VIRTUAL)}


def compare_docs(current: dict, baseline: dict) -> List[Delta]:
    """Per-metric rows of ``current`` against ``baseline``.

    Both documents must be the same tier — a quick run against a full
    baseline would compare different workloads.
    """
    if current.get("tier") != baseline.get("tier"):
        raise CompareError(
            f"tier mismatch: current is {current.get('tier')!r}, baseline "
            f"is {baseline.get('tier')!r} — artifacts compare only within "
            "a tier"
        )
    deltas: List[Delta] = []
    cur_cases: Dict[str, dict] = current["cases"]
    base_cases: Dict[str, dict] = baseline["cases"]
    for case in sorted(set(cur_cases) | set(base_cases)):
        cur_metrics = _virtual(cur_cases.get(case, {}))
        base_metrics = _virtual(base_cases.get(case, {}))
        for metric in sorted(set(cur_metrics) | set(base_metrics)):
            cur = cur_metrics.get(metric, math.nan)
            base = base_metrics.get(metric, math.nan)
            if metric not in base_metrics:
                status = "new"
            elif metric not in cur_metrics:
                status = "gone"
            else:
                status = "ok" if cur == base else "changed"
            deltas.append(Delta(case, metric, base, cur, status))
    return deltas


def has_regressions(deltas: List[Delta]) -> bool:
    """True when any row fails the gate (``changed`` or ``gone``)."""
    return any(d.status in FAILING for d in deltas)


def _fmt_value(v: float) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "-"
        if math.isinf(v):
            # si() would scale inf to "infG"; render it as itself
            return "inf" if v > 0 else "-inf"
    return si(v)


def render_deltas(deltas: List[Delta], *, only_interesting: bool = False) -> str:
    """The comparison table (via :mod:`repro.bench.reporting`).

    ``changed`` rows print both values exactly (``repr``), so a 1-ulp
    move is visible.  ``only_interesting`` drops the ``ok`` rows.
    """
    rows = []
    for d in deltas:
        if only_interesting and d.status == "ok":
            continue
        fmt = repr if d.status == "changed" else _fmt_value
        rows.append([
            d.case, d.metric, fmt(d.baseline), fmt(d.current),
            signed_pct(d.change) if d.status == "changed" else "",
            d.status,
        ])
    if not rows:
        return "(no deltas to show)"
    return format_table(
        ["case", "metric", "baseline", "current", "delta", "status"], rows,
    )


def summarize(deltas: List[Delta]) -> str:
    """One-line verdict for CLI output and CI logs."""
    counts: Dict[str, int] = {}
    for d in deltas:
        counts[d.status] = counts.get(d.status, 0) + 1
    bits = [f"{counts[k]} {k}" for k in ("changed", "gone", "ok", "new")
            if k in counts]
    return ", ".join(bits) if bits else "no comparable metrics"
