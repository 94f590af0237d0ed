"""Result containers and plain-text table rendering for the benches.

The paper's evaluation is three figures; each bench module produces
:class:`Series` objects (one per line in the figure) plus a rendered
table so results can be eyeballed in CI logs and pasted into
EXPERIMENTS.md.  :func:`trace_summary` renders the telemetry collected
by :class:`repro.sim.trace.Tracer` as the same style of table.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass
class Series:
    """One line of a figure: a label and aligned x/y vectors."""

    label: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.xs.append(x)
        self.ys.append(y)

    def y_at(self, x: float) -> float:
        """The y value recorded for ``x`` (exact match)."""
        try:
            i = self.xs.index(x)
        except ValueError:
            raise KeyError(
                f"series {self.label!r} has no point at x={x!r}; "
                f"recorded x values: {self.xs}"
            ) from None
        return self.ys[i]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0.0 for an empty input).

    Non-positive values cannot enter a geometric mean, so they are
    skipped — with a :class:`RuntimeWarning`, because a zero in a
    throughput/speedup vector almost always marks a *failed* data point,
    and silently dropping it would inflate the mean instead of flagging
    the failure.
    """
    vals = list(values)
    bad = [v for v in vals if v <= 0]
    if bad:
        warnings.warn(
            f"geometric_mean: skipping {len(bad)} non-positive value(s) "
            f"{bad[:5]} of {len(vals)} — a zero usually marks a failed "
            "benchmark point; the mean covers only the remaining values",
            RuntimeWarning,
            stacklevel=2,
        )
    pos = [v for v in vals if v > 0]
    if not pos:
        return 0.0
    return math.exp(sum(math.log(v) for v in pos) / len(pos))


def si(value: float) -> str:
    """Human-scale a number: 12_300_000 -> '12.3M'."""
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if abs(value) >= threshold:
            return f"{value / threshold:.2f}{suffix}"
    return f"{value:.2f}"


def signed_pct(frac: float) -> str:
    """Signed percent for a fraction: 0.123 -> '+12.3%', -0.04 -> '-4.0%'.

    Infinities render as '+inf%'/'-inf%' (a metric appearing from, or
    collapsing to, zero in the perf delta tables).
    """
    return f"{frac:+.1%}"


def size_label(nbytes: int) -> str:
    """'8 B', '4 KB', '512 KB' style size labels as in Figure 7."""
    if nbytes >= 1 << 20:
        return f"{nbytes >> 20} MB"
    if nbytes >= 1 << 10:
        return f"{nbytes >> 10} KB"
    return f"{nbytes} B"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _count(value: int) -> str:
    """Integer counts verbatim while small, SI-scaled once unwieldy."""
    return str(value) if value < 100_000 else si(value)


#: characters in a histogram's longest bar
BAR_WIDTH = 30


def _histogram_table(hist, value_header: str) -> str:
    """Render a :class:`repro.sim.trace.Histogram` as an aligned table."""
    rows = hist.rows()
    peak = max(n for _, n in rows)
    table_rows = [
        [label, n, "#" * max(1, round(BAR_WIDTH * n / peak))]
        for label, n in rows
    ]
    table = format_table([value_header, "count", ""], table_rows)
    return (f"{table}\n"
            f"samples: {hist.n}  mean: {hist.mean:.1f}  max: {hist.max}")


def trace_summary(tracer, top: int = 10) -> str:
    """Plain-text telemetry report for a :class:`repro.sim.trace.Tracer`.

    Sections appear only when the corresponding telemetry was collected,
    so a bench that never touches RCU prints no RCU section.
    """
    parts: List[str] = ["== trace summary =="]
    if tracer.runs:
        labels = ", ".join(r["label"] for r in tracer.runs)
        parts.append(f"runs: {len(tracer.runs)} ({labels})")

    named = tracer.named_op_counts
    if named:
        parts.append("\n-- op counts --")
        parts.append(format_table(
            ["op", "count"], [[k, _count(v)] for k, v in named.items()]
        ))

    stalls = tracer.top_stall_words(top)
    if stalls:
        parts.append(f"\n-- top atomic serialization stall words (top {top}) --")
        parts.append(format_table(
            ["address", "atomics", "stall cycles", "avg stall"],
            [[f"{addr:#x}", _count(n), _count(stall), f"{stall / n:.1f}"]
             for addr, n, stall in stalls],
        ))

    if tracer.sem_wait.n:
        parts.append("\n-- semaphore wait times (cycles) --")
        parts.append(_histogram_table(tracer.sem_wait, "wait"))
        outcomes = ", ".join(
            f"{k}: {v}" for k, v in sorted(tracer.sem_outcomes.items())
        )
        parts.append(f"outcomes: {outcomes}")

    if tracer.lock_wait.n:
        parts.append("\n-- lock wait times (cycles) --")
        parts.append(_histogram_table(tracer.lock_wait, "wait"))
    if tracer.lock_hold.n:
        parts.append("\n-- lock hold times (cycles) --")
        parts.append(_histogram_table(tracer.lock_hold, "hold"))

    if tracer.collective_width.n:
        parts.append("\n-- collective acquire group widths --")
        parts.append(_histogram_table(tracer.collective_width, "width"))

    if tracer.rcu_full or tracer.rcu_delegated:
        parts.append("\n-- RCU barriers --")
        total = tracer.rcu_full + tracer.rcu_delegated
        share = tracer.rcu_delegated / total if total else 0.0
        parts.append(f"full: {tracer.rcu_full}  "
                     f"delegated: {tracer.rcu_delegated}  ({share:.0%})")
        if tracer.rcu_grace:
            g = tracer.rcu_grace
            parts.append(
                f"grace-period latency (cycles): n={len(g)}  "
                f"mean={sum(g) / len(g):.0f}  min={min(g)}  max={max(g)}"
            )

    occ = tracer.occupancy_stats()
    if occ:
        parts.append("\n-- per-SM occupancy (resident blocks) --")
        parts.append(format_table(
            ["run", "sm", "peak", "mean", "active cycles"],
            [[label, sm, peak, f"{mean:.2f}", si(span)]
             for label, sm, peak, mean, span in occ],
        ))

    parts.append(
        f"\ntimeline: {len(tracer.events)} events recorded"
        + (f", {tracer.dropped_events} dropped (cap "
           f"{tracer.max_timeline_events})" if tracer.dropped_events else "")
    )
    return "\n".join(parts)
