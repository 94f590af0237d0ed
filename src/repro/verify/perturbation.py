"""Schedule perturbations: deterministic knobs over the cost model.

A :class:`Perturbation` is a frozen set of ``(knob, value)`` pairs.
Cost-model knobs are *multipliers* applied to the corresponding
:class:`~repro.sim.cost_model.CostModel` field; the special ``jitter``
knob is an *absolute* bound (cycles) passed to the scheduler's
``dispatch_jitter``, and the special ``steer`` knob is an integer salt
for the scheduler's deterministic dispatch-phase offset (the
exploration engine's steering decision — see :mod:`repro.verify.explore`).
Stretching latencies relative to each other moves
every inter-thread timing relationship, so a fixed seed explores a
different interleaving under each perturbation — that, plus the seed,
is the search space :mod:`repro.verify.explore` steers through.

Perturbations serialize to a stable spec string
(``"atomic_latency=4,jitter=256"``) so a failure can be replayed
exactly: ``python -m repro verify --replay scenario:seed:spec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

from ..sim.cost_model import CostModel

#: cost-model fields a perturbation may scale
COST_KNOBS = (
    "load_latency",
    "store_latency",
    "atomic_latency",
    "atomic_service",
    "step_cost",
    "yield_cost",
    "barrier_cost",
    "warp_conv_cost",
    "block_dispatch",
)

#: absolute dispatch-jitter knob (cycles, not a multiplier)
JITTER_KNOB = "jitter"

#: steering-decision knob: an integer salt handed to the scheduler's
#: deterministic per-thread dispatch-phase offset (see
#: ``Scheduler.steer``).  The exploration engine mints fresh salts to
#: visit new interleavings; because it rides in the perturbation set, a
#: steered schedule replays and shrinks through the existing
#: ``scenario[@backend]:seed:perturbation`` machinery unchanged.
STEER_KNOB = "steer"

#: knobs that are absolute integers (>= 1), not cost multipliers
_INT_KNOBS = frozenset({JITTER_KNOB, STEER_KNOB})

_VALID = frozenset(COST_KNOBS) | _INT_KNOBS


def format_float(value: float) -> str:
    """Spec text for a float that parses back to exactly ``value``:
    the short ``%g`` form wherever that is exact (every mutation-catalog
    value), else ``repr``.  ``%g`` alone keeps six digits, so
    ``1234567`` or ``1/3`` used to print a spec that replayed a
    different case."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


@dataclass(frozen=True)
class Perturbation:
    """An immutable, canonically-ordered set of ``(knob, value)`` pairs."""

    items: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for name, value in self.items:
            if name not in _VALID:
                raise ValueError(f"unknown perturbation knob {name!r}")
            if name in seen:
                raise ValueError(f"duplicate perturbation knob {name!r}")
            if not math.isfinite(value):
                # nan slips through every ordering comparison (nan <= 0
                # is False) and inf round-trips into a spec no replay
                # can execute; both are spec-corruption, not knobs.
                raise ValueError(
                    f"{name}: perturbation values must be finite "
                    f"(got {value!r})"
                )
            if value <= 0:
                raise ValueError(f"{name}: perturbation values must be > 0")
            if name in _INT_KNOBS and value < 1:
                # A sub-1 jitter validates as > 0 but used to truncate
                # to a 0-cycle jitter at apply time — a "perturbed" spec
                # silently identical to the baseline schedule.
                raise ValueError(
                    f"{name}: absolute knob needs a value >= 1 "
                    f"(got {value:g}; cost knobs scale, {name} does not)"
                )
            if name == STEER_KNOB and not float(value).is_integer():
                raise ValueError(
                    f"steer: steering salts are integers (got {value:g}); "
                    "two specs differing only in a fractional salt would "
                    "replay the same schedule"
                )
            seen.add(name)
        object.__setattr__(self, "items", tuple(sorted(self.items)))

    # ------------------------------------------------------------------
    # spec string (the replayable wire format)
    # ------------------------------------------------------------------
    @property
    def spec(self) -> str:
        """Canonical ``knob=value,knob=value`` string (empty = baseline)."""
        return ",".join(f"{n}={format_float(v)}" for n, v in self.items)

    @classmethod
    def parse(cls, spec: str) -> "Perturbation":
        """Inverse of :attr:`spec`; accepts the empty string."""
        spec = spec.strip()
        if not spec:
            return cls()
        items = []
        for part in spec.split(","):
            name, _, value = part.partition("=")
            if not _:
                raise ValueError(f"bad perturbation item {part!r} (want knob=value)")
            items.append((name.strip(), float(value)))
        return cls(tuple(items))

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(self, base: CostModel) -> Tuple[CostModel, int]:
        """Resolve against ``base``; returns ``(cost_model, dispatch_jitter)``.

        Multiplied latencies are rounded and floored at 1 cycle so a
        shrinking perturbation can never zero out a cost the scheduler
        divides by.  Jitter is rounded, not truncated (construction
        already rejects sub-1 values, so it can never collapse to the
        baseline's 0).  The ``steer`` salt is not a timing knob and is
        exposed via :attr:`steer` instead.
        """
        changes = {}
        jitter = 0
        for name, value in self.items:
            if name == JITTER_KNOB:
                jitter = int(round(value))
            elif name == STEER_KNOB:
                continue
            else:
                changes[name] = max(1, int(round(getattr(base, name) * value)))
        return (replace(base, **changes) if changes else base), jitter

    @property
    def steer(self) -> int:
        """The steering salt (0 when the knob is absent)."""
        for name, value in self.items:
            if name == STEER_KNOB:
                return int(value)
        return 0

    # ------------------------------------------------------------------
    # shrinking support
    # ------------------------------------------------------------------
    def without(self, name: str) -> "Perturbation":
        """A copy with the ``name`` knob removed."""
        return Perturbation(tuple((n, v) for n, v in self.items if n != name))

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def __str__(self) -> str:
        return self.spec or "<baseline>"
