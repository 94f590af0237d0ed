"""Deterministic Zipfian sampling over a finite support.

The workload generators are part of the perf trajectory: a bench case
regenerates its trace in-process, and the CI gate compares the
resulting ``virtual:*`` metrics *exactly* against a baseline recorded
on a different machine.  Every arithmetic operation here must therefore
be bit-reproducible across platforms.  IEEE-754 guarantees correct
rounding for ``+ - * /`` and ``sqrt`` — but **not** for ``pow``/
``exp``/``log``, whose last-ulp behaviour is libm-specific.  The skew
exponent is therefore restricted to non-negative multiples of 0.5, so
``rank**skew`` decomposes into an exact integer power times an exactly
rounded ``sqrt`` — never a libm ``pow`` call.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List


def _rank_pow(rank: int, skew: float) -> float:
    """``rank ** skew`` using only correctly-rounded operations.

    ``skew`` must be a non-negative multiple of 0.5 (validated by
    :class:`ZipfSampler`).
    """
    doubled = int(skew * 2)
    whole, half = divmod(doubled, 2)
    out = float(rank ** whole)
    if half:
        out *= math.sqrt(rank)
    return out


class ZipfSampler:
    """Samples indices ``0..n-1`` with probability proportional to
    ``1 / (index + 1) ** skew`` via inverse-CDF bisection.

    ``skew = 0`` degenerates to uniform; larger skews concentrate mass
    on the low indices (rank 1 dominating).  Sampling consumes exactly
    one ``rng.random()`` draw per call, so generator RNG streams stay
    easy to reason about.
    """

    def __init__(self, n: int, skew: float = 1.0):
        if n < 1:
            raise ValueError(f"support size must be >= 1 (got {n})")
        if skew < 0 or (skew * 2) != int(skew * 2):
            raise ValueError(
                f"skew must be a non-negative multiple of 0.5 (got {skew}); "
                "the restriction keeps rank**skew bit-reproducible across "
                "platforms (no libm pow)"
            )
        self.n = n
        self.skew = skew
        weights = [1.0 / _rank_pow(rank, skew) for rank in range(1, n + 1)]
        cum: List[float] = []
        total = 0.0
        for w in weights:
            total += w
            cum.append(total)
        self._cum = cum
        self._total = total

    def sample(self, rng) -> int:
        """One index drawn from the Zipfian distribution (one RNG draw)."""
        return bisect_right(self._cum, rng.random() * self._total)

    def weights(self) -> List[float]:
        """Normalized probability of each index.  A test seam: the
        program only samples, and tests pin the distribution here."""
        return [
            (c - (self._cum[i - 1] if i else 0.0)) / self._total
            for i, c in enumerate(self._cum)
        ]
