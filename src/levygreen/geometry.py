"""One-dimensional domains: finite unions of disjoint open intervals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["C11Set", "interval_union", "delta"]


@dataclass(frozen=True)
class C11Set:
    """Finite union of disjoint open intervals with a positive gap structure.

    The localization radius r0 is the smallest of all interval lengths and
    gaps.  Interval endpoints are treated as open: boundary points belong to
    the complement.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("domain must contain at least one interval")
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        if any(b <= a for a, b in ivs):
            raise ValueError("intervals must have positive length")
        if sorted(ivs) != list(ivs):
            ivs = tuple(sorted(ivs))
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            if a2 <= b1:
                raise ValueError("intervals must be disjoint with positive gaps")
        object.__setattr__(self, "intervals", ivs)

    @property
    def diam(self) -> float:
        return self.intervals[-1][1] - self.intervals[0][0]

    @property
    def r0(self) -> float:
        lengths = [b - a for a, b in self.intervals]
        gaps = [a2 - b1 for (a1, b1), (a2, b2) in zip(self.intervals, self.intervals[1:])]
        return min(lengths + gaps)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.zeros(x.shape, dtype=bool)
        for a, b in self.intervals:
            inside |= (x > a) & (x < b)
        return inside if inside.ndim else bool(inside)


def interval_union(*endpoints) -> C11Set:
    """Convenience constructor: interval_union((-1, -0.2), (0.2, 1))."""
    return C11Set(tuple((float(a), float(b)) for a, b in endpoints))


def delta(D: C11Set, x):
    """Distance to the complement: zero outside, distance to the nearer endpoint inside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=float)
    for a, b in D.intervals:
        inside = (x > a) & (x < b)
        out = np.where(inside, np.minimum(x - a, b - x), out)
    return out if out.ndim else float(out)

