"""Certification of drift fields against the shrinking-window Kato condition.

A drift b is admissible when its windowed interaction with the gradient
scale kernel vanishes uniformly as the window shrinks:

    m(r) = sup_x  int over |z - x| < r of M(|x - z|) |b(z)| dz  -> 0.

Every bounded drift passes; a power pole |z - z0|^(-beta) passes exactly
when beta stays below the kernel exponent (power counting at the pole).
The supremum is taken over a translate grid that always includes the
declared singular points, where spiky drifts attain it.  A drift from a
user function is ``DriftField(func, label=...)``; ``func`` must accept both
arrays, which the vectorized sweep passes, and one Python float, which
each QUADPACK callback at a declared pole passes.  ``scipy.integrate``
loads with the first QUADPACK window at a declared pole, whose callbacks
take scalar ``KernelTable.M_at`` lookups at a few microseconds each; a
drift without singular points, such as a constant or sin drift, is
certified by the vectorized sweep alone and never loads it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mesh
from .kernels import KernelTable

__all__ = [
    "DriftField",
    "KatoCertificate",
    "constant_drift",
    "sin_drift",
    "power_drift",
    "drift_from_config",
    "kato_modulus",
    "is_kato",
]

_TOL = 4.0              # the last modulus of a passing certificate is at most this
_TRANSLATES = 128       # equispaced translates of each modulus's supremum


@dataclass(frozen=True)
class DriftField:
    """Scalar drift with declared singularities (where the sup must be probed).

    ``func`` takes an array of points and returns the drift at each; inside
    the QUADPACK windows at the declared points (:func:`kato_modulus`) it
    takes one Python float and returns a number.
    """

    func: Callable
    family: str = "custom"            # constant | bounded-smooth | power-singularity | custom
    singular_points: tuple[float, ...] = ()
    label: str = ""

    def __call__(self, z):
        return self.func(z)

    def describe(self) -> dict:
        return {"family": self.family, "label": self.label,
                "singular_points": list(self.singular_points)}


def constant_drift(value: float) -> DriftField:
    return DriftField(lambda z: np.full_like(np.asarray(z, dtype=float), value),
                      "constant", (), f"constant {value}")


def sin_drift(amplitude: float = 1.0, frequency: float = 5.0) -> DriftField:
    """amplitude sin(frequency z), evaluated as amplitude 2t / (1 + t^2).

    Here t = tan(frequency z / 2).  numpy runs float64 sin element by element
    in libm but tan in a vector loop several times faster (as in
    ``montecarlo._cms``); the two forms agree to 2.3e-16 absolute at unit
    amplitude, multiples of pi included.
    """
    half, twice = 0.5 * frequency, 2.0 * amplitude

    def f(z):
        t = np.tan(half * np.asarray(z, dtype=float))
        d = t * t
        d += 1.0
        t /= d
        t *= twice
        return t

    return DriftField(f, "bounded-smooth", (), f"{amplitude} sin({frequency} z)")


def power_drift(beta: float, center: float = 0.0, strength: float = 1.0) -> DriftField:
    """Drift with an integrable-or-not power pole |z - center|^(-beta).

    A Python float off the pole takes ``np.power`` on the float, which
    rounds as the array power does (Python's ``**`` differs in the last
    bit on about 5 % of points); the pole itself and NaN take the array
    path and give NaN.
    """
    if beta <= 0:
        raise ValueError("power drift needs a positive exponent")

    def f(z):
        if isinstance(z, float):
            d = abs(z - center)
            if d > 0:
                return strength * np.power(d, -beta)
        d = np.abs(np.asarray(z, dtype=float) - center)
        return strength * np.where(d > 0, d, np.nan) ** (-beta)

    return DriftField(f, "power-singularity", (center,),
                      f"{strength} |z - {center}|^(-{beta})")


def drift_from_config(cfg: dict) -> DriftField:
    kind = cfg.get("family")
    if kind == "constant":
        return constant_drift(float(cfg["value"]))
    if kind == "sin":
        return sin_drift(float(cfg.get("amplitude", 1.0)), float(cfg.get("frequency", 5.0)))
    if kind == "power":
        return power_drift(float(cfg["beta"]), float(cfg.get("center", 0.0)),
                           float(cfg.get("strength", 1.0)))
    if kind == "zero":
        return constant_drift(0.0)
    raise ValueError(f"unknown drift family: {kind!r}")


# ---------------------------------------------------------------------------
# windowed modulus


def _probe_divergence(f: Callable, s0: float) -> bool:
    """Power probe at a singular endpoint: local exponent >= 1 means divergence."""
    d = s0 / 4.0
    vals = np.array([f(d * 0.5 ** k) for k in range(6)])
    vals = vals[np.isfinite(vals) & (vals > 0)]
    if len(vals) < 3:
        return False
    slopes = np.diff(np.log(vals)) / np.log(0.5)
    return bool(np.median(slopes[-3:]) <= -0.99)


def _window_integral(b: DriftField, table: KernelTable, x: float, r: float) -> float:
    """int over (x - r, x + r) of M(|x - z|) |b(z)| dz, with singular splitting.

    Splits the window at the kernel pole z = x and at every declared pole of
    the drift; each endpoint is probed for divergence by local power
    counting before quadrature, returning inf when the pole is too strong.
    """
    from scipy import integrate
    cuts = sorted({x - r, x + r, x,
                   *(s for s in b.singular_points if x - r < s < x + r)})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        length = hi - lo

        def f(z):
            return float(table.M_at(abs(z - x)) * abs(b.func(z)))

        lo_sing = lo == x or lo in b.singular_points
        hi_sing = hi == x or hi in b.singular_points
        if lo_sing and _probe_divergence(lambda s: f(lo + s), length):
            return np.inf
        if hi_sing and _probe_divergence(lambda s: f(hi - s), length):
            return np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(f, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-9)
        total += val
    return total


def kato_modulus(b: DriftField, table: KernelTable, r: float) -> float:
    """sup over translates x of the windowed integral at window radius r.

    The translates are 128 equispaced points on
    [-2 diam, 2 diam] plus the declared singular points of the drift, where
    power drifts attain their supremum.  Grid translates share one
    power-substituted distance grid and are evaluated in a single vectorized
    sweep; the declared poles get the split-and-probe scalar treatment.
    An infinite drift value in the sweep gives an infinite modulus; a NaN
    drift value, or a NaN integral at a pole, raises ``ValueError``.
    """
    if r <= 0:
        raise ValueError("window radius must be positive")
    xs = np.linspace(-2.0 * table.diam, 2.0 * table.diam, _TRANSLATES)

    # shared sweep: int_0^r M(s) (|b(x+s)| + |b(x-s)|) ds on one grid
    s, w = mesh.power_panels(0.0, r, 8.0, 96, order=8, singular_end="left")
    with np.errstate(all="ignore"):
        both = np.abs(b.func(xs[:, None] + s[None, :])) + np.abs(b.func(xs[:, None] - s[None, :]))
    if np.isnan(both).any():
        raise ValueError(f"drift {b.label!r} evaluates to NaN in the window sweep at r={r:.3g}")
    if np.isinf(both).any():
        return np.inf
    best = float(np.max(both @ (table.M_at(s) * w)))

    for x in b.singular_points:
        val = _window_integral(b, table, float(x), r)
        if np.isnan(val):
            raise ValueError(f"drift {b.label!r}: window integral at its pole {x} is NaN")
        if val == np.inf:
            return np.inf
        best = max(best, val)
    return best


@dataclass(frozen=True)
class KatoCertificate:
    radii: tuple[float, ...]
    moduli: tuple[float, ...]
    tol: float
    passed: bool
    drift: dict


def is_kato(b: DriftField, table: KernelTable) -> KatoCertificate:
    """Certify the drift: the moduli must stay finite, decrease, and end at most 4.

    The window radii are six, from 1e-1 diam down to 1e-6 diam by factors
    of ten; divergent window integrals (detected by power counting at the
    poles) fail immediately.  Each modulus takes its supremum over 128
    translates.  The bound 4 is recorded as the certificate's ``tol``.
    """
    radii = tuple(float(r) for r in np.geomspace(1e-1, 1e-6, 6) * table.diam)
    moduli = []
    for r in radii:
        m = kato_modulus(b, table, r)
        moduli.append(float(m))
        if not np.isfinite(m):
            break
    finite = all(np.isfinite(m) for m in moduli) and len(moduli) == len(radii)
    decreasing = finite and all(m2 <= m1 * (1 + 1e-9) + 1e-15
                                for m1, m2 in zip(moduli, moduli[1:]))
    passed = finite and decreasing and moduli[-1] <= _TOL
    return KatoCertificate(radii, tuple(moduli), _TOL, passed, b.describe())
