"""Process families: Fourier symbols, jump densities, weak scaling estimates.

A model is a pure-jump symmetric process on the line that moves only by
jumps whose intensity nu(r) decreases in the jump size.  It is described by
two radial evaluators: the symbol psi (frequency domain) and the jump
density nu (space domain), related by ``psi(xi) = int (1 - cos(xi z)) nu(z) dz``.

The toolkit works under a standing power-growth hypothesis: the symbol must
grow super-linearly at high frequency.  ``estimate_scaling`` certifies this
numerically as extremal chord slopes of log psi over a fixed geometric
frequency grid, and ``require_valid_scaling`` refuses models that fail the
check.  Every CLI command that builds a kernel table calls it first
(``cli._table_for``) and reports a refusal as a config error.

``scipy.integrate`` is imported inside the quadrature symbols and
``_unit_frequency`` that use it, so importing this module (and every
command that never integrates) does not load it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import stable

__all__ = [
    "LevyModel",
    "ScalingReport",
    "stable_model",
    "stable_mixture_model",
    "truncated_stable_model",
    "custom_model",
    "model_from_config",
    "stable_index",
    "estimate_scaling",
    "require_valid_scaling",
]

_HEAD_SHELLS = 40       # dyadic shells toward 0 before the closing pass of a head integral


@dataclass(frozen=True)
class LevyModel:
    """Immutable description of one process; safe to share across threads."""

    family: str                       # stable | stable-mixture | truncated-stable | custom
    psi: Callable[[np.ndarray], np.ndarray]
    nu: Callable[[np.ndarray], np.ndarray]
    alpha: float | None = None        # the family's stability index; only "stable" has closed forms
    params: tuple = ()                # hashable family parameters, for caching and reports

    def describe(self) -> dict:
        return {"family": self.family, "alpha": self.alpha, "params": list(self.params)}


def stable_model(alpha: float) -> LevyModel:
    """Symmetric stable process with symbol |xi|^alpha, alpha in (1, 2)."""
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"stability index must lie in (1, 2), got {alpha}")
    c = stable.levy_density_constant(alpha)

    def psi(xi):
        return np.abs(np.asarray(xi, dtype=float)) ** alpha

    def nu(r):
        return c * np.asarray(r, dtype=float) ** (-1.0 - alpha)

    return LevyModel("stable", psi, nu, alpha=alpha, params=(("alpha", alpha),))


def stable_mixture_model(alphas, weights) -> LevyModel:
    """Mixture of stable symbols, psi(xi) = sum w_i |xi|^(alpha_i)."""
    alphas = tuple(float(a) for a in alphas)
    weights = tuple(float(w) for w in weights)
    if len(alphas) != len(weights) or not alphas:
        raise ValueError("alphas and weights must be nonempty and of equal length")
    if any(not 0.0 < a < 2.0 for a in alphas):
        raise ValueError("mixture indices must lie in (0, 2)")
    if any(w <= 0 for w in weights):
        raise ValueError("mixture weights must be positive")
    consts = [w * _density_constant_any(a) for a, w in zip(alphas, weights)]

    def psi(xi):
        xi = np.abs(np.asarray(xi, dtype=float))
        return sum(w * xi ** a for a, w in zip(alphas, weights))

    def nu(r):
        r = np.asarray(r, dtype=float)
        return sum(c * r ** (-1.0 - a) for a, c in zip(alphas, consts))

    return LevyModel("stable-mixture", psi, nu,
                     params=(("alphas", alphas), ("weights", weights)))


def _density_constant_any(alpha: float) -> float:
    # density constant valid on all of (0, 2) except 1, via the reflection identity
    if abs(alpha - 1.0) < 1e-12:
        return 1.0 / math.pi
    return -1.0 / (2.0 * math.gamma(-alpha) * math.cos(math.pi * alpha / 2.0))


def truncated_stable_model(alpha: float, radius: float) -> LevyModel:
    """Stable jump density cut off beyond a fixed radius.

    The density matches the stable one below the cutoff, so all small-scale
    kernels are unchanged; only tails (and the low-frequency symbol) differ.
    The symbol has no closed form and is evaluated by quadrature of nu.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"stability index must lie in (1, 2), got {alpha}")
    if radius <= 0:
        raise ValueError("truncation radius must be positive")
    c = stable.levy_density_constant(alpha)

    def nu(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= radius, c * r ** (-1.0 - alpha), 0.0)

    def psi(xi):
        return _map_scalar(lambda x: _psi_truncated_scalar(alpha, c, radius, abs(x)), xi)

    return LevyModel("truncated-stable", psi, nu, alpha=alpha,
                     params=(("alpha", alpha), ("radius", float(radius))))


def _psi_truncated_scalar(alpha: float, c: float, radius: float, x: float) -> float:
    if x == 0.0:
        return 0.0
    from scipy import integrate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(lambda z: 2.0 * np.sin(0.5 * x * z) ** 2 * z ** (-1.0 - alpha),
                                0.0, radius, limit=400)
    return 2.0 * c * val


def custom_model(nu: Callable, psi: Callable | None = None) -> LevyModel:
    """Model from a user jump density; the symbol defaults to quadrature of nu.

    The caller must supply a nonincreasing ``nu`` (a unimodal process); it is
    not checked.  The config families are nonincreasing by construction.
    The default symbol needs a continuous ``nu`` (see :func:`_psi_by_quadrature`).
    """
    if psi is None:
        def psi(xi):
            return _map_scalar(lambda t: _psi_by_quadrature(nu, t), xi)
    return LevyModel("custom", psi, nu)


def model_from_config(cfg: dict) -> LevyModel:
    """Build a model from a key-value description (see README for the schema)."""
    family = cfg.get("family")
    if family == "stable":
        return stable_model(float(cfg["alpha"]))
    if family == "stable-mixture":
        return stable_mixture_model(cfg["alphas"], cfg.get("weights", [1.0] * len(cfg["alphas"])))
    if family == "truncated-stable":
        return truncated_stable_model(float(cfg["alpha"]), float(cfg["truncation_radius"]))
    raise ValueError(f"unknown model family: {family!r}")


def stable_index(model: LevyModel) -> float:
    """Stability index of a model whose Green and kernel closed forms exist.

    Only the ``stable`` family has them.  Every other family is refused,
    including truncated-stable, which carries an index of its own.
    """
    if model.family != "stable":
        raise ValueError(f"closed forms exist only for the stable family, "
                         f"not for {model.family!r}")
    return model.alpha


def _map_scalar(fn: Callable[[float], float], x):
    """Apply a scalar evaluator elementwise; a scalar argument gives a float."""
    arr = np.asarray(x, dtype=float)
    out = np.array([fn(float(t)) for t in np.atleast_1d(arr).ravel()])
    return out.reshape(arr.shape) if arr.shape else float(out[0])


# ---------------------------------------------------------------------------
# evaluators


def _dyadic_head(quad, f, top: float):
    """int_0^top f as dyadic shells top*[2^-(k+1), 2^-k] plus one closing pass.

    ``quad(f, a, b)`` returns a value and an error estimate; so does this.
    Shells stop once one adds at most 1e-15 of the running total (after at
    least five) or after ``_HEAD_SHELLS``; the closing pass on the rest of
    (0, top) absorbs an integrable power singularity at 0.
    """
    total = err = 0.0
    for k in range(_HEAD_SHELLS):
        lo = top * 0.5 ** (k + 1)
        piece, e = quad(f, lo, top * 0.5 ** k)
        total += piece
        err += e
        if total > 0.0 and piece <= 1e-15 * total and k >= 4:
            break
    piece, e = quad(f, 0.0, lo)
    return total + piece, err + e


def _unit_frequency(quad, g, kind: str):
    """int_0^inf w(u) g(u) du for w = 1 - cos u (``kind`` "cos") or sin u ("sin").

    ``quad(f, a, b)`` returns a value and an error estimate.  The head on
    (0, 10) goes over dyadic shells (:func:`_dyadic_head`).  For "cos" the
    rest is the flat tail int_10^inf g, taken as t = 10/u on (0, 1), minus
    the Fourier tail int_10^inf g cos u; for "sin" it is the Fourier tail
    int_10^inf g sin u.  The Fourier tail is one QUADPACK QAWF call (which
    takes no relative target) with the absolute target 1e-12 |head + flat
    tail|, so the target stays relative however small the integral is.
    Returns the value, the summed error estimate and the Fourier tail.
    """
    from scipy import integrate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if kind == "cos":
            head, err = _dyadic_head(quad, lambda u: 2.0 * np.sin(0.5 * u) ** 2 * g(u), 10.0)
            flat, e = quad(lambda t: 10.0 / (t * t) * g(10.0 / t), 0.0, 1.0)
            head, err = head + flat, err + e
        else:
            head, err = _dyadic_head(quad, lambda u: np.sin(u) * g(u), 10.0)
        osc, e = integrate.quad(g, 10.0, np.inf, weight=kind, wvar=1.0, limit=400,
                                epsabs=1e-12 * abs(head))
    return head + (osc if kind == "sin" else -osc), err + e, osc


def _psi_by_quadrature(nu: Callable, x: float) -> float:
    """Symbol from the jump density: 2 int_0^inf (1 - cos(x z)) nu(z) dz.

    Rescaled to unit frequency, 2 int_0^inf (1 - cos u) nu(u/x)/x du, so the
    Fourier tail always starts at u = 10 with unit wavenumber, and summed by
    :func:`_unit_frequency`.  nu must be continuous: a jump in nu, such as
    the cutoff of ``truncated_stable_model``, can fall inside one shell or
    the Fourier tail and be missed (relative errors up to 7e-4 seen).
    """
    if x == 0.0:
        return 0.0
    x = abs(x)
    from scipy import integrate

    def quad(f, a, b):
        return integrate.quad(f, a, b, limit=400, epsabs=0.0, epsrel=1e-11)

    val, _, _ = _unit_frequency(quad, lambda u: nu(u / x) / x, "cos")
    return 2.0 * val


# ---------------------------------------------------------------------------
# scaling certification


@dataclass(frozen=True)
class ScalingReport:
    """Empirical power-growth exponents of the symbol on a geometric grid.

    ``alpha_low`` and ``alpha_high`` are the infimum and supremum of the
    chord slopes of log psi over all grid pairs, so on the grid
    psi(lam t) / psi(t) lies between lam^alpha_low and lam^alpha_high for
    every lam >= 1: the exponents hold with constant one.  ``alpha_low_1``
    repeats the infimum using only frequencies of at least one; the standing
    hypothesis requires it to exceed one.
    """

    alpha_low: float
    alpha_high: float
    alpha_low_1: float

    @property
    def standing_assumption(self) -> bool:
        return self.alpha_low_1 > 1.0


def estimate_scaling(model: LevyModel) -> ScalingReport:
    """Estimate power-growth exponents of the symbol over frequencies [1e-3, 1e3].

    The grid has 64 geometric points per decade.  A chord slope between grid
    points i < j is the log-theta-weighted mean of the slopes between the
    neighbouring points it spans, so the extremal chord slopes are the
    extremal neighbour slopes.  Nonpositive or non-monotone symbol samples
    raise ``ValueError`` rather than extrapolate.
    """
    theta = np.geomspace(1e-3, 1e3, 384)
    vals = np.asarray(model.psi(theta), dtype=float)

    if np.any(vals <= 0):
        raise ValueError("scaling estimation failed: nonpositive symbol samples")
    if np.any(np.diff(vals) < -1e-12 * vals[:-1]):
        raise ValueError("scaling estimation failed: non-monotone symbol samples")

    slopes = np.diff(np.log(vals)) / np.diff(np.log(theta))
    a_low_1 = float(np.min(slopes[theta[:-1] >= 1.0]))
    return ScalingReport(float(np.min(slopes)), float(np.max(slopes)), a_low_1)


def require_valid_scaling(model: LevyModel) -> ScalingReport:
    """Certify the standing hypothesis (super-linear growth above frequency one).

    ``ValueError`` when it fails, as when :func:`estimate_scaling` refuses the symbol.
    """
    rep = estimate_scaling(model)
    if not rep.standing_assumption:
        raise ValueError(
            f"model rejected: lower scaling exponent above frequency one is "
            f"{rep.alpha_low_1:.4f} <= 1")
    return rep

