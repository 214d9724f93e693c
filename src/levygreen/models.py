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

Every family has a closed-form symbol, so this module integrates nothing
and imports no scipy module; the kernel quadratures live in ``kernels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import stable

__all__ = [
    "LevyModel",
    "ScalingReport",
    "stable_model",
    "stable_mixture_model",
    "model_from_config",
    "stable_index",
    "estimate_scaling",
    "require_valid_scaling",
]


@dataclass(frozen=True)
class LevyModel:
    """Immutable description of one process; safe to share across threads."""

    family: str                       # stable | stable-mixture; a caller-built model names its own
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


def model_from_config(cfg: dict) -> LevyModel:
    """Build a model from a key-value description (see README for the schema)."""
    family = cfg.get("family")
    if family == "stable":
        return stable_model(float(cfg["alpha"]))
    if family == "stable-mixture":
        return stable_mixture_model(cfg["alphas"], cfg.get("weights", [1.0] * len(cfg["alphas"])))
    raise ValueError(f"unknown model family: {family!r}")


def stable_index(model: LevyModel) -> float:
    """Stability index of a model whose Green and kernel closed forms exist.

    Only the ``stable`` family has them.  Every other family is refused,
    including ``stable-mixture``, whose components each carry an index.
    """
    if model.family != "stable":
        raise ValueError(f"closed forms exist only for the stable family, "
                         f"not for {model.family!r}")
    return model.alpha


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

