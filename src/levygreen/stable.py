"""Closed forms for the symmetric alpha-stable process on the line.

The process with Fourier symbol ``|xi|**alpha``, alpha in (1, 2), is the one
model for which the whole kernel hierarchy is available in closed form: the
jump-density constant, the compensated kernel, and the classical interval
formulas for the Green function, the Poisson kernel and the mean exit time.
These expressions serve as exact oracles for the generic quadrature and
Monte Carlo machinery; nothing here is tabulated or fitted.

All interval formulas reduce affinely to the unit interval (-1, 1).  The
Green function scales like ``R**(alpha-1)``, its gradient like
``R**(alpha-2)``, and the Poisson kernel is scale free in the sense that it
stays a probability density in the exit position.
"""

from __future__ import annotations

import numpy as np
from scipy.special import beta, betainc, gamma, hyp2f1

__all__ = [
    "levy_density_constant",
    "h_constant",
    "kernel_at_one",
    "exit_time_constant",
    "mean_exit_time",
    "center_occupation",
    "green_interval",
    "grad_green_interval",
    "poisson_interval",
    "grad_poisson_interval",
]


def _check_alpha(alpha: float) -> None:
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"stability index must lie in (1, 2), got {alpha}")


def levy_density_constant(alpha: float) -> float:
    """Constant C(alpha) with nu(z) = C(alpha) |z|^(-1-alpha).

    Normalized so that the symbol is exactly |xi|^alpha, i.e.
    ``2 * C * int_0^inf (1 - cos z) z^(-1-alpha) dz = 1``.
    """
    _check_alpha(alpha)
    return alpha * (alpha - 1.0) / (2.0 * gamma(2.0 - alpha) * abs(np.cos(np.pi * alpha / 2.0)))


def h_constant(alpha: float) -> float:
    """Constant A with h(r) = A * r^(-alpha) for the stable model.

    Follows from integrating (1 ^ x^2/r^2) against the jump density:
    A = 2 C(alpha) (1/(2-alpha) + 1/alpha).
    """
    _check_alpha(alpha)
    return 2.0 * levy_density_constant(alpha) * (1.0 / (2.0 - alpha) + 1.0 / alpha)


def kernel_at_one(alpha: float) -> float:
    """Value at 1 of the compensated potential kernel, K(x) = K(1)|x|^(alpha-1)."""
    _check_alpha(alpha)
    return 1.0 / (2.0 * abs(np.cos(np.pi * alpha / 2.0)) * gamma(alpha))


def exit_time_constant(alpha: float) -> float:
    """Constant c with E^x tau = c (R^2 - x^2)^(alpha/2) for the interval (-R, R)."""
    _check_alpha(alpha)
    return np.sqrt(np.pi) / (2.0 ** alpha * gamma(1.0 + alpha / 2.0) * gamma((1.0 + alpha) / 2.0))


def mean_exit_time(alpha: float, interval, x):
    """Mean exit time of the stable process from an interval, vectorized in x."""
    u, radius = _to_unit(interval, x)
    inside = np.abs(u) < 1.0
    val = np.where(inside, exit_time_constant(alpha) * radius ** alpha
                   * np.maximum((1.0 - u) * (1.0 + u), 0.0) ** (alpha / 2.0), 0.0)
    return val if val.ndim else float(val)


def _green_constant(alpha: float) -> float:
    # prefactor of the hypergeometric interval formula on (-1, 1)
    return 1.0 / (2.0 ** alpha * gamma(alpha / 2.0) ** 2)


def _incomplete_factor(alpha: float, w):
    """int_0^w u^(alpha/2-1) (1+u)^(-1/2) du via a Gauss hypergeometric evaluation."""
    a = alpha / 2.0
    w = np.asarray(w, dtype=float)
    return w ** a / a * hyp2f1(0.5, a, a + 1.0, -w)


def center_occupation(alpha: float, s):
    """Expected time spent in (-1, s) before leaving (-1, 1), started at 0.

    The antiderivative of y -> G(0, y) on the unit interval, vectorized in s:
    0 for s <= -1, ``exit_time_constant`` for s >= 1, and in between
    F(1) + sign(s) F(|s|) with the closed form
    F(s) = (B / alpha) [s^alpha I(1/s^2 - 1) + Beta(1/2, a) I_{s^2}(1/2, a)],
    a = alpha/2, I the incomplete factor of the Green function and I_x the
    regularized incomplete beta function.  The factor s^alpha I(1/s^2 - 1)
    is evaluated as (1-s^2)^a hyp2f1(1/2, a; a+1; -w) / a, which neither
    overflows nor cancels at small s.
    """
    _check_alpha(alpha)
    s = np.asarray(s, dtype=float)
    total = exit_time_constant(alpha)
    out = np.where(s >= 1.0, total, 0.0)
    inner = np.abs(s) < 1.0
    if np.any(inner):
        a = alpha / 2.0
        t = np.abs(s[inner])
        one_minus_sq = (1.0 - t) * (1.0 + t)
        with np.errstate(divide="ignore"):     # t == 0 gives w = inf and F = 0
            w = one_minus_sq / t ** 2
        F = _green_constant(alpha) / alpha * (
            one_minus_sq ** a / a * hyp2f1(0.5, a, a + 1.0, -w)
            + beta(0.5, a) * betainc(0.5, a, t ** 2))
        out[inner] = 0.5 * total + np.sign(s[inner]) * np.where(t > 0.0, F, 0.0)
    return out if out.ndim else float(out)


def _to_unit(interval, *points):
    """Affine reduction of an interval to (-1, 1): the broadcast points, then the half-length."""
    a, b = float(interval[0]), float(interval[1])
    center, radius = 0.5 * (a + b), 0.5 * (b - a)
    scaled = [(np.asarray(p, dtype=float) - center) / radius for p in points]
    return (*np.broadcast_arrays(*scaled), radius)


def green_interval(alpha: float, interval, x, y):
    """Green function of the stable process killed off an open interval.

    Exact for all x, y; zero whenever either argument leaves the interval.
    The diagonal is finite for alpha > 1 and is evaluated by its closed
    limit ``2 B (1-u^2)^(alpha-1) / (alpha-1)`` on the unit interval.
    """
    _check_alpha(alpha)
    u, v, radius = _to_unit(interval, x, y)
    inside = (np.abs(u) < 1.0) & (np.abs(v) < 1.0)
    diag = inside & (u == v)
    off = inside & ~diag

    out = np.zeros(u.shape, dtype=float)
    B = _green_constant(alpha)
    if np.any(off):
        uu, vv = u[off], v[off]
        w = (1.0 - uu ** 2) * (1.0 - vv ** 2) / (uu - vv) ** 2
        out[off] = B * np.abs(uu - vv) ** (alpha - 1.0) * _incomplete_factor(alpha, w)
    if np.any(diag):
        out[diag] = 2.0 * B * (1.0 - u[diag] ** 2) ** (alpha - 1.0) / (alpha - 1.0)
    out *= radius ** (alpha - 1.0)
    return out if out.ndim else float(out)


def grad_green_interval(alpha: float, interval, x, y):
    """x-derivative of the interval Green function (undefined on the diagonal).

    Analytic differentiation of the hypergeometric formula; the local term
    simplifies against ``(1+w)^(-1/2) = |u-v| / (1-uv)`` on the unit interval.
    """
    _check_alpha(alpha)
    u, v, radius = _to_unit(interval, x, y)
    inside = (np.abs(u) < 1.0) & (np.abs(v) < 1.0)
    if np.any(inside & (u == v)):
        raise ValueError("gradient of the Green function is not defined on the diagonal")

    out = np.zeros(u.shape, dtype=float)
    if np.any(inside):
        uu, vv = u[inside], v[inside]
        B = _green_constant(alpha)
        w = (1.0 - uu ** 2) * (1.0 - vv ** 2) / (uu - vv) ** 2
        t1 = (alpha - 1.0) * np.sign(uu - vv) * np.abs(uu - vv) ** (alpha - 2.0) * _incomplete_factor(alpha, w)
        t2 = -2.0 * (1.0 - uu ** 2) ** (alpha / 2.0 - 1.0) * (1.0 - vv ** 2) ** (alpha / 2.0) / (uu - vv)
        out[inside] = B * (t1 + t2)
    out *= radius ** (alpha - 2.0)
    return out if out.ndim else float(out)


def poisson_interval(alpha: float, interval, x, z):
    """Exit-position density from an interval started at x, evaluated at z outside.

    Integrates to one over the complement: the process leaves by a jump and
    does not hit the two boundary points at its first exit.
    """
    _check_alpha(alpha)
    u, v, radius = _to_unit(interval, x, z)
    ok = (np.abs(u) < 1.0) & (np.abs(v) > 1.0)
    out = np.zeros(u.shape, dtype=float)
    if np.any(ok):
        uu, vv = u[ok], v[ok]
        out[ok] = (
            np.sin(np.pi * alpha / 2.0) / np.pi
            * ((1.0 - uu ** 2) / (vv ** 2 - 1.0)) ** (alpha / 2.0)
            / np.abs(uu - vv)
        ) / radius
    return out if out.ndim else float(out)


def grad_poisson_interval(alpha: float, interval, x, z):
    """x-derivative of the interval exit density, used by multi-interval solvers."""
    _check_alpha(alpha)
    u, v, radius = _to_unit(interval, x, z)
    ok = (np.abs(u) < 1.0) & (np.abs(v) > 1.0)
    out = np.zeros(u.shape, dtype=float)
    if np.any(ok):
        uu, vv = u[ok], v[ok]
        c = np.sin(np.pi * alpha / 2.0) / np.pi
        q = ((1.0 - uu ** 2) / (vv ** 2 - 1.0)) ** (alpha / 2.0)
        d1 = -alpha * uu * (1.0 - uu ** 2) ** (alpha / 2.0 - 1.0) / (vv ** 2 - 1.0) ** (alpha / 2.0) / np.abs(uu - vv)
        d2 = q * np.sign(vv - uu) / (uu - vv) ** 2
        out[ok] = c * (d1 + d2) / radius ** 2
    return out if out.ndim else float(out)
