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

Three factors are Gauss hypergeometric functions: the incomplete factor of
the Green function, the centred occupation that each walk-on-spheres ball
adds, and the generator applied to the mean exit time outside its
interval, which the Euler paths' Dynkin scores use.  The Pfaff
transformation and the connection formulas turn each into two power
series, split so that the argument never exceeds 1/2, with coefficients
from the hypergeometric term ratios.  Per alpha, these are cut by
Chebyshev economisation to 13-27 terms and cached; Horner's rule
evaluates them.  The error is a few 1e-15, growing where the connection
formula's two terms cancel: like 1e-15 / (alpha - 1) for the first two
(see ``_incomplete_factor`` and ``center_occupation``), and toward
alpha = 2 for the third (3e-13 at alpha 1.99).  Scalar constants use
``math.gamma``; the module imports nothing from scipy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "levy_density_constant",
    "h_constant",
    "kernel_at_one",
    "exit_time_constant",
    "mean_exit_time",
    "mean_exit_time_generator",
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
    return alpha * (alpha - 1.0) / (2.0 * math.gamma(2.0 - alpha) * abs(np.cos(np.pi * alpha / 2.0)))


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
    return 1.0 / (2.0 * abs(np.cos(np.pi * alpha / 2.0)) * math.gamma(alpha))


def exit_time_constant(alpha: float) -> float:
    """Constant c with E^x tau = c (R^2 - x^2)^(alpha/2) for the interval (-R, R).

    c = sqrt(pi) / (2^alpha Gamma(1 + alpha/2) Gamma((1 + alpha)/2)), which the
    duplication formula turns into 1 / Gamma(1 + alpha).
    """
    _check_alpha(alpha)
    return 1.0 / math.gamma(1.0 + alpha)


def mean_exit_time(alpha: float, interval, x):
    """Mean exit time of the stable process from an interval, vectorized in x."""
    u, radius = _to_unit(interval, x)
    inside = np.abs(u) < 1.0
    val = np.where(inside, exit_time_constant(alpha) * radius ** alpha
                   * np.maximum((1.0 - u) * (1.0 + u), 0.0) ** (alpha / 2.0), 0.0)
    return val if val.ndim else float(val)


@lru_cache(maxsize=64)
def _generator_series(alpha: float):
    """Per-alpha polynomials of ``mean_exit_time_generator`` and its two constants.

    With a = alpha/2: 2F1(1, a+1; alpha+2; z) and 2F1(1, a+1; 1-a; z) on
    [0, 1/2] (``_economised``), then the connection formula's constants
    2 (alpha+1) / alpha and Gamma(alpha+2) Gamma(-a) / Gamma(a+1).
    """
    a = alpha / 2.0
    return (_economised(_hyp_coefficients(1.0, a + 1.0, alpha + 2.0)),
            _economised(_hyp_coefficients(1.0, a + 1.0, 1.0 - a)),
            2.0 * (alpha + 1.0) / alpha,
            math.gamma(alpha + 2.0) * math.gamma(-a) / math.gamma(a + 1.0))


def mean_exit_time_generator(alpha: float, interval, x):
    """The generator applied to an interval's mean exit time, at x outside the closed interval.

    (L v)(x) = int_I v(y) nu(x - y) dy for v = ``mean_exit_time`` on I: the
    rate of jumps from x into I, weighted by the mean exit time where they
    land.  It is scale free.  With v = |u| > 1 the unit coordinate of x,
    a = alpha/2 and the substitution u = 1 - 2t it is
    C c 2^(alpha+1) B(a+1, a+1) (v-1)^(-a) (v+1)^(-a-1) H(w), w = 2/(v+1),
    where H(w) = 2F1(1, a+1; alpha+2; w) after the Pfaff transformation
    (Abramowitz-Stegun 15.3.4), C the jump-density constant and c the
    ``exit_time_constant``.  H is a polynomial for w <= 1/2; for w > 1/2 the
    connection formula (15.3.6) gives
    2 (alpha+1)/alpha 2F1(1, a+1; 1-a; 1-w)
    + Gamma(alpha+2) Gamma(-a)/Gamma(a+1) (1-w)^a w^(-alpha-1).
    Against QUADPACK of the exit density integrated over the starting
    point, the relative error is at most 3e-13 for alpha in [1.01, 1.99]
    and x from 1e-3 of a half-length off either end to 100 half-lengths away.
    """
    _check_alpha(alpha)
    u, _ = _to_unit(interval, x)
    v = np.abs(u)
    if not np.all(v > 1.0):
        raise ValueError("the generator of the mean exit time is taken outside the closed interval")
    near, far, A, B = _generator_series(alpha)
    a = alpha / 2.0
    w = 2.0 / (v + 1.0)
    H = np.empty(v.shape)
    small = w <= 0.5
    H[small] = _horner(near, w[small])
    q = (v[~small] - 1.0) / (v[~small] + 1.0)     # 1 - w
    H[~small] = A * _horner(far, q) + B * q ** a * w[~small] ** (-alpha - 1.0)
    scale = (levy_density_constant(alpha) * exit_time_constant(alpha) * 2.0 ** (alpha + 1.0)
             * math.gamma(a + 1.0) ** 2 / math.gamma(alpha + 2.0))
    out = scale * (v - 1.0) ** -a * (v + 1.0) ** (-a - 1.0) * H
    return out if out.ndim else float(out)


def _green_constant(alpha: float) -> float:
    # prefactor of the hypergeometric interval formula on (-1, 1)
    return 1.0 / (2.0 ** alpha * math.gamma(alpha / 2.0) ** 2)


_TERMS = 60     # Taylor terms: at arguments up to 1/2 each series' tail is below 1e-17


def _hyp_coefficients(a, b, c) -> np.ndarray:
    """The first ``_TERMS`` Taylor coefficients of 2F1(a, b; c; z), from its term ratios."""
    k = np.arange(_TERMS - 1, dtype=float)
    return np.concatenate(([1.0], np.cumprod((a + k) * (b + k) / ((c + k) * (1.0 + k)))))


@lru_cache(maxsize=None)
def _chebyshev_bases() -> tuple[np.ndarray, np.ndarray]:
    """Changes of basis in u = 4z - 1, as two ``_TERMS``-square matrices.

    Column k of the first holds the Chebyshev coefficients of z^k, column j
    of the second the monomial coefficients of the Chebyshev polynomial T_j.
    """
    shift = np.eye(_TERMS, k=-1)            # times u, on monomial coefficients
    times_u = (shift + shift.T) / 2.0       # on Chebyshev ones: u T_j = (T_j-1 + T_j+1) / 2
    times_u[1, 0] = 1.0                     # u T_0 = T_1
    to_cheb, to_mono = np.eye(_TERMS), np.eye(_TERMS)
    for k in range(1, _TERMS):              # z^k = z^(k-1) (u + 1) / 4
        to_cheb[:, k] = (times_u @ to_cheb[:, k - 1] + to_cheb[:, k - 1]) / 4.0
    for j in range(2, _TERMS):              # T_j = 2u T_j-1 - T_j-2
        to_mono[:, j] = 2.0 * shift @ to_mono[:, j - 1] - to_mono[:, j - 2]
    return to_cheb, to_mono


def _economised(taylor: np.ndarray) -> np.ndarray:
    """A Taylor polynomial on [0, 1/2] as a shorter polynomial in z - 1/4.

    The series here converge for |z| < 1, so their Chebyshev coefficients on
    [0, 1/2] fall like (3 + sqrt(8))^-n; those below 2^-56 of the largest are
    dropped, which leaves 13 to 27 of the 60 Taylor terms.  About z = 1/4
    the functions converge in a disc of radius 3/4, so the terms of the
    monomial form fall like 3^-k on [0, 1/2] and Horner's rule is stable.
    """
    to_cheb, to_mono = _chebyshev_bases()
    cheb = to_cheb[:, :len(taylor)] @ taylor
    keep = np.flatnonzero(np.abs(cheb) > 2.0 ** -56 * np.abs(cheb).max())[-1] + 1
    return to_mono[:keep, :keep] @ cheb[:keep] * 4.0 ** np.arange(keep)     # u = 4 (z - 1/4)


@lru_cache(maxsize=64)
def _series(alpha: float):
    """Per-alpha polynomials of the incomplete factor and of the centred occupation.

    With a = alpha/2 they approximate, for z in [0, 1/2] and as polynomials
    in z - 1/4 (``_economised``):
    near = 2F1(1/2, 1; a+1; z) / a and far = 2F1(1/2, 1; 3/2-a; z) / (a - 1/2)
    for ``_incomplete_factor``; P = (1-z)^a far + 2 2F1(1/2, 1-a; 3/2; z) and
    R = [2F1(1/2, 1; a+1; z) - 2F1(1, a+1/2; a+1; z)] / (a z) for
    ``center_occupation``.  The last entry is the constant
    Gamma(a) Gamma(1/2-a) / sqrt(pi) that the connection formula adds.
    """
    a = alpha / 2.0
    base = _hyp_coefficients(0.5, 1.0, a + 1.0)
    far = _hyp_coefficients(0.5, 1.0, 1.5 - a) / (a - 0.5)
    binomial = _hyp_coefficients(-a, 1.0, 1.0)       # (1 - z)^a
    P = np.convolve(binomial, far)[:_TERMS] + 2.0 * _hyp_coefficients(0.5, 1.0 - a, 1.5)
    R = (base - _hyp_coefficients(1.0, a + 0.5, a + 1.0))[1:] / a
    return (*map(_economised, (base / a, far, P, R)),
            math.gamma(a) * math.gamma(0.5 - a) / math.sqrt(math.pi))


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The polynomial sum_k c[k] u^k at u = z - 1/4, in place on one work array."""
    u = z - 0.25
    acc = c[-1] * u
    for ck in c[-2:0:-1]:
        acc += ck
        acc *= u
    acc += c[0]
    return acc


def _incomplete_factor(alpha: float, w):
    """int_0^w u^(a-1) (1+u)^(-1/2) du = w^a/a 2F1(1/2, a; a+1; -w), a = alpha/2.

    Split at w = 1 into two polynomials in an argument of at most 1/2
    (``_series``).  For w <= 1 the Pfaff transformation (Abramowitz-Stegun
    15.3.4) gives w^a/a (1+w)^(-1/2) 2F1(1/2, 1; a+1; s) in s = w/(1+w).
    For w > 1 the connection formula in 1/(1-z) (15.3.8) gives
    Gamma(a) Gamma(1/2-a)/sqrt(pi) + w^a q^(1/2) 2F1(1/2, 1; 3/2-a; q)/(a-1/2)
    in q = 1/(1+w), two terms that cancel by a factor of up to about
    1.5/(alpha-1) just above w = 1.  Measured against 30-digit arithmetic
    over w in [1e-8, 1e8], the relative error is at most 9e-14 at alpha
    1.01, 1.2e-14 at alpha 1.1, 6e-15 at 1.15 and 2e-15 at 1.5, about what
    ``scipy.special.hyp2f1`` achieves (1.1e-14 at alpha 1.1).
    """
    near, far, _, _, offset = _series(alpha)
    a = alpha / 2.0
    w = np.asarray(w, dtype=float)
    out = np.empty(w.shape)
    small = w <= 1.0
    ws = w[small]
    out[small] = ws ** a * _horner(near, ws / (1.0 + ws)) / np.sqrt(1.0 + ws)
    wl = w[~small]
    q = 1.0 / (1.0 + wl)
    out[~small] = offset + wl ** a * np.sqrt(q) * _horner(far, q)
    return out


def center_occupation(alpha: float, s):
    """Expected time spent in (-1, s) before leaving (-1, 1), started at 0.

    The antiderivative of y -> G(0, y) on the unit interval, vectorized in s:
    0 for s <= -1, ``exit_time_constant`` for s >= 1, and in between
    F(1) + sign(s) F(|s|) with the closed form
    F(t) = (B / alpha) [t^alpha I(1/t^2 - 1) + Beta(1/2, a) I_{t^2}(1/2, a)],
    a = alpha/2, I the incomplete factor of the Green function and I_x the
    regularized incomplete beta function.  With x = t^2 it is split at
    x = 1/2 into two polynomials in an argument of at most 1/2 (``_series``):
    for x <= 1/2, by the connection formula in 1/(1-z) (Abramowitz-Stegun
    15.3.8) and the incomplete beta series,
    F(t) = (B / alpha) [t P(x) + Gamma(a) Gamma(1/2-a)/sqrt(pi) t^alpha];
    for y = 1 - x < 1/2, by the Pfaff transformation (15.3.4) and the series
    of the complementary incomplete beta function,
    F(t) = F(1) + (B / alpha) t y^(a+1) R(y), where F(1) = (B / alpha)
    Beta(1/2, a) is ``exit_time_constant`` / 2.  Against the ``hyp2f1``
    and ``betainc`` expression the error is at most 3.4e-15 times
    ``exit_time_constant`` for alpha in [1.1, 2) and 3.6e-14 times it at
    alpha 1.01; against 40-digit arithmetic it is about 1e-15 times it at
    alpha 1.1 and 2e-14 at alpha 1.01.
    """
    _check_alpha(alpha)
    s = np.asarray(s, dtype=float)
    total = exit_time_constant(alpha)
    out = np.where(s > 0.0, total, 0.0)        # F(1) + sign(s) F(1), the far side's base
    _, _, P, R, offset = _series(alpha)
    scale = _green_constant(alpha) / alpha
    flat, res = s.ravel(), out.ravel()
    t = np.abs(flat)
    near = np.flatnonzero(t <= math.sqrt(0.5))
    far = np.flatnonzero((t > math.sqrt(0.5)) & (t < 1.0))
    tn = t[near]
    xn = tn * tn
    res[near] = 0.5 * total + np.sign(flat[near]) * scale * (
        tn * _horner(P, xn) + offset * xn ** (alpha / 2.0))
    # the far side adds F(|s|) - F(1) to its base apart, so s near -1 keeps its digits
    tf = t[far]
    y = (1.0 - tf) * (1.0 + tf)
    res[far] += np.sign(flat[far]) * scale * tf * y ** (alpha / 2.0 + 1.0) * _horner(R, y)
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
