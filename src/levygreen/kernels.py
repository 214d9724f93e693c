"""Kernel hierarchy of one model: h, V, M, the compensated kernel K, and dK.

h(r) integrates the jump density against ``1 ^ (x/r)^2`` and measures the
activity of the process at scale r.  V = 1/sqrt(h) is the boundary scale
function: V(delta) is the natural size of the Green function near a boundary
point at distance delta.  M = V^2/r^2 controls the derivative of the
compensated kernel

    K(x) = (1/pi) int_0^inf (1 - cos(x s)) / psi(s) ds,

an oscillatory integral that we rescale to unit frequency u = |x| s and
split at u = 10: the head goes over dyadic shells, the tail is the
difference of a smooth integral of 1/psi and a Fourier cosine integral (dK
likewise, with a sine tail).  ``compute_h``, ``compute_K`` and
``compute_dK`` evaluate one point with QUADPACK and are the oracle; K and
dK take their split from ``_unit_frequency``, whose one QAWF call
(oscillatory extrapolation) targets 1e-12 of the rest of the integral, so
the target stays relative at every x.  Their callbacks run on Python
floats: the model's psi and nu take a float (see ``models``) and the sine
heads take ``math.sin``, which equals ``np.sin`` on a float, so no
callback builds an array.

A table caches all five kernels on a geometric radius grid and interpolates
monotonically in log-log coordinates.  The batched evaluator takes h, K and
dK at every radius it is given through the same scaled nodes (dyadic shells
in x/r for h; dyadic shells toward u = 0 and u = inf and the half-periods of
the Fourier tails in the unit frequency u for K and dK).  Blocks of 32 radii
bound the nodes held in memory; a fixed Gauss-Legendre rule sums each panel,
giving seven sequences of panel sums per radius, and one pass of Wynn's
epsilon algorithm over all of them closes every sequence of the table, as
QUADPACK's QAGS and QAWF close theirs (Piessens et al., *QUADPACK*, 1983;
Wynn, *MTAC* 10 (1956) 91-96).  A value whose error estimate misses the
1e-10 relative target is recomputed by the oracle.  The stable process is
self-similar, h(r) = h(1) r^-alpha, K(x) = K(1) x^(alpha-1) and
dK(x) = dK(1) x^(alpha-2), so a ``stable`` table runs that evaluation at
r = 1 alone and scales it to the grid; its values lie within 2e-14
relative of the per-radius evaluation, which every other model still
takes.

A table interpolates log V, log M and log K in log r by monotone cubics
whose pieces it computes and evaluates itself, so a lookup costs one
interpolation, a few microseconds for one Python float.  Its invariant
check compares a ``stable`` table with the closed forms of ``stable.py``
and any other table with the QUADPACK oracles; either check runs
QUADPACK for h at the middle radius.  ``scipy.integrate`` (in ``_quad``
and ``_unit_frequency``) loads with the first oracle call: a table's
check, a value that misses its target, or the exact subadditivity check
of a non-stable table.  A ``stable`` table whose r = 1 values meet their
target is built and looked up without any scipy module.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right

import numpy as np

from .models import LevyModel, stable_index
from .stable import h_constant, kernel_at_one

__all__ = [
    "KernelQuadratureError",
    "compute_h",
    "compute_K",
    "compute_dK",
    "KernelTable",
    "build_table",
    "check_table_invariants",
]

C_PSI_BRACKET = np.pi ** 2 / 2.0   # h(r) <= C * psi(1/r); the lower factor is 1/2
_TOL = 1e-10                        # relative target of every kernel quadrature
_REL_SLACK = 1e-9                   # relative slack of the invariant checks
_INTERP_SLACK = 1e-6                # extra slack of checks that interpolate the table
_MAX_PAIRS = 200_000                # pairwise checks sample this many grid pairs at most
_ORACLE_REL = 1e-8                  # table values against the QUADPACK oracle
_HEAD_SHELLS = 40                   # dyadic head shells toward 0 before the closing pass
_PANELS = 40                        # shells or half-periods in each batched panel sequence
_BLOCK = 32                         # radii per batched evaluation (a few MB of nodes)
_SPOT_STRIDE = 64                   # off-grid K values per oracle spot check
_GL20 = np.polynomial.legendre.leggauss(20)
_GL10 = np.polynomial.legendre.leggauss(10)     # companion rule of the error estimate


class KernelQuadratureError(RuntimeError):
    """Raised when a kernel quadrature cannot reach its target tolerance."""


def _quad(f, a, b):
    from scipy import integrate
    val, err = integrate.quad(f, a, b, epsabs=0.0, epsrel=_TOL, limit=400)
    if not np.isfinite(val):
        raise KernelQuadratureError(f"non-finite quadrature value on ({a}, {b})")
    return val, err


def _dyadic_head(f, top: float):
    """int_0^top f as dyadic shells top*[2^-(k+1), 2^-k] plus one closing pass.

    Returns the value and the summed error estimate of :func:`_quad`.
    Shells stop once one adds at most 1e-15 of the running total (after at
    least five) or after ``_HEAD_SHELLS``; the closing pass on the rest of
    (0, top) absorbs an integrable power singularity at 0.
    """
    total = err = 0.0
    for k in range(_HEAD_SHELLS):
        lo = top * 0.5 ** (k + 1)
        piece, e = _quad(f, lo, top * 0.5 ** k)
        total += piece
        err += e
        if total > 0.0 and piece <= 1e-15 * total and k >= 4:
            break
    piece, e = _quad(f, 0.0, lo)
    return total + piece, err + e


def _unit_frequency(g, kind: str):
    """int_0^inf w(u) g(u) du for w = 1 - cos u (``kind`` "cos") or sin u ("sin").

    The head on (0, 10) goes over dyadic shells (:func:`_dyadic_head`).  For
    "cos" the rest is the flat tail int_10^inf g, taken as t = 10/u on
    (0, 1), minus the Fourier tail int_10^inf g cos u; for "sin" it is the
    Fourier tail int_10^inf g sin u.  The Fourier tail is one QUADPACK QAWF
    call (which takes no relative target) with the absolute target
    1e-12 |head + flat tail|, so the target stays relative however small the
    integral is.  Returns the value, the summed error estimate and the
    Fourier tail.
    """
    from scipy import integrate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if kind == "cos":
            head, err = _dyadic_head(lambda u: 2.0 * math.sin(0.5 * u) ** 2 * g(u), 10.0)
            flat, e = _quad(lambda t: 10.0 / (t * t) * g(10.0 / t), 0.0, 1.0)
            head, err = head + flat, err + e
        else:
            head, err = _dyadic_head(lambda u: math.sin(u) * g(u), 10.0)
        osc, e = integrate.quad(g, 10.0, np.inf, weight=kind, wvar=1.0, limit=400,
                                epsabs=1e-12 * abs(head))
    return head + (osc if kind == "sin" else -osc), err + e, osc


def compute_h(model: LevyModel, r: float) -> float:
    """Scale-activity integral h(r) = int (1 ^ x^2/r^2) nu(|x|) dx, r > 0.

    Both pieces are integrated over dyadic shells so that densities living
    on scales far from r (heavy tails, sharp cutoffs) cannot hide between
    the sample points of a single adaptive pass.  The head shells decay only
    like 2^-(2-alpha) for a stable-like density, so after at most 40 of
    them the rest of (0, r) is closed by one adaptive pass, which absorbs
    the integrable power singularity at 0.
    """
    if r <= 0:
        raise ValueError("radius must be positive")

    head, err = _dyadic_head(lambda x: x * x * model.nu(x), r)
    tail = 0.0
    zero_run = 0
    for k in range(200):
        piece, e = _quad(lambda x: model.nu(x), r * 2.0 ** k, r * 2.0 ** (k + 1))
        tail += piece
        err += e
        zero_run = zero_run + 1 if piece == 0.0 else 0
        if (tail > 0.0 and piece <= 1e-15 * tail and k >= 4) or zero_run >= 6:
            break
    val = 2.0 * (head / (r * r) + tail)
    if val <= 0:
        raise KernelQuadratureError(f"h({r}) came out nonpositive")
    if err > 1e-6 * (head + tail):
        raise KernelQuadratureError(
            f"h quadrature reached only {err:.2e} absolute at r={r}")
    return val


def compute_K(model: LevyModel, x: float) -> float:
    """Compensated potential kernel by oscillatory quadrature; K(0) = 0, even."""
    # rescaled to unit frequency: K(x) = (1/pi) int (1 - cos u) / (x psi(u/x)) du,
    # so the oscillatory tail always starts at u = 10 with unit wavenumber
    x = abs(x)
    if x == 0.0:
        return 0.0
    val, err, osc = _unit_frequency(lambda u: 1.0 / (x * model.psi(u / x)), "cos")
    val /= np.pi
    if not np.isfinite(val) or val < 0:
        raise KernelQuadratureError(f"compensated kernel quadrature failed at x={x}")
    if err > max(1e-6 * abs(val), 1e-6 * abs(osc), 1e-10):
        raise KernelQuadratureError(f"quadrature reached only {err:.2e} absolute at x={x}")
    return val


def compute_dK(model: LevyModel, x: float) -> float:
    """Derivative of the compensated kernel at x > 0, where it is positive."""
    if x <= 0:
        raise ValueError("the kernel derivative is taken at x > 0")
    # same unit-frequency rescaling as the kernel itself
    val, err, osc = _unit_frequency(lambda u: u / (x * x * model.psi(u / x)), "sin")
    val /= np.pi
    if not np.isfinite(val):
        raise KernelQuadratureError(f"kernel-derivative quadrature failed at x={x}")
    if err > max(1e-6 * abs(val), 1e-6 * abs(osc), 1e-10):
        raise KernelQuadratureError(f"quadrature reached only {err:.2e} absolute at x={x}")
    return val


_ORACLES = (compute_h, compute_K, compute_dK)     # h, K, dK at one radius


def _closed_forms(model: LevyModel, x: np.ndarray):
    """h, K and dK of a ``stable`` model at the radii x, shape (3, len(x)); else None.

    The closed forms are ``stable.h_constant`` and ``stable.kernel_at_one``
    times powers of x; no other family has them (``models.stable_index``).
    """
    try:
        alpha = stable_index(model)
    except ValueError:
        return None
    k1 = kernel_at_one(alpha)
    return np.array([h_constant(alpha) * x ** -alpha, k1 * x ** (alpha - 1.0),
                     (alpha - 1.0) * k1 * x ** (alpha - 2.0)])


def _panel_rule(edges):
    """Nodes and weights of the 20- and 10-point Gauss-Legendre rules on each panel.

    The panels lie between consecutive ``edges``.  Nodes have shape
    (panels, 30): the 20-point nodes, then the 10-point ones.
    """
    a = np.minimum(edges[:-1], edges[1:])[:, None]
    b = np.maximum(edges[:-1], edges[1:])[:, None]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = np.concatenate([mid + half * _GL20[0], mid + half * _GL10[0]], axis=1)
    return nodes, half * _GL20[1], half * _GL10[1]


def _dyadic_rule(start: float, step: int):
    return _panel_rule(start * 2.0 ** (step * np.arange(_PANELS + 1.0)))


def _half_period_rule(first_zero: float):
    return _panel_rule(np.concatenate([[10.0], first_zero + np.pi * np.arange(_PANELS)]))


_H_HEAD = _dyadic_rule(1.0, -1)         # t = x / r on (0, 1], toward 0
_H_TAIL = _dyadic_rule(1.0, 1)          # t on [1, inf)
_U_HEAD = _dyadic_rule(10.0, -1)        # unit frequency u on (0, 10], toward 0
_U_FLAT = _dyadic_rule(10.0, 1)         # u on [10, inf)
_U_COS = _half_period_rule(3.5 * np.pi)     # u from 10 between the zeros of cos
_U_SIN = _half_period_rule(4.0 * np.pi)     # u from 10 between the zeros of sin


def _panel_sum(f, rule):
    """Partial sums of the integral of f over the panels of ``rule``, and the panel error.

    ``f`` holds the integrand at the rule's nodes, shape (rows, panels, 30).
    A panel's error estimate scales the difference of its 20- and 10-point
    sums as QUADPACK's qk21 does, asc * min(1, (200 |diff| / asc)^1.5) with
    asc the integral of |f - mean f|.  Returns the running sums over the
    panels, shape (rows, panels), and the summed panel errors, shape (rows,);
    :func:`_wynn` closes the sums, and its error adds to the panel errors.
    """
    _, w20, w10 = rule
    i20 = np.einsum("rpk,pk->rp", f[..., :20], w20)
    i10 = np.einsum("rpk,pk->rp", f[..., 20:], w10)
    mean = i20 / w20.sum(axis=-1)
    asc = np.einsum("rpk,pk->rp", np.abs(f[..., :20] - mean[..., None]), w20)
    diff = np.abs(i20 - i10)
    err = np.where(asc > 0, asc * np.minimum(1.0, (200.0 * diff / asc) ** 1.5), diff)
    return np.cumsum(i20, axis=-1), err.sum(axis=-1)


def _wynn(s):
    """Limit of each row of partial sums by Wynn's epsilon algorithm, with an error.

    ``s`` may hold any number of rows in its leading axes; each row's
    result depends on that row alone, so one call closes every panel
    sequence of a table.  The candidates are the last entries of the even
    columns of the epsilon table, column 0 being the partial sums
    themselves.  A candidate's error is its distance to the two entries
    above it in its column; each row takes the candidate with the smallest
    error.  Entries that overflow or divide by zero give no candidate; the
    caller runs it under ``np.errstate``.
    """
    def last(col):
        return col[..., -1], (np.abs(col[..., -1] - col[..., -2])
                              + np.abs(col[..., -1] - col[..., -3]))

    best, err = last(s)
    prev, cur = np.zeros(s.shape[:-1] + (s.shape[-1] + 1,)), s
    for k in range(1, s.shape[-1] - 2):
        prev, cur = cur, prev[..., 1:-1] + 1.0 / np.diff(cur, axis=-1)
        if k % 2 == 0:
            val, e = last(cur)
            take = e < err
            best, err = np.where(take, val, best), np.where(take, e, err)
    return best, err


def _batched_kernels(model: LevyModel, r: np.ndarray):
    """h, K and dK at every radius, and the estimated relative error of each.

    Both results have shape (3, len(r)).  h = 2 r (int_0^1 t^2 nu(r t) dt +
    int_1^inf nu(r t) dt); K and dK use the unit-frequency split of
    ``compute_K`` and ``compute_dK``.  An error is infinite where h or K is
    not positive; a non-finite value has a non-finite error.
    """
    # partial sums and panel errors of the seven panel sequences: the head and
    # tail of h, the heads of K and dK, the flat tail, the cos and sin tails
    sums = np.empty((7, len(r), _PANELS))
    errs = np.empty((7, len(r)))
    # overflow, 0/0 and 1/0 in the nodes or the epsilon table give
    # non-finite errors, which send those radii to the oracle
    with np.errstate(all="ignore"):
        for lo in range(0, len(r), _BLOCK):     # blocks bound the nodes in memory
            blk = slice(lo, lo + _BLOCK)
            xb = r[blk, None, None]             # broadcasts against (panels, nodes)
            t = _H_HEAD[0]
            u, uf, uc, us = _U_HEAD[0], _U_FLAT[0], _U_COS[0], _U_SIN[0]
            g = 1.0 / (xb * model.psi(u / xb))
            seqs = ((t * t * model.nu(xb * t), _H_HEAD),
                    (model.nu(xb * _H_TAIL[0]), _H_TAIL),
                    (2.0 * np.sin(0.5 * u) ** 2 * g, _U_HEAD),
                    (np.sin(u) * u / xb * g, _U_HEAD),
                    (1.0 / (xb * model.psi(uf / xb)), _U_FLAT),
                    (np.cos(uc) / (xb * model.psi(uc / xb)), _U_COS),
                    (np.sin(us) * us / (xb * xb * model.psi(us / xb)), _U_SIN))
            for seq, (f, rule) in enumerate(seqs):
                sums[seq, blk], errs[seq, blk] = _panel_sum(f, rule)
        (head, tail, k_head, d_head, flat, cos, sin), extrap = _wynn(sums)
        e_head, e_tail, e_khead, e_dhead, e_flat, e_cos, e_sin = extrap + errs

        h = 2.0 * r * (head + tail)
        K = (k_head + flat - cos) / np.pi
        dK = (d_head + sin) / np.pi
        rel = np.array([
            np.where(h > 0, 2.0 * r * (e_head + e_tail) / h, np.inf),
            np.where(K > 0, (e_khead + e_flat + e_cos) / np.pi / K, np.inf),
            (e_dhead + e_sin) / np.pi / np.abs(dK)])
    return np.array([h, K, dK]), rel


def _kernel_values(model: LevyModel, r: np.ndarray):
    """h, K and dK at every radius, with the error estimates of the batched sums.

    A value whose estimated relative error misses 1e-10 (or is not finite)
    is recomputed by the QUADPACK oracle.
    """
    vals, err = _batched_kernels(model, r)
    for row, oracle in enumerate(_ORACLES):
        for i in np.flatnonzero(~(err[row] <= _TOL)):
            vals[row, i] = oracle(model, float(r[i]))
    return vals, err


def _pchip_end(h0, h1, m0, m1):
    """End derivative of :func:`_pchip_pieces`: the one-sided three-point estimate, shape-kept."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_pieces(x, y):
    """Coefficients of the monotone cubic (PCHIP) interpolant of y on the knots x.

    The derivative at an inner knot is the weighted harmonic mean of the two
    neighbouring slopes, or 0 where they differ in sign or one vanishes
    (Fritsch and Carlson, *SIAM J. Numer. Anal.* 17 (1980) 238-246); at an
    end it is the shape-kept three-point estimate of Moler, *Numerical
    Computing with MATLAB*, 3.6.  Row k of the result, shape (4, len(x) - 1),
    multiplies (t - x_i)^(3 - k) on piece i: the layout and the arithmetic
    of ``scipy.interpolate.PchipInterpolator``, whose coefficients these are
    bit for bit.
    """
    if not np.isfinite(y).all():
        raise ValueError("a kernel table interpolates finite logarithms only")
    hk = np.diff(x)
    mk = np.diff(y) / hk
    smk = np.sign(mk)
    flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):     # masked by ``flat``
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
        dk = np.concatenate([[_pchip_end(hk[0], hk[1], mk[0], mk[1])],
                             np.where(flat, 0.0, 1.0 / whmean),
                             [_pchip_end(hk[-1], hk[-2], mk[-1], mk[-2])]])
    t = (dk[:-1] + dk[1:] - 2 * mk) / hk
    return np.stack((t / hk, (mk - dk[:-1]) / hk - t, dk[:-1], y[:-1]))


class KernelTable:
    """Write-once grid of the kernel hierarchy with log-log interpolation.

    Built by :func:`build_table`; immutable afterwards and safe to share.
    The lookups take positive radii in the tabulated range, since the
    paper's estimates use V, M and K only at positive distances; a radius
    r <= 0, a NaN, or one outside the range, raises ``ValueError``.  ``M_at``
    alone extends below the grid, by the fitted low-end power law, which the
    Kato-class machinery needs for shrinking windows.  log V, log M and
    log K are monotone cubics in log r (:func:`_pchip_pieces`), and a lookup
    costs one interpolation: a binary search for the piece, the
    ascending-power sum of its cubic in the order ``scipy``'s ``PPoly``
    sums it, and ``np.log``/``np.exp``.  A Python-float radius takes the
    same steps in Python floats, a few microseconds for the QUADPACK
    callbacks of ``kato``, and in the grid returns the float the array path
    returns.  Below the grid it takes numpy's scalar power, as a 0-d array
    does, which is within two units in the last place of the vector power
    an array takes there.
    ``err`` (shape (3, n)) is the estimated relative error of the batched h,
    K and dK at each point: the panel errors plus the error of the one
    epsilon pass that closed the table's panel sequences.  Where it is above
    1e-10 or not finite, the table holds the QUADPACK oracle's value instead.
    A ``stable`` table scales its values from r = 1, so each row of ``err``
    repeats the r = 1 estimate, and where that estimate misses 1e-10 the
    whole row is the oracle's r = 1 value scaled.
    """

    def __init__(self, model: LevyModel, r: np.ndarray, h: np.ndarray, V: np.ndarray,
                 M: np.ndarray, K: np.ndarray, dK: np.ndarray, diam: float, err: np.ndarray):
        self.model = model
        self.r = r
        self.h = h
        self.V = V
        self.M = M
        self.K = K
        self.dK = dK
        self.diam = diam
        self.err = err
        lr = np.log(r)
        self._lr = lr
        self._inv_step = (len(r) - 1) / (lr[-1] - lr[0])
        self._knots = lr.tolist()          # the scalar path's copies, in Python floats
        self._ends = float(r[0]), float(r[-1])
        # the range check allows a relative 1e-12 at both ends, and a lookup
        # there takes the end's value
        self._range = float(r[0] * (1 - 1e-12)), float(r[-1] * (1 + 1e-12))
        self._pieces = {}
        for what, vals in (("V", V), ("M", M), ("K", K)):
            c = _pchip_pieces(lr, np.log(vals))
            self._pieces[what] = c, list(zip(*c.tolist()))    # per piece: c0..c3
        # low-end power behavior, for explicit extension of M below the grid
        k = max(2, len(r) // 16)
        self._M_slope = (np.log(M[k]) - np.log(M[0])) / (lr[k] - lr[0])

    def _refuse(self, what: str):
        raise ValueError(f"{what}: radius outside tabulated range "
                         f"[{self.r[0]:.3e}, {self.r[-1]:.3e}]")

    def _eval(self, what: str, r):
        if isinstance(r, float):
            return self._eval_float(what, r)
        arr = np.asarray(r, dtype=float)
        if not (arr > 0).all():         # NaN fails too
            raise ValueError(f"{what} requires positive radii")
        if not ((arr >= self._range[0]) & (arr <= self._range[1])).all():
            self._refuse(what)
        v = np.log(np.minimum(np.maximum(arr, self._ends[0]), self._ends[1]))
        i = self._piece(v)
        c = self._pieces[what][0].take(i, axis=1)
        s = v - self._lr.take(i)
        ss = s * s
        out = np.exp(((c[3] + c[2] * s) + c[1] * ss) + c[0] * (ss * s))
        return out if out.ndim else float(out)

    def _piece(self, v):
        """Index i of the piece with x_i <= v < x_(i+1), the last piece closed, as PPoly's.

        ``build_table``'s knots are equispaced in log r, so i is guessed from
        the spacing and corrected by one; where that misses (uneven knots)
        a binary search, which costs about ten times more on unsorted radii.
        """
        lr, last = self._lr, len(self._lr) - 2
        i = np.clip(((v - lr[0]) * self._inv_step).astype(np.intp), 0, last)
        i = np.clip(i - (v < lr[i]) + (v >= lr[i + 1]), 0, last)
        miss = (v < lr[i]) | ((v >= lr[i + 1]) & (i < last))
        if miss.any():
            i = np.where(miss, np.clip(np.searchsorted(lr, v, side="right") - 1, 0, last), i)
        return i

    def _eval_float(self, what: str, r: float) -> float:
        """:meth:`_eval` of one radius, step for step in Python floats."""
        if not r > 0:
            raise ValueError(f"{what} requires positive radii")
        if not self._range[0] <= r <= self._range[1]:
            self._refuse(what)
        x = self._knots
        v = float(np.log(min(max(r, self._ends[0]), self._ends[1])))
        i = min(max(bisect_right(x, v) - 1, 0), len(x) - 2)
        c0, c1, c2, c3 = self._pieces[what][1][i]
        s = v - x[i]
        ss = s * s
        return float(np.exp(((c3 + c2 * s) + c1 * ss) + c0 * (ss * s)))

    def V_at(self, r):
        """V at positive radii in the tabulated range."""
        return self._eval("V", r)

    def M_at(self, r):
        """M at positive radii up to the top of the grid; below r[0], the power law."""
        if isinstance(r, float):
            if 0 < r < self._ends[0]:       # numpy scalar power, as for a 0-d array
                return float(self.M[0] * (r / self._ends[0]) ** self._M_slope)
            return self._eval_float("M", r)
        arr = np.asarray(r, dtype=float)
        if not (arr < self.r[0]).any():         # nothing below the grid
            return self._eval("M", arr)
        below = (arr > 0) & (arr < self.r[0])
        inner = self._eval("M", np.where(below, self.r[0], arr))
        out = np.where(below, self.M[0] * (arr / self.r[0]) ** self._M_slope, inner)
        return out if out.ndim else float(out)

    def K_at(self, r):
        """K at positive radii in the tabulated range."""
        return self._eval("K", r)


def build_table(model: LevyModel, diam: float = 1.0,
                points_per_decade: int = 128) -> KernelTable:
    """Tabulate the kernel hierarchy on a geometric grid of radii 1e-6 diam to 1e2 diam.

    h, K and dK come from the batched panel sums; a value whose estimated
    relative error misses 1e-10 is recomputed by the QUADPACK oracle.  A
    ``stable`` model (``models.stable_index``) is exactly self-similar, so
    its table evaluates h, K and dK at r = 1 alone and multiplies them by
    r^-alpha, r^(alpha-1) and r^(alpha-2); every radius takes the r = 1
    error estimate, since relative errors do not depend on the scale.  Any
    other model is evaluated at every radius.
    """
    r_lo, r_hi = 1e-6 * diam, 1e2 * diam
    n = max(8, int(round(points_per_decade * np.log10(r_hi / r_lo))))
    r = np.geomspace(r_lo, r_hi, n)
    try:
        alpha = stable_index(model)
    except ValueError:
        vals, err = _kernel_values(model, r)
    else:
        one, err = _kernel_values(model, np.ones(1))
        vals = one * np.array([r ** -alpha, r ** (alpha - 1.0), r ** (alpha - 2.0)])
        err = np.repeat(err, n, axis=1)
    h, K, dK = vals
    V = 1.0 / np.sqrt(h)
    M = V ** 2 / r ** 2
    return KernelTable(model, r, h, V, M, K, dK, diam, err)


def check_table_invariants(table: KernelTable) -> dict:
    """Monotonicity and subadditivity checks at tabulated points.

    Checks involving only stored grid values allow a relative 1e-9; the pairwise
    subadditivity of K must evaluate the kernel between nodes and therefore
    allows a relative 1e-6 on top (see :func:`check_K_subadditivity_exact`
    for the slower interpolation-free variant).  Pairwise checks use every
    grid pair when there are at most 400 000 of them, otherwise a sample of
    200 000 pairs drawn with seed 0.
    The table's h, K and dK at its first, middle and last radius must also
    match independent values to a relative 1e-8.  For a ``stable`` table
    these are the closed forms (:func:`_closed_forms`) h = h_constant
    r^-alpha, K = kernel_at_one r^(alpha-1) and dK = (alpha-1)
    kernel_at_one r^(alpha-2), which also check the scaling from r = 1 at
    the two ends, eight decades apart, and one QUADPACK value, h at the
    middle radius, so that every table's check runs the per-point routines
    that tables fall back to.  Any other table takes the QUADPACK oracles at
    all nine points, its only independent check.
    Returns a report dict with one boolean per invariant plus the empirical
    constants the theory leaves unquantified and the quadrature diagnostics:
    the oracle difference, the largest estimated relative error of the
    batched values the table kept, and how many values the oracle replaced
    (for a ``stable`` table, the scaled r = 1 values: a whole row or none).
    """
    r, h, V, K, dK, M = table.r, table.h, table.V, table.K, table.dK, table.M
    rep: dict = {}

    rep["h_nonincreasing"] = bool(np.all(h[1:] <= h[:-1] * (1 + _REL_SLACK)))
    rep["V_nondecreasing"] = bool(np.all(V[1:] >= V[:-1] * (1 - _REL_SLACK)))
    rep["M_decreasing"] = bool(np.all(M[1:] <= M[:-1] * (1 + _REL_SLACK)))
    rep["M_blows_up"] = bool(table._M_slope < -1e-3)

    # V(r) <= V(lam r) <= lam V(r) over grid pairs
    n = len(r)
    if n * (n - 1) // 2 <= 2 * _MAX_PAIRS:
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        keep = ii < jj
        i, j = ii[keep], jj[keep]
    else:
        rng = np.random.default_rng(0)
        i = rng.integers(0, n - 1, _MAX_PAIRS)
        j = rng.integers(0, n - 1, _MAX_PAIRS)
        i, j = np.minimum(i, j), np.maximum(i, j) + 1
    lam = r[j] / r[i]
    rep["V_subadditive_bracket"] = bool(
        np.all(V[j] >= V[i] * (1 - _REL_SLACK))
        and np.all(V[j] <= lam * V[i] * (1 + _REL_SLACK)))

    # K(x + y) <= K(x) + K(y); the sum falls between nodes, hence the extra slack
    s = r[i] + r[j]
    okmask = s <= r[-1]
    Ks = table.K_at(s[okmask])
    rep["K_subadditive"] = bool(np.all(Ks <= (K[i][okmask] + K[j][okmask]) * (1 + _INTERP_SLACK) + 1e-300))

    # |dK| <= C M(r ^ diam-scale), finite empirical constant
    Rcap = max(table.diam, 1.0)
    ratio = np.abs(dK) / table.M_at(np.minimum(r, min(Rcap, r[-1])))
    rep["dK_through_M_constant"] = float(np.max(ratio))
    rep["dK_through_M_finite"] = bool(np.isfinite(rep["dK_through_M_constant"]))

    # h(r) against the symbol at the reciprocal radius
    psi_vals = np.asarray(table.model.psi(1.0 / r), dtype=float)
    rep["h_psi_bracket"] = bool(
        np.all(h >= 0.5 * psi_vals * (1 - _REL_SLACK))
        and np.all(h <= C_PSI_BRACKET * psi_vals * (1 + _REL_SLACK)))

    idx = [0, n // 2, n - 1]
    got = np.array([h[idx], K[idx], dK[idx]])
    oracle = _closed_forms(table.model, r[idx])
    if oracle is None:
        oracle = np.array([[fn(table.model, float(r[i])) for i in idx] for fn in _ORACLES])
    else:       # and QUADPACK's h at the middle radius
        got = np.append(got, h[n // 2])
        oracle = np.append(oracle, _ORACLES[0](table.model, float(r[n // 2])))
    rep["quadrature_oracle_rel_diff"] = float(np.max(np.abs(got - oracle) / np.abs(oracle)))
    rep["quadrature_oracle_agrees"] = bool(rep["quadrature_oracle_rel_diff"] <= _ORACLE_REL)
    kept = table.err <= _TOL
    rep["max_est_rel_err"] = float(np.max(table.err[kept], initial=0.0))
    rep["scalar_fallbacks"] = int(np.count_nonzero(~kept))

    rep["all_pass"] = all(v for k, v in rep.items() if isinstance(v, bool))
    return rep


def check_K_subadditivity_exact(table: KernelTable, n_cross: int = 512) -> bool:
    """Interpolation-free subadditivity of K at acceptance-grade slack.

    Verifies K(2r) <= 2 K(r) at every tabulated point and K(x+y) <= K(x)+K(y)
    on a sample of grid pairs drawn with seed 0.  Every off-grid kernel value
    is computed, not looked up in the table: by the batched evaluator of
    ``build_table``, with its oracle fallback, and at every 64th of those
    radii the closed form (:func:`_closed_forms`) of a ``stable`` table, or
    the QUADPACK oracle of any other, must agree to a relative 1e-9, the
    slack of both inequalities.
    """
    r, K = table.r, table.K
    rng = np.random.default_rng(0)
    i = rng.integers(0, len(r), n_cross)
    j = rng.integers(0, len(r), n_cross)
    x = np.concatenate([2.0 * r, r[i] + r[j]])
    Kx = _kernel_values(table.model, x)[0][1]
    spot, at = Kx[::_SPOT_STRIDE], x[::_SPOT_STRIDE]
    closed = _closed_forms(table.model, at)
    oracle = closed[1] if closed is not None else np.array([compute_K(table.model, float(t))
                                                            for t in at])
    if not np.all(np.abs(spot - oracle) <= _REL_SLACK * oracle):
        return False
    K2, Ks = Kx[:len(r)], Kx[len(r):]
    return bool(np.all(K2 <= 2.0 * K * (1 + _REL_SLACK))
                and np.all(Ks <= (K[i] + K[j]) * (1 + _REL_SLACK)))
