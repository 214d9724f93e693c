"""Green and Poisson kernels of interval unions, with estimate checkers.

Two Green-function builders and one estimate shape:

* ``stable_oracle``: the exact closed form on a single interval;
* ``numeric_table_green``: multi-interval domains, built by coupling the
  per-interval closed forms through the exit decomposition -- leaving the
  union means leaving the current interval and either landing outside or
  landing in another component and continuing from there;
* ``green_envelope``: the constant-free boundary-scale shape
  ``V(d_x) V(d_y) (1/sqrt(d_x d_y) ^ 1/|x-y|)`` that the estimates compare
  against.

Exit densities P(x, z) = int G(x, y) nu(z - y) dy (``exit_density``) are
integrated over the complement by one rule, with a closed-form boundary
layer at each endpoint, for both the mass and the exit law.

The checkers quantify comparability statements that the theory leaves
constant-free: the Poisson-kernel envelope, the gradient bound, the
three-function inequality, and the drift-interaction integral kappa.
All empirical constants are reported, never asserted.  ``scipy.linalg``
loads with the first multi-interval ``numeric_table_green``, not with the
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mesh, stable
from .geometry import C11Set, delta
from .kernels import KernelTable
from .models import LevyModel, stable_index, stable_model

__all__ = [
    "GreenFunction",
    "TripleStat",
    "stable_oracle",
    "numeric_table_green",
    "green_envelope",
    "exit_density",
    "poisson_kernel",
    "poisson_mass",
    "complement_mass",
    "exit_law_cdf",
    "exit_time_from_green",
    "check_poisson_envelope",
    "check_gradient_bound",
    "three_g_constant",
    "kappa",
    "kappa_sup",
]


@dataclass(frozen=True)
class GreenFunction:
    """Callable Green-function representation on a fixed domain.

    ``value(x, y)`` broadcasts and vanishes whenever either argument leaves
    the domain; ``grad_x`` differentiates in the first slot.  Evaluators are
    pure and safe to share.
    """

    domain: C11Set
    model: LevyModel
    value: Callable
    grad_x: Callable


def stable_oracle(alpha: float, domain: C11Set) -> GreenFunction:
    """Exact Green function of the stable process on a single interval."""
    if len(domain.intervals) != 1:
        raise ValueError("the closed-form representation needs a single interval; "
                         "use numeric_table_green for interval unions")
    iv = domain.intervals[0]

    def value(x, y):
        return stable.green_interval(alpha, iv, x, y)

    def grad_x(x, y):
        return stable.grad_green_interval(alpha, iv, x, y)

    return GreenFunction(domain, stable_model(alpha), value, grad_x)


def green_envelope(D: C11Set, table: KernelTable, x, y):
    """Constant-free estimate shape V(d_x)V(d_y)(1/sqrt(d_x d_y) ^ 1/|x-y|)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx, dy = delta(D, x), delta(D, y)
    inside = (np.asarray(dx) > 0) & (np.asarray(dy) > 0)
    dxs = np.where(inside, dx, 1.0)
    dys = np.where(inside, dy, 1.0)
    gap = np.abs(x - y)
    core = np.minimum(1.0 / np.sqrt(dxs * dys), 1.0 / np.maximum(gap, 1e-300))
    out = np.where(inside, table.V_at(dxs) * table.V_at(dys) * core, 0.0)
    return out if out.ndim else float(out)


def numeric_table_green(alpha: float, domain: C11Set,
                        nodes_per_component: int = 160) -> GreenFunction:
    """Green function of a finite interval union for the stable process.

    Couples the closed-form single-interval Green and exit kernels: for x in
    component B, G_D(x, y) = G_B(x, y) + int over the other components of
    P_B(x, z) G_D(z, y) dz.  Discretizing the coupling integral on graded
    panels yields one linear system shared by every evaluation point.

    Each closed form vanishes unless its first argument lies in its own
    interval (and the exit kernel unless its second lies outside), so every
    term is the plain sum of the closed forms over the components.  The
    direct term is evaluated pair by pair; the coupled term gathers from the
    unique x and y values, as a dense block of them when
    len(ux) * len(uy) <= pairs * nodes (grids, rows and columns) and pair by
    pair otherwise (scattered pairs), which keeps memory at O(pairs * nodes).
    """
    comps = domain.intervals
    if len(comps) == 1:
        return stable_oracle(alpha, domain)
    from scipy.linalg import lu_factor, lu_solve
    z, w, _ = mesh.graded_components(comps, nodes_per_component, 2.0 / alpha)

    def summed(closed_form, x, y):
        return sum(closed_form(alpha, iv, x, y) for iv in comps)

    P = summed(stable.poisson_interval, z[:, None], z[None, :])
    lu = lu_factor(np.eye(len(z)) - P * w[None, :])

    def _evaluate(x, y, differentiate: bool) -> np.ndarray:
        xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        xf, yf = xb.ravel(), yb.ravel()
        ux, ix = np.unique(xf, return_inverse=True)
        uy, iy = np.unique(yf, return_inverse=True)
        # G_D(z_j, y) at every node against the unique targets, times w_j
        wU = w[:, None] * lu_solve(lu, summed(stable.green_interval, z[:, None], uy[None, :]))
        green_fn, exit_fn = ((stable.grad_green_interval, stable.grad_poisson_interval)
                             if differentiate else (stable.green_interval, stable.poisson_interval))
        prow = summed(exit_fn, ux[:, None], z[None, :])
        if len(ux) * len(uy) <= len(xf) * len(z):
            coupled = (prow @ wU)[ix, iy]
        else:
            coupled = np.einsum("ik,ki->i", prow[ix], wU[:, iy])
        out = (summed(green_fn, xf, yf) + coupled).reshape(xb.shape)
        return out if out.ndim else float(out)

    def value(x, y):
        return _evaluate(x, y, differentiate=False)

    def grad_x(x, y):
        return _evaluate(x, y, differentiate=True)

    return GreenFunction(domain, stable_model(alpha), value, grad_x)


# ---------------------------------------------------------------------------
# quadrature on the domain and on its complement

_FAR_FACTOR = 50.0      # collar width in diameters; the tails beyond are inverted
_N_EXTERIOR = 192       # nodes per exterior piece inside the collar
_LAYER_FRAC = 1e-4      # boundary-layer cutoff as a fraction of r0


def _green_row(G: GreenFunction, x: float, n_per_segment: int):
    """Domain nodes y_j and the weighted Green row G(x, y_j) w_j."""
    y, w = mesh.domain_nodes(G.domain.intervals, (x,), n_per_segment)
    return y, np.asarray(G.value(x, y), dtype=float) * w


def _layer_mass(d, p: float, c0: float, c1: float):
    """Mass within distance d of an endpoint where the density is d^(-p) (c0 + c1 d)."""
    return c0 * d ** (1.0 - p) / (1.0 - p) + c1 * d ** (2.0 - p) / (2.0 - p)


def _exterior_cumulative(D: C11Set, density: Callable,
                         exponent: Callable) -> tuple[Callable, float]:
    """Cumulative mass of an exit density along the line, and its total.

    Power-substituted panels cover the complement down to dcap = _LAYER_FRAC r0
    from each endpoint; beyond a collar of _FAR_FACTOR diameters the tails are
    inverted.  Each layer below dcap is completed with the density
    d^(-p) (C0 + C1 d), p = exponent(P(dcap), P(2 dcap), P(4 dcap)) and C0, C1
    matched at dcap and 2 dcap.  Inside a layer the cumulative is that closed
    antiderivative at the query's own distance d to the endpoint (exact even
    at d of one ulp); elsewhere it is linear between quadrature nodes.
    """
    lo, hi = D.intervals[0][0], D.intervals[-1][1]
    span = _FAR_FACTOR * D.diam
    dcap = _LAYER_FRAC * D.r0

    def nodes(z, w):
        # (knots, cumulative at the middle of each node's mass, total)
        order = np.argsort(z)
        m = np.asarray(density(z[order]), dtype=float) * w[order]
        return z[order], np.cumsum(m) - 0.5 * m, float(np.sum(m))

    gaps = [(b1 + dcap, a2 - dcap, "both")
            for (_, b1), (a2, _) in zip(D.intervals[:-1], D.intervals[1:])]
    collars = [(lo - span, lo - dcap, "right"), (hi + dcap, hi + span, "left")]
    pieces = [nodes(*mesh.power_panels(a, b, 8.0, _N_EXTERIOR, order=8, singular_end=side))
              for a, b, side in gaps + collars]
    # algebraic tails beyond the collar via z = edge +- diam (1/t - 1)
    t, tw = mesh.graded_panels(0.0, 1.0, 64, grading=1.0, order=8)
    for sgn, edge in ((-1.0, lo - span), (1.0, hi + span)):
        pieces.append(nodes(edge + sgn * (1.0 / t - 1.0) * D.diam, D.diam / t ** 2 * tw))
    layers = []
    for e, sgn in ((e, s) for iv in D.intervals for e, s in zip(iv, (-1.0, 1.0))):
        p1, p2, p4 = np.asarray(density(e + sgn * dcap * np.array([1.0, 2.0, 4.0])))
        if p1 <= 0 or p2 <= 0:
            continue
        p = float(exponent(p1, p2, p4))
        c0_plus = p1 * dcap ** p            # C0 + C1 dcap
        c01 = p2 * (2.0 * dcap) ** p        # C0 + 2 C1 dcap
        c1 = (c01 - c0_plus) / dcap
        layers.append((e, sgn, p, c0_plus - c1 * dcap, c1))
        mass = _layer_mass(dcap, *layers[-1][2:])
        pieces.append((np.sort([e, e + sgn * dcap]), np.array([0.0, mass]), mass))

    knots_z, knots_c, total = [], [], 0.0
    for z, c, mass in sorted(pieces, key=lambda piece: piece[0][0]):
        knots_z.append(z)
        knots_c.append(total + c)
        total += mass
    kz, kc = np.concatenate(knots_z), np.maximum.accumulate(np.concatenate(knots_c))

    def cumulative(q):
        qq = np.atleast_1d(np.asarray(q, dtype=float))
        out = np.interp(qq, kz, kc, left=0.0, right=total)
        for e, sgn, p, c0, c1 in layers:
            d = sgn * (qq - e)
            near = (d > 0.0) & (d < dcap)
            out[near] = np.interp(e, kz, kc) + sgn * _layer_mass(d[near], p, c0, c1)
        return out.reshape(np.shape(q))

    return cumulative, total


def exit_density(D: C11Set, model: LevyModel, x: float, y: np.ndarray, gw: np.ndarray, z):
    """Exit density by the occupation formula P(x, z) = sum_j nu(|z - y_j|) gw_j.

    gw is the weighted Green row G(x, y_j) w_j of the source x on the nodes
    y.  x must be inside the domain, z strictly outside its closure.
    """
    if not D.contains(x):
        raise ValueError("source point must lie inside the domain")
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(D.contains(zz)):
        raise ValueError("evaluation points of the exit density must lie outside the domain")
    vals = model.nu(np.abs(zz[:, None] - y[None, :])) @ gw
    return float(vals[0]) if np.ndim(z) == 0 else vals.reshape(np.shape(z))


def poisson_kernel(G: GreenFunction, x: float, z):
    """Exit-position density by the occupation formula P(x, z) = int G(x, y) nu(z - y) dy.

    x must be inside the domain, z strictly outside its closure.
    """
    return exit_density(G.domain, G.model, x, *_green_row(G, x, 96), z)


def complement_mass(D: C11Set, model: LevyModel, y: np.ndarray, gw: np.ndarray) -> float:
    """Mass over the complement of the exit density z -> sum_j nu(|z-y_j|) gw_j.

    The density blows up like d^(-alpha/2) at distance d from the domain, and
    the layer is completed with that exponent: a Nystrom row resolves it too
    coarsely to fit one, so only models with closed forms are accepted.
    """
    p = 0.5 * stable_index(model)
    return _exterior_cumulative(D, lambda zs: model.nu(np.abs(zs[:, None] - y[None, :])) @ gw,
                                lambda *_: p)[1]


def poisson_mass(G: GreenFunction, x: float) -> float:
    """Total mass of the exit density over the complement of the domain."""
    return complement_mass(G.domain, G.model, *_green_row(G, x, 128))


def exit_law_cdf(density: Callable, D: C11Set) -> Callable:
    """Normalized distribution function of an exit density over the complement.

    ``density`` maps exterior positions to the exit density (vectorized).
    The rule is that of ``complement_mass``, with the layer exponent fitted
    as p = 2 log2(P(d)/P(2d)) - log2(P(2d)/P(4d)) at the cutoff d, which
    cancels the first-order term of P ~ d^(-p) (C0 + C1 d).  The law stays
    exact next to each endpoint, where much of it lies at high alpha.
    """
    cumulative, total = _exterior_cumulative(
        D, density, lambda p1, p2, p4: 2.0 * np.log2(p1 / p2) - np.log2(p2 / p4))
    return lambda q: cumulative(q) / total


def exit_time_from_green(G: GreenFunction, x: float) -> float:
    """Mean exit time as the integral of the Green function over the domain."""
    return float(np.sum(_green_row(G, x, 96)[1]))


# ---------------------------------------------------------------------------
# checkers for the constant-free comparability statements


def _dist_to_domain(D: C11Set, z):
    """Distance from an exterior point to the domain closure."""
    z = np.asarray(z, dtype=float)
    endpoints = np.array([e for iv in D.intervals for e in iv])
    d = np.min(np.abs(z[..., None] - endpoints), axis=-1)
    return np.where(D.contains(z), 0.0, d)


def _boundary_biased_points(D: C11Set, n: int, rng):
    """Sample points of D, half of them pushed within 0.1 r0 of an endpoint.

    The depth floor keeps sampled boundary distances inside the range that
    kernel tables can evaluate.
    """
    lengths = np.array([b - a for a, b in D.intervals])
    comp = rng.choice(len(D.intervals), size=n, p=lengths / lengths.sum())
    a, b = np.array(D.intervals)[comp].T
    u = np.clip(rng.random(n), 1e-4, 1.0 - 1e-4)
    x_unif = a + u * (b - a)
    d = np.maximum(rng.random(n), 1e-4) * 0.1 * D.r0
    left = rng.random(n) < 0.5
    x_bnd = np.where(left, a + d, b - d)
    use_bnd = rng.random(n) < 0.5
    return np.where(use_bnd, x_bnd, x_unif)


def check_poisson_envelope(G: GreenFunction, table: KernelTable, n_samples: int = 1000,
                           seed: int = 0) -> dict:
    """Empirical comparability of the quadrature exit density with its envelope.

    The envelope is V(d_x) / (V(d_z) |x-z|) * (V(diam D) / V(d_z) ^ 1) with
    d_z the distance from the exterior point to the domain.  Returns the
    sup and inf of density/envelope over sampled pairs; both must be finite
    and positive for the estimate to hold on the sample.
    """
    D = G.domain
    rng = np.random.default_rng(seed)
    xs = _boundary_biased_points(D, n_samples, rng)
    # exterior points by rejection, the accepted candidates in draw order
    lo, hi = D.intervals[0][0], D.intervals[-1][1]
    zs = np.empty(0)
    while len(zs) < n_samples:
        cand = rng.uniform(lo - 5.0 * D.diam, hi + 5.0 * D.diam, n_samples)
        zs = np.r_[zs, cand[~D.contains(cand) & (_dist_to_domain(D, cand) > 1e-9 * D.diam)]]
    zs = zs[:n_samples]
    Vz = table.V_at(_dist_to_domain(D, zs))
    env = (table.V_at(delta(D, xs)) / (Vz * np.abs(xs - zs))
           * np.minimum(table.V_at(D.diam) / Vz, 1.0))
    ratios = np.array([poisson_kernel(G, float(x), float(z)) for x, z in zip(xs, zs)]) / env
    return {"n": n_samples, "sup": float(np.max(ratios)), "inf": float(np.min(ratios)),
            "finite": bool(np.all(np.isfinite(ratios)))}


def check_gradient_bound(G: GreenFunction, table: KernelTable, n: int = 200) -> dict:
    """Supremum of |dG/dx| (|x-y| ^ d_x) / (G ^ K(|x-y|)) over a graded grid.

    A finite, grid-stable supremum is the numerical content of the gradient
    estimate; the theory provides no value for the constant.  Returns the
    grid size n, the supremum and whether every ratio is finite.
    """
    D = G.domain
    xs = mesh.graded_axis(D.intervals, n)
    X, Y = xs[:, None], xs[None, :]
    keep = np.abs(X - Y) > 1e-4 * D.diam
    Xb, Yb = np.broadcast_arrays(X, Y)
    g = np.asarray(G.value(X, Y), dtype=float)
    dg = np.zeros_like(g)
    dg[keep] = np.asarray(G.grad_x(Xb[keep], Yb[keep]), dtype=float)
    dx = np.asarray(delta(D, Xb), dtype=float)
    gap = np.abs(Xb - Yb)
    Kv = table.K_at(np.clip(gap, table.r[0], table.r[-1]))
    ratio = np.where(keep, np.abs(dg) * np.minimum(gap, dx) / np.minimum(g, Kv), 0.0)
    return {"n": n, "sup": float(np.max(ratio)), "finite": bool(np.all(np.isfinite(ratio)))}


@dataclass(frozen=True)
class TripleStat:
    """Result of a sampled three-point inequality sweep: pairs kept, largest ratio, finiteness."""

    n: int
    sup: float
    finite: bool


def three_g_constant(G: GreenFunction, table: KernelTable, n_triples: int = 100_000,
                     seed: int = 0) -> TripleStat:
    """Empirical constant of the three-point inequality.

    Ratio of G(x,z)G(z,y)/G(x,y) against
    V(d_z) max(G(x,z)/V(d_x), G(z,y)/V(d_y)), maximized over sampled
    triples with boundary bias, where the inequality is tightest.
    """
    D = G.domain
    rng = np.random.default_rng(seed)
    x = _boundary_biased_points(D, n_triples, rng)
    y = _boundary_biased_points(D, n_triples, rng)
    z = _boundary_biased_points(D, n_triples, rng)
    keep = (x != y) & (y != z) & (x != z)
    x, y, z = x[keep], y[keep], z[keep]
    gxz, gzy, gxy = np.split(np.asarray(G.value(np.r_[x, z, x], np.r_[z, y, y]), dtype=float), 3)
    Vx = table.V_at(np.asarray(delta(D, x)))
    Vy = table.V_at(np.asarray(delta(D, y)))
    Vz = table.V_at(np.asarray(delta(D, z)))
    lhs = gxz * gzy / gxy
    rhs = Vz * np.maximum(gxz / Vx, gzy / Vy)
    ratio = lhs / rhs
    return TripleStat(len(ratio), float(np.max(ratio)), bool(np.all(np.isfinite(ratio))))


_KAPPA_GRID = 10        # evaluation points of kappa_sup's supremum


def kappa(G: GreenFunction, b: Callable, x: float, y: float) -> float:
    """Drift-interaction integral int |b(z) G(x,z) dG(z,y)/dz| dz / G(x,y).

    The integrand has an integrable power singularity at z = y; panels are
    split there and at x and graded accordingly.
    """
    D = G.domain
    z, w = mesh.domain_nodes(D.intervals, (x, y), 48, grading=4.0)
    gxz = np.asarray(G.value(x, z), dtype=float)
    dgzy = np.asarray(G.grad_x(z, y), dtype=float)
    gxy = float(G.value(x, y))
    bz = np.abs(np.asarray(b(z), dtype=float))
    val = float(np.sum(np.abs(gxz * dgzy) * bz * w) / gxy)
    if not np.isfinite(val):
        bad = z[~np.isfinite(np.abs(gxz * dgzy) * bz)]
        raise ArithmeticError(
            f"interaction integrand not integrable near the derivative pole at y={y}; "
            f"offending nodes near {bad[:3]}")
    return val


def kappa_sup(G: GreenFunction, b: Callable) -> float:
    """Supremum of kappa over distinct pairs of ``mesh.graded_axis``'s 10-point grid."""
    pts = mesh.graded_axis(G.domain.intervals, _KAPPA_GRID)
    best = 0.0
    for xv in pts:
        for yv in pts:
            if xv == yv:
                continue
            best = max(best, kappa(G, b, float(xv), float(yv)))
    return best

