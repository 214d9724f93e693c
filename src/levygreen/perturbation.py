"""Nystrom solution of the drift-perturbation identity for Green functions.

The perturbed Green function solves a second-kind integral equation in the
source variable:

    Gt(x, y) = G(x, y) + int_D Gt(x, z) b(z) dG(z, y)/dz dz.

Discretized on a boundary-graded grid this is one dense linear system per
source row, all sharing the operator I - B with
``B[z, y] = w_z b(z) dG(z, y)``.  The derivative kernel carries an
integrable power singularity at z = y; its local model is the derivative of
the compensated kernel, which integrates in closed form, so the diagonal of
B absorbs the difference between the exact singular integral and what the
plain weights would have produced.

Two solve modes: a direct dense solve (works whenever I - B is invertible)
and the fixed-point iteration Gt <- G + Gt B, which converges exactly when
the discrete interaction bound kappa is below one and doubles as a
contraction diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from . import mesh, stable
from .geometry import C11Set
from .green import GreenFunction, complement_mass
from .models import stable_index

__all__ = [
    "NystromGrid",
    "PerturbedGreen",
    "ComparabilityReport",
    "build_grid",
    "discretize_green",
    "solve_perturbed",
    "comparability_report",
    "find_epsilon",
    "perturbed_poisson",
    "perturbed_poisson_mass",
]


@dataclass(frozen=True)
class NystromGrid:
    """Quadrature nodes strictly inside the domain, graded at component ends.

    :func:`build_grid` grades with max(2, 2/alpha), which is 2 for every
    alpha in (1, 2).  Weights are positive and sum to the total length of the domain.
    """

    domain: C11Set
    nodes: np.ndarray
    weights: np.ndarray
    comp_id: np.ndarray
    grading: float

    @property
    def n(self) -> int:
        return len(self.nodes)


def build_grid(domain: C11Set, n_per_component: int = 200, alpha: float = 1.5,
               order: int = 6) -> NystromGrid:
    # at least the exponent that resolves the boundary factor V(delta), and
    # never below 2, which the quadrature error at the diagonal kink needs
    grading = max(2.0, 2.0 / alpha)
    return NystromGrid(domain, *mesh.graded_components(domain.intervals, n_per_component,
                                                       grading, order), grading)


def discretize_green(G: GreenFunction, grid: NystromGrid) -> tuple[np.ndarray, np.ndarray]:
    """Green matrix and derivative matrix on grid x grid.

    The diagonal of the Green matrix is the (finite) diagonal value.  The
    derivative kernel has no diagonal value; its diagonal entries hold the
    bounded remainder after subtracting the local singular model, estimated
    from the neighboring nodes, which is what the operator assembly needs.
    """
    z = grid.nodes
    if len(np.unique(z)) != len(z):
        raise ValueError("grid nodes must be distinct")
    Gmat = np.asarray(G.value(z[:, None], z[None, :]), dtype=float)

    n = grid.n
    off = ~np.eye(n, dtype=bool)
    dG = np.zeros((n, n))
    Zi, Zj = np.broadcast_arrays(z[:, None], z[None, :])
    dG[off] = np.asarray(G.grad_x(Zi[off], Zj[off]), dtype=float)

    # bounded remainder dG(z, y) + dK(z - y) at z = y, from adjacent nodes
    alpha = stable_index(G.model)
    c_s = (alpha - 1.0) * stable.kernel_at_one(alpha)
    for k in range(n):
        vals = []
        for j in (k - 1, k + 1):
            if 0 <= j < n and grid.comp_id[j] == grid.comp_id[k]:
                m = -np.sign(z[j] - z[k]) * c_s * np.abs(z[j] - z[k]) ** (alpha - 2.0)
                vals.append(dG[j, k] - m)
        dG[k, k] = float(np.mean(vals)) if vals else 0.0
    return Gmat, dG


def _operator(G: GreenFunction, b: Callable, grid: NystromGrid,
              Gmat: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """Weighted interaction operator B with singularity-corrected diagonal."""
    z, w, cid = grid.nodes, grid.weights, grid.comp_id
    n = grid.n
    alpha = stable_index(G.model)
    K1 = stable.kernel_at_one(alpha)
    c_s = (alpha - 1.0) * K1
    bz = np.asarray(b(z), dtype=float)

    B = w[:, None] * bz[:, None] * dG
    # diagonal: w_k rem_k plus the closed-form integral of the singular model
    # minus what the plain weights assign to it
    for k in range(n):
        a_c, b_c = grid.domain.intervals[cid[k]]
        mint = -K1 * ((b_c - z[k]) ** (alpha - 1.0) - (z[k] - a_c) ** (alpha - 1.0))
        same = (cid == cid[k]) & (np.arange(n) != k)
        m_vals = -np.sign(z[same] - z[k]) * c_s * np.abs(z[same] - z[k]) ** (alpha - 2.0)
        corr = mint - float(w[same] @ m_vals)
        B[k, k] = bz[k] * (w[k] * dG[k, k] + corr)
    return B


@dataclass
class PerturbedGreen:
    """Solved perturbed Green function on a Nystrom grid.

    ``matrix[i, j]`` approximates Gt(x_i, y_j); rows index the source.  The
    stored operator factorization lets ``row`` evaluate Gt(x, .) exactly in
    the discretization for any source x, because each source row solves the
    same linear system independently.
    """

    grid: NystromGrid
    green: GreenFunction
    unperturbed: np.ndarray
    matrix: np.ndarray
    operator: np.ndarray
    kappa_disc: float
    mode: str
    converged: bool
    residual: float
    trace: list = field(default_factory=list)
    _lu: tuple | None = None

    def row(self, x: float) -> np.ndarray:
        """Gt(x, .) at the grid nodes for an arbitrary source point."""
        g = np.asarray(self.green.value(float(x), self.grid.nodes), dtype=float)
        return lu_solve(self._lu, g)

    def ratios(self) -> np.ndarray:
        return self.matrix / self.unperturbed


def solve_perturbed(G: GreenFunction, b: Callable, grid: NystromGrid,
                    mode: str = "direct", tol: float = 1e-8,
                    max_iter: int = 200) -> PerturbedGreen:
    """Solve the perturbation identity on the grid.

    direct mode factors I - B once and reuses it for every row (and later
    row queries); fixed-point mode iterates Gt <- G + Gt B and requires the
    discrete interaction bound kappa below one, recording the sup-change
    trace relative to the unperturbed kernel as a contraction diagnostic.
    """
    Gmat, dG = discretize_green(G, grid)
    B = _operator(G, b, grid, Gmat, dG)
    kappa_disc = float(np.max((Gmat @ np.abs(B)) / Gmat))
    lu = lu_factor((np.eye(grid.n) - B).T)

    trace: list[float] = []
    if mode == "direct":
        tilde = lu_solve(lu, Gmat.T).T
        converged = True
    elif mode == "fixed_point":
        if kappa_disc >= 1.0:
            raise ValueError(
                f"fixed-point iteration refused: discrete interaction bound "
                f"{kappa_disc:.3f} >= 1; use direct mode")
        tilde = Gmat.copy()
        converged = False
        for _ in range(max_iter):
            nxt = Gmat + tilde @ B
            change = float(np.max(np.abs(nxt - tilde) / Gmat))
            trace.append(change)
            tilde = nxt
            if change <= tol:
                converged = True
                break
    else:
        raise ValueError(f"unknown mode {mode!r}")

    residual = float(np.max(np.abs(tilde - Gmat - tilde @ B)) / np.max(Gmat))
    if mode == "direct" and residual > tol:
        raise RuntimeError(f"direct solve residual {residual:.2e} exceeds {tol:.2e}; "
                           "the system is close to singular")
    return PerturbedGreen(grid, G, Gmat, tilde, B, kappa_disc, mode,
                          converged, residual, trace, lu)


@dataclass(frozen=True)
class ComparabilityReport:
    """Grid statistics of the ratio Gt/G with the certified constant."""

    n: int
    sup: float
    inf: float
    constant: float
    kappa_disc: float
    mode: str
    converged: bool
    residual: float
    hist_edges: tuple
    hist_counts: tuple

    def to_dict(self) -> dict:
        return {
            "n": self.n, "sup": self.sup, "inf": self.inf, "constant": self.constant,
            "kappa_disc": self.kappa_disc, "mode": self.mode,
            "converged": self.converged, "residual": self.residual,
            "hist_edges": list(self.hist_edges), "hist_counts": list(self.hist_counts),
        }


def comparability_report(pg: PerturbedGreen, n_bins: int = 40) -> ComparabilityReport:
    """Certified two-sided comparability constant C = max(sup, 1/inf) of Gt/G."""
    r = pg.ratios()
    sup, inf = float(np.max(r)), float(np.min(r))
    if inf <= 0:
        constant = np.inf
    else:
        constant = max(sup, 1.0 / inf)
    counts, edges = np.histogram(np.log(np.clip(r, 1e-300, None)), bins=n_bins)
    return ComparabilityReport(pg.grid.n, sup, inf, float(constant), pg.kappa_disc,
                               pg.mode, pg.converged, pg.residual,
                               tuple(edges), tuple(counts))


def find_epsilon(domain_family: Callable[[float], C11Set], b: Callable,
                 green_builder: Callable[[C11Set], GreenFunction],
                 threshold: float = 1.0 / 3.0, s_min: float = 1e-3, s_max: float = 1.0,
                 bisection_steps: int = 12, n_grid: int = 12) -> float:
    """Largest tested scale whose domain keeps the interaction bound below threshold.

    The interaction integral shrinks with the domain, so a monotone
    bisection over the scale parameter finds the crossing; fails if even the
    smallest tested scale is above threshold.
    """
    from .green import kappa_sup

    def kap(s: float) -> float:
        return kappa_sup(green_builder(domain_family(s)), b, n_grid=n_grid)

    if kap(s_max) < threshold:
        return s_max
    if kap(s_min) >= threshold:
        raise ValueError(
            f"interaction bound stays above {threshold} down to scale {s_min}")
    lo, hi = s_min, s_max
    for _ in range(bisection_steps):
        mid = np.sqrt(lo * hi)
        if kap(mid) < threshold:
            lo = mid
        else:
            hi = mid
    return lo


def perturbed_poisson(pg: PerturbedGreen, x: float, z):
    """Exit density of the perturbed process, from the occupation identity."""
    D = pg.grid.domain
    if not D.contains(x):
        raise ValueError("source point must lie inside the domain")
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(D.contains(zz)):
        raise ValueError("evaluation points of the exit density must lie outside the domain")
    gw = pg.row(x) * pg.grid.weights
    vals = pg.green.model.nu(np.abs(zz[:, None] - pg.grid.nodes[None, :])) @ gw
    return float(vals[0]) if np.ndim(z) == 0 else vals.reshape(np.shape(z))


def perturbed_poisson_mass(pg: PerturbedGreen, x: float) -> float:
    gw = pg.row(x) * pg.grid.weights
    return complement_mass(pg.grid.domain, pg.green.model, pg.grid.nodes, gw)