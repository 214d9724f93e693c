"""Nystrom solution of the drift-perturbation identity for Green functions.

The perturbed Green function solves a second-kind integral equation in the
source variable:

    Gt(x, y) = G(x, y) + int_D Gt(x, z) b(z) dG(z, y)/dz dz.

Discretized on a boundary-graded grid this is one dense linear system per
source row, all sharing the operator I - B with
``B[z, y] = w_z b(z) dG(z, y)``.  The derivative kernel carries an
integrable power singularity at z = y; its local model S is the derivative
of the compensated kernel, which integrates in closed form.  ``_operator``
alone builds S and the diagonal of B: the bounded remainder dG - S, read
from the neighbouring nodes, plus the difference between the exact singular
integral and what the plain weights would have produced.

One solve: a direct dense LU solve of Gt (I - B) = G.  It needs I - B
invertible, not the contraction (discrete interaction bound kappa below
one) under which the perturbation series Gt = sum_k G B^k converges;
``kappa_disc`` reports that bound.  ``scipy.linalg`` loads with the first
``solve_perturbed``, not with the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mesh, stable
from .geometry import C11Set
from .green import GreenFunction, complement_mass, exit_density, kappa_sup
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
    "SMALL_DOMAIN_KAPPA",
    "perturbed_poisson",
    "perturbed_poisson_mass",
]

_SOLVE_TOL = 1e-8       # relative residual above which a solve is refused
SMALL_DOMAIN_KAPPA = 1.0 / 3.0  # interaction bound that keeps Gt/G within [1/2, 3/2]
_SCALES = (1e-3, 1.0)   # smallest and largest scale find_epsilon tests


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

    @property
    def n(self) -> int:
        return len(self.nodes)


def build_grid(domain: C11Set, n_per_component: int = 200,
               alpha: float = 1.5) -> NystromGrid:
    # at least the exponent that resolves the boundary factor V(delta), and
    # never below 2, which the quadrature error at the diagonal kink needs
    return NystromGrid(domain, *mesh.graded_components(domain.intervals, n_per_component,
                                                       max(2.0, 2.0 / alpha)))


def discretize_green(G: GreenFunction, grid: NystromGrid) -> tuple[np.ndarray, np.ndarray]:
    """Green matrix and derivative matrix on grid x grid.

    The diagonal of the Green matrix is the (finite) diagonal value.  The
    derivative kernel has no diagonal value, so the derivative matrix holds
    0 there; :func:`_operator` supplies the diagonal of the operator.
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
    return Gmat, dG


def _operator(G: GreenFunction, b: Callable, grid: NystromGrid, dG: np.ndarray) -> np.ndarray:
    """Weighted interaction operator B with singularity-corrected diagonal.

    S[j, k] = -dK(z_j - z_k) within a component, else 0, is the local model
    of dG.  B[k, k] is b(z_k) (w_k rem_k + int S(z, z_k) dz - sum_j w_j S[j, k]):
    rem_k, the bounded dG - S at z_k, is its mean at the node's neighbours
    in the component, and the integral over the component is closed-form.
    """
    z, w, cid = grid.nodes, grid.weights, grid.comp_id
    alpha = stable_index(G.model)
    bz = np.asarray(b(z), dtype=float)

    gap = z[:, None] - z[None, :]
    keep = (cid[:, None] == cid[None, :]) & (gap != 0.0)
    k1 = stable.kernel_at_one(alpha)
    S = np.zeros_like(gap)
    S[keep] = -np.sign(gap[keep]) * ((alpha - 1.0) * k1) * np.abs(gap[keep]) ** (alpha - 2.0)
    same = cid[1:] == cid[:-1]       # nodes k and k + 1
    from_above = np.where(same, np.diagonal(dG, 1) - np.diagonal(S, 1), 0.0)
    from_below = np.where(same, np.diagonal(dG, -1) - np.diagonal(S, -1), 0.0)
    rem = (np.r_[0.0, from_above] + np.r_[from_below, 0.0]) / (np.r_[0, same] + np.r_[same, 0])

    B = w[:, None] * bz[:, None] * dG
    ends = np.asarray(grid.domain.intervals, dtype=float)[cid]
    mint = -k1 * ((ends[:, 1] - z) ** (alpha - 1.0) - (z - ends[:, 0]) ** (alpha - 1.0))
    np.fill_diagonal(B, bz * (w * rem + (mint - w @ S)))
    return B


@dataclass(frozen=True)
class PerturbedGreen:
    """Solved perturbed Green function on a Nystrom grid.

    ``matrix[i, j]`` approximates Gt(x_i, y_j); rows index the source.  The
    stored factorization ``lu`` of the transposed operator lets ``row``
    evaluate Gt(x, .) exactly in the discretization for any source x,
    because each source row solves the same linear system independently.
    """

    grid: NystromGrid
    green: GreenFunction
    unperturbed: np.ndarray
    matrix: np.ndarray
    kappa_disc: float
    residual: float
    lu: tuple

    def row(self, x: float) -> np.ndarray:
        """Gt(x, .) at the grid nodes for an arbitrary source point."""
        from scipy.linalg import lu_solve
        g = np.asarray(self.green.value(float(x), self.grid.nodes), dtype=float)
        return lu_solve(self.lu, g)

    def ratios(self) -> np.ndarray:
        return self.matrix / self.unperturbed


def solve_perturbed(G: GreenFunction, b: Callable, grid: NystromGrid) -> PerturbedGreen:
    """Solve the perturbation identity on the grid by one LU factorization of I - B.

    The factor serves every row (and later row queries).  A solve whose
    relative residual exceeds 1e-8 is refused.  No contraction is needed:
    the discrete interaction bound ``kappa_disc`` may exceed one.
    """
    from scipy.linalg import lu_factor, lu_solve
    Gmat, dG = discretize_green(G, grid)
    B = _operator(G, b, grid, dG)
    kappa_disc = float(np.max((Gmat @ np.abs(B)) / Gmat))
    lu = lu_factor((np.eye(grid.n) - B).T)
    tilde = lu_solve(lu, Gmat.T).T
    residual = float(np.max(np.abs(tilde - Gmat - tilde @ B)) / np.max(Gmat))
    if residual > _SOLVE_TOL:
        raise RuntimeError(f"direct solve residual {residual:.2e} exceeds {_SOLVE_TOL:.2e}; "
                           "the system is close to singular")
    return PerturbedGreen(grid, G, Gmat, tilde, kappa_disc, residual, lu)


@dataclass(frozen=True)
class ComparabilityReport:
    """Grid statistics of the ratio Gt/G with the certified constant.

    The histogram bins log(Gt/G) over the positive ratios; ``nonpositive``
    counts the ratios it leaves out.
    """

    n: int
    sup: float
    inf: float
    constant: float
    kappa_disc: float
    residual: float
    hist_edges: tuple
    hist_counts: tuple
    nonpositive: int


def comparability_report(pg: PerturbedGreen) -> ComparabilityReport:
    """Certified constant C = max(sup, 1/inf) of Gt/G, and a 40-bin histogram of log(Gt/G)."""
    r = pg.ratios()
    sup, inf = float(np.max(r)), float(np.min(r))
    if inf <= 0:
        constant = np.inf
    else:
        constant = max(sup, 1.0 / inf)
    # a NaN ratio stays in, and np.histogram refuses it
    kept = r[~(r <= 0)]
    counts, edges = np.histogram(np.log(kept), bins=40)
    return ComparabilityReport(pg.grid.n, sup, inf, float(constant), pg.kappa_disc,
                               pg.residual, tuple(edges), tuple(counts), r.size - kept.size)


def find_epsilon(domain_family: Callable[[float], C11Set], b: Callable,
                 green_builder: Callable[[C11Set], GreenFunction]) -> float:
    """Largest tested scale in [1e-3, 1] whose domain keeps kappa_sup below 1/3.

    The interaction integral shrinks with the domain, so a monotone
    bisection over the scale parameter (12 steps, each halving the bracket
    in log scale) finds the crossing; fails if even the smallest scale is
    at or above the bound ``SMALL_DOMAIN_KAPPA``.
    """
    def kap(s: float) -> float:
        return kappa_sup(green_builder(domain_family(s)), b)

    lo, hi = _SCALES
    if kap(hi) < SMALL_DOMAIN_KAPPA:
        return hi
    if kap(lo) >= SMALL_DOMAIN_KAPPA:
        raise ValueError(
            f"interaction bound stays above {SMALL_DOMAIN_KAPPA:.4g} down to scale {lo}")
    for _ in range(12):
        mid = np.sqrt(lo * hi)
        if kap(mid) < SMALL_DOMAIN_KAPPA:
            lo = mid
        else:
            hi = mid
    return lo


def perturbed_poisson(pg: PerturbedGreen, x: float, z):
    """Exit density of the perturbed process, from the occupation identity."""
    return exit_density(pg.grid.domain, pg.green.model, x, pg.grid.nodes,
                        pg.row(x) * pg.grid.weights, z)


def perturbed_poisson_mass(pg: PerturbedGreen, x: float) -> float:
    return complement_mass(pg.grid.domain, pg.green.model, pg.grid.nodes,
                           pg.row(x) * pg.grid.weights)
