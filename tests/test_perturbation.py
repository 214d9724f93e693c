import dataclasses
import json

import numpy as np
import pytest

from levygreen import cli, green, perturbation as pert, stable
from levygreen.geometry import interval_union
from levygreen.kato import DriftField, constant_drift, sin_drift

ALPHA = 1.5


@pytest.fixture(scope="module")
def grid200(unit_interval):
    return pert.build_grid(unit_interval, 200, ALPHA)


@pytest.fixture(scope="module")
def disc200(oracle15, grid200):
    return pert.discretize_green(oracle15, grid200)


def test_grid_invariants(grid200, unit_interval):
    assert np.all(grid200.weights > 0)
    assert grid200.weights.sum() == pytest.approx(2.0, rel=1e-12)
    assert np.all(unit_interval.contains(grid200.nodes))
    assert len(np.unique(grid200.nodes)) == grid200.n


def test_grid_two_interval(two_interval):
    g = pert.build_grid(two_interval, 120, ALPHA)
    assert g.weights.sum() == pytest.approx(sum(b - a for a, b in two_interval.intervals), rel=1e-12)
    assert np.all(two_interval.contains(g.nodes))


def test_green_matrix_symmetric(disc200):
    Gmat, _ = disc200
    assert np.max(np.abs(Gmat - Gmat.T)) == 0.0


def test_row_sums_equal_exit_time(oracle15, unit_interval):
    # quadrature of every Green row reproduces the mean exit time; the
    # acceptance-size grid is what reaches the stated tolerance
    grid = pert.build_grid(unit_interval, 400, ALPHA)
    Gmat, _ = pert.discretize_green(oracle15, grid)
    rows = Gmat @ grid.weights
    closed = stable.mean_exit_time(ALPHA, (-1, 1), grid.nodes)
    assert np.max(np.abs(rows - closed) / closed) < 1e-3


def test_derivative_matrix_reflection_antisymmetry(grid200, disc200):
    # under the mirror map the derivative kernel flips sign
    _, dG = disc200
    flipped = -dG[::-1, ::-1]
    off = ~np.eye(grid200.n, dtype=bool)
    assert np.max(np.abs(dG - flipped)[off]) < 1e-10


def test_derivative_matrix_has_zero_diagonal(disc200):
    # the derivative kernel has no diagonal value; _operator supplies B's diagonal
    _, dG = disc200
    assert not np.any(np.diagonal(dG))


def _operator_oracle(G, b, grid):
    """The Nystrom operator by the three-step rule it replaced.

    The diagonal of dG is the neighbour-averaged remainder against the
    spacing model m = (alpha - 1) K(1) h^(alpha - 2); the singular model is
    built again as a matrix; the closed-form correction is added last.
    """
    z, w, cid = grid.nodes, grid.weights, grid.comp_id
    alpha = G.model.alpha
    _, dG = pert.discretize_green(G, grid)
    m = (alpha - 1.0) * stable.kernel_at_one(alpha) * np.diff(z) ** (alpha - 2.0)
    same = cid[1:] == cid[:-1]
    from_above = np.where(same, np.diagonal(dG, 1) - m, 0.0)
    from_below = np.where(same, np.diagonal(dG, -1) + m, 0.0)
    np.fill_diagonal(dG, (np.r_[0.0, from_above] + np.r_[from_below, 0.0])
                     / (np.r_[0, same] + np.r_[same, 0]))
    gap = z[:, None] - z[None, :]
    keep = (cid[:, None] == cid[None, :]) & (gap != 0.0)
    c_s = (alpha - 1.0) * stable.kernel_at_one(alpha)
    S = np.zeros_like(gap)
    S[keep] = -np.sign(gap[keep]) * c_s * np.abs(gap[keep]) ** (alpha - 2.0)
    bz = np.asarray(b(z), dtype=float)
    B = w[:, None] * bz[:, None] * dG
    ends = np.asarray(grid.domain.intervals, dtype=float)[cid]
    mint = -stable.kernel_at_one(alpha) * ((ends[:, 1] - z) ** (alpha - 1.0)
                                          - (z - ends[:, 0]) ** (alpha - 1.0))
    corr = mint - w @ S
    np.fill_diagonal(B, bz * (w * np.diagonal(dG) + corr))
    return B


# the three-interval domain and index of the benchmark's seed-0 op b.perturb
THREE = interval_union((-1.0, -0.42456375008534586), (-0.1702130258474681, 0.4079455096937472),
                       (0.6529728946954487, 1.2315469374613244))


@pytest.mark.parametrize("case", ["unit-sin", "three-sin", "three-constant"])
def test_operator_matches_three_step_oracle(oracle15, grid200, case):
    if case == "unit-sin":
        G, grid = oracle15, grid200
    else:
        alpha = 1.2522949656098399
        G = green.numeric_table_green(alpha, THREE, nodes_per_component=158)
        grid = pert.build_grid(THREE, 158, alpha)
    b = constant_drift(0.987) if case.endswith("constant") else sin_drift(1.0, 5.0)
    _, dG = pert.discretize_green(G, grid)
    assert pert._operator(G, b, grid, dG).tobytes() == _operator_oracle(G, b, grid).tobytes()


def test_zero_drift_returns_unperturbed(oracle15, grid200):
    pg = pert.solve_perturbed(oracle15, constant_drift(0.0), grid200)
    assert np.array_equal(pg.matrix, pg.unperturbed)
    rep = pert.comparability_report(pg)
    assert rep.constant == 1.0


def _perturbation_series(G, b, grid):
    """Partial sums of G + G B + G B^2 + ... and the sup over G of each term.

    An independent reference for the direct solve: the series that the
    perturbation identity Gt = G + Gt B expands into, summed until a term
    is below 1e-16 of G.
    """
    Gmat, dG = pert.discretize_green(G, grid)
    B = pert._operator(G, b, grid, dG)
    total, term, sizes = Gmat.copy(), Gmat, [1.0]
    for _ in range(100):
        term = term @ B
        sizes.append(float(np.max(np.abs(term) / Gmat)))
        total += term
        if sizes[-1] <= 1e-16:
            break
    return total, sizes


@pytest.fixture(scope="module")
def series15():
    # (-0.15, 0.15), constant drift 1, 160 nodes: kappa_disc below one
    D = interval_union((-0.15, 0.15))
    G = green.stable_oracle(ALPHA, D)
    grid = pert.build_grid(D, 160, ALPHA)
    b = constant_drift(1.0)
    pg = pert.solve_perturbed(G, b, grid)
    series, sizes = _perturbation_series(G, b, grid)
    return pg, series, sizes


def test_modes_agree(series15):
    # the direct solve and the summed perturbation series give one matrix
    pg, series, sizes = series15
    assert pg.kappa_disc < 1.0 and sizes[-1] <= 1e-16
    assert np.max(np.abs(series - pg.matrix) / pg.matrix) < 1e-12
    assert pg.residual < 1e-8


def test_fixed_point_trace_contracts(series15):
    # each term of the series is at most kappa_disc times the one before,
    # in sup over G
    pg, _, sizes = series15
    assert pg.kappa_disc < 1.0
    assert all(s2 <= pg.kappa_disc * s1 * (1 + 1e-9) for s1, s2 in zip(sizes, sizes[1:]))


def test_direct_solve_needs_no_contraction(oracle15, grid200):
    # the discrete interaction bound is above one, where the series need not
    # converge, and the LU solve still meets its residual bound
    pg = pert.solve_perturbed(oracle15, constant_drift(1.0), grid200)
    assert pg.kappa_disc >= 1.0
    assert pg.residual <= 1e-8


def test_reflection_equivariance_even_drift(oracle15, grid200):
    # mirror symmetry maps an even drift to its negative
    bev = DriftField(lambda z: np.cos(3.0 * np.asarray(z, dtype=float)), "bounded-smooth")
    bneg = DriftField(lambda z: -np.cos(3.0 * np.asarray(z, dtype=float)), "bounded-smooth")
    p1 = pert.solve_perturbed(oracle15, bev, grid200)
    p2 = pert.solve_perturbed(oracle15, bneg, grid200)
    assert np.max(np.abs(p1.matrix - p2.matrix[::-1, ::-1])) < 1e-8


def test_reflection_self_symmetry_odd_drift(oracle15, grid200):
    pg = pert.solve_perturbed(oracle15, sin_drift(1.0, 5.0), grid200)
    assert np.max(np.abs(pg.matrix - pg.matrix[::-1, ::-1])) < 1e-8


def test_solution_refines_at_quadrature_order(oracle15, unit_interval):
    b = sin_drift(1.0, 5.0)
    probes = np.array([-0.61, -0.13, 0.27, 0.55])
    sols = {}
    for n in (100, 200, 400):
        grid = pert.build_grid(unit_interval, n, ALPHA)
        pg = pert.solve_perturbed(oracle15, b, grid)
        row = pg.row(0.31)
        sols[n] = np.interp(probes, grid.nodes, row)
    e1 = np.max(np.abs(sols[100] - sols[400]))
    e2 = np.max(np.abs(sols[200] - sols[400]))
    assert e2 < e1 / 1.5


def test_row_solve_matches_matrix(oracle15, grid200):
    pg = pert.solve_perturbed(oracle15, sin_drift(1.0, 5.0), grid200)
    k = 57
    row = pg.row(float(grid200.nodes[k]))
    assert np.max(np.abs(row - pg.matrix[k])) < 1e-10


def test_comparability_report_fields(tmp_path, oracle15, grid200):
    pg = pert.solve_perturbed(oracle15, sin_drift(1.0, 5.0), grid200)
    rep = pert.comparability_report(pg)
    assert rep.inf <= 1.0 <= rep.sup or rep.inf > 0
    assert rep.constant >= max(rep.sup, 1.0 / rep.inf) - 1e-12
    assert sum(rep.hist_counts) + rep.nonpositive == grid200.n ** 2
    # the report as perturb writes it into comparability.json
    path = tmp_path / "comparability.json"
    cli._write_json(path, {"report": rep})
    d = json.loads(path.read_text())["report"]
    assert set(d) == {"n", "sup", "inf", "constant", "kappa_disc", "residual", "hist_edges",
                      "hist_counts", "nonpositive"}
    assert d["constant"] == rep.constant
    assert sum(d["hist_counts"]) + d["nonpositive"] == grid200.n ** 2


def test_histogram_leaves_out_nonpositive_ratios(oracle15, unit_interval):
    grid = pert.build_grid(unit_interval, 40, ALPHA)
    pg = pert.solve_perturbed(oracle15, sin_drift(1.0, 5.0), grid)
    Gt = pg.matrix.copy()
    Gt[3, 7] = -Gt[3, 7]
    rep = pert.comparability_report(dataclasses.replace(pg, matrix=Gt))
    r = Gt / pg.unperturbed
    assert rep.nonpositive == 1 and sum(rep.hist_counts) == grid.n ** 2 - 1
    assert rep.hist_edges[0] == np.log(np.min(r[r > 0]))
    assert rep.constant == np.inf


def test_find_epsilon_zero_drift_returns_max(oracle15):
    eps = pert.find_epsilon(lambda s: interval_union((-s / 2, s / 2)),
                            constant_drift(0.0),
                            lambda dom: green.stable_oracle(ALPHA, dom))
    assert eps == 1.0


def test_find_epsilon_bisection_and_drift_monotonicity():
    builder = lambda dom: green.stable_oracle(ALPHA, dom)
    family = lambda s: interval_union((-s / 2, s / 2))
    e1 = pert.find_epsilon(family, constant_drift(1.0), builder)
    e2 = pert.find_epsilon(family, constant_drift(2.0), builder)
    assert 0 < e2 <= 0.5 * e1
    # the located scale keeps the interaction bound under the threshold
    k = green.kappa_sup(builder(family(e1)), constant_drift(1.0))
    assert k < 1.0 / 3.0


def test_find_epsilon_unreachable_reports_failure():
    builder = lambda dom: green.stable_oracle(ALPHA, dom)
    family = lambda s: interval_union((-s / 2, s / 2))
    with pytest.raises(ValueError, match="above"):
        pert.find_epsilon(family, constant_drift(200.0), builder)


def test_small_domain_two_sided_bounds():
    # interaction bound below 1/3 forces ratios into [1/2, 3/2]
    builder = lambda dom: green.stable_oracle(ALPHA, dom)
    family = lambda s: interval_union((-s / 2, s / 2))
    b = constant_drift(1.0)
    eps = pert.find_epsilon(family, b, builder)
    D = family(eps)
    grid = pert.build_grid(D, 200, ALPHA)
    pg = pert.solve_perturbed(builder(D), b, grid)
    rep = pert.comparability_report(pg)
    assert rep.inf >= 0.5 + 1e-3
    assert rep.sup <= 1.5 - 1e-3


def test_perturbed_poisson_zero_drift_matches(oracle15, grid200):
    pg = pert.solve_perturbed(oracle15, constant_drift(0.0), grid200)
    for z in (1.2, -1.7, 3.0):
        assert pert.perturbed_poisson(pg, 0.3, z) == pytest.approx(
            green.poisson_kernel(oracle15, 0.3, z), rel=2e-3)


def test_perturbed_poisson_mass_and_positivity(oracle15, grid200):
    pg = pert.solve_perturbed(oracle15, sin_drift(1.0, 5.0), grid200)
    zs = np.array([1.05, 1.5, 3.0, -1.2, -6.0])
    assert np.all(pert.perturbed_poisson(pg, 0.0, zs) > 0)
    assert pert.perturbed_poisson_mass(pg, 0.0) == pytest.approx(1.0, abs=1e-2)
    with pytest.raises(ValueError):
        pert.perturbed_poisson(pg, 0.0, 0.5)


def test_perturbed_poisson_small_domain_comparable():
    # in the small-domain regime the perturbed exit density stays within the
    # two-sided Green bracket of the unperturbed one
    D = interval_union((-0.02, 0.02))
    G = green.stable_oracle(ALPHA, D)
    grid = pert.build_grid(D, 160, ALPHA)
    pg = pert.solve_perturbed(G, constant_drift(1.0), grid)
    assert pg.kappa_disc < 1.0 / 3.0
    for z in (0.03, 0.1, -0.5):
        ratio = pert.perturbed_poisson(pg, 0.0, z) / green.poisson_kernel(G, 0.0, z)
        assert 0.5 - 1e-3 <= ratio <= 1.5 + 1e-3
