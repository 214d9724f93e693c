import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import beta, betainc, hyp2f1

from levygreen import green, kernels, models, stable
from levygreen.geometry import delta, interval_union
from levygreen.kato import constant_drift, power_drift

ALPHA = 1.5
A = stable.h_constant(ALPHA)


# ---------------------------------------------------------------------------
# closed-form oracle


def test_oracle_symmetry(oracle15):
    rng = np.random.default_rng(0)
    x, y = rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200)
    assert np.max(np.abs(oracle15.value(x, y) - oracle15.value(y, x))) == 0.0


def test_oracle_vanishes_outside(oracle15):
    assert oracle15.value(1.5, 0.0) == 0.0
    assert oracle15.value(0.0, -1.0) == 0.0
    assert np.all(oracle15.value(np.array([2.0, -3.0]), 0.1) == 0.0)


def test_oracle_boundary_exponent(oracle15):
    # G(x, y)/delta_y^(alpha/2) tends to a positive limit at the boundary
    ds = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    vals = oracle15.value(0.0, 1.0 - ds) / ds ** (ALPHA / 2)
    assert np.all(vals > 0)
    assert abs(vals[-1] - vals[-2]) / vals[-1] < 2e-3


def test_oracle_diagonal_finite(oracle15):
    from math import gamma
    v = oracle15.value(0.3, 0.3)
    lim = 2.0 * (1 - 0.3 ** 2) ** (ALPHA - 1) / (
        (ALPHA - 1) * 2.0 ** ALPHA * gamma(ALPHA / 2) ** 2)
    assert v == pytest.approx(lim, rel=1e-12)


def test_oracle_exit_time_identity(oracle15):
    for x0 in (0.0, 0.6, -0.9):
        et = green.exit_time_from_green(oracle15, x0)
        assert et == pytest.approx(stable.mean_exit_time(ALPHA, (-1, 1), x0), rel=1e-3)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_center_occupation_matches_quadrature(alpha):
    # the integrand has a cusp at 0, so the reference splits geometrically there
    c = stable.exit_time_constant(alpha)
    g = lambda y: stable.green_interval(alpha, (-1, 1), 0.0, y)  # noqa: E731
    for s in np.geomspace(1e-8, 1.0, 17):
        cuts = np.concatenate([[0.0], np.geomspace(1e-14 * s, s, 30)])
        ref = sum(integrate.quad(g, a, b, limit=200, epsabs=1e-16, epsrel=1e-13)[0]
                  for a, b in zip(cuts[:-1], cuts[1:]))
        assert abs(stable.center_occupation(alpha, s) - 0.5 * c - ref) <= 1e-12
        assert abs(0.5 * c - stable.center_occupation(alpha, -s) - ref) <= 1e-12
    assert stable.center_occupation(alpha, [-3.0, -1.0, 0.0, 1.0, 3.0]) == \
        pytest.approx([0.0, 0.0, 0.5 * c, c, c], abs=1e-16)


SERIES_ALPHAS = [1.1, 1.15, 1.3, 1.5, 1.75, 1.9, 1.99]


def _around(*points):
    return [q for p in points for q in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]


@pytest.mark.parametrize("alpha", SERIES_ALPHAS)
def test_incomplete_factor_series_matches_hyp2f1(alpha):
    a = alpha / 2.0
    w = np.concatenate([np.geomspace(1e-8, 1e8, 20001), _around(1.0)])
    ref = w ** a / a * hyp2f1(0.5, a, a + 1.0, -w)
    assert np.max(np.abs(stable._incomplete_factor(alpha, w) / ref - 1.0)) <= 2e-14


@pytest.mark.parametrize("alpha", SERIES_ALPHAS)
def test_center_occupation_series_matches_incomplete_beta(alpha):
    # the closed form through scipy.special that the per-alpha series replace
    a, total = alpha / 2.0, stable.exit_time_constant(alpha)
    s = np.concatenate([np.linspace(-1.0, 1.0, 20001), _around(0.0, 2 ** -0.5, -2 ** -0.5),
                        [1.0 - 1e-15, -1.0 + 1e-15]])
    t = np.abs(s[np.abs(s) < 1.0])
    y = (1.0 - t) * (1.0 + t)
    with np.errstate(divide="ignore"):
        F = np.where(t > 0.0, stable._green_constant(alpha) / alpha * (
            y ** a / a * hyp2f1(0.5, a, a + 1.0, -y / t ** 2)
            + beta(0.5, a) * betainc(0.5, a, t ** 2)), 0.0)
    ref = np.where(s >= 1.0, total, 0.0)
    ref[np.abs(s) < 1.0] = 0.5 * total + np.sign(s[np.abs(s) < 1.0]) * F
    assert np.max(np.abs(stable.center_occupation(alpha, s) - ref)) <= 4e-15 * total
    # F(1) = (B / alpha) Beta(1/2, a), which the far-side series takes as total / 2
    F1 = stable._green_constant(alpha) / alpha * beta(0.5, a)
    assert F1 == pytest.approx(0.5 * total, rel=1e-15, abs=0.0)


def test_oracle_domain_monotonicity():
    inner = green.stable_oracle(ALPHA, interval_union((-0.5, 0.5)))
    outer = green.stable_oracle(ALPHA, interval_union((-1.0, 1.0)))
    rng = np.random.default_rng(1)
    x, y = rng.uniform(-0.5, 0.5, 300), rng.uniform(-0.5, 0.5, 300)
    assert np.all(inner.value(x, y) <= outer.value(x, y) + 1e-14)


def test_oracle_gradient_finite_differences(oracle15):
    x, y = 0.0, 0.3
    an = oracle15.grad_x(x, y)
    errs = []
    for eps in (1e-3, 1e-4, 1e-5):
        fd = (oracle15.value(x + eps, y) - oracle15.value(x - eps, y)) / (2 * eps)
        errs.append(abs(fd - an))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-8


def test_oracle_gradient_reflection(oracle15):
    # mirror symmetry of the domain reflects the gradient with a sign flip
    assert oracle15.grad_x(0.4, -0.2) == pytest.approx(-oracle15.grad_x(-0.4, 0.2), rel=1e-12)


def test_oracle_gradient_sign_near_left_boundary(oracle15):
    # moving off the left boundary toward an interior target increases G
    assert oracle15.grad_x(-0.95, 0.5) > 0
    assert oracle15.grad_x(-0.9, 0.0) > 0


def test_oracle_gradient_rejects_diagonal(oracle15):
    with pytest.raises(ValueError):
        oracle15.grad_x(0.3, 0.3)


def test_oracle_rejects_interval_unions(two_interval):
    with pytest.raises(ValueError):
        green.stable_oracle(ALPHA, two_interval)


# ---------------------------------------------------------------------------
# envelope and punctured line


def test_envelope_example_value(table15, unit_interval):
    # both distances 1/2, gap 1: the 1/|x-y| branch is active
    val = green.green_envelope(unit_interval, table15, -0.5, 0.5)
    V = A ** -0.5 * 0.5 ** (ALPHA / 2)
    assert val == pytest.approx(V * V, rel=1e-8)


def test_envelope_diagonal_branch(table15, unit_interval):
    x = 0.25
    d = float(delta(unit_interval, x))
    val = green.green_envelope(unit_interval, table15, x, x)
    V = A ** -0.5 * d ** (ALPHA / 2)
    assert val == pytest.approx(V * V / d, rel=1e-8)


def test_envelope_zero_outside(table15, unit_interval):
    assert green.green_envelope(unit_interval, table15, 1.5, 0.0) == 0.0


def test_envelope_brackets_oracle(table15, oracle15, unit_interval):
    # constant-free estimate: the oracle/envelope ratio stays in a finite band
    rng = np.random.default_rng(2)
    x, y = rng.uniform(-1, 1, 2000), rng.uniform(-1, 1, 2000)
    ratio = oracle15.value(x, y) / green.green_envelope(unit_interval, table15, x, y)
    assert np.isfinite(ratio).all()
    assert ratio.max() / ratio.min() < 50.0


# ---------------------------------------------------------------------------
# multi-interval numeric representation


def test_numeric_symmetry(numeric15):
    rng = np.random.default_rng(4)
    xs = np.concatenate([rng.uniform(-1, -0.2, 80), rng.uniform(0.2, 1, 80)])
    ys = np.concatenate([rng.uniform(0.2, 1, 80), rng.uniform(-1, -0.2, 80)])
    v, vt = numeric15.value(xs, ys), numeric15.value(ys, xs)
    assert np.max(np.abs(v - vt) / np.maximum(v, 1e-12)) < 5e-3


def test_numeric_reduces_to_oracle_on_one_interval(unit_interval, oracle15):
    G = green.numeric_table_green(ALPHA, unit_interval)
    t = np.linspace(-0.99, 0.99, 41)
    X, Y = np.meshgrid(t, t, indexing="ij")
    off = X != Y
    x, y = X[off], Y[off]
    assert np.array_equal(G.value(x, y), oracle15.value(x, y))
    assert np.array_equal(G.grad_x(x, y), oracle15.grad_x(x, y))


def test_numeric_dominates_component_oracle(numeric15):
    right = green.stable_oracle(ALPHA, interval_union((0.2, 1.0)))
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0.25, 0.95, 100), rng.uniform(0.25, 0.95, 100)
    assert np.all(right.value(x, y) <= numeric15.value(x, y) + 1e-12)


def test_numeric_gradient_finite_differences(numeric15):
    for (x, y) in ((0.5, -0.6), (0.5, 0.8), (-0.4, -0.9)):
        an = numeric15.grad_x(x, y)
        eps = 1e-6
        fd = (numeric15.value(x + eps, y) - numeric15.value(x - eps, y)) / (2 * eps)
        assert an == pytest.approx(fd, rel=5e-4)


def test_numeric_vanishes_outside(numeric15):
    assert numeric15.value(0.0, 0.5) == 0.0          # gap point
    assert numeric15.value(-1.5, 0.5) == 0.0


def test_numeric_gradient_rejects_diagonal(numeric15):
    with pytest.raises(ValueError):
        numeric15.grad_x(0.5, 0.5)
    with pytest.raises(ValueError):
        numeric15.grad_x(np.array([0.3, -0.6]), np.array([0.4, -0.6]))
    # a coincident pair outside the domain is an ordinary zero
    assert numeric15.grad_x(0.0, 0.0) == 0.0
    # the off-diagonal pairs of a grid share their unique values with the
    # diagonal, which must not be evaluated
    t = np.array([-0.6, 0.3, 0.5])
    X, Y = np.meshgrid(t, t, indexing="ij")
    off = X != Y
    each = [numeric15.grad_x(a, b) for a, b in zip(X[off], Y[off])]
    assert numeric15.grad_x(X[off], Y[off]) == pytest.approx(each, rel=1e-12)


@pytest.mark.parametrize("intervals", [((-1.0, -0.2), (0.2, 1.0)),
                                       ((-1.0, -0.5), (-0.3, 0.2), (0.45, 1.0))])
def test_numeric_scattered_pairs_match_the_grid(intervals):
    # 500 pairs take the pairwise path, their 500 x 500 grid the dense one
    D = interval_union(*intervals)
    G = green.numeric_table_green(ALPHA, D)
    rng = np.random.default_rng(8)
    x = green._boundary_biased_points(D, 500, rng)
    y = green._boundary_biased_points(D, 500, rng)
    for fn in (G.value, G.grad_x):
        full = fn(x[:, None], y[None, :])
        # the two paths sum the coupled term in different orders, so the
        # error is measured against the size of each x's row, not against
        # values that may sit near a sign change of the gradient
        scale = np.max(np.abs(full), axis=1)
        assert np.max(np.abs(fn(x, y) - np.diagonal(full)) / scale) <= 1e-14


def test_numeric_scattered_pairs_stay_small(numeric15, two_interval):
    # a dense unique-x by unique-y block would take 2 x 4000^2 doubles (256 MB) each
    rng = np.random.default_rng(9)
    x = green._boundary_biased_points(two_interval, 4000, rng)
    y = green._boundary_biased_points(two_interval, 4000, rng)
    tracemalloc.start()
    try:
        numeric15.value(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


# ---------------------------------------------------------------------------
# exit density


def test_poisson_mass_normalization(oracle15):
    for x0 in (0.0, 0.7, -0.95):
        assert green.poisson_mass(oracle15, x0) == pytest.approx(1.0, abs=1e-3)


def test_poisson_mass_two_interval(numeric15):
    assert green.poisson_mass(numeric15, 0.5) == pytest.approx(1.0, abs=1e-3)


def test_complement_mass_refuses_models_without_closed_forms(unit_interval):
    y, gw = np.array([-0.5, 0.0, 0.5]), np.full(3, 0.4)
    model = models.stable_mixture_model([1.3, 1.7], [1.0, 1.0])
    with pytest.raises(ValueError, match="closed forms exist only for the stable family"):
        green.complement_mass(unit_interval, model, y, gw)


def test_poisson_symmetric_source(oracle15):
    assert green.poisson_kernel(oracle15, 0.0, 1.3) == pytest.approx(
        green.poisson_kernel(oracle15, 0.0, -1.3), rel=1e-12)


def test_poisson_matches_interval_closed_form(oracle15):
    for z in (1.01, 1.4, 2.5, -1.8, -5.0):
        quad = green.poisson_kernel(oracle15, 0.3, z)
        closed = stable.poisson_interval(ALPHA, (-1, 1), 0.3, z)
        assert quad == pytest.approx(closed, rel=1e-3)


def test_poisson_rejects_inside_evaluation(oracle15):
    with pytest.raises(ValueError):
        green.poisson_kernel(oracle15, 0.3, 0.5)
    with pytest.raises(ValueError):
        green.poisson_kernel(oracle15, 1.5, 2.0)


def test_poisson_envelope_bracket(oracle15, table15):
    rep = green.check_poisson_envelope(oracle15, table15, n_samples=150, seed=0)
    assert rep["finite"]
    assert 0 < rep["inf"] <= rep["sup"] < np.inf
    assert rep["sup"] / rep["inf"] < 100.0


def test_poisson_far_field_tracks_jump_density(oracle15, table15, stable15, unit_interval):
    # far away the exit density is the jump density times the mean exit time
    Vdiam = table15.V_at(unit_interval.diam)
    for z in (30.0, 100.0):
        p = green.poisson_kernel(oracle15, 0.2, z)
        ref = table15.V_at(float(delta(unit_interval, 0.2))) * Vdiam * float(stable15.nu(abs(z)))
        assert 0.05 < p / ref < 20.0


def test_poisson_near_boundary_branch(oracle15, table15):
    # just outside the domain the (V(diam)/V(d_z) ^ 1) factor saturates at 1
    z = 1.0 + 1e-5
    dz = z - 1.0
    assert table15.V_at(2.0) / table15.V_at(dz) > 1.0
    p = green.poisson_kernel(oracle15, 0.0, z)
    env = table15.V_at(1.0) / (table15.V_at(dz) * abs(0.0 - z))
    assert 0.01 < p / env < 100.0


# ---------------------------------------------------------------------------
# estimate checkers


def test_gradient_bound_finite_and_stable(oracle15, table15):
    r1 = green.check_gradient_bound(oracle15, table15, n=100)
    r2 = green.check_gradient_bound(oracle15, table15, n=200)
    assert r1["finite"] and r2["finite"]
    assert abs(r1["sup"] - r2["sup"]) / r2["sup"] < 0.10


def test_gradient_near_diagonal_m_form(oracle15, table15, unit_interval):
    # close to the diagonal the bound reduces to the gradient-scale kernel M
    rng = np.random.default_rng(6)
    x = rng.uniform(-0.7, 0.7, 300)
    gap = rng.uniform(1e-4, 1.0, 300) * np.asarray(delta(unit_interval, x)) / 2
    y = x + np.where(rng.random(300) < 0.5, gap, -gap)
    dG = np.abs(oracle15.grad_x(x, y))
    bound = table15.M_at(np.abs(x - y)) + oracle15.value(x, y) / delta(unit_interval, x)
    ratio = dG / bound
    assert np.isfinite(ratio).all()
    assert ratio.max() < 10.0


def test_three_g_finite_and_scale_invariant(oracle15, table15):
    t1 = green.three_g_constant(oracle15, table15, n_triples=30000, seed=0)
    assert t1.finite and np.isfinite(t1.sup)
    # affine rescaling of the domain leaves the stable ratio statistics alone
    big = green.stable_oracle(ALPHA, interval_union((-2.0, 2.0)))
    tbig = kernels.build_table(models.stable_model(ALPHA), diam=4.0,
                               points_per_decade=16)
    t2 = green.three_g_constant(big, tbig, n_triples=30000, seed=0)
    assert t2.sup == pytest.approx(t1.sup, rel=0.05)


def test_kappa_zero_drift(oracle15):
    assert green.kappa(oracle15, constant_drift(0.0), 0.3, -0.2) == 0.0


def test_kappa_shrinks_with_domain():
    # the interaction bound decreases along a shrinking family of fixed
    # distortion and tends to zero
    b = constant_drift(1.0)
    ks = [green.kappa_sup(green.stable_oracle(ALPHA, interval_union((-s, s))), b)
          for s in (1.0, 0.3, 0.1, 0.03)]
    assert all(k2 < k1 for k1, k2 in zip(ks, ks[1:]))
    assert ks[0] > 0 and ks[-1] < 0.25 * ks[0]


def test_kappa_integrand_envelope(oracle15, table15, unit_interval):
    # pointwise: |G(x,z) dG(z,y)| / G(x,y) <= C M(d_z ^ |y-z|) at sampled points
    rng = np.random.default_rng(7)
    x, y = 0.3, -0.4
    z = rng.uniform(-0.999, 0.999, 400)
    z = z[np.abs(z - y) > 1e-6]
    lhs = np.abs(oracle15.value(x, z) * oracle15.grad_x(z, y)) / oracle15.value(x, y)
    rhs = table15.M_at(np.minimum(np.asarray(delta(unit_interval, z)), np.abs(y - z)))
    assert np.isfinite(lhs / rhs).all()
    assert (lhs / rhs).max() < 50.0


def test_exit_cdf_monotone(oracle15, unit_interval):
    cdf = green.exit_law_cdf(lambda z: green.poisson_kernel(oracle15, 0.0, z),
                             unit_interval)
    q = np.linspace(-6, 6, 400)
    F = cdf(q)
    assert np.all(np.diff(F) >= -1e-12)
    assert cdf(-900.0) < 0.02 and cdf(900.0) > 0.98
    assert cdf(0.0) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.75, 1.9])
def test_exit_law_cdf_matches_closed_form_law(alpha, unit_interval):
    # exit law of (-1, 1) from the centre (Blumenthal, Getoor and Ray 1961):
    # F(q) = 1/2 + 1/2 I_{(q-1)(q+1)/q^2}(1 - alpha/2, alpha/2) for q > 1 and
    # F(-q) = 1 - F(q); at alpha 1.9 about 8.5 % of the law lies within one
    # ulp of each endpoint, which the cdf must keep
    cdf = green.exit_law_cdf(lambda z: stable.poisson_interval(alpha, (-1.0, 1.0), 0.0, z),
                             unit_interval)
    q = np.append(1.0 + np.geomspace(1e-15, 1e3, 200), np.nextafter(1.0, 2.0))
    exact = 0.5 + 0.5 * betainc(1.0 - alpha / 2.0, alpha / 2.0, (q - 1.0) * (q + 1.0) / q ** 2)
    assert np.max(np.abs(cdf(q) - exact)) <= 1e-3
    assert np.max(np.abs(cdf(-q) - (1.0 - exact))) <= 1e-3
