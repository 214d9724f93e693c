import re
import warnings

import numpy as np
import pytest

from levygreen import cli, kernels, models, stable

ALPHA = 1.5
K1 = stable.kernel_at_one(ALPHA)            # = sqrt(2/pi) for this index
A = stable.h_constant(ALPHA)


def test_h_closed_form():
    m = models.stable_model(ALPHA)
    for r in (1e-4, 0.3, 1.0, 50.0):
        assert kernels.compute_h(m, r) == pytest.approx(A * r ** -ALPHA, rel=1e-10)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 1.9])
def test_h_closed_form_down_to_the_head_tail(alpha):
    # the head shells decay slowly for alpha near 2; the part of (0, r) they
    # leave over must still be integrated
    m = models.stable_model(alpha)
    for r in np.geomspace(1e-6, 1e2, 9):
        want = stable.h_constant(alpha) * r ** -alpha
        assert kernels.compute_h(m, float(r)) == pytest.approx(want, rel=1e-12)


def test_h_dilation_bracket():
    m = models.stable_model(ALPHA)
    for r in (0.1, 1.0, 10.0):
        h1, h2 = kernels.compute_h(m, r), kernels.compute_h(m, 2 * r)
        assert h2 <= h1 <= 4.0 * h2


def test_h_psi_bracket():
    m = models.stable_model(ALPHA)
    for r in (1e-3, 1.0, 1e2):
        h = kernels.compute_h(m, r)
        psi = float(m.psi(1.0 / r))
        assert 0.5 * psi <= h <= kernels.C_PSI_BRACKET * psi


def test_h_truncated_vanishes_at_infinity():
    # beyond the cutoff only the second-moment head remains, so h ~ r^-2;
    # the tail shells end on a run of zero pieces
    s = models.stable_model(ALPHA)
    m = models.LevyModel("custom", s.psi,
                         lambda r: np.where(np.asarray(r) <= 1.0, s.nu(r), 0.0))
    vals = [kernels.compute_h(m, r) for r in (10.0, 100.0, 1000.0)]
    assert vals[0] > vals[1] > vals[2] > 0
    assert vals[2] / vals[0] == pytest.approx(1e-4, rel=1e-6)


def test_V_closed_form_and_zero(table15):
    # the estimates use V only at positive distances; r = 0 is refused
    with pytest.raises(ValueError, match="positive radii"):
        table15.V_at(0.0)
    for r in (0.2, 1.7):
        assert table15.V_at(r) == pytest.approx(A ** -0.5 * r ** (ALPHA / 2), rel=1e-10)


def test_lookups_refuse_nonpositive_radii(table15):
    # the estimates take V, M and K at positive distances only
    for lookup in (table15.V_at, table15.M_at, table15.K_at):
        for r in (0.0, -0.7, np.array([0.7, 0.0]), np.nan, np.array([0.7, np.nan])):
            with pytest.raises(ValueError, match="positive radii"):
                lookup(r)


def test_M_below_grid_is_the_power_law(stable15):
    # kato's shrinking windows reach below r[0] = 1e-6; for the stable table
    # the fitted low-end law is M(r) = r^(alpha - 2) / A
    table = kernels.build_table(stable15, diam=1.0, points_per_decade=128)
    assert len(table.r) == 1024 and table.r[0] == pytest.approx(1e-6, rel=1e-12)
    r = np.geomspace(1e-12, 4e-6, 9)
    got = table.M_at(r)
    want = r ** (ALPHA - 2) / A
    assert np.max(np.abs(got - want) / want) <= 1e-12
    assert np.array_equal(got, [table.M_at(float(t)) for t in r])


def test_K_quadrature_against_gamma_closed_form():
    m = models.stable_model(ALPHA)
    assert kernels.compute_K(m, 1.0) == pytest.approx(np.sqrt(2.0 / np.pi), rel=1e-9)
    for a in (1.2, 1.9):
        mm = models.stable_model(a)
        closed = stable.kernel_at_one(a)
        assert kernels.compute_K(mm, 1.0) == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("alpha", [1.8, 1.9])
def test_K_and_dK_quadrature_relative_at_small_radii(alpha):
    # K ~ x^(alpha-1) is far below one here, so only a Fourier-tail target
    # relative to the integral keeps the oracle at its 1e-10 target
    m = models.stable_model(alpha)
    k1 = stable.kernel_at_one(alpha)
    for x in (1e-6, 1e-4):
        assert abs(kernels.compute_K(m, x) / (k1 * x ** (alpha - 1.0)) - 1.0) <= 1e-12
        assert abs(kernels.compute_dK(m, x) / ((alpha - 1.0) * k1 * x ** (alpha - 2.0))
                   - 1.0) <= 1e-12


def test_K_dilation_homogeneity():
    m = models.stable_model(ALPHA)
    for x in (0.05, 0.8, 12.0):
        assert kernels.compute_K(m, 2 * x) == pytest.approx(
            2 ** (ALPHA - 1) * kernels.compute_K(m, x), rel=1e-8)


def test_dK_refuses_nonpositive_x_and_matches_homogeneous_form():
    m = models.stable_model(ALPHA)
    assert kernels.compute_dK(m, 1.0) == pytest.approx(0.5 * K1, rel=1e-9)
    for x in (-1.0, 0.0):
        with pytest.raises(ValueError):
            kernels.compute_dK(m, x)


def test_dK_finite_difference_consistency():
    m = models.stable_model(ALPHA)
    x = 0.7
    d = kernels.compute_dK(m, x)
    for eps in (1e-2, 1e-3, 1e-4):
        fd = (kernels.compute_K(m, x + eps) - kernels.compute_K(m, x - eps)) / (2 * eps)
        assert abs(fd - d) <= 2.0 * eps   # second-order one-sided curvature bound
    # the finite-difference error must shrink with eps
    errs = [abs((kernels.compute_K(m, x + e) - kernels.compute_K(m, x - e)) / (2 * e) - d)
            for e in (1e-2, 1e-3, 1e-4)]
    assert errs[0] > errs[1] > errs[2]


def test_M_power_law_and_ratio(table15):
    assert table15.M_at(1.0) == pytest.approx(1.0 / A, rel=1e-9)
    assert table15.M_at(1.0) / table15.M_at(4.0) == pytest.approx(2.0, rel=1e-9)
    r = table15.r
    assert np.all(np.diff(table15.M) < 0)


def test_V_dilation_bracket_from_scaling(table15, stable15):
    # the exponents hold on the grid with constant one
    rep = models.estimate_scaling(stable15)
    lam = 2.0
    lo = np.sqrt(1.0 / (2 * kernels.C_PSI_BRACKET)) * lam ** (rep.alpha_low / 2)
    hi = np.sqrt(2 * kernels.C_PSI_BRACKET) * lam ** (rep.alpha_high / 2)
    for r in (0.01, 0.5, 20.0):
        ratio = table15.V_at(lam * r) / table15.V_at(r)
        assert lo <= ratio <= hi


def test_table_invariants_stable(table15):
    rep = kernels.check_table_invariants(table15)
    assert rep["all_pass"], rep
    assert np.isfinite(rep["dK_through_M_constant"])
    assert rep["quadrature_oracle_rel_diff"] <= 1e-8
    assert rep["max_est_rel_err"] <= 1e-10 and rep["scalar_fallbacks"] == 0


def test_table_invariants_catch_a_value_off_the_oracle(table15):
    t = table15
    K = t.K.copy()
    K[len(K) // 2] *= 1.0 + 1e-6
    bad = kernels.KernelTable(t.model, t.r, t.h, t.V, t.M, K, t.dK, t.diam, t.err)
    rep = kernels.check_table_invariants(bad)
    assert not rep["quadrature_oracle_agrees"] and not rep["all_pass"]
    assert rep["quadrature_oracle_rel_diff"] == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("alpha", [1.15, 1.5, 1.9])
def test_stable_table_is_checked_against_its_closed_forms(alpha):
    table = kernels.build_table(models.stable_model(alpha), diam=2.0, points_per_decade=32)
    rep = kernels.check_table_invariants(table)
    assert rep["all_pass"] and rep["quadrature_oracle_rel_diff"] <= 1e-13


def test_quadpack_checks_a_stable_table_at_one_point(monkeypatch):
    # the closed forms check a stable table, QUADPACK only its h at the
    # middle radius; a mixture takes QUADPACK at all nine points and at each
    # spot of the exact subadditivity check
    stable_table = kernels.build_table(models.stable_model(ALPHA), diam=1.0, points_per_decade=8)
    mixture = kernels.build_table(_SPLIT_MODELS["mixture"](), diam=1.0, points_per_decade=8)
    calls = []

    def recorded(fn):
        def oracle(model, x):
            calls.append((model.family, fn.__name__))
            return fn(model, x)
        return oracle

    monkeypatch.setattr(kernels, "_ORACLES", tuple(map(recorded, kernels._ORACLES)))
    monkeypatch.setattr(kernels, "compute_K", recorded(kernels.compute_K))
    assert kernels.check_table_invariants(stable_table)["all_pass"]
    assert kernels.check_K_subadditivity_exact(stable_table, n_cross=64)
    assert calls == [("stable", "compute_h")]
    calls.clear()
    assert kernels.check_table_invariants(mixture)["all_pass"]
    assert kernels.check_K_subadditivity_exact(mixture, n_cross=64)
    assert calls == [("stable-mixture", name) for name in
                     ["compute_h"] * 3 + ["compute_K"] * 3 + ["compute_dK"] * 3 + ["compute_K"] * 2]


@pytest.mark.parametrize("alpha", [1.15, 1.2, 1.5, 1.8, 1.9])
def test_batched_stable_table_matches_closed_forms(alpha):
    # a stable table scales its r = 1 values, so the batched evaluator is
    # checked at every radius of the grid on its own, and the table beside it
    m = models.stable_model(alpha)
    table = kernels.build_table(m, diam=1.0, points_per_decade=16)
    r, k1 = table.r, stable.kernel_at_one(alpha)
    per_radius = kernels._kernel_values(m, r)
    for (h, K, dK), err in (per_radius, ((table.h, table.K, table.dK), table.err)):
        assert np.all(err <= 1e-10)             # no value came from the oracle
        for got, want in ((h, stable.h_constant(alpha) * r ** -alpha),
                          (K, k1 * r ** (alpha - 1.0)),
                          (dK, (alpha - 1.0) * k1 * r ** (alpha - 2.0))):
            assert np.max(np.abs(got / want - 1.0)) <= 1e-12


@pytest.mark.parametrize("alpha", [1.15, 1.5, 1.9])
def test_stable_table_scales_its_unit_radius_values(alpha):
    m = models.stable_model(alpha)
    table = kernels.build_table(m, diam=2.0, points_per_decade=32)
    one, err = kernels._kernel_values(m, np.ones(1))
    r = table.r
    for got, value, power in ((table.h, one[0, 0], -alpha), (table.K, one[1, 0], alpha - 1.0),
                              (table.dK, one[2, 0], alpha - 2.0)):
        assert got.tobytes() == (value * r ** power).tobytes()
    assert table.err.tobytes() == np.repeat(err, len(r), axis=1).tobytes()


def test_stable_table_scales_the_oracle_where_r1_misses_the_target(monkeypatch):
    # forced misses at r = 1 send h and dK there to the oracle; the table
    # scales the oracle's values and reports every scaled point as a fallback
    m = models.stable_model(ALPHA)
    batched = kernels._batched_kernels

    def miss(model, r):
        vals, err = batched(model, r)
        err[[0, 2]] = 1e-9
        return vals, err

    monkeypatch.setattr(kernels, "_batched_kernels", miss)
    table = kernels.build_table(m, diam=1.0, points_per_decade=8)
    r = table.r
    assert table.h.tobytes() == (kernels.compute_h(m, 1.0) * r ** -ALPHA).tobytes()
    assert table.dK.tobytes() == (kernels.compute_dK(m, 1.0) * r ** (ALPHA - 2.0)).tobytes()
    assert table.K.tobytes() == (batched(m, np.ones(1))[0][1, 0] * r ** (ALPHA - 1.0)).tobytes()
    rep = kernels.check_table_invariants(table)
    assert rep["scalar_fallbacks"] == 2 * len(r)
    assert rep["all_pass"] and rep["max_est_rel_err"] == table.err[1, 0] <= 1e-10


def test_batched_mixture_table_matches_components_and_oracle():
    alphas, weights = (1.2, 1.8), (1.0, 0.5)
    m = models.stable_mixture_model(alphas, weights)
    table = kernels.build_table(m, diam=1.0, points_per_decade=16)
    r = table.r
    want = sum(w * stable.h_constant(a) * r ** -a for a, w in zip(alphas, weights))
    assert np.max(np.abs(table.h / want - 1.0)) <= 1e-12
    for i in range(0, len(r), 16):
        assert table.K[i] == pytest.approx(kernels.compute_K(m, float(r[i])), rel=1e-9)
        assert table.dK[i] == pytest.approx(kernels.compute_dK(m, float(r[i])), rel=1e-9)


def _density_jump_model():
    # the jump at radius 30 sits inside one dyadic shell of every radius;
    # it spoils the panel rule's error estimate where that shell matters
    s = models.stable_model(ALPHA)
    return models.LevyModel("custom", s.psi,
                            lambda x: s.nu(x) * np.where(np.asarray(x) < 30.0, 1.0, 0.5))


def test_density_jump_takes_the_oracle_at_the_affected_radii():
    m = _density_jump_model()
    table = kernels.build_table(m, diam=1.0, points_per_decade=4)
    oracle = ~(table.err[0] <= 1e-10)
    assert 0 < np.count_nonzero(oracle) < len(table.r)
    per_point = np.array([kernels.compute_h(m, float(x)) for x in table.r])
    assert np.array_equal(table.h[oracle], per_point[oracle])
    assert np.max(np.abs(table.h / per_point - 1.0)) <= 1e-9
    # the symbol is smooth, so K and dK stay on the batched path
    assert np.all(table.err[1:] <= 1e-10)
    assert np.max(np.abs(table.K / (K1 * table.r ** (ALPHA - 1)) - 1.0)) <= 1e-12


_SPLIT_MODELS = {
    "stable": lambda: models.stable_model(ALPHA),
    "mixture": lambda: models.stable_mixture_model((1.2, 1.8), (1.0, 0.5)),
    "density-jump": _density_jump_model,
}


@pytest.mark.parametrize("name", sorted(_SPLIT_MODELS))
def test_one_epsilon_pass_equals_the_calls_on_a_split(name, monkeypatch):
    # every radius's values and errors depend on that radius alone, so one
    # epsilon pass over the whole vector matches the calls on its pieces
    m = _SPLIT_MODELS[name]()
    r = np.geomspace(1e-6, 1e2, 80)
    vals, err = kernels._kernel_values(m, r)
    pieces = [kernels._kernel_values(m, r[lo:hi])
              for lo, hi in ((0, 1), (1, 32), (32, 65), (65, len(r)))]
    assert np.concatenate([v for v, _ in pieces], axis=1).tobytes() == vals.tobytes()
    assert np.concatenate([e for _, e in pieces], axis=1).tobytes() == err.tobytes()
    if name == "density-jump":
        assert 0 < np.count_nonzero(~(err <= 1e-10)) < err.size    # oracle fallbacks

    # a stable table takes its one pass at r = 1 alone
    calls = []
    wynn = kernels._wynn
    monkeypatch.setattr(kernels, "_wynn", lambda s: calls.append(s.shape) or wynn(s))
    kernels.build_table(m, diam=1.0, points_per_decade=8)
    assert calls == [(7, 1 if name == "stable" else 64, 40)]


@pytest.mark.parametrize("name", ["mixture", "density-jump"])
def test_other_tables_are_the_per_radius_values(name):
    m = _SPLIT_MODELS[name]()
    table = kernels.build_table(m, diam=1.0, points_per_decade=8)
    vals, err = kernels._kernel_values(m, table.r)
    assert np.array([table.h, table.K, table.dK]).tobytes() == vals.tobytes()
    assert table.err.tobytes() == err.tobytes()


@pytest.mark.parametrize("name", sorted(_SPLIT_MODELS))
def test_building_a_table_raises_no_floating_point_warning(name):
    # the nodes and the epsilon table divide by zero and overflow on purpose;
    # that must stay inside the batched evaluator's errstate
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kernels.build_table(_SPLIT_MODELS[name](), diam=1.0, points_per_decade=8)


def test_scalar_lookups_equal_the_array_elements(table15):
    # a Python float takes the scalar path, an array the vectorized one; in
    # the grid they are the same interpolation, bit for bit
    t = table15
    rng = np.random.default_rng(0)
    x = np.concatenate([t.r, t.r[[0, -1]] * (1 + 1e-12), t.r[[0, -1]] * (1 - 1e-12),
                        np.exp(rng.uniform(np.log(t.r[0]), np.log(t.r[-1]), 1000)), [0.3, 1.7]])
    for lookup in (t.V_at, t.M_at, t.K_at):
        inside = x if lookup is not t.M_at else x[x >= t.r[0]]
        got = lookup(inside)
        one = [lookup(float(v)) for v in inside]
        assert all(type(v) is float for v in one)
        assert np.array(one).tobytes() == got.tobytes()
        assert lookup(inside[0]) == one[0] and type(lookup(inside[0])) is float   # np.float64
    # below the grid M is the power law, which a float or a 0-d array takes by
    # numpy's scalar power and an array by its vector loop: the powers agree
    # to one unit in the last place, their products with M[0] to two
    below = np.concatenate([t.r[0] * np.geomspace(1e-12, 1.0, 400, endpoint=False),
                            [t.r[0] * (1 - 1e-12)]])
    one = np.array([t.M_at(float(v)) for v in below])
    assert one.tobytes() == np.array([t.M_at(np.asarray(v)) for v in below]).tobytes()
    got = t.M_at(below)
    assert np.all(np.abs(one - got) <= 2.0 * np.spacing(got))
    # M below and inside the grid in one vector
    mixed = np.array([1e-3 * t.r[0], 0.3, t.r[0], 0.5 * t.r[0], t.r[-1], 1e-12])
    got = t.M_at(mixed)
    assert np.array([t.M_at(float(v)) for v in mixed]).tobytes() == got.tobytes()


@pytest.mark.parametrize("knots", ["stable", "mixture", "uneven"])
def test_table_pieces_are_scipys_pchip(knots, table15):
    # the table computes and sums its monotone cubics itself, as scipy's
    # PchipInterpolator and PPoly do; uneven knots take the binary search
    from scipy.interpolate import PchipInterpolator
    t = table15
    if knots == "mixture":
        t = kernels.build_table(_SPLIT_MODELS["mixture"](), diam=1.0, points_per_decade=16)
    elif knots == "uneven":
        keep = np.unique(np.concatenate([[0, len(t.r) - 1], np.random.default_rng(2).integers(
            0, len(t.r), 60)]))
        t = kernels.KernelTable(t.model, *(a[keep] for a in (t.r, t.h, t.V, t.M, t.K, t.dK)),
                                t.diam, t.err[:, keep])
    lr = np.log(t.r)
    x = np.exp(np.random.default_rng(1).uniform(lr[0], lr[-1], 2000))
    for vals, lookup in ((t.V, t.V_at), (t.M, t.M_at), (t.K, t.K_at)):
        pchip = PchipInterpolator(lr, np.log(vals))
        assert kernels._pchip_pieces(lr, np.log(vals)).tobytes() == pchip.c.tobytes()
        assert lookup(x).tobytes() == np.exp(pchip(np.log(x))).tobytes()
        assert lookup(t.r).tobytes() == np.exp(pchip(lr)).tobytes()


def test_pchip_pieces_are_scipys_on_any_data():
    # flat runs, sign changes and both shape-keeping cases at the ends
    from scipy.interpolate import PchipInterpolator
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = np.sort(rng.uniform(0.0, 10.0, 12))
        y = rng.integers(-3, 4, 12).astype(float)
        assert kernels._pchip_pieces(x, y).tobytes() == PchipInterpolator(x, y).c.tobytes()


def test_lookups_refuse_radii_outside_the_grid(table15):
    t = table15
    msg = re.escape(f"radius outside tabulated range [{t.r[0]:.3e}, {t.r[-1]:.3e}]")
    for lookup, what in ((t.V_at, "V"), (t.M_at, "M"), (t.K_at, "K")):
        for r in (1.01 * t.r[-1], np.array([0.3, 1.01 * t.r[-1]]), np.inf):
            with pytest.raises(ValueError, match=f"^{what}: {msg}$"):
                lookup(r)
    for lookup, what in ((t.V_at, "V"), (t.K_at, "K")):
        for r in (0.99 * t.r[0], np.array([0.3, 0.99 * t.r[0]])):
            with pytest.raises(ValueError, match=f"^{what}: {msg}$"):
                lookup(r)


def test_tables_are_bit_identical_across_builds(table15):
    again = kernels.build_table(table15.model, diam=2.0, points_per_decade=32)
    for name in ("r", "h", "V", "M", "K", "dK", "err"):
        assert np.array_equal(getattr(again, name), getattr(table15, name))


def test_table_K_matches_homogeneous_form(table15):
    xs = np.geomspace(1e-5, 1e2, 40)
    closed = K1 * xs ** (ALPHA - 1)
    assert np.max(np.abs(table15.K_at(xs) - closed) / closed) < 1e-6


def test_K_comparable_to_V_squared_over_r(table15):
    # K(x) x / V(x)^2 stays within a finite bracket below the table diameter
    xs = np.geomspace(1e-4, table15.diam, 30)
    ratio = table15.K_at(xs) * xs / table15.V_at(xs) ** 2
    assert np.all(np.isfinite(ratio)) and ratio.min() > 0
    assert ratio.max() / ratio.min() < 10.0


def test_exact_subadditivity_check(table15):
    small = kernels.build_table(table15.model, diam=1.0, points_per_decade=8)
    assert kernels.check_K_subadditivity_exact(small, n_cross=64)


@pytest.mark.parametrize("k", [0, 1])
def test_exact_subadditivity_check_sees_one_off_grid_K_off_by_1e8(table15, monkeypatch, k):
    # K(2 r_0) is spot-checked against the oracle; K(2 r_1) lies between the
    # spot checks, so the table is made tight there, K(r_1) = K(2 r_1) / 2
    t = kernels.build_table(table15.model, diam=1.0, points_per_decade=8)
    K = t.K.copy()
    if k == 1:
        K[1] = kernels._kernel_values(t.model, 2.0 * t.r[1:2])[0][1, 0] / 2.0
    t = kernels.KernelTable(t.model, t.r, t.h, t.V, t.M, K, t.dK, t.diam, t.err)
    assert kernels.check_K_subadditivity_exact(t, n_cross=64)
    exact = kernels._kernel_values

    def mutated(model, r):
        vals, err = exact(model, r)
        vals[1, k] *= 1.0 + 1e-8            # K at 2 r_k
        return vals, err

    monkeypatch.setattr(kernels, "_kernel_values", mutated)
    assert not kernels.check_K_subadditivity_exact(t, n_cross=64)


def test_csv_export(tmp_path, table15):
    # kernels.csv is written by the CLI's CSV helpers: header comments, the
    # column line, then one row per table point
    path = tmp_path / "k.csv"
    with open(path, "wb") as fh:
        cli._csv_header(fh, "abc")
        fh.write(b"r,h,V,M,K,dK\n")
        fh.write(cli._csv_rows(table15.r, table15.h, table15.V,
                               table15.M, table15.K, table15.dK))
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_sha256=abc"
    assert lines[2] == "r,h,V,M,K,dK"
    assert len(lines) == 3 + len(table15.r)
    assert lines[3].split(",") == [repr(float(table15.r[0])), repr(float(table15.h[0])),
                                   repr(float(table15.V[0])), repr(float(table15.M[0])),
                                   repr(float(table15.K[0])), repr(float(table15.dK[0]))]


def test_quadrature_failure_reports_tolerance():
    # a symbol that grows too slowly makes the compensated kernel diverge
    bad = models.LevyModel("custom", lambda x: np.abs(np.asarray(x, dtype=float)) ** 0.5,
                           lambda r: np.asarray(r) ** -1.5)
    with pytest.raises((kernels.KernelQuadratureError, ValueError)):
        kernels.compute_K(bad, 1.0)


def test_head_and_flat_error_estimates_count_toward_the_threshold(monkeypatch):
    # the Fourier tails stay exact; only the non-oscillatory pieces report 1.0
    quad = kernels._quad
    monkeypatch.setattr(kernels, "_quad", lambda f, a, b, **kw: (quad(f, a, b, **kw)[0], 1.0))
    m = models.stable_model(ALPHA)
    for fn in (kernels.compute_K, kernels.compute_dK):
        with pytest.raises(kernels.KernelQuadratureError, match="reached only"):
            fn(m, 1.0)
