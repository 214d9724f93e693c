import numpy as np
import pytest
from scipy import integrate

from levygreen import models


def test_stable_psi_is_exact_power():
    m = models.stable_model(1.5)
    assert m.psi(2.0) == pytest.approx(2.0 ** 1.5, rel=0, abs=0)
    assert m.psi(0.0) == 0.0


def test_psi_zero_for_all_families():
    for m in (models.stable_model(1.2),
              models.stable_mixture_model([1.2, 1.8], [1.0, 1.0]),
              models.truncated_stable_model(1.5, 2.0)):
        assert m.psi(0.0) == 0.0


def test_mixture_psi_at_unit_argument():
    m = models.stable_mixture_model([1.2, 1.8], [1.0, 1.0])
    assert m.psi(1.0) == pytest.approx(2.0, rel=1e-15)


def test_nu_homogeneity_stable():
    m = models.stable_model(1.5)
    r = 0.37
    ratio = m.nu(2 * r) / m.nu(r)
    assert ratio == pytest.approx(2.0 ** (-2.5), rel=1e-14)


def test_nu_normalization_by_quadrature():
    # the density constant must make the symbol equal one at unit frequency
    m = models.stable_model(1.5)
    head, _ = integrate.quad(lambda z: (1 - np.cos(z)) * m.nu(z), 0, 50, limit=400)
    flat, _ = integrate.quad(lambda t: m.nu(50.0 / t) * 50.0 / t ** 2, 0, 1, limit=200)
    osc, _ = integrate.quad(lambda z: m.nu(z), 50, np.inf, weight="cos", wvar=1.0,
                            limit=200, epsabs=1e-12)
    assert 2 * (head + flat - osc) == pytest.approx(1.0, rel=1e-9)


def test_truncated_nu_vanishes_beyond_radius():
    m = models.truncated_stable_model(1.5, 2.0)
    assert m.nu(3.0) == 0.0
    s = models.stable_model(1.5)
    assert m.nu(1.0) == s.nu(1.0)


def test_psi_from_nu_matches_closed_form():
    # a custom model without a symbol takes it by quadrature of its density
    q = models.custom_model(models.stable_model(1.5).nu)
    for xi in (1e-3, 1e-1, 1.0, 7.3, 1e2, 1e3):
        assert q.psi(xi) == pytest.approx(xi ** 1.5, rel=1e-6)


@pytest.mark.parametrize("alpha", [1.5, 1.9])
def test_psi_from_nu_relative_at_low_frequency(alpha):
    # psi = xi^alpha is far below any fixed absolute target here
    q = models.custom_model(models.stable_model(alpha).nu)
    for xi in (1e-6, 1e-4):
        assert abs(q.psi(xi) / xi ** alpha - 1.0) <= 1e-12


def test_psi_from_nu_finds_a_density_supported_near_zero():
    # at low frequency the truncated density lives below u = 0.0217, the
    # first sample point of a single adaptive pass over the head (0, 10)
    m = models.truncated_stable_model(1.5, 0.3)
    q = models.custom_model(m.nu)
    for xi in (0.01, 0.05, 0.0724, 1.0, 10.0):
        assert q.psi(xi) == pytest.approx(float(m.psi(xi)), rel=1e-8)


@pytest.mark.xfail(strict=True, reason="known defect: the quadrature symbol of a jump "
                   "density with a truncation edge misses it; custom_model needs a continuous nu")
def test_known_defect_psi_from_nu_at_a_truncation_edge():
    # the family's own symbol matches a per-period split QUADPACK reference to
    # 4.3e-15; the default symbol was seen off by -7.35e-4, +2.16e-5, +1.80e-5
    for radius, xi in ((1.0, 0.00489), (0.3, 33.3129), (1.0, 0.325509)):
        m = models.truncated_stable_model(1.5, radius)
        assert models.custom_model(m.nu).psi(xi) == pytest.approx(float(m.psi(xi)), rel=1e-8)


def test_scaling_stable_is_exact():
    rep = models.estimate_scaling(models.stable_model(1.5))
    assert rep.alpha_low == pytest.approx(1.5, abs=1e-6)
    assert rep.alpha_high == pytest.approx(1.5, abs=1e-6)
    assert rep.alpha_low_1 == pytest.approx(1.5, abs=1e-6)
    assert rep.standing_assumption


def test_scaling_mixture_brackets():
    # chord-slope extremes over the grid; the infimum above frequency one
    # sits at the local slope there, (1.2 + 1.8) / 2
    rep = models.estimate_scaling(models.stable_mixture_model([1.2, 1.8], [1.0, 1.0]))
    assert rep.alpha_low == pytest.approx(1.2, abs=0.02)
    assert rep.alpha_high == pytest.approx(1.8, abs=0.02)
    assert rep.alpha_low_1 == pytest.approx(1.5, abs=0.02)
    assert rep.standing_assumption


def test_scaling_bracket_order_all_families():
    for m in (models.stable_model(1.2), models.stable_model(1.9),
              models.stable_mixture_model([1.2, 1.8], [1.0, 1.0])):
        rep = models.estimate_scaling(m)
        assert rep.alpha_low <= rep.alpha_high
    # the truncated family has a quadratic low-frequency regime
    rep = models.estimate_scaling(models.truncated_stable_model(1.5, 1.0))
    assert rep.alpha_low <= rep.alpha_high
    assert rep.standing_assumption


def _all_pair_scaling(model):
    """The exponents and constants from every grid pair's chord (the former algorithm)."""
    theta = np.geomspace(1e-3, 1e3, 384)
    vals = np.asarray(model.psi(theta), dtype=float)
    lt, lv = np.log(theta), np.log(vals)
    dlt = lt[None, :] - lt[:, None]
    dlv = lv[None, :] - lv[:, None]
    pair = dlt > 0
    slopes = np.where(pair, dlv / np.where(pair, dlt, 1.0), np.nan)

    a_low = float(np.nanmin(slopes))
    a_high = float(np.nanmax(slopes))
    c_low = float(min(1.0, np.exp(np.nanmin(np.where(pair, dlv - a_low * dlt, np.nan)))))
    C_high = float(max(1.0, np.exp(np.nanmax(np.where(pair, dlv - a_high * dlt, np.nan)))))

    above = theta >= 1.0
    if np.count_nonzero(above) >= 2:
        sub = slopes[np.ix_(above, above)]
        a_low_1 = float(np.nanmin(sub))
    else:
        a_low_1 = np.nan
    return a_low, a_high, a_low_1, c_low, C_high


@pytest.mark.parametrize("model", [
    models.stable_model(1.5),
    models.stable_mixture_model([1.2, 1.8], [1.0, 1.0]),
    models.truncated_stable_model(1.5, 1.0),
], ids=["stable", "mixture", "truncated"])
def test_scaling_exponents_match_all_pair_chords(model):
    rep = models.estimate_scaling(model)
    a_low, a_high, a_low_1, c_low, C_high = _all_pair_scaling(model)
    assert (rep.alpha_low, rep.alpha_high, rep.alpha_low_1) == (a_low, a_high, a_low_1)
    # the pair that attains each exponent is among the pairs: both constants are one
    assert abs(c_low - 1.0) <= 1e-12 and abs(C_high - 1.0) <= 1e-12


def test_scaling_rejects_nonmonotone_symbol():
    wiggly = models.custom_model(
        nu=lambda r: np.asarray(r) ** -2.5,
        psi=lambda x: np.asarray(x) ** 1.5 * (1.0 + 0.5 * np.sin(3 * np.log(np.maximum(x, 1e-300)))))
    with pytest.raises(ValueError, match="scaling estimation failed: non-monotone"):
        models.estimate_scaling(wiggly)
    with pytest.raises(ValueError, match="scaling estimation failed: non-monotone"):
        models.require_valid_scaling(wiggly)


def test_require_valid_scaling_rejects_sublinear():
    near_linear = models.custom_model(
        nu=lambda r: np.asarray(r) ** -1.9,   # placeholder density
        psi=lambda x: np.abs(np.asarray(x, dtype=float)) ** 0.9)
    with pytest.raises(ValueError, match="rejected"):
        models.require_valid_scaling(near_linear)
    models.require_valid_scaling(models.stable_model(1.5))


def test_unimodality():
    # every config family has a nonincreasing jump density by construction
    r = np.geomspace(1e-6, 1e2, 256)
    for cfg in ({"family": "stable", "alpha": 1.5},
                {"family": "stable-mixture", "alphas": [0.6, 1.2, 1.8], "weights": [1, 2, 3]},
                {"family": "truncated-stable", "alpha": 1.5, "truncation_radius": 0.3}):
        v = models.model_from_config(cfg).nu(r)
        assert np.all(np.diff(v) <= 0.0)


def test_model_from_config_roundtrip():
    m = models.model_from_config({"family": "stable", "alpha": 1.5})
    assert m.family == "stable" and m.alpha == 1.5
    mix = models.model_from_config(
        {"family": "stable-mixture", "alphas": [1.2, 1.8], "weights": [1, 1]})
    assert mix.psi(1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        models.model_from_config({"family": "gaussian"})
