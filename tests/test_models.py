import re
from pathlib import Path

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
              models.stable_mixture_model([1.2, 1.8], [1.0, 1.0])):
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


@pytest.mark.parametrize("model", [models.stable_model(1.15), models.stable_model(1.9),
                                   models.stable_mixture_model([0.7, 1.9], [1.0, 0.5])],
                         ids=["stable-1.15", "stable-1.9", "mixture-0.7-1.9"])
@pytest.mark.parametrize("name", ["psi", "nu"])
def test_float_path_has_the_0d_bits(model, name):
    # QUADPACK calls psi and nu one Python float at a time; their float path
    # must return exactly what a 0-d array returns, never an array.  1e300
    # overflows Python's float power
    fn = getattr(model, name)
    x = np.concatenate([np.geomspace(1e-9, 1e6, 10_000),
                        [0.0, -0.0, -1.0, np.inf, -np.inf, np.nan, 1e300]]).tolist()
    with np.errstate(all="ignore"):
        got = [fn(v) for v in x]
        want = np.array([fn(np.asarray(v)) for v in x])
    assert {type(v) for v in got} <= {float, np.float64}
    assert np.array(got).view(np.int64).tolist() == want.view(np.int64).tolist()


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
], ids=["stable", "mixture"])
def test_scaling_exponents_match_all_pair_chords(model):
    rep = models.estimate_scaling(model)
    a_low, a_high, a_low_1, c_low, C_high = _all_pair_scaling(model)
    assert (rep.alpha_low, rep.alpha_high, rep.alpha_low_1) == (a_low, a_high, a_low_1)
    # the pair that attains each exponent is among the pairs: both constants are one
    assert abs(c_low - 1.0) <= 1e-12 and abs(C_high - 1.0) <= 1e-12


def test_scaling_rejects_nonmonotone_symbol():
    wiggly = models.LevyModel(
        "custom",
        psi=lambda x: np.asarray(x) ** 1.5 * (1.0 + 0.5 * np.sin(3 * np.log(np.maximum(x, 1e-300)))),
        nu=lambda r: np.asarray(r) ** -2.5)
    with pytest.raises(ValueError, match="scaling estimation failed: non-monotone"):
        models.estimate_scaling(wiggly)
    with pytest.raises(ValueError, match="scaling estimation failed: non-monotone"):
        models.require_valid_scaling(wiggly)


def test_require_valid_scaling_rejects_sublinear():
    near_linear = models.LevyModel(
        "custom",
        psi=lambda x: np.abs(np.asarray(x, dtype=float)) ** 0.9,
        nu=lambda r: np.asarray(r) ** -1.9)   # placeholder density
    with pytest.raises(ValueError, match="rejected"):
        models.require_valid_scaling(near_linear)
    models.require_valid_scaling(models.stable_model(1.5))


def test_unimodality():
    # every config family has a nonincreasing jump density by construction
    r = np.geomspace(1e-6, 1e2, 256)
    for cfg in ({"family": "stable", "alpha": 1.5},
                {"family": "stable-mixture", "alphas": [0.6, 1.2, 1.8], "weights": [1, 2, 3]}):
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


def test_config_families_are_stable_and_stable_mixture():
    # the two members of the paper's class that levygreen serves; the README
    # lists exactly these, and any other family is unknown
    built = {m.family for m in (
        models.model_from_config({"family": "stable", "alpha": 1.5}),
        models.model_from_config({"family": "stable-mixture", "alphas": [1.2, 1.8]}))}
    assert built == {"stable", "stable-mixture"}
    for family in ("truncated-stable", "custom"):
        with pytest.raises(ValueError, match="unknown model family"):
            models.model_from_config({"family": family, "alpha": 1.5, "truncation_radius": 0.3})
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Model families:"):readme.index("Drift families:")]
    assert re.findall(r"`([a-z-]+)` \(`", paragraph) == ["stable", "stable-mixture"]
