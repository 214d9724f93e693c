import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from levygreen import cli, kato, kernels, stable

ALPHA = 1.5
A = stable.h_constant(ALPHA)


def test_zero_drift_modulus(table15):
    b = kato.constant_drift(0.0)
    for r in (1e-1, 1e-3):
        assert kato.kato_modulus(b, table15, r) == 0.0


def test_constant_drift_closed_form(table15):
    # m(r) = 2 int_0^r M = (4/A) sqrt(r) for this index
    b = kato.constant_drift(1.0)
    for r in (1e-2, 1e-4, 1e-6):
        assert kato.kato_modulus(b, table15, r) == pytest.approx(
            4.0 / A * np.sqrt(r), rel=1e-9)


def test_power_drift_modulus_closed_form(table15):
    # pole-centered window: m(r) = (2/(A (alpha-1-beta))) r^(alpha-1-beta)
    b = kato.power_drift(0.4)
    for r in (1e-2, 1e-4):
        assert kato.kato_modulus(b, table15, r) == pytest.approx(
            2.0 / (A * 0.1) * r ** 0.1, rel=1e-9)


def test_supercritical_power_is_divergent(table15):
    assert kato.kato_modulus(kato.power_drift(0.6), table15, 1e-2) == np.inf


def test_certificates(table15):
    assert kato.is_kato(kato.constant_drift(1.0), table15).passed
    assert kato.is_kato(kato.sin_drift(1.0, 5.0), table15).passed
    assert kato.is_kato(kato.power_drift(0.4), table15).passed
    cert = kato.is_kato(kato.power_drift(0.6), table15)
    assert not cert.passed
    assert np.isinf(cert.moduli[0])


@pytest.mark.parametrize("drift,where", [
    (kato.constant_drift(np.nan), "sweep"),
    (kato.DriftField(lambda z: np.where(np.abs(np.asarray(z)) < 0.3, np.nan, 1.0),
                     label="core"), "sweep"),
    (kato.power_drift(0.4, strength=np.nan), "sweep"),
    # finite in the translate sweep, NaN only within 1e-7 of its declared pole
    (kato.DriftField(lambda z: np.where(np.abs(np.asarray(z)) < 1e-7, np.nan, 1.0), "custom",
                     (0.0,), "spike"), "pole"),
], ids=["constant", "nan-core", "power-strength", "nan-at-pole"])
def test_nan_drift_is_refused(drift, where, table15):
    with pytest.raises(ValueError, match=f"drift '{re.escape(drift.label)}'.*{where}"):
        kato.is_kato(drift, table15)


def test_infinite_drift_fails(table15):
    cert = kato.is_kato(kato.constant_drift(np.inf), table15)
    assert not cert.passed and cert.moduli == (np.inf,)


def test_overflowing_drift_fails_without_warning(table15):
    # |b(x+s)| + |b(x-s)| overflows to inf in the sweep: an infinite modulus, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = kato.is_kato(kato.constant_drift(1e308), table15)
    assert not cert.passed and cert.moduli == (np.inf,)


def test_bounded_drifts_accepted(table15):
    for b in (kato.constant_drift(3.0), kato.sin_drift(2.0, 11.0),
              kato.DriftField(lambda z: np.tanh(np.asarray(z)), label="tanh")):
        assert kato.is_kato(b, table15).passed


def test_modulus_monotone_in_radius(table15):
    b = kato.constant_drift(1.0)
    ms = [kato.kato_modulus(b, table15, r) for r in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert all(m1 < m2 for m1, m2 in zip(ms, ms[1:]))


def test_modulus_monotone_in_drift(table15):
    small = kato.kato_modulus(kato.constant_drift(1.0), table15, 1e-2)
    large = kato.kato_modulus(kato.constant_drift(5.0), table15, 1e-2)
    assert large == pytest.approx(5.0 * small, rel=1e-12)
    # pointwise domination: |sin(5z)| <= 1
    s = kato.kato_modulus(kato.sin_drift(1.0, 5.0), table15, 1e-2)
    assert s <= small * (1 + 1e-12)


@pytest.mark.parametrize("frequency", [5.0, 1.0])
def test_sin_drift_matches_libm_sin(frequency):
    # the tan half-angle form against np.sin: random points, 0, and exact and
    # jittered multiples of pi in the argument frequency * z
    rng = np.random.default_rng(3)
    k = np.arange(-95.0, 96.0)
    exact = k * np.pi / frequency
    z = np.concatenate([rng.uniform(-60.0, 60.0, 1_000_000), [0.0, -0.0], exact,
                        exact * (1.0 + rng.uniform(-4e-16, 4e-16, k.size)),
                        exact + rng.uniform(-1e-9, 1e-9, k.size)])
    got = kato.sin_drift(1.0, frequency)(z)
    assert np.max(np.abs(got - np.sin(frequency * z))) <= 2.3e-16
    assert got[1_000_000] == 0.0


def test_drift_from_config():
    b = kato.drift_from_config({"family": "sin", "amplitude": 2.0, "frequency": 3.0})
    assert b(np.pi / 6) == pytest.approx(2.0)
    c = kato.drift_from_config({"family": "constant", "value": -1.5})
    assert c(0.3) == -1.5
    p = kato.drift_from_config({"family": "power", "beta": 0.4})
    assert p.singular_points == (0.0,)
    with pytest.raises(ValueError):
        kato.drift_from_config({"family": "tensor"})


def test_certificate_serialization(tmp_path, table15):
    cert = kato.is_kato(kato.constant_drift(1.0), table15)
    # the certificate fields as kato writes them into kato_certificate.json
    path = tmp_path / "kato_certificate.json"
    cli._write_json(path, cert)
    d = json.loads(path.read_text())
    assert d["passed"] is True
    assert len(d["radii"]) == len(d["moduli"])


def test_scalar_lookups_leave_the_moduli_bit_for_bit(table15, monkeypatch):
    # the QUADPACK windows at a pole look M up one Python float at a time;
    # criterion 9's drifts certify the same with every lookup an array's
    drifts = (kato.power_drift(0.4), kato.power_drift(0.6), kato.constant_drift(1.0),
              kato.constant_drift(5.0), kato.sin_drift(1.0, 5.0), kato.sin_drift(2.0, 11.0))
    scalar = [kato.is_kato(b, table15).moduli for b in drifts]
    M_at = kernels.KernelTable.M_at
    monkeypatch.setattr(kernels.KernelTable, "M_at", lambda self, r: M_at(self, np.asarray(r)))
    assert [kato.is_kato(b, table15).moduli for b in drifts] == scalar


def _zero_d(b):
    # the drift evaluated on 0-d arrays, the reference of its float path
    return dataclasses.replace(b, func=lambda z, f=b.func: f(np.asarray(z, dtype=float)))


def test_power_drift_float_path_has_the_0d_bits():
    rng = np.random.default_rng(5)
    for b in (kato.power_drift(0.4), kato.power_drift(0.3, center=0.3, strength=0.6)):
        c = b.singular_points[0]
        z = np.concatenate([rng.uniform(-3.0, 3.0, 10_000), c + np.geomspace(1e-12, 1.0, 500),
                            [c, np.inf, -np.inf]]).tolist()
        with np.errstate(all="ignore"):
            got = [b.func(v) for v in z]
            want = np.array([b.func(np.asarray(v)) for v in z])
        assert {type(v) for v in got} <= {float, np.float64}
        assert np.isnan(got[-3]) and got[-2] == got[-1] == 0.0
        assert np.array(got).view(np.int64).tolist() == want.view(np.int64).tolist()


def test_float_drifts_leave_the_moduli_bit_for_bit(table15):
    # the pole windows hand the drift Python floats; power drifts answer in
    # float arithmetic, a custom drift in whatever arithmetic it uses
    drifts = (kato.power_drift(0.4), kato.power_drift(0.3, center=0.3),
              kato.power_drift(0.45, center=-0.25, strength=0.6),
              kato.DriftField(lambda z: np.tanh(np.asarray(z)), singular_points=(0.0,)))
    moduli = [kato.is_kato(b, table15).moduli for b in drifts]
    assert all(len(m) == 6 for m in moduli)
    assert [kato.is_kato(_zero_d(b), table15).moduli for b in drifts] == moduli


def test_pole_windows_call_the_drift_with_python_floats(table15):
    # the vectorized sweep passes 2-d arrays, the QUADPACK windows one float
    calls = []
    p = kato.power_drift(0.4)

    def spy(z):
        calls.append(type(z) if type(z) is float else np.ndim(z))
        return p.func(z)

    kato.is_kato(kato.DriftField(spy, "custom", p.singular_points, "spy"), table15)
    assert set(calls) == {float, 2} and calls.count(float) > 1000
