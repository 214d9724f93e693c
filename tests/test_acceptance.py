"""Acceptance battery: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
criteria use fixed seeds; tolerances are stated inline next to each check.
"""

import json
import time

import numpy as np
import pytest
from scipy import integrate

from levygreen import green, kato, kernels, models, montecarlo as mc
from levygreen import perturbation as pert
from levygreen import stable
from levygreen.cli import main as cli_main
from levygreen.geometry import interval_union
from levygreen.kato import constant_drift, power_drift, sin_drift

ALPHA = 1.5


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence(oracle15, unit_interval):
    t0 = time.time()
    grid = pert.build_grid(unit_interval, 400, ALPHA)
    pg = pert.solve_perturbed(oracle15, constant_drift(0.0), grid)
    exact = np.asarray(oracle15.value(grid.nodes[:, None], grid.nodes[None, :]))
    off = np.abs(grid.nodes[:, None] - grid.nodes[None, :]) > 0.01
    err = float(np.max(np.abs(pg.matrix - exact)[off] / exact[off]))
    elapsed = time.time() - t0
    _report(1, "oracle equivalence", err <= 1e-3 and elapsed < 30.0,
            f"max rel err {err:.2e} off |x-y|>0.01, {elapsed:.1f}s")


def test_criterion_2_small_domain_bounds():
    b = constant_drift(1.0)
    family = lambda s: interval_union((-s / 2, s / 2))
    builder = lambda dom: green.stable_oracle(ALPHA, dom)
    eps = pert.find_epsilon(family, b, builder)
    D = family(eps)
    ksup = green.kappa_sup(builder(D), b)
    grid = pert.build_grid(D, 200, ALPHA)
    pg = pert.solve_perturbed(builder(D), b, grid)
    rep = pert.comparability_report(pg)
    ok = ksup < 1.0 / 3.0 and rep.inf >= 0.5 + 1e-3 and rep.sup <= 1.5 - 1e-3
    _report(2, "small-domain two-sided bounds", ok,
            f"eps={eps:.4g}, kappa={ksup:.4f}, ratios [{rep.inf:.4f}, {rep.sup:.4f}] "
            f"inside [0.501, 1.499]")


def test_criterion_3_two_interval_comparability(two_interval):
    b = sin_drift(1.0, 5.0)
    reports = {}
    for npc in (160, 320):
        G = green.numeric_table_green(ALPHA, two_interval, nodes_per_component=npc)
        grid = pert.build_grid(two_interval, npc, ALPHA)
        pg = pert.solve_perturbed(G, b, grid)
        reports[npc] = (pg, pert.comparability_report(pg))
    c1, c2 = reports[160][1].constant, reports[320][1].constant
    stable_c = abs(c1 - c2) / c2 < 0.10

    # Monte Carlo cross-check at three sources
    pg, rep = reports[320]
    grid = pg.grid
    model = models.stable_model(ALPHA)
    worst_z = 0.0
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    for k, x0 in enumerate((-0.6, 0.45, 0.8)):
        bins, val, se, _ = mc.mc_green(
            model, b, two_interval, x0,
            mc.PathConfig(dt=5e-4, n_paths=100_000, seed=300 + k, bin_width=0.1))
        row = pg.row(x0)
        ref = []
        for e in bins.edges:
            for lo, hi in zip(e[:-1], e[1:]):
                pts = 0.5 * (hi - lo) * gl_x + 0.5 * (hi + lo)
                ref.append(float(np.interp(pts, grid.nodes, row) @ gl_w) * 0.5)
        ref = np.array(ref)
        worst_z = max(worst_z, float(np.max(np.abs(val - ref) / np.maximum(se, 1e-12))))
    ok = np.isfinite(c2) and stable_c and worst_z <= 3.0
    _report(3, "interval-union comparability + MC", ok,
            f"C={c2:.4g} (grid change {abs(c1 - c2) / c2 * 100:.1f}%), "
            f"worst MC z-score {worst_z:.2f} <= 3")


def test_criterion_4_kernel_invariant_suite():
    cases = [models.stable_model(a) for a in (1.2, 1.5, 1.9)]
    cases.append(models.stable_mixture_model([1.2, 1.8], [1.0, 1.0]))
    details = []
    ok = True
    for m in cases:
        table = kernels.build_table(m, diam=1.0, points_per_decade=128)
        rep = kernels.check_table_invariants(table)
        core = (rep["V_subadditive_bracket"] and rep["h_nonincreasing"]
                and rep["dK_through_M_finite"])
        ksub = kernels.check_K_subadditivity_exact(table, n_cross=256)
        ok = ok and core and ksub
        tag = m.family if m.alpha is None else f"stable({m.alpha})"
        details.append(f"{tag}:{'ok' if core and ksub else 'FAIL'}")
    _report(4, "kernel invariant suite", ok, ", ".join(details))


def test_criterion_5_gradient_estimate(oracle15, table15):
    r1 = green.check_gradient_bound(oracle15, table15, n=200)
    r2 = green.check_gradient_bound(oracle15, table15, n=400)
    drift_pct = abs(r1["sup"] - r2["sup"]) / r2["sup"] * 100
    ok = r1["finite"] and r2["finite"] and drift_pct < 10.0
    _report(5, "gradient estimate", ok,
            f"sup {r2['sup']:.4f}, grid-doubling change {drift_pct:.1f}% < 10%")


def test_criterion_6_three_g_estimate(oracle15, table15):
    t1 = green.three_g_constant(oracle15, table15, n_triples=100_000, seed=0)
    t2 = green.three_g_constant(oracle15, table15, n_triples=200_000, seed=1)
    drift_pct = abs(t1.sup - t2.sup) / t2.sup * 100
    ok = t1.finite and t2.finite and drift_pct < 10.0
    _report(6, "three-function estimate", ok,
            f"sup {t1.sup:.4f} over 1e5 boundary-biased triples, "
            f"refinement change {drift_pct:.1f}% < 10%")


def test_criterion_7_poisson_mass_and_exit_law(oracle15, unit_interval):
    worst_mass = max(abs(green.poisson_mass(oracle15, x0) - 1.0)
                     for x0 in (0.0, 0.7, -0.95))
    model = models.stable_model(ALPHA)
    zero = constant_drift(0.0)

    # driftless: the Euler loop itself, and the walk on spheres that the API takes
    cdf0 = green.exit_law_cdf(lambda z: green.poisson_kernel(oracle15, 0.0, z),
                              unit_interval)
    cfg0 = mc.PathConfig(dt=1e-3, n_paths=100_000, seed=70)
    euler0 = mc._euler_exit(model, zero, unit_interval, 0.0, cfg0, track_occupation=False)
    ks_euler = mc.ks_distance(euler0.exit_pos, cdf0)
    wos0 = mc.mc_exit_law(model, zero, unit_interval, 0.0, cfg0)
    ks_wos = mc.ks_distance(wos0["sample"].exit_pos, cdf0)

    b = sin_drift(1.0, 5.0)
    grid = pert.build_grid(unit_interval, 400, ALPHA)
    pg = pert.solve_perturbed(oracle15, b, grid)
    cdf1 = green.exit_law_cdf(lambda z: pert.perturbed_poisson(pg, 0.0, z),
                              unit_interval)
    law1 = mc.mc_exit_law(model, b, unit_interval, 0.0,
                          mc.PathConfig(dt=5e-4, n_paths=100_000, seed=71))
    ks_drift = mc.ks_distance(law1["sample"].exit_pos, cdf1)
    ok = worst_mass <= 1e-3 and ks_euler < 0.01 and ks_wos < 0.01 and ks_drift < 0.02
    _report(7, "exit density mass and law", ok,
            f"mass err {worst_mass:.1e} <= 1e-3, KS {ks_euler:.4f} (Euler) and "
            f"{ks_wos:.4f} (walk on spheres) < 0.01 (driftless), "
            f"KS {ks_drift:.4f} < 0.02 (sin drift)")


def test_criterion_8_mean_exit_time(oracle15, unit_interval):
    closed = stable.mean_exit_time(ALPHA, (-1, 1), 0.0)
    quad_val = green.exit_time_from_green(oracle15, 0.0)
    quad_rel = abs(quad_val - closed) / closed
    model = models.stable_model(ALPHA)
    cfg = mc.PathConfig(dt=1e-3, n_paths=1_000_000, seed=80)
    # the Euler loop itself; from the centre the walk on spheres is exact,
    # so its twin starts off centre
    est = mc.mean_exit_estimate(mc._euler_exit(model, constant_drift(0.0), unit_interval,
                                               0.0, cfg, track_occupation=False))
    mc_rel = abs(est.value - closed) / closed
    closed_off = stable.mean_exit_time(ALPHA, (-1, 1), 0.7)
    wos = mc.mc_mean_exit_time(model, constant_drift(0.0), unit_interval, 0.7, cfg)
    wos_rel = abs(wos.value - closed_off) / closed_off
    ok = mc_rel <= 0.01 and wos_rel <= 0.01 and quad_rel <= 1e-3
    _report(8, "mean exit time", ok,
            f"Euler {est.value:.5f} vs closed {closed:.5f} ({mc_rel * 100:.2f}% <= 1%), "
            f"walk on spheres from 0.7 {wos.value:.5f} vs {closed_off:.5f} "
            f"({wos_rel * 100:.3f}% <= 1%), Green integral rel {quad_rel:.1e} <= 1e-3")


def test_criterion_9_kato_certification(table15):
    accept = kato.is_kato(power_drift(0.4), table15)
    reject = kato.is_kato(power_drift(0.6), table15)
    bounded = [kato.is_kato(b, table15).passed
               for b in (constant_drift(1.0), constant_drift(5.0),
                         sin_drift(1.0, 5.0), sin_drift(2.0, 11.0))]
    ok = accept.passed and not reject.passed and all(bounded)
    _report(9, "drift-class certification", ok,
            f"|z|^-0.4 accepted, |z|^-0.6 rejected, {len(bounded)} bounded drifts accepted")


def test_criterion_10_deterministic_outputs(tmp_path):
    cfg = {
        "model": {"family": "stable", "alpha": 1.5},
        "domain": {"intervals": [[-1.0, 1.0]]},
        "drift": {"family": "sin", "amplitude": 1.0, "frequency": 5.0},
        "mc": {"paths": 5000, "dt": 0.002, "seed": 33, "bin_width": 0.1},
        "source": 0.2,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["mc", "--config", str(p), "--out", str(out)]) == 0
        outs.append(out)
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in ("mc_green.csv", "mc_exit_law.csv"))
    _report(10, "deterministic artifacts", same,
            "identical config+seed gives byte-identical CSV outputs")
