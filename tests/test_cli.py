import json

import numpy as np
import pytest

from levygreen import montecarlo as mc
from levygreen.cli import main
from levygreen.geometry import interval_union
from levygreen.kato import drift_from_config
from levygreen.models import model_from_config

SMALL_CFG = {
    "model": {"family": "stable", "alpha": 1.5},
    "domain": {"intervals": [[-0.02, 0.02]]},
    "drift": {"family": "constant", "value": 1.0},
    "grid": {"nodes_per_component": 100, "points_per_decade": 16,
             "three_g_triples": 2000, "checker_grid": 40},
    "mc": {"paths": 2000, "dt": 0.001, "seed": 7, "bin_width": 0.005},
    "source": 0.0,
}
TRUNCATED = {"family": "truncated-stable", "alpha": 1.5, "truncation_radius": 0.3}
# lower scaling exponent 0.75 above frequency one: the paper's hypothesis needs > 1
SUBLINEAR = {"family": "stable-mixture", "alphas": [0.6, 0.9]}
# passes the hypothesis (exponent 1.035) but the kernel quadratures miss their target
NEAR_ONE = {"family": "stable-mixture", "alphas": [1.02, 1.05]}


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(SMALL_CFG))
    return str(p)


def test_kernels_command(tmp_path, cfg_path):
    out = tmp_path / "out"
    assert main(["kernels", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "kernels.csv").read_text().splitlines()
    assert [ln.split("=")[0] for ln in lines[:3]] == ["# config_sha256", "# version", "# model"]
    assert lines[3] == "r,h,V,M,K,dK"
    # 16 points per decade over the eight decades [1e-6, 1e2] x diam
    assert len(lines) == 4 + 16 * 8
    inv = json.loads((out / "kernel_invariants.json").read_text())
    assert inv["checks"]["all_pass"] is True
    # quadrature diagnostics sit next to the verdict, not in kernels.csv
    assert inv["checks"]["quadrature_oracle_rel_diff"] <= 1e-8
    assert 0.0 <= inv["checks"]["max_est_rel_err"] <= 1e-10
    assert (out / "kernels.svg").exists()


def test_malformed_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["kernels", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    missing_model = tmp_path / "m.json"
    missing_model.write_text(json.dumps({"domain": {"intervals": [[-1, 1]]}}))
    assert main(["kernels", "--config", str(missing_model),
                 "--out", str(tmp_path / "o")]) == 2


def test_perturb_zero_drift_ratio_is_one(tmp_path):
    cfg = dict(SMALL_CFG, drift={"family": "zero"},
               domain={"intervals": [[-1.0, 1.0]]})
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["perturb", "--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "comparability.json").read_text())["report"]
    assert rep["constant"] == 1.0
    ratios = [float(ln.split(",")[4]) for ln in
              (out / "ratios.csv").read_text().splitlines()
              if ln and not ln.startswith("#") and not ln.startswith("x,")]
    assert all(r == 1.0 for r in ratios)
    assert (out / "ratio_heatmap.svg").exists()


def test_mc_reproducibility_byte_identical(tmp_path, cfg_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["mc", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["mc", "--config", cfg_path, "--out", str(out2)]) == 0
    for name in ("mc_green.csv", "mc_exit_law.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_perturb_reproducibility_byte_identical(tmp_path):
    cfg = dict(SMALL_CFG, domain={"intervals": [[-1.0, -0.2], [0.2, 1.0]]},
               drift={"family": "sin", "amplitude": 1.0, "frequency": 5.0},
               grid={"nodes_per_component": 40})
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["perturb", "--config", str(p), "--out", str(out1)]) == 0
    assert main(["perturb", "--config", str(p), "--out", str(out2)]) == 0
    for name in ("ratios.csv", "ratio_heatmap.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rows = [ln for ln in (out1 / "ratios.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert rows[0] == "x,y,G,Gt,ratio"
    n = int(round(np.sqrt(len(rows) - 1)))
    assert n * n == len(rows) - 1
    assert (out1 / "ratio_heatmap.svg").read_text().count("<rect ") == n * n + 1


def test_mc_seed_override_changes_output(tmp_path, cfg_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["mc", "--config", cfg_path, "--out", str(out1)])
    main(["mc", "--config", cfg_path, "--out", str(out2), "--seed", "99"])
    assert (out1 / "mc_green.csv").read_bytes() != (out2 / "mc_green.csv").read_bytes()


def test_kato_command(tmp_path, cfg_path):
    out = tmp_path / "out"
    assert main(["kato", "--config", cfg_path, "--out", str(out)]) == 0
    cert = json.loads((out / "kato_certificate.json").read_text())
    assert cert["passed"] is True
    # a supercritical pole is refused with exit code 1
    cfg = dict(SMALL_CFG, drift={"family": "power", "beta": 0.6})
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["kato", "--config", str(p), "--out", str(out)]) == 1


def test_green_command(tmp_path, cfg_path):
    cfg = dict(SMALL_CFG, domain={"intervals": [[-1.0, 1.0]]})
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["green", "--config", str(p), "--out", str(out)]) == 0
    rec = json.loads((out / "green_checks.json").read_text())["records"]
    names = {r["check"] for r in rec}
    assert names >= {"gradient_bound", "three_g", "poisson_mass", "poisson_envelope"}


def test_report_small_domain_bounds(tmp_path, cfg_path, capsys):
    out = tmp_path / "out"
    code = main(["report", "--config", cfg_path, "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "C <= 2: PASS" in captured
    # the paper's weak lower scaling hypothesis, with its estimated exponent
    assert "lower scaling order > 1: PASS  (alpha_low_1=1.5000)" in captured
    summary = json.loads((out / "summary.json").read_text())
    assert {"name": "lower scaling order > 1", "passed": True,
            "detail": "alpha_low_1=1.5000"} in summary["checks"]
    assert all(c["passed"] for c in summary["checks"])
    assert summary["config_sha256"]
    assert summary["version"]


@pytest.mark.parametrize("command", ["perturb", "green", "report"])
def test_green_commands_refuse_models_without_closed_forms(tmp_path, command, capsys):
    # a stable mixture is a known family that the closed forms do not cover
    cfg = dict(SMALL_CFG, model={"family": "stable-mixture", "alphas": [1.2, 1.8]})
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "closed forms exist only for the stable family" in err
    assert "'stable-mixture'" in err
    assert not (out / "ratios.csv").exists()


def test_mc_drift_pole_at_source_is_a_config_error(tmp_path, capsys):
    cfg = dict(SMALL_CFG, domain={"intervals": [[-1.0, -0.4], [-0.15, 0.45], [0.7, 1.3]]},
               drift={"family": "power", "beta": 0.2, "center": 0.1}, source=0.1)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["mc", "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: drift")
    assert not any(out.iterdir())


@pytest.mark.parametrize("drift,engine", [({"family": "zero"}, "walk-on-spheres"),
                                          ({"family": "constant", "value": 1.0}, "euler")])
def test_mc_estimates_name_the_engine(tmp_path, drift, engine):
    cfg = dict(SMALL_CFG, drift=drift)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["mc", "--config", str(p), "--out", str(out)]) == 0
    assert json.loads((out / "mc_estimates.json").read_text())["engine"] == engine


@pytest.mark.parametrize("model,drift", [
    ({"family": "stable", "alpha": 1.5}, {"family": "sin", "amplitude": 1.0, "frequency": 5.0}),
    ({"family": "stable", "alpha": 1.5}, {"family": "zero"}),
    ({"family": "stable-mixture", "alphas": [1.2, 1.8], "weights": [1.0, 0.5]},
     {"family": "constant", "value": 1.0}),
], ids=["euler-scored", "walk-on-spheres", "mixture"])
def test_mc_estimates_report_both_estimators(tmp_path, capsys, model, drift):
    cfg = dict(SMALL_CFG, model=model, drift=drift, source=0.5,
               domain={"intervals": [[-1.0, -0.2], [0.2, 1.0]]},
               mc={"paths": 1000, "dt": 0.002, "seed": 3, "bin_width": 0.1})
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["mc", "--config", str(p), "--out", str(out)]) == 0
    est = json.loads((out / "mc_estimates.json").read_text())
    assert set(est) == {"config_sha256", "version", "seed", "dt", "paths", "engine",
                        "mean_exit_time", "mean_exit_time_raw", "dynkin", "censored",
                        "occupation_total"}
    # the raw estimate is the independent witness, bit for bit
    sample = mc.simulate_exit(model_from_config(model), drift_from_config(drift),
                              interval_union((-1.0, -0.2), (0.2, 1.0)), 0.5,
                              mc.PathConfig(dt=0.002, n_paths=1000, seed=3, bin_width=0.1))
    raw = mc.mean_exit_estimate(sample)
    assert est["mean_exit_time_raw"] == {"value": raw.value, "se": raw.se}
    combined, dynkin = mc.dynkin_mean_exit_estimate(sample)
    assert est["mean_exit_time"] == {"value": combined.value, "se": combined.se}
    assert est["dynkin"] == dynkin
    if drift["family"] == "sin":
        assert set(dynkin) == {"lambda", "variance_ratio"}
        assert dynkin["variance_ratio"] == pytest.approx((raw.se / combined.se) ** 2)
        assert combined.se < raw.se
    else:
        assert dynkin is None and combined == raw
    assert capsys.readouterr().out == (
        f"mean exit time {combined.value:.6g} +- {combined.se:.2g} "
        f"(raw {raw.value:.6g} +- {raw.se:.2g}; {sample.censored} censored)\n")


@pytest.mark.parametrize("command,patch", [
    ("mc", {"source": 0.5}),
    ("green", {"source": 0.5}),
    ("report", {"source": 0.5}),
    ("mc", {"mc": {"paths": 100, "dt": 0}}),
    ("mc", {"mc": {"paths": 100, "bin_width": 0}}),
    ("mc", {"mc": {"paths": 100, "bin_width": -0.01}}),
    ("kernels", {"model": {"family": "stable-mixture", "alphas": 1.5}}),
    ("kernels --grid 0", {}),
    ("kernels --grid -3", {}),
    ("perturb --grid -5", {}),
    ("kernels", {"grid": {"points_per_decade": 0}}),
    ("perturb", {"grid": {"nodes_per_component": 0}}),
    ("report", {"grid": {"nodes_per_component": -1}}),
    ("green", {"grid": {"checker_grid": 0}}),
    ("green", {"grid": {"three_g_triples": 0}}),
    ("mc", {"mc": {"paths": 100.5}}),
    ("mc", {"mc": {"paths": 1}}),
    ("mc", {"mc": {"paths": 100, "seed": -1}}),
    ("mc --seed -1", {"mc": {"paths": 100}}),
    ("green --seed -1", {}),
    ("kernels", {"model": TRUNCATED}),
    ("kato", {"model": TRUNCATED}),
    ("mc", {"model": TRUNCATED}),
    ("kato", {"drift": {"family": "bounded-smooth"}}),
    ("mc", {"drift": {"family": "power-singularity", "beta": 0.3, "center": 0.5}}),
    ("mc", {"domain": {"intervals": [[-2, 2]]}, "source": True}),
    ("mc", {"mc": {"paths": 100, "dt": True}}),
    ("mc", {"mc": {"paths": 100, "bin_width": True}}),
    ("kernels", {"model": SUBLINEAR}),
    ("kato", {"model": SUBLINEAR}),
    ("kernels", {"model": NEAR_ONE}),
    ("kato", {"model": NEAR_ONE}),
    ("kato", {"drift": {"family": "constant", "value": float("nan")}}),
    ("mc", {"model": {"family": "stable-mixture", "alphas": [1.2, 1.8],
                      "weights": [1.0, float("inf")]}}),
    ("perturb", {"domain": {"intervals": [[-0.02, float("nan")]]}}),
    ("perturb", {"drift": {"family": "constant", "value": float("nan")}}),
    # integer literals too large for a float
    ("mc", {"source": 10 ** 400}),
    ("mc", {"drift": {"family": "constant", "value": 10 ** 400}}),
    ("mc", {"model": {"family": "stable-mixture", "alphas": [1.2, 1.8],
                      "weights": [1, 10 ** 400]}}),
    ("mc", {"domain": {"intervals": [[-1, 10 ** 400]]}}),
    # refused before dispatch, whichever command runs
    ("kernels", [SMALL_CFG]),
    ("mc", None),
    ("kernels", {"grid": 5}),
    ("perturb", {"grid": 5}),
    ("mc", {"mc": [1]}),
    ("green", {"mc": [1]}),
    ("kato", {"grid": {"points_per_decade": 0}}),
    ("green", {"grid": {"nodes_per_component": -3}}),
    ("kato", {"mc": {"seed": -1}}),
    ("perturb", {"mc": {"seed": 1.5}}),
    ("kato --grid 0", {}),
    ("perturb --seed -1", {}),
], ids=["mc-source-outside", "green-source-outside", "report-source-outside",
        "mc-dt-zero", "mc-bin-width-zero", "mc-bin-width-negative", "kernels-model-shape",
        "kernels-grid-flag-zero", "kernels-grid-flag-negative", "perturb-grid-flag-negative",
        "kernels-points-per-decade-zero", "perturb-nodes-zero", "report-nodes-negative",
        "green-checker-grid-zero", "green-triples-zero", "mc-paths-fraction", "mc-paths-one",
        "mc-seed-negative", "mc-seed-flag-negative", "green-seed-flag-negative",
        "kernels-truncated-stable", "kato-truncated-stable", "mc-truncated-stable",
        "kato-drift-bounded-smooth", "mc-drift-power-singularity", "mc-source-boolean",
        "mc-dt-boolean", "mc-bin-width-boolean", "kernels-sublinear-mixture",
        "kato-sublinear-mixture", "kernels-near-one-mixture", "kato-near-one-mixture",
        "kato-drift-nan", "mc-mixture-weight-infinite", "perturb-endpoint-nan",
        "perturb-drift-nan", "mc-source-int-overflow", "mc-drift-int-overflow",
        "mc-mixture-weight-int-overflow", "mc-endpoint-int-overflow",
        "kernels-config-list", "mc-config-null", "kernels-grid-not-object",
        "perturb-grid-not-object", "mc-mc-not-object", "green-mc-not-object",
        "kato-points-per-decade-zero", "green-nodes-negative", "kato-mc-seed-negative",
        "perturb-mc-seed-fraction", "kato-grid-flag-zero", "perturb-seed-flag-negative"])
def test_config_errors_exit_2_before_writing(tmp_path, capsys, command, patch):
    # a patch that is not a dict is the whole config
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(SMALL_CFG, **patch) if isinstance(patch, dict) else patch))
    out = tmp_path / "out"
    assert main([*command.split(), "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists() or not any(out.iterdir())
    if not isinstance(patch, dict):     # refused before the output directory is made
        assert not out.exists()


def test_overflowing_config_number_is_a_config_error(tmp_path, capsys):
    # json reads 1e400 as inf
    p = tmp_path / "c.json"
    p.write_text(json.dumps(SMALL_CFG).replace('"value": 1.0', '"value": 1e400'))
    out = tmp_path / "out"
    assert main(["kato", "--config", str(p), "--out", str(out)]) == 2
    assert "1e400 is not finite" in capsys.readouterr().err
    assert not out.exists()
