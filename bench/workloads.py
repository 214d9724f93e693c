"""Seeded inputs, timed operations and untimed references of each workload.

A workload is a fixed list of operations ("ops") drawn from the seed.  The
list is stratified: each position covers one slice of the input ranges, and
the seed only jitters values inside that slice, so every seed asks for about
the same amount of work while the inputs still differ.  The program
receives only the generated configs.

perturb-crosscheck
    The paper's study end to end: ``levygreen perturb`` on a 2- or
    3-interval union, then ``levygreen mc`` with the same drift and source;
    the Gt that perturb writes must match an untimed API solve, and the
    Monte Carlo occupation bins are checked against that solve's row.
    Runs the Nystrom solve, the closed forms, artifact writing and drifted
    Euler paths, and never builds a kernel table.
exit-mc
    Driftless exit problems through the ``montecarlo`` API: mean exit time,
    exit law and occupation density, on intervals and unions, with sources
    near the boundary.  Driftless paths do nearly all the timed work; no
    CLI, no kernel table, no timed solve.
tables-kato
    ``levygreen kernels`` and ``levygreen kato`` on stable and
    stable-mixture models, with power drifts on both sides of the critical
    exponent beta = alpha - 1 and a bounded drift, plus three small
    driftless ``levygreen mc`` ops.  QUADPACK kernel tables do most of the work.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import checks
from levygreen import cli, green, montecarlo, perturbation, stable
from levygreen.geometry import C11Set
from levygreen.kato import drift_from_config
from levygreen.models import stable_model

WORKLOADS = ("perturb-crosscheck", "exit-mc", "tables-kato")

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


# ---------------------------------------------------------------------------
# input generation
#
# Each op position is one stratum: a fixed centre for every input (stability
# index, geometry, source, grid, drift) that the seed jitters by a few
# tenths of a percent (a few percent for drift parameters); the seed also
# draws the Monte Carlo seeds.  The centres spread over the ranges the
# workload covers, so the checks and costs of every range show on every
# seed, and the work per run hardly depends on the seed: the cost of a
# near-boundary Monte Carlo op moves by about as much as its inputs do.


def _jit(rng, centre: float, half: float) -> float:
    return float(centre + rng.uniform(-half, half))


def _two_intervals(rng) -> list[list[float]]:
    gap, shift = _jit(rng, 0.4, 0.005), _jit(rng, 0.0, 0.005)
    return [[-1.0, shift - gap / 2.0], [shift + gap / 2.0, 1.0]]


def _three_intervals(rng) -> list[list[float]]:
    ivs, left = [], -1.0
    for k in range(3):
        length = _jit(rng, 0.575, 0.005)
        ivs.append([left, left + length])
        left += length + _jit(rng, 0.25, 0.005)
    return ivs


def _domain(rng, n_intervals: int) -> list[list[float]]:
    if n_intervals == 1:
        R = _jit(rng, 1.0, 0.01)
        return [[-R, R]]
    return _two_intervals(rng) if n_intervals == 2 else _three_intervals(rng)


def _at(rng, iv, rel: float) -> float:
    """The point at relative position rel (jittered by 0.005) of an interval."""
    a, b = iv
    return float(a + _jit(rng, rel, 0.005) * (b - a))


def _exit_dt(alpha: float, iv) -> float:
    """Step of 1e-3 on a unit half-length, scaled with the component's exit-time scale."""
    return float(1e-3 * min(1.0, 0.5 * (iv[1] - iv[0])) ** alpha)


def _mc_seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def _perturb_pair(rng, tag: str, n_intervals: int, alpha: float, npc: int, source,
                  drift_family: str, paths: int) -> list[dict]:
    alpha = _jit(rng, alpha, 0.005)
    ivs = _domain(rng, n_intervals)
    comp, rel = source
    x0 = _at(rng, ivs[comp], rel)
    if drift_family == "sin":
        drift = {"family": "sin", "amplitude": _jit(rng, 1.0, 0.02),
                 "frequency": _jit(rng, 5.0, 0.1)}
    elif drift_family == "constant":
        drift = {"family": "constant", "value": _jit(rng, 1.0, 0.02)}
    else:
        # admissible by power counting (beta about half of alpha - 1), with
        # the pole in the middle of the last component, away from the source
        drift = {"family": "power", "beta": _jit(rng, 0.5, 0.01) * (alpha - 1.0),
                 "center": _at(rng, ivs[-1], 0.5), "strength": _jit(rng, 0.6, 0.01)}
    cfg = {
        "model": {"family": "stable", "alpha": alpha},
        "domain": {"intervals": ivs},
        "drift": drift,
        "grid": {"nodes_per_component": int(npc + rng.integers(-2, 3))},
        "mc": {"paths": paths, "dt": 5e-4, "seed": _mc_seed(rng), "bin_width": 0.1},
        "source": x0,
    }
    return [{"name": f"{tag}perturb", "kind": "cli-perturb", "pair": tag, "cfg": cfg},
            {"name": f"{tag}mc", "kind": "cli-mc", "pair": tag, "cfg": cfg}]


def _exit_op(rng, tag: str, kind: str, n_intervals: int, alpha: float, source,
             paths: int) -> dict:
    alpha = _jit(rng, alpha, 0.005)
    ivs = _domain(rng, n_intervals)
    comp, rel = source
    if rel == "boundary":       # 6 % of the half-length inside either end
        a, b = ivs[comp]
        d = _jit(rng, 0.06, 0.001) * 0.5 * (b - a)
        x0 = float(b - d if rng.random() < 0.5 else a + d)
    else:
        x0 = _at(rng, ivs[comp], rel)
    return {"name": f"{tag}{kind}", "kind": f"api-{kind}", "alpha": alpha,
            "intervals": ivs, "source": x0, "paths": paths,
            "dt": _exit_dt(alpha, ivs[comp]), "seed": _mc_seed(rng), "bin_width": 0.1}


def _kernels_op(rng, tag: str, model: dict, ppd: int) -> dict:
    cfg = {"model": model, "domain": {"intervals": _domain(rng, 1)},
           "grid": {"points_per_decade": int(ppd + rng.integers(0, 2))}}
    return {"name": f"{tag}kernels", "kind": "cli-kernels", "cfg": cfg}


def _kato_op(rng, tag: str, alpha: float, side: str) -> dict:
    alpha = _jit(rng, alpha, 0.005)
    if side == "bounded":
        drift = {"family": "sin", "amplitude": _jit(rng, 1.5, 0.03),
                 "frequency": _jit(rng, 8.0, 0.16)}
        admissible = True
    else:
        # 20 % on either side of the critical exponent alpha - 1
        rel = _jit(rng, 0.2, 0.005)
        beta = (alpha - 1.0) * (1.0 - rel if side == "below" else 1.0 + rel)
        drift = {"family": "power", "beta": beta, "center": 0.0, "strength": 1.0}
        admissible = side == "below"
    cfg = {"model": {"family": "stable", "alpha": alpha},
           "domain": {"intervals": _domain(rng, 1)}, "drift": drift}
    return {"name": f"{tag}kato", "kind": "cli-kato", "admissible": admissible, "cfg": cfg}


def _driftless_mc_op(rng, tag: str, alpha: float, paths: int) -> dict:
    cfg = {"model": {"family": "stable", "alpha": _jit(rng, alpha, 0.005)},
           "domain": {"intervals": [[-1.0, 1.0]]}, "drift": {"family": "zero"},
           "mc": {"paths": paths, "dt": 1e-3, "seed": _mc_seed(rng), "bin_width": 0.1},
           "source": _jit(rng, 0.25, 0.01)}
    return {"name": f"{tag}mc", "kind": "cli-mc", "cfg": cfg}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one run (JSON-serialisable)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "perturb-crosscheck":
        # four pairs, so op_p50_s and mc_cost_1pct_s are each the mean of
        # the two middle values, and d's Monte Carlo cost is about b's.
        # c has 320 nodes: at alpha 1.75 and 200 nodes the program's
        # perturbed exit mass is off by 3e-2 (a known defect, kept as an
        # expected failure in test_bench.py); a has 240 to keep a pass
        # near 20 s
        ops = (_perturb_pair(rng, "a.", 2, 1.45, 240, (1, 0.35), "sin", 20_000)
               + _perturb_pair(rng, "b.", 3, 1.25, 160, (1, 0.5), "constant", 20_000)
               + _perturb_pair(rng, "c.", 2, 1.75, 320, (0, 0.4), "power", 20_000)
               + _perturb_pair(rng, "d.", 2, 1.4, 240, (1, 0.6), "constant", 20_000))
        rerun = 3
    elif workload == "exit-mc":
        # path counts chosen so that the five ops cost about the same, which
        # makes op_p50_s a median over comparable ops rather than one op
        ops = [_exit_op(rng, "a.", "mean-exit", 1, 1.3, (0, "boundary"), 20_000),
               _exit_op(rng, "b.", "exit-law", 1, 1.5, (0, 0.35), 20_000),
               _exit_op(rng, "c.", "occupation", 2, 1.4, (0, 0.5), 20_000),
               _exit_op(rng, "d.", "mean-exit", 3, 1.7, (1, "boundary"), 50_000),
               _exit_op(rng, "e.", "exit-law", 2, 1.6, (1, 0.5), 35_000)]
        rerun = 3
    elif workload == "tables-kato":
        mix = {"family": "stable-mixture",
               "alphas": [_jit(rng, 1.3, 0.005), _jit(rng, 1.7, 0.005)],
               "weights": [_jit(rng, 1.0, 0.02), _jit(rng, 1.0, 0.02)]}
        # b stays below alpha 1.755, above which the program's h is off by
        # 1e-5, and d is at alpha 1.5, since at alpha 1.3 the program's Kato
        # certificate rejects that drift (known defects, kept as expected
        # failures in test_bench.py)
        ops = [_kernels_op(rng, "a.", {"family": "stable", "alpha": _jit(rng, 1.3, 0.005)}, 32),
               _kernels_op(rng, "b.", {"family": "stable", "alpha": _jit(rng, 1.7, 0.005)}, 40),
               _kernels_op(rng, "c.", mix, 32),
               _kato_op(rng, "d.", 1.5, "below"),
               _kato_op(rng, "e.", 1.7, "above"),
               _kato_op(rng, "f.", 1.15, "bounded"),
               # three like ops, so mc_cost_1pct_s is a median of comparable costs
               _driftless_mc_op(rng, "g.", 1.5, 6_000),
               _driftless_mc_op(rng, "h.", 1.5, 6_000),
               _driftless_mc_op(rng, "i.", 1.5, 6_000)]
        rerun = 6
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # the op run a second time, untimed, for the byte-identity check: a
    # cheap one that writes CSV artifacts (acceptance criterion 10) or,
    # without a CLI op, returns sample arrays
    ops[rerun]["rerun"] = True
    return ops


def warmup_op(op: dict) -> dict:
    """A reduced copy of an op that runs the same code paths in well under a second.

    Monte Carlo ops get 500 paths and a 10 times longer step: the number of
    steps follows the longest exit time in the sample, which changes with
    the seed, so the warm-up keeps it small to keep set-up time steady.
    """
    small = json.loads(json.dumps(op))
    small["name"] = "warmup"
    small.pop("pair", None)
    mc = small["cfg"].get("mc") if "cfg" in small else small
    if "cfg" in small:
        small["cfg"].get("grid", {}).update({"nodes_per_component": 24, "points_per_decade": 2})
    if mc is not None:
        mc.update({"paths": 500, "dt": 10.0 * mc["dt"]})
    return small


# ---------------------------------------------------------------------------
# running and checking


def _bin_reference(value, edges, x0: float) -> np.ndarray:
    """Bin averages of y -> value(y), splitting the bin that holds the source."""
    out = []
    for e in edges:
        for lo, hi in zip(e[:-1], e[1:]):
            cuts = [lo, x0, hi] if lo < x0 < hi else [lo, hi]
            total = 0.0
            for a, b in zip(cuts[:-1], cuts[1:]):
                pts = 0.5 * (b - a) * _GL_X + 0.5 * (b + a)
                total += 0.5 * (b - a) * float(np.asarray(value(pts), dtype=float) @ _GL_W)
            out.append(total / (hi - lo))
    return np.array(out)


def _read_csv(path: Path) -> np.ndarray:
    """The numeric rows of a CLI CSV artifact (after its # lines and column header)."""
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break                       # the column header
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _artifact_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


class Runner:
    """Runs ops of one workload in a work directory and checks their results.

    ``prepare`` (untimed) writes configs and computes references, cached
    per op; ``run`` is the timed call; ``check`` (untimed) returns
    ``(ok, reason, estimate)`` where ``estimate`` is (mean exit time, its
    standard error) for ops that estimate one, else None.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._refs: dict[str, dict] = {}
        self._last: dict[str, object] = {}      # latest result of each API op

    def out_dir(self, op: dict) -> Path:
        return self.workdir / op["name"]

    def prepare(self, op: dict, reference: bool = True) -> None:
        if "cfg" in op:
            self.out_dir(op).mkdir(parents=True, exist_ok=True)
            (self.workdir / f"{op['name']}.json").write_text(json.dumps(op["cfg"]))
        key = op.get("pair", op["name"])
        if key not in self._refs:
            self._refs[key] = self._reference(op) if reference else {}

    def run(self, op: dict, out: Path | None = None):
        kind = op["kind"]
        if kind.startswith("cli-"):
            out = out or self.out_dir(op)
            argv = [kind[4:], "--config", str(self.workdir / f"{op['name']}.json"),
                    "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)       # looked up per call, so a trace sees it
        model = stable_model(op["alpha"])
        D = C11Set(tuple(tuple(iv) for iv in op["intervals"]))
        zero = drift_from_config({"family": "zero"})
        config = montecarlo.PathConfig(dt=op["dt"], n_paths=op["paths"], seed=op["seed"],
                                       bin_width=op["bin_width"])
        if kind == "api-mean-exit":
            result = montecarlo.mc_mean_exit_time(model, zero, D, op["source"], config)
        elif kind == "api-exit-law":
            result = montecarlo.mc_exit_law(model, zero, D, op["source"], config)
        elif kind == "api-occupation":
            result = montecarlo.mc_green(model, zero, D, op["source"], config)
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        self._last[op["name"]] = result
        return result

    # -- references ---------------------------------------------------------

    def _reference(self, op: dict) -> dict:
        kind = op["kind"]
        if op.get("pair"):
            cfg = op["cfg"]
            alpha = cfg["model"]["alpha"]
            D = C11Set(tuple(tuple(iv) for iv in cfg["domain"]["intervals"]))
            npc = cfg["grid"]["nodes_per_component"]
            G = green.numeric_table_green(alpha, D, nodes_per_component=max(npc, 120))
            grid = perturbation.build_grid(D, npc, alpha)
            pg = perturbation.solve_perturbed(G, drift_from_config(cfg["drift"]), grid)
            x0 = cfg["source"]
            row = pg.row(x0)
            return {"row": row, "nodes": grid.nodes, "tau": float(row @ grid.weights),
                    "matrix": pg.matrix, "mass": perturbation.perturbed_poisson_mass(pg, x0)}
        if kind == "cli-mc":
            cfg = op["cfg"]
            return {"tau": stable.mean_exit_time(cfg["model"]["alpha"],
                                                 cfg["domain"]["intervals"][0], cfg["source"])}
        if kind.startswith("api-"):
            alpha, x0 = op["alpha"], op["source"]
            D = C11Set(tuple(tuple(iv) for iv in op["intervals"]))
            if len(D.intervals) == 1:
                iv = D.intervals[0]
                G = green.stable_oracle(alpha, D)
                ref = {"G": G, "tau": stable.mean_exit_time(alpha, iv, x0)}
                density = lambda z: stable.poisson_interval(alpha, iv, x0, z)  # noqa: E731
            else:
                G = green.numeric_table_green(alpha, D)
                ref = {"G": G, "tau": green.exit_time_from_green(G, x0)}
                density = lambda z: green.poisson_kernel(G, x0, z)  # noqa: E731
            if kind == "api-exit-law":
                ref["cdf"] = green.exit_law_cdf(density, D)
            return ref
        return {}

    # -- checks -------------------------------------------------------------

    def check(self, op: dict, result) -> tuple[bool, str, tuple[float, float] | None]:
        kind = op["kind"]
        ref = self._refs[op.get("pair", op["name"])]
        if kind.startswith("cli-"):
            expected = 0 if op.get("admissible", True) else 1
            if result != expected:
                return False, f"exit code {result}, expected {expected}", None
        out = self.out_dir(op)
        if kind == "cli-perturb":
            # the exit mass and the Monte Carlo cross-check use the reference
            # solve, so they speak for this op only once its Gt matches it
            report = json.loads((out / "comparability.json").read_text())["report"]
            ratios = _read_csv(out / "ratios.csv")          # x, y, G, Gt, ratio
            same = checks.perturbed_matrix(ratios[:, 0], ratios[:, 1], ratios[:, 3],
                                           ref["nodes"], ref["matrix"])
            ok, why = checks.all_of(same, checks.nystrom_report(report),
                                    checks.exit_mass(ref["mass"]))
            return ok, why, None
        if kind == "cli-mc":
            est = json.loads((out / "mc_estimates.json").read_text())["mean_exit_time"]
            tau = (est["value"], est["se"])
            results = [checks.mean_exit_time(*tau, ref["tau"])]
            if "row" in ref:
                bins = _read_csv(out / "mc_green.csv")          # center, width, value, se
                edges = [np.array([c - w / 2.0, c + w / 2.0]) for c, w, _, _ in bins]
                want = _bin_reference(lambda y: np.interp(y, ref["nodes"], ref["row"]),
                                      edges, op["cfg"]["source"])
                results.insert(0, checks.occupation_bins(bins[:, 2], bins[:, 3], want))
            return (*checks.all_of(*results), tau)
        if kind == "cli-kernels":
            inv = json.loads((out / "kernel_invariants.json").read_text())["checks"]
            table = _read_csv(out / "kernels.csv")          # r, h, V, M, K, dK
            model = op["cfg"]["model"]
            if model["family"] == "stable":
                fit = checks.stable_table(model["alpha"], table[:, 0], table[:, 1],
                                          table[:, 4], table[:, 5])
            else:
                fit = checks.mixture_h(model["alphas"], model["weights"],
                                       table[:, 0], table[:, 1])
            inv_ok = (bool(inv["all_pass"]), "table invariants "
                      + ("pass" if inv["all_pass"] else "FAIL"))
            return (*checks.all_of(fit, inv_ok), None)
        if kind == "cli-kato":
            cert = json.loads((out / "kato_certificate.json").read_text())
            return (*checks.kato_verdict(cert["passed"], op["admissible"]), None)
        # montecarlo API ops
        if kind == "api-mean-exit":
            tau = (result.value, result.se)
        else:
            sample = result["sample"] if kind == "api-exit-law" else result[3]
            tau = (float(np.mean(sample.tau)),
                   float(np.std(sample.tau, ddof=1) / np.sqrt(sample.n_paths)))
        results = [checks.mean_exit_time(*tau, ref["tau"])]
        if kind == "api-exit-law":
            ks = checks.ks_distance(result["sample"].exit_pos, ref["cdf"])
            results.insert(0, checks.exit_law_ks(ks, op["paths"]))
        elif kind == "api-occupation":
            bins, val, se, _ = result
            want = _bin_reference(lambda y: ref["G"].value(op["source"], y), bins.edges,
                                  op["source"])
            results.insert(0, checks.occupation_bins(val, se, want))
        return (*checks.all_of(*results), tau)

    def rerun_identical(self, op: dict) -> tuple[bool, str]:
        """Run the op again (untimed) and compare its artifacts byte for byte."""
        if op["kind"].startswith("cli-"):
            out = self.workdir / f"{op['name']}-rerun"
            out.mkdir(parents=True, exist_ok=True)
            self.run(op, out)
            a, b = _artifact_files(self.out_dir(op)), _artifact_files(out)
            same = bool(a) and a == b
            what = ", ".join(sorted(a)) or "no CSV artifacts"
        else:
            def arrays(res):
                if op["kind"] == "api-mean-exit":
                    return [np.float64(res.value).tobytes(), np.float64(res.se).tobytes()]
                s = res["sample"] if op["kind"] == "api-exit-law" else res[3]
                return [s.tau.tobytes(), s.exit_pos.tobytes(), s.occupation.tobytes()]
            same = arrays(self._last[op["name"]]) == arrays(self.run(op))
            what = "result arrays"
        return same, f"rerun of {op['name']}: {what} {'identical' if same else 'DIFFER'}"
