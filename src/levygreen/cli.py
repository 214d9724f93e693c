"""Command-line front end: batch experiments with reproducible artifacts.

Subcommands: kernels | green | perturb | mc | kato | report.  Every output
file embeds the config hash and the toolkit version; rerunning a command
with the same config and seed reproduces the numeric content byte for byte
(single-threaded).  Exit codes: 0 success, 1 check failure, 2 config error,
raised before any artifact is written.  A config names the family
``stable`` or ``stable-mixture``; any other is unknown, a config error.
green, perturb and report refuse every family but ``stable`` with 2, since
only it has the closed forms; mc serves both (it draws their paths
exactly); kernels and kato refuse any model whose lower scaling exponent
above frequency one is at most one (``models.require_valid_scaling``), the
paper's weak lower scaling hypothesis, or whose table quadratures miss
their target (``kernels.KernelQuadratureError``).  A config number that is
not finite (``NaN``, ``Infinity``, or a float or integer literal such as
``1e400`` that overflows a float) is a config error too, and so, for every
command, is a config, ``grid`` or ``mc`` section that is not a JSON object, a
grid size below 1 and a seed below 0 (``_check_shape``).  Only this module
and ``svgplot`` write files: the computing modules return arrays and result
dataclasses, and the CSV and JSON formats are decided here.  Each CSV cell
is exactly ``repr`` of its value as a Python float or int (``_csv_rows``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, green, kernels, models, perturbation, svgplot
from . import kato as kato_mod
from . import montecarlo as mc_mod
from .geometry import C11Set


class ConfigError(Exception):
    pass


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def _finite_int(text: str) -> int:
    _finite(text)
    return int(text)


def _load_config(path: str) -> tuple[dict, str]:
    try:
        text = Path(path).read_text()
        cfg = json.loads(text, parse_float=_finite, parse_int=_finite_int,
                         parse_constant=_finite)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]
    return cfg, digest


def _parse_domain(cfg: dict) -> C11Set:
    try:
        return C11Set(tuple(tuple(iv) for iv in cfg["domain"]["intervals"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad domain section: {exc}") from exc


def _parse_model(cfg: dict):
    try:
        return models.model_from_config(cfg["model"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc


def _parse_drift(cfg: dict):
    try:
        return kato_mod.drift_from_config(cfg.get("drift", {"family": "zero"}))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad drift section: {exc}") from exc


def _parse_source(cfg: dict, domain: C11Set):
    """The source point, by default the midpoint of the first interval; it must lie in D."""
    x0 = cfg.get("source", 0.5 * sum(domain.intervals[0]))
    if isinstance(x0, bool) or not isinstance(x0, (int, float)) or not domain.contains(x0):
        raise ConfigError(f"source {x0!r} is not a point of the domain")
    return x0


_GRID_SIZES = ("points_per_decade", "nodes_per_component", "checker_grid", "three_g_triples")


def _check_shape(cfg, args) -> None:
    """Refuse a non-object config or section, sizes below 1 and seeds below 0, for any command."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"the config must be a JSON object, got {type(cfg).__name__}")
    for name in ("grid", "mc"):
        if not isinstance(cfg.get(name, {}), dict):
            raise ConfigError(f"the {name} section must be a JSON object")
    counts = [(f"grid.{k}", v, 1) for k, v in cfg.get("grid", {}).items() if k in _GRID_SIZES]
    counts += [("mc.seed", cfg.get("mc", {}).get("seed", 0), 0),
               ("--grid", 1 if args.grid is None else args.grid, 1),
               ("--seed", 0 if args.seed is None else args.seed, 0)]
    for name, value, lo in counts:
        if isinstance(value, bool) or not isinstance(value, int) or value < lo:
            raise ConfigError(f"{name} must be an integer >= {lo}, got {value!r}")


def _size(cfg: dict, key: str, default: int, flag: int | None = None) -> int:
    """The grid size ``grid.<key>``, or the ``--grid`` flag when it is given."""
    return cfg.get("grid", {}).get(key, default) if flag is None else flag


def _seed(cfg: dict, args) -> int:
    """The ``--seed`` flag when it is given, else ``mc.seed``."""
    return cfg.get("mc", {}).get("seed", 0) if args.seed is None else args.seed


def _meta(digest: str, **extra) -> dict:
    return {"config_sha256": digest, "version": __version__, **extra}


def _json_default(obj):
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n")


def _csv_header(fh, digest: str, **extra) -> None:
    head = f"# config_sha256={digest}\n# version={__version__}\n"
    fh.write((head + "".join(f"# {k}={v}\n" for k, v in extra.items())).encode())


def _csv_rows(*columns) -> bytes:
    """The zipped columns as comma-separated lines; each cell is ``repr`` of its value.

    orjson prints a float's shortest round-trip digits in the notation of
    ``repr`` when the float is zero or 1e-4 <= |x| < 1e16, and an int as
    ``repr`` does.  It writes the other floats differently (``0.00001``,
    ``1e16``, ``null``), so those cells, NaN and +-inf among them, are
    ``repr`` strings, which it quotes.
    """
    if not len(columns[0]):
        return b""
    import orjson

    cells = np.empty((len(columns[0]), len(columns)), dtype=object)
    for k, col in enumerate(map(np.asarray, columns)):
        cells[:, k] = col
        if col.dtype.kind == "f":
            mag = np.abs(col)
            odd = np.flatnonzero((mag != 0) & ~((mag >= 1e-4) & (mag < 1e16)))
            cells[odd, k] = np.fromiter(map(repr, col[odd].tolist()), dtype=object,
                                        count=len(odd))
    text = orjson.dumps(cells.tolist()).replace(b'"', b"")
    return text[2:-2].replace(b"],[", b"\n") + b"\n"


# rows i per ``_csv_rows`` call: on a 648-node grid, 32-row blocks hold about
# 9 MB more Python objects at once than 4-row blocks and are no faster
_GRID_BLOCK = 4


def _write_grid_rows(fh, nodes, *matrices) -> None:
    """One line ``x,y,A[i,j],B[i,j],...`` per node pair, written a few rows i at a time."""
    for i in range(0, len(nodes), _GRID_BLOCK):
        xs = nodes[i:i + _GRID_BLOCK]
        fh.write(_csv_rows(np.repeat(xs, len(nodes)), np.tile(nodes, len(xs)),
                           *(m[i:i + _GRID_BLOCK].ravel() for m in matrices)))


def _green_for(model, domain, n_nodes):
    try:
        alpha = models.stable_index(model)
    except ValueError as exc:
        raise ConfigError(f"Green-function commands: {exc}") from exc
    return green.numeric_table_green(alpha, domain, nodes_per_component=max(n_nodes, 120))


def _table_for(model, domain, points_per_decade):
    try:
        models.require_valid_scaling(model)
    except ValueError as exc:
        raise ConfigError(f"kernel tables: {exc}") from exc
    try:
        return kernels.build_table(model, diam=domain.diam, points_per_decade=points_per_decade)
    except kernels.KernelQuadratureError as exc:
        raise ConfigError(f"kernel tables: {exc}") from exc


def cmd_kernels(cfg: dict, digest: str, out: Path, args) -> int:
    model = _parse_model(cfg)
    domain = _parse_domain(cfg)
    table = _table_for(model, domain, _size(cfg, "points_per_decade", 64, args.grid))
    with open(out / "kernels.csv", "wb") as fh:
        _csv_header(fh, digest, model=json.dumps(model.describe()))
        fh.write(b"r,h,V,M,K,dK\n")
        fh.write(_csv_rows(table.r, table.h, table.V, table.M, table.K, table.dK))
    rep = kernels.check_table_invariants(table)
    _write_json(out / "kernel_invariants.json", {**_meta(digest), "checks": rep})
    svgplot.line_plot(out / "kernels.svg", table.r,
                      {"h": table.h, "V": table.V, "M": table.M, "K": table.K},
                      title="kernel hierarchy")
    print(f"kernel table: {len(table.r)} points, invariants "
          f"{'pass' if rep['all_pass'] else 'FAIL'}")
    return 0 if rep["all_pass"] else 1


def cmd_green(cfg: dict, digest: str, out: Path, args) -> int:
    model = _parse_model(cfg)
    domain = _parse_domain(cfg)
    x0 = _parse_source(cfg, domain)
    n = _size(cfg, "checker_grid", 100, args.grid)
    n_triples = _size(cfg, "three_g_triples", 20000)
    seed = _seed(cfg, args)
    G = _green_for(model, domain, 160)
    table = _table_for(model, domain, 32)

    records = []
    grad = green.check_gradient_bound(G, table, n=n)
    records.append({"check": "gradient_bound", "n": n, "sup": grad["sup"],
                    "inf": None, "grid": n})
    tri = green.three_g_constant(G, table, n_triples=n_triples, seed=seed)
    records.append({"check": "three_g", "n": tri.n, "sup": tri.sup, "inf": None,
                    "grid": None})
    mass = green.poisson_mass(G, x0)
    records.append({"check": "poisson_mass", "n": None, "sup": mass, "inf": mass,
                    "grid": None})
    env = green.check_poisson_envelope(G, table, n_samples=200, seed=seed)
    records.append({"check": "poisson_envelope", "n": env["n"], "sup": env["sup"],
                    "inf": env["inf"], "grid": None})
    payload = {**_meta(digest, domain=domain.intervals, model=model.describe()),
               "records": records}
    _write_json(out / "green_checks.json", payload)
    ok = (np.isfinite(grad["sup"]) and np.isfinite(tri.sup)
          and abs(mass - 1.0) <= 1e-3 and env["finite"])
    for r in records:
        print(f"{r['check']}: sup={r['sup']:.6g}")
    return 0 if ok else 1


def cmd_perturb(cfg: dict, digest: str, out: Path, args) -> int:
    model = _parse_model(cfg)
    domain = _parse_domain(cfg)
    drift = _parse_drift(cfg)
    n = _size(cfg, "nodes_per_component", 200, args.grid)
    G = _green_for(model, domain, n)
    grid = perturbation.build_grid(domain, n, model.alpha)
    pg = perturbation.solve_perturbed(G, drift, grid)
    rep = perturbation.comparability_report(pg)
    _write_json(out / "comparability.json",
                {**_meta(digest, domain=domain.intervals, model=model.describe(),
                         drift=drift.describe()), "report": rep})
    ratios = pg.ratios()
    with open(out / "ratios.csv", "wb") as fh:
        _csv_header(fh, digest, drift=drift.label)
        fh.write(b"x,y,G,Gt,ratio\n")
        _write_grid_rows(fh, grid.nodes, pg.unperturbed, pg.matrix, ratios)
    svgplot.heatmap(out / "ratio_heatmap.svg", ratios,
                    title=f"perturbed/unperturbed ratio (C={rep.constant:.4g})")
    print(f"comparability constant C = {rep.constant:.6g} "
          f"(ratios in [{rep.inf:.4g}, {rep.sup:.4g}], kappa={rep.kappa_disc:.4g})")
    return 0 if np.isfinite(rep.constant) else 1


def cmd_mc(cfg: dict, digest: str, out: Path, args) -> int:
    model = _parse_model(cfg)
    domain = _parse_domain(cfg)
    drift = _parse_drift(cfg)
    mcc = cfg.get("mc", {})
    seed = _seed(cfg, args)
    try:
        config = mc_mod.PathConfig(
            dt=mcc.get("dt", 1e-3), n_paths=mcc.get("paths", 10_000), seed=seed,
            bin_width=mcc.get("bin_width", 0.05))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad mc section: {exc}") from exc
    x0 = _parse_source(cfg, domain)
    try:
        bins, val, se, sample = mc_mod.mc_green(model, drift, domain, x0, config)
    except FloatingPointError as exc:
        raise ConfigError(f"drift {drift.label}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"path simulation: {exc}") from exc
    raw = mc_mod.mean_exit_estimate(sample)
    tau, dynkin = mc_mod.dynkin_mean_exit_estimate(sample)
    head = dict(seed=seed, dt=config.dt, paths=config.n_paths,
                model=json.dumps(model.describe()), domain=json.dumps(domain.intervals),
                drift=drift.label, source=x0)
    with open(out / "mc_green.csv", "wb") as fh:
        _csv_header(fh, digest, **head)
        fh.write(b"center,width,value,se\n")
        fh.write(_csv_rows(bins.centers, bins.widths, val, se))
    counts, edges = mc_mod.exit_histogram(sample.exit_pos, domain)
    with open(out / "mc_exit_law.csv", "wb") as fh:
        _csv_header(fh, digest, **head)
        fh.write(b"left_edge,right_edge,count\n")
        fh.write(_csv_rows(edges[:-1], edges[1:], counts))
    _write_json(out / "mc_estimates.json",
                {**_meta(digest, seed=seed, dt=config.dt, paths=config.n_paths),
                 "engine": sample.engine,
                 "mean_exit_time": {"value": tau.value, "se": tau.se},
                 "mean_exit_time_raw": {"value": raw.value, "se": raw.se},
                 "dynkin": dynkin,
                 "censored": sample.censored,
                 "occupation_total": float(np.sum(val * bins.widths))})
    svgplot.histogram(out / "mc_exit_law.svg", edges, counts, title="exit-position law")
    print(f"mean exit time {tau.value:.6g} +- {tau.se:.2g} "
          f"(raw {raw.value:.6g} +- {raw.se:.2g}; {sample.censored} censored)")
    return 0


def cmd_kato(cfg: dict, digest: str, out: Path, args) -> int:
    model = _parse_model(cfg)
    domain = _parse_domain(cfg)
    drift = _parse_drift(cfg)
    table = _table_for(model, domain, 32)
    cert = kato_mod.is_kato(drift, table)
    _write_json(out / "kato_certificate.json", {**_meta(digest), **dataclasses.asdict(cert)})
    print(f"kato certificate: {'PASS' if cert.passed else 'FAIL'} "
          f"(moduli {', '.join(f'{m:.3g}' for m in cert.moduli)})")
    return 0 if cert.passed else 1


def cmd_report(cfg: dict, digest: str, out: Path, args) -> int:
    """Run the full check battery for the configured scenario and summarize."""
    model = _parse_model(cfg)
    domain = _parse_domain(cfg)
    drift = _parse_drift(cfg)
    x0 = _parse_source(cfg, domain)
    n = _size(cfg, "nodes_per_component", 160, args.grid)
    lines: list[tuple[str, bool, str]] = []

    G = _green_for(model, domain, n)
    table = _table_for(model, domain, 32)
    scaling = models.estimate_scaling(model)
    lines.append(("lower scaling order > 1", scaling.standing_assumption,
                  f"alpha_low_1={scaling.alpha_low_1:.4f}"))
    inv = kernels.check_table_invariants(table)
    lines.append(("kernel invariants", inv["all_pass"], ""))

    mass = green.poisson_mass(G, x0)
    lines.append(("exit-density mass = 1 +- 1e-3", abs(mass - 1.0) <= 1e-3,
                  f"mass={mass:.6f}"))

    grid = perturbation.build_grid(domain, n, model.alpha)
    pg = perturbation.solve_perturbed(G, drift, grid)
    rep = perturbation.comparability_report(pg)
    lines.append(("comparability constant finite", np.isfinite(rep.constant),
                  f"C={rep.constant:.4g}"))
    if rep.kappa_disc < perturbation.SMALL_DOMAIN_KAPPA:
        small_ok = rep.inf >= 0.5 + 1e-3 and rep.sup <= 1.5 - 1e-3
        lines.append(("small-domain regime: C <= 2", small_ok,
                      f"ratios in [{rep.inf:.4f}, {rep.sup:.4f}]"))

    cert = kato_mod.is_kato(drift, table)
    lines.append(("drift in the admissible class", cert.passed, ""))

    summary = {**_meta(digest, domain=domain.intervals, model=model.describe(),
                       drift=drift.describe()),
               "checks": [{"name": nm, "passed": ok, "detail": d}
                          for nm, ok, d in lines]}
    _write_json(out / "summary.json", summary)
    for nm, ok, d in lines:
        print(f"{nm}: {'PASS' if ok else 'FAIL'}" + (f"  ({d})" if d else ""))
    return 0 if all(ok for _, ok, _ in lines) else 1


_COMMANDS = {
    "kernels": cmd_kernels,
    "green": cmd_green,
    "perturb": cmd_perturb,
    "mc": cmd_mc,
    "kato": cmd_kato,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levygreen",
        description="Green functions of unimodal jump generators under gradient "
                    "perturbations: tables, checks, solves, and simulations.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--grid", type=int, default=None, help="override the grid size")
    args = parser.parse_args(argv)

    try:
        cfg, digest = _load_config(args.config)
        _check_shape(cfg, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, digest, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
