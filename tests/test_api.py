import ast
import dataclasses
import functools
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import levygreen

MODULES = sorted(m.name for m in pkgutil.iter_modules(levygreen.__path__))

# names the benchmark tracer hooks by name, besides the cmd_* functions of the CLI
HOOKED = [
    ("kernels", "build_table"),
    ("perturbation", "build_grid"),
    ("perturbation", "discretize_green"),
    ("perturbation", "solve_perturbed"),
    ("perturbation", "comparability_report"),
    ("green", "numeric_table_green"),
    ("kato", "is_kato"),
    ("montecarlo", "simulate_exit"),
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"levygreen.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


@pytest.mark.parametrize("module,name", HOOKED)
def test_hooked_names_are_public_functions(module, name):
    mod = importlib.import_module(f"levygreen.{module}")
    assert name in mod.__all__
    assert inspect.isfunction(getattr(mod, name))


def test_cli_commands_are_functions():
    from levygreen import cli

    for command, fn in cli._COMMANDS.items():
        assert fn is getattr(cli, f"cmd_{command}")
        assert inspect.isfunction(fn)


ROOT = Path(__file__).resolve().parents[1]
# exported names that nothing in the package, the benchmark or the acceptance
# criteria reaches, each kept for the reason given; each allowlist below is
# exact, so an entry that is reached, set or read again fails its test
UNREACHED_BUT_KEPT = {
    "green_envelope": "the paper's two-sided Green estimate shape",
}


def _names_read() -> tuple[set[str], set[str]]:
    """The plain names and the attribute names that the package, the non-test
    benchmark files and the acceptance criteria use."""
    sources = [*Path(levygreen.__path__[0]).glob("*.py"),
               *(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")),
               ROOT / "tests" / "test_acceptance.py"]
    names, attrs = set(), set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def test_every_exported_name_is_reached():
    reached = set.union(*_names_read())
    unreached = set()
    for module in MODULES:
        exported = getattr(importlib.import_module(f"levygreen.{module}"), "__all__", ())
        unreached.update(name for name in exported if name not in reached)
    assert unreached == set(UNREACHED_BUT_KEPT)


# public methods and properties of exported classes that nothing in the
# package, the benchmark or the acceptance criteria reads, each kept for the
# reason given
UNREAD_BUT_KEPT = {}


def test_every_public_member_is_read():
    # dataclass fields are left out: the CLI serialises every one of them
    read = _names_read()[1]
    unread = set()
    for module in MODULES:
        mod = importlib.import_module(f"levygreen.{module}")
        for name in getattr(mod, "__all__", ()):
            cls = getattr(mod, name)
            if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                continue
            fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(
                cls) else set()
            unread.update(f"{module}.{name}.{m}" for m in vars(cls)
                          if not m.startswith("_") and m not in fields and m not in read)
    assert unread == set(UNREAD_BUT_KEPT)


def _sibling_uses(tree) -> list[tuple[str, str, int]]:
    """(sibling module, public name, line) for each name a module takes from a sibling."""
    uses, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module:
                    uses.append((node.module, a.name, node.lineno))
                elif a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.append((aliases[node.value.id], node.attr, node.lineno))
    return [u for u in uses if not u[1].startswith("_")]


def test_names_used_across_modules_are_exported():
    # the benchmark tracer wraps exactly the __all__ names of each module, so
    # an unexported helper would hide its time inside its caller
    hidden = []
    for path in sorted(Path(levygreen.__path__[0]).glob("*.py")):
        for module, name, line in _sibling_uses(ast.parse(path.read_text())):
            exported = importlib.import_module(f"levygreen.{module}").__all__
            if name not in exported:
                hidden.append(f"{path.name}:{line} {module}.{name}")
    assert not hidden


# options that no caller set (now module constants) and members that no caller read
REMOVED_KEYWORDS = {
    "kernels": {"compute_h": ["tol"], "compute_K": ["tol"], "compute_dK": ["tol"],
                "build_table": ["tol", "span"], "KernelTable": ["tol"],
                "KernelTable.M_at": ["extend"],
                "check_table_invariants": ["interp_slack", "n_pairs", "seed", "rel_slack"],
                "check_K_subadditivity_exact": ["seed", "rel_slack"]},
    "models": {"estimate_scaling": ["theta_min", "theta_max", "n_grid"],
               "require_valid_scaling": ["kwargs"]},
    "kato": {"kato_modulus": ["x_grid", "span", "n_translates"],
             "is_kato": ["n_translates", "tol", "r_sequence"]},
    "perturbation": {"build_grid": ["order"], "solve_perturbed": ["tol", "max_iter", "mode"],
                     "comparability_report": ["n_bins"],
                     "find_epsilon": ["bisection_steps", "threshold", "s_min", "s_max",
                                      "n_grid"]},
    "green": {"numeric_table_green": ["order"], "kappa_sup": ["n_grid"]},
    "mesh": {"graded_components": ["order"]},
    "montecarlo": {"mc_exit_law": ["hist_range", "hist_bins", "cdf"], "_exit_law": ["cdf"]},
    "svgplot": {"line_plot": ["logx", "logy"], "heatmap": ["v_lo", "v_hi"]},
}
REMOVED_MEMBERS = {("geometry", "C11Set"): ["component_index", "distortion", "total_length"],
                   ("models", "LevyModel"): ["key"],
                   ("models", "ScalingReport"): ["to_dict"],
                   ("kernels", "KernelTable"): ["h_at", "dK_at", "export_csv", "V_inverse"],
                   ("green", "TripleStat"): ["to_dict"],
                   ("perturbation", "ComparabilityReport"): ["to_dict"],
                   ("kato", "KatoCertificate"): ["to_dict"],
                   ("montecarlo", "McEstimate"): ["to_dict", "agrees_with"],
                   ("montecarlo", "BinGrid"): ["index"]}
REMOVED_FIELDS = {("montecarlo", "PathConfig"): ["ref_frac", "floor_frac", "small_jump_cutoff",
                                                 "time_cap", "chunk"],
                  ("montecarlo", "ExitSample"): ["config", "approximate_noise",
                                                 "occupation_sq"],
                  ("montecarlo", "McEstimate"): ["kind", "n"],
                  ("perturbation", "NystromGrid"): ["grading"],
                  ("perturbation", "PerturbedGreen"): ["operator", "mode", "converged", "trace"],
                  ("perturbation", "ComparabilityReport"): ["mode", "converged"],
                  ("green", "GreenFunction"): ["kind"],
                  ("green", "TripleStat"): ["seed", "argmax"],
                  ("models", "ScalingReport"): ["c_low", "C_high", "c_low_1", "theta_min",
                                                "theta_max", "n_grid", "ok", "reason"]}
REMOVED_NAMES = {"green": ["envelope_green", "green_punctured_line", "gradient_tail_integrals"],
                 "kato": ["custom_drift"],
                 "kernels": ["compute_V", "heat_kernel_envelope"],
                 "models": ["check_levy_integrability", "psi_from_nu", "check_unimodal",
                            "eval_nu", "eval_psi", "truncated_stable_model", "custom_model"]}


def test_removed_options_stay_gone():
    back = []
    for module, fns in REMOVED_KEYWORDS.items():
        mod = importlib.import_module(f"levygreen.{module}")
        for name, keywords in fns.items():
            params = inspect.signature(functools.reduce(getattr, name.split("."), mod)).parameters
            back += [f"{module}.{name}({kw}=)" for kw in keywords if kw in params]
    for (module, name), members in REMOVED_MEMBERS.items():
        cls = getattr(importlib.import_module(f"levygreen.{module}"), name)
        back += [f"{module}.{name}.{m}" for m in members if hasattr(cls, m)]
    for (module, name), removed in REMOVED_FIELDS.items():
        cls = getattr(importlib.import_module(f"levygreen.{module}"), name)
        fields = {f.name for f in dataclasses.fields(cls)}
        back += [f"{module}.{name}.{f}" for f in removed if f in fields]
    for module, names in REMOVED_NAMES.items():
        mod = importlib.import_module(f"levygreen.{module}")
        back += [f"{module}.{name}" for name in names if hasattr(mod, name)]
    assert not back


# defaulted parameters of exported functions that no call in the package or the
# benchmark sets, each kept for the reason given
UNSET_BUT_KEPT = {}


def test_every_default_is_set_by_a_caller():
    # an option that only tests set is a constant; calls are matched by name
    # and count a parameter as set by keyword or by position
    sources = [*Path(levygreen.__path__[0]).glob("*.py"),
               *(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))]
    calls = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = set()
    for module in MODULES:
        mod = importlib.import_module(f"levygreen.{module}")
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name)
            if not inspect.isfunction(fn):
                continue
            params = inspect.signature(fn).parameters
            given = set()
            for call in calls.get(name, ()):
                given.update(list(params)[:len(call.args)])
                given.update(k.arg for k in call.keywords)
            unset.update(f"{module}.{name}({p})" for p, v in params.items()
                         if v.default is not v.empty and p not in given)
    assert unset == set(UNSET_BUT_KEPT)


def test_path_config_is_the_mc_section():
    # cmd_mc reads these keys; no setting chooses the engine, its time cap or chunking
    from levygreen.montecarlo import PathConfig

    assert [f.name for f in dataclasses.fields(PathConfig)] == ["dt", "n_paths", "seed",
                                                               "bin_width"]


# the modules that decide how artifacts look; every other module returns values
WRITERS = {"cli.py", "svgplot.py"}
FILE_CALLS = {"open", "write_text", "write_bytes"}


def test_only_the_cli_and_svgplot_write_files():
    writes = []
    for path in sorted(Path(levygreen.__path__[0]).glob("*.py")):
        if path.name in WRITERS:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name in FILE_CALLS:
                    writes.append(f"{path.name}:{node.lineno} {name}")
    assert not writes


def test_only_the_unit_frequency_integrator_runs_qawf():
    # one Fourier-tail rule (QUADPACK's QAWF, reached through quad's weight=)
    # serves the K and dK oracles
    callers = []
    for path in sorted(Path(levygreen.__path__[0]).glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "quad" and any(k.arg == "weight" for k in node.keywords):
                    callers.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == ["kernels._unit_frequency"]


# scipy modules that only the Green solves and the quadrature oracles need,
# and orjson, which only the CSV writers need; each is imported inside the
# function that uses it; no levygreen module needs scipy.interpolate, and
# scipy.optimize and scipy.special come only with scipy.integrate
HEAVY = ["scipy.integrate", "scipy.interpolate", "scipy.linalg", "scipy.optimize", "scipy.special",
         "orjson"]
COLD_START = """
import json, sys
loaded = lambda: [m for m in sys.argv[1:] if m in sys.modules]
import levygreen, levygreen.cli
seen = {"import": loaded(), "scipy after mc": None}
for name in ("mc-walk-on-spheres", "mc-euler", "mc-mixture", "perturb", "kato-sin", "kato-power",
             "kernels"):
    code = levygreen.cli.main([name.split("-")[0], "--config", name + ".json", "--out", name])
    seen[name] = loaded() if code == 0 else code
    if name == "mc-mixture":
        seen["scipy after mc"] = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps(seen))
"""


def test_cold_start_loads_only_what_the_command_runs(tmp_path):
    # a fresh interpreter, since the test modules import scipy.integrate themselves
    base = {"model": {"family": "stable", "alpha": 1.5},
            "domain": {"intervals": [[-1.0, -0.2], [0.2, 1.0]]}, "source": 0.5,
            "grid": {"nodes_per_component": 24, "points_per_decade": 8},
            "mc": {"paths": 200, "dt": 0.01, "seed": 0, "bin_width": 0.1}}
    mixture = {"family": "stable-mixture", "alphas": [1.2, 1.8], "weights": [1.0, 0.5]}
    drift = {"family": "constant", "value": 1.0}
    for name, patch in (("mc-walk-on-spheres", {"drift": {"family": "zero"}}),
                        ("mc-euler", {"drift": drift}),
                        ("mc-mixture", {"drift": drift, "model": mixture}),
                        ("perturb", {"drift": drift}), ("kernels", {}),
                        ("kato-sin", {"drift": {"family": "sin"}}),
                        ("kato-power", {"drift": {"family": "power", "beta": 0.3}})):
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(base, **patch)))
    path = [str(Path(levygreen.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", COLD_START, *HEAVY], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # a stable table is built and looked up without scipy; the QUADPACK
    # windows at a power drift's pole load scipy.integrate, and no command
    # loads scipy.interpolate
    quadpack = ["scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.special", "orjson"]
    assert seen == {"import": [], "scipy after mc": [], "mc-walk-on-spheres": ["orjson"],
                    "mc-euler": ["orjson"], "mc-mixture": ["orjson"],
                    "perturb": ["scipy.linalg", "orjson"], "kato-sin": ["scipy.linalg", "orjson"],
                    "kato-power": quadpack, "kernels": quadpack}
    for name, engine in (("mc-walk-on-spheres", "walk-on-spheres"), ("mc-euler", "euler"),
                         ("mc-mixture", "euler")):
        assert json.loads((tmp_path / name / "mc_estimates.json").read_text())["engine"] == engine
