import importlib
import inspect
import pkgutil

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
