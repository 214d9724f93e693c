"""In-memory span tracing of levygreen, installed from the benchmark's side.

``Tracer.install`` wraps the public functions of each layer module (its
``__all__``, the ``cmd_*`` functions and ``main`` of the CLI) and the
methods and properties of ``C11Set``, rebinding every name in the package
that refers to them, so calls between modules are traced too.  It also
counts ``scipy.integrate.quad`` calls against the innermost open layer.
Only calls inside a root span (one timed benchmark op) are recorded.  Each
span is ``(id, parent, op, name, start, end)``; ``op`` is the index of
the benchmark op that caused it.  ``uninstall`` restores the originals.

A layer's self time is the duration of its spans minus the time covered by
their child spans, so the self times of all layers plus the benchmark's own
root spans add up exactly to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("models", "kernels", "geometry", "mesh", "stable", "green", "perturbation",
          "kato", "montecarlo", "cli", "svgplot")
ROOT = "bench"      # layer name of the benchmark's own root span per op


def _is_driftless(b) -> bool:
    # the same test simulate_exit uses to skip the drift substep
    return getattr(b, "family", "") == "constant" and not np.any(np.asarray(b(np.zeros(1))))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.drifted: dict[int, bool] = {}     # simulate_exit span id -> had a drift
        self.op = -1
        self._stack: list[tuple[int, str]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        return sid, parent

    def _close(self, sid: int, parent, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[sid] = (sid, parent, self.op, name, start, end)

    @contextmanager
    def root(self, op_index: int, label: str):
        """The benchmark's own span around one timed op."""
        self.op = op_index
        sid, parent = self._open(f"{ROOT}.{label}")
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, f"{ROOT}.{label}", start, time.perf_counter())

    def _wrap(self, fn, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:       # outside the benchmark's timed ops
                return fn(*args, **kwargs)
            sid, parent = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start, time.perf_counter())
            if hook is not None:
                hook(tracer, sid, args, kwargs, result)
            return result

        return traced

    def _count_quad(self, quad):
        tracer = self

        @functools.wraps(quad)
        def counted(*args, **kwargs):
            if tracer._stack:
                tracer.counts[f"{tracer._stack[-1][1].split('.')[0]}.quad_calls"] += 1
            return quad(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import scipy.integrate

        from levygreen.geometry import C11Set

        mods = {m: importlib.import_module(f"levygreen.{m}") for m in LAYERS}
        hooks = _hooks()
        wrapped: dict[int, object] = {}
        for m, mod in mods.items():
            names = list(getattr(mod, "__all__", ()))
            if m == "cli":
                names = [n for n in vars(mod) if n.startswith("cmd_")] + ["main"]
            for n in names:
                fn = getattr(mod, n)
                if isinstance(fn, types.FunctionType):
                    wrapped[id(fn)] = self._wrap(fn, f"{m}.{n}", hooks.get(f"{m}.{n}"))
        # rebind every name in the package that refers to a wrapped function
        pkg = importlib.import_module("levygreen")
        for mod in [pkg, *mods.values()]:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and isinstance(val, types.FunctionType):
                    self._set(mod, attr, wrapped[id(val)])
        commands = getattr(mods["cli"], "_COMMANDS", {})
        for key, fn in list(commands.items()):
            if id(fn) in wrapped:
                self._undo.append((commands, key, fn))
                commands[key] = wrapped[id(fn)]
        for attr, val in list(vars(C11Set).items()):
            if attr.startswith("_"):
                continue
            name = f"geometry.C11Set.{attr}"
            if isinstance(val, types.FunctionType):
                self._set(C11Set, attr, self._wrap(val, name))
            elif isinstance(val, property):
                self._set(C11Set, attr, property(self._wrap(val.fget, name)))
        self._set(scipy.integrate, "quad", self._count_quad(scipy.integrate.quad))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = val
            else:
                setattr(owner, attr, val)

    def dump(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _hooks() -> dict:
    """Counters read from arguments and results at selected layer boundaries."""
    def table_points(tracer, sid, args, kwargs, table):
        tracer.counts["kernels.table_points"] += len(table.r)

    def grid_nodes(tracer, sid, args, kwargs, grid):
        tracer.counts["perturbation.nodes"] += grid.n

    def paths(tracer, sid, args, kwargs, sample):
        tracer.counts["montecarlo.paths"] += sample.n_paths
        tracer.counts["montecarlo.censored"] += sample.censored
        tracer.drifted[sid] = not _is_driftless(args[1] if len(args) > 1 else kwargs["b"])

    return {"kernels.build_table": table_points, "perturbation.build_grid": grid_nodes,
            "montecarlo.simulate_exit": paths}


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's durations."""
    child = [0.0] * len(spans)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[sid] for sid, _, _, _, start, end in spans]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of the traced pass (see BENCHMARK.json ``per_layer``)."""
    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for (sid, parent, _, name, start, end), own in zip(spans, selfs):
        layer = name.split(".")[0]
        out[f"{layer}.self_s"] += own
        if layer != ROOT:
            out[f"{layer}.calls"] += 1
        dur = end - start
        if name == "kernels.build_table":
            out["kernels.build_table_s"] += dur
        elif name == "kato.is_kato":
            out["kato.is_kato_s"] += dur
        elif name == "green.numeric_table_green":
            out["green.numeric_table_green_s"] += dur
        elif name == "perturbation.discretize_green":
            out["perturbation.discretize_s"] += dur
        elif name == "perturbation.solve_perturbed":
            out["perturbation.solve_s"] += own
        elif name == "perturbation.comparability_report":
            out["perturbation.report_s"] += dur
        elif name.startswith("cli.cmd_"):
            out["cli.write_s"] += own
        elif layer == "svgplot":
            out["svgplot.s"] += dur
        elif name == "montecarlo.simulate_exit":
            drifted = tracer.drifted.get(sid, False)
            out["montecarlo.drift_s" if drifted else "montecarlo.driftless_s"] += dur
        elif name == "geometry.C11Set.contains" and parent is not None \
                and spans[parent][3] == "montecarlo.simulate_exit":
            out["montecarlo.loop_iterations"] += 1
        if parent is None:
            out["trace.wall_s"] += dur
    for key, value in counts.items():
        out[key] += value
    paths, censored = out["montecarlo.paths"], out.pop("montecarlo.censored", 0.0)
    simulated = out["montecarlo.drift_s"] + out["montecarlo.driftless_s"]
    out["montecarlo.paths_per_s"] = paths / simulated if simulated > 0 else 0.0
    out["montecarlo.censored_frac"] = censored / paths if paths else 0.0
    points = out["kernels.table_points"]
    out["kernels.s_per_point"] = out["kernels.build_table_s"] / points if points else 0.0
    return dict(out)
