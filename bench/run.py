"""levygreen benchmark: seeded workloads, checked ops, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload perturb-crosscheck --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table

One run measures one workload in this interpreter, single-threaded BLAS.
It first times ``SETUP_PROBES`` cold starts in child interpreters (import,
input generation, one reduced warm-up op), then runs one pass over the
workload's fixed op list.  The op lists are sized so that a pass takes
about the 20 s that ``--seconds`` is given (16 to 31 s raw on a 2-core
host); the list does not depend on ``--seconds``, so every run measures
the same work.  Only the op calls are timed; references, checks and
artifact sizes are computed outside the timed region.  A fixed probe timed
before and after every op and every cold start turns each time into
reference seconds (see ``_calibrate``).  Afterwards one op is run again,
untimed, and its artifacts must be byte-identical.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the pass
untraced and then again traced, skips the cold starts, and prints the
per-layer metrics; ``trace.overhead_s`` is the traced minus the untraced
pass time.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
the inputs, every op, the environment and (traced runs) the spans goes to
``bench/results/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS     # before numpy is imported anywhere

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
CAL_REFERENCE_S = 0.24     # calibration seconds that define one reference second
WORKLOAD_NAMES = ("perturb-crosscheck", "exit-mc", "tables-kato")


def _import_program():
    """Put the checkout's sources first on the path and import the workloads."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# set-up time


def _probe(args) -> int:
    """Child side of a set-up probe: cold import, inputs, one warm-up op."""
    workloads = _import_program()
    ops = workloads.make_ops(args.workload, args.seed)
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        runner = workloads.Runner(workdir)
        warm = workloads.warmup_op(ops[0])
        runner.prepare(warm, reference=False)
        runner.run(warm)
        print(f"READY {time.monotonic()!r}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _setup_time(args) -> float:
    """Seconds from spawning a fresh interpreter to its first timed op."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(ready[-1].split()[1]) - start


# ---------------------------------------------------------------------------
# machine speed


def _calibrate() -> float:
    """Seconds for one fixed mix of interpreter, numpy and QUADPACK work.

    Shared hosts change speed by tens of percent within seconds.  The run
    times this probe before and after every op and every cold start, and
    reports each time in reference seconds: raw seconds x CAL_REFERENCE_S /
    (mean of the two probes).  So the same work reads about the same at
    any host speed.  Raw seconds and the probes go to the result file.
    """
    import numpy as np
    from scipy import integrate

    x = np.linspace(0.0, 1.0, 20_000)
    start = time.perf_counter()
    total = 0.0
    for i in range(480_000):
        total += (i % 7) * 0.5
    for _ in range(640):
        total += float(np.sort(np.where(x > 0.5, np.sqrt(x), x * x))[100])
    for k in range(80):
        total += integrate.quad(lambda t: np.cos((1 + k % 20) * t) / (1.0 + t * t), 0.0, 50.0,
                                limit=200)[0]
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# environment


def _environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "levygreen").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS, "git_commit": commit,
            "source_sha256": digest.hexdigest(), "seed": seed}


def _tree_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.glob(pattern) if p.is_file())


# ---------------------------------------------------------------------------
# one workload


def _run_pass(ops, runner, records, probes, tracer=None) -> float:
    """Run every op once, probing the host speed after each; return the
    summed raw op time of the pass."""
    total = 0.0
    for index, op in enumerate(ops):
        runner.prepare(op)
        result, error = None, None
        with tracer.root(index, op["kind"]) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result = runner.run(op)
            except Exception as exc:   # an op that raises is a failed op
                error = exc
            seconds = time.perf_counter() - start
        total += seconds
        if error is not None:
            ok, reason, estimate = False, f"raised {type(error).__name__}: {error}", None
        else:
            try:
                ok, reason, estimate = runner.check(op, result)
            except Exception as exc:   # unreadable or missing artifacts
                ok, reason, estimate = False, f"check raised {type(exc).__name__}: {exc}", None
        if tracer is not None and op["kind"].startswith("cli-"):
            out = runner.out_dir(op)
            tracer.counts["cli.artifact_bytes"] += _tree_bytes(out)
            tracer.counts["svgplot.bytes"] += _tree_bytes(out, "*.svg")
        records.append({"op": op["name"], "kind": op["kind"], "seconds": seconds,
                        "probe": len(probes) - 1, "traced": tracer is not None,
                        "ok": ok, "reason": reason, "estimate": estimate})
        probes.append(_calibrate())
    return total


def run_workload(args) -> tuple[dict, dict]:
    workloads = _import_program()
    import spans

    _calibrate()        # the first probe in a process runs slow
    probes = [_calibrate()]
    setup = []          # (raw seconds, index of the probe just before)
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup.append((_setup_time(args), len(probes) - 1))
            probes.append(_calibrate())

    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    runner = workloads.Runner(workdir)
    tracer = spans.Tracer() if args.trace else None
    records: list[dict] = []
    traced = None
    try:
        ops = workloads.make_ops(args.workload, args.seed)
        warm = workloads.warmup_op(ops[0])
        runner.prepare(warm, reference=False)
        runner.run(warm)
        probes.append(_calibrate())
        untraced = _run_pass(ops, runner, records, probes)
        if tracer is not None:
            tracer.install()
            try:
                traced = _run_pass(ops, runner, records, probes, tracer)
            finally:
                tracer.uninstall()

        again = next(op for op in ops if op.get("rerun"))
        same, why = runner.rerun_identical(again)
        records.append({"op": f"rerun:{again['name']}", "kind": "rerun", "seconds": None,
                        "traced": False, "ok": same, "reason": why, "estimate": None})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speed = statistics.median(probes) / CAL_REFERENCE_S

    def reference_seconds(seconds: float, k: int) -> float:
        return seconds * CAL_REFERENCE_S / (0.5 * (probes[k] + probes[k + 1]))

    for r in records:
        if r["kind"] != "rerun":
            r["ref_seconds"] = reference_seconds(r["seconds"], r["probe"])
    plain = [r for r in records if r["kind"] != "rerun" and not r["traced"]]
    wall = sum(r["ref_seconds"] for r in plain)
    costs = [r["ref_seconds"] * (r["estimate"][1] / r["estimate"][0] / 0.01) ** 2
             for r in plain if r["estimate"] and r["estimate"][0] > 0]
    metrics = {}
    if setup:
        metrics = {     # reference seconds
            "setup_s": statistics.median(reference_seconds(*s) for s in setup),
            "wall_s": wall,
            "op_p50_s": statistics.median(r["ref_seconds"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # a geometric mean, not a median: every op's cost counts, so the
            # time noise of single ops averages out instead of one op setting it
            "mc_cost_1pct_s": statistics.geometric_mean(costs),
        }
    layers = {}
    if tracer is not None:
        # per-layer times are scaled by the run's median probe; the overhead
        # is the traced minus the untraced pass, op by op in reference seconds
        rates = {"montecarlo.paths_per_s": speed, "kernels.s_per_point": 1.0 / speed}
        layers = {k: v * rates.get(k, 1.0 / speed if k.endswith("_s") else 1.0)
                  for k, v in spans.layer_metrics(tracer).items()}
        layers["trace.overhead_s"] = sum(r["ref_seconds"] for r in records
                                         if r["traced"]) - wall
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.dump(RESULTS / f"{args.workload}-s{args.seed}.spans.jsonl")
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": _environment(args.seed), "ops": ops,
            "records": records, "setup_samples": setup, "untraced_pass_s": untraced,
            "traced_pass_s": traced, "op_count": len(plain), "mc_cost_ops": len(costs),
            "speed_probe_s": probes}
    return info, {"metrics": metrics, "layers": layers, "speed": speed}


def _report(args, info: dict, measured: dict, units: dict) -> dict:
    records = info["records"]
    failed = [r for r in records if not r["ok"]]
    # each op counts once per pass it ran in, plus the rerun check
    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops attempted "
          f"({info['op_count']} timed untraced), {len(failed)} failed")
    for r in failed:
        print(f"  FAILED {r['op']} ({r['kind']}): {r['reason']}")
    chosen = measured["layers"] if args.trace else measured["metrics"]
    print(f"  host speed probe: median {measured['speed'] * CAL_REFERENCE_S:.4f} s against "
          f"{CAL_REFERENCE_S} s; times are reference seconds")
    metrics = {}
    for name, unit in units.items():
        # a per-layer figure of a layer the workload never calls reads 0
        value = chosen.get(name, 0.0) if args.trace else chosen[name]
        metrics[name] = {"value": float(value), "unit": unit}
        print(f"  {name:34s} {value:14.6g} {unit}")
    if args.trace:
        total = sum(v for k, v in chosen.items() if k.endswith(".self_s"))
        print(f"  layer self times + bench.self_s = {total:.6f} s; "
              f"trace.wall_s = {chosen['trace.wall_s']:.6f} s")
    return {"correct": not failed, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


def _units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Every workload in its own interpreter; one table, one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal run length, recorded; the op list is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "levygreen" / "__init__.py").is_file():
        print(f"benchmark: no levygreen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return _probe(args)
    if args.workload == "all":
        return run_all(args)
    units = _units(args.trace)
    info, measured = run_workload(args)
    summary = _report(args, info, measured, units)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**info, "result": summary}, indent=1, default=float) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
