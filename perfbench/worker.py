"""Child process of the benchmark for the in-process workloads.

    python3 perfbench/worker.py setup --workload W --seed S
    python3 perfbench/worker.py jobs  --workload W --seed S --seconds T --trace 0|1

``setup`` is one cold start: import ``creditpool`` and build the workload's
inputs, then exit; ``run.py`` times the whole process.  ``jobs`` builds
the inputs, runs the timed job loop and prints one JSON line with the
per-job times, failures and, when traced, the spans.

``creditpool`` is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy as np

import measure
import workloads

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("convergence", "limit", "simulate", "cli")


def load_program() -> dict:
    """Import the package from the checkout; short module name -> module."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    package = importlib.import_module("creditpool")
    modules = {name: importlib.import_module(f"creditpool.{name}") for name in MODULES}
    modules["creditpool"] = package
    return modules


def build_measure(cp, atoms: list[dict]):
    measure_ = cp.DiscreteTypeMeasure(atoms=tuple(
        cp.TypeAtom(cp.FirmType(a["alpha"], a["lambda_bar"], a["sigma"], a["beta_c"], a["beta_s"]),
                    a["lambda_init"], a["weight"])
        for a in atoms))
    return cp.validate_measure(measure_)


@contextmanager
def capturing(module, attr: str, sink: list):
    """Keep every result of ``module.attr`` in ``sink`` while inside."""
    original = getattr(module, attr)

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, attr, keep)
    try:
        yield
    finally:
        setattr(module, attr, original)


def prepare(workload: str, inputs: dict, modules: dict):
    """``(job, check)`` for one in-process workload.

    ``job()`` runs the timed work and returns its output; ``check(output)``
    raises :class:`workloads.CheckFailed` if the output is wrong.  Calls go
    through module attributes, so wrappers installed by a tracer see them.
    """
    cp = modules["creditpool"]
    measure_ = build_measure(cp, inputs["measure"]["atoms"])
    grid_spec = inputs["grid"]

    if workload == workloads.GRID_REFINE:
        atom = measure_.atoms[0]
        limit = modules["limit"]
        convergence = modules["convergence"]

        def job():
            out = {"residuals": [], "gaps": [], "curves": []}
            for n_steps in grid_spec["n_steps"]:
                grid = cp.TimeGrid(grid_spec["t_end"], n_steps)
                sol = limit.solve_limit(measure_, grid)
                out["residuals"].append(convergence.q_identity_diagnostic(sol))
                oracle = limit.solve_homogeneous_f(atom.firm_type, atom.lambda_init, grid)
                out["gaps"].append(float(np.max(np.abs(oracle.values - sol.f.values))))
                out["curves"].append(sol.f.values)
            return out

        def check(out):
            workloads.check_grid(inputs, out["residuals"], out["gaps"], out["curves"])

        return job, check

    if workload not in (workloads.SIM_SMALL, workloads.SIM_LARGE):
        raise ValueError(f"{workload} does not run in-process")
    grid = cp.TimeGrid(grid_spec["t_end"], grid_spec["n_steps"])
    factor = cp.SystematicFactorConfig()
    limit_sol = cp.solve_limit(measure_, grid)
    sim = inputs["sim"]
    convergence = modules["convergence"]

    def job():
        replications = []
        # lln_experiment reports distances only; the paths are kept for the check.
        with capturing(convergence, "run_replications", replications):
            report = convergence.lln_experiment(
                measure_, factor, grid, [sim["n_firms"]], sim["n_reps"],
                seed=sim["seed"], limit=limit_sol)
        return report, replications

    def check(out):
        report, replications = out
        if len(replications) != 1 or len(report.cells) != 1:
            raise workloads.CheckFailed("expected one pool size")
        paths = np.stack([r.l_path.values for r in replications[0].results])
        workloads.check_sim(workload, inputs, paths, limit_sol.f.values,
                            report.cells[0].distances)

    return job, check


def run_jobs(workload: str, seed: int, seconds: float, trace: bool, modules: dict) -> dict:
    inputs = workloads.make_inputs(workload, seed)
    job, check = prepare(workload, inputs, modules)
    tracer = measure.Tracer()

    def run_job(index: int, traced: bool) -> float:
        tracer.job = index
        with tracer.installed(modules) if traced else nullcontext():
            started = time.perf_counter()
            out = job()
            wall = time.perf_counter() - started
        check(out)
        return wall

    loop = measure.timed_loop(run_job, seconds, alternate=trace)
    return {"loop": asdict(loop), "spans": measure.spans_to_json(tracer.spans),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "jobs"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = load_program()
    if args.mode == "setup":
        inputs = workloads.make_inputs(args.workload, args.seed)
        if args.workload == workloads.LIMIT_CLI:
            build_measure(modules["creditpool"], inputs["measure"]["atoms"])
        else:
            prepare(args.workload, inputs, modules)
        return 0
    result = run_jobs(args.workload, args.seed, args.seconds, bool(args.trace), modules)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
