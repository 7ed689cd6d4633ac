"""creditpool benchmark: the main process.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  One main process, at most one child
process at a time, every child single-threaded (BLAS/OpenMP pinned to one
thread, ``CREDITPOOL_THREADS`` unset):

1. ``setup_s``: the median wall time of several cold starts, each a fresh
   interpreter that imports ``creditpool`` and builds the workload's inputs.
2. The timed job loop for ``T`` seconds after one warm-up job: in one
   worker child for the in-process workloads, or one ``creditpool limit``
   process per job for ``limit-hetero-cli``.  Every job's output is
   checked; a job that raises, exits non-zero or fails its check counts
   as failed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` jobs alternate untraced and traced and it holds the
per-layer metrics.  Full details (environment, samples, failures, spans)
go to ``.perfbench_runs/`` in the checkout.  Exits 2 without a result if
the checkout has no ``src/creditpool``, and 1 if a child process cannot
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from dataclasses import asdict
from importlib.metadata import version
from pathlib import Path

import measure
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_DIR = ROOT / ".perfbench_runs"

#: Cold starts per run; the median of an odd count ignores one slow start.
SETUP_STARTS = 3
CHILD_TIMEOUT_S = 150.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
LAYER_UNITS = {
    "simulate.ms_per_rep": "ms", "simulate.ns_per_firm_step": "ns",
    "simulate.self_s": "s", "simulate.aggregate_s": "s",
    "simulate.normals_bytes": "bytes", "simulate.alive_step_share": "ratio",
    "riccati.calls": "count", "riccati.distinct_types": "count", "riccati.self_s": "s",
    "limit.solve_q_s": "s", "limit.picard_sweeps": "count", "limit.compute_f_s": "s",
    "limit.homogeneous_f_s": "s", "limit.identity_rhs_s": "s", "limit.self_s": "s",
    "quadrature.trapezoid_convs": "count", "quadrature.simpson_convs": "count",
    "quadrature.simpson_s": "s", "quadrature.self_s": "s",
    "convergence.lln_self_s": "s", "convergence.identity_diag_s": "s",
    "convergence.self_s": "s",
    "cli.import_s": "s", "cli.main_s": "s", "cli.solve_s": "s", "cli.self_s": "s",
    "cli.csv_bytes": "bytes", "cli.process_s": "s",
    "trace.job_s": "s", "trace.accounted_frac": "ratio", "trace.overhead_frac": "ratio",
}


class ChildFailed(Exception):
    """A child process the benchmark needs could not run at all."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CREDITPOOL_THREADS", None)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment(seed: int, env: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {name: env[name] for name in PINNED_THREADS},
        "CREDITPOOL_THREADS": env.get("CREDITPOOL_THREADS", "unset"),
    }


def run_checked(argv: list[str], env: dict) -> measure.ChildResult:
    child = measure.run_child(argv, env, str(RUN_DIR), CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise ChildFailed(f"{' '.join(argv[1:3])} exited {child.returncode}: "
                          f"{child.stderr.strip()[-2000:]}")
    return child


def cold_starts(workload: str, seed: int, env: dict) -> list[float]:
    argv = [sys.executable, str(HERE / "worker.py"), "setup",
            "--workload", workload, "--seed", str(seed)]
    return [run_checked(argv, env).wall for _ in range(SETUP_STARTS)]


def worker_jobs(workload: str, seed: int, seconds: float, trace: bool, env: dict):
    child = run_checked([sys.executable, str(HERE / "worker.py"), "jobs",
                         "--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(int(trace))], env)
    data = json.loads(child.stdout.strip().splitlines()[-1])
    return (measure.LoopResult(**data["loop"]), measure.spans_from_json(data["spans"]),
            {}, data["maxrss_kb"])


def cli_jobs(seed: int, seconds: float, trace: bool, env: dict):
    """One ``creditpool limit`` process per job; traced jobs run ``cli_traced.py``."""
    inputs = workloads.make_inputs(workloads.LIMIT_CLI, seed)
    config = RUN_DIR / "limit-config.json"
    config.write_text(json.dumps(inputs))
    out_dir = RUN_DIR / "limit-out"
    spans_file = RUN_DIR / "limit-spans.json"
    spans: list[measure.Span] = []
    extras: dict = {}
    peak_kb = [0]

    def run_job(index: int, traced: bool) -> float:
        shutil.rmtree(out_dir, ignore_errors=True)
        args = ["limit", "--config", str(config), "--out", str(out_dir)]
        if traced:
            argv = [sys.executable, str(HERE / "cli_traced.py"), str(spans_file)] + args
        else:
            argv = [sys.executable, "-m", "creditpool"] + args
        child = measure.run_child(argv, env, str(RUN_DIR), CHILD_TIMEOUT_S)
        if child.returncode != 0:
            raise workloads.CheckFailed(
                f"exit code {child.returncode}: {child.stderr.strip()[-500:]}")
        workloads.check_cli(inputs, out_dir)
        if traced:
            # The process span covers interpreter start and exit, around
            # the child's own import and main spans.
            base = len(spans)
            spans.append(measure.Span("cli.process", None, index, child.started,
                                      child.started + child.wall))
            for span in measure.spans_from_json(json.loads(spans_file.read_text())):
                span.job = index
                span.parent = base if span.parent is None else span.parent + base + 1
                spans.append(span)
            manifest = json.loads((out_dir / "limit_manifest.json").read_text())
            extras[index] = {"solve_s": manifest["timing"]["seconds"],
                             "csv_bytes": (out_dir / "limit.csv").stat().st_size}
        else:
            peak_kb[0] = max(peak_kb[0], child.maxrss_kb)
        return child.wall

    loop = measure.timed_loop(run_job, seconds, alternate=trace)
    return loop, spans, extras, peak_kb[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="creditpool benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "creditpool" / "__init__.py").is_file():
        print(f"perfbench: no src/creditpool under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    env = child_env()
    trace = bool(args.trace)
    inputs = workloads.make_inputs(args.workload, args.seed)
    try:
        setup = cold_starts(args.workload, args.seed, env)
        if args.workload == workloads.LIMIT_CLI:
            loop, spans, extras, peak_kb = cli_jobs(args.seed, args.seconds, trace, env)
        else:
            loop, spans, extras, peak_kb = worker_jobs(args.workload, args.seed,
                                                       args.seconds, trace, env)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if trace:
        values = measure.layer_metrics(spans, loop, extras)
        units = LAYER_UNITS
    else:
        values = {"setup_s": measure.median_or_zero(setup),
                  "job_s": measure.median_or_zero(loop.untraced),
                  "peak_rss_mb": peak_kb / 1024.0,
                  "ok_frac": (loop.attempted - loop.failed) / loop.attempted}
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    env_record = environment(args.seed, env)
    record = {"workload": args.workload, "job": workloads.describe(args.workload, inputs),
              "trace": args.trace, "seconds": args.seconds, "environment": env_record,
              "setup_samples_s": setup, "loop": asdict(loop), "metrics": metrics,
              "spans": measure.spans_to_json(spans)}
    RUN_DIR.joinpath(f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['job']}")
    print("environment " + json.dumps(env_record, sort_keys=True))
    counts = {"setup_s": f"median of {len(setup)} cold starts",
              "job_s": f"median of {len(loop.untraced)} jobs",
              "peak_rss_mb": "peak of the process doing the work",
              "ok_frac": f"{loop.attempted - loop.failed} of {loop.attempted} jobs passed",
              "trace.job_s": f"median of {len(loop.traced)} traced jobs",
              "trace.overhead_frac": f"vs {len(loop.untraced)} untraced jobs"}
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']:6s} {counts.get(name, '')}")
    if not trace:
        print(f"  {'fail_frac':28s} {loop.failed / loop.attempted:14.6g} {'ratio':6s} "
              f"{loop.failed} of {loop.attempted} jobs failed")
    for failure in loop.failures[:5]:
        print(f"  failed: {failure}")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
