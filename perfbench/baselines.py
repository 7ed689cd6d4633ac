"""One-shot re-measurement of the ROADMAP's baseline figures.

    python3 perfbench/baselines.py

Not a gated workload: each item runs a few times, the median is printed
beside the figure the ROADMAP quotes, with the gap between them.  Takes
about a minute on two cores.  Single-threaded like the benchmark.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

# Pin BLAS/OpenMP to one thread before numpy loads, as the benchmark does.
os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"), "1"))
os.environ.pop("CREDITPOOL_THREADS", None)

import measure  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def main() -> int:
    modules = worker.load_program()
    cp = modules["creditpool"]
    simulate = modules["simulate"]
    base = worker.build_measure(cp, [workloads.BASE_ATOM])
    fifty = worker.build_measure(
        cp, workloads.make_inputs(workloads.LIMIT_CLI, 1)["measure"]["atoms"])
    factor = cp.SystematicFactorConfig()
    rows = []  # (item, ROADMAP figure, measured, unit)

    def per_rep_ms(n_firms, reps, moments):
        config = cp.SimConfig(n_firms=n_firms, measure=base, factor=factor,
                              grid=cp.TimeGrid(1.0, 1000), seed=1, record_moments=moments)
        return 1e3 * _median_time(lambda: cp.run_replications(config, reps), 3) / reps

    for n_firms, reps, quoted in ((100, 20, 38.0), (1000, 5, 112.0), (10_000, 2, 927.0)):
        rows.append((f"simulate N={n_firms}, moments off", quoted,
                     per_rep_ms(n_firms, reps, False), "ms/rep"))
        rows.append((f"simulate N={n_firms}, moments on (default)", quoted,
                     per_rep_ms(n_firms, reps, True), "ms/rep"))

    # The simulator's own per-firm stream constructor, alone and with its draws.
    def firm_streams(draw: bool):
        for i in range(10_000):
            g = simulate._firm_stream(1, 0, i)
            if draw:
                g.standard_exponential()
                g.standard_normal(1000)

    rows.append(("per-firm SeedSequence streams, N=1e4", 350.0,
                 1e3 * _median_time(lambda: firm_streams(False), 3), "ms/rep"))
    rows.append(("per-firm streams + their draws, N=1e4", None,
                 1e3 * _median_time(lambda: firm_streams(True), 3), "ms/rep"))

    for label, measure_, n_steps, quoted, repeats in (
            ("limit solve, 1 atom, n=1e3", base, 1000, 0.006, 5),
            ("limit solve, 1 atom, n=1e4", base, 10_000, None, 3),
            ("limit solve, 1 atom, n=4e4", base, 40_000, 0.19, 3),
            ("limit solve, 50 atoms, n=1e3", fifty, 1000, 0.31, 3),
            ("limit solve, 50 atoms, n=1e4", fifty, 10_000, 2.0, 3)):
        grid = cp.TimeGrid(1.0, n_steps)
        rows.append((label, quoted, _median_time(lambda: cp.solve_limit(measure_, grid), repeats),
                     "s"))
    sol = cp.solve_limit(base, cp.TimeGrid(1.0, 4000))
    rows.append(("q_identity_diagnostic, n=4000", 0.58,
                 _median_time(lambda: cp.q_identity_diagnostic(sol), 3), "s"))

    run.RUN_DIR.mkdir(exist_ok=True)
    out_dir = run.RUN_DIR / "baseline-limit"
    child = measure.run_child(
        [sys.executable, "-m", "creditpool", "limit", "--set", "grid.n_steps=200000",
         "--out", str(out_dir)], run.child_env(), str(run.RUN_DIR), run.CHILD_TIMEOUT_S)
    if child.returncode != 0:
        print(child.stderr, file=sys.stderr)
        return 1
    claimed = json.loads((out_dir / "limit_manifest.json").read_text())["timing"]["seconds"]
    rows.append(("creditpool limit n=2e5: process wall", 4.6, child.wall, "s"))
    rows.append(("creditpool limit n=2e5: manifest timing", 1.4, claimed, "s"))
    rows.append(("creditpool limit n=2e5: wall not in manifest", 3.2, child.wall - claimed, "s"))

    print(f"environment {json.dumps(run.environment(1, run.child_env()), sort_keys=True)}")
    print("| item | ROADMAP | measured | unit | gap |")
    print("|---|---|---|---|---|")
    for item, quoted, value, unit in rows:
        gap = f"{value / quoted - 1:+.0%}" if quoted else "n/a"
        shown = "—" if quoted is None else f"{quoted:.4g}"
        print(f"| {item} | {shown} | {value:.4g} | {unit} | {gap} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
