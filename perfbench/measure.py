"""Timing machinery shared by ``run.py`` and its child processes.

* :class:`Tracer` wraps public ``creditpool`` functions from outside the
  package.  Each wrapper records a span (name, start, end, parent span,
  job id) and, at some boundaries, counts taken from the call's arguments
  and result.  Spans stay in memory until the run ends.
* :func:`timed_loop` runs one workload's jobs for a fixed time.
* :func:`layer_metrics` turns spans into the per-layer metrics.

Standard library only: the traced CLI child imports this module before it
times the ``creditpool`` import, which must not include numpy's.
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


def _simulate_counts(args, kwargs, result) -> dict:
    config = args[0] if args else kwargs["config"]
    n_firms, n_steps = config.n_firms, config.grid.n_steps
    times = result.default_times
    defaulted = times[times == times]  # drop NaN: firms that survived
    # A firm that defaults at t_k = k*dt was alive for k steps.
    alive = ((n_firms - len(defaulted)) * n_steps
             + int((defaulted / config.grid.dt).round().sum()))
    return {"firm_steps": n_firms * n_steps, "alive_steps": alive}


def _riccati_counts(args, kwargs, result) -> dict:
    grid = result.grid
    return {"key": repr((result.firm_type, grid.t_end, grid.n_steps))}


def _solve_q_counts(args, kwargs, result) -> dict:
    measure = args[0] if args else kwargs["measure"]
    return {"atoms": len(measure.atoms), "sweeps": result.iterations}


def _compute_f_counts(args, kwargs, result) -> dict:
    measure = args[0] if args else kwargs["measure"]
    return {"atoms": len(measure.atoms)}


#: (module, attribute, span name, counts).  Each name is patched in the
#: module its caller looks it up in; a name looked up in several modules
#: gets one entry per module under one span name.  ``conv_trapezoid`` is
#: bound as a default argument inside the Picard map, so only its direct
#: calls (the homogeneous route) are wrapped.
TARGETS = (
    ("convergence", "lln_experiment", "convergence.lln_experiment", None),
    ("convergence", "q_identity_diagnostic", "convergence.q_identity_diagnostic", None),
    ("convergence", "run_replications", "simulate.run_replications", None),
    ("simulate", "simulate", "simulate.simulate", _simulate_counts),
    ("convergence", "solve_limit", "limit.solve_limit", None),
    ("limit", "solve_limit", "limit.solve_limit", None),
    ("cli", "solve_limit", "limit.solve_limit", None),
    ("limit", "riccati_for_measure", "limit.riccati_for_measure", None),
    ("limit", "solve_q", "limit.solve_q", _solve_q_counts),
    ("limit", "compute_f", "limit.compute_f", _compute_f_counts),
    ("limit", "solve_homogeneous_f", "limit.solve_homogeneous_f", None),
    ("convergence", "contagion_identity_rhs", "limit.contagion_identity_rhs", None),
    ("limit", "solve_riccati", "riccati.solve_riccati", _riccati_counts),
    ("limit", "conv_simpson", "quadrature.conv_simpson", None),
    ("limit", "conv_trapezoid", "quadrature.conv_trapezoid", None),
    ("cli", "main", "cli.main", None),
)


@dataclass
class Span:
    name: str
    parent: int | None
    job: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder around calls into ``creditpool`` modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self.job, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Patch every target found in ``modules`` (short name -> module)."""
        saved = []
        try:
            for mod_name, attr, span_name, counts in TARGETS:
                module = modules.get(mod_name)
                if module is None:
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]


def spans_from_json(rows: list[dict]) -> list[Span]:
    return [Span(**r) for r in rows]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out


@dataclass
class LoopResult:
    """Per-job wall times (checked jobs only) and failure counts."""

    untraced: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


def timed_loop(run_job, seconds: float, alternate: bool) -> LoopResult:
    """Run jobs until ``seconds`` have passed, after one untimed warm-up.

    ``run_job(index, traced)`` runs and checks one job and returns its wall
    time; a raised exception counts the job as failed.  With ``alternate``,
    even jobs are traced and odd ones are not, so one run yields the
    tracing overhead; at least one job of each kind runs.
    """
    result = LoopResult()

    def attempt(index: int, traced: bool):
        result.attempted += 1
        try:
            return run_job(index, traced)
        except Exception as exc:  # any failure of the program counts, none stops the run
            result.failed += 1
            result.failures.append(f"job {index}: {type(exc).__name__}: {exc}")
            return None

    attempt(0, False)
    deadline = time.perf_counter() + seconds
    index = 1
    while time.perf_counter() < deadline or index < (3 if alternate else 2):
        traced = alternate and index % 2 == 0
        wall = attempt(index, traced)
        if wall is not None:
            (result.traced if traced else result.untraced).append(wall)
        index += 1
    return result


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def _job_metrics(spans: list[Span], selfs: list[float], extras: dict) -> dict:
    def of(name):
        return [(s, t) for s, t in zip(spans, selfs) if s.name == name]

    def total(name):
        return sum(s.seconds for s, _ in of(name))

    def self_of(name):
        return sum(t for _, t in of(name))

    def layer_self(layer):
        return sum(t for s, t in zip(spans, selfs) if s.name.split(".")[0] == layer)

    sims = [s for s, _ in of("simulate.simulate")]
    firm_steps = sum(s.counts["firm_steps"] for s in sims)
    keys = [s.counts["key"] for s, _ in of("riccati.solve_riccati")]
    solves = [s.counts for s, _ in of("limit.solve_q")]
    return {
        "simulate.ms_per_rep": 1e3 * total("simulate.simulate") / len(sims) if sims else 0.0,
        "simulate.ns_per_firm_step": 1e9 * total("simulate.simulate") / firm_steps if sims else 0.0,
        "simulate.self_s": layer_self("simulate"),
        "simulate.aggregate_s": self_of("simulate.run_replications"),
        "simulate.normals_bytes": max((8 * s.counts["firm_steps"] for s in sims), default=0),
        "simulate.alive_step_share":
            sum(s.counts["alive_steps"] for s in sims) / firm_steps if sims else 0.0,
        "riccati.calls": len(keys),
        "riccati.distinct_types": len(set(keys)),
        "riccati.self_s": layer_self("riccati"),
        "limit.solve_q_s": total("limit.solve_q"),
        "limit.picard_sweeps": sum(c["sweeps"] for c in solves),
        "limit.compute_f_s": total("limit.compute_f"),
        "limit.homogeneous_f_s": total("limit.solve_homogeneous_f"),
        "limit.identity_rhs_s": total("limit.contagion_identity_rhs"),
        "limit.self_s": layer_self("limit"),
        "quadrature.trapezoid_convs":
            sum(2 * c["atoms"] * c["sweeps"] for c in solves)
            + sum(2 * s.counts["atoms"] for s, _ in of("limit.compute_f"))
            + len(of("quadrature.conv_trapezoid")),
        "quadrature.simpson_convs": len(of("quadrature.conv_simpson")),
        "quadrature.simpson_s": total("quadrature.conv_simpson"),
        "quadrature.self_s": layer_self("quadrature"),
        "convergence.lln_self_s": self_of("convergence.lln_experiment"),
        "convergence.identity_diag_s": total("convergence.q_identity_diagnostic"),
        "convergence.self_s": layer_self("convergence"),
        "cli.import_s": total("cli.import"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_of("cli.main"),
        "cli.solve_s": extras.get("solve_s", 0.0),
        "cli.csv_bytes": extras.get("csv_bytes", 0),
        "cli.process_s": self_of("cli.process"),
    }


def layer_metrics(spans: list[Span], loop: LoopResult, extras: dict | None = None) -> dict:
    """Median over traced jobs of every per-layer metric.

    ``extras`` maps a job id to values the program reports about itself
    (the CLI manifest's solve time and the CSV size).  Self times of all
    spans, summed, are compared with the traced job time as
    ``trace.accounted_frac``.
    """
    extras = extras or {}
    selfs = self_times(spans)
    jobs = sorted({s.job for s in spans if s.job is not None})
    per_job = []
    for job in jobs:
        mine = [i for i, s in enumerate(spans) if s.job == job]
        values = _job_metrics([spans[i] for i in mine], [selfs[i] for i in mine],
                              extras.get(job, {}))
        values["trace.accounted_s"] = sum(selfs[i] for i in mine)
        per_job.append(values)
    names = list(_job_metrics([], [], {})) + ["trace.accounted_s"]
    metrics = {name: median_or_zero([m[name] for m in per_job]) for name in names}
    accounted = metrics.pop("trace.accounted_s")
    traced = median_or_zero(loop.traced)
    untraced = median_or_zero(loop.untraced)
    metrics["trace.job_s"] = traced
    metrics["trace.accounted_frac"] = accounted / traced if traced else 0.0
    metrics["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    return metrics


@dataclass
class ChildResult:
    returncode: int
    started: float  # perf_counter at spawn; the clock is shared by processes
    wall: float
    maxrss_kb: int
    stdout: str
    stderr: str


def run_child(argv: list[str], env: dict, log_dir: str, timeout: float) -> ChildResult:
    """Run one process to completion; wall time, exit code and peak RSS.

    Output goes to files under ``log_dir`` so the child is reaped with a
    blocking ``wait4``, whose resource usage is this child's alone.  A
    child that outlives ``timeout`` is killed.
    """
    out_path = os.path.join(log_dir, "child.out")
    err_path = os.path.join(log_dir, "child.err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    reaped = threading.Event()

    def kill_if_running():
        if not reaped.is_set():
            os.kill(pid, signal.SIGKILL)

    killer = threading.Timer(timeout, kill_if_running)
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - started
    finally:
        reaped.set()
        killer.cancel()
        killer.join()
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return ChildResult(os.waitstatus_to_exitcode(status), started, wall, usage.ru_maxrss,
                       stdout, stderr)
