"""The benchmark's worker calls ``creditpool`` by module attribute.

``perfbench/worker.py`` reads names off the package (``cp.X``) and off its
``limit`` and ``convergence`` modules, and wraps some of them with
``capturing(module, "name", ...)``.  Deleting or renaming one of them
breaks every benchmark run of that workload without failing anything
else, so these tests parse the worker and check each name it uses.  A
traced run also reads results through the tracer's hooks, so a traced
sim run and a traced limit run check that they read nothing the package
dropped.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKER_PY = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"

#: the worker's local name for each package module it reads
MODULES = {"cp": "creditpool", "limit": "creditpool.limit",
           "convergence": "creditpool.convergence"}


def _names_used():
    """(module, name) of every attribute read and capturing() target in the worker."""
    used = set()
    for node in ast.walk(ast.parse(WORKER_PY.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in MODULES):
            used.add((MODULES[node.value.id], node.attr))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "capturing"):
            module, name = node.args[:2]
            used.add((MODULES[module.id], name.value))
    return sorted(used)


NAMES_USED = _names_used()


def test_the_worker_reads_each_module():
    assert {module for module, _ in NAMES_USED} == set(MODULES.values())
    assert ("creditpool.convergence", "run_replications") in NAMES_USED


@pytest.mark.parametrize("module, name", NAMES_USED)
def test_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def _load_worker():
    """``perfbench/worker.py`` as a module; it imports its siblings by name."""
    sys.path.insert(0, str(WORKER_PY.parent))
    try:
        spec = importlib.util.spec_from_file_location("_perfbench_worker", WORKER_PY)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(WORKER_PY.parent))


@pytest.mark.parametrize("workload", ["sim-small-pools", "grid-refine"])
def test_traced_run_has_no_failed_job(workload):
    worker = _load_worker()
    loop = worker.run_jobs(workload, 11, 0.0, True, worker.load_program())["loop"]
    assert loop["traced"] and loop["untraced"]
    assert loop["failed"] == 0, loop["failures"]
