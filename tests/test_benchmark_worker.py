"""The benchmark's worker calls ``creditpool`` by module attribute.

``perfbench/worker.py`` reads names off the package (``cp.X``) and off its
``limit`` and ``convergence`` modules, and wraps some of them with
``capturing(module, "name", ...)``.  Deleting or renaming one of them
breaks every benchmark run of that workload without failing anything
else, so these tests parse the worker and check each name it uses.
"""

import ast
import importlib
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
