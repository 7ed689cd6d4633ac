"""The benchmark's tracer patches ``creditpool`` functions by module and name.

A refactor that drops or renames one of them breaks a traced benchmark run
(``perfbench/run.py --trace 1``) without failing anything else, so these
tests read the tracer's target table from ``perfbench/measure.py`` and
check it against the package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from creditpool import riccati_for_measure, solve_q

MEASURE_PY = Path(__file__).resolve().parent.parent / "perfbench" / "measure.py"


def _load_measure():
    spec = importlib.util.spec_from_file_location("_perfbench_measure", MEASURE_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


measure = _load_measure()


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _, _ in measure.TARGETS}))
def test_patch_target_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"creditpool.{module}"), attr))


def test_solve_q_result_feeds_the_sweep_count(base_measure, grid_coarse):
    riccati = riccati_for_measure(base_measure, grid_coarse)
    sol = solve_q(base_measure, riccati, grid_coarse)
    counts = measure._solve_q_counts((base_measure, riccati, grid_coarse), {}, sol)
    assert counts == {"atoms": 1, "sweeps": sol.iterations}
    assert sol.iterations >= 1
