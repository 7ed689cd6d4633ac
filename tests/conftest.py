import contextlib
import faulthandler
import os
import sys

import pytest

from creditpool import (
    FirmType,
    SystematicFactorConfig,
    TimeGrid,
    homogeneous_measure,
)

# A test that hangs (say, a subprocess that never exits or a loop that never
# converges) ends the run with every thread's traceback instead of stalling it.
HANG_SECONDS = 120


@pytest.fixture(scope="session")
def terminal_stderr(pytestconfig):
    """A descriptor for the run's own stderr, which output capture leaves alone."""
    capture = pytestconfig.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
        fd = os.dup(sys.stderr.fileno())
    yield fd
    os.close(fd)


@pytest.fixture(autouse=True)
def fail_on_hang(terminal_stderr):
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=terminal_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


# The recurring base case: a homogeneous pool with strong mean reversion
# and a sizable contagion sensitivity.
BASE = FirmType(alpha=4.0, lambda_bar=0.5, sigma=0.9, beta_c=2.0, beta_s=0.0)
BASE_LAMBDA_INIT = 0.5


@pytest.fixture
def base_type():
    return BASE


@pytest.fixture
def base_measure():
    return homogeneous_measure(BASE, BASE_LAMBDA_INIT)


@pytest.fixture
def grid_1k():
    return TimeGrid(t_end=1.0, n_steps=1000)


@pytest.fixture
def grid_coarse():
    return TimeGrid(t_end=1.0, n_steps=200)


@pytest.fixture
def factor():
    return SystematicFactorConfig()
