import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import creditpool
from creditpool.quadrature import (
    TrapezoidKernel,
    conv_simpson,
    conv_trapezoid,
    fft_length,
    prefix_trapezoid,
)


def simpson_prefix_weights(k: int) -> np.ndarray:
    """Quadrature weights w[0..k] with sum(w_j f_j)*dt ~ integral over k steps.

    Composite Simpson for even k; Simpson plus a 3/8 tail for odd k >= 3;
    plain trapezoid for k = 1.
    """
    if k < 1:
        return np.zeros(max(k + 1, 1))
    if k == 1:
        return np.array([0.5, 0.5])
    w = np.zeros(k + 1)
    m = k if k % 2 == 0 else k - 3
    if m > 0:
        w[0] = 1.0 / 3.0
        w[1:m:2] = 4.0 / 3.0
        w[2:m:2] = 2.0 / 3.0
        w[m] = 1.0 / 3.0
    if m != k:  # odd k: 3/8 rule on the last three intervals
        w[m : k + 1] += np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    return w


def direct_simpson(h, g, dt):
    """O(n^2) oracle: the Simpson prefix weights applied term by term."""
    out = np.zeros(len(h))
    for k in range(1, len(h)):
        w = simpson_prefix_weights(k)
        out[k] = dt * np.sum(w * h[k::-1] * g[: k + 1])
    return out


def direct_trapezoid(h, g, dt):
    """Trapezoid prefix convolution from a direct (non-FFT) convolution."""
    n = len(h)
    out = dt * (np.convolve(h, g)[:n] - 0.5 * h * g[0] - 0.5 * h[0] * g)
    out[0] = 0.0
    return out


def rel_error(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


SIZES = list(range(2, 12)) + [64, 65, 299, 300]


class TestSimpson:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_direct_sum(self, n):
        rng = np.random.default_rng(n)
        h, g = rng.normal(size=n), rng.normal(size=n)
        dt = float(rng.uniform(1e-3, 1.0))
        assert rel_error(conv_simpson(h, g, dt), direct_simpson(h, g, dt)) <= 1e-12

    def test_rows_are_independent_kernels(self):
        rng = np.random.default_rng(7)
        h, g = rng.normal(size=(3, 101)), rng.normal(size=101)
        expected = np.stack([direct_simpson(row, g, 0.01) for row in h])
        assert rel_error(conv_simpson(h, g, 0.01), expected) <= 1e-12

    def test_single_point_grid(self):
        assert np.array_equal(conv_simpson(np.ones(1), np.ones(1), 0.1), [0.0])

    def test_fourth_order_on_smooth_integrand(self):
        # int_0^t exp(-(t-r)) cos(r) dr = (sin t + cos t - exp(-t)) / 2
        errors = []
        for n in (40, 80):
            t = np.linspace(0.0, 1.0, n + 1)
            got = conv_simpson(np.exp(-t), np.cos(t), 1.0 / n)
            exact = 0.5 * (np.sin(t) + np.cos(t) - np.exp(-t))
            errors.append(np.max(np.abs(got[2:] - exact[2:])))
        assert errors[0] / errors[1] > 12.0


class TestTrapezoid:
    @pytest.mark.parametrize("n", SIZES + [3000])
    def test_matches_direct_convolution(self, n):
        rng = np.random.default_rng(n)
        h, g = rng.normal(size=n), rng.normal(size=n)
        assert rel_error(conv_trapezoid(h, g, 0.01), direct_trapezoid(h, g, 0.01)) <= 1e-12

    def test_convolution_with_one_is_prefix_integral(self):
        h = np.sin(np.linspace(0.0, 3.0, 301))
        assert np.max(np.abs(conv_trapezoid(h, np.ones(301), 0.01)
                             - prefix_trapezoid(h, 0.01))) <= 1e-14

    def test_cached_spectrum_reused_across_integrands(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 257))
        kernel = TrapezoidKernel(h, 0.1)
        for _ in range(3):
            g = rng.normal(size=257)
            expected = np.stack([direct_trapezoid(row, g, 0.1) for row in h])
            assert rel_error(kernel.apply(g), expected) <= 1e-12

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            conv_trapezoid(np.ones(5), np.ones(6), 0.1)

    def test_fft_length_is_smallest_5_smooth_without_wrap(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        for n in list(range(1, 40)) + [1001, 4001, 40001]:
            length = fft_length(n)
            assert length >= 2 * n - 1 and smooth(length)
            assert not any(smooth(m) for m in range(2 * n - 1, length))


def test_package_import_does_not_load_scipy():
    src = str(Path(creditpool.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = ("import sys, creditpool; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env=env)
    assert result.stdout.strip() == "[]"
