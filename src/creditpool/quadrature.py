"""Quadrature kernels for convolution integrals on a uniform grid.

The limit solver repeatedly needs prefix convolutions

    C_k = integral_0^{t_k} h(t_k - r) g(r) dr,   k = 0..n,

for sampled h and g.  Every rule here reduces to one discrete prefix
convolution plus O(1) endpoint corrections per k, computed by a single
zero-padded real FFT (O(n log n)).  :class:`TrapezoidKernel` caches
the spectra of fixed kernels, so convolving many kernels with a new
integrand costs one forward transform of the integrand and one batched
inverse.

The trapezoid rule is the workhorse.  A Simpson-weighted variant (one
order more accurate) is provided for diagnostics that need an evaluation
*not* sharing the trapezoid's discretization error.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Composite Simpson weights follow the parity of the integrand index j
# (4/3 odd, 2/3 even) except at the ends, which get 1/3.  For odd k >= 3
# the 3/8 rule covers the last three intervals; these are its weights on
# j = k-3 .. k (plus Simpson's closing 1/3 at k-3) minus the parity
# weights: 1/3+3/8-2/3, 9/8-4/3, 9/8-2/3, 3/8-4/3.
_SIMPSON_ODD_TAIL = np.array([1.0, -5.0, 11.0, -23.0]) / 24.0


@lru_cache(maxsize=64)  # a solve asks for the same few lengths many times
def fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= 2n - 1, so a length-n prefix never wraps."""
    target = max(2 * n - 1, 1)
    best = 1 << (target - 1).bit_length()
    odd = 1
    while odd < best:  # odd runs over 3^b 5^c
        power_of_five = odd
        while odd < best:
            m = odd
            while m < target:
                m *= 2
            best = min(best, m)
            odd *= 3
        odd = power_of_five * 5
    return best


def _spectrum(h: np.ndarray) -> np.ndarray:
    """Zero-padded real FFT of h (rows along the last axis) for :func:`_prefix`."""
    return np.fft.rfft(h, fft_length(h.shape[-1]))


def _prefix(spectrum: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``sum_{j<=k} h[..., k-j] g[j]`` for k < n, h of length n given by its spectrum."""
    n = g.shape[0]
    size = fft_length(n)
    return np.fft.irfft(spectrum * np.fft.rfft(g, size), size)[..., :n]


def _check_grid(n: int, g: np.ndarray) -> None:
    if g.shape != (n,):
        raise ValueError("kernel and integrand must share the grid")


class TrapezoidKernel:
    """Kernels h (rows along the last axis) with their trapezoid spectra cached.

    On a uniform grid the trapezoid rule is a plain discrete convolution
    once both sequences have their first sample halved: for k >= 1

        trapz_k = dt * sum_{j=0..k} h'[k-j] g'[j],  h'[0] = h[0]/2, g'[0] = g[0]/2.

    The spectrum of dt * h' is computed once, so each integrand g costs one
    forward FFT and one inverse FFT batched over all rows.
    """

    def __init__(self, h: np.ndarray, dt: float):
        ends = np.array(h, dtype=float)
        ends[..., 0] *= 0.5
        self.n = ends.shape[-1]
        self.spectrum = _spectrum(dt * ends)

    def apply(self, g: np.ndarray) -> np.ndarray:
        """out[..., k] ~ integral_0^{t_k} h(t_k - r) g(r) dr for every row of h."""
        _check_grid(self.n, g)
        ends = np.array(g, dtype=float)
        ends[0] *= 0.5
        out = _prefix(self.spectrum, ends)
        out[..., 0] = 0.0  # integral over an empty interval, exactly
        return out


def prefix_trapezoid(h: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid integral of h along the last axis: out[k] = integral_0^{t_k} h."""
    out = np.empty_like(h)
    out[..., 0] = 0.0
    np.cumsum(0.5 * dt * (h[..., 1:] + h[..., :-1]), axis=-1, out=out[..., 1:])
    return out


def conv_trapezoid(h: np.ndarray, g: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid prefix convolution: out[k] ~ integral_0^{t_k} h(t_k-r) g(r) dr."""
    return TrapezoidKernel(h, dt).apply(g)


def conv_simpson(h: np.ndarray, g: np.ndarray, dt: float) -> np.ndarray:
    """Simpson-weighted prefix convolution, O(n log n).

    Same estimand as :func:`conv_trapezoid` but fourth-order away from the
    short-prefix edge, so the difference between the two isolates the
    trapezoid discretization error.  h may hold several kernels as rows.

    Equals ``dt * sum_j w_k[j] h[k-j] g[j]`` per k, with w_k the composite
    Simpson weights (a 3/8 tail for odd k >= 3, the trapezoid at k = 1;
    ``simpson_prefix_weights`` in ``tests/test_quadrature.py`` writes them
    out): one convolution with the parity weights folded into g, then the
    first, last and (odd k) 3/8-tail weights corrected term by term.
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[-1]
    _check_grid(n, g)
    parity = np.where(np.arange(n) % 2 == 1, 4.0 / 3.0, 2.0 / 3.0)
    out = _prefix(_spectrum(h), parity * g)
    out -= h * (g[0] / 3.0)  # j = 0: weight 1/3, not 2/3
    even = slice(2, n, 2)
    out[..., even] -= h[..., :1] * g[even] / 3.0  # j = k even: 1/3, not 2/3
    if n > 3:
        odd = slice(3, n, 2)
        for i, c in enumerate(_SIMPSON_ODD_TAIL):  # j = k-3 .. k
            out[..., odd] += c * h[..., 3 - i : 4 - i] * g[i : n - 3 + i : 2]
    if n > 1:
        # k = 1 is one trapezoid: weights 1/2, 1/2.  The j = 0 term was
        # already moved from 2/3 to 1/3 above.
        out[..., 1] += h[..., 1] * g[0] / 6.0 - h[..., 0] * g[1] * (5.0 / 6.0)
    out[..., 0] = 0.0
    return dt * out
