"""Domain types for heterogeneous default-intensity portfolios.

A portfolio is described by a discrete probability measure over
(parameter vector, initial intensity) pairs.  One :class:`FirmType` holds
the dynamics of a single firm class; a :class:`TypeAtom` attaches an
initial intensity and a probability weight; a :class:`DiscreteTypeMeasure`
is the full frequency count.  The same measure drives both the finite-pool
simulator and the deterministic limit solver.

All types are immutable after construction and safe to share across
threads.  Constructors are strict about the *kind* of every value: a
real parameter takes any real number but a bool (:func:`real`), a count
any whole number (:func:`whole_number`), a choice only one of its strings
(:func:`one_of`) and a flag only a bool; anything else raises
:class:`FieldError` naming the field, never converts.  Sizes are bounded
by :data:`MAX_SIZE` there too.  Constructors are permissive about
parameter *values* (so that invalid inputs can be collected and
reported); :func:`validate_measure` is the gate that enforces sign,
finiteness, cap, and weight-sum constraints, reporting every violation
at once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldError, ValidationError, bounded_repr

#: Default bound on every parameter and initial intensity.  The model
#: requires *some* finite bound; the value is a configuration choice.
DEFAULT_CAP = 100.0

#: Absolute tolerance for "weights sum to one" checks.  Double-precision
#: round-off scale for up to ~1e6 atoms.
WEIGHT_TOL = 1e-12


#: Ceiling of every size (steps, firms, replications, pool sizes): far
#: beyond any run that fits in memory, and low enough that no array shape
#: or loop count built from it overflows.
MAX_SIZE = 2**31 - 1


def real(value, name: str) -> float:
    """``value`` as a float: any real number but a bool, which Python counts
    as one and a config never does.  Anything else raises :class:`FieldError`
    ``name``, as does an integer beyond the double range."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise FieldError(name, f"must be a number, got {bounded_repr(value)}")
    try:
        return float(value)
    except OverflowError:
        raise FieldError(name, f"is out of range, got {bounded_repr(value)}") from None


def whole_number(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int in [``low``, ``high``] (either bound optional): an
    integer, a numpy integer or an integral float (``1e3``).  A bool, a
    non-integral value or one out of bounds raises :class:`FieldError`
    ``name`` instead of being truncated."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise FieldError(name, f"must be an integer, got {bounded_repr(value)}")
    n = int(value)
    if low is not None and n < low:
        raise FieldError(name, f"must be >= {low}, got {bounded_repr(value)}")
    if high is not None and n > high:
        raise FieldError(name, f"must be <= {high}, got {bounded_repr(value)}")
    return n


def one_of(value, name: str, options: tuple[str, ...]) -> str:
    """``value`` if it is one of the strings ``options``, else :class:`FieldError` ``name``."""
    if not isinstance(value, str):
        raise FieldError(name, f"must be a string, got {bounded_repr(value)}")
    if value not in options:
        raise FieldError(name, f"must be one of {options}, got {bounded_repr(value)}")
    return value


@dataclass(frozen=True)
class FirmType:
    """Parameter vector of one firm class.

    Attributes
    ----------
    alpha : float
        Mean-reversion speed of the intensity (1/time).
    lambda_bar : float
        Reversion level (intensity units).
    sigma : float
        Diffusive volatility of the square-root term.
    beta_c : float
        Contagion sensitivity: each default in a pool of N firms bumps
        this firm's intensity by ``beta_c / N``.
    beta_s : float
        Sensitivity to the common systematic factor (may be negative).
    """

    alpha: float
    lambda_bar: float
    sigma: float
    beta_c: float
    beta_s: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "lambda_bar", "sigma", "beta_c", "beta_s"):
            object.__setattr__(self, name, real(getattr(self, name), name))


@dataclass(frozen=True)
class TypeAtom:
    """One mass point of the portfolio measure: a firm class, its initial
    intensity, and its probability weight."""

    firm_type: FirmType
    lambda_init: float
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "lambda_init", real(self.lambda_init, "lambda_init"))
        object.__setattr__(self, "weight", real(self.weight, "weight"))


@dataclass(frozen=True)
class DiscreteTypeMeasure:
    """Weighted atoms on (firm class, initial intensity).

    Weights are expected to sum to one; that is enforced by
    :func:`validate_measure`, not by the constructor, so that malformed
    measures can be built and then rejected with a full violation report.
    """

    atoms: tuple[TypeAtom, ...]

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise FieldError("atoms", "must hold at least one atom")
        object.__setattr__(self, "atoms", atoms)

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class EpsSchedule:
    """Scaling of the systematic-factor exposure as a function of pool size.

    ``inverse_sqrt`` gives ``value / sqrt(N)`` (the default), ``fixed``
    gives ``value`` for every N, and ``zero`` switches the factor off.
    The exposure must vanish as the pool grows for the pool-size limit to
    be deterministic, so ``fixed`` with value > 0 is for robustness
    experiments only.
    """

    kind: str = "inverse_sqrt"
    value: float = 1.0

    _KINDS = ("inverse_sqrt", "fixed", "zero")

    def __post_init__(self):
        one_of(self.kind, "kind", self._KINDS)
        object.__setattr__(self, "value", real(self.value, "value"))
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise FieldError("value", f"must be finite and >= 0, got {self.value!r}")

    def __call__(self, n_firms: int) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "fixed":
            return self.value
        return self.value / math.sqrt(n_firms)


@dataclass(frozen=True)
class SystematicFactorConfig:
    """Shared mean-reverting (Ornstein-Uhlenbeck) risk factor.

    ``gamma`` is the reversion speed (must be positive: the factor has to
    be stable), ``x_init`` the starting level, and ``eps`` the pool-size
    scaling of every firm's exposure.
    """

    gamma: float = 1.0
    x_init: float = 0.0
    eps: EpsSchedule = field(default_factory=EpsSchedule)

    def __post_init__(self):
        object.__setattr__(self, "gamma", real(self.gamma, "gamma"))
        object.__setattr__(self, "x_init", real(self.x_init, "x_init"))
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise FieldError("gamma", f"must be finite and > 0, got {self.gamma!r}")
        if not math.isfinite(self.x_init):
            raise FieldError("x_init", f"must be finite, got {self.x_init!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = t_end with t_k = k * dt."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        object.__setattr__(self, "t_end", real(self.t_end, "t_end"))
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise FieldError("t_end", f"must be finite and > 0, got {self.t_end!r}")
        object.__setattr__(self, "n_steps", whole_number(self.n_steps, "n_steps", 1, MAX_SIZE))

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def n_points(self) -> int:
        return self.n_steps + 1

    def points(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dt

    def index_of(self, t: float) -> int:
        """Nearest grid index for time t (t must lie on/near the grid)."""
        k = int(round(t / self.dt))
        if not (0 <= k <= self.n_steps and abs(k * self.dt - t) <= 1e-9 * max(1.0, self.t_end)):
            raise ValueError(f"t={t} is not a grid point")
        return k


@dataclass(frozen=True)
class Trajectory:
    """A real-valued function sampled on a :class:`TimeGrid`."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {v.shape} does not match grid with "
                f"{self.grid.n_points} points"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("trajectory values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def sup_distance(self, other: "Trajectory") -> float:
        if self.grid != other.grid:
            raise ValueError("trajectories live on different grids")
        return float(np.max(np.abs(self.values - other.values)))


# ---------------------------------------------------------------------------
# validation and constructors

def _check_atom(atom: TypeAtom, cap: float, where: str, out: list[FieldError]) -> None:
    ft = atom.firm_type
    # four rates and the initial intensity are nonnegative; beta_s is signed
    for key, x, low in (("alpha", ft.alpha, 0.0), ("lambda_bar", ft.lambda_bar, 0.0),
                        ("sigma", ft.sigma, 0.0), ("beta_c", ft.beta_c, 0.0),
                        ("beta_s", ft.beta_s, -cap), ("lambda_init", atom.lambda_init, 0.0)):
        if not (math.isfinite(x) and low <= x <= cap):
            out.append(FieldError(f"{where}.{key}",
                                  f"must be finite and in [{low}, cap {cap}], got {x}"))
    if not (math.isfinite(atom.weight) and atom.weight > 0.0):
        out.append(FieldError(f"{where}.weight", f"must be finite and > 0, got {atom.weight}"))


def validate_measure(measure: DiscreteTypeMeasure, cap: float = DEFAULT_CAP) -> DiscreteTypeMeasure:
    """Check every atom against sign/finiteness/cap bounds and the weight sum.

    Returns the measure unchanged if valid; raises :class:`ValidationError`
    listing *every* violation otherwise, each a :class:`FieldError` named by
    the config's keys (``atoms[0].sigma``, ``atoms`` for the weight sum).  A
    ``cap`` that is NaN or <= 0 is the one violation reported, at ``cap``;
    ``math.inf`` bounds nothing, and a ``cap`` that is no number raises
    :class:`FieldError`.
    """
    cap = real(cap, "cap")
    if not cap > 0.0:
        raise ValidationError([FieldError("cap", f"must be > 0, got {cap!r}")])
    violations: list[FieldError] = []
    for i, atom in enumerate(measure.atoms):
        _check_atom(atom, cap, f"atoms[{i}]", violations)
    total = math.fsum(a.weight for a in measure.atoms)
    if not abs(total - 1.0) <= WEIGHT_TOL:
        violations.append(FieldError("atoms", f"must have weights summing to 1, got {total!r}"))
    if violations:
        raise ValidationError(violations)
    return measure


def homogeneous_measure(firm_type: FirmType, lambda_init: float) -> DiscreteTypeMeasure:
    """Single-atom measure: every firm shares one class and one start level."""
    return DiscreteTypeMeasure(atoms=(TypeAtom(firm_type, lambda_init, 1.0),))
