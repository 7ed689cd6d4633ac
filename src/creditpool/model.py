"""Domain types for heterogeneous default-intensity portfolios.

A portfolio is described by a discrete probability measure over
(parameter vector, initial intensity) pairs.  One :class:`FirmType` holds
the dynamics of a single firm class; a :class:`TypeAtom` attaches an
initial intensity and a probability weight; a :class:`DiscreteTypeMeasure`
is the full frequency count.  The same measure drives both the finite-pool
simulator and the deterministic limit solver.

All types are immutable after construction and safe to share across
threads.  Constructors are permissive about parameter *values* (so that
invalid inputs can be collected and reported); :func:`validate_measure`
is the gate that enforces sign, finiteness, cap, and weight-sum
constraints, reporting every violation at once.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldError, ValidationError, Violation, bounded_repr

#: Default bound on every parameter and initial intensity.  The model
#: requires *some* finite bound; the value is a configuration choice.
DEFAULT_CAP = 100.0

#: Absolute tolerance for "weights sum to one" checks.  Double-precision
#: round-off scale for up to ~1e6 atoms.
WEIGHT_TOL = 1e-12


def whole_number(value, name: str) -> int:
    """``value`` as an int: an integer, a numpy integer or an integral float
    (``1e3``).  A bool or a non-integral value raises :class:`FieldError`
    ``name`` instead of being truncated."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise FieldError(name, f"must be an integer, got {bounded_repr(value)}")


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
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class TypeAtom:
    """One mass point of the portfolio measure: a firm class, its initial
    intensity, and its probability weight."""

    firm_type: FirmType
    lambda_init: float
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "lambda_init", float(self.lambda_init))
        object.__setattr__(self, "weight", float(self.weight))


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
        if self.kind not in self._KINDS:
            raise FieldError("kind", f"must be one of {self._KINDS}, got {bounded_repr(self.kind)}")
        object.__setattr__(self, "value", float(self.value))
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
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "x_init", float(self.x_init))
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
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "n_steps", whole_number(self.n_steps, "n_steps"))
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise FieldError("t_end", f"must be finite and > 0, got {self.t_end!r}")
        if self.n_steps < 1:
            raise FieldError("n_steps", f"must be >= 1, got {self.n_steps!r}")

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

#: The nonnegative, capped values of an atom: four rates and the initial intensity
_NONNEG_FIELDS = ("firm_type.alpha", "firm_type.lambda_bar", "firm_type.sigma",
                  "firm_type.beta_c", "lambda_init")


def _check_atom(atom: TypeAtom, cap: float, where: str, out: list[Violation]) -> None:
    for path in _NONNEG_FIELDS:
        x = operator.attrgetter(path)(atom)
        if not (math.isfinite(x) and x >= 0.0):
            out.append(Violation("NEGATIVE_PARAMETER", f"{where}.{path}",
                                 f"must be finite and >= 0, got {x}"))
        elif x > cap:
            out.append(Violation("CAP_EXCEEDED", f"{where}.{path}", f"{x} exceeds cap {cap}"))
    ft = atom.firm_type
    if not math.isfinite(ft.beta_s):
        out.append(Violation("NEGATIVE_PARAMETER", f"{where}.firm_type.beta_s",
                             "must be finite"))
    elif abs(ft.beta_s) > cap:
        out.append(Violation("CAP_EXCEEDED", f"{where}.firm_type.beta_s",
                             f"|{ft.beta_s}| exceeds cap {cap}"))
    if not (math.isfinite(atom.weight) and atom.weight > 0.0):
        out.append(Violation("NEGATIVE_PARAMETER", f"{where}.weight",
                             f"must be finite and > 0, got {atom.weight}"))


def validate_measure(measure: DiscreteTypeMeasure, cap: float = DEFAULT_CAP) -> DiscreteTypeMeasure:
    """Check every atom against sign/finiteness/cap bounds and the weight sum.

    Returns the measure unchanged if valid; raises :class:`ValidationError`
    listing *every* violation otherwise.  A ``cap`` that is NaN or <= 0 is
    the one violation reported; ``math.inf`` bounds nothing.
    """
    if not cap > 0.0:
        raise ValidationError([Violation("INVALID_VALUE", "cap", f"must be > 0, got {cap!r}")])
    violations: list[Violation] = []
    for i, atom in enumerate(measure.atoms):
        _check_atom(atom, cap, f"atoms[{i}]", violations)
    total = math.fsum(a.weight for a in measure.atoms)
    if not abs(total - 1.0) <= WEIGHT_TOL:
        violations.append(Violation("WEIGHT_SUM_MISMATCH", "atoms",
                                    f"weights sum to {total!r}, expected 1"))
    if violations:
        raise ValidationError(violations)
    return measure


def homogeneous_measure(firm_type: FirmType, lambda_init: float) -> DiscreteTypeMeasure:
    """Single-atom measure: every firm shares one class and one start level."""
    return DiscreteTypeMeasure(atoms=(TypeAtom(firm_type, lambda_init, 1.0),))
