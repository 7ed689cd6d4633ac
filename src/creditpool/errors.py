"""Exception hierarchy shared across the toolkit.

Every toolkit error carries a short machine-readable ``code``, which the CLI
prints, and the ``exit_code`` the CLI returns for it: 2 config or validation,
3 no convergence, 4 non-finite, 1 any other toolkit error (no input should
reach one).  A rejected value is one :class:`FieldError`, named by its path
in the config's own keys; a :class:`ValidationError` carries every one found
in an input and prints each as ``INVALID_VALUE at <path>: <reason>``.
"""

from __future__ import annotations


def bounded_text(text: str) -> str:
    """``text`` for a one-line error message: each unprintable character, a
    newline say, escaped as ``repr`` escapes it, then the first 80
    characters of that, then "..." if cut."""
    shown = "".join(c if c.isprintable() else repr(c)[1:-1] for c in text[:81])
    return shown if len(shown) <= 80 else shown[:80] + "..."


def bounded_repr(value) -> str:
    """``repr(value)`` for an error message, bounded as :func:`bounded_text`."""
    try:
        return bounded_text(repr(value))
    except RecursionError:  # parsed JSON can nest deeper than repr reaches from here
        return f"a {type(value).__name__} nested too deeply to show"


class FieldError(ValueError):
    """A value outside its domain: ``field`` is its path in the config's
    keys, such as ``atoms[0].sigma``, ``reason`` what it must be."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field} {reason}")

    def under(self, prefix: str) -> FieldError:
        """The same rejection, its field named inside ``prefix``, such as the
        config section the value came from."""
        return FieldError(f"{prefix}.{self.field}" if self.field else prefix, self.reason)


class CreditPoolError(Exception):
    """Base class for all toolkit errors."""

    code = "ERROR"
    exit_code = 1


class ValidationError(CreditPoolError):
    """Raised when a measure or configuration violates model constraints.

    ``violations`` holds *every* :class:`FieldError` found, not just the
    first, and the message is each as ``INVALID_VALUE at <field>: <reason>``,
    joined by ``"; "``.
    """

    code = "VALIDATION"
    exit_code = 2

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(f"INVALID_VALUE at {v.field}: {v.reason}"
                                   for v in self.violations))


class ConfigError(CreditPoolError):
    """The config could not be read (file, JSON, ``--set`` syntax, unknown key,
    a section that is no object); a value read but rejected is a FieldError."""

    code = "CONFIG_PARSE"
    exit_code = 2


class NoConvergenceError(CreditPoolError):
    """Fixed-point iteration failed to reach tolerance within max_iter,
    on the grid of ``n_steps`` steps when one is named."""

    code = "NO_CONVERGENCE"
    exit_code = 3

    def __init__(self, iterations: int, residual: float, tol: float, n_steps: int | None = None):
        self.iterations = iterations
        self.residual = residual
        self.tol = tol
        self.n_steps = n_steps
        where = "" if n_steps is None else f" on the {n_steps}-step grid"
        super().__init__(
            f"no convergence after {iterations} iterations{where}: "
            f"residual {residual:.3e} > tol {tol:.3e}"
        )


class NonFiniteResultError(CreditPoolError):
    """A deterministic solve produced NaN/inf or a materially negative value."""

    code = "NONFINITE_RESULT"
    exit_code = 4


class NonFiniteStateError(CreditPoolError):
    """A simulated intensity, or a recorded moment of the pool (firm None),
    became non-finite."""

    code = "NONFINITE_STATE"
    exit_code = 4

    def __init__(self, replication: int, firm: int | None, step: int):
        self.replication = replication
        self.firm = firm
        self.step = step
        where = "the pool's intensity moments" if firm is None else f"firm {firm}"
        super().__init__(
            f"non-finite intensity in replication {replication} at {where}, step {step}"
        )
