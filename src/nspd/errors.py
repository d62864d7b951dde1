"""Exception types shared across the package."""

import math
import numbers

import numpy as np


class DimensionMismatchError(ValueError):
    """An input vector does not match the operator or function dimension."""


class ConfigurationError(ValueError):
    """Solver or schedule parameters violate a required inequality."""


def check_option(name, value, rule="be a positive number",
                 ok=lambda v: v > 0, kind=numbers.Real):
    """Return ``value`` if it is a ``kind`` (a bool is one exactly when
    ``kind`` is ``bool``) for which ``ok(value)`` holds, else raise
    :class:`ConfigurationError` saying "<name> must <rule>, got
    <repr(value)>".  NaN fails every ``ok`` that compares it."""
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, kind) or not ok(value)):
        raise ConfigurationError(f"{name} must {rule}, got {value!r}")
    return value


class DivergenceError(RuntimeError):
    """A solver produced a non-finite iterate.

    ``quantity`` names the vector that went non-finite, when known.
    """

    def __init__(self, message, iteration, quantity=None):
        named = message if quantity is None else f"{message} {quantity}"
        super().__init__(f"{named} (iteration {iteration})")
        self.message = message
        self.iteration = iteration
        self.quantity = quantity

    def __reduce__(self):
        return type(self), (self.message, self.iteration, self.quantity)


def check_finite(k, **vecs):
    """Raise :class:`DivergenceError` at iteration ``k`` naming the first of
    ``vecs`` (keyword name -> vector) that holds a non-finite entry.

    One sum of squares screens all vectors at once: it is finite exactly
    when every entry is, unless finite entries overflow when squared (say
    1e200), so only a non-finite sum runs the per-vector scan.
    """
    total = 0.0
    for v in vecs.values():  # not sum(): its generator costs more than dots
        total += v.dot(v)
    if math.isfinite(total):
        return
    for name, v in vecs.items():
        if not np.isfinite(v).all():  # the method: half the cost of np.all
            raise DivergenceError("non-finite iterate", k, name)


class InnerSolverError(RuntimeError):
    """An inner subproblem solver did not reach its tolerance."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (final residual {residual:.3e})")
        self.message = message
        self.residual = residual

    def __reduce__(self):
        return type(self), (self.message, self.residual)


class UnsupportedMetricError(ValueError):
    """A metric needs a closed form the problem does not provide."""


class OracleFailureError(RuntimeError):
    """No certified optimum: the oracle has no exact arm or a gate failed."""


class CertificateUnavailableError(ValueError):
    """A bound needs a reference point or constant that was not supplied."""
