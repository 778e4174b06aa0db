"""Exception types shared across the library, and the number rules.

Each error carries the process exit code the CLI maps it to; anything not
listed here exits with code 1.  :func:`finite_number` and
:func:`finite_count` are the number rules of every param, config field and
generator param (see ``cost_models.PARAMS``), :func:`tolerance` that of the
solver and coupling tolerances.
"""

import math
import numbers
import sys


class AwsensError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InvalidTree(AwsensError):
    """A scenario tree violates its structural or stochasticity invariants."""

    exit_code = 2


class InvalidParams(AwsensError):
    """Generator or model parameters outside their admissible range."""


def is_number(v) -> bool:
    """A real number that is not a boolean: Python's bool is an int, so
    JSON's true/false would otherwise pass."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def finite_number(v, name: str, where: str = "config") -> float:
    """``v`` as a float, or ``InvalidParams`` when it is not a finite
    number: a boolean, a string, NaN or an infinity (which Python's
    ``json`` reads), or an integer beyond the float range."""
    # NaN and the infinities fail the comparison
    if not (is_number(v) and abs(v) <= sys.float_info.max):
        raise InvalidParams(f"{where} {name!r} must be a finite number, got {v!r}")
    return float(v)


def finite_count(v, name: str, where: str = "config") -> int:
    """``v`` as an int, or ``InvalidParams`` unless it is a nonnegative
    integral finite number (``3.0`` reads as 3; ``2.7`` is refused, not
    truncated)."""
    if not (is_number(v) and abs(v) <= sys.float_info.max and float(v).is_integer() and v >= 0):
        raise InvalidParams(f"{where} {name!r} must be a nonnegative integer, got {v!r}")
    return int(v)


def tolerance(v, name: str) -> float:
    """``v`` as a float, or ``InvalidParams`` unless it is a nonnegative
    number (NaN fails); an integer beyond the float range reads as inf."""
    if not (is_number(v) and v >= 0):
        raise InvalidParams(f"{name} must be a nonnegative number, got {v!r}")
    return float(v) if v <= sys.float_info.max else math.inf


class InvalidCoupling(AwsensError):
    """A coupling tree fails structural checks or does not have the right marginals."""


class HorizonMismatch(AwsensError):
    """Two trees with different horizons were passed to a pairwise operation."""


class Infeasible(AwsensError):
    """Transport marginals mismatch beyond tolerance."""


class TooLarge(AwsensError):
    """An instance above a size guard: a brute-force oracle's, or the byte
    budget of a coupling's kernels."""

    exit_code = 5


class NotCausal(AwsensError):
    """The coupling is not causal in the required direction."""


class DeltaTooSmall(AwsensError):
    """The injective value encoding collides within floating precision."""


class AmbiguousStopping(AwsensError):
    """Some node has stop value equal to continuation value; the optimal
    stopping time is not unique."""

    exit_code = 3


class NotConvex(AwsensError):
    """Sampled Hessian of the objective violates convexity."""

    exit_code = 4


class NonFinite(AwsensError):
    """A value, gradient or first-order term computed from valid inputs
    overflowed: it is not a finite number."""

    exit_code = 6


class MaxIterations(AwsensError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class DimensionMismatch(AwsensError):
    """Input vectors do not match the model horizon."""


class FlatStep(AwsensError):
    """The tree has an atom with equal consecutive values, which the utility
    sensitivity formula excludes."""
