"""Exception types shared across the package, and the bounds on parameter values."""

from __future__ import annotations

import numbers
import sys
from typing import Callable


class EsflError(Exception):
    """Base class for all package errors."""


class ProfileError(EsflError):
    """A layer profile document is malformed or fails validation."""


class ConfigError(EsflError, ValueError):
    """Invalid or inconsistent configuration input. An error about one
    parameter (see :func:`check`) names it in ``field``, and ``problem`` says
    what is wrong with its value: the message is the two joined."""

    def __init__(self, message: str, field: str | None = None, problem: str = ""):
        super().__init__(message)
        self.field, self.problem = field, problem


class AllocationError(EsflError):
    """A compute allocation is incompatible with the requested workload."""


class InfeasibleLinkError(EsflError):
    """Traffic was scheduled over a link with zero rate."""


class InfeasibleUserError(EsflError):
    """A user has no cut layer satisfying its storage/memory limits."""


def id_list(ids, shown: int = 8) -> str:
    """The user ids ``ids`` as an error message names them: the first
    ``shown`` in order, then how many more there are, so that the message
    stays short however many users it is about."""
    head = "[" + ", ".join(map(str, ids[:shown])) + "]"
    return head if len(ids) <= shown else f"{head} and {len(ids) - shown} more"


# ---------------------------------------------------------------------------
# Bounds on parameter values. A rule is (refuses, what): ``refuses(value)``
# is true for a value outside the bound, and ``what`` says what a value must
# do, such as "be >= 1". A bool is no number here, though Python counts it.

Rule = tuple[Callable[[object], bool], str]


INTEGER: Rule = (lambda v: isinstance(v, bool) or not isinstance(v, numbers.Integral),
                 "be an integer")
NUMBER: Rule = (lambda v: isinstance(v, bool) or not isinstance(v, numbers.Real),
                "be a number")
FINITE: Rule = (lambda v: NUMBER[0](v) or not abs(v) <= sys.float_info.max,
                "be a finite number")   # NaN compares false; big integers compare exactly
POSITIVE: Rule = (lambda v: not v > 0, "be > 0")
COUNT: Rule = (lambda v: INTEGER[0](v) or v < 1, "be an integer >= 1")


def at_least(low) -> Rule:
    return lambda v: not v >= low, f"be >= {low}"


def at_most(high) -> Rule:
    return lambda v: v > high, f"be at most {high}"


def between(low: int, high: int) -> Rule:
    return lambda v: INTEGER[0](v) or not low <= v <= high, f"be an integer in {low}..{high}"


def check(field: str, value, *rules: Rule, each: bool = False) -> None:
    """Refuse ``value`` of parameter ``field`` (with ``each``, every item of it)
    by the first of ``rules`` it fails: a ConfigError naming the field and value."""
    for refuses, what in rules:
        for item in value if each else (value,):
            if refuses(item):
                problem = f"must {what}, not {item!r}"
                raise ConfigError(f"{field} {problem}", field, problem)
