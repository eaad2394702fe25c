"""Certified two-sided enclosures for norm values."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantViolation

# Provenance tags for each side of a bracket.
SOURCE_OPTIMIZER = "optimizer"
SOURCE_N_TIMES_NORM = "n_times_norm_bound"
SOURCE_SMITH = "smith_stabilization"
SOURCE_MONOTONICITY = "monotonicity"
SOURCE_TRIVIAL_ZERO = "trivial_zero"
SOURCE_COEFF_RELAXATION = "coeff_relaxation"
SOURCE_HAAGERUP = "haagerup"

SOURCES = frozenset(
    {
        SOURCE_OPTIMIZER,
        SOURCE_N_TIMES_NORM,
        SOURCE_SMITH,
        SOURCE_MONOTONICITY,
        SOURCE_TRIVIAL_ZERO,
        SOURCE_COEFF_RELAXATION,
        SOURCE_HAAGERUP,
    }
)


@dataclass(frozen=True)
class NormBracket:
    """Interval [lo, hi] certified to contain a norm value.

    ``lo`` is always a witnessed or theory-derived lower bound, ``hi`` an
    upper bound (possibly +inf).  The sources record where each side came
    from so a reader can audit the certification chain.
    """

    lo: float
    hi: float
    lo_source: str
    hi_source: str

    def __post_init__(self):
        if self.lo_source not in SOURCES or self.hi_source not in SOURCES:
            raise InvariantViolation(
                f"unknown bracket source: {self.lo_source!r}/{self.hi_source!r}"
            )
        if not (0.0 <= self.lo <= self.hi):
            raise InvariantViolation(
                f"bracket bounds out of order: lo={self.lo!r} hi={self.hi!r}"
            )

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def rel_width(self) -> float:
        """Width relative to hi: 0 for [0, 0], inf for an infinite hi."""
        if math.isinf(self.hi):
            return math.inf
        return self.width / self.hi if self.hi else 0.0


def within(value: float, bound: float, rel: float) -> bool:
    """value <= bound + rel * |bound|: the one slack rule of every check, a slack
    relative to the bound, so a check decides alike at every scale of its map."""
    return value <= bound + rel * abs(bound)
