"""The N^p norm: sum of ||phi_n|| / n^p as a certified interval.

For a codomain inside M_m, ||phi_n|| = ||phi_m|| for every n >= m (Smith,
1983), so there is one way to close the series: the per-level brackets
termwise below m, then the level-m bracket times sum_{n >= m} n^-p.  Every
nonzero map is therefore a member for p > 1 and, by a divergence proof, not
a member at p = 1.  The series reads a level table and builds none: for
p > 1 the table must reach the map's stabilization level.  Zeta values are
never read from constants - they are always partial sums plus
integral-comparison tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Iterable

import numpy as np

from .bracket import SOURCE_MONOTONICITY, SOURCE_SMITH, SOURCE_TRIVIAL_ZERO, NormBracket, within
from .errors import InsufficientData, InvalidLevel, SpaceMismatch
from .maps import LevelNormTable, LinearMapRep
from .spaces import EPS, _same_space, is_real, require_int

VERDICT_MEMBER = "member"
VERDICT_NOT_MEMBER = "not_member"

CLOSED_FORM_FUNCTIONAL = "functional"
CLOSED_FORM_STABILIZED = "stabilized"
CLOSED_FORM_ZERO = "zero"

# The smallest normal double.
_TINY = float(np.finfo(float).tiny)

# Allowances for rounding, in units of EPS = 2**-52, the largest relative spacing of
# doubles.  The platform's pow is taken to be within _POW_ULPS ulps (glibc's is within
# one).  Each term of ``zeta_tail`` (its first term, the integral, the two
# Euler-Maclaurin terms, the naive bound) is one pow and at most seven roundings of half
# an ulp from its value; a partial sum is one pow per term and fsum's half an ulp.  Each
# slack is twice what it covers, so the roundings of the widening itself are covered too.
_POW_ULPS = 2
_TAIL_SLACK = 2 * (_POW_ULPS + 4) * EPS
_SUM_SLACK = 2 * (_POW_ULPS + 1) * EPS


def require_p(value) -> float:
    """The exponent p of the series as a float: a real number (``spaces.is_real``) with
    1 <= p < inf; anything else raises ValueError."""
    real = is_real(value)
    p = float(value) if real else value
    if not real or not 1.0 <= p < math.inf:
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p!r}")
    return p


def zeta_tail(p: float, K: int) -> tuple[float, float]:
    """Certified bounds on sum_{n > K} n^{-p}, as Python floats.

    Integral comparison sharpened with one Euler-Maclaurin correction term;
    the correction's own error has known sign and size for this completely
    monotone summand, so both sides stay certified.  Every power has an exact
    exponent (1 - p and -p are exact doubles for 1 < p < 2**53), and each term
    is within _TAIL_SLACK / 2 relative of its value: the bounds are widened by
    _TAIL_SLACK, the Euler-Maclaurin lower one by _TAIL_SLACK of both terms it
    subtracts.  Below the smallest normal double a step of rounding is 2^-1074
    whatever the value, enough to invert or zero the bracket, so an
    underflowing lo widens to [0, max(hi, 2 * tiny)].  Divergence (p <= 1) is signaled
    as (+inf, +inf), not raised; a p that is NaN or not ``spaces.is_real`` raises ValueError.
    """
    if not is_real(p) or math.isnan(p):
        raise ValueError(f"p must be a number, got {p!r}")
    K = require_int(K, "K", minimum=0)
    if p <= 1.0:
        return math.inf, math.inf
    a = float(K + 1)
    first = a**-p  # the tail's first term, f(a)
    integral = a ** (1.0 - p) / (p - 1.0)
    em_hi = integral + 0.5 * first + p * first / (12.0 * a)
    em_width = p * (p + 1.0) * (p + 2.0) * first / (720.0 * (a * a * a))
    naive_hi = (K ** (1.0 - p) / (p - 1.0)) if K >= 1 else (1.0 + 1.0 / (p - 1.0))
    lo = max(integral, first) * (1.0 - _TAIL_SLACK)
    # For p beyond about 5.6e102 the correction's width is inf * 0 = NaN.
    if math.isfinite(em_hi - em_width):
        lo = max(em_hi - em_width - _TAIL_SLACK * (em_hi + em_width), lo)
    hi = min(em_hi, naive_hi) * (1.0 + _TAIL_SLACK)
    if lo < _TINY:
        lo, hi = 0.0, max(hi, 2.0 * _TINY)
    return float(lo), float(hi)


def _truncation(s: int) -> int:
    """K = max(64, 4 s): ``np_norm`` sums n^-p termwise through K, ``zeta_tail`` beyond."""
    return max(64, 4 * s)


@lru_cache(maxsize=256)
def _zeta_parts(p: float, s: int) -> tuple[float, float, float, float]:
    """Bounds ``(head_lo, head_hi, tail_lo, tail_hi)`` on the two zeta sums that
    ``np_norm`` weights row s by: the head sum_{s <= n <= K} n^-p and ``zeta_tail(p, K)``,
    K = max(64, 4 s).  This is the only place a zeta sum is closed.  The head is within
    _SUM_SLACK / 2 relative of its value (a pow per term, one fsum) and widens by _SUM_SLACK.
    A term below the smallest normal double is off by at most 2 ulps of 2^-1074, so K
    such terms by K tiny 2^-51, which the slack's margin covers once the head is at
    least K tiny; a smaller head widens to [0, max(hi, 2 K tiny)].  The 256 most recent
    (p, s) are kept: a process sums each once, however many tables it reads at p."""
    K = _truncation(s)
    head = math.fsum(map(pow, range(s, K + 1), repeat(-p)))
    lo, hi = head * (1.0 - _SUM_SLACK), head * (1.0 + _SUM_SLACK)
    if lo < K * _TINY:
        lo, hi = 0.0, max(hi, 2.0 * K * _TINY)
    return (lo, hi, *zeta_tail(p, K))


def _down(x: float) -> float:
    """The next double toward 0 from x >= 0: a lower bound on any value x is nearest to."""
    return math.nextafter(x, 0.0)


def _up(x: float) -> float:
    """The next double above x: an upper bound on any value x is nearest to."""
    return math.nextafter(x, math.inf)


def over_power(lo: float, hi: float, n: int, p: float) -> tuple[float, float]:
    """Bounds on [lo, hi] / n^p, lo >= 0.  n**p is within _POW_ULPS ulps and each quotient
    one rounding from its value, so each widens by _SUM_SLACK.  If n**p overflows, n^p >
    2^1023, and hi 2^-1022 bounds the quotient.  Below the smallest normal double a step
    of rounding is 2^-1074 whatever the value, so a side under it widens: lo to 0 and a
    nonzero hi to 2 tiny, as ``zeta_tail`` widens an underflowing tail."""
    try:
        power = n**p
        qlo, qhi = lo / power * (1.0 - _SUM_SLACK), hi / power * (1.0 + _SUM_SLACK)
    except OverflowError:
        qlo, qhi = 0.0, math.ldexp(hi, -1022)
    return (qlo if qlo >= _TINY else 0.0), (qhi if qhi >= _TINY or not hi else 2.0 * _TINY)


@dataclass(frozen=True)
class NpResult:
    """Certified evaluation of the series at one exponent."""

    p: float
    bracket: NormBracket
    verdict: str
    truncation_level: int
    tail_lo: float
    tail_hi: float
    closed_form: str | None = None
    divergence_proof: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "p": self.p,
            "lo": self.bracket.lo,
            "hi": self.bracket.hi,
            "verdict": self.verdict,
            "K": self.truncation_level,
            "tail": [self.tail_lo, self.tail_hi],
            "closed_form": self.closed_form,
        }
        if self.divergence_proof is not None:
            out["divergence_proof"] = self.divergence_proof
        return out


def _require_table_for(phi: LinearMapRep, table: LevelNormTable) -> None:
    """A table answers only for the map it was built for, or an equal one."""
    t = table.map
    if t is not phi and not (
        _same_space(t.domain, phi.domain)
        and _same_space(t.codomain, phi.codomain)
        and np.array_equal(t.coeff, phi.coeff)
    ):
        raise SpaceMismatch(f"table was built for map {t.label!r}, not for {phi.label!r}")


def np_norm(phi: LinearMapRep, p, table: LevelNormTable) -> NpResult:
    """Bracket the series sum_{n >= 1} ||phi_n|| / n^p using a level table.

    Every term from the stabilization level s on is ||phi_s|| / n^p, so the
    series is the termwise sum over n < s plus [lo_s, hi_s] times
    sum_{n >= s} n^-p.  That zeta sum is summed termwise up to
    K = max(64, 4 s) and closed by ``zeta_tail`` beyond K; at K >= 64 its relative
    width is below 6e-11 for every p > 1: most of a catalog series' width at p <= 2
    (2e-11 to 7e-11), and all that a larger K could take off.  Both zeta parts come
    from ``_zeta_parts``, which a process sums once per (p, s).  Every rounding is
    covered: the head sum widens by _SUM_SLACK, each quotient of a level bracket by
    n^p by _SUM_SLACK, each product of a level bracket with a zeta bound moves one ulp
    outward, and so does each side's final ``math.fsum``.  For p > 1 the table must
    reach s = ``phi.stabilization_level``; a shorter one raises InsufficientTable.  At
    p = 1 only row 1 is read, and for the zero map no row.  A table built for another
    map raises SpaceMismatch.  The verdict says whether phi lies in N^p: every nonzero
    map is a member exactly for p > 1.
    """
    _require_table_for(phi, table)
    pp = require_p(p)
    s = phi.stabilization_level
    K = _truncation(s)

    if phi.is_zero:
        bracket = NormBracket(0.0, 0.0, SOURCE_TRIVIAL_ZERO, SOURCE_TRIVIAL_ZERO)
        return NpResult(pp, bracket, VERDICT_MEMBER, K, 0.0, 0.0, CLOSED_FORM_ZERO)

    if pp == 1.0:
        # A nonzero map has ||phi_1|| > 0, and the level norms never decrease.
        lo1 = table.bracket_at(1).lo
        proof = (
            f"level norms are nondecreasing, so every term is at least "
            f"||phi_1||/n >= {lo1:.9g}/n, and the harmonic series diverges"
        )
        bracket = NormBracket(math.inf, math.inf, SOURCE_MONOTONICITY, SOURCE_MONOTONICITY)
        return NpResult(
            pp, bracket, VERDICT_NOT_MEMBER, K, math.inf, math.inf,
            divergence_proof=proof,
        )

    head = [table.bracket_at(n) for n in range(1, s)]
    bs = table.bracket_at(s)
    head_lo, head_hi, zlo, zhi = _zeta_parts(pp, s)
    tail_lo, tail_hi = _down(bs.lo * zlo), _up(bs.hi * zhi)
    terms = [over_power(b.lo, b.hi, n, pp) for n, b in enumerate(head, 1)]
    terms += [(_down(bs.lo * head_lo), _up(bs.hi * head_hi)), (tail_lo, tail_hi)]
    los, his = zip(*terms)
    lo, hi = _down(math.fsum(los)), _up(math.fsum(his))
    closed = CLOSED_FORM_FUNCTIONAL if phi.codomain.ambient_dim == 1 else CLOSED_FORM_STABILIZED
    bracket = NormBracket(lo, hi, SOURCE_SMITH, SOURCE_SMITH)
    return NpResult(pp, bracket, VERDICT_MEMBER, K, tail_lo, tail_hi, closed)


@dataclass(frozen=True)
class IndexEstimate:
    """Fitted growth exponent and the summability index it implies, r_hat >= 1."""

    r_hat: float
    alpha_hat: float
    fit_window: tuple
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "r_hat": self.r_hat,
            "alpha_hat": self.alpha_hat,
            "fit_window": list(self.fit_window),
            "residual": self.residual,
        }


def index_estimate(source: LinearMapRep | Iterable[tuple[int, float]]) -> IndexEstimate:
    """Estimate the summability index from level-norm growth.

    A map has index 1 and needs no level table: its level norms are constant
    from its stabilization level s on, so the estimate is fixed and its window
    is (s, s).  For a synthetic (n, value) sequence, each n an integer >= 1 (else
    InvalidLevel) and each value ``spaces.is_real`` with 0 < value < inf (else ValueError),
    the growth exponent is a log-log least-squares slope over the upper half of its levels.
    """
    if isinstance(source, LinearMapRep):
        s = source.stabilization_level
        return IndexEstimate(1.0, 0.0, (s, s), 0.0)
    pairs = [(require_int(n, "level", InvalidLevel), v) for n, v in source]
    if bad := [v for _, v in pairs if not (is_real(v) and 0.0 < v < math.inf)]:
        raise ValueError(f"index fit values must satisfy 0 < value < inf, got {bad[0]!r}")
    pairs.sort()
    if len(pairs) < 3:
        raise InsufficientData(f"index fit needs at least 3 levels, got {len(pairs)}")
    window = pairs[len(pairs) // 2 :]
    if window[0][0] == window[-1][0]:  # one distinct level: the slope is undetermined
        raise InsufficientData(f"index fit window holds one distinct level, {window[0][0]}")
    xs = np.log([float(n) for n, _ in window])
    ys = np.log(np.array([v for _, v in window], dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    alpha = float(slope)
    return IndexEstimate(max(1.0, alpha + 1.0), alpha, (window[0][0], window[-1][0]), resid)


@dataclass(frozen=True)
class InclusionReport:
    """Comparison of the series at p <= q: the sum can only shrink."""

    p: float
    q: float
    result_p: NpResult
    result_q: NpResult
    bracket_ok: bool
    values_ok: bool
    both_tight: bool

    @property
    def passed(self) -> bool:
        return self.bracket_ok and self.values_ok

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "result_p": self.result_p.to_json_dict(),
            "result_q": self.result_q.to_json_dict(),
            "bracket_ok": self.bracket_ok,
            "values_ok": self.values_ok,
            "both_tight": self.both_tight,
            "passed": self.passed,
        }


def inclusion_check(phi: LinearMapRep, p: float, q: float, table: LevelNormTable) -> InclusionReport:
    """Check the norm comparison ||phi||_q <= ||phi||_p for 1 <= p <= q.

    Every comparison is ``bracket.within``, relative to its bound:
    ``bracket_ok`` holds if lo_q is within 1e-9 of hi_p; each bracket is tight
    if its hi is within 1e-6 of its lo (so [0, 0] and [inf, inf] are); and
    only if both are, ``values_ok`` asks the same of lo_q + hi_q against
    lo_p + hi_p, twice the midpoints.
    """
    pp, qq = require_p(p), require_p(q)
    if not pp <= qq:
        raise ValueError(f"need p <= q, got p={pp}, q={qq}")
    rp, rq = np_norm(phi, pp, table), np_norm(phi, qq, table)
    bp, bq = rp.bracket, rq.bracket
    bracket_ok = within(bq.lo, bp.hi, 1e-9)
    both_tight = within(bp.hi, bp.lo, 1e-6) and within(bq.hi, bq.lo, 1e-6)
    values_ok = not both_tight or within(bq.lo + bq.hi, bp.lo + bp.hi, 1e-9)
    return InclusionReport(pp, qq, rp, rq, bracket_ok, values_ok, both_tight)
