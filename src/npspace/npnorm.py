"""The N^p norm: sum of ||phi_n|| / n^p as a certified interval.

For a codomain inside M_m, ||phi_n|| = ||phi_m|| for every n >= m (Smith,
1983), so there is one way to close the series: the per-level brackets
termwise below m, then the level-m bracket times sum_{n >= m} n^-p.  Every
nonzero map is therefore a member for p > 1 and, by a divergence proof, not
a member at p = 1.  Zeta values are never read from constants - they are
always partial sums plus integral-comparison tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bracket import SOURCE_MONOTONICITY, SOURCE_SMITH, SOURCE_TRIVIAL_ZERO, NormBracket
from .errors import InsufficientData, SpaceMismatch
from .maps import LevelNormTable, LinearMapRep, build_level_table
from .spaces import _same_space

VERDICT_MEMBER = "member"
VERDICT_NOT_MEMBER = "not_member"

CLOSED_FORM_FUNCTIONAL = "functional"
CLOSED_FORM_STABILIZED = "stabilized"
CLOSED_FORM_ZERO = "zero"

# Largest K that zeta_bracket sums up to: its partial sum takes time linear
# in K, and zeta_tail is already certified far below this.
MAX_TRUNCATION = 100_000


@dataclass(frozen=True)
class NpParameter:
    """The exponent p of the series; restricted to finite p >= 1."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        if not 1.0 <= self.p < math.inf:
            raise ValueError(f"p must satisfy 1 <= p < inf, got {self.p!r}")


def _as_p(p) -> float:
    return p.p if isinstance(p, NpParameter) else NpParameter(p).p


def zeta_tail(p: float, K: int) -> tuple[float, float]:
    """Certified bounds on sum_{n > K} n^{-p}.

    Integral comparison sharpened with one Euler-Maclaurin correction term;
    the correction's own error has known sign and size for this completely
    monotone summand, so both sides stay certified.  Divergence (p <= 1) is
    signaled as (+inf, +inf), not raised.
    """
    p = float(p)
    K = int(K)
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    if p <= 1.0:
        return math.inf, math.inf
    a = float(K + 1)
    integral = a ** (1.0 - p) / (p - 1.0)
    em_hi = integral + 0.5 * a ** (-p) + p * a ** (-p - 1.0) / 12.0
    em_width = p * (p + 1.0) * (p + 2.0) * a ** (-p - 3.0) / 720.0
    naive_hi = (K ** (1.0 - p) / (p - 1.0)) if K >= 1 else (1.0 + 1.0 / (p - 1.0))
    lo = max(integral, a ** (-p))
    # For p beyond about 5.6e102 the correction's width is inf * 0 = NaN.
    if math.isfinite(em_hi - em_width):
        lo = max(em_hi - em_width, lo)
    hi = min(em_hi, naive_hi)
    return lo, hi


def over_power(x: float, n: int, p: float) -> float:
    """x / n**p, or x * n**-p (which underflows instead) once n**p overflows."""
    try:
        return x / n**p
    except OverflowError:
        return x * n**-p


def zeta_bracket(p: float, K: int = 64) -> tuple[float, float]:
    """Certified bounds on the full sum zeta(p), p > 1."""
    K = int(K)
    if K > MAX_TRUNCATION:
        raise ValueError(f"K must be at most MAX_TRUNCATION = {MAX_TRUNCATION}, got {K}")
    p = float(p)
    if p <= 1.0:
        return math.inf, math.inf
    partial = math.fsum(n ** (-p) for n in range(1, K + 1))
    tlo, thi = zeta_tail(p, K)
    return partial + tlo, partial + thi


@dataclass(frozen=True)
class NpResult:
    """Certified evaluation of the series at one exponent."""

    p: NpParameter
    bracket: NormBracket
    verdict: str
    truncation_level: int
    tail_lo: float
    tail_hi: float
    closed_form: str | None = None
    divergence_proof: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "p": self.p.p,
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
    K = max(64, 4 s) and closed by ``zeta_tail`` beyond K; at K >= 64 the
    bracket's relative width is below 6e-11 for every p > 1, so a
    larger K could not narrow the result measurably.  A table that stops
    short of s is first extended to s.  A table built for another map
    raises SpaceMismatch.
    """
    _require_table_for(phi, table)
    pp = _as_p(p)
    s = table.stabilization_level
    K = max(64, 4 * s)

    if phi.is_zero:
        bracket = NormBracket(0.0, 0.0, SOURCE_TRIVIAL_ZERO, SOURCE_TRIVIAL_ZERO)
        return NpResult(NpParameter(pp), bracket, VERDICT_MEMBER, K, 0.0, 0.0, CLOSED_FORM_ZERO)

    if pp == 1.0:
        # A nonzero map has ||phi_1|| > 0, and the level norms never decrease.
        lo1 = table.bracket_at(1).lo
        proof = (
            f"level norms are nondecreasing, so every term is at least "
            f"||phi_1||/n >= {lo1:.9g}/n, and the harmonic series diverges"
        )
        bracket = NormBracket(math.inf, math.inf, SOURCE_MONOTONICITY, SOURCE_MONOTONICITY)
        return NpResult(
            NpParameter(pp), bracket, VERDICT_NOT_MEMBER, K, math.inf, math.inf,
            divergence_proof=proof,
        )

    if table.max_level < s:
        table = build_level_table(phi, s, table.budget, table.seed)
    head = [table.bracket_at(n) for n in range(1, s)]
    bs = table.bracket_at(s)
    zeta_head = math.fsum(n ** (-pp) for n in range(s, K + 1))
    zlo, zhi = zeta_tail(pp, K)
    tail_lo = bs.lo * zlo
    tail_hi = bs.hi * zhi
    terms = [(over_power(b.lo, n, pp), over_power(b.hi, n, pp)) for n, b in enumerate(head, 1)]
    terms += [(bs.lo * zeta_head, bs.hi * zeta_head), (tail_lo, tail_hi)]
    lo, hi = (math.fsum(side) for side in zip(*terms))
    closed = CLOSED_FORM_FUNCTIONAL if phi.codomain.ambient_dim == 1 else CLOSED_FORM_STABILIZED
    bracket = NormBracket(lo, hi, SOURCE_SMITH, SOURCE_SMITH)
    return NpResult(NpParameter(pp), bracket, VERDICT_MEMBER, K, tail_lo, tail_hi, closed)


def membership(phi: LinearMapRep, p, table: LevelNormTable) -> str:
    """Membership of phi in N^p: every nonzero map is a member exactly for p > 1."""
    return np_norm(phi, p, table).verdict


@dataclass(frozen=True)
class IndexEstimate:
    """Fitted growth exponent and the summability index it implies."""

    r_hat: float
    alpha_hat: float
    fit_window: tuple
    residual: float

    def __post_init__(self):
        if self.r_hat < 1.0:
            raise ValueError(f"r_hat must be >= 1, got {self.r_hat}")

    def to_json_dict(self) -> dict:
        return {
            "r_hat": self.r_hat,
            "alpha_hat": self.alpha_hat,
            "fit_window": list(self.fit_window),
            "residual": self.residual,
        }


def index_estimate(
    source: LevelNormTable | Iterable[tuple[int, float]],
    fit_window: tuple[int, int] | None = None,
) -> IndexEstimate:
    """Estimate the summability index from level-norm growth.

    A level table has index 1: its map's level norms are constant from the
    stabilization level s on, so the window reported is s..max(s, max_level).
    For a synthetic (n, value) sequence the growth exponent is a log-log
    least-squares slope over the fit window, defaulting to the upper half of
    the available levels.
    """
    if isinstance(source, LevelNormTable):
        s = source.stabilization_level
        return IndexEstimate(1.0, 0.0, (s, max(s, source.max_level)), 0.0)
    pairs = sorted((int(n), float(v)) for n, v in source)
    if len(pairs) < 3:
        raise InsufficientData(f"index fit needs at least 3 levels, got {len(pairs)}")
    if fit_window is not None:
        lo_n, hi_n = fit_window
        window = [(n, v) for n, v in pairs if lo_n <= n <= hi_n]
    else:
        window = pairs[len(pairs) // 2 :]
    if len(window) < 2:
        raise InsufficientData("fit window keeps fewer than 2 levels")
    if any(v <= 0.0 for _, v in window):
        raise InsufficientData("fit window contains non-positive values")
    xs = np.log([float(n) for n, _ in window])
    ys = np.log([v for _, v in window])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    alpha = float(slope)
    if not (math.isfinite(alpha) and math.isfinite(resid)):
        raise InsufficientData(f"index fit is not finite: slope {alpha}, residual {resid}")
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
    """Check the norm comparison ||phi||_q <= ||phi||_p for 1 <= p <= q."""
    pp, qq = _as_p(p), _as_p(q)
    if not pp <= qq:
        raise ValueError(f"need p <= q, got p={pp}, q={qq}")
    rp = np_norm(phi, pp, table)
    rq = np_norm(phi, qq, table)
    bracket_ok = rq.bracket.lo <= rp.bracket.hi + 1e-9
    both_tight = rp.bracket.is_tight() and rq.bracket.is_tight()
    values_ok = True
    if both_tight:
        values_ok = rq.bracket.midpoint <= rp.bracket.midpoint + 1e-9
    return InclusionReport(pp, qq, rp, rq, bracket_ok, values_ok, both_tight)
