"""Series brackets, member verdicts, index fits, and inclusions."""

import math
import sys
from dataclasses import replace
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

from npspace import (
    InsufficientData,
    InsufficientTable,
    SpaceMismatch,
    build_level_table,
    full_matrix_space,
    inclusion_check,
    index_estimate,
    make_map,
    np_norm,
    require_p,
    scaled_map,
    sum_map,
    zeta_tail,
)
from npspace import maps, npnorm
from npspace.bracket import within
from npspace.npnorm import VERDICT_MEMBER, VERDICT_NOT_MEMBER, _zeta_parts

from conftest import _decimal_tail, _exact_norm

SEED = 11


def _zeta_oracle(p, K=10**6):
    """Independent zeta bracket: partial sums plus plain integral tails."""
    partial = math.fsum(n ** (-p) for n in range(1, K + 1))
    return partial + (K + 1) ** (1 - p) / (p - 1), partial + K ** (1 - p) / (p - 1)


# Frozen expected values, computed by the oracle above (verified in-test).
ZETA2 = 1.6449340668482264  # pi^2 / 6
ZETA3 = 1.2020569031595943


# ---------------------------------------------------------------------------
# zeta_tail / _zeta_parts
# ---------------------------------------------------------------------------


def test_zeta_tail_full_sum_contains_pi_squared_over_six():
    olo, ohi = _zeta_oracle(2.0)
    assert olo <= ZETA2 <= ohi
    lo, hi = zeta_tail(2.0, 0)
    assert lo <= ZETA2 <= hi


def test_zeta_tail_p3_k1_contains_zeta3_minus_one():
    olo, ohi = _zeta_oracle(3.0)
    assert olo <= ZETA3 <= ohi
    lo, hi = zeta_tail(3.0, 1)
    assert lo <= ZETA3 - 1.0 <= hi


def test_zeta_tail_vanishes_for_large_k():
    prev_width = math.inf
    for K in (16, 64, 256, 1024):
        lo, hi = zeta_tail(2.0, K)
        assert 0.0 <= lo <= hi
        assert hi - lo < prev_width
        prev_width = hi - lo
    assert hi < 1e-3 and lo > 0.0


def test_zeta_tail_divergent_signaled_as_inf():
    assert zeta_tail(1.0, 10) == (math.inf, math.inf)
    assert zeta_tail(0.5, 0) == (math.inf, math.inf)
    assert zeta_tail(-math.inf, 0) == (math.inf, math.inf)


def test_zeta_tail_rejects_a_nan_p():
    with pytest.raises(ValueError, match="p must be a number, got nan"):
        zeta_tail(math.nan, 64)


@pytest.mark.parametrize("p", [1.0001, 1.5, 2.0, 2.5, 3.0, 4.0, 7.0, 12.0])
@pytest.mark.parametrize("K", [0, 1, 2, 8, 64, 1000])
def test_zeta_tail_ordered_and_certified(p, K):
    lo, hi = zeta_tail(p, K)
    assert 0.0 <= lo <= hi
    # True tail via a long partial sum from K+1, bounded above by its own
    # integral remainder.
    partial = math.fsum(n ** (-p) for n in range(K + 1, K + 200_001))
    top = K + 200_000
    true_lo = partial
    true_hi = partial + top ** (1 - p) / (p - 1)
    assert lo <= true_hi and hi >= true_lo


def test_zeta_tail_stays_ordered_and_positive_where_its_terms_underflow():
    # Past p of about 179 at K = 64 every term rounds to a subnormal or to 0:
    # zeta_tail(178.5, 64) was (5e-324, 0.0), and hi was 0.0 from there on.
    for K in (0, 1, 2, 8, 64, 128, 256, 1000):
        for p in np.linspace(1.5, 400.0, 40_001):
            lo, hi = zeta_tail(float(p), K)
            assert 0.0 <= lo <= hi and hi > 0.0, (p, K, lo, hi)
            # The tail is at least its first term, (K + 1)^-p.
            assert math.log(hi) >= -p * math.log(K + 1), (p, K, hi)


@pytest.mark.parametrize("p", [6e102, 1e300, sys.float_info.max])
@pytest.mark.parametrize("K", [0, 1, 64])
def test_zeta_bounds_stay_finite_for_huge_p(p, K):
    # p * (p + 1) * (p + 2) overflows there, and the Euler-Maclaurin
    # correction's width came out NaN, which made every bracket NaN.
    lo, hi = zeta_tail(p, K)
    assert math.isfinite(lo) and math.isfinite(hi)
    assert 0.0 <= lo <= hi
    head_lo, head_hi, tail_lo, tail_hi = _zeta_parts(p, 1)
    assert 0.0 <= tail_lo <= tail_hi < 1e-300
    assert head_lo <= 1.0 <= head_hi  # zeta(p) rounds to 1.0


@pytest.mark.parametrize("p", [171.0, 1025.0, 1e6, 1e300])
def test_series_head_terms_do_not_overflow_for_huge_p(catalog_tables, catalog_entries, p):
    # transpose_M3 stabilizes at 3, so the head has a term over 2**p, which
    # once overflowed for p above about 1024; the series rounds to 1.0.
    for name in ("transpose_M3", "identity_M3", "schur_M2"):
        r = np_norm(catalog_entries[name].map, p, catalog_tables[name])
        assert math.isfinite(r.bracket.lo) and math.isfinite(r.bracket.hi), name
        assert r.bracket.lo <= r.bracket.hi, name
    r = np_norm(catalog_entries["transpose_M3"].map, p, catalog_tables["transpose_M3"])
    assert r.bracket.lo <= 1.0 <= r.bracket.hi


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 5.0])
def test_zeta_parts_intersect_oracle(p):
    head_lo, head_hi, tail_lo, tail_hi = _zeta_parts(p, 1)
    olo, ohi = _zeta_oracle(p)
    assert head_lo + tail_lo <= ohi and head_hi + tail_hi >= olo


ZETA_GRID = [1.0001, 1.5, 2.0, 3.0, 5.0, 7.5, 10.0, 50.0, 200.0, 300.0]


@pytest.mark.parametrize("p", ZETA_GRID)
def test_zeta_bounds_contain_a_60_digit_reference(p):
    with localcontext(Context(prec=60)) as ctx:
        for K in (0, 1, 8, 64, 2048):
            lo, hi = zeta_tail(p, K)
            assert type(lo) is float and type(hi) is float, (p, K)
            assert Decimal(lo) <= _decimal_tail(p, K, ctx) <= Decimal(hi), (p, K, lo, hi)


@pytest.mark.parametrize("p", [*ZETA_GRID, 1000.0])
def test_zeta_parts_contain_a_60_digit_reference(p):
    # The head sum_{s <= n <= K} n^-p and the tail beyond K = max(64, 4 s), for K
    # from 64 to 2048.  Where the head's terms underflow (from s = 3 at p = 1000,
    # s = 16 at p = 300, s = 512 at p = 200) it widens to [0, 2 K tiny].  A partial
    # sum through 64 plus this tail once had its lo 6.1e-17 relative above zeta(5),
    # and lay wholly 1.1e-16 below zeta(10).
    with localcontext(Context(prec=60)) as ctx:
        P = Decimal(p)
        for s in (1, 2, 3, 16, 512):
            K = max(64, 4 * s)
            head = sum(ctx.power(Decimal(n), -P) for n in range(s, K + 1))
            parts = _zeta_parts(p, s)
            assert all(type(x) is float for x in parts), (p, s)
            head_lo, head_hi, tail_lo, tail_hi = map(Decimal, parts)
            assert head_lo <= head <= head_hi, (p, s, parts)
            assert tail_lo <= _decimal_tail(p, K, ctx) <= tail_hi, (p, s, parts)


def _tightest(value):
    """The narrowest bracket of doubles around a Decimal: [v, v] for a double v."""
    f = float(value)
    lo = f if Decimal(f) <= value else math.nextafter(f, 0.0)
    return lo, f if Decimal(f) >= value else math.nextafter(f, math.inf)


@pytest.mark.parametrize("p", [1.0001, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0, 50.0, 200.0, 1000.0])
def test_series_brackets_contain_a_60_digit_closed_form(catalog_tables, catalog_entries, p):
    # Every quotient, product and sum of np_norm rounds outward: the bracket holds
    # sum_{n < s} ||phi_n|| n^-p + ||phi_s|| sum_{n >= s} n^-p at 60 digits, from the
    # built table and from the table of the tightest brackets around the true norms,
    # whose rows lend the series no slack (exact rows for all but two maps).  Every
    # bracket is also at most 1e-6 wide.
    with localcontext(Context(prec=60)) as ctx:
        for name, entry in catalog_entries.items():
            s = entry.map.stabilization_level
            want = sum(
                _exact_norm(entry, n) * ctx.power(Decimal(n), -Decimal(p)) for n in range(1, s)
            )
            want += _exact_norm(entry, s) * _decimal_tail(p, s - 1, ctx)
            built, rows = catalog_tables[name], []
            for e in built.entries:
                lo, hi = _tightest(_exact_norm(entry, e.level))
                rows.append(replace(e, bracket=replace(e.bracket, lo=lo, hi=hi)))
            for table in (built, replace(built, entries=tuple(rows))):
                r = np_norm(entry.map, p, table)
                assert Decimal(r.bracket.lo) <= want <= Decimal(r.bracket.hi), (name, p, r)
                assert r.bracket.width <= 1e-6, (name, p, r)


def test_require_p_validation():
    with pytest.raises(ValueError, match=r"p must satisfy 1 <= p < inf, got 0.5"):
        require_p(0.5)
    assert require_p(1.0) == 1.0
    assert type(require_p(2)) is float and require_p(np.float64(2.5)) == 2.5


@pytest.mark.parametrize(
    "p", (math.inf, -math.inf, math.nan, True, np.True_, "2", b"2", 2 + 0j, [2.0])
)
def test_require_p_rejects_non_finite_p(p):
    with pytest.raises(ValueError, match="p must satisfy 1 <= p < inf"):
        require_p(p)


def test_np_result_p_is_a_float(catalog_tables, catalog_entries):
    r = np_norm(catalog_entries["trace_M2"].map, 2, catalog_tables["trace_M2"])
    assert type(r.p) is float and r.to_json_dict()["p"] == 2.0


# ---------------------------------------------------------------------------
# np_norm
# ---------------------------------------------------------------------------


def test_np_norm_zero_map(catalog_tables, catalog_entries):
    phi = catalog_entries["zero_M2"].map
    for p in (1.0, 2.0, 3.5):
        r = np_norm(phi, p, catalog_tables["zero_M2"])
        assert r.bracket.lo == r.bracket.hi == 0.0
        assert r.verdict == VERDICT_MEMBER
        assert r.closed_form == "zero"


def test_np_norm_identity_p2_is_zeta2(catalog_tables, catalog_entries):
    r = np_norm(catalog_entries["identity_M2"].map, 2.0, catalog_tables["identity_M2"])
    assert r.bracket.lo - 1e-9 <= ZETA2 <= r.bracket.hi + 1e-9
    assert r.bracket.width <= 1e-6
    assert r.closed_form == "stabilized"
    assert r.truncation_level == 64  # K = max(64, 4 s) with s = 2


def test_np_norm_transpose_p3_closed_form(catalog_tables, catalog_entries):
    want = 1.0 + 2.0 * (ZETA3 - 1.0)
    r = np_norm(catalog_entries["transpose_M2"].map, 3.0, catalog_tables["transpose_M2"])
    assert r.bracket.lo - 1e-9 <= want <= r.bracket.hi + 1e-9
    assert r.bracket.width <= 1e-5


def test_np_norm_trace_p2_functional_form(catalog_tables, catalog_entries):
    r = np_norm(catalog_entries["trace_M2"].map, 2.0, catalog_tables["trace_M2"])
    want = 2.0 * ZETA2
    assert r.bracket.lo - 1e-8 <= want <= r.bracket.hi + 1e-8
    assert r.closed_form == "functional"


def test_np_norm_p1_nonzero_diverges(catalog_tables, catalog_entries):
    r = np_norm(catalog_entries["identity_M2"].map, 1.0, catalog_tables["identity_M2"])
    assert r.verdict == VERDICT_NOT_MEMBER
    assert r.divergence_proof
    assert math.isinf(r.bracket.hi)


@pytest.mark.parametrize("p", (1.0, 1.5, 2.5))
def test_np_norm_needs_a_table_through_s(p, catalog_entries):
    # Above p = 1 the series reads rows 1..s (s = 3 here); at p = 1 only row 1.
    phi = catalog_entries["transpose_M3"].map
    short = build_level_table(phi, 2, seed=SEED)
    full = build_level_table(phi, phi.stabilization_level, seed=SEED)
    if p == 1.0:
        assert np_norm(phi, p, short).to_json_dict() == np_norm(phi, p, full).to_json_dict()
    else:
        with pytest.raises(InsufficientTable, match="covers levels 1..2 and stabilizes at 3"):
            np_norm(phi, p, short)


def test_series_readers_build_no_table(catalog_entries, monkeypatch):
    # A table short of s raises; no reader runs an ascent to extend it.
    phi = catalog_entries["transpose_M3"].map
    short = build_level_table(phi, 2, seed=SEED)

    def no_ascent(*args, **kwargs):
        raise AssertionError("a series reader ran the ascent")

    monkeypatch.setattr(maps, "maximize_amplified_norm", no_ascent)
    for read in (
        lambda: np_norm(phi, 2.0, short),
        lambda: inclusion_check(phi, 2.0, 3.0, short),
    ):
        with pytest.raises(InsufficientTable):
            read()


@pytest.mark.parametrize("c", (2.5, 0.3, 1e-20))
def test_np_norm_homogeneity(catalog_tables, catalog_entries, c):
    # ||c phi||_p = |c| ||phi||_p: each side of the series bracket scales by c,
    # to a slack relative to that side, at every scale down to 1e-20.
    for name, table in catalog_tables.items():
        phi = catalog_entries[name].map
        if phi.is_zero:
            continue
        r = np_norm(phi, 2.5, table)
        psi = scaled_map(phi, c)
        rc = np_norm(psi, 2.5, build_level_table(psi, 4, seed=SEED))
        for side in ("lo", "hi"):
            got, want = getattr(rc.bracket, side), c * getattr(r.bracket, side)
            assert within(got, want, 1e-12) and within(want, got, 1e-12), (name, side)


def test_np_norm_triangle_inequality(catalog_entries):
    # ||phi + psi||_p <= ||phi||_p + ||psi||_p, so no lo of the sum exceeds the hi sum.
    pairs = [
        ("identity_M2", "transpose_M2"),
        ("identity_M2", "schur_M2"),
        ("zero_M2", "transpose_M2"),
    ]
    for a, b in pairs:
        phi = catalog_entries[a].map
        psi = catalog_entries[b].map
        sigma = sum_map(phi, psi)
        for p in (2.0, 3.0):
            rp = np_norm(phi, p, build_level_table(phi, 4, seed=SEED))
            rq = np_norm(psi, p, build_level_table(psi, 4, seed=SEED))
            rs = np_norm(sigma, p, build_level_table(sigma, 4, seed=SEED))
            assert within(rs.bracket.lo, rp.bracket.hi + rq.bracket.hi, 1e-12), (a, b, p)


def test_np_norm_bounded_by_cb_times_zeta(catalog_tables, catalog_entries):
    # Stabilized series are at most the sup norm (row s + 1) times the full zeta sum.
    with localcontext(Context(prec=60)) as ctx:
        zetas = {p: float(_decimal_tail(p, 0, ctx)) for p in (1.5, 2.0, 3.0)}
    for name, table in catalog_tables.items():
        phi = catalog_entries[name].map
        if phi.is_zero:
            continue
        for p, zeta in zetas.items():
            r = np_norm(phi, p, table)
            cb_hi = table.bracket_at(phi.stabilization_level + 1).hi
            assert r.bracket.hi <= cb_hi * zeta + 1e-9


# ---------------------------------------------------------------------------
# The member verdict
# ---------------------------------------------------------------------------


def test_membership_above_two_is_by_theory(catalog_tables, catalog_entries):
    for name, table in catalog_tables.items():
        phi = catalog_entries[name].map
        if phi.is_zero:
            continue
        assert np_norm(phi, 2.5, table).verdict == VERDICT_MEMBER


def test_membership_stabilized_above_one(catalog_tables, catalog_entries):
    assert np_norm(
        catalog_entries["transpose_M2"].map, 1.5, catalog_tables["transpose_M2"]
    ).verdict == VERDICT_MEMBER


def test_membership_p1(catalog_tables, catalog_entries):
    assert np_norm(
        catalog_entries["identity_M2"].map, 1.0, catalog_tables["identity_M2"]
    ).verdict == VERDICT_NOT_MEMBER
    assert np_norm(
        catalog_entries["zero_M2"].map, 1.0, catalog_tables["zero_M2"]
    ).verdict == VERDICT_MEMBER


def test_membership_of_a_scaled_identity():
    # A table through s = 2 gives the verdict; one row alone does not.
    m2 = full_matrix_space(2)
    phi = scaled_map(make_map(m2, m2, [np.array(b) for b in m2.basis], "id"), 0.5)
    table = build_level_table(phi, phi.stabilization_level, seed=SEED)
    assert (table.max_level, table.stabilization_level) == (2, 2)
    assert np_norm(phi, 1.5, table).verdict == VERDICT_MEMBER
    with pytest.raises(InsufficientTable):
        np_norm(phi, 1.5, build_level_table(phi, 1, seed=SEED))


def test_membership_with_a_short_table(catalog_entries):
    # p > 1 needs rows 1..s; the divergence verdict at p = 1 needs row 1 only.
    phi = catalog_entries["transpose_M3"].map
    short = build_level_table(phi, 2, seed=SEED)
    with pytest.raises(InsufficientTable, match="cannot serve level 3"):
        np_norm(phi, 1.5, short)
    assert np_norm(phi, 1.0, short).verdict == VERDICT_NOT_MEMBER


def test_full_matrix_codomain_always_member_above_one(catalog_tables, catalog_entries):
    # Maps into a full matrix algebra are members for every p > 1.
    for name, table in catalog_tables.items():
        phi = catalog_entries[name].map
        if not phi.codomain.is_full_matrix_algebra:
            continue
        for p in (1.1, 1.5, 2.0, 2.5):
            assert np_norm(phi, p, table).verdict == VERDICT_MEMBER


def test_n1_triviality(catalog_tables, catalog_entries):
    for name, table in catalog_tables.items():
        phi = catalog_entries[name].map
        r = np_norm(phi, 1.0, table)
        if phi.is_zero:
            assert r.verdict == VERDICT_MEMBER and r.bracket.hi == 0.0
        else:
            assert r.verdict == VERDICT_NOT_MEMBER
            assert r.divergence_proof


# ---------------------------------------------------------------------------
# index_estimate
# ---------------------------------------------------------------------------


def test_index_synthetic_linear_growth():
    est = index_estimate([(n, float(n)) for n in range(1, 17)])
    assert abs(est.r_hat - 2.0) <= 0.05


def test_index_synthetic_constant():
    est = index_estimate([(n, 3.7) for n in range(1, 17)])
    assert est.r_hat == 1.0
    assert abs(est.alpha_hat) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_index_synthetic_powers(alpha):
    est = index_estimate([(n, float(n) ** alpha) for n in range(1, 17)])
    assert abs(est.r_hat - max(1.0, alpha + 1.0)) <= 0.05


def test_index_stabilized_map_is_one(catalog_entries):
    est = index_estimate(catalog_entries["transpose_M2"].map)
    assert est.r_hat == 1.0
    assert est.alpha_hat == 0.0
    assert est.residual == 0.0
    assert est.fit_window == (2, 2)


def test_index_of_a_map_builds_no_table(catalog_entries, monkeypatch):
    # The index of a map is fixed by its stabilization: no ascent runs.
    def no_ascent(*args, **kwargs):
        raise AssertionError("index_estimate ran the ascent")

    monkeypatch.setattr(maps, "maximize_amplified_norm", no_ascent)
    phi = catalog_entries["transpose_M3"].map
    est = index_estimate(phi)
    assert (est.r_hat, est.alpha_hat, est.fit_window, est.residual) == (1.0, 0.0, (3, 3), 0.0)


def test_index_zero_map(catalog_entries):
    est = index_estimate(catalog_entries["zero_M2"].map)
    assert est.r_hat == 1.0
    assert est.fit_window == (1, 1)


def test_index_needs_three_points():
    with pytest.raises(InsufficientData):
        index_estimate([(1, 1.0), (2, 2.0)])


def test_index_window_of_one_distinct_level_is_insufficient():
    # The upper half of these points is level 2 three times: a fit through it
    # is singular (numpy's RankWarning), not a slope.
    with pytest.raises(InsufficientData, match="one distinct level"):
        index_estimate([(1, 1.0), (2, 2.0), (2, 3.0), (2, 4.0)])


# ---------------------------------------------------------------------------
# inclusion_check
# ---------------------------------------------------------------------------


def test_inclusion_identity_zeta_comparison(catalog_tables, catalog_entries):
    rep = inclusion_check(
        catalog_entries["identity_M2"].map, 2.0, 3.0, catalog_tables["identity_M2"]
    )
    assert rep.passed
    # zeta(3) <= zeta(2), checked through the actual brackets.
    assert rep.result_q.bracket.hi <= rep.result_p.bracket.lo + 1e-6


def test_inclusion_transpose(catalog_tables, catalog_entries):
    rep = inclusion_check(
        catalog_entries["transpose_M2"].map, 2.5, 4.0, catalog_tables["transpose_M2"]
    )
    assert rep.passed and rep.both_tight


@pytest.mark.parametrize("scale", (1e-20, 1.0, 1e20))
def test_inclusion_flags_a_q_series_above_the_p_series_at_every_scale(
    monkeypatch, catalog_entries, scale
):
    # Negative control: the q = 3 bracket made twice the p = 2 one must fail
    # both comparisons; an absolute 1e-9 slack let it pass at scale 1e-20.
    phi = scaled_map(catalog_entries["identity_M2"].map, scale)
    table = build_level_table(phi, 2, seed=SEED)
    exact = npnorm.np_norm

    def doubled(phi, p, table):
        r = exact(phi, 2.0, table)
        b = r.bracket
        return r if p == 2.0 else replace(r, bracket=replace(b, lo=2 * b.lo, hi=2 * b.hi))

    monkeypatch.setattr(npnorm, "np_norm", doubled)
    rep = inclusion_check(phi, 2.0, 3.0, table)
    assert rep.both_tight and not rep.bracket_ok and not rep.values_ok and not rep.passed


def test_inclusion_zero(catalog_tables, catalog_entries):
    rep = inclusion_check(catalog_entries["zero_M2"].map, 1.0, 2.0, catalog_tables["zero_M2"])
    assert rep.passed


def test_a_table_of_another_map_is_rejected(catalog_tables, catalog_entries):
    # The transpose table once gave identity_M3 the series [2.6848, 2.6848]
    # at p = 2, where the truth is zeta(2) = 1.645.
    phi = catalog_entries["identity_M3"].map
    other = catalog_tables["transpose_M3"]
    with pytest.raises(SpaceMismatch, match="transpose_M3"):
        np_norm(phi, 2.0, other)
    with pytest.raises(SpaceMismatch):
        inclusion_check(phi, 2.0, 3.0, other)
    with pytest.raises(SpaceMismatch):
        np_norm(catalog_entries["zero_M2"].map, 2.0, catalog_tables["identity_M2"])
    # An equal map, built separately on separately built spaces, may use it.
    m3 = full_matrix_space(3)
    twin = make_map(m3, m3, [np.array(b) for b in m3.basis], "twin")
    assert twin.domain is not phi.domain
    r = np_norm(twin, 2.0, catalog_tables["identity_M3"])
    assert r.bracket.lo - 1e-9 <= ZETA2 <= r.bracket.hi + 1e-9


def test_inclusion_requires_ordered_exponents(catalog_tables, catalog_entries):
    with pytest.raises(ValueError):
        inclusion_check(
            catalog_entries["zero_M2"].map, 3.0, 2.0, catalog_tables["zero_M2"]
        )
