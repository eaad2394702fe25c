"""Series brackets, membership decisions, index fits, and inclusions."""

import math
import sys

import numpy as np
import pytest

from npspace import (
    InsufficientData,
    NpParameter,
    SpaceMismatch,
    build_level_table,
    full_matrix_space,
    inclusion_check,
    index_estimate,
    make_map,
    membership,
    np_norm,
    scaled_map,
    sum_map,
    zeta_bracket,
    zeta_tail,
)
from npspace.npnorm import MAX_TRUNCATION, VERDICT_MEMBER, VERDICT_NOT_MEMBER

SEED = 11


def _zeta_oracle(p, K=10**6):
    """Independent zeta bracket: partial sums plus plain integral tails."""
    partial = math.fsum(n ** (-p) for n in range(1, K + 1))
    return partial + (K + 1) ** (1 - p) / (p - 1), partial + K ** (1 - p) / (p - 1)


# Frozen expected values, computed by the oracle above (verified in-test).
ZETA2 = 1.6449340668482264  # pi^2 / 6
ZETA3 = 1.2020569031595943


# ---------------------------------------------------------------------------
# zeta_tail / zeta_bracket
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


@pytest.mark.parametrize("p", [6e102, 1e300, sys.float_info.max])
@pytest.mark.parametrize("K", [0, 1, 64])
def test_zeta_bounds_stay_finite_for_huge_p(p, K):
    # p * (p + 1) * (p + 2) overflows there, and the Euler-Maclaurin
    # correction's width came out NaN, which made every bracket NaN.
    for lo, hi in (zeta_tail(p, K), zeta_bracket(p, K)):
        assert math.isfinite(lo) and math.isfinite(hi)
        assert 0.0 <= lo <= hi
    lo, hi = zeta_bracket(p, K)
    assert lo <= 1.0 <= hi  # zeta(p) rounds to 1.0


def test_truncation_above_the_cap_is_rejected_before_any_sum():
    with pytest.raises(ValueError, match="MAX_TRUNCATION"):
        zeta_bracket(2.0, 10**8)
    lo, hi = zeta_bracket(2.0, MAX_TRUNCATION)
    assert lo <= ZETA2 <= hi


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
def test_zeta_bracket_intersects_oracle(p):
    lo, hi = zeta_bracket(p, 64)
    olo, ohi = _zeta_oracle(p)
    assert lo <= ohi and hi >= olo


def test_np_parameter_validation():
    with pytest.raises(ValueError):
        NpParameter(0.5)
    assert NpParameter(1.0).p == 1.0


@pytest.mark.parametrize("p", (math.inf, -math.inf, math.nan))
def test_np_parameter_rejects_non_finite_p(p):
    with pytest.raises(ValueError, match="p must satisfy 1 <= p < inf"):
        NpParameter(p)


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
def test_np_norm_extends_a_short_table(p, catalog_entries):
    # A table that stops below the stabilization level m = 3 is extended to
    # m, so the series is the one a table reaching m gives.
    phi = catalog_entries["transpose_M3"].map
    short = build_level_table(phi, 2, seed=SEED)
    full = build_level_table(phi, 3, seed=SEED)
    assert np_norm(phi, p, short).to_json_dict() == np_norm(phi, p, full).to_json_dict()


def test_np_norm_homogeneity(catalog_tables, catalog_entries):
    phi = catalog_entries["transpose_M2"].map
    r = np_norm(phi, 2.5, catalog_tables["transpose_M2"])
    for c in (2.5, 0.3):
        psi = scaled_map(phi, c)
        rc = np_norm(psi, 2.5, build_level_table(psi, 4, seed=SEED))
        assert abs(rc.bracket.lo - c * r.bracket.lo) <= 1e-12 * max(1.0, c * r.bracket.lo)
        assert abs(rc.bracket.hi - c * r.bracket.hi) <= 1e-12 * max(1.0, c * r.bracket.hi)


def test_np_norm_triangle_inequality(catalog_entries):
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
            assert rs.bracket.lo <= rp.bracket.hi + rq.bracket.hi + 1e-8


def test_np_norm_bounded_by_cb_times_zeta(catalog_tables, catalog_entries):
    # Stabilized series are at most the sup norm times the full zeta sum.
    from npspace import cb_norm

    for name, table in catalog_tables.items():
        phi = catalog_entries[name].map
        if phi.is_zero:
            continue
        for p in (1.5, 2.0, 3.0):
            r = np_norm(phi, p, table)
            cb_hi = cb_norm(phi, seed=SEED).hi
            zeta_hi = zeta_bracket(p, 64)[1]
            assert r.bracket.hi <= cb_hi * zeta_hi + 1e-9


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_above_two_is_by_theory(catalog_tables, catalog_entries):
    for name, table in catalog_tables.items():
        phi = catalog_entries[name].map
        if phi.is_zero:
            continue
        assert membership(phi, 2.5, table) == VERDICT_MEMBER


def test_membership_stabilized_above_one(catalog_tables, catalog_entries):
    assert membership(
        catalog_entries["transpose_M2"].map, 1.5, catalog_tables["transpose_M2"]
    ) == VERDICT_MEMBER


def test_membership_p1(catalog_tables, catalog_entries):
    assert membership(
        catalog_entries["identity_M2"].map, 1.0, catalog_tables["identity_M2"]
    ) == VERDICT_NOT_MEMBER
    assert membership(
        catalog_entries["zero_M2"].map, 1.0, catalog_tables["zero_M2"]
    ) == VERDICT_MEMBER


def test_membership_growth_certificate():
    # One stored level, no stabilization evidence, but hi(1) ~ 0.5 satisfies
    # the growth cap n^{p-1-eps} on the table.
    m2 = full_matrix_space(2)
    phi = scaled_map(make_map(m2, m2, [np.array(b) for b in m2.basis], "id"), 0.5)
    table = build_level_table(phi, 1, seed=SEED)
    assert table.stabilization_level > table.max_level
    assert membership(phi, 1.5, table) == VERDICT_MEMBER


def test_membership_with_a_short_table(catalog_entries):
    phi = catalog_entries["transpose_M3"].map
    assert membership(phi, 1.5, build_level_table(phi, 2, seed=SEED)) == VERDICT_MEMBER


def test_full_matrix_codomain_always_member_above_one(catalog_tables, catalog_entries):
    # Maps into a full matrix algebra are members for every p > 1.
    for name, table in catalog_tables.items():
        phi = catalog_entries[name].map
        if not phi.codomain.is_full_matrix_algebra:
            continue
        for p in (1.1, 1.5, 2.0, 2.5):
            assert membership(phi, p, table) == VERDICT_MEMBER


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


def test_index_stabilized_table_is_one(catalog_tables):
    est = index_estimate(catalog_tables["transpose_M2"])
    assert est.r_hat == 1.0
    assert est.alpha_hat == 0.0
    assert est.residual == 0.0


def test_index_short_table_is_one(catalog_entries):
    phi = catalog_entries["transpose_M3"].map
    est = index_estimate(build_level_table(phi, 2, seed=SEED))
    assert (est.r_hat, est.alpha_hat, est.fit_window, est.residual) == (1.0, 0.0, (3, 3), 0.0)


def test_index_zero_map(catalog_tables):
    est = index_estimate(catalog_tables["zero_M2"])
    assert est.r_hat == 1.0


def test_index_needs_three_points():
    with pytest.raises(InsufficientData):
        index_estimate([(1, 1.0), (2, 2.0)])


def test_index_fit_window_override():
    data = [(n, float(n)) for n in range(1, 17)]
    est = index_estimate(data, fit_window=(4, 12))
    assert est.fit_window == (4, 12)
    assert abs(est.r_hat - 2.0) <= 0.05


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
        membership(phi, 2.0, other)
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
