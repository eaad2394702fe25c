"""Maps: construction, amplification, and certified level-norm brackets."""

import numpy as np
import pytest

from npspace import (
    InconsistentAction,
    InvalidLevel,
    NonFiniteInput,
    OptBudget,
    SpaceElement,
    amplify,
    base_norm,
    build_level_table,
    cb_norm,
    full_matrix_space,
    get_entry,
    level_norm,
    level_norm_bracket,
    level_witness,
    list_entries,
    make_map,
    make_space,
    map_from_dict,
    map_to_dict,
    pad_to,
    random_element,
    random_subspace,
    realize,
    realize_amplified,
    scaled_map,
)
from npspace.bracket import (
    SOURCE_CB_CAP,
    SOURCE_COEFF_RELAXATION,
    SOURCE_MONOTONICITY,
    SOURCE_N_TIMES_NORM,
    SOURCE_OPTIMIZER,
    SOURCE_SMITH,
    SOURCE_TRIVIAL_ZERO,
    NormBracket,
)
from npspace.maps import (
    _CERT_SLACK,
    LevelEntry,
    LinearMapRep,
    _reconcile,
    _zero_entry,
    coefficient_relaxation_bound,
    witness_to_dict,
)
from npspace import maps
from npspace.optimize import DEFAULT_BUDGET, maximize_amplified_norm

SEED = 11

M2 = full_matrix_space(2)
M3 = full_matrix_space(3)
M1 = full_matrix_space(1, "M1")


def _identity(sp):
    return make_map(sp, sp, [np.array(b) for b in sp.basis], f"id_{sp.label}")


def _transpose(sp):
    return make_map(sp, sp, [np.array(b).T for b in sp.basis], f"t_{sp.label}")


def _trace():
    return make_map(M2, M1, [np.array([[np.trace(np.array(b))]]) for b in M2.basis], "tr")


def _zero():
    return make_map(M2, M2, [np.zeros((2, 2))] * 4, "zero")


# ---------------------------------------------------------------------------
# make_map
# ---------------------------------------------------------------------------


def test_make_map_identity_has_identity_coeff():
    phi = _identity(M2)
    assert np.allclose(phi.coeff, np.eye(4))


def test_make_map_transpose_is_permutation():
    phi = _transpose(M2)
    perm = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.allclose(phi.coeff, perm)


def test_make_map_trace_functional_coeff():
    phi = _trace()
    assert np.allclose(phi.coeff, np.array([[1.0, 0.0, 0.0, 1.0]]))


def test_make_map_accepts_coordinate_vectors():
    phi = make_map(M2, M1, [np.array([1.0]), np.array([0.0]), np.array([0.0]), np.array([1.0])])
    assert np.allclose(phi.coeff, np.array([[1.0, 0.0, 0.0, 1.0]]))


def test_make_map_rejects_matrix_outside_codomain_span():
    units = [np.array(b) for b in M2.basis]
    diag_space = make_space(2, [units[0], units[3]], "diag")
    with pytest.raises(InconsistentAction):
        make_map(M2, diag_space, [units[0], units[1], units[2], units[3]])


def test_make_map_rejects_inf_coefficient():
    action = [np.zeros(4, dtype=complex) for _ in range(4)]
    action[2][1] = np.inf
    with pytest.raises(NonFiniteInput, match=r"coefficients of map 'phi': entry \(1, 2\) is \(inf"):
        make_map(M2, M2, action)


def test_make_map_rejects_wrong_action_count():
    from npspace import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        make_map(M2, M2, [np.eye(2)] * 3)


# ---------------------------------------------------------------------------
# amplify
# ---------------------------------------------------------------------------


def test_amplify_identity_is_identity(rng):
    phi = _identity(M2)
    x = random_element(M2, 3, rng)
    assert np.allclose(amplify(phi, x).coords, x.coords)


def test_amplify_transpose_acts_entrywise():
    # Entry (i, j) gets transposed; its block position does not move.
    phi = _transpose(M2)
    units = [np.array(b) for b in M2.basis]
    coords = np.zeros((2, 2, 4), dtype=complex)
    coords[0, 1, 1] = 1.0  # entry (0,1) holds E12
    x = M2.element(2, coords)
    out = amplify(phi, x)
    want = np.zeros((2, 2, 4), dtype=complex)
    want[0, 1, 2] = 1.0  # E12 transposed is E21, same block position
    assert np.allclose(out.coords, want)
    # And the realized matrices agree with blockwise matrix-level action.
    big = realize(x)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            expected[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = big[
                2 * i : 2 * i + 2, 2 * j : 2 * j + 2
            ].T
    assert np.abs(realize(out) - expected).max() <= 1e-12


def test_amplify_is_linear(rng):
    phi = _transpose(M2)
    x = random_element(M2, 2, rng)
    y = random_element(M2, 2, rng)
    a, b = 1.5 - 2j, 0.25j
    combo = M2.element(2, a * x.coords + b * y.coords)
    want = a * amplify(phi, x).coords + b * amplify(phi, y).coords
    assert np.allclose(amplify(phi, combo).coords, want)


def test_amplify_realization_matches_blockwise_action(rng):
    phi = _transpose(M3)
    x = random_element(M3, 2, rng)
    got = realize_amplified(phi, x)
    big = realize(x)
    expected = np.zeros_like(big)
    for i in range(2):
        for j in range(2):
            expected[3 * i : 3 * i + 3, 3 * j : 3 * j + 3] = big[
                3 * i : 3 * i + 3, 3 * j : 3 * j + 3
            ].T
    scale = max(1.0, np.abs(expected).max())
    assert np.abs(got - expected).max() <= 1e-12 * scale


def test_amplify_rejects_wrong_space(rng):
    from npspace import SpaceMismatch

    phi = _identity(M2)
    x = random_element(M3, 1, rng)
    with pytest.raises(SpaceMismatch):
        amplify(phi, x)


# ---------------------------------------------------------------------------
# base_norm
# ---------------------------------------------------------------------------


def test_base_norm_zero_map():
    bracket = base_norm(_zero())
    assert bracket.lo == bracket.hi == 0.0
    assert bracket.lo_source == "trivial_zero"


def test_base_norm_identity_is_one():
    bracket = base_norm(_identity(M2), seed=SEED)
    assert abs(bracket.lo - 1.0) <= 1e-9
    assert abs(bracket.hi - 1.0) <= 1e-9


def test_base_norm_transpose_is_one(rng):
    # Independent oracle: transpose preserves singular values, so random
    # unit matrices can approach but never exceed 1.
    phi = _transpose(M2)
    best = 0.0
    for _ in range(200):
        x = random_element(M2, 1, rng, unit=True)
        best = max(best, np.linalg.norm(realize_amplified(phi, x), 2))
    assert best <= 1.0 + 1e-12
    bracket = base_norm(phi, seed=SEED)
    assert abs(bracket.lo - 1.0) <= 1e-8
    assert abs(bracket.hi - 1.0) <= 1e-8
    assert bracket.lo >= best - 1e-9


def test_base_norm_full_domain_full_codomain_is_tight(rng):
    # Full matrix domain and codomain: both sides must agree to 1e-8.
    coeff = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    phi = make_map(M2, M2, [c for c in _coeff_to_action(coeff)], "random")
    bracket = base_norm(phi, seed=SEED)
    assert bracket.hi - bracket.lo <= 1e-8 * max(1.0, bracket.hi)


def _coeff_to_action(coeff):
    stack = np.stack([np.array(b) for b in M2.basis])
    return [np.einsum("s,sab->ab", coeff[:, t], stack) for t in range(4)]


# ---------------------------------------------------------------------------
# level_norm_bracket
# ---------------------------------------------------------------------------


def test_level_bracket_transpose_levels():
    phi = _transpose(M2)
    b1 = level_norm_bracket(phi, 1, seed=SEED)
    b2 = level_norm_bracket(phi, 2, seed=SEED)
    assert abs(b1.lo - 1.0) <= 1e-6 and abs(b1.hi - 1.0) <= 1e-6
    assert abs(b2.lo - 2.0) <= 1e-6 and abs(b2.hi - 2.0) <= 1e-6


def test_level_bracket_respects_linear_growth_cap(rng):
    coeff = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    phi = make_map(M2, M2, _coeff_to_action(coeff), "random")
    base = base_norm(phi, seed=SEED)
    for n in (2, 3):
        b = level_norm_bracket(phi, n, seed=SEED)
        assert b.hi <= n * base.hi * (1 + 1e-12)
        assert b.lo <= n * base.hi + 1e-9


def test_level_bracket_invalid_level():
    with pytest.raises(InvalidLevel):
        level_norm_bracket(_identity(M2), 0)


def test_exhausted_budget_widens_but_stays_valid():
    # Budget exhaustion is not an error; the bracket just gets wider.
    phi = _transpose(M2)
    tight = level_norm_bracket(phi, 2, seed=SEED)
    rough = level_norm_bracket(phi, 2, OptBudget(restarts=1, max_iter=2), seed=SEED)
    assert 0.0 <= rough.lo <= rough.hi
    assert rough.lo <= 2.0 + 1e-9  # still a lower bound for the true value
    assert rough.hi >= 2.0 - 1e-9  # still an upper bound
    assert rough.hi - rough.lo >= tight.hi - tight.lo


def test_witness_is_recheckable():
    phi = _transpose(M2)
    for n in (1, 2, 3):
        bracket = level_norm_bracket(phi, n, seed=SEED)
        x = level_witness(phi, n, seed=SEED)
        assert level_norm(x) <= 1.0 + 1e-10
        achieved = np.linalg.norm(realize_amplified(phi, x), 2)
        assert achieved >= bracket.lo - 1e-10


def test_table_witnesses_sound_after_propagation(catalog_tables, catalog_entries):
    # Every propagated lower bound must still be backed by its stored witness.
    for name, table in catalog_tables.items():
        phi = catalog_entries[name].map
        for entry in table.entries:
            x = phi.domain.element(entry.level, entry.witness)
            assert level_norm(x) <= 1.0 + 1e-10
            achieved = np.linalg.norm(realize_amplified(phi, x), 2)
            assert achieved >= entry.bracket.lo - 1e-10


def test_scaling_both_bounds(rng):
    phi = _transpose(M2)
    for c in (2.5, 0.3):
        psi = scaled_map(phi, c)
        for n in (1, 2):
            b = level_norm_bracket(phi, n, seed=SEED)
            bc = level_norm_bracket(psi, n, seed=SEED)
            assert abs(bc.lo - c * b.lo) <= 1e-12 * max(1.0, c * b.lo)
            assert abs(bc.hi - c * b.hi) <= 1e-12 * max(1.0, c * b.hi)


# ---------------------------------------------------------------------------
# cb_norm
# ---------------------------------------------------------------------------


def test_cb_norm_identity():
    b = cb_norm(_identity(M2), seed=SEED)
    assert abs(b.lo - 1.0) <= 1e-9 and abs(b.hi - 1.0) <= 1e-9


def test_cb_norm_transpose_equals_ambient_dim():
    b = cb_norm(_transpose(M2), seed=SEED)
    assert abs(b.lo - 2.0) <= 1e-6 and abs(b.hi - 2.0) <= 1e-6


def test_cb_norm_functional_equals_base_norm():
    phi = _trace()
    cb = cb_norm(phi, seed=SEED)
    base = base_norm(phi, seed=SEED)
    assert abs(cb.lo - base.lo) <= 1e-12
    assert abs(cb.hi - base.hi) <= 1e-12
    assert abs(cb.lo - 2.0) <= 1e-8  # trace functional attains |tr I| = 2


def test_cb_norm_proper_subspace_codomain():
    units = [np.array(b) for b in M2.basis]
    diag_space = make_space(2, [units[0], units[3]], "diag")
    phi = make_map(M2, diag_space, [units[0], np.zeros((2, 2)), np.zeros((2, 2)), units[3]])
    b = cb_norm(phi, seed=SEED)
    # Conditional expectation onto the diagonal is completely contractive.
    assert abs(b.lo - 1.0) <= 1e-8
    assert b.hi <= 1.0 + 1e-8


# ---------------------------------------------------------------------------
# build_level_table
# ---------------------------------------------------------------------------


def test_table_identity_m3_all_one():
    table = build_level_table(_identity(M3), 4, seed=SEED)
    for e in table.entries:
        assert abs(e.bracket.lo - 1.0) <= 1e-9
        assert abs(e.bracket.hi - 1.0) <= 1e-9


def test_table_transpose_m2_expected_rows():
    table = build_level_table(_transpose(M2), 4, seed=SEED)
    want = [1.0, 2.0, 2.0, 2.0]
    for e, w in zip(table.entries, want):
        assert abs(e.bracket.lo - w) <= 1e-6
        assert abs(e.bracket.hi - w) <= 1e-6
    assert table.stabilization_level == 2


def test_table_zero_map():
    table = build_level_table(_zero(), 4)
    assert table.stabilization_level == 1
    for e in table.entries:
        assert e.bracket.lo == e.bracket.hi == 0.0


def test_table_lo_nondecreasing_hi_capped(catalog_tables):
    for table in catalog_tables.values():
        los = [e.bracket.lo for e in table.entries]
        his = [e.bracket.hi for e in table.entries]
        assert all(a <= b for a, b in zip(los, los[1:]))
        assert all(a <= b for a, b in zip(his, his[1:]))
        assert all(h <= (i + 1) * his[0] * (1 + 1e-12) for i, h in enumerate(his))


def test_table_smith_group_shares_bracket(catalog_tables):
    for table in catalog_tables.values():
        s = table.stabilization_level
        if s > table.max_level:
            continue
        ref = table.entries[s - 1].bracket
        for e in table.entries[s - 1 :]:
            assert abs(e.bracket.lo - ref.lo) <= 1e-9
            assert abs(e.bracket.hi - ref.hi) <= 1e-9


def test_table_serves_levels_beyond_storage():
    table = build_level_table(_transpose(M2), 4, seed=SEED)
    b = table.bracket_at(50)
    assert abs(b.lo - 2.0) <= 1e-6 and abs(b.hi - 2.0) <= 1e-6


def test_levels_above_the_table_name_smith_stabilization():
    # A level above the table reads the stabilized row with the sources a
    # longer table gives it, not level m's own.
    phi = get_entry("transpose_M2").map
    want = build_level_table(phi, 4, seed=SEED).entries[2].bracket
    assert want.lo_source == want.hi_source == SOURCE_SMITH
    assert level_norm_bracket(phi, 3, seed=SEED) == want
    assert build_level_table(phi, 2, seed=SEED).bracket_at(9) == want
    zero = build_level_table(_zero(), 2, seed=SEED).bracket_at(9)
    assert (zero.lo_source, zero.hi_source) == ("trivial_zero", "trivial_zero")


def test_witnessed_lo_is_a_lower_bound_under_rounding():
    # ||phi_1|| = 1 exactly for the transpose on M3; the re-checked SVD
    # value once rounded up to 1.0000000000000004 at this seed.
    table = build_level_table(get_entry("transpose_M3").map, 4, seed=SEED)
    assert table.entries[0].bracket.lo <= 1.0
    assert 1.0 - table.entries[0].bracket.lo <= 1e-13


def test_table_insufficient_coverage():
    from npspace import InsufficientTable

    table = build_level_table(_transpose(M3), 2, seed=SEED)
    with pytest.raises(InsufficientTable):
        table.bracket_at(5)


def test_subspace_domain_inclusion_is_complete_isometry():
    units = [np.array(b) for b in M2.basis]
    upper = make_space(2, [units[0], units[1], units[3]], "UT2")
    incl = make_map(upper, M2, [units[0], units[1], units[3]], "incl")
    table = build_level_table(incl, 3, seed=SEED)
    for e in table.entries:
        assert abs(e.bracket.lo - 1.0) <= 1e-8
        assert e.bracket.hi >= 1.0 - 1e-12  # upper bound stays valid


def _reference_raw_entry(phi, n, budget, seed, cache):
    """Reference per-level bracket with its own n * hi(1) candidate."""
    key = ("raw", n)
    if key in cache:
        return cache[key]
    if phi.is_zero:
        cache[key] = _zero_entry(phi, n)
        return cache[key]
    outcome = maximize_amplified_norm(phi.domain, phi.images(), n, budget, seed)
    lo = outcome.value
    candidates = []
    if phi.domain.is_full_matrix_algebra and outcome.converged:
        candidates.append((lo * (1.0 + _CERT_SLACK), SOURCE_OPTIMIZER))
    if n > 1:
        base = _reference_raw_entry(phi, 1, budget, seed, cache).bracket
        candidates.append((n * base.hi, SOURCE_N_TIMES_NORM))
    candidates.append((coefficient_relaxation_bound(phi, n), SOURCE_COEFF_RELAXATION))
    hi, hi_src = min(candidates, key=lambda c: c[0])
    lo, hi = _reconcile(lo, hi, phi, n)
    cache[key] = LevelEntry(n, NormBracket(lo, hi, SOURCE_OPTIMIZER, hi_src), outcome.coords)
    return cache[key]


def _reference_level_entry(phi, n, budget, seed, cache):
    """Reference reader: raw up to m, a Smith-tagged copy of level m above."""
    if phi.is_zero:
        return _zero_entry(phi, n)
    m = phi.codomain.ambient_dim
    if n <= m:
        return _reference_raw_entry(phi, n, budget, seed, cache)
    at_m = _reference_raw_entry(phi, m, budget, seed, cache)
    bracket = NormBracket(at_m.bracket.lo, at_m.bracket.hi, SOURCE_SMITH, SOURCE_SMITH)
    witness = pad_to(SpaceElement(phi.domain, m, at_m.witness), n).coords
    return LevelEntry(n, bracket, witness)


def _reference_table_rows(phi, max_level, budget, seed, cache):
    """Reference table: every rule re-applied for up to four rounds."""
    if phi.is_zero:
        return [_zero_entry(phi, n) for n in range(1, max_level + 1)]
    raw = [_reference_level_entry(phi, n, budget, seed, cache) for n in range(1, max_level + 1)]
    los = [e.bracket.lo for e in raw]
    his = [e.bracket.hi for e in raw]
    lo_srcs = [e.bracket.lo_source for e in raw]
    hi_srcs = [e.bracket.hi_source for e in raw]
    witnesses = [e.witness for e in raw]
    m = phi.codomain.ambient_dim
    for _ in range(4):
        changed = False
        for i in range(1, max_level):
            if los[i - 1] > los[i]:
                los[i] = los[i - 1]
                lo_srcs[i] = SOURCE_MONOTONICITY
                witnesses[i] = pad_to(SpaceElement(phi.domain, i, witnesses[i - 1]), i + 1).coords
                changed = True
        for i in range(max_level - 2, -1, -1):
            if his[i + 1] < his[i]:
                his[i] = his[i + 1]
                hi_srcs[i] = SOURCE_CB_CAP if i + 2 >= m else SOURCE_MONOTONICITY
                changed = True
        for i in range(1, max_level):
            cap = (i + 1) * his[0]
            if cap < his[i]:
                his[i] = cap
                hi_srcs[i] = SOURCE_N_TIMES_NORM
                changed = True
        if m <= max_level:
            group = range(m - 1, max_level)
            glo = max(los[i] for i in group)
            ghi = min(his[i] for i in group)
            for i in group:
                if los[i] != glo or his[i] != ghi:
                    if los[i] != glo:
                        lo_srcs[i] = SOURCE_SMITH
                    if his[i] != ghi:
                        hi_srcs[i] = SOURCE_SMITH
                    los[i], his[i] = glo, ghi
                    changed = True
        if not changed:
            break
    rows = []
    for i in range(max_level):
        lo, hi = _reconcile(los[i], his[i], phi, i + 1)
        rows.append(LevelEntry(i + 1, NormBracket(lo, hi, lo_srcs[i], hi_srcs[i]), witnesses[i]))
    return rows


def _row_bits(entry):
    b = entry.bracket
    return (entry.level, b.lo.hex(), b.hi.hex(), b.lo_source, b.hi_source, entry.witness.tobytes())


def _random_map(d, m, dom_dim, cod_dim, seed):
    rng = np.random.default_rng([20261018, d, m, dom_dim or 0, cod_dim or 0, seed])
    dom = random_subspace(d, dom_dim, rng, "V") if dom_dim else full_matrix_space(d)
    cod = random_subspace(m, cod_dim, rng, "W") if cod_dim else full_matrix_space(m)
    coeff = rng.standard_normal((cod.dim, dom.dim)) + 1j * rng.standard_normal((cod.dim, dom.dim))
    return LinearMapRep(dom, cod, coeff, f"rand_{d}_{m}_{dom_dim}_{cod_dim}_s{seed}")


# (d, m, domain dim, codomain dim); None is the full matrix algebra.
RANDOM_SPECS = (
    (1, 2, None, None), (1, 3, None, None), (2, 1, None, None), (2, 2, None, None),
    (2, 3, None, None), (3, 2, None, None), (3, 3, None, None), (2, 1, 2, None),
    (2, 2, 3, None), (2, 3, 2, None), (3, 1, 4, None), (3, 2, 5, None),
    (3, 3, 4, None), (2, 2, 3, 3), (3, 3, None, 5),
)
TABLE_BUDGETS = (OptBudget(20, 200, 1e-11), OptBudget(1, 200, 1e-11), OptBudget(3, 4, 1e-11),
                 OptBudget(1, 2, 1e-11), OptBudget(5, 3, 1e-6))


def test_table_is_the_four_round_propagation_bitwise():
    # One pass over per-level ascent brackets must give, bit for bit, what
    # per-level brackets carrying their own n * hi(1) candidate, Smith-tagged
    # copies above m and four rounds of every rule gave.  The short budgets
    # leave the per-level brackets out of order, so every rule fires.  A row
    # above m is row m under the name smith_stabilization on both sides, also
    # where the reference names monotonicity for a lo it raised.
    maps = [e.map for e in list_entries()]
    maps += [_random_map(*spec, seed) for seed, spec in enumerate(RANDOM_SPECS)]
    fired = set()
    for phi, budget, seed in (
        (phi, budget, seed) for phi in maps for budget in TABLE_BUDGETS for seed in (0, 7)
    ):
        cache = {}
        for max_level in (1, 2, 3, 5):
            ref = _reference_table_rows(phi, max_level, budget, seed, cache)
            table = build_level_table(phi, max_level, budget, seed)
            where = (phi.label, budget, seed, max_level)
            want = [_row_bits(e) for e in ref]
            above = SOURCE_TRIVIAL_ZERO if phi.is_zero else SOURCE_SMITH
            m = phi.codomain.ambient_dim
            want[m:] = [(n, lo, hi, above, above, w) for n, lo, hi, _, _, w in want[m:]]
            assert [_row_bits(e) for e in table.entries] == want, where
            fired.update((e.bracket.lo_source, e.bracket.hi_source) for e in ref)
    lo_fired = {lo for lo, _ in fired}
    hi_fired = {hi for _, hi in fired}
    assert SOURCE_MONOTONICITY in lo_fired
    assert {SOURCE_CB_CAP, SOURCE_MONOTONICITY, SOURCE_N_TIMES_NORM, SOURCE_SMITH} <= hi_fired


def _synthetic_ascent(monkeypatch, rows):
    """Start build_level_table from the given (lo, hi, hi_source) at each level n <= m.

    Each level's witness is filled with n, so a padded one shows where it came from.
    """

    def entry(phi, n, budget, seed):
        lo, hi, hi_src = rows[n - 1]
        witness = np.full((n, n, phi.domain.dim), n, dtype=complex)
        return LevelEntry(n, NormBracket(lo, hi, SOURCE_OPTIMIZER, hi_src), witness)

    monkeypatch.setattr(maps, "_ascent_entry", entry)


OPT, COEFF = SOURCE_OPTIMIZER, SOURCE_COEFF_RELAXATION
MONO, CB, NX, SMITH = SOURCE_MONOTONICITY, SOURCE_CB_CAP, SOURCE_N_TIMES_NORM, SOURCE_SMITH


@pytest.mark.parametrize(
    "rows, want_his",
    [
        # hi_2 = 5 > 2 hi_1: the cap binds by a margin, and level m's hi goes above m.
        ([(0.5, 1.0, OPT), (0.9, 5.0, COEFF), (1.0, 6.0, COEFF)],
         [(1.0, OPT), (2.0, NX), (3.0, NX), (3.0, SMITH), (3.0, SMITH)]),
        # hi_3 = 2 caps level 2 from level m (cb_cap) and level 1 below it (monotonicity).
        ([(0.5, 4.0, COEFF), (0.6, 4.0, COEFF), (0.7, 2.0, OPT)],
         [(2.0, MONO), (2.0, CB), (2.0, OPT), (2.0, SMITH), (2.0, SMITH)]),
    ],
    ids=("n_times_norm_bound", "cb_cap_and_monotonicity"),
)
def test_hi_rules_fire_by_a_margin(rows, want_his, monkeypatch):
    _synthetic_ascent(monkeypatch, rows)
    table = build_level_table(get_entry("transpose_M3").map, 5)
    assert [(e.bracket.hi, e.bracket.hi_source) for e in table.entries] == want_his


def test_lo_rises_by_a_margin_with_the_witness_padded(monkeypatch):
    _synthetic_ascent(monkeypatch, [(1.5, 2.0, COEFF), (1.0, 4.0, COEFF), (1.2, 6.0, COEFF)])
    phi = get_entry("transpose_M3").map
    table = build_level_table(phi, 4)
    los = [(e.bracket.lo, e.bracket.lo_source) for e in table.entries]
    assert los == [(1.5, OPT), (1.5, MONO), (1.5, MONO), (1.5, SMITH)]
    first = SpaceElement(phi.domain, 1, table.entries[0].witness)
    for e in table.entries:
        assert e.witness.tobytes() == pad_to(first, e.level).coords.tobytes(), e.level
    his = [(e.bracket.hi, e.bracket.hi_source) for e in table.entries]
    assert his == [(2.0, COEFF), (4.0, COEFF), (6.0, COEFF), (6.0, SMITH)]


CONSISTENCY_MAPS = [
    _random_map(d, m, None, None, seed)
    for d in (2, 3) for m in (2, 3) for seed in range(100, 105)
]


@pytest.mark.parametrize("phi", CONSISTENCY_MAPS, ids=lambda phi: phi.label)
def test_level_readers_match_the_table_row(phi):
    budget = OptBudget(restarts=1)
    m = phi.codomain.ambient_dim
    for n in (1, 2, 3):
        table = build_level_table(phi, min(n, m), budget, seed=SEED)
        assert level_norm_bracket(phi, n, budget, seed=SEED) == table.bracket_at(n), n
        row = table.entries[-1]
        want = pad_to(SpaceElement(phi.domain, row.level, row.witness), n)
        got = level_witness(phi, n, budget, seed=SEED)
        assert (got.level, got.coords.tobytes()) == (n, want.coords.tobytes()), n
    row1 = build_level_table(phi, 1, budget, SEED).entries[0]
    assert base_norm(phi, budget, seed=SEED) == row1.bracket
    at_m = build_level_table(phi, m, budget, SEED).entries[-1].bracket
    cb = cb_norm(phi, budget, seed=SEED)
    assert cb == NormBracket(at_m.lo, at_m.hi, SOURCE_SMITH, SOURCE_SMITH)


@pytest.mark.parametrize("budget", (DEFAULT_BUDGET, OptBudget(restarts=1)), ids=("default", "r1"))
def test_rows_above_s_agree_with_every_reader(budget):
    # A row above the stabilization level s is what every reader of level
    # n > s says: the stable bracket, named smith_stabilization on both sides
    # (trivial_zero for a zero map), with row s's witness padded.
    for entry in list_entries():
        phi = entry.map
        for seed in range(10):
            s = build_level_table(phi, 1, budget, seed).stabilization_level
            short = build_level_table(phi, s, budget, seed)
            at_s = SpaceElement(phi.domain, s, short.entries[-1].witness)
            name = SOURCE_TRIVIAL_ZERO if phi.is_zero else SOURCE_SMITH
            for e in build_level_table(phi, s + 2, budget, seed).entries[s:]:
                n, where = e.level, (entry.name, seed, e.level)
                assert e.bracket.lo_source == e.bracket.hi_source == name, where
                assert e.bracket == short.bracket_at(n), where
                assert e.bracket == level_norm_bracket(phi, n, budget, seed), where
                if n == s + 1:
                    assert e.bracket == cb_norm(phi, budget, seed), where
                assert e.witness.tobytes() == pad_to(at_s, n).coords.tobytes(), where


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def test_map_json_round_trip():
    phi = _transpose(M2)
    back = map_from_dict(map_to_dict(phi))
    assert np.allclose(back.coeff, phi.coeff)
    assert back.label == phi.label


def _old_pairs(a):
    # The per-element encoder the JSON writers used before spaces.to_pairs.
    return [float(a.real), float(a.imag)] if np.ndim(a) == 0 else [_old_pairs(b) for b in a]


def _old_space_dict(sp):
    return {"label": sp.label, "ambient_dim": sp.ambient_dim,
            "basis": [_old_pairs(b) for b in sp.basis]}


def test_map_and_witness_dumps_match_the_per_element_encoder():
    import json

    for phi in [e.map for e in list_entries()] + [_random_map(3, 2, 5, None, 0)]:
        old = {
            "label": phi.label,
            "domain": _old_space_dict(phi.domain),
            "codomain": _old_space_dict(phi.codomain),
            "action": [_old_pairs(phi.coeff[:, t]) for t in range(phi.domain.dim)],
        }
        assert json.dumps(map_to_dict(phi), indent=2) == json.dumps(old, indent=2), phi.label
    table = build_level_table(_random_map(2, 2, 3, None, 0), 3, OptBudget(2, 20), seed=SEED)
    for e in table.entries:
        old = {"level": e.level, "achieved": e.bracket.lo, "coords": _old_pairs(e.witness)}
        assert json.dumps(witness_to_dict(e), sort_keys=True) == json.dumps(old, sort_keys=True)
    bare = LevelEntry(1, table.entries[0].bracket, None)
    assert witness_to_dict(bare)["coords"] is None


def test_map_json_names_a_malformed_action_entry():
    spec = map_to_dict(_transpose(M2))
    spec["action"][2] = spec["action"][2][:3]
    with pytest.raises(ValueError, match=r"action\[2\] has shape \(3, 2\), expected \(4, 2\)"):
        map_from_dict(spec)
    spec["action"][2] = [[1.0, 0.0], [0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match=r"action\[2\] is not an array of \[re, im\] pairs"):
        map_from_dict(spec)
    spec = map_to_dict(_transpose(M2))
    spec["codomain"]["basis"][1] = spec["codomain"]["basis"][1][:1]
    with pytest.raises(ValueError, match=r"basis\[1\] has shape \(1, 2, 2\)"):
        map_from_dict(spec)


def test_witness_dump_shape():
    table = build_level_table(_transpose(M2), 2, seed=SEED)
    dump = witness_to_dict(table.entries[1])
    assert dump["level"] == 2
    assert abs(dump["achieved"] - 2.0) <= 1e-6
    coords = np.asarray(dump["coords"], dtype=float)
    assert coords.shape == (2, 2, 4, 2)
