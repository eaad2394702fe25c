"""Maps: construction, amplification, and certified level-norm brackets."""

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from npspace import (
    InconsistentAction,
    InvalidLevel,
    InvariantViolation,
    NonFiniteInput,
    OptBudget,
    ScaleOutOfRange,
    SpaceElement,
    amplify,
    brute_search,
    build_level_table,
    cross_validate,
    full_matrix_space,
    get_entry,
    inclusion_check,
    level_norm,
    list_entries,
    make_map,
    make_space,
    map_from_dict,
    map_to_dict,
    np_norm,
    pad_to,
    random_element,
    random_subspace,
    realize,
    save_space,
    scaled_map,
)
from npspace.bracket import (
    SOURCE_COEFF_RELAXATION,
    SOURCE_HAAGERUP,
    SOURCE_MONOTONICITY,
    SOURCE_N_TIMES_NORM,
    SOURCE_OPTIMIZER,
    SOURCE_SMITH,
    SOURCE_TRIVIAL_ZERO,
    NormBracket,
    within,
)
from npspace.maps import (
    LevelEntry,
    LevelNormTable,
    LinearMapRep,
    _reconcile,
    _zero_entry,
    coefficient_relaxation_bound,
    haagerup_bounds,
    witness_to_dict,
)
from npspace import maps, npnorm, optimize
from npspace.optimize import DEFAULT_BUDGET, AscentOutcome, maximize_amplified_norm
from npspace.spaces import MAX_ENTRY_EXP, spectral_norm

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


@pytest.mark.parametrize("scale", (1e-20, 1.0, 1e20))
def test_make_map_rejects_a_matrix_outside_the_span_at_every_scale(scale):
    # Half of the action lies off the diagonal; a misfit floored at 1 let it pass at 1e-20.
    units = [np.array(b) for b in M2.basis]
    diag_space = make_space(2, [units[0], units[3]], "diag")
    zero = np.zeros((2, 2))
    with pytest.raises(InconsistentAction, match=r"action\[0\]"):
        make_map(M2, diag_space, [scale * np.array([[1.0, 1.0], [0.0, 0.0]]), zero, zero, zero])


def test_make_map_rejects_inf_coefficient():
    action = [np.zeros(4, dtype=complex) for _ in range(4)]
    action[2][1] = np.inf
    with pytest.raises(NonFiniteInput, match=r"coefficients of map 'phi': entry \(1, 2\) is \(inf"):
        make_map(M2, M2, action)


@pytest.mark.parametrize("name", ("transpose_M3", "trace_M2", "zero_M2", "sub3_of_M2"))
def test_map_constants_are_read_only_and_their_formulas_bitwise(name):
    phi = _scale_map(name)
    pinv, images = phi.domain._vec_pinv, phi.images()
    units = (pinv.T @ images.reshape(phi.domain.dim, -1)).reshape(-1, *images.shape[1:])
    assert phi.is_zero == (not np.any(phi.coeff))
    assert phi._coeff_norm == spectral_norm(phi.coeff)
    assert phi._unit_images.tobytes() == units.tobytes()
    assert phi.unit_images() is phi._unit_images and phi.images() is phi._images
    for arr in (phi.coeff, phi._images, phi._unit_images):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_a_catalog_table_takes_no_svd_of_the_coefficients(monkeypatch):
    # The coefficient relaxation reads the norm its map keeps: no level takes it again.
    seen = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        seen.append(a)
        return svd(a, *args, **kwargs)

    entries = [e for e in list_entries() if not e.map.is_zero]
    monkeypatch.setattr(np.linalg, "svd", recording)
    for entry in entries:
        seen.clear()
        build_level_table(entry.map, entry.map.stabilization_level + 1)
        assert seen, entry.name
        assert not any(np.shares_memory(a, entry.map.coeff) for a in seen), entry.name


def _rescaled(phi, image_exp, basis_exp):
    """phi with its largest image entry 2**image_exp and its domain's largest basis
    entry 2**basis_exp, and the factor its level norms scale by."""
    stack, images = phi.domain._stack, phi.images()
    top_basis, top_image = np.abs(stack).max(), np.abs(images).max()
    dom = make_space(phi.domain.ambient_dim, list(stack / top_basis * 2.0**basis_exp), "V")
    scaled = make_map(dom, phi.codomain, list(images / top_image * 2.0**image_exp), phi.label)
    return scaled, 2.0 ** (image_exp - basis_exp) * top_basis / top_image


SCALE_MAPS = ("transpose_M3", "rank_one_M2", "trace_M2", "sub3_of_M2")


def _scale_map(name):
    if name != "sub3_of_M2":
        return get_entry(name).map
    rng = np.random.default_rng(20261020)
    V = random_subspace(2, 3, rng, "V")
    return make_map(V, M2, list(rng.standard_normal((3, 2, 2))), name)


@pytest.mark.parametrize("name", SCALE_MAPS)
@pytest.mark.parametrize("sign", (1, -1), ids=("large_images", "large_basis"))
def test_tables_build_at_the_corners_of_the_scale_range(name, sign):
    # Images 2**120 over a basis 2**-120 is scale 2**240, the largest accepted,
    # and the reverse the smallest.  Every row builds, and its bracket holds the
    # same norm as the unscaled one does.  One step further is refused.
    phi, e = _scale_map(name), maps.MAX_SCALE_EXP // 2
    table = build_level_table(phi, phi.stabilization_level)
    corner, factor = _rescaled(phi, sign * e, -sign * e)
    for got, want in zip(build_level_table(corner, phi.stabilization_level).entries, table.entries):
        lo, hi = got.bracket.lo / factor, got.bracket.hi / factor
        assert 0.0 < lo <= hi, (got.level, lo, hi)
        assert lo <= want.bracket.hi * (1 + 1e-12) and want.bracket.lo <= hi * (1 + 1e-12)
    outside = f"has scale {2.0 ** (sign * (2 * e + 1)):.3g} "
    with pytest.raises(ScaleOutOfRange, match=re.escape(outside)):
        _rescaled(phi, sign * (e + 1), -sign * e)
    with pytest.raises(ScaleOutOfRange):
        _rescaled(phi, sign * e, -sign * (e + 1))


def _top_entry_at(mats, exp):
    """mats scaled by a power of two: the largest entry in (2**(exp-1), 2**exp] for
    exp > 0, in [2**exp, 2**(exp+1)) for exp < 0."""
    m, e = np.frexp(np.abs(mats).max())
    return mats * 2.0 ** (exp - e + (exp < 0 or m == 0.5))


def _entries_at(phi, image_exp, basis_exp):
    """phi with its images' and its domain basis's largest entries near 2**image_exp and
    2**basis_exp (``_top_entry_at``), and the factor its level norms scale by."""
    stack, images = phi.domain._stack, phi.images()
    dom = make_space(phi.domain.ambient_dim, list(_top_entry_at(stack, basis_exp)), "V")
    scaled = make_map(dom, phi.codomain, list(_top_entry_at(images, image_exp)), phi.label)
    factor = np.abs(scaled.images()).max() / np.abs(images).max()
    return scaled, factor * np.abs(stack).max() / np.abs(dom._stack).max()


ENTRY_CORNERS = ((480, 480), (480, 241), (241, 480), (-480, -480), (-480, -241), (-241, -480))


@pytest.mark.parametrize("name", SCALE_MAPS)
def test_tables_build_at_the_corners_of_the_entry_range(name):
    # Largest image and basis entries within 2**±480, their scale within 2**±240:
    # every row builds and holds the unscaled norm.  One step further is refused.
    phi = _scale_map(name)
    table = build_level_table(phi, phi.stabilization_level)
    for image_exp, basis_exp in ENTRY_CORNERS:
        corner, factor = _entries_at(phi, image_exp, basis_exp)
        got = build_level_table(corner, phi.stabilization_level)
        for a, b in zip(got.entries, table.entries):
            lo, hi = a.bracket.lo / factor, a.bracket.hi / factor
            assert abs(lo - b.bracket.lo) <= 1e-12 * b.bracket.lo, (image_exp, basis_exp, a.level)
            assert abs(hi - b.bracket.hi) <= 1e-12 * b.bracket.hi, (image_exp, basis_exp, a.level)
    for sign in (1, -1):
        e = sign * MAX_ENTRY_EXP
        with pytest.raises(ScaleOutOfRange, match=r"basis of 'V': largest entry "):
            _entries_at(phi, e, e + sign)
        with pytest.raises(ScaleOutOfRange, match=f"images of map '{name}': largest entry "):
            _entries_at(phi, e + sign, e)


@pytest.mark.parametrize(
    "image_scale, basis_scale, scale", ((1e78, 1.0, "1e+78"), (1.0, 1e-80, "1e+80"))
)
def test_a_map_out_of_scale_is_refused_when_built(image_scale, basis_scale, scale):
    # Both once built, then failed deep in an SVD of the table's first ascent.
    dom = make_space(2, [np.array(b) * basis_scale for b in M2.basis], "V")
    with pytest.raises(ScaleOutOfRange, match=f"map 'big' has scale {re.escape(scale)} "):
        make_map(dom, M2, [np.array(b).T * image_scale for b in M2.basis], "big")
    with pytest.raises(ScaleOutOfRange, match=f"has scale {re.escape(scale)} "):
        scaled_map(_transpose(M2), image_scale / basis_scale)


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
    x = SpaceElement(M2, 2, coords)
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
    combo = SpaceElement(M2, 2, a * x.coords + b * y.coords)
    want = a * amplify(phi, x).coords + b * amplify(phi, y).coords
    assert np.allclose(amplify(phi, combo).coords, want)


def test_amplify_realization_matches_blockwise_action(rng):
    phi = _transpose(M3)
    x = random_element(M3, 2, rng)
    got = realize(amplify(phi, x))
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
# Level 1: the operator norm
# ---------------------------------------------------------------------------


def test_base_norm_zero_map():
    bracket = build_level_table(_zero(), 1).bracket_at(1)
    assert bracket.lo == bracket.hi == 0.0
    assert bracket.lo_source == "trivial_zero"


def test_base_norm_identity_is_one():
    bracket = build_level_table(_identity(M2), 1, seed=SEED).bracket_at(1)
    assert abs(bracket.lo - 1.0) <= 1e-9
    assert abs(bracket.hi - 1.0) <= 1e-9


def test_base_norm_transpose_is_one(rng):
    # Independent oracle: transpose preserves singular values, so random
    # matrices scaled to norm 1 can approach but never exceed 1.
    phi = _transpose(M2)
    best = 0.0
    for _ in range(200):
        x = random_element(M2, 1, rng)
        best = max(best, np.linalg.norm(realize(amplify(phi, x)), 2) / level_norm(x))
    assert best <= 1.0 + 1e-12
    bracket = build_level_table(phi, 1, seed=SEED).bracket_at(1)
    assert abs(bracket.lo - 1.0) <= 1e-8
    assert abs(bracket.hi - 1.0) <= 1e-8
    assert bracket.lo >= best - 1e-9


def test_base_norm_full_domain_full_codomain_is_certified(rng):
    # Full matrix domain and codomain: hi is Haagerup's certificate, not the
    # ascent's value, so it holds against the oracle and lies 4.4% above lo here.
    coeff = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    phi = make_map(M2, M2, [c for c in _coeff_to_action(coeff)], "random")
    bracket = build_level_table(phi, 1, seed=SEED).bracket_at(1)
    assert (bracket.hi, bracket.hi_source) == (haagerup_bounds(phi)[1], SOURCE_HAAGERUP)
    brute, _ = brute_search(phi, 1, trials=500, seed=SEED)
    assert bracket.lo >= brute * (1.0 - 1e-12) and brute <= bracket.hi
    assert bracket.hi <= 1.05 * bracket.lo


def _coeff_to_action(coeff):
    stack = np.stack([np.array(b) for b in M2.basis])
    return [np.einsum("s,sab->ab", coeff[:, t], stack) for t in range(4)]


# ---------------------------------------------------------------------------
# Level brackets
# ---------------------------------------------------------------------------


def test_within_is_one_relative_slack():
    assert within(1.0, 1.0, 0.0) and within(3e-300, 3e-300, 1e-9)
    assert within(1.0 + 5e-10, 1.0, 1e-9) and not within(1.0 + 2e-9, 1.0, 1e-9)
    assert within(-1.0 - 5e-10, -1.0, 1e-9)  # the slack is relative to |bound|
    # A zero bound has no slack, so the smallest positive value exceeds it.
    assert within(0.0, 0.0, 1e-9) and not within(5e-324, 0.0, 1e-9)
    assert within(1e300, math.inf, 1e-9) and within(math.inf, math.inf, 1e-9)
    assert not within(math.inf, 1e300, 1e-9)


def test_rel_width_is_relative_to_hi():
    assert NormBracket(0.5, 0.75, SOURCE_OPTIMIZER, SOURCE_HAAGERUP).rel_width == 1.0 / 3.0
    assert NormBracket(0.0, 0.0, SOURCE_TRIVIAL_ZERO, SOURCE_TRIVIAL_ZERO).rel_width == 0.0
    assert NormBracket(1.0, math.inf, SOURCE_OPTIMIZER, SOURCE_HAAGERUP).rel_width == math.inf


def test_level_bracket_transpose_levels():
    table = build_level_table(_transpose(M2), 2, seed=SEED)
    b1, b2 = table.bracket_at(1), table.bracket_at(2)
    assert abs(b1.lo - 1.0) <= 1e-6 and abs(b1.hi - 1.0) <= 1e-6
    assert abs(b2.lo - 2.0) <= 1e-6 and abs(b2.hi - 2.0) <= 1e-6


def test_level_bracket_respects_linear_growth_cap(rng):
    coeff = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    phi = make_map(M2, M2, _coeff_to_action(coeff), "random")
    table = build_level_table(phi, 3, seed=SEED)
    base = table.bracket_at(1)
    for n in (2, 3):
        b = table.bracket_at(n)
        assert b.hi <= n * base.hi * (1 + 1e-12)
        assert b.lo <= n * base.hi + 1e-9


def test_level_bracket_invalid_level():
    table = build_level_table(_identity(M2), 1)
    with pytest.raises(InvalidLevel):
        table.bracket_at(0)


def test_exhausted_budget_widens_but_stays_valid():
    # Budget exhaustion is not an error; the bracket just gets wider.
    phi = _transpose(M2)
    tight = build_level_table(phi, 2, seed=SEED).bracket_at(2)
    rough = build_level_table(phi, 2, OptBudget(restarts=1, max_iter=2), seed=SEED).bracket_at(2)
    assert 0.0 <= rough.lo <= rough.hi
    assert rough.lo <= 2.0 + 1e-9  # still a lower bound for the true value
    assert rough.hi >= 2.0 - 1e-9  # still an upper bound
    assert rough.hi - rough.lo >= tight.hi - tight.lo


def test_witness_is_recheckable():
    phi = _transpose(M2)
    for e in build_level_table(phi, 3, seed=SEED).entries:
        x = SpaceElement(phi.domain, e.level, e.witness)
        assert level_norm(x) <= 1.0 + 1e-10
        achieved = np.linalg.norm(realize(amplify(phi, x)), 2)
        assert achieved >= e.bracket.lo - 1e-10


def test_table_witnesses_sound_after_propagation(catalog_tables, catalog_entries):
    # Every propagated lower bound must still be backed by its stored witness.
    for name, table in catalog_tables.items():
        phi = catalog_entries[name].map
        for entry in table.entries:
            x = SpaceElement(phi.domain, entry.level, entry.witness)
            assert level_norm(x) <= 1.0 + 1e-10
            achieved = np.linalg.norm(realize(amplify(phi, x)), 2)
            assert achieved >= entry.bracket.lo - 1e-10


def test_scaling_both_bounds(rng):
    phi = _transpose(M2)
    table = build_level_table(phi, 2, seed=SEED)
    for c in (2.5, 0.3):
        scaled = build_level_table(scaled_map(phi, c), 2, seed=SEED)
        for n in (1, 2):
            b, bc = table.bracket_at(n), scaled.bracket_at(n)
            assert abs(bc.lo - c * b.lo) <= 1e-12 * max(1.0, c * b.lo)
            assert abs(bc.hi - c * b.hi) <= 1e-12 * max(1.0, c * b.hi)


# ---------------------------------------------------------------------------
# The cb norm: the rows from the stabilization level s on (s = 2 on M2)
# ---------------------------------------------------------------------------


def test_cb_norm_identity():
    b = build_level_table(_identity(M2), 3, seed=SEED).bracket_at(3)
    assert abs(b.lo - 1.0) <= 1e-9 and abs(b.hi - 1.0) <= 1e-9


def test_cb_norm_transpose_equals_ambient_dim():
    b = build_level_table(_transpose(M2), 3, seed=SEED).bracket_at(3)
    assert abs(b.lo - 2.0) <= 1e-6 and abs(b.hi - 2.0) <= 1e-6


def test_cb_norm_functional_equals_base_norm():
    phi = _trace()
    table = build_level_table(phi, 2, seed=SEED)
    cb, base = table.bracket_at(2), table.bracket_at(1)
    assert abs(cb.lo - base.lo) <= 1e-12
    assert abs(cb.hi - base.hi) <= 1e-12
    assert abs(cb.lo - 2.0) <= 1e-8  # trace functional attains |tr I| = 2


def test_cb_norm_proper_subspace_codomain():
    units = [np.array(b) for b in M2.basis]
    diag_space = make_space(2, [units[0], units[3]], "diag")
    phi = make_map(M2, diag_space, [units[0], np.zeros((2, 2)), np.zeros((2, 2)), units[3]])
    b = build_level_table(phi, 3, seed=SEED).bracket_at(3)
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


def test_stabilization_level_is_the_maps():
    # s is the codomain's m, 1 for a zero map; a table reads it from its map
    # and stores no s of its own.
    sub = _random_map(3, 2, 4, 3, seed=3)
    cases = ((_transpose(M2), 2), (_identity(M3), 3), (sub, 2), (_zero(), 1))
    for phi, s in cases:
        assert phi.stabilization_level == s
        assert build_level_table(phi, 1, seed=SEED).stabilization_level == s
    fields = [f.name for f in dataclasses.fields(LevelNormTable)]
    assert fields == ["map", "entries", "budget", "seed"]


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


def test_levels_above_the_table_name_smith_stabilization():
    # A row above s holds the stabilized bracket with both sources named
    # smith_stabilization, not level m's own; the zero map's stay trivial_zero.
    phi = get_entry("transpose_M2").map
    want = build_level_table(phi, 4, seed=SEED).entries[2].bracket
    assert want.lo_source == want.hi_source == SOURCE_SMITH
    assert build_level_table(phi, 3, seed=SEED).bracket_at(3) == want
    assert build_level_table(phi, 9, seed=SEED).bracket_at(9) == want
    zero = build_level_table(_zero(), 9, seed=SEED).bracket_at(9)
    assert (zero.lo_source, zero.hi_source) == ("trivial_zero", "trivial_zero")


@pytest.mark.parametrize("name", ("zero_M2", "transpose_M2", "trace_M2", "diag_M2"))
def test_a_table_through_s_does_not_serve_level_s_plus_one(name):
    # A table answers only for the rows it holds, stabilized or not.
    from npspace import InsufficientTable

    phi = get_entry(name).map
    s = phi.stabilization_level
    table = build_level_table(phi, s, seed=SEED)
    with pytest.raises(InsufficientTable, match=f"covers levels 1..{s} and stabilizes at {s}; "
                                                f"cannot serve level {s + 1}"):
        table.bracket_at(s + 1)


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
    cb, first = haagerup_bounds(phi)
    candidates = [(first if n == 1 else cb, SOURCE_HAAGERUP)]
    if n > 1:
        base = _reference_raw_entry(phi, 1, budget, seed, cache).bracket
        candidates.append((n * base.hi, SOURCE_N_TIMES_NORM))
    candidates.append((coefficient_relaxation_bound(phi, n), SOURCE_COEFF_RELAXATION))
    hi, hi_src = min(candidates, key=lambda c: c[0])
    outcome = maximize_amplified_norm(phi.domain, phi.images(), n, budget, seed, hi)
    lo, hi = _reconcile(outcome.value, hi, phi, n)
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
    """Reference table: every rule re-applied for up to four rounds.

    A level whose lo below is within budget.tol of its hi is closed: it takes
    that lo and its padded witness whatever its own ascent found."""
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
            closed = los[i - 1] >= his[i] * (1.0 - budget.tol)
            if los[i - 1] > los[i] or closed and lo_srcs[i] != SOURCE_MONOTONICITY:
                los[i] = los[i - 1]
                lo_srcs[i] = SOURCE_MONOTONICITY
                witnesses[i] = pad_to(SpaceElement(phi.domain, i, witnesses[i - 1]), i + 1).coords
                changed = True
        # The hi-downward rule, which build_level_table no longer runs: the
        # bitwise match shows that it never binds.
        for i in range(max_level - 2, -1, -1):
            if his[i + 1] < his[i]:
                his[i] = his[i + 1]
                hi_srcs[i] = SOURCE_MONOTONICITY
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
    # copies above m and four rounds of every rule gave.  Both stop each
    # ascent at its level's hi and close a level whose lo below is within
    # budget.tol of that hi; the reference still runs the closed level's
    # ascent, and the table runs none.  The short budgets
    # leave the per-level lo out of order, so the lo rule fires; no hi rule of
    # the reference that build_level_table lacks ever binds.  A row above m is
    # row m under the name smith_stabilization on both sides, also where the
    # reference names monotonicity for a lo it raised.
    maps = [e.map for e in list_entries()]
    maps += [_random_map(*spec, seed) for seed, spec in enumerate(RANDOM_SPECS)]
    cases = [(phi, budget, seed) for phi in maps for budget in TABLE_BUDGETS for seed in (0, 7)]
    fired = set()
    for phi, budget, seed in cases:
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
    assert {SOURCE_HAAGERUP, SOURCE_N_TIMES_NORM, SOURCE_SMITH} <= hi_fired
    assert SOURCE_MONOTONICITY not in hi_fired


def _tables_and_series(maps_, p_grid, clear=()):
    """Every map's table through its stabilization level and its series at each p,
    as bits: the rows' ``_row_bits`` and each NpResult's repr (float reprs round-trip).
    The caches in ``clear`` are cleared before each map."""
    out = []
    for phi in maps_:
        for cache in clear:
            cache.cache_clear()
        table = build_level_table(phi, phi.stabilization_level, seed=7)
        out.append(([_row_bits(e) for e in table.entries],
                    [repr(np_norm(phi, p, table)) for p in p_grid]))
    return out


def test_tables_and_series_built_cold_equal_those_built_warm():
    # The start and zeta caches hold values that depend on their arguments alone:
    # every bit of every table and series is the same whether they miss or hit.
    maps_ = [e.map for e in list_entries()]
    maps_ += [_random_map(*spec, seed) for seed, spec in enumerate(RANDOM_SPECS)]
    p_grid = (1.0, 1.0001, 1.5, 2.0, 3.0, 10.0, 1000.0)
    caches = (optimize._starts, npnorm._zeta_parts)
    cold = _tables_and_series(maps_, p_grid, clear=caches)
    hits = [cache.cache_info().hits for cache in caches]
    warm = _tables_and_series(maps_, p_grid)
    assert all(c.cache_info().hits > h for c, h in zip(caches, hits))
    assert warm == cold


def test_both_caches_are_bounded_and_cached_starts_refuse_writes():
    for cache in (optimize._starts, npnorm._zeta_parts):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < math.inf
    u, v = optimize._starts(3, 2, 4, 5, 1)
    assert optimize._starts(3, 2, 4, 5, 1)[0] is u
    for a in (u, v):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0


def _synthetic_ascent(monkeypatch, rows):
    """Start build_level_table from the given (lo, hi, hi_source) at each level n <= m:
    hi is the level's own certificate, lo what its ascent witnesses.

    Each level's witness is filled with n, so a padded one shows where it came from.
    """

    def certificate(phi, n, haagerup):
        return rows[n - 1][1:]

    def ascent(space, images, n, budget, seed, hi):
        witness = np.full((n, n, space.dim), n, dtype=complex)
        return AscentOutcome(rows[n - 1][0], witness, True, 1)

    monkeypatch.setattr(maps, "_certificate", certificate)
    monkeypatch.setattr(maps, "maximize_amplified_norm", ascent)


OPT, COEFF, HAAG = SOURCE_OPTIMIZER, SOURCE_COEFF_RELAXATION, SOURCE_HAAGERUP
MONO, NX, SMITH = SOURCE_MONOTONICITY, SOURCE_N_TIMES_NORM, SOURCE_SMITH


@pytest.mark.parametrize(
    "rows, want_his",
    [
        # hi_2 = 5 > 2 hi_1: the cap binds by a margin, and level m's hi goes above m.
        ([(0.5, 1.0, HAAG), (0.9, 5.0, COEFF), (1.0, 6.0, COEFF)],
         [(1.0, HAAG), (2.0, NX), (3.0, NX), (3.0, SMITH), (3.0, SMITH)]),
    ],
    ids=("n_times_norm_bound",),
)
def test_hi_rules_fire_by_a_margin(rows, want_his, monkeypatch):
    _synthetic_ascent(monkeypatch, rows)
    table = build_level_table(get_entry("transpose_M3").map, 5)
    assert [(e.bracket.hi, e.bracket.hi_source) for e in table.entries] == want_his


def test_max_level_above_the_cap_raises_before_any_ascent(monkeypatch):
    # Rows above s keep their own padded witnesses, so a table's memory grows
    # like max_level**3: the cap is checked before any level is computed.
    def no_ascent(*args, **kwargs):
        raise AssertionError("ascent run before max_level was checked")

    monkeypatch.setattr(maps, "maximize_amplified_norm", no_ascent)
    message = f"max_level must be at most {maps.MAX_LEVEL}, got {maps.MAX_LEVEL + 1}"
    with pytest.raises(InvalidLevel, match=message):
        build_level_table(get_entry("transpose_M2").map, maps.MAX_LEVEL + 1)


def test_lo_one_ulp_above_hi_is_an_invariant_violation(monkeypatch):
    # The upward lo pass lifts level 2 to 2 + 1 ulp over its certified hi of 2:
    # no margin excuses a crossing, however small.
    _synthetic_ascent(monkeypatch, [(np.nextafter(2.0, 3.0), 4.0, COEFF), (1.0, 2.0, COEFF),
                                    (1.0, 6.0, COEFF)])
    with pytest.raises(InvariantViolation, match="exceeds certified upper bound 2.0"):
        build_level_table(get_entry("transpose_M3").map, 3)


@pytest.mark.parametrize("seed", (4, 5, 6, 7))
def test_a_converged_ascent_just_under_the_level_below_builds(seed):
    # Level 2 converges 1e-10 relative under level 1's witnessed lo on this flat
    # M2 -> M3 map: the table builds, and the oracle stays under every hi.
    rng = np.random.default_rng([20261018, 2, 3, 0])
    coeff = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    phi = LinearMapRep(M2, M3, coeff, "rand230")
    table = build_level_table(phi, 3, seed=seed)
    report = cross_validate(table, trials=500)
    assert [row["hi_ok"] for row in report.rows] == [True, True, True]


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


@pytest.mark.parametrize("budget", (DEFAULT_BUDGET, OptBudget(restarts=1)), ids=("default", "r1"))
def test_rows_above_s_agree_with_every_reader(budget):
    # A row above the stabilization level s is row s of the table through s:
    # the same bracket, named smith_stabilization on both sides (trivial_zero
    # for a zero map), with row s's witness padded.
    for entry in list_entries():
        phi = entry.map
        for seed in range(10):
            s = build_level_table(phi, 1, budget, seed).stabilization_level
            row_s = build_level_table(phi, s, budget, seed).entries[-1]
            at_s = SpaceElement(phi.domain, s, row_s.witness)
            name = SOURCE_TRIVIAL_ZERO if phi.is_zero else SOURCE_SMITH
            stable = NormBracket(row_s.bracket.lo, row_s.bracket.hi, name, name)
            for e in build_level_table(phi, s + 2, budget, seed).entries[s:]:
                n, where = e.level, (entry.name, seed, e.level)
                assert e.bracket == stable, where
                assert e.witness.tobytes() == pad_to(at_s, n).coords.tobytes(), where


def test_one_restart_promotes_no_hi():
    # A lone converged restart's value is no bound: promoted, level 2's hi was
    # 6.3516, under level 1's witnessed 6.5801.  Every hi is now a certificate.
    rng = np.random.default_rng([5, 2, 3, 2])
    coeff = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    phi = LinearMapRep(M2, M3, coeff, "restart_1")
    table = build_level_table(phi, 3, OptBudget(restarts=1), seed=2)
    assert [e.bracket.hi_source for e in table.entries] == [SOURCE_HAAGERUP] * 3
    for e in table.entries:
        assert brute_search(phi, e.level, trials=500, seed=2)[0] <= e.bracket.hi, e.level


def test_restarts_agreeing_below_the_optimum_give_no_false_hi():
    # Both restarts stop at one local maximum of this M3 -> M3 map at level 1:
    # promoted, its hi was 10.7574, under the oracle's certified 11.9876.
    rng = np.random.default_rng([20261018, 3, 3, 4])
    coeff = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    phi = LinearMapRep(M3, M3, coeff, "stuck")
    table = build_level_table(phi, 2, OptBudget(restarts=2), seed=0)
    report = cross_validate(table, trials=500, seed=0)
    assert [row["hi_ok"] for row in report.rows] == [True, True]
    assert report.rows[0]["brute_lo"] > 11.98


def test_a_row_is_the_same_in_every_table_that_holds_it():
    # README's M2 -> M2 map: row 1's hi was 8.528 (coeff_relaxation) in the table
    # through level 1 and 7.046 (cb_cap, from a promoted level 2) through level 2.
    rng = np.random.default_rng([20261018, 2, 2, 3])
    coeff = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    phi = LinearMapRep(M2, M2, coeff, "readme")
    rows = [_row_bits(e) for e in build_level_table(phi, 3, OptBudget(restarts=2), 7).entries]
    for n in (1, 2):
        short = build_level_table(phi, n, OptBudget(restarts=2), 7)
        assert [_row_bits(e) for e in short.entries] == rows[:n], n
    assert (round(float.fromhex(rows[0][2]), 4), rows[0][4]) == (7.4994, SOURCE_HAAGERUP)


CONSISTENCY_MAPS = [
    _random_map(d, m, None, None, seed)
    for d in (2, 3) for m in (2, 3) for seed in range(100, 105)
]


@pytest.mark.parametrize("phi", CONSISTENCY_MAPS, ids=lambda phi: phi.label)
def test_a_table_just_long_enough_holds_the_longer_tables_rows(phi):
    # Level n's bracket and witness are read from a table through n, ||phi_1||
    # from one through 1 and ||phi||_cb from one through s + 1: each such row is
    # bitwise the row of the table through s + 1, whose last row is row s's
    # bracket named smith_stabilization, with row s's witness padded.
    budget = OptBudget(restarts=1)
    s = phi.stabilization_level
    longest = build_level_table(phi, s + 1, budget, SEED).entries
    rows = [_row_bits(e) for e in longest]
    for n in range(1, s + 1):
        short = build_level_table(phi, n, budget, SEED)
        assert [_row_bits(e) for e in short.entries] == rows[:n], n
    at_s, cb = longest[s - 1], longest[s]
    assert cb.bracket == NormBracket(at_s.bracket.lo, at_s.bracket.hi, SOURCE_SMITH, SOURCE_SMITH)
    padded = pad_to(SpaceElement(phi.domain, s, at_s.witness), s + 1)
    assert cb.witness.tobytes() == padded.coords.tobytes()


# The closed-form (||phi||_cb, ||phi_1||) of each nonzero catalog map.
CERTIFIED = {
    "identity_M2": (1.0, 1.0), "identity_M3": (1.0, 1.0), "transpose_M2": (2.0, 1.0),
    "transpose_M3": (3.0, 1.0), "trace_M2": (2.0, 2.0), "rank_one_M2": (5**0.5, 5**0.5),
    "schur_M2": (2**0.5, 2**0.5), "diag_M2": (1.0, 1.0),
}


def _rebased(phi, rng):
    """phi on its domain in the basis b'_t = sum_s Q_st b_s, Q a Haar unitary."""
    k = phi.domain.dim
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    basis = np.einsum("sab,st->tab", phi.domain._stack, q)
    images = np.einsum("sab,st->tab", phi.images(), q)
    domain = make_space(phi.domain.ambient_dim, list(basis), "rebased")
    return make_map(domain, phi.codomain, list(images), phi.label)


@pytest.mark.parametrize("rebase", (False, True), ids=("units", "rebased"))
@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_the_haagerup_bounds_are_the_closed_forms(name, rebase):
    phi = get_entry(name).map
    if rebase:
        phi = _rebased(phi, np.random.default_rng(20261018))
    for got, truth in zip(haagerup_bounds(phi), CERTIFIED[name]):
        assert truth <= got <= truth * (1.0 + 1e-12), (got, truth)


SUBSPACE_SPECS = [spec for spec in RANDOM_SPECS if spec[2] is not None]


@pytest.mark.parametrize("spec", SUBSPACE_SPECS, ids=str)
def test_the_haagerup_bounds_hold_on_proper_subspace_domains(spec):
    # phi o P extends phi from V to M_d, P the Frobenius projection onto V:
    # its factorization bounds phi at every level, and no oracle beats it.
    phi = _random_map(*spec, seed=0)
    cb, first = haagerup_bounds(phi)
    assert first <= cb < np.inf
    for n in range(1, min(phi.codomain.ambient_dim, 2) + 1):
        brute, _ = brute_search(phi, n, trials=500, seed=n)
        assert brute <= (first if n == 1 else cb), (n, brute, first, cb)


def _count_ascents(monkeypatch):
    """The levels at which build_level_table runs an ascent, in order."""
    levels = []

    def counted(space, images, level, budget, seed, hi):
        levels.append(level)
        return maximize_amplified_norm(space, images, level, budget, seed, hi)

    monkeypatch.setattr(maps, "maximize_amplified_norm", counted)
    return levels


def test_the_diagonal_inclusion_is_closed_by_its_certificate(monkeypatch):
    # phi o P on diag(M2) < M2 is the conditional expectation onto the diagonal,
    # of cb norm 1: hi is 1, so level 1's ascent stops at once and closes level 2.
    units = [np.array(b) for b in M2.basis]
    diag = make_space(2, [units[0], units[3]], "diag_of_M2")
    phi = make_map(diag, M2, [units[0], units[3]], "diag_inclusion")
    for bound in haagerup_bounds(phi):
        assert abs(bound - 1.0) <= 1e-12, bound
    levels = _count_ascents(monkeypatch)
    table = build_level_table(phi, 2, seed=SEED)
    assert levels == [1]
    assert [e.bracket.lo_source for e in table.entries] == [SOURCE_OPTIMIZER, SOURCE_MONOTONICITY]
    for e in table.entries:
        assert e.bracket.lo <= 1.0 <= e.bracket.hi <= 1.0 + 1e-12


@pytest.mark.parametrize("name, want", (("identity_M3", [1]), ("transpose_M3", [1, 2, 3])))
def test_a_closed_level_runs_no_ascent(name, want, monkeypatch):
    # identity: every hi is 1, which level 1's lo meets; transpose: hi_n = n
    # stays above lo_(n-1) = n - 1, so every level searches.
    levels = _count_ascents(monkeypatch)
    build_level_table(get_entry(name).map, 3, seed=SEED)
    assert levels == want


@pytest.mark.parametrize("seed", (0, 7))
def test_catalog_brackets_hold_their_truth_and_closed_rows_are_tight(seed, monkeypatch):
    levels = _count_ascents(monkeypatch)
    eps = np.finfo(float).eps
    for entry in list_entries():
        phi, m = entry.map, entry.map.codomain.ambient_dim
        del levels[:]
        table = build_level_table(phi, m + 2, seed=seed)
        for e in table.entries:
            n, b = e.level, e.bracket
            assert b.lo <= entry.expected_level_norms(n) <= b.hi, (entry.name, seed, n)
            if phi.is_zero or n > phi.stabilization_level or n in levels:
                continue
            # Closed: lo is the row below's, within tol of the certified hi.
            assert b.lo_source == SOURCE_MONOTONICITY, (entry.name, seed, n)
            assert b.lo == table.entries[n - 2].bracket.lo
            assert b.hi - b.lo <= (DEFAULT_BUDGET.tol + 4 * eps) * b.hi, (entry.name, seed, n)


@pytest.mark.parametrize("spec", ((2, 2, None, None), (2, 2, 3, None)), ids=("M2", "sub3_of_M2"))
def test_a_map_holds_no_results(spec):
    # Every table, series and check recomputes what it needs: none of them changes the map.
    phi = _random_map(*spec, seed=3)
    assert all(not isinstance(getattr(phi, f.name), (dict, list, set))
               for f in dataclasses.fields(phi))
    assert not phi.coeff.flags.writeable and not phi.images().flags.writeable
    before = pickle.dumps(phi)
    budget = OptBudget(restarts=2, max_iter=20)
    table = build_level_table(phi, 3, budget, SEED)
    np_norm(phi, 2.0, build_level_table(phi, phi.stabilization_level, budget, SEED))
    inclusion_check(phi, 2.5, 3.0, table)
    brute_search(phi, 2, trials=20, seed=SEED)
    cross_validate(table, trials=20, seed=SEED, max_level=2)
    assert pickle.dumps(phi) == before


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def test_relative_space_paths_are_read_from_base_dir(tmp_path, monkeypatch):
    phi = _transpose(M2)
    save_space(M2, str(tmp_path / "M2.json"))
    data = dict(map_to_dict(phi), domain="M2.json", codomain="M2.json")
    assert np.array_equal(map_from_dict(data, str(tmp_path)).coeff, phi.coeff)
    monkeypatch.chdir(tmp_path)  # without base_dir, from the working directory
    assert np.array_equal(map_from_dict(data).coeff, phi.coeff)
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    with pytest.raises(FileNotFoundError):
        map_from_dict(data)


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
