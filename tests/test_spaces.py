"""Spaces: construction, realization, level norms, and the norm axioms."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npspace import (
    DependentBasis,
    DimensionMismatch,
    build_level_table,
    direct_sum,
    element_from_matrix,
    full_matrix_space,
    get_entry,
    level_norm,
    NonFiniteInput,
    OperatorSpace,
    ScaleOutOfRange,
    SpaceElement,
    make_map,
    make_space,
    pad_to,
    random_element,
    random_subspace,
    realize,
    sandwich,
    space_from_dict,
    space_to_dict,
    spectral_norm,
    verify_axioms,
)
from npspace import spaces
from npspace.spaces import (
    MAX_ENTRY_EXP,
    from_pairs,
    matrix_blocks,
    realize_batch,
    rounded_down,
    to_pairs,
    top_singular_pairs,
    top_singular_values,
    unrealize,
    witnessed_value,
)

I2 = np.eye(2, dtype=complex)


def _units(d):
    return [np.array(b) for b in full_matrix_space(d).basis]


# ---------------------------------------------------------------------------
# make_space
# ---------------------------------------------------------------------------


def test_make_space_identity_basis():
    sp = make_space(2, [I2], "scalars")
    assert sp.dim == 1
    assert not sp.is_full_matrix_algebra


def test_make_space_rejects_colinear_pair():
    with pytest.raises(DependentBasis):
        make_space(2, [I2, 2 * I2])


def test_make_space_rejects_nan_basis_entry():
    bad = np.array([[0.0, np.nan], [0.0, 0.0]])
    with pytest.raises(NonFiniteInput, match=r"basis of 'V': entry \(1, 0, 1\) is \(nan"):
        make_space(2, [I2, bad])


def test_make_space_matrix_units_is_full():
    sp = make_space(2, _units(2))
    assert sp.dim == 4
    assert sp.is_full_matrix_algebra


def test_make_space_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        make_space(2, [np.eye(3)])
    with pytest.raises(DimensionMismatch):
        make_space(2, [])


def test_make_space_rejects_overcomplete():
    with pytest.raises(DependentBasis):
        make_space(1, [np.array([[1.0]]), np.array([[2.0]])])


SPACES = {
    "M3": lambda: full_matrix_space(3),
    "trace_M2_domain": lambda: get_entry("trace_M2").map.domain,
    "sub4_of_M3": lambda: random_subspace(3, 4, np.random.default_rng(3), "V"),
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_space_constants_are_read_only_and_their_formulas_bitwise(name):
    # One thin SVD of vec.conj(), the one np.linalg.pinv(vec) takes, gives every constant.
    sp = SPACES[name]()
    vec, pinv = sp._stack.reshape(sp.dim, -1).T, sp._vec_pinv
    u, svals, _ = np.linalg.svd(vec.conj(), full_matrices=False)
    assert np.array_equal(pinv, np.linalg.pinv(vec))
    assert (sp._vec_smin, sp._vec_smax) == (svals[-1], svals[0])
    derived = {
        "_orth": u.conj().T,
        "_pinv_norms": np.linalg.norm(pinv, axis=1),
    }
    for attr, want in derived.items():
        got = getattr(sp, attr)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr
    assert np.abs(sp._orth @ sp._orth.conj().T - np.eye(sp.dim)).max() <= 1e-14
    for attr in ("_stack", "_vec_pinv", *derived):
        arr = getattr(sp, attr)
        assert not arr.flags.writeable, attr
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


@pytest.mark.parametrize("name", sorted(SPACES))
def test_orth_rows_span_v_and_pinv_inverts_the_basis(name):
    # What the constants mean, not how they are computed: each flattened basis
    # matrix is its own projection onto the rows of _orth (so they span V, not
    # its conjugate), and _vec_pinv recovers the basis's own coordinates.
    sp = SPACES[name]()
    flat = sp._stack.reshape(sp.dim, -1)
    scale = np.abs(flat).max()
    assert np.abs((flat @ sp._orth.conj().T) @ sp._orth - flat).max() <= 1e-14 * scale
    cond = sp._vec_smax / sp._vec_smin
    assert np.abs(sp._vec_pinv @ flat.T - np.eye(sp.dim)).max() <= 1e-14 * cond


@pytest.mark.parametrize("sign", (1, -1))
def test_a_basis_entry_out_of_range_is_refused(sign):
    # The largest entry may lie within 2**±480; one step further is refused.
    # A basis of 1e160 once built and then overflowed in the ascent.
    units = np.stack(_units(3))
    sp = make_space(3, list(units * 2.0 ** (sign * MAX_ENTRY_EXP)))
    assert np.isfinite(sp._orth).all() and np.isfinite(sp._vec_pinv).all()
    # A proper subspace at the edge, its images scaled alike, builds a finite table.
    rng = np.random.default_rng([20261020, 3, 4])
    mats = rng.standard_normal((2, 4, 3, 3)) + 1j * rng.standard_normal((2, 4, 3, 3))
    basis, images = (a * 2.0 ** (sign * MAX_ENTRY_EXP - np.frexp(np.abs(a).max())[1] + (sign < 0))
                     for a in mats)
    phi = make_map(make_space(3, list(basis)), full_matrix_space(3), list(images))
    for row in build_level_table(phi, 3).entries:
        assert np.isfinite([row.bracket.lo, row.bracket.hi]).all(), row.level
        assert 0.0 < row.bracket.lo and np.isfinite(row.witness).all(), row.level
    for bad in (2.0 ** (sign * (MAX_ENTRY_EXP + 1)), 1e160**sign):
        with pytest.raises(ScaleOutOfRange, match=r"basis of 'V': largest entry .* is outside "
                                                  r"2\*\*-480\.\.2\*\*480"):
            make_space(3, list(units * bad))


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------


def test_realize_identity_level_one():
    sp = make_space(2, [I2])
    x = SpaceElement(sp, 1, [[[1.0]]])
    assert np.allclose(realize(x), I2)


def test_realize_block_diagonal():
    sp = full_matrix_space(2)
    rng = np.random.default_rng(3)
    v = random_element(sp, 1, rng)
    w = random_element(sp, 1, rng)
    big = realize(direct_sum(v, w))
    assert np.allclose(big[:2, :2], realize(v))
    assert np.allclose(big[2:, 2:], realize(w))
    assert np.allclose(big[:2, 2:], 0)
    assert np.allclose(big[2:, :2], 0)


def _naive_realize(x):
    # Independent oracle: plain double loop over blocks and basis terms.
    n, d = x.level, x.space.ambient_dim
    out = np.zeros((n * d, n * d), dtype=complex)
    for i in range(n):
        for j in range(n):
            block = sum(
                x.coords[i, j, t] * np.asarray(x.space.basis[t])
                for t in range(x.space.dim)
            )
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
    return out


def test_realize_matches_naive_substitution_oracle(rng):
    for sp in (full_matrix_space(2), random_subspace(3, 4, rng)):
        for level in (1, 2, 3):
            x = random_element(sp, level, rng)
            got = realize(x)
            want = _naive_realize(x)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(
    a_re=st.floats(-3, 3), a_im=st.floats(-3, 3),
    b_re=st.floats(-3, 3), b_im=st.floats(-3, 3),
    seed=st.integers(0, 10_000),
)
def test_realize_is_linear_in_coords(a_re, a_im, b_re, b_im, seed):
    sp = full_matrix_space(2)
    gen = np.random.default_rng(seed)
    x = random_element(sp, 2, gen)
    y = random_element(sp, 2, gen)
    a = complex(a_re, a_im)
    b = complex(b_re, b_im)
    combo = SpaceElement(sp, 2, a * x.coords + b * y.coords)
    want = a * realize(x) + b * realize(y)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(realize(combo) - want).max() <= 1e-12 * scale


def _naive_realize_batch(stack, coords):
    # Reference: one block at a time, one basis term at a time.
    lead, n, k, d = coords.shape[:-3], coords.shape[-2], stack.shape[0], stack.shape[-1]
    out = np.zeros(lead + (n * d, n * d), dtype=complex)
    for idx in np.ndindex(*lead):
        for i in range(n):
            for j in range(n):
                block = sum(coords[idx + (i, j, t)] * stack[t] for t in range(k))
                out[idx + (slice(i * d, (i + 1) * d), slice(j * d, (j + 1) * d))] = block
    return out


def _naive_unrealize(space, n, mats):
    # Reference: least-squares coordinates of one block at a time.
    d = space.ambient_dim
    vec = space._stack.reshape(space.dim, -1).T
    out = np.zeros(mats.shape[:-2] + (n, n, space.dim), dtype=complex)
    for idx in np.ndindex(*mats.shape[:-2]):
        for i in range(n):
            for j in range(n):
                block = mats[idx + (slice(i * d, (i + 1) * d), slice(j * d, (j + 1) * d))]
                out[idx + (i, j)] = np.linalg.lstsq(vec, block.reshape(-1), rcond=None)[0]
    return out


def _close(got, want):
    return np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize(
    "make_stack, lead, n",
    [
        (lambda rng: full_matrix_space(2)._stack, (3, 2), 2),
        (lambda rng: full_matrix_space(3)._stack, (), 3),
        (lambda rng: random_subspace(3, 4, rng)._stack, (2,), 2),
        (lambda rng: random_subspace(2, 3, rng)._stack, (), 1),
        # rank_one_M2's images: 1 x 1 blocks, smaller than the 2 x 2 domain.
        (lambda rng: get_entry("rank_one_M2").map.images(), (2, 3), 3),
    ],
    ids=("M2_two_leading", "M3_no_leading", "subspace_one_leading", "subspace_level1", "1x1_images"),
)
def test_realize_batch_matches_block_loop(make_stack, lead, n, rng):
    stack = make_stack(rng)
    shape = lead + (n, n, stack.shape[0])
    coords = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = realize_batch(stack, coords)
    assert got.shape == lead + (n * stack.shape[-1],) * 2
    assert _close(got, _naive_realize_batch(stack, coords))


@pytest.mark.parametrize("lead", ((), (2,), (3, 2)))
def test_unrealize_matches_block_loop_and_inverts_realize(lead, rng):
    n = 2
    for sp in (full_matrix_space(2), random_subspace(3, 4, rng)):
        # Coordinates of an element of M_n(V) come back from its realization.
        shape = lead + (n, n, sp.dim)
        coords = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mats = realize_batch(sp._stack, coords)
        assert _close(unrealize(sp, n, mats), coords)
        # Any matrix: the blockwise least-squares projection onto V.
        size = n * sp.ambient_dim
        mats = rng.standard_normal(lead + (size, size)) + 1j * rng.standard_normal(lead + (size, size))
        assert _close(unrealize(sp, n, mats), _naive_unrealize(sp, n, mats))
        if sp.is_full_matrix_algebra:
            assert _close(realize_batch(sp._stack, unrealize(sp, n, mats)), mats)


def test_matrix_blocks_are_matrix_unit_coordinates(rng):
    units = full_matrix_space(3)._stack
    mats = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    blocks = matrix_blocks(mats, 2)
    assert blocks.shape == (4, 2, 2, 9)
    assert np.array_equal(blocks[1, 0, 1], mats[1, :3, 3:].reshape(-1))
    assert np.array_equal(realize_batch(units, blocks), mats)


def test_element_from_matrix_round_trip(rng):
    sp = full_matrix_space(2)
    x = random_element(sp, 2, rng)
    back = element_from_matrix(sp, 2, realize(x))
    assert np.allclose(back.coords, x.coords)


# ---------------------------------------------------------------------------
# level_norm
# ---------------------------------------------------------------------------


def test_level_norm_zero():
    sp = full_matrix_space(2)
    x = SpaceElement(sp, 2, np.zeros((2, 2, 4)))
    assert level_norm(x) == 0.0


def test_level_norm_direct_sum_is_max(rng):
    # The direct-sum rule is an equality for concrete spaces.
    sp = full_matrix_space(2)
    for _ in range(25):
        v = random_element(sp, int(rng.integers(1, 3)), rng)
        w = random_element(sp, int(rng.integers(1, 3)), rng)
        want = max(level_norm(v), level_norm(w))
        got = level_norm(direct_sum(v, w))
        assert abs(got - want) <= 1e-9 * max(want, 1.0)


def test_level_norm_scalar_contraction(rng):
    sp = full_matrix_space(2)
    for _ in range(25):
        x = random_element(sp, 2, rng)
        alpha = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        beta = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        lhs = level_norm(sandwich(alpha, x, beta))
        rhs = spectral_norm(alpha) * level_norm(x) * spectral_norm(beta)
        assert lhs <= rhs + 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), extra=st.integers(1, 3))
def test_padding_leaves_level_norm_unchanged(seed, extra):
    sp = full_matrix_space(2)
    gen = np.random.default_rng(seed)
    x = random_element(sp, 2, gen)
    padded = pad_to(x, 2 + extra)
    assert abs(level_norm(padded) - level_norm(x)) <= 1e-12 * max(1.0, level_norm(x))


# ---------------------------------------------------------------------------
# verify_axioms
# ---------------------------------------------------------------------------


def test_verify_axioms_full_m2():
    report = verify_axioms(full_matrix_space(2), samples=100, seed=7)
    assert report.passed
    assert report.m1_worst <= 1e-9
    assert report.m2_worst <= 1e-9


def test_verify_axioms_scalar_space():
    report = verify_axioms(make_space(2, [I2], "scalars"), samples=10, seed=7)
    assert report.passed


def test_verify_axioms_corrupted_norm_reports_m1_failure(monkeypatch):
    # Negative control: a realization that misreports level 2 must break M1.
    exact = spaces.realize
    monkeypatch.setattr(spaces, "realize", lambda x: exact(x) * (1.1 if x.level == 2 else 1.0))
    report = verify_axioms(full_matrix_space(2), samples=50, seed=7)
    assert not report.passed
    assert any(f["check"] == "M1" for f in report.failures)


@pytest.mark.parametrize("scale", (1e8, 1e20))
def test_verify_axioms_passes_on_a_scaled_basis(scale):
    # An absolute M2 slack of 1e-9 failed 9 (at 1e8) and 8 (at 1e20) of these
    # 50 samples on rounding alone; the relative slack scales with the norms.
    report = verify_axioms(make_space(2, [scale * u for u in _units(2)]), samples=50, seed=0)
    assert report.passed, report.failures[:3]
    assert report.m2_worst <= 1e-9


@pytest.mark.parametrize("scale", (1e-20, 1.0, 1e20))
def test_verify_axioms_reports_an_inflated_sandwich_at_every_scale(monkeypatch, scale):
    # Negative control: a sandwich 10% too large must break M2 however small its norms.
    exact = spaces.sandwich

    def inflated(alpha, x, beta):
        y = exact(alpha, x, beta)
        return SpaceElement(y.space, y.level, 1.1 * y.coords)

    monkeypatch.setattr(spaces, "sandwich", inflated)
    report = verify_axioms(make_space(2, [scale * u for u in _units(2)]), samples=50, seed=7)
    assert not report.passed
    assert any(f["check"] == "M2" for f in report.failures)


def _reference_axioms(space, samples, seed):
    """(m1_worst, m2_worst, failures) of verify_axioms, one norm per call in draw order."""
    rng = np.random.default_rng([seed, 0x4E50])
    failures, m1_worst, m2_worst = [], 0.0, 0.0
    for i in range(samples):
        lv, lw = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        v = random_element(space, lv, rng)
        w = random_element(space, lw, rng)
        got = level_norm(direct_sum(v, w))
        want = max(level_norm(v), level_norm(w))
        rel = abs(got - want) / max(want, 1e-300)
        m1_worst = max(m1_worst, rel)
        if rel > 1e-9:
            failures.append({"check": "M1", "sample": i, "violation": rel})
        lx = int(rng.integers(1, 4))
        lo = int(rng.integers(1, 5))
        x = random_element(space, lx, rng)
        alpha = rng.standard_normal((lo, lx)) + 1j * rng.standard_normal((lo, lx))
        beta = rng.standard_normal((lx, lo)) + 1j * rng.standard_normal((lx, lo))
        lhs = level_norm(sandwich(alpha, x, beta))
        rhs = spectral_norm(alpha) * level_norm(x) * spectral_norm(beta)
        excess = (lhs - rhs) / max(rhs, 1e-300)
        m2_worst = max(m2_worst, excess)
        if excess > 1e-9:
            failures.append({"check": "M2", "sample": i, "violation": excess})
    return m1_worst, m2_worst, tuple(failures)


@pytest.mark.parametrize("seed", (0, 5, 7))
def test_verify_axioms_matches_the_per_norm_loop_bitwise(seed):
    # The batched SVDs must leave every reported number as one SVD per norm gives it.
    rng = np.random.default_rng([seed, 0xA7])
    spaces = [full_matrix_space(2), full_matrix_space(3), random_subspace(2, 2, rng),
              random_subspace(3, 2, rng), random_subspace(3, 5, rng), make_space(2, [I2])]
    for sp in spaces:
        report = verify_axioms(sp, samples=40, seed=seed)
        got = (report.m1_worst, report.m2_worst, report.failures)
        assert repr(got) == repr(_reference_axioms(sp, 40, seed))


def test_verify_axioms_random_subspaces(rng):
    for d in (2, 3):
        sp = random_subspace(d, 2, rng, f"rand2_of_M{d}")
        report = verify_axioms(sp, samples=50, seed=5)
        assert report.passed, report.failures[:3]


# ---------------------------------------------------------------------------
# JSON space files
# ---------------------------------------------------------------------------


def test_space_json_round_trip(rng):
    sp = random_subspace(2, 3, rng, "roundtrip")
    back = space_from_dict(space_to_dict(sp))
    assert back.label == sp.label
    assert back.ambient_dim == sp.ambient_dim
    for a, b in zip(sp.basis, back.basis):
        assert np.array_equal(np.asarray(a), np.asarray(b))


def test_space_json_decimal_exactness(tmp_path):
    payload = {"label": "S", "ambient_dim": 1, "basis": [[[[0.1, -0.25]]]]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    from npspace import load_space

    sp = load_space(str(path))
    z = complex(sp.basis[0][0, 0])
    assert z.real == 0.1 and z.imag == -0.25


def test_space_json_rejects_bad_shapes():
    shape_error = r"basis\[0\] has shape \(1, 1, 2\), expected \(2, 2, 2\)"
    with pytest.raises(ValueError, match=shape_error):
        space_from_dict({"label": "x", "ambient_dim": 2, "basis": [[[[1.0, 0.0]]]]})
    ragged = [[[[1, 0]]], [[[1, 0], [2]]]]
    with pytest.raises(ValueError, match=r"basis\[1\] is not an array of \[re, im\] pairs"):
        space_from_dict({"label": "x", "ambient_dim": 1, "basis": ragged})
    with pytest.raises(DimensionMismatch, match="ambient_dim must be a positive integer, got 0"):
        space_from_dict({"label": "x", "ambient_dim": 0, "basis": []})


@pytest.mark.parametrize(
    "rows, bad",
    [
        ('[["1", "0"]]', "'1'"),
        ('[[1.0, "0"]]', "'0'"),
        ("[[true, false]]", "True"),
        ("[[1.0, true]]", "True"),
        ("[[null, 0]]", "None"),
        ("[[0, null]]", "None"),
    ],
    ids=("strings", "string_im", "bools", "bool_in_float_pair", "null", "null_im"),
)
def test_from_pairs_rejects_a_non_number(rows, bad):
    # numpy would coerce each of these: "1" to 1.0, true to 1.0, null to nan.
    with pytest.raises(ValueError, match=rf"^basis\[0\] holds {bad}, not a number$"):
        from_pairs(json.loads(rows), (1,), "basis[0]")
    with pytest.raises(ValueError, match=r"basis\[0\] holds"):
        space_from_dict({"label": "x", "ambient_dim": 1, "basis": [[json.loads(rows)]]})


def test_from_pairs_keeps_ints_floats_and_json_nan():
    assert from_pairs([[1, 0.5]], (1,), "x").tolist() == [1 + 0.5j]
    # A JSON NaN literal is a float, so it reaches the finiteness check.
    with pytest.raises(NonFiniteInput):
        space_from_dict(json.loads('{"ambient_dim": 1, "basis": [[[[NaN, 0]]]]}'))


def test_space_json_rejects_a_bool_ambient_dim():
    # A JSON true is a Python bool, which is an int; it once loaded as M1.
    with pytest.raises(DimensionMismatch, match="ambient_dim must be a positive integer, got True"):
        space_from_dict({"ambient_dim": True, "basis": [[[[1, 0]]]]})
    with pytest.raises(DimensionMismatch, match="got True"):
        OperatorSpace(True, (np.eye(1),))


@pytest.mark.parametrize("d", (True, np.True_, 2.7, 2.0, np.float64(2.0), "2"), ids=repr)
def test_make_space_rejects_a_bool_or_non_integral_ambient_dim(d):
    # int() once turned 2.7 into M2 and True into M1.
    with pytest.raises(DimensionMismatch, match="ambient_dim must be a positive integer"):
        make_space(d, [np.eye(2)])


def test_make_space_accepts_a_numpy_integer_ambient_dim():
    sp = make_space(np.int64(2), [np.eye(2)])
    assert type(sp.ambient_dim) is int and sp.ambient_dim == 2


def _old_pairs(a):
    # The per-element encoder the JSON writers used before to_pairs.
    return [float(a.real), float(a.imag)] if np.ndim(a) == 0 else [_old_pairs(b) for b in a]


def test_pairs_codec_matches_the_per_element_encoder(rng):
    special = np.array([-0.0, 1e-300, -1e-300, 5e-324])
    for shape in ((3, 3), (5,), (2, 2, 4)):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flat = z.reshape(-1)
        flat[: special.size] = special + 1j * special[::-1]
        flat[-1] = complex(-0.0, -0.0)
        old = _old_pairs(z)
        got = to_pairs(z)
        assert json.dumps(got) == json.dumps(old)
        assert np.asarray(got).shape == (*shape, 2)
        rows = json.loads(json.dumps(got))
        back = from_pairs(rows, shape, "entry")
        assert back.tobytes() == z.tobytes()  # the sign of every zero part survives
        with pytest.raises(ValueError, match=r"entry has shape"):
            from_pairs(got, (*shape, 1), "entry")


def test_space_dump_matches_the_per_element_encoder(rng):
    sp = random_subspace(3, 4, rng, "dump")
    old = {
        "label": sp.label,
        "ambient_dim": sp.ambient_dim,
        "basis": [_old_pairs(b) for b in sp.basis],
    }
    assert json.dumps(space_to_dict(sp), indent=2) == json.dumps(old, indent=2)


def test_witnessed_value_scales_the_witness_into_the_ball(rng):
    phi = get_entry("transpose_M3").map
    coords = 7.0 * (rng.standard_normal((1, 1, 9)) + 1j * rng.standard_normal((1, 1, 9)))
    value, witness = witnessed_value(phi.domain, phi.images(), 1, coords)
    assert abs(level_norm(SpaceElement(phi.domain, 1, witness)) - 1.0) <= 1e-15
    assert value <= 1.0  # ||phi_1|| = 1 exactly
    assert value == rounded_down(spectral_norm(realize_batch(phi.images(), witness)), 1, 3, 3)


# ---------------------------------------------------------------------------
# top singular kernels
# ---------------------------------------------------------------------------


def _kernel_cases():
    """Realized batches of size 1..12, each with a zero, a 2*unitary and a rank-one matrix."""
    rng = np.random.default_rng(20261018)
    cases = [(full_matrix_space(d)._stack, n) for d in (1, 2, 3) for n in range(1, 12 // d + 1)]
    rank_one = get_entry("rank_one_M2").map.images()  # 1 x 1 images
    cases += [(rank_one, 1), (rank_one, 3)]
    for stack, n in cases:
        shape = (6, n, n, stack.shape[0])
        mats = realize_batch(stack, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        size = mats.shape[-1]
        g = rng.standard_normal((size + 1, size)) + 1j * rng.standard_normal((size + 1, size))
        mats[0] = 0.0
        mats[1] = 2.0 * np.linalg.qr(g[:size])[0]  # top singular value repeated `size` times
        mats[2] = np.outer(g[0], g[size].conj())
        yield mats


def test_top_singular_pairs_are_singular_triples():
    for mats in _kernel_cases():
        s, u, v = top_singular_pairs(mats)
        want = np.linalg.svd(mats, compute_uv=False)[:, 0]
        for got in (s, top_singular_values(mats)):
            assert got[0] == 0.0
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))
        assert np.allclose(np.linalg.norm(u, axis=-1), 1.0, rtol=0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(v, axis=-1), 1.0, rtol=0.0, atol=1e-12)
        av = np.einsum("bij,bj->bi", mats, v)
        ahu = np.einsum("bji,bj->bi", mats.conj(), u)
        tol = 1e-10 * s
        assert np.all(np.linalg.norm(av - s[:, None] * u, axis=-1) <= tol)
        assert np.all(np.linalg.norm(ahu - s[:, None] * v, axis=-1) <= tol)
