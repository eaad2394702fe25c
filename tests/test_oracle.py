"""Brute-force oracle: lower-bound quality and table cross-validation."""

from dataclasses import replace

import numpy as np
import pytest

from npspace import (
    InvalidLevel,
    NormBracket,
    amplify,
    brute_search,
    build_level_table,
    cross_validate,
    full_matrix_space,
    get_entry,
    level_norm,
    make_map,
    make_space,
    random_subspace,
    realize,
    scaled_map,
)
from npspace.maps import LevelEntry, LevelNormTable
from npspace.optimize import DEFAULT_BUDGET
from npspace import oracle
from npspace.oracle import _batch_norms
from npspace.spaces import (
    SpaceElement,
    matrix_blocks,
    realize_batch,
    rounded_down,
    unrealize,
    witnessed_value,
)

SEED = 11


def test_trials_above_the_cap_raise_before_any_search(monkeypatch):
    def never(*args):
        raise AssertionError("a search started")

    monkeypatch.setattr(oracle, "_search_unitary", never)
    monkeypatch.setattr(oracle, "_search_coords", never)
    phi = get_entry("transpose_M2").map
    table = build_level_table(phi, 1, DEFAULT_BUDGET, SEED)
    message = f"trials must be at most {oracle.MAX_TRIALS}, got 10001"
    with pytest.raises(ValueError, match=message):
        brute_search(phi, 1, trials=10001)
    with pytest.raises(ValueError, match=message):
        cross_validate(table, trials=10001)


def test_brute_transpose_m2_level2_reaches_two():
    # Pinned by the acceptance suite as well: 2000 trials find 2 - 1e-3.
    phi = get_entry("transpose_M2").map
    value, _ = brute_search(phi, 2, trials=2000, seed=0)
    assert value >= 2.0 - 1e-3
    assert value <= 2.0 + 1e-9


def test_brute_identity_level3():
    phi = get_entry("identity_M2").map
    value, _ = brute_search(phi, 3, trials=50, seed=1)
    assert value >= 1.0 - 1e-9
    assert value <= 1.0 + 1e-9


def test_brute_zero_map():
    phi = get_entry("zero_M2").map
    assert brute_search(phi, 2, trials=10, seed=0)[0] == 0.0


def _upper_triangular_inclusion():
    m2 = full_matrix_space(2)
    units = [np.array(b) for b in m2.basis]
    upper = make_space(2, [units[0], units[1], units[3]], "UT2")
    return make_map(upper, m2, [units[0], units[1], units[3]], "incl")


@pytest.mark.parametrize(
    "make_phi",
    (lambda: get_entry("schur_M2").map, _upper_triangular_inclusion),
    ids=("unitary_climb", "coordinate_climb"),
)
def test_brute_witness_is_feasible_and_achieves_value(make_phi):
    phi = make_phi()
    value, witness = brute_search(phi, 2, trials=300, seed=4)
    x = SpaceElement(phi.domain, 2, witness)
    assert level_norm(x) <= 1.0 + 1e-10
    assert abs(np.linalg.norm(realize(amplify(phi, x)), 2) - value) <= 1e-12


def _embedding_of_m1():
    # M1 -> M2, 1 -> identity: every unitary scores 1, so the climb stops early.
    return make_map(full_matrix_space(1), full_matrix_space(2), [np.eye(2)], "embed_M1")


def _random_m3_map():
    # A level-2 climb that still rises above rounding after step 999.
    rng = np.random.default_rng([20261018, 9])
    images = rng.standard_normal((9, 3, 3)) + 1j * rng.standard_normal((9, 3, 3))
    return make_map(full_matrix_space(3), full_matrix_space(3), list(images), "random_M3")


@pytest.mark.parametrize("block", (1, 7))
@pytest.mark.parametrize(
    "make_phi, level, early",
    [
        (_random_m3_map, 2, False),
        (_embedding_of_m1, 1, True),
        (_upper_triangular_inclusion, 2, True),
    ],
    ids=("unitary_full", "unitary_stops_early", "coordinate_stops_early"),
)
def test_brute_search_does_not_depend_on_block(make_phi, level, early, block, monkeypatch):
    # The climbs draw _BLOCK steps of random numbers at once; any block size
    # must give the same draws, the same accepted steps and the same stop.
    phi = make_phi()
    calls = []
    scored = oracle._batch_norms
    monkeypatch.setattr(oracle, "_batch_norms", lambda *a: calls.append(1) or scored(*a))
    value, witness = brute_search(phi, level, trials=200, seed=4)
    # The unitary climb scores once per step, the coordinate climb twice.
    per_step = 1 if phi.domain.is_full_matrix_algebra else 2
    steps = (len(calls) - per_step) // per_step
    assert (steps < oracle._CLIMB_STEPS) == early
    assert not early or steps % oracle._BLOCK  # stops inside a block

    monkeypatch.setattr(oracle, "_BLOCK", block)
    got_value, got_witness = brute_search(phi, level, trials=200, seed=4)
    assert got_value == value
    assert got_witness.tobytes() == witness.tobytes()


def _accept(phi, n):
    """The climbs' accept factor: 1 - 4 N eps, the allowance of every witnessed value."""
    return rounded_down(1.0, n, phi.domain.ambient_dim, phi.images().shape[-1])


def _reference_search_unitary(phi, n, trials, rng, accept):
    """The unitary climb as written before the two climbs shared one loop.

    A candidate is accepted when its score times accept beats the start's.
    Returns the best point's coordinates and the number of steps climbed.
    """
    d = phi.domain.ambient_dim
    nd = n * d
    images = phi.images()
    unit_images = (phi.domain._vec_pinv.T @ images.reshape(images.shape[0], -1)).reshape(
        d * d, *images.shape[1:]
    )

    def values(mats):
        return _batch_norms(unit_images, matrix_blocks(mats, n))

    g = rng.standard_normal((trials, nd, nd)) + 1j * rng.standard_normal((trials, nd, nd))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    vals = values(q)

    starts = min(oracle._CLIMB_STARTS, trials)
    keep = np.argsort(vals)[::-1][:starts]
    cur = q[keep].copy()
    best = vals[keep].copy()
    step = np.full(starts, 0.3)
    shape = (starts, oracle._CLIMB_PROPOSALS, nd, nd)
    draws = oracle._step_draws(rng, shape, oracle._rotation_generators)
    for steps, (w, v, vh) in enumerate(draws, 1):
        phase = np.exp(1j * step[:, None, None] * w)
        rot = (v * phase[..., None, :]) @ vh
        cand = (rot @ cur[:, None]).reshape(starts * oracle._CLIMB_PROPOSALS, nd, nd)
        cv = values(cand).reshape(starts, oracle._CLIMB_PROPOSALS)
        bi = np.argmax(cv, axis=1)
        bv = cv[np.arange(starts), bi]
        improved = bv * accept > best
        cur[improved] = cand.reshape(shape)[improved, bi[improved]]
        best[improved] = bv[improved]
        step = np.where(improved, np.minimum(step * oracle._CLIMB_GROW, 1.0),
                        step * oracle._CLIMB_DECAY)
        if step.max() < oracle._STOP_STEP:
            break
    top = int(np.argmax(best))
    return unrealize(phi.domain, n, cur[top]), steps


def _reference_search_coords(phi, n, trials, rng, accept):
    """The coordinate climb as written before the two climbs shared one loop.

    A candidate is accepted when its score times accept beats the start's.
    Returns the best point and the number of steps climbed.
    """
    k = phi.domain.dim
    stack = phi.domain._stack
    images = phi.images()

    def normalize(batch):
        norms = np.maximum(_batch_norms(stack, batch), 1e-300)
        return batch / norms[:, None, None, None]

    shape = (trials, n, n, k)
    xs = normalize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    vals = _batch_norms(images, xs)

    starts = min(oracle._CLIMB_STARTS, trials)
    keep = np.argsort(vals)[::-1][:starts]
    cur = xs[keep].copy()
    best = vals[keep].copy()
    step = np.full(starts, 0.5)
    shape = (starts, oracle._CLIMB_PROPOSALS, n, n, k)
    for steps, (noise,) in enumerate(oracle._step_draws(rng, shape, lambda z: (z,)), 1):
        cand = cur[:, None] + step[:, None, None, None, None] * noise
        cand = normalize(cand.reshape(starts * oracle._CLIMB_PROPOSALS, n, n, k))
        cv = _batch_norms(images, cand).reshape(starts, oracle._CLIMB_PROPOSALS)
        bi = np.argmax(cv, axis=1)
        bv = cv[np.arange(starts), bi]
        improved = bv * accept > best
        cur[improved] = cand.reshape(shape)[improved, bi[improved]]
        best[improved] = bv[improved]
        step = np.where(improved, np.minimum(step * oracle._CLIMB_GROW, 2.0),
                        step * oracle._CLIMB_DECAY)
        if step.max() < oracle._STOP_STEP:
            break
    return cur[int(np.argmax(best))], steps


def _random_subspace_map():
    rng = np.random.default_rng([20261018, 5])
    V = random_subspace(2, 3, rng)
    images = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    return make_map(V, full_matrix_space(2), list(images), "random_sub3")


@pytest.mark.parametrize(
    "make_phi, level",
    [
        (lambda: get_entry("schur_M2").map, 2),
        (_embedding_of_m1, 1),
        (_upper_triangular_inclusion, 2),
        (_random_subspace_map, 2),
    ],
    ids=("unitary", "unitary_stops_early", "coordinate_stops_early", "coordinate_random"),
)
def test_climbs_match_the_reference_bitwise(make_phi, level):
    phi = make_phi()
    full = phi.domain.is_full_matrix_algebra
    search = oracle._search_unitary if full else oracle._search_coords
    reference = _reference_search_unitary if full else _reference_search_coords
    for seed in (0, 4):
        rng_args = [oracle._SEED_TAG, seed, level]
        got = search(phi, level, 200, np.random.default_rng(rng_args))
        want, _ = reference(phi, level, 200, np.random.default_rng(rng_args), _accept(phi, level))
        assert got.tobytes() == want.tobytes(), seed


@pytest.mark.parametrize(
    "name, level",
    [("identity_M2", 1), ("transpose_M2", 1), ("transpose_M3", 1), ("schur_M2", 2)],
)
def test_climb_stops_on_a_rounding_plateau(name, level):
    # On these maps every rise after the climb's first few hundred steps is
    # rounding noise.  Accepting it (factor 1.0) grows the step on every
    # noisy rise, so the climb never decays and runs all _CLIMB_STEPS; the
    # accept factor lets it stop, at no more than the allowance's cost.
    phi = get_entry(name).map
    accept = _accept(phi, level)

    def climb(factor):
        rng = np.random.default_rng([oracle._SEED_TAG, 4, level])
        coords, steps = _reference_search_unitary(phi, level, 200, rng, factor)
        return witnessed_value(phi.domain, phi.images(), level, coords)[0], steps

    old, old_steps = climb(1.0)
    new, new_steps = climb(accept)
    assert old_steps == oracle._CLIMB_STEPS
    assert new_steps < oracle._CLIMB_STEPS
    assert new >= old * accept


def test_brute_subspace_domain_fallback():
    # Proper subspace domain exercises the coordinate-perturbation path.
    value, _ = brute_search(_upper_triangular_inclusion(), 2, trials=500, seed=2)
    assert value >= 1.0 - 5e-3  # inclusion is a complete isometry
    assert value <= 1.0 + 1e-9


@pytest.mark.parametrize("level", (0, -1))
def test_brute_search_rejects_level_below_one(level):
    with pytest.raises(InvalidLevel, match="level must be a positive integer"):
        brute_search(get_entry("identity_M2").map, level)


def test_batch_norms_match_svd_reference():
    # The climbs score by sqrt(lambda_max(A A*)); the SVD is the reference.
    rng = np.random.default_rng(SEED)
    cases = [(full_matrix_space(d)._stack, n) for d in (1, 2, 3) for n in range(1, 12 // d + 1)]
    rank_one = get_entry("rank_one_M2").map.images()  # 1 x 1 images
    cases += [(rank_one, 1), (rank_one, 3)]
    for stack, n in cases:
        shape = (6, n, n, stack.shape[0])
        coords = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coords[0] = 0.0
        coords[1, 1:] = coords[1, :, 1:] = 0.0  # one nonzero block: rank <= d
        got = _batch_norms(stack, coords)
        want = np.linalg.svd(realize_batch(stack, coords), compute_uv=False)[:, 0]
        assert got[0] == 0.0
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_brute_never_exceeds_certified_caps():
    for name in ("identity_M2", "transpose_M2", "schur_M2", "trace_M2"):
        phi = get_entry(name).map
        base_hi = build_level_table(phi, 1, seed=SEED).bracket_at(1).hi
        for n in (1, 2):
            brute, _ = brute_search(phi, n, trials=300, seed=SEED)
            assert brute <= n * base_hi + 1e-9


def test_cross_validate_catalog_subset():
    for name in ("identity_M2", "transpose_M2", "schur_M2", "diag_M2"):
        table = build_level_table(get_entry(name).map, 3, seed=SEED)
        report = cross_validate(table, trials=300, seed=3, max_level=3)
        assert report.passed, report.to_json_dict()["rows"]


@pytest.mark.parametrize("s", (0, 1, 2))
def test_cross_validate_random_subspace_domain(s):
    # The ascent's lower bound on a proper-subspace domain must come within
    # the oracle's 5e-3 of its brute-force value at every level.
    rng = np.random.default_rng([20261018, s])
    V = random_subspace(2, 3, rng)
    images = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    phi = make_map(V, full_matrix_space(2), list(images))
    report = cross_validate(build_level_table(phi, 2, seed=0), trials=500, seed=0, max_level=2)
    assert report.passed


def test_cross_validate_zero_map_trivially_consistent():
    table = build_level_table(get_entry("zero_M2").map, 3)
    report = cross_validate(table, trials=50, seed=0, max_level=3)
    assert report.passed
    assert all(r["brute_lo"] == 0.0 for r in report.rows)


def test_cross_validate_flags_corrupted_table():
    # Negative control: an upper bound below the truth must be reported.
    phi = get_entry("identity_M2").map
    good = build_level_table(phi, 2, seed=SEED)
    bad_bracket = NormBracket(0.4, 0.5, "optimizer", "optimizer")
    tampered = LevelNormTable(
        map=phi,
        entries=(
            LevelEntry(1, bad_bracket, good.entries[0].witness),
            good.entries[1],
        ),
        budget=DEFAULT_BUDGET,
        seed=SEED,
    )
    report = cross_validate(tampered, trials=200, seed=3, max_level=2)
    assert not report.passed
    assert not report.rows[0]["hi_ok"]


@pytest.mark.parametrize("scale", (1e-20, 1.0, 1e20))
def test_cross_validate_rejects_a_halved_table_at_every_scale(scale):
    # Every bracket halved puts the brute value twice above each hi and lo; an
    # absolute 1e-9 slack let that pass at scale 1e-20.
    phi = scaled_map(get_entry("transpose_M2").map, scale)
    table = build_level_table(phi, 2, seed=0)
    halved = tuple(
        replace(e, bracket=replace(e.bracket, lo=e.bracket.lo / 2, hi=e.bracket.hi / 2))
        for e in table.entries
    )
    report = cross_validate(replace(table, entries=halved), trials=100, seed=0, max_level=2)
    assert not report.passed
    assert not any(r["hi_ok"] or r["lo_ok"] for r in report.rows)


def test_report_json_serializable():
    import json

    table = build_level_table(get_entry("trace_M2").map, 2, seed=SEED)
    report = cross_validate(table, trials=100, seed=3, max_level=2)
    payload = json.dumps(report.to_json_dict(), sort_keys=True)
    assert "brute_lo" in payload

    def old_pairs(a):  # the per-element encoder used before spaces.to_pairs
        return [float(a.real), float(a.imag)] if np.ndim(a) == 0 else [old_pairs(b) for b in a]

    old_rows = [dict(r, witness=old_pairs(np.asarray(r["witness"]))) for r in report.rows]
    old = {"label": report.label, "passed": report.passed, "rows": old_rows}
    assert payload == json.dumps(old, sort_keys=True)
