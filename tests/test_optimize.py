"""Batched ascent: determinism, feasible witnesses, re-checked values."""

import numpy as np
import pytest

from npspace import (
    full_matrix_space,
    get_entry,
    list_entries,
    make_map,
    make_space,
    maps,
    optimize,
    random_subspace,
)
from npspace.bracket import within
from npspace.optimize import (
    _AGREE_REL,
    _SEED_TAG,
    _STALL_LIMIT,
    _STEP_GROW,
    _STEP_SHRINK,
    _STEP_START,
    DEFAULT_BUDGET,
    AscentOutcome,
    OptBudget,
    _starts,
    maximize_amplified_norm,
)
from npspace.spaces import (
    SpaceElement,
    level_norm,
    realize,
    realize_batch,
    rounded_down,
    spectral_norm,
    top_singular_pairs,
    unrealize,
)


def _subspace_map():
    # A random 3-dim subspace of M2 mapped into M2: the gradient-step path.
    rng = np.random.default_rng(20261018)
    V = random_subspace(2, 3, rng, "sub3_of_M2")
    images = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    return make_map(V, full_matrix_space(2), list(images), "sub3_to_M2")


MAPS = {
    "proper_subspace": _subspace_map,
    "full_algebra": lambda: get_entry("transpose_M2").map,
}


@pytest.mark.parametrize("level", (1, 2))
@pytest.mark.parametrize("which", sorted(MAPS))
def test_ascent_is_deterministic_feasible_and_rechecked(which, level):
    phi = MAPS[which]()
    images = phi.images()
    a = maximize_amplified_norm(phi.domain, images, level, seed=3)
    b = maximize_amplified_norm(phi.domain, images, level, seed=3)
    assert a.coords.tobytes() == b.coords.tobytes()
    assert (a.value, a.converged, a.support) == (b.value, b.converged, b.support)

    assert level_norm(SpaceElement(phi.domain, level, a.coords)) <= 1.0 + 1e-12
    image_norm = spectral_norm(realize_batch(images, a.coords))
    assert abs(a.value - image_norm) <= 1e-12 * max(1.0, image_norm)
    assert a.value > 0.0


@pytest.mark.parametrize("which", sorted(MAPS))
def test_zero_map_returns_exact_zero(which):
    phi = MAPS[which]()
    zero = np.zeros_like(phi.images())
    out = maximize_amplified_norm(phi.domain, zero, 2, seed=3)
    assert isinstance(out, AscentOutcome)
    assert (out.value, out.converged, out.support) == (0.0, True, DEFAULT_BUDGET.restarts)
    assert out.coords.shape == (2, 2, zero.shape[0])
    assert not np.any(out.coords)


@pytest.mark.parametrize("tol", (float("nan"), float("inf"), 0.0, -1e-11, 1.0, 2.0))
def test_budget_rejects_tol_that_is_not_a_positive_finite_number(tol):
    # A NaN tol once let no restart converge, so the hi of M_d levels fell
    # back to the looser coefficient relaxation without a word.  At tol >= 1
    # hi (1 - tol) <= 0 closed every level from 2 on with no search: with
    # tol = 1, transpose_M3 read lo 1.0 at levels 2 and 3, whose norms are 2 and 3.
    with pytest.raises(ValueError, match="invalid budget"):
        OptBudget(tol=tol)


def _reference_representer(gram_inv, stack, n, u, v):
    """Coordinates of the element w of M_n(V) with Re<w, x>_F = Re<u, y(x) v>,
    y(x) being x realized against ``stack``, by one einsum per call."""
    e = stack.shape[-1]
    g = np.einsum("ria,tab,rjb->rijt", u.reshape(-1, n, e).conj(), stack, v.reshape(-1, n, e))
    return g.conj() @ gram_inv.T


def _reference_starts(seed, n, size, restarts):
    """The start vectors (u0, v0), one default_rng per restart and one
    np.linalg.norm per vector."""

    def unit(rng, size):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return z / np.linalg.norm(z)

    starts = []
    for r in range(restarts):
        rng = np.random.default_rng([_SEED_TAG, seed, n, r])
        starts.append((unit(rng, size), unit(rng, size)))
    return tuple(np.stack(side) for side in zip(*starts))


@pytest.mark.parametrize("restarts", (1, 3, 20))
@pytest.mark.parametrize("seed", (0, 7, 2**32, 2**40 + 3, 10**20))
def test_starts_are_the_per_restart_stream_bitwise(seed, restarts):
    # The ascent tests compare values to 1e-12 only; this pins every bit of
    # every start, so a change of stream cannot pass unseen.  Starting the
    # draws at a later restart gives the same streams for the restarts drawn.
    for n in range(1, 5):
        for m in range(1, 6):
            want = _reference_starts(seed, n, n * m, restarts)
            for first in sorted({0, 1, restarts - 1} - {restarts}):
                got = _starts(seed, n, n * m, restarts, first)
                assert [a.shape for a in got] == [(restarts - first, n * m)] * 2
                assert [a.tobytes() for a in got] == [a[first:].tobytes() for a in want], (n, m)


def _reference_ascent(space, images, level, budget, seed):
    """Reference ascent: every restart iterated until it stalls.

    On M_d each restart is a realized polar factor, started from the polar
    factor of its start representer.  It un-realizes each one and realizes
    its image against the images, and it builds each representer by one
    einsum and realizes it against the basis, so none of the ascent's
    realized kernel is reused.  Rejected polar steps are proposed again
    until the stall rule fires.  On a proper subspace it is the gradient
    loop that realizes, represents and sizes each side on its own, with two
    eigensolves per evaluation.  Also returns, per restart, the iterations
    it took up to and including its first rejection (or until it left the
    loop without one), and the number of restarts each evaluation realized.
    """
    n = int(level)
    stack = space._stack
    gram_inv = space._vec_pinv @ space._vec_pinv.conj().T
    full = space.is_full_matrix_algebra

    u0, v0 = _reference_starts(seed, n, n * images.shape[1], budget.restarts)
    evaluated = []

    def evaluate(x):
        evaluated.append(len(x))
        if full:  # x a realized polar factor, of norm 1: the image side alone
            img = top_singular_pairs(realize_batch(images, unrealize(space, n, x)))
            return img[0], img
        img, img_u, img_v = top_singular_pairs(realize_batch(images, x))
        dom, dom_u, dom_v = top_singular_pairs(realize_batch(stack, x))
        return img / dom, (img, img_u, img_v, dom, dom_u, dom_v)

    def represent(u, v):
        w = _reference_representer(gram_inv, images, n, u, v)
        if not full:
            return w
        pu, _, pvh = np.linalg.svd(realize_batch(stack, w))
        return pu @ pvh

    x = represent(u0, v0)
    ratio, pairs = evaluate(x)
    step = np.full(budget.restarts, _STEP_START)
    stall = np.zeros(budget.restarts, dtype=int)
    converged = np.zeros(budget.restarts, dtype=bool)
    rejected = np.zeros(budget.restarts, dtype=bool)
    taken = np.zeros(budget.restarts, dtype=int)
    for _ in range(budget.max_iter):
        live = np.flatnonzero(~converged)
        if live.size == 0:
            break
        img, img_u, img_v, *dom_pair = (p[live] for p in pairs)
        if full:
            prop = represent(img_u, img_v)
        else:
            dom, dom_u, dom_v = dom_pair
            grad = represent(img_u, img_v) / img[:, None, None, None] - _reference_representer(
                gram_inv, stack, n, dom_u, dom_v
            ) / dom[:, None, None, None]
            size = np.linalg.norm(realize_batch(stack, grad), axis=(-2, -1))
            t = np.divide(step[live] * dom, size, out=np.zeros_like(size), where=size > 0)
            prop = x[live] + t[:, None, None, None] * grad
        new_ratio, new_pairs = evaluate(prop)
        old = ratio[live]
        keep = new_ratio > old
        taken[live[~rejected[live]]] += 1
        rejected[live[~keep]] = True
        took = live[keep]
        x[took] = prop[keep]
        ratio[took] = new_ratio[keep]
        for p, q in zip(pairs, new_pairs):
            p[took] = q[keep]
        step[live] *= np.where(keep, _STEP_GROW, _STEP_SHRINK)
        small = new_ratio - old < budget.tol * ratio[live]
        stall[live] = np.where(small, stall[live] + 1, 0)
        converged[live] = stall[live] >= _STALL_LIMIT

    best = int(np.argmax(ratio))
    support = int(
        np.sum(converged & (np.abs(ratio - ratio[best]) <= _AGREE_REL * ratio[best]))
    )
    coords = unrealize(space, n, x[best]) if full else x[best]
    best_x = coords / spectral_norm(realize(SpaceElement(space, n, coords)))
    value = spectral_norm(realize_batch(images, best_x))
    # The same rounding down as the ascent's, so that only the loops differ.
    value = rounded_down(value, n, space.ambient_dim, images.shape[1])
    conv = bool(converged[best]) and support >= 2
    return AscentOutcome(value, best_x, conv, support), taken, evaluated


def _random_full_map(d, m, seed):
    rng = np.random.default_rng([20261018, d, m, seed])
    images = rng.standard_normal((d * d, m, m)) + 1j * rng.standard_normal((d * d, m, m))
    return make_map(full_matrix_space(d), full_matrix_space(m), list(images), f"rand_{d}_{m}")


RANDOM_SPECS = ((1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3))
RANDOM_MAPS = {
    f"random_M{d}_to_M{m}": (lambda d=d, m=m, s=s: _random_full_map(d, m, s))
    for s, (d, m) in enumerate(RANDOM_SPECS)
}
CATALOG_MAPS = {e.name: (lambda e=e: e.map) for e in list_entries() if not e.map.is_zero}
FULL_MAPS = CATALOG_MAPS | RANDOM_MAPS
BUDGETS = (OptBudget(20, 200, 1e-11), OptBudget(1, 200, 1e-11), OptBudget(3, 4, 1e-11),
           OptBudget(5, 3, 1e-6))


@pytest.mark.parametrize("budget", BUDGETS, ids=str)
@pytest.mark.parametrize("which", sorted(FULL_MAPS))
def test_full_algebra_ascent_matches_the_stall_loop(which, budget):
    # Ending a restart at its first rejected polar step must give what
    # running it on until the stall rule fires gives, within the budget.
    phi = FULL_MAPS[which]()
    images = phi.images()
    for level in range(1, phi.codomain.ambient_dim + 1):
        for seed in (0, 7):
            got = maximize_amplified_norm(phi.domain, images, level, budget, seed)
            ref, _, _ = _reference_ascent(phi.domain, images, level, budget, seed)
            assert (got.converged, got.support) == (ref.converged, ref.support), level
            assert abs(got.value - ref.value) <= 1e-12 * max(1.0, ref.value), level


def _haar_unitary(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


@pytest.mark.parametrize("which", sorted(FULL_MAPS))
def test_full_algebra_search_is_basis_free(which):
    # The M_d search runs on realized matrices and reads the basis only to
    # un-realize its witness.  Cloned into a Haar-random orthonormal basis
    # b'_t = sum_s Q_st b_s, with the images changed the same way, a map gets
    # the same search: the same restarts converge and agree, and the same value
    # to rounding.
    phi = FULL_MAPS[which]()
    q = _haar_unitary(np.random.default_rng(20261019), phi.domain.dim)
    clone = make_space(phi.domain.ambient_dim, list(np.einsum("sab,st->tab", phi.domain._stack, q)))
    images = np.einsum("sab,st->tab", phi.images(), q)
    for level in range(1, phi.stabilization_level + 1):
        for seed in (0, 7):
            want = maximize_amplified_norm(phi.domain, phi.images(), level, DEFAULT_BUDGET, seed)
            got = maximize_amplified_norm(clone, images, level, DEFAULT_BUDGET, seed)
            assert (got.converged, got.support) == (want.converged, want.support), (level, seed)
            assert within(got.value, want.value, 1e-12), (level, seed)
            assert within(want.value, got.value, 1e-12), (level, seed)


def _first_rejection_batches(ratios, budget):
    """The restarts each evaluation of an M_d ascent must hold, replayed on its own
    ``ratios`` (one array per evaluation, rows in restart order).  Restart 0 starts
    and steps alone, then the others start, and a restart is evaluated until its
    first proposal that does not raise its ratio, its ``_STALL_LIMIT``-th rise
    under ``budget.tol`` in a row, or its ``max_iter``-th step."""
    r = budget.restarts
    ratio, stall, steps = np.concatenate([ratios[0], ratios[2]]), np.zeros(r, int), np.zeros(r, int)

    def step(live, new):
        assert len(new) == len(live)
        old = ratio[live]
        keep = new > old
        ratio[live[keep]] = new[keep]
        steps[live] += 1
        stall[live] = np.where(new - old < budget.tol * ratio[live], stall[live] + 1, 0)
        return live[keep & (stall[live] < _STALL_LIMIT) & (steps[live] < budget.max_iter)]

    batches = [[0], [0], list(range(1, r))]
    live = np.concatenate([step(np.array([0]), ratios[1]), np.arange(1, r)])
    for new in ratios[3:]:
        batches.append(live.tolist())
        live = step(live, new)
    assert live.size == 0
    return batches


@pytest.mark.parametrize(("name", "level"), (("transpose_M3", 2), ("schur_M2", 1)))
def test_full_algebra_restart_evaluates_nothing_after_its_first_rejection(
    monkeypatch, name, level
):
    # Every restart of transpose_M3 at level 2 starts at the optimum, so which of
    # its steps rise is decided by rounding alone: the rule is replayed on the
    # ascent's own ratios, not compared with another loop's.
    phi = get_entry(name).map
    counted, ratios = [], []

    def counting(mats):
        counted.append(mats.shape[0])
        pairs = top_singular_pairs(mats)
        ratios.append(pairs[0].copy())
        return pairs

    monkeypatch.setattr(optimize, "top_singular_pairs", counting)
    maximize_amplified_norm(phi.domain, phi.images(), level, DEFAULT_BUDGET, 3)
    # One realization (the image) per restart: the starts, then every
    # iteration up to and including the first rejection.
    assert counted == [len(b) for b in _first_rejection_batches(ratios, DEFAULT_BUDGET)]


def _random_subspace_map(d, kdim, m, seed):
    rng = np.random.default_rng([20261018, d, kdim, m, seed])
    V = random_subspace(d, kdim, rng, f"sub{kdim}_of_M{d}")
    images = rng.standard_normal((kdim, m, m)) + 1j * rng.standard_normal((kdim, m, m))
    return make_map(V, full_matrix_space(m), list(images), f"sub{kdim}_of_M{d}_to_M{m}")


def _inclusion_map():
    V = random_subspace(3, 4, np.random.default_rng([20261018, 3, 4]), "sub4_of_M3")
    return make_map(V, full_matrix_space(3), list(V._stack), "inclusion_sub4_of_M3")


SUBSPACE_MAPS = {
    phi().label: phi
    for phi in (
        _subspace_map,
        lambda: _random_subspace_map(2, 2, 2, 0),
        lambda: _random_subspace_map(3, 4, 3, 1),
        lambda: _random_subspace_map(3, 7, 3, 2),
        lambda: _random_subspace_map(2, 3, 3, 3),  # d != m: two eigensolves
        lambda: _random_subspace_map(3, 5, 2, 4),  # d != m: two eigensolves
        _inclusion_map,
    )
}


@pytest.mark.parametrize("budget", BUDGETS, ids=str)
@pytest.mark.parametrize("which", sorted(SUBSPACE_MAPS))
def test_subspace_ascent_matches_the_two_sided_loop(which, budget):
    # Realizing, representing and sizing both sides together moves only
    # rounding: the same search, the same restarts converge and agree.
    phi = SUBSPACE_MAPS[which]()
    images = phi.images()
    for level in range(1, phi.codomain.ambient_dim + 1):
        for seed in (0, 7):
            got = maximize_amplified_norm(phi.domain, images, level, budget, seed)
            ref, _, _ = _reference_ascent(phi.domain, images, level, budget, seed)
            assert (got.converged, got.support) == (ref.converged, ref.support), level
            assert abs(got.value - ref.value) <= 1e-12 * max(1.0, ref.value), level


@pytest.mark.parametrize("which", sorted(SUBSPACE_MAPS))
def test_subspace_search_is_free_of_the_basis_conditioning(which):
    # The search runs in an orthonormal basis of V, so it belongs to V and the map,
    # not to the basis given for V.  Changed by A = U1 diag(1 .. 1e-7) U2, basis and
    # images alike, a map gets the same search: the same restarts converge and agree,
    # and the value moves by rounding amplified by cond(A) = 1e7 at most.  A search
    # through V^H V, which squares cond(A), misses this bound.
    phi = SUBSPACE_MAPS[which]()
    k = phi.domain.dim
    rng = np.random.default_rng(20261020)
    a = _haar_unitary(rng, k) * np.geomspace(1.0, 1e-7, k) @ _haar_unitary(rng, k)
    clone = make_space(phi.domain.ambient_dim, list(np.einsum("sab,st->tab", phi.domain._stack, a)))
    images = np.einsum("sab,st->tab", phi.images(), a)
    for level in range(1, phi.stabilization_level + 1):
        for seed in (0, 7):
            want = maximize_amplified_norm(phi.domain, phi.images(), level, DEFAULT_BUDGET, seed)
            got = maximize_amplified_norm(clone, images, level, DEFAULT_BUDGET, seed)
            assert (got.converged, got.support) == (want.converged, want.support), (level, seed)
            assert within(got.value, want.value, 1e-7), (level, seed)
            assert within(want.value, got.value, 1e-7), (level, seed)


def _outcome_bits(outcome):
    return outcome.value.hex(), outcome.coords.tobytes(), outcome.converged, outcome.support


# Random M_d -> M_m maps that their certificates leave open (a map from or to M1
# is closed by its own).
OPEN_RANDOM_MAPS = {name: phi for name, phi in RANDOM_MAPS.items() if "M1" not in name}


@pytest.mark.parametrize("which", sorted(SUBSPACE_MAPS | OPEN_RANDOM_MAPS))
def test_an_unreached_certificate_leaves_the_ascent_bitwise(which):
    # A certified hi that no restart reaches stops nothing: value, witness,
    # convergence and support are those of the ascent given no hi, which the
    # one-batch reference checks above.  On M_d restart 0 leads either way.
    phi = (SUBSPACE_MAPS | OPEN_RANDOM_MAPS)[which]()
    haagerup = maps.haagerup_bounds(phi)
    for level in range(1, phi.codomain.ambient_dim + 1):
        hi, _ = maps._certificate(phi, level, haagerup)
        for seed in (0, 7):
            free = maximize_amplified_norm(phi.domain, phi.images(), level, DEFAULT_BUDGET, seed)
            assert free.value < hi * (1.0 - DEFAULT_BUDGET.tol), (level, seed)
            got = maximize_amplified_norm(phi.domain, phi.images(), level, DEFAULT_BUDGET, seed, hi)
            assert _outcome_bits(got) == _outcome_bits(free), (level, seed)


def _counting_polar(monkeypatch):
    """The number of matrices of every polar factor the ascent takes, as it takes them."""
    counted, polar = [], optimize._polar

    def counting(mats):
        counted.append(len(mats))
        return polar(mats)

    monkeypatch.setattr(optimize, "_polar", counting)
    return counted


def _recording_starts(monkeypatch):
    """The (restarts, first) of every ``_starts`` call the ascent makes, as it makes them."""
    drawn = []

    def recording(seed, n, size, restarts, first=0):
        drawn.append((restarts, first))
        return _starts(seed, n, size, restarts, first)

    monkeypatch.setattr(optimize, "_starts", recording)
    return drawn


@pytest.mark.parametrize("name, level, hi", (("identity_M2", 2, 1.0), ("transpose_M3", 2, 2.0)))
def test_an_ascent_stopped_by_its_certificate_is_converged(name, level, hi, monkeypatch):
    # Restart 0's start of the identity already reaches hi: its start is the one
    # polar factor taken, no other restart is drawn, and it alone supports the
    # value.  Transpose climbs to 2 and stops there.
    phi = get_entry(name).map
    steps = _counting_polar(monkeypatch)
    drawn = _recording_starts(monkeypatch)
    free = maximize_amplified_norm(phi.domain, phi.images(), level)
    free_steps, steps[:], drawn[:] = len(steps), [], []
    got = maximize_amplified_norm(phi.domain, phi.images(), level, DEFAULT_BUDGET, 0, hi)
    assert got.converged and 1 <= got.support <= DEFAULT_BUDGET.restarts
    assert hi * (1.0 - 2 * DEFAULT_BUDGET.tol) <= got.value <= hi
    assert len(steps) < free_steps
    if name == "identity_M2":
        assert (steps, got.support, drawn) == ([1], 1, [(1, 0)])


@pytest.mark.parametrize("name", sorted(CATALOG_MAPS))
def test_a_row_restart_0_closes_draws_no_other_stream(name, monkeypatch):
    # Restart 0 alone, given one step, tells whether its start or first polar
    # step reaches hi (1 - tol).  Where it does, the ascent draws restart 0's
    # stream only and returns restart 0's outcome; where not, it draws the
    # others once, after that step.
    phi = CATALOG_MAPS[name]()
    haagerup = maps.haagerup_bounds(phi)
    drawn = _recording_starts(monkeypatch)
    for level in range(1, phi.stabilization_level + 1):
        hi, _ = maps._certificate(phi, level, haagerup)
        solo = maximize_amplified_norm(phi.domain, phi.images(), level, OptBudget(1, 1), 0, hi)
        drawn.clear()
        got = maximize_amplified_norm(phi.domain, phi.images(), level, DEFAULT_BUDGET, 0, hi)
        if solo.converged:
            assert drawn == [(1, 0)], level
            assert _outcome_bits(got) == _outcome_bits(solo), level
        else:
            assert drawn == [(1, 0), (DEFAULT_BUDGET.restarts, 1)], level


@pytest.mark.parametrize("which", sorted(OPEN_RANDOM_MAPS))
def test_every_restart_takes_its_max_iter_steps(which, monkeypatch):
    # Restart 0 starts and steps alone once and the others start after it, yet
    # each restart takes max_iter steps from its own start: after the polar
    # factors of the starts (1, then 2), 1 + 3 + 3 + 3 + 2 proposals.
    budget = OptBudget(restarts=3, max_iter=4)
    phi = OPEN_RANDOM_MAPS[which]()
    steps = _counting_polar(monkeypatch)
    for level in range(1, phi.codomain.ambient_dim + 1):
        _, taken, _ = _reference_ascent(phi.domain, phi.images(), level, budget, 0)
        assert taken.tolist() == [budget.max_iter] * budget.restarts, level
        steps.clear()
        maximize_amplified_norm(phi.domain, phi.images(), level, budget, 0)
        assert steps == [1, 1, 2, 3, 3, 3, 2], level


@pytest.mark.parametrize("level", (1, 2))
def test_subspace_evaluation_is_one_eigensolve_of_both_sides(monkeypatch, level):
    # V < M2 -> M2: the image and domain realizations share one batch.
    phi = _subspace_map()
    images = phi.images()
    _, _, evaluated = _reference_ascent(phi.domain, images, level, DEFAULT_BUDGET, 3)

    counted = []

    def counting(mats):
        counted.append(mats.shape[0])
        return top_singular_pairs(mats)

    monkeypatch.setattr(optimize, "top_singular_pairs", counting)
    maximize_amplified_norm(phi.domain, images, level, DEFAULT_BUDGET, 3)
    assert counted == [2 * r for r in evaluated]


@pytest.mark.parametrize("exp", (50, -50))
def test_a_scaled_domain_basis_scales_the_brackets(exp):
    # The stall and agreement tests are relative: scaling the domain basis by a
    # power of two scales every bracket by its inverse and changes no search.
    # With the absolute tests, level 2 of this map read its lo 4.1e-3 low at 2**50.
    rng = np.random.default_rng(5)
    V = random_subspace(2, 2, rng, "V")
    images = list(rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
    M2 = full_matrix_space(2)
    table = maps.build_level_table(make_map(V, M2, images), 2)
    scaled = make_space(2, list(V._stack * 2.0**exp), "V")
    got = maps.build_level_table(make_map(scaled, M2, images), 2)
    for a, b in zip(got.entries, table.entries):
        for side in ("lo", "hi"):
            want = getattr(b.bracket, side)
            assert abs(getattr(a.bracket, side) * 2.0**exp - want) <= 1e-12 * want, (a.level, side)


@pytest.mark.parametrize("which", ("sub3_of_M2_to_M3", "sub5_of_M3_to_M2"))
def test_subspace_evaluation_of_unequal_sides_is_two_eigensolves(monkeypatch, which):
    # V < M_d -> M_m with m != d: the image and domain realizations differ in size,
    # so an evaluation eigensolves the r images (size n m), then the r domains (n d).
    phi = SUBSPACE_MAPS[which]()
    images, d, m = phi.images(), phi.domain.ambient_dim, phi.codomain.ambient_dim
    shapes = []

    def counting(mats):
        shapes.append(mats.shape)
        return top_singular_pairs(mats)

    monkeypatch.setattr(optimize, "top_singular_pairs", counting)
    for level in range(1, phi.stabilization_level + 1):
        _, _, evaluated = _reference_ascent(phi.domain, images, level, DEFAULT_BUDGET, 3)
        shapes.clear()
        maximize_amplified_norm(phi.domain, images, level, DEFAULT_BUDGET, 3)
        sizes = (level * m, level * d)
        want = [(r, e, e) for r in evaluated for e in sizes]
        assert shapes == want, level
