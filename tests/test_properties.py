"""The paper's own properties of the level norms and the series, on random maps with no known truth.

||.||_p is a norm on N^p(V, W), and every level norm ||phi_n|| is invariant
under unitaries on both sides.  Each relation below is a theorem, so a
bracket that breaks one proves a bug, and none of them needs the true value.
At every level 1..s and for the series at each p of P_GRID:

- invariance: the brackets of phi and of its rotation
  phi'(y) = U1 phi(W1* y W2*) U2 on V' = W1 V W2 overlap, and a witness x' of
  phi' mapped back, x = W1* x' W2*, certifies at least its lo for phi
  (``spaces.witnessed_value``);
- homogeneity: the brackets of c phi are |c| times phi's;
- subadditivity: lo(phi + psi) <= hi(phi) + hi(psi).

Every comparison is ``bracket.within`` with a slack of REL relative to its
bound, so a check decides alike at every scale of its map: the last test plants
a 1% fault and finds it at scale 1 and at 1e-20.  The maps and their tables are
built once per process, and their series read the process-wide zeta cache.
"""

from functools import lru_cache

import numpy as np
import pytest

from npspace import (
    LinearMapRep,
    build_level_table,
    element_from_matrix,
    full_matrix_space,
    get_entry,
    make_map,
    make_space,
    np_norm,
    random_subspace,
)
from npspace.bracket import within
from npspace.maps import LevelEntry, scaled_map, sum_map
from npspace.spaces import realize_batch, witnessed_value

SEED = 29
P_GRID = (1.5, 2.0, 3.0)
SCALES = (2.5, 1e-20)

# Rounding allowance of every relation, relative to its bound.  The worst seen on these
# maps is 3e-15 (a rotated hi, and a hi of c phi); the planted fault is 1e-2.
REL = 1e-12

# name -> (d, k, m): phi maps a k-dimensional subspace V of M_d into M_m.  k = None is
# M_d itself with its matrix units; k = 4 in M2 is M2 in a random basis.
SHAPES = {
    "M2_to_M2": (2, None, 2),
    "M3_to_M3": (3, None, 3),
    "sub3_of_M2_to_M3": (2, 3, 3),
    "sub4_of_M2_to_M2": (2, 4, 2),
    "sub3_of_M3_to_M2": (3, 3, 2),
    "sub4_of_M3_to_M3": (3, 4, 3),
}


def _haar_unitary(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _random_coeff(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _rotated(phi, rng):
    """phi'(y) = U1 phi(W1* y W2*) U2 on V' = W1 V W2, with Haar-random unitaries, and (W1, W2)."""
    d, m = phi.domain.ambient_dim, phi.codomain.ambient_dim
    w1, w2, u1, u2 = (_haar_unitary(rng, k) for k in (d, d, m, m))
    domain = make_space(d, [w1 @ b @ w2 for b in phi.domain._stack], f"W1 {phi.domain.label} W2")
    images = [u1 @ y @ u2 for y in phi.images()]
    return make_map(domain, full_matrix_space(m), images, f"rotated {phi.label}"), (w1, w2)


def _table(phi):
    return build_level_table(phi, phi.stabilization_level, seed=SEED)


@lru_cache(maxsize=None)
def _case(name):
    """phi, a second map psi on its spaces, phi's rotation and its (W1, W2), seeded by name."""
    d, k, m = SHAPES[name]
    rng = np.random.default_rng([SEED, sorted(SHAPES).index(name)])
    domain = full_matrix_space(d) if k is None else random_subspace(d, k, rng, f"V{k}")
    codomain = full_matrix_space(m)
    phi, psi = (
        LinearMapRep(domain, codomain, _random_coeff(rng, m * m, domain.dim), label)
        for label in ("phi", "psi")
    )
    return phi, psi, *_rotated(phi, rng)


@lru_cache(maxsize=None)
def _tables(name):
    """The level tables of phi, psi and phi', each to phi's stabilization level."""
    return tuple(_table(f) for f in _case(name)[:3])


def _series(phi, table):
    return [np_norm(phi, p, table).bracket for p in P_GRID]


def _overlap(a, b, what):
    """Brackets a and b of one norm value, each certified, must overlap."""
    assert within(a.lo, b.hi, REL) and within(b.lo, a.hi, REL), (what, a, b)


def _check_invariance(phi, table, rotated, rotated_table, w1, w2):
    for a, b in zip(table.entries, rotated_table.entries):
        n = a.level
        _overlap(a.bracket, b.bracket, f"level {n}")
        x = realize_batch(rotated.domain._stack, b.witness)
        x = np.kron(np.eye(n), w1.conj().T) @ x @ np.kron(np.eye(n), w2.conj().T)
        back = element_from_matrix(phi.domain, n, x).coords
        value, _ = witnessed_value(phi.domain, phi.images(), n, back)
        assert within(b.bracket.lo, value, REL), (f"level {n}", "witness back", b.bracket, value)
    for p, a, b in zip(P_GRID, _series(phi, table), _series(rotated, rotated_table)):
        _overlap(a, b, f"series at p = {p}")


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_a_rotation_has_overlapping_brackets_and_a_witness_that_maps_back(name):
    phi, _, rotated, (w1, w2) = _case(name)
    table, _, rotated_table = _tables(name)
    _check_invariance(phi, table, rotated, rotated_table, w1, w2)


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_the_brackets_of_c_phi_are_c_times_phis(name, c):
    phi = _case(name)[0]
    table = _tables(name)[0]
    psi = scaled_map(phi, c)
    psi_table = _table(psi)
    rows = [e.bracket for e in table.entries] + _series(phi, table)
    scaled = [e.bracket for e in psi_table.entries] + _series(psi, psi_table)
    for i, (a, b) in enumerate(zip(rows, scaled)):
        for side in ("lo", "hi"):
            want, got = abs(c) * getattr(a, side), getattr(b, side)
            assert within(got, want, REL) and within(want, got, REL), (i, side, got, want)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_the_lo_of_a_sum_is_at_most_the_sum_of_the_his(name):
    phi, psi, _, _ = _case(name)
    table, psi_table, _ = _tables(name)
    sigma = sum_map(phi, psi)
    sigma_table = _table(sigma)
    for a, b, s in zip(table.entries, psi_table.entries, sigma_table.entries):
        bound = a.bracket.hi + b.bracket.hi
        assert within(s.bracket.lo, bound, REL), (f"level {a.level}", s.bracket, bound)
    series = zip(P_GRID, _series(phi, table), _series(psi, psi_table), _series(sigma, sigma_table))
    for p, a, b, s in series:
        assert within(s.lo, a.hi + b.hi, REL), (f"series at p = {p}", s, a.hi + b.hi)


def _lowered(table, factor):
    """table with every hi times factor, past the lo <= hi check of ``NormBracket``."""
    entries = []
    for e in table.entries:
        bracket = object.__new__(type(e.bracket))
        bracket.__dict__.update(vars(e.bracket), hi=e.bracket.hi * factor)
        entries.append(LevelEntry(e.level, bracket, e.witness))
    return type(table)(table.map, tuple(entries), table.budget, table.seed)


@pytest.mark.parametrize("scale", (1.0, 1e-20))
def test_a_rotation_whose_his_are_lowered_by_1_percent_fails(scale):
    # Negative control: identity_M2's rows are closed (lo within 1e-11 of hi),
    # so a 1% lower hi on its rotation leaves the two brackets disjoint.  With
    # an absolute slack of 1e-8 the fault would pass at scale 1e-20.
    phi = scaled_map(get_entry("identity_M2").map, scale)
    table = _table(phi)
    assert all(within(e.bracket.hi, e.bracket.lo, 1e-11) for e in table.entries)
    rotated, (w1, w2) = _rotated(phi, np.random.default_rng([SEED, 99]))
    with pytest.raises(AssertionError, match="level 1"):
        _check_invariance(phi, table, rotated, _lowered(_table(rotated), 0.99), w1, w2)
