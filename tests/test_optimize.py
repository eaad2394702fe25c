"""Batched ascent: determinism, feasible witnesses, re-checked values."""

import numpy as np
import pytest

from npspace import full_matrix_space, get_entry, make_map, random_subspace
from npspace.optimize import DEFAULT_BUDGET, AscentOutcome, OptBudget, maximize_amplified_norm
from npspace.spaces import SpaceElement, level_norm, realize_batch, spectral_norm


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


@pytest.mark.parametrize("tol", (float("nan"), float("inf"), 0.0, -1e-11))
def test_budget_rejects_tol_that_is_not_a_positive_finite_number(tol):
    # A NaN tol once let no restart converge, so the hi of M_d levels fell
    # back to the looser coefficient relaxation without a word.
    with pytest.raises(ValueError, match="invalid budget"):
        OptBudget(tol=tol)
