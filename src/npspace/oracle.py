"""Brute-force lower bounds used to cross-check the optimizer.

Independent of the ascent machinery on purpose: random unit-norm starts
plus local hill-climbing with an adaptive step (multiplicative decay on
failure).  Values are certified lower bounds only; agreement with the
theory-derived upper bounds is what pins the desk-scale ground truth.

For a full matrix-algebra domain the search walks the unitary group: the
objective is convex on the unit ball, so its maximum sits at an extreme
point, and the extreme points of the spectral ball are exactly the
unitaries.  Climbing there avoids the nonsmooth corner that defeats raw
coordinate perturbations.  Proper subspace domains fall back to normalized
coordinate perturbations.

Both climbs score candidates by sqrt(lambda_max(A A*)) of the realized
batch A, which is cheaper than an SVD and agrees with it to rounding.
Every returned value is re-evaluated through the plain SVD path
(``spaces.spectral_norm``) on the witness, rescaled into the unit ball if
needed, and rounded down, so it is a lower bound from a feasible witness.

The unitary climb realizes A from the blocks of U against phi's images of
the matrix units, with no coordinates in between.  A climb's random draws
do not depend on its state, so they are made _BLOCK steps at a time, the
same numbers in the same order as one draw per step, and the unitary climb
eigendecomposes a block's rotation generators in one call.  The accept and
step rule still runs step by step, so the search does not depend on the
block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import LevelNormTable, LinearMapRep, realize_amplified
from .spaces import (
    SpaceElement,
    matrix_blocks,
    realize,
    realize_batch,
    rounded_down,
    spectral_norm,
    top_singular_values,
    unrealize,
)

_SEED_TAG = 0x4F52

# Hill-climb schedule shared by both search modes.
_CLIMB_STEPS = 1000
_CLIMB_DECAY = 0.95
_CLIMB_GROW = 1.05
_CLIMB_STARTS = 5
_CLIMB_PROPOSALS = 8
_STOP_STEP = 1e-9

# Climb steps whose random draws (and rotation generators) are made at once.
_BLOCK = 20


def _batch_norms(stack: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Spectral norms of a batch of coordinate arrays realized against a stack."""
    return top_singular_values(realize_batch(stack, coords))


def _step_draws(rng, shape: tuple, prepare=lambda z: (z,)):
    """Yield, for every climb step, the step's slice of each array of prepare(z).

    z stacks the steps' complex gaussians, each drawn as
    standard_normal(shape) + 1j * standard_normal(shape): the draws do not
    depend on the climb's state, so _BLOCK steps are drawn by one call with
    the same numbers in the same order, and prepare works on all of them at
    once.  A climb that stops early leaves the rest of its block unused.
    """
    for first in range(0, _CLIMB_STEPS, _BLOCK):
        g = rng.standard_normal((min(_BLOCK, _CLIMB_STEPS - first), 2, *shape))
        z = g[:, 0] + 1j * g[:, 1]
        del g  # frees the real draws before the block is prepared
        yield from zip(*prepare(z))


def _rotation_generators(z: np.ndarray):
    """Eigenpairs (w, v, v*) of the Hermitian parts of z, scaled by 1/sqrt(nd)."""
    h = (z + z.conj().swapaxes(-1, -2)) / (2.0 * np.sqrt(z.shape[-1]))
    w, v = np.linalg.eigh(h)
    return w, v, v.conj().swapaxes(-1, -2)


def _search_unitary(phi: LinearMapRep, n: int, trials: int, rng) -> np.ndarray:
    """Climb over unitaries U, x = coords(U); returns the best coordinates."""
    d = phi.domain.ambient_dim
    nd = n * d
    images = phi.images()
    # phi on the matrix units of M_d: a U is scored without its coordinates.
    unit_images = (phi.domain._vec_pinv.T @ images.reshape(images.shape[0], -1)).reshape(
        d * d, *images.shape[1:]
    )

    def values(mats: np.ndarray) -> np.ndarray:
        return _batch_norms(unit_images, matrix_blocks(mats, n))

    g = rng.standard_normal((trials, nd, nd)) + 1j * rng.standard_normal((trials, nd, nd))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    vals = values(q)

    starts = min(_CLIMB_STARTS, trials)
    keep = np.argsort(vals)[::-1][:starts]
    cur = q[keep].copy()
    best = vals[keep].copy()
    step = np.full(starts, 0.3)
    shape = (starts, _CLIMB_PROPOSALS, nd, nd)
    for w, v, vh in _step_draws(rng, shape, _rotation_generators):
        phase = np.exp(1j * step[:, None, None] * w)
        rot = (v * phase[..., None, :]) @ vh
        cand = (rot @ cur[:, None]).reshape(starts * _CLIMB_PROPOSALS, nd, nd)
        cv = values(cand).reshape(starts, _CLIMB_PROPOSALS)
        bi = np.argmax(cv, axis=1)
        bv = cv[np.arange(starts), bi]
        improved = bv > best
        cur[improved] = cand.reshape(shape)[improved, bi[improved]]
        best[improved] = bv[improved]
        step = np.where(improved, np.minimum(step * _CLIMB_GROW, 1.0), step * _CLIMB_DECAY)
        if step.max() < _STOP_STEP:
            break
    top = int(np.argmax(best))
    return unrealize(phi.domain, n, cur[top])


def _search_coords(phi: LinearMapRep, n: int, trials: int, rng) -> np.ndarray:
    """Climb over normalized coordinate arrays; returns the best coordinates."""
    k = phi.domain.dim
    stack = phi.domain._stack
    images = phi.images()

    def normalize(batch: np.ndarray) -> np.ndarray:
        norms = np.maximum(_batch_norms(stack, batch), 1e-300)
        return batch / norms[:, None, None, None]

    shape = (trials, n, n, k)
    xs = normalize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    vals = _batch_norms(images, xs)

    starts = min(_CLIMB_STARTS, trials)
    keep = np.argsort(vals)[::-1][:starts]
    cur = xs[keep].copy()
    best = vals[keep].copy()
    step = np.full(starts, 0.5)
    shape = (starts, _CLIMB_PROPOSALS, n, n, k)
    for (noise,) in _step_draws(rng, shape):
        cand = cur[:, None] + step[:, None, None, None, None] * noise
        cand = normalize(cand.reshape(starts * _CLIMB_PROPOSALS, n, n, k))
        cv = _batch_norms(images, cand).reshape(starts, _CLIMB_PROPOSALS)
        bi = np.argmax(cv, axis=1)
        bv = cv[np.arange(starts), bi]
        improved = bv > best
        cur[improved] = cand.reshape(shape)[improved, bi[improved]]
        best[improved] = bv[improved]
        step = np.where(improved, np.minimum(step * _CLIMB_GROW, 2.0), step * _CLIMB_DECAY)
        if step.max() < _STOP_STEP:
            break
    return cur[int(np.argmax(best))]


def brute_search(
    phi: LinearMapRep, level: int, trials: int = 2000, seed: int = 0
) -> tuple[float, np.ndarray]:
    """Best value and witness found by random search plus hill-climbing."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = int(level)
    if n < 1:
        raise ValueError("level must be >= 1")
    k = phi.domain.dim
    if phi.is_zero:
        return 0.0, np.zeros((n, n, k), dtype=complex)
    rng = np.random.default_rng([_SEED_TAG, abs(int(seed)), n])
    if phi.domain.is_full_matrix_algebra:
        witness = _search_unitary(phi, n, trials, rng)
    else:
        witness = _search_coords(phi, n, trials, rng)
    # Re-evaluate through the plain single-element path, exactly feasible.
    witness = witness / max(spectral_norm(realize(SpaceElement(phi.domain, n, witness))), 1.0)
    value = spectral_norm(realize_amplified(phi, SpaceElement(phi.domain, n, witness)))
    return rounded_down(value, n, phi.domain.ambient_dim, phi.codomain.ambient_dim), witness


def brute_level_norm(
    phi: LinearMapRep, level: int, trials: int = 2000, seed: int = 0
) -> float:
    """Certified lower bound for ||phi_n|| by randomized search."""
    value, _ = brute_search(phi, level, trials, seed)
    return value


@dataclass(frozen=True)
class CrossValidationReport:
    """Per-level comparison of brute-force lower bounds with a table."""

    label: str
    rows: tuple
    passed: bool

    def to_json_dict(self) -> dict:
        rows = []
        for r in self.rows:
            row = dict(r)
            w = row.get("witness")
            if w is not None:
                row["witness"] = [
                    [[[float(z.real), float(z.imag)] for z in cell] for cell in line]
                    for line in np.asarray(w)
                ]
            rows.append(row)
        return {"label": self.label, "passed": self.passed, "rows": rows}


def cross_validate(
    table: LevelNormTable, trials: int = 500, seed: int = 0, max_level: int = 4
) -> CrossValidationReport:
    """Check brute lower bounds against the table's certified brackets.

    The brute value must stay below every certified upper bound (else a
    bound is wrong) and the table's lower bound must come within 5e-3
    relative of the brute value (else the ascent is underperforming).
    """
    phi = table.map
    rows = []
    ok = True
    for n in range(1, min(max_level, table.max_level) + 1):
        bracket = table.bracket_at(n)
        brute, witness = brute_search(phi, n, trials, seed + n)
        hi_ok = brute <= bracket.hi + 1e-9
        lo_ok = bracket.lo >= brute - 5e-3 * max(1.0, brute)
        ok = ok and hi_ok and lo_ok
        rows.append(
            {
                "level": n,
                "brute_lo": brute,
                "table_lo": bracket.lo,
                "table_hi": bracket.hi,
                "hi_ok": hi_ok,
                "lo_ok": lo_ok,
                "witness": witness,
            }
        )
    return CrossValidationReport(phi.label, tuple(rows), ok)
