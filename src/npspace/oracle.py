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
coordinate perturbations.  Both searches run one hill-climb (``_climb``,
which holds the start selection, accept rule, step schedule and stop
rule) with their own first candidates, step sizes, proposals and score.

A candidate counts as a rise only if its score, lowered by the allowance
that certifies every witnessed value (``spaces.rounded_down``: 4 N eps
relative, N = max(n, m) * max(d, m)), still beats its start, so a climb
on a plateau decays to _STOP_STEP instead of growing its step on rounding
noise.

Candidates are scored by sqrt(lambda_max(A A*)) of the realized batch A,
which is cheaper than an SVD and agrees with it to rounding; the unitary
climb realizes A from the blocks of U against phi's images of the matrix
units.  The best point is certified as the ascent's is, by
``spaces.witnessed_value``: scaled by its SVD norm into the unit ball,
with its image's SVD norm rounded down.  The random draws do not depend on
the climb's state, so they are made _BLOCK steps at a time (the same
numbers in the same order as one draw per step), and a block's rotation
generators are eigendecomposed in one call; the accept and step rule still
runs step by step, so the search does not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bracket import within
from .errors import InvalidLevel
from .maps import LevelNormTable, LinearMapRep
from .spaces import (
    matrix_blocks,
    realize_batch,
    require_int,
    rounded_down,
    to_pairs,
    top_singular_values,
    unrealize,
    witnessed_value,
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

# Most trials a search may ask for.  The unitary climb draws all its starts at
# once, trials x (nd)^2 complex numbers: with nd = 12 (level 4 of an M3 map)
# that is 23 MB an array at this cap, and brute_search on transpose_M3 at
# level 4 peaks near 200 MB resident.
MAX_TRIALS = 10_000


def require_trials(trials) -> int:
    """``trials`` as a positive integer (``spaces.require_int``) of at most MAX_TRIALS."""
    trials = require_int(trials, "trials")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    return trials


def _batch_norms(stack: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Spectral norms of a batch of coordinate arrays realized against a stack."""
    return top_singular_values(realize_batch(stack, coords))


def _step_draws(rng, shape: tuple, prepare):
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


def _climb(
    xs, vals, step0: float, step_max: float, accept: float, rng, propose, score,
    prepare=lambda z: (z,),
):
    """Climb from the best _CLIMB_STARTS of the points xs (scores vals); returns the best.

    Each start moves to the best of its propose(cur, step, *draws) candidates
    if that candidate beats it; its step then grows up to step_max, and
    decays otherwise.  A candidate beats its start only if its score times
    accept (< 1, the rounding allowance of ``spaces.rounded_down``) is still
    higher: a rise within the score's rounding error is not a rise, so a
    climb on a plateau decays to _STOP_STEP instead of growing its step on
    noise until _CLIMB_STEPS runs out.
    """
    starts = min(_CLIMB_STARTS, len(xs))
    keep = np.argsort(vals)[::-1][:starts]
    cur = xs[keep].copy()
    best = vals[keep].copy()
    step = np.full(starts, step0)
    shape = (starts, _CLIMB_PROPOSALS, *xs.shape[1:])
    for draws in _step_draws(rng, shape, prepare):
        cand = propose(cur, step, *draws)
        cv = score(cand).reshape(starts, _CLIMB_PROPOSALS)
        bi = np.argmax(cv, axis=1)
        bv = cv[np.arange(starts), bi]
        improved = bv * accept > best
        cur[improved] = cand.reshape(shape)[improved, bi[improved]]
        best[improved] = bv[improved]
        step = np.where(improved, np.minimum(step * _CLIMB_GROW, step_max), step * _CLIMB_DECAY)
        if step.max() < _STOP_STEP:
            break
    return cur[int(np.argmax(best))]


def _search_unitary(phi: LinearMapRep, n: int, trials: int, rng) -> np.ndarray:
    """Climb over unitaries U by random rotations; returns coords(U) of the best."""
    d = phi.domain.ambient_dim
    nd = n * d
    # phi on the matrix units of M_d: a U is scored without its coordinates.
    unit_images = phi.unit_images()

    def values(mats: np.ndarray) -> np.ndarray:
        return _batch_norms(unit_images, matrix_blocks(mats, n))

    def rotate(cur, step, w, v, vh):
        phase = np.exp(1j * step[:, None, None] * w)
        rot = (v * phase[..., None, :]) @ vh
        return (rot @ cur[:, None]).reshape(-1, nd, nd)

    g = rng.standard_normal((trials, nd, nd)) + 1j * rng.standard_normal((trials, nd, nd))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    accept = rounded_down(1.0, n, d, unit_images.shape[-1])
    best = _climb(q, values(q), 0.3, 1.0, accept, rng, rotate, values, _rotation_generators)
    return unrealize(phi.domain, n, best)


def _search_coords(phi: LinearMapRep, n: int, trials: int, rng) -> np.ndarray:
    """Climb over normalized coordinate arrays by random perturbations; returns the best."""
    stack = phi.domain._stack
    images = phi.images()

    def normalize(batch: np.ndarray) -> np.ndarray:
        norms = np.maximum(_batch_norms(stack, batch), 1e-300)
        return batch / norms[:, None, None, None]

    def perturb(cur, step, noise):
        cand = cur[:, None] + step[:, None, None, None, None] * noise
        return normalize(cand.reshape(-1, *cur.shape[1:]))

    shape = (trials, n, n, phi.domain.dim)
    xs = normalize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    vals = _batch_norms(images, xs)
    accept = rounded_down(1.0, n, phi.domain.ambient_dim, images.shape[-1])
    return _climb(xs, vals, 0.5, 2.0, accept, rng, perturb, lambda c: _batch_norms(images, c))


def brute_search(
    phi: LinearMapRep, level: int, trials: int = 2000, seed: int = 0
) -> tuple[float, np.ndarray]:
    """Best value and witness found by random search plus hill-climbing."""
    n = require_int(level, "level", InvalidLevel)
    trials = require_trials(trials)
    seed = require_int(seed, "seed", minimum=0)
    if phi.is_zero:
        return 0.0, np.zeros((n, n, phi.domain.dim), dtype=complex)
    rng = np.random.default_rng([_SEED_TAG, seed, n])
    search = _search_unitary if phi.domain.is_full_matrix_algebra else _search_coords
    return witnessed_value(phi.domain, phi.images(), n, search(phi, n, trials, rng))


@dataclass(frozen=True)
class CrossValidationReport:
    """Per-level comparison of brute-force lower bounds with a table."""

    label: str
    rows: tuple
    passed: bool

    def to_json_dict(self) -> dict:
        rows = [dict(r, witness=to_pairs(r["witness"])) for r in self.rows]
        return {"label": self.label, "passed": self.passed, "rows": rows}


def cross_validate(
    table: LevelNormTable, trials: int = 500, seed: int = 0, max_level: int = 4
) -> CrossValidationReport:
    """Check brute lower bounds against the table's certified brackets.

    Both checks are ``bracket.within``: the brute value must not exceed a
    certified hi by more than 1e-9 of it (``hi_ok``, else a bound is wrong)
    nor the table's lo by more than 5e-3 of it (``lo_ok``, else the ascent is
    underperforming).  Both slacks are relative, so a map scaled by any factor
    is judged as at scale 1.
    """
    phi = table.map
    trials = require_trials(trials)
    max_level = require_int(max_level, "max_level", InvalidLevel)
    seed = require_int(seed, "seed", minimum=0)
    rows = []
    ok = True
    for n in range(1, min(max_level, table.max_level) + 1):
        bracket = table.bracket_at(n)
        brute, witness = brute_search(phi, n, trials, seed + n)
        hi_ok = within(brute, bracket.hi, 1e-9)
        lo_ok = within(brute, bracket.lo, 5e-3)
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
