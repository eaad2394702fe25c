"""Batched ascent for amplified spectral norms.

The quantity maximized is ||phi_n(x)|| / ||x|| over nonzero level-n elements
x of the domain, both norms being spectral norms of realized matrices.  The
restarts advance together as one stacked batch.  Each live restart makes one
proposal per iteration and keeps it only where the ratio rises, so every
value is a lower bound witnessed by the re-checkable element x / ||x||,
which ``spaces.witnessed_value`` certifies.

On a full matrix algebra M_d each x is a realized nd x nd polar factor, of
norm 1, so the ratio is ||phi_n(x)||: one product of x's blocks with phi on
the matrix units of M_d (``spaces.unit_images``), and one eigensolve of the
image gives its top singular pair (u, v).  There is no domain side.  The
proposal is the polar factor of phi_n*(u v*), one product with the
conjugate unit images: the exact maximizer of x -> Re<u, phi_n(x) v> over
the unit ball.  The search reads the basis of M_d only to un-realize the
best x, once, for its witness.  The polar step depends only on the
restart's stored singular pair, so a rejected proposal would be made again
unchanged: the restart ends at its first rejected step.  It counts as
converged exactly when the stall rule (``_STALL_LIMIT`` iterations without a
rise) would have been met within the ``max_iter`` budget left.

On a proper subspace x holds coordinates against an orthonormal basis of V
(``OperatorSpace._orth``), so the search is V's, not the given basis's; the
best x is carried to that basis once, for its witness.  The proposal is a
gradient step on the log ratio, from the top singular pairs of both sides,
with a per-restart length that grows on success and shrinks on failure.  An
evaluation realizes both sides in one product, and one eigensolve of the
A A* gives both sides' pairs when their sizes agree
(``spaces.top_singular_pairs``).  On both branches a representer is one
product with the conjugate of what realizes x, and only the polar step (and
the polar start below) takes a full SVD.

Given a certified upper bound ``hi`` on the level norm, every restart stops
as soon as the best ratio reaches ``hi * (1 - budget.tol)``: no restart can
then gain more than ``budget.tol * hi``.  On M_d, where a polar start or
step often closes the row at once, restart 0 leads: it is drawn, evaluated
and takes its first step alone, and restarts 1..R-1 are drawn and join one
iteration later only if the best ratio is still under that stop.  Each
restart counts its ``max_iter`` steps from its own start, so a row that
stays open ends as one batch of all restarts would end it.  On a proper
subspace, where a gradient step seldom closes a row, all restarts start
together.  An ascent that reaches the stop counts as converged, and its
``support`` is the number of restarts drawn whose ratio reached it: 1 for a
row that restart 0 closes.  The default ``hi = inf`` never stops a search
early.

The start stream is a contract: restart r at level n starts from the
representer of phi_n*(u v*), on M_d from its polar factor, for a pair
(u, v) of unit vectors of length n*m (m the codomain's ambient dimension).
It draws ``standard_normal((2, 2, n*m))`` from ``SeedSequence([0x414D50,
seed, n, r])`` in the order u real, u imag, v real, v imag, and normalizes
each vector (``_starts``), so any start can be rebuilt offline from the seed
alone.  The stop decides only how many restarts are drawn, never what a
drawn restart's start is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidLevel
from .spaces import (
    OperatorSpace,
    block_matrices,
    matrix_blocks,
    require_int,
    top_singular_pairs,
    unit_images,
    unrealize,
    witnessed_value,
)

# Stream-separation constant mixed into every RNG seed sequence.
_SEED_TAG = 0x414D50

# Restarts agreeing with the best value within this relative gap count as
# independent confirmations of the optimum.
_AGREE_REL = 1e-9

# A restart converges after this many consecutive iterations that raise its
# ratio by less than budget.tol (relative).
_STALL_LIMIT = 5

# Gradient step on proper subspaces, relative to ||x||: initial length and
# the factors applied after an accepted and after a rejected proposal.
_STEP_START = 0.5
_STEP_GROW = 1.5
_STEP_SHRINK = 0.5


@dataclass(frozen=True)
class OptBudget:
    """Search effort: restarts and per-restart max_iter (``spaces.require_int``), and the
    relative stop tol, 0 < tol < 1: a level closes once its lo reaches hi (1 - tol)."""

    restarts: int = 20
    max_iter: int = 200
    tol: float = 1e-11

    def __post_init__(self):
        for name in ("restarts", "max_iter"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if not 0 < self.tol < 1:
            raise ValueError(f"invalid budget {self!r}")


DEFAULT_BUDGET = OptBudget()


@dataclass(frozen=True)
class AscentOutcome:
    """Best value found, its witness coordinates, and convergence evidence."""

    value: float
    coords: np.ndarray
    converged: bool
    support: int  # number of restarts drawn that agree with the best value or reach the stop


def _representer(rep, n, *pairs) -> np.ndarray:
    """Coordinates of the element w of M_n(V) with Re<w, x>_F = sum Re<u, y(x) v>
    over the (u, v) in ``pairs``, one per side, from the sides' stacked matrices ``rep``."""
    r = len(pairs[0][0])
    outer = [matrix_blocks(u[:, :, None] * v.conj()[:, None, :], n) for u, v in pairs]
    flat = np.concatenate([o.reshape(r * n * n, -1) for o in outer], axis=-1) @ rep
    return flat.reshape(r, n, n, -1)


def _polar(mats: np.ndarray) -> np.ndarray:
    """The unitary polar factor U V* of each matrix U S V* in a stack, from its full SVD."""
    u, _, vh = np.linalg.svd(mats)
    return u @ vh


@lru_cache(maxsize=64)
def _starts(
    seed: int, n: int, size: int, restarts: int, first: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The start vectors ``(u0, v0)``, each (restarts - first, size), of restarts
    first..restarts-1 in the module's start stream: restart r's are
    ``default_rng([_SEED_TAG, seed, n, r])``'s draws whichever restarts are drawn with it,
    each vector divided by ``sqrt(re.dot(re) + im.dot(im))``, which is ``np.linalg.norm``'s
    arithmetic.  ``re`` and ``im`` are the strided views of the complex vector: BLAS sums a
    contiguous row of the draws in another order, so its norm is not bitwise.  The arrays
    are read-only, as the 64 most recent are kept and returned again to every later call
    with the same arguments."""
    # numpy loads numpy.random on first use; importing it here keeps it out of import time.
    from numpy.random import PCG64, Generator, SeedSequence

    g = np.empty((restarts - first, 2, 2, size))
    for r in range(first, restarts):
        Generator(PCG64(SeedSequence([_SEED_TAG, seed, n, r]))).standard_normal(out=g[r - first])
    z = g[:, :, 0] + 1j * g[:, :, 1]
    sq = [w.real.dot(w.real) + w.imag.dot(w.imag) for w in z.reshape(-1, size)]
    z /= np.sqrt(sq).reshape(-1, 2, 1)
    z.flags.writeable = False
    return z[:, 0], z[:, 1]


def maximize_amplified_norm(
    space: OperatorSpace,
    images: np.ndarray,
    level: int,
    budget: OptBudget = DEFAULT_BUDGET,
    seed: int = 0,
    hi: float = math.inf,
) -> AscentOutcome:
    """Multi-restart batched ascent; deterministic for a fixed seed.  On M_d it runs on
    realized polar factors from polar starts and un-realizes only the best; on a proper
    subspace it takes gradient steps on coordinates in an orthonormal basis of V.  It
    stops once the best ratio reaches ``hi * (1 - budget.tol)``, ``hi`` a certified upper bound."""
    n = require_int(level, "level", InvalidLevel)
    seed = require_int(seed, "seed", minimum=0)
    k, m, d = space.dim, images.shape[-1], space.ambient_dim
    if not np.any(images):
        return AscentOutcome(0.0, np.zeros((n, n, k), dtype=complex), True, budget.restarts)

    full = space.is_full_matrix_algebra
    units = unit_images(space, images).reshape(d * d, m * m)
    # x is realized by `sides`: on M_d its blocks by phi's unit images, on V its coordinates by
    # phi's images of V's orthonormal basis, then that basis.  Both coordinates are orthonormal.
    sides = units if full else np.concatenate([space._orth @ units, space._orth], axis=1)
    reps = sides.T.conj()

    def represent(u, v):  # phi_n*(u v*), on M_d its polar factor
        w = _representer(reps[: m * m], n, (u, v))
        return _polar(block_matrices(w, d)) if full else w

    if full:
        def evaluate(x):  # the ratio ||phi_n(x)|| and its top singular pair (u, v)
            return top_singular_pairs(block_matrices(matrix_blocks(x, n) @ sides, m))
    else:
        def evaluate(coords):
            r, flat = len(coords), coords.reshape(-1, k) @ sides
            if m == d:  # one eigensolve, image blocks first
                mats = block_matrices(flat.reshape(r, n, n, 2, -1).transpose(3, 0, 1, 2, 4), d)
                s, u, v = top_singular_pairs(mats.reshape(2 * r, n * d, n * d))
                img, dom = (s[:r], u[:r], v[:r]), (s[r:], u[r:], v[r:])
            else:
                parts = np.split(flat.reshape(r, n, n, -1), [m * m], axis=-1)
                img, dom = (top_singular_pairs(block_matrices(p, e)) for p, e in zip(parts, (m, d)))
            return (img[0] / dom[0], *img, *dom)

        def gradient_step(live, img, img_u, img_v, dom, dom_u, dom_v):
            uv = (img_u / img[:, None], img_v), (dom_u / -dom[:, None], dom_v)
            grad = _representer(reps, n, *uv)  # of log(img / dom)
            size = np.linalg.norm(grad.reshape(len(live), -1), axis=1)
            # A vanishing gradient (a constant ratio) leaves x where it is.
            t = np.divide(step[live] * dom, size, out=np.zeros_like(size), where=size > 0)
            return x[live] + t[:, None, None, None] * grad

    def draw(first, restarts):  # x, ratio and pairs of restarts first..restarts-1
        x = represent(*_starts(seed, n, n * m, restarts, first))
        return [x, *evaluate(x)]

    # On M_d restart 0 leads by one iteration: the others start only if it leaves the row open.
    lead = int(full and budget.restarts > 1)
    x, ratio, *pairs = draw(0, 1 if lead else budget.restarts)
    stop = hi * (1.0 - budget.tol)
    step = np.full(budget.restarts, _STEP_START)
    stall = np.zeros(budget.restarts, dtype=int)
    converged = np.zeros(budget.restarts, dtype=bool)
    done = np.arange(budget.restarts) >= len(x)  # not drawn yet
    for it in range(-lead, budget.max_iter):
        live = np.flatnonzero(~done)
        if live.size == 0 or ratio.max() >= stop:
            break
        every = live.size == len(x)  # the gathers copy: skip them if every drawn one is live
        cur = pairs if every else [p[live] for p in pairs]
        prop = represent(*cur) if full else gradient_step(live, *cur)
        new_ratio, *new_pairs = evaluate(prop)
        old = ratio[live]
        keep = new_ratio > old
        took = live[keep]
        for p, q in zip((x, ratio, *pairs), (prop, new_ratio, *new_pairs)):
            p[took] = q[keep]
        step[live] *= np.where(keep, _STEP_GROW, _STEP_SHRINK)
        small = new_ratio - old < budget.tol * ratio[live]
        stall[live] = np.where(small, stall[live] + 1, 0)
        if full:
            # Steps each restart has left, counted from its own start.  A rejected polar
            # step would only be proposed again unchanged, each repeat a small step.
            left = budget.max_iter - 1 - it - lead * (live == 0)
            converged[live] = stall[live] + np.where(small & ~keep, left, 0) >= _STALL_LIMIT
            done[live] = converged[live] | ~keep | (left == 0)
        else:
            converged[live] = stall[live] >= _STALL_LIMIT
            done[live] = converged[live]
        if it < 0 and ratio[0] < stop:  # restart 0 left the row open: the others join
            more = draw(1, budget.restarts)
            x, ratio, *pairs = map(np.concatenate, zip((x, ratio, *pairs), more))
            done[1:] = False

    best = int(np.argmax(ratio))
    coords = unrealize(space, n, x[best]) if full else x[best] @ (space._orth @ space._vec_pinv.T)
    value, witness = witnessed_value(space, images, n, coords)
    if ratio[best] >= stop:  # within tol of a certificate: that is the optimum
        return AscentOutcome(value, witness, True, int(np.sum(ratio >= stop)))
    support = int(
        np.sum(converged & (np.abs(ratio - ratio[best]) <= _AGREE_REL * ratio[best]))
    )
    # Agreement marks a likely optimum, a diagnostic no bound reads: a lone restart has none.
    conv = bool(converged[best]) and support >= 2
    return AscentOutcome(value, witness, conv, support)
