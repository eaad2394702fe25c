"""Batched ascent for amplified spectral norms.

The quantity maximized is the ratio ||phi_n(x)|| / ||x|| over nonzero
level-n elements x of the domain, both norms being spectral norms of
realized matrices.  All restarts advance together as one stacked batch.
Each live restart makes one proposal per iteration and keeps it only where
the ratio rises, so every reported value is a lower bound witnessed by the
re-checkable element x / ||x||.

With (u, v) the top singular pair of phi_n(x), the proposal on a full
matrix algebra is the polar factor of the realized representer of
x -> Re<u, phi_n(x) v>: the exact maximizer of that functional over the
unit ball.  On a proper subspace it is a step along the gradient of the
log ratio, taken from the top singular pairs of both realizations, with a
per-restart step length that grows on success and shrinks on failure.

The polar step depends only on the restart's stored singular pair, so on a
full matrix algebra a rejected proposal would be made again unchanged:
the restart ends at its first rejected step.  It counts as converged
exactly when the stall rule (``_STALL_LIMIT`` iterations without a rise)
would have been met within the ``max_iter`` budget left.

The top singular pairs come from the top eigenpair of the Gram matrix
A A* (``spaces.top_singular_pairs``), one batched eigensolve per
realization; only the polar step takes a full SVD.  The returned value is
re-checked through the SVD path (``spaces.spectral_norm``) on the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import (
    OperatorSpace,
    SpaceElement,
    realize,
    realize_batch,
    spectral_norm,
    top_singular_pairs,
    unrealize,
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
    """Search effort: independent restarts, per-restart iterations, stop tol."""

    restarts: int = 20
    max_iter: int = 200
    tol: float = 1e-11

    def __post_init__(self):
        if self.restarts < 1 or self.max_iter < 1 or not 0 < self.tol < math.inf:
            raise ValueError(f"invalid budget {self!r}")


DEFAULT_BUDGET = OptBudget()


@dataclass(frozen=True)
class AscentOutcome:
    """Best value found, its witness coordinates, and convergence evidence."""

    value: float
    coords: np.ndarray
    converged: bool
    support: int  # number of restarts agreeing with the best value


def _representer(gram_inv, stack, n, u, v) -> np.ndarray:
    """Coordinates of the element w of M_n(V) with Re<w, x>_F = Re<u, y(x) v>.

    y(x) is x realized against ``stack``: the domain basis, or its images.
    """
    e = stack.shape[-1]
    g = np.einsum("ria,tab,rjb->rijt", u.reshape(-1, n, e).conj(), stack, v.reshape(-1, n, e))
    return g.conj() @ gram_inv.T


def maximize_amplified_norm(
    space: OperatorSpace,
    images: np.ndarray,
    level: int,
    budget: OptBudget = DEFAULT_BUDGET,
    seed: int = 0,
) -> AscentOutcome:
    """Multi-restart batched ascent; deterministic for a fixed seed."""
    n = int(level)
    if not np.any(images):
        k = images.shape[0]
        return AscentOutcome(0.0, np.zeros((n, n, k), dtype=complex), True, budget.restarts)

    stack = space._stack
    gram_inv = space._vec_pinv @ space._vec_pinv.conj().T
    full = space.is_full_matrix_algebra

    def unit(rng, size):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return z / np.linalg.norm(z)

    ne = n * images.shape[1]
    starts = []
    for r in range(budget.restarts):
        rng = np.random.default_rng([_SEED_TAG, abs(int(seed)), n, r])
        starts.append((unit(rng, ne), unit(rng, ne)))
    u0, v0 = (np.stack(side) for side in zip(*starts))

    def evaluate(coords):
        img, img_u, img_v = top_singular_pairs(realize_batch(images, coords))
        dom, dom_u, dom_v = top_singular_pairs(realize_batch(stack, coords))
        return img / dom, (img, img_u, img_v, dom, dom_u, dom_v)

    x = _representer(gram_inv, images, n, u0, v0)
    ratio, pairs = evaluate(x)
    step = np.full(budget.restarts, _STEP_START)
    stall = np.zeros(budget.restarts, dtype=int)
    converged = np.zeros(budget.restarts, dtype=bool)
    done = np.zeros(budget.restarts, dtype=bool)
    for it in range(budget.max_iter):
        live = np.flatnonzero(~done)
        if live.size == 0:
            break
        img, img_u, img_v, dom, dom_u, dom_v = (p[live] for p in pairs)
        w = _representer(gram_inv, images, n, img_u, img_v)
        if full:
            pu, _, pvh = np.linalg.svd(realize_batch(stack, w))
            prop = unrealize(space, n, pu @ pvh)
        else:
            grad = w / img[:, None, None, None] - _representer(
                gram_inv, stack, n, dom_u, dom_v
            ) / dom[:, None, None, None]
            size = np.linalg.norm(realize_batch(stack, grad), axis=(-2, -1))
            # A vanishing gradient (a constant ratio) leaves x where it is.
            t = np.divide(step[live] * dom, size, out=np.zeros_like(size), where=size > 0)
            prop = x[live] + t[:, None, None, None] * grad
        new_ratio, new_pairs = evaluate(prop)
        old = ratio[live]
        keep = new_ratio > old
        took = live[keep]
        x[took] = prop[keep]
        ratio[took] = new_ratio[keep]
        for p, q in zip(pairs, new_pairs):
            p[took] = q[keep]
        step[live] *= np.where(keep, _STEP_GROW, _STEP_SHRINK)
        small = new_ratio - old < budget.tol * np.maximum(1.0, ratio[live])
        stall[live] = np.where(small, stall[live] + 1, 0)
        # A rejected polar step would only be proposed again unchanged, each
        # repeat a small step, for the rest of the budget.
        ends = full & ~keep
        ahead = np.where(ends & small, budget.max_iter - 1 - it, 0)
        converged[live] = stall[live] + ahead >= _STALL_LIMIT
        done[live] = converged[live] | ends

    best = int(np.argmax(ratio))
    support = int(
        np.sum(converged & (np.abs(ratio - ratio[best]) <= _AGREE_REL * max(1.0, ratio[best])))
    )

    # Re-check the witness through the plain evaluation path.
    best_x = x[best] / spectral_norm(realize(SpaceElement(space, n, x[best])))
    value = spectral_norm(realize_batch(images, best_x))
    conv = bool(converged[best]) and (support >= 2 or budget.restarts == 1)
    return AscentOutcome(value, best_x, conv, support)
