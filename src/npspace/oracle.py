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
needed, so a reported value is always an SVD norm of a feasible witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import LevelNormTable, LinearMapRep, realize_amplified
from .spaces import SpaceElement, realize, realize_batch, spectral_norm, unrealize

_SEED_TAG = 0x4F52

# Hill-climb schedule shared by both search modes.
_CLIMB_STEPS = 1000
_CLIMB_DECAY = 0.95
_CLIMB_GROW = 1.05
_CLIMB_STARTS = 5
_CLIMB_PROPOSALS = 8
_STOP_STEP = 1e-9


def _batch_norms(stack: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Spectral norms of a batch of coordinate arrays realized against a stack.

    sigma_max(A) = sqrt(lambda_max(A A*)): the top Gram eigenvalue carries an
    absolute error of about eps * ||A||^2, so the norm keeps about eps relative
    accuracy, more cheaply than a full SVD.  The clamp guards the
    square root: a top eigenvalue rounded below zero would give a NaN, which
    ``np.argmax`` in the climbs would pick as the best candidate.
    """
    a = realize_batch(stack, coords)
    top = np.linalg.eigvalsh(a @ a.conj().swapaxes(-1, -2))[..., -1]
    return np.sqrt(np.maximum(top, 0.0))


def _search_unitary(phi: LinearMapRep, n: int, trials: int, rng) -> np.ndarray:
    """Climb over unitaries U, x = coords(U); returns the best coordinates."""
    nd = n * phi.domain.ambient_dim
    images = phi.images()

    def values(mats: np.ndarray) -> np.ndarray:
        return _batch_norms(images, unrealize(phi.domain, n, mats))

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
    for _ in range(_CLIMB_STEPS):
        h = rng.standard_normal((starts, _CLIMB_PROPOSALS, nd, nd)) + 1j * rng.standard_normal(
            (starts, _CLIMB_PROPOSALS, nd, nd)
        )
        h = (h + h.conj().transpose(0, 1, 3, 2)) / (2.0 * np.sqrt(nd))
        w, v = np.linalg.eigh(h)
        phase = np.exp(1j * step[:, None, None] * w)
        rot = (v * phase[..., None, :]) @ v.conj().transpose(0, 1, 3, 2)
        cand = (rot @ cur[:, None]).reshape(starts * _CLIMB_PROPOSALS, nd, nd)
        cv = values(cand).reshape(starts, _CLIMB_PROPOSALS)
        bi = np.argmax(cv, axis=1)
        bv = cv[np.arange(starts), bi]
        improved = bv > best
        cur[improved] = cand.reshape(starts, _CLIMB_PROPOSALS, nd, nd)[
            improved, bi[improved]
        ]
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
    for _ in range(_CLIMB_STEPS):
        noise = rng.standard_normal((starts, _CLIMB_PROPOSALS, n, n, k)) + 1j * rng.standard_normal(
            (starts, _CLIMB_PROPOSALS, n, n, k)
        )
        cand = cur[:, None] + step[:, None, None, None, None] * noise
        cand = normalize(cand.reshape(starts * _CLIMB_PROPOSALS, n, n, k))
        cv = _batch_norms(images, cand).reshape(starts, _CLIMB_PROPOSALS)
        bi = np.argmax(cv, axis=1)
        bv = cv[np.arange(starts), bi]
        improved = bv > best
        cur[improved] = cand.reshape(starts, _CLIMB_PROPOSALS, n, n, k)[
            improved, bi[improved]
        ]
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
    x = SpaceElement(phi.domain, n, witness)
    nrm = spectral_norm(realize(x))
    if nrm > 1.0:
        witness = witness / nrm
        x = SpaceElement(phi.domain, n, witness)
    value = spectral_norm(realize_amplified(phi, x))
    return value, witness


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
