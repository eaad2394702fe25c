"""Linear maps between concrete operator spaces and their level-norm brackets.

A map is stored as its coordinate matrix between bases, and holds no
results.  Every bracket for a level norm ||phi_n|| is a row of
``build_level_table``: per-level ascent brackets joined by one propagation
pass of certified cross-level bounds.  The seeded ascent is deterministic,
so every table built from the same map, budget and seed has the same rows.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .bracket import (
    SOURCE_COEFF_RELAXATION,
    SOURCE_HAAGERUP,
    SOURCE_MONOTONICITY,
    SOURCE_N_TIMES_NORM,
    SOURCE_OPTIMIZER,
    SOURCE_SMITH,
    SOURCE_TRIVIAL_ZERO,
    NormBracket,
)
from .errors import (
    DimensionMismatch,
    InconsistentAction,
    InsufficientTable,
    InvalidLevel,
    InvariantViolation,
    ScaleOutOfRange,
    SpaceMismatch,
)
from .optimize import DEFAULT_BUDGET, OptBudget, maximize_amplified_norm
from .spaces import (
    EPS,
    OperatorSpace,
    SpaceElement,
    _same_space,
    from_pairs,
    json_field,
    load_space,
    pad_to,
    require_entry_range,
    require_finite,
    require_int,
    space_from_dict,
    space_to_dict,
    spectral_norm,
    to_pairs,
    top_singular_values,
    unit_images,
)


# A map's scale is its largest image entry over its domain's largest basis entry.  The
# ascent's start on a proper subspace, the representer of phi_n*(u v*) in an orthonormal
# basis of V, is of the order of scale, so the products A A* of the image realizations it
# eigensolves grow like scale**4.  A scale within 2**±MAX_SCALE_EXP keeps those within
# 2**±960, which leaves 2**62 of the double range (2**±1022) to the sums over dimensions.
MAX_SCALE_EXP = 240


@dataclass(frozen=True)
class LinearMapRep:
    """A linear map phi: V -> W as a k_W x k_V coordinate matrix.

    Unless the map is zero, its images' largest entry must lie within
    2**±spaces.MAX_ENTRY_EXP and their scale against the domain basis within
    2**±MAX_SCALE_EXP (ScaleOutOfRange).  Every constant of the map is derived once, in
    __post_init__, and every array is read-only:

    - ``is_zero``: ``not np.any(coeff)``.
    - ``_coeff_norm``: ``spaces.spectral_norm(coeff)``.
    - ``_images`` (k_V, e, e): the realized images of the domain basis (``images()``).
    - ``_unit_images`` (d*d, e, e): phi on the matrix units of M_d (``unit_images()``).
    """

    domain: OperatorSpace
    codomain: OperatorSpace
    coeff: np.ndarray
    label: str = "phi"
    is_zero: bool = field(init=False, repr=False, compare=False)
    _coeff_norm: float = field(init=False, repr=False, compare=False)
    _images: np.ndarray = field(init=False, repr=False, compare=False)
    _unit_images: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.array(self.coeff, dtype=complex)
        want = (self.codomain.dim, self.domain.dim)
        if c.shape != want:
            raise DimensionMismatch(f"coeff shape {c.shape}, expected {want}")
        require_finite(c, f"coefficients of map {self.label!r}")
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "is_zero", not np.any(c))
        img = np.einsum("st,sab->tab", c, self.codomain._stack)
        if not self.is_zero:
            scale = float(np.abs(img).max()) / float(np.abs(self.domain._stack).max())
            if not 2.0**-MAX_SCALE_EXP <= scale <= 2.0**MAX_SCALE_EXP:
                raise ScaleOutOfRange(
                    f"map {self.label!r} has scale {scale:.3g} (largest image entry over "
                    f"largest domain basis entry), outside 2**-{MAX_SCALE_EXP}.."
                    f"2**{MAX_SCALE_EXP}: its ascent would leave the floating-point range"
                )
            require_entry_range(img, f"images of map {self.label!r}")
        img.setflags(write=False)
        units = unit_images(self.domain, img)
        units.setflags(write=False)
        object.__setattr__(self, "_coeff_norm", spectral_norm(c))
        object.__setattr__(self, "_images", img)
        object.__setattr__(self, "_unit_images", units)

    @property
    def stabilization_level(self) -> int:
        """The level s from which ||phi_n|| = ||phi_s|| for every n >= s: the
        codomain's ambient dimension m (Smith, 1983), or 1 for the zero map."""
        return 1 if self.is_zero else self.codomain.ambient_dim

    def images(self) -> np.ndarray:
        """Realized images of the domain basis, stacked (k_V, e, e)."""
        return self._images

    def unit_images(self) -> np.ndarray:
        """phi on the matrix units E_jk of M_d (their projections onto V), (d*d, e, e), row-major."""
        return self._unit_images


def make_map(
    domain: OperatorSpace,
    codomain: OperatorSpace,
    action: Sequence,
    label: str = "phi",
) -> LinearMapRep:
    """Build a map from its action on the domain basis.

    Each action entry is either a k_W coordinate vector or an e x e matrix
    lying in the codomain.  A matrix whose least-squares projection onto the
    codomain misses it by more than 1e-12 of its own largest entry is outside
    the codomain's span and raises InconsistentAction, at every scale.
    """
    if len(action) != domain.dim:
        raise DimensionMismatch(
            f"action has {len(action)} entries for a {domain.dim}-dimensional domain"
        )
    e = codomain.ambient_dim
    cols = []
    for t, item in enumerate(action):
        arr = np.asarray(item, dtype=complex)
        if arr.shape == (codomain.dim,):
            cols.append(arr)
        elif arr.shape == (e, e):
            coords = codomain.coords_of(arr)
            back = np.einsum("s,sab->ab", coords, codomain._stack)
            if np.abs(back - arr).max() > 1e-12 * np.abs(arr).max():
                raise InconsistentAction(
                    f"action[{t}] is not in the span of the codomain basis"
                )
            cols.append(coords)
        else:
            raise DimensionMismatch(
                f"action[{t}] has shape {arr.shape}; expected ({codomain.dim},) or ({e}, {e})"
            )
    return LinearMapRep(domain, codomain, np.stack(cols, axis=1), label)


def amplify(phi: LinearMapRep, x: SpaceElement) -> SpaceElement:
    """Entrywise application: output entry (i, j) is phi applied to x_{ij}."""
    if x.space is not phi.domain and not _same_space(x.space, phi.domain):
        raise SpaceMismatch("element does not live over the map's domain")
    out = np.einsum("st,ijt->ijs", phi.coeff, x.coords)
    return SpaceElement(phi.codomain, x.level, out)


def scaled_map(phi: LinearMapRep, factor: complex, label: str | None = None) -> LinearMapRep:
    return LinearMapRep(
        phi.domain, phi.codomain, factor * phi.coeff, label or f"{factor}*{phi.label}"
    )


def sum_map(phi: LinearMapRep, psi: LinearMapRep, label: str | None = None) -> LinearMapRep:
    if not _same_space(phi.domain, psi.domain) or not _same_space(phi.codomain, psi.codomain):
        raise SpaceMismatch("summands must share domain and codomain")
    return LinearMapRep(
        phi.domain, phi.codomain, phi.coeff + psi.coeff, label or f"{phi.label}+{psi.label}"
    )


def coefficient_relaxation_bound(phi: LinearMapRep, level: int) -> float:
    """Crude certified upper bound on ||phi_n||.

    Chain: spectral <= Frobenius on the output, Frobenius-to-coordinate
    conditioning on both sides, and ||x||_F <= sqrt(nd) ||x|| on the input.
    """
    level = require_int(level, "level", InvalidLevel)
    factor = phi.codomain._vec_smax / phi.domain._vec_smin
    return math.sqrt(level * phi.domain.ambient_dim) * phi._coeff_norm * factor


def haagerup_bounds(phi: LinearMapRep) -> tuple[float, float]:
    """Certified upper bounds (on ||phi||_cb, on ||phi_1||) for phi: V -> M_m, V in M_d.

    phi o P, P the Frobenius projection of M_d onto V, agrees with phi on V, so
    ||phi_n|| <= ||phi o P||_cb.  T[(p, j), (k, q)] = (phi o P)(E_jk)[p, q] = (U S Vh)[(p, j),
    (k, q)] gives phi o P = sum_i a_i . b_i, a_i = sqrt(s_i) U[:, i] (m x d) and b_i =
    sqrt(s_i) Vh[i] (d x m), so ||phi_n|| <= ||sum a_i a_i*||^1/2 ||sum b_i* b_i||^1/2 at every
    n (Haagerup, 1980); the same for phi o P o transpose bounds ||phi_1||.  One batched SVD
    makes both, each raised by the 4 d m eps of ``spaces.rounded_down`` and by a cb-norm bound
    on the residual R = phi - sum_i a_i . b_i on V, which covers the rounding in P and in the
    factors: x = sum_t x_t B_t in M_n(V) has x_t = (id_n (x) f_t)(x), f_t the coordinate
    functional with matrix pinv_t, of norm ||pinv_t||_1 <= sqrt(d) ||pinv_t||_2, so
    ||R_n(x)|| <= sqrt(d) sum_t ||pinv_t||_2 ||R(B_t)||_F ||x||.
    """
    d, m = phi.domain.ambient_dim, phi.codomain.ambient_dim
    units = phi.unit_images().reshape(d, d, m, m)
    t = np.stack([units, units.swapaxes(0, 1)]).transpose(0, 3, 1, 2, 4).reshape(2, m * d, d * m)
    u, s, vh = np.linalg.svd(t)
    a, b = u * np.sqrt(s)[:, None, :], np.sqrt(s)[..., None] * vh
    # ||[a_1 .. a_r]|| and ||[b_1; ..; b_r]||, the column read transposed: both m x (d r).
    sides = np.stack([a.reshape(2, m, -1), b.reshape(2, -1, m).swapaxes(1, 2)], axis=1)
    norms = top_singular_values(sides)
    # The factorizations on the domain basis B_t, and on B_t transposed for the flip.
    basis = phi.domain._stack
    factored = np.einsum("xpjkq,xtjk->xtpq", (a @ b).reshape(2, m, d, d, m),
                         np.stack([basis, basis.swapaxes(1, 2)]))
    misses = np.linalg.norm((phi.images() - factored).reshape(2, len(basis), -1), axis=-1)
    residual = math.sqrt(d) * misses @ phi.domain._pinv_norms
    cb, flip = norms[:, 0] * norms[:, 1] * (1.0 + 4 * d * m * EPS) + residual
    return float(cb), float(min(cb, flip))


@dataclass(frozen=True)
class LevelEntry:
    """One row of a level-norm table: bracket plus the optimizer's witness."""

    level: int
    bracket: NormBracket
    witness: np.ndarray


@dataclass(frozen=True)
class LevelNormTable:
    """Brackets for ||phi_n||, n = 1..max_level, after bound propagation.

    It answers only for the levels it holds: ||phi||_cb, the norm of every
    level from the map's stabilization level s on, is row s.
    """

    map: LinearMapRep
    entries: tuple
    budget: OptBudget
    seed: int

    @property
    def max_level(self) -> int:
        return len(self.entries)

    @property
    def stabilization_level(self) -> int:
        return self.map.stabilization_level

    def bracket_at(self, n: int) -> NormBracket:
        n = require_int(n, "level", InvalidLevel)
        if n > self.max_level:
            raise InsufficientTable(
                f"table covers levels 1..{self.max_level} and stabilizes at "
                f"{self.stabilization_level}; cannot serve level {n}"
            )
        return self.entries[n - 1].bracket

    def to_json_dict(self) -> dict:
        return {
            "label": self.map.label,
            "max_level": self.max_level,
            "stabilization_level": self.stabilization_level,
            "seed": self.seed,
            "budget": asdict(self.budget),
            "entries": [
                {
                    "n": e.level,
                    "lo": e.bracket.lo,
                    "hi": e.bracket.hi,
                    "lo_source": e.bracket.lo_source,
                    "hi_source": e.bracket.hi_source,
                }
                for e in self.entries
            ],
        }


def _zero_entry(phi: LinearMapRep, n: int) -> LevelEntry:
    bracket = NormBracket(0.0, 0.0, SOURCE_TRIVIAL_ZERO, SOURCE_TRIVIAL_ZERO)
    witness = np.zeros((n, n, phi.domain.dim), dtype=complex)
    return LevelEntry(n, bracket, witness)


def _certificate(phi: LinearMapRep, n: int, haagerup: tuple[float, float]) -> tuple[float, str]:
    """Level n's own hi and its source: the smaller of the ``haagerup`` pair's bound for
    level n (its level-1 form at n = 1) and the coefficient relaxation."""
    cb, first = haagerup
    coeff = coefficient_relaxation_bound(phi, n)
    return min((first if n == 1 else cb, SOURCE_HAAGERUP), (coeff, SOURCE_COEFF_RELAXATION),
               key=lambda c: c[0])


def _reconcile(lo: float, hi: float, phi: LinearMapRep, n: int) -> tuple[float, float]:
    """(lo, hi) unchanged; a witnessed lo above a certified hi, by any margin, is a bug."""
    if lo > hi:
        raise InvariantViolation(
            f"witnessed lower bound {lo} exceeds certified upper bound {hi} "
            f"for {phi.label!r} at level {n}"
        )
    return lo, hi


# Most levels a table may hold.  Each row above s keeps its own padded witness,
# so a table's memory grows like max_level**3: transpose_M2 at 128 levels adds
# about 43 MB resident.
MAX_LEVEL = 64


def require_max_level(max_level) -> int:
    """``max_level`` as a level (``spaces.require_int``) of at most MAX_LEVEL."""
    max_level = require_int(max_level, "max_level", InvalidLevel)
    if max_level > MAX_LEVEL:
        raise InvalidLevel(f"max_level must be at most {MAX_LEVEL}, got {max_level}")
    return max_level


def build_level_table(
    phi: LinearMapRep,
    max_level: int,
    budget: OptBudget = DEFAULT_BUDGET,
    seed: int = 0,
) -> LevelNormTable:
    """Brackets for n = 1..max_level with all cross-level bounds applied.

    Every level bracket is made here.  The stabilization level s is
    ``phi.stabilization_level`` (a zero map's one row is ``trivial_zero``).
    Row n <= s is made from the rows below it, its certified hi first: the
    smallest of ``haagerup_bounds``, made once per table, the coefficient
    relaxation and, for n >= 2, n * hi_1 (``n_times_norm_bound``).  With
    lo_below the lo of row n - 1, the level is closed when lo_below >=
    hi * (1 - budget.tol): its lo is lo_below (``monotonicity``), with row
    n - 1's witness padded, and no ascent runs.  Otherwise its ascent runs,
    stopped once it reaches hi: a deterministic function of (phi, n, budget,
    seed, hi), so tables built from the same inputs share their rows bit for
    bit.  A witnessed lo under lo_below is raised to it the same way.  No
    rule reads a row above its own, so row n is the same in every table
    through a level >= n.  Every level above s is row s (Smith
    stabilization): the same bracket, named ``smith_stabilization`` on both
    sides, and row s's witness padded.  ``max_level`` is checked by
    ``require_max_level`` before any ascent.
    """
    max_level = require_max_level(max_level)
    seed = require_int(seed, "seed", minimum=0)
    s = phi.stabilization_level
    if phi.is_zero:
        rows = [_zero_entry(phi, 1)]
    else:
        haagerup, rows = haagerup_bounds(phi), []
        for n in range(1, min(max_level, s) + 1):
            hi, hi_src = _certificate(phi, n, haagerup)
            if n > 1 and n * rows[0].bracket.hi < hi:
                hi, hi_src = n * rows[0].bracket.hi, SOURCE_N_TIMES_NORM
            lo_below = rows[-1].bracket.lo if rows else -math.inf
            outcome = None
            if lo_below < hi * (1.0 - budget.tol):  # open: search, up to hi
                outcome = maximize_amplified_norm(phi.domain, phi.images(), n, budget, seed, hi)
            if outcome is not None and outcome.value >= lo_below:
                lo, lo_src, witness = outcome.value, SOURCE_OPTIMIZER, outcome.coords
            else:  # closed, or searched to under the row below: that row, padded
                lo, lo_src = lo_below, SOURCE_MONOTONICITY
                witness = pad_to(SpaceElement(phi.domain, n - 1, rows[-1].witness), n).coords
            lo, hi = _reconcile(lo, hi, phi, n)
            rows.append(LevelEntry(n, NormBracket(lo, hi, lo_src, hi_src), witness))
    if max_level > s:
        stable, at_s = rows[-1].bracket, SpaceElement(phi.domain, s, rows[-1].witness)
        if not phi.is_zero:
            stable = NormBracket(stable.lo, stable.hi, SOURCE_SMITH, SOURCE_SMITH)
        rows += [LevelEntry(n, stable, pad_to(at_s, n).coords) for n in range(s + 1, max_level + 1)]
    return LevelNormTable(phi, tuple(rows), budget, seed)


# ---------------------------------------------------------------------------
# JSON map files and witness dumps
# ---------------------------------------------------------------------------


def map_to_dict(phi: LinearMapRep) -> dict:
    return {
        "label": phi.label,
        "domain": space_to_dict(phi.domain),
        "codomain": space_to_dict(phi.codomain),
        "action": to_pairs(phi.coeff.T),
    }


def map_from_dict(data: dict, base_dir: str | None = None) -> LinearMapRep:
    """Parse a map definition; space slots hold inline objects or file paths.

    A relative path is read from ``base_dir`` (default: the working directory).
    """
    what = "map definition"

    def load_slot(slot):
        value = json_field(data, slot, what)
        if isinstance(value, str):
            return load_space(os.path.join(base_dir or "", value))
        return space_from_dict(value)

    domain = load_slot("domain")
    codomain = load_slot("codomain")
    action = json_field(data, "action", what, list)
    action = [from_pairs(a, (codomain.dim,), f"action[{t}]") for t, a in enumerate(action)]
    return make_map(domain, codomain, action, str(data.get("label", "phi")))


def load_map(path: str) -> LinearMapRep:
    """Read a map file; relative space paths in it are read from the file's directory."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return map_from_dict(data, os.path.dirname(os.path.abspath(path)))


def save_map(phi: LinearMapRep, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(map_to_dict(phi), fh, indent=2)
        fh.write("\n")


def witness_to_dict(entry: LevelEntry) -> dict:
    return {"level": entry.level, "achieved": entry.bracket.lo, "coords": to_pairs(entry.witness)}
