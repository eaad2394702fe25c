"""Linear maps between concrete operator spaces and their level-norm brackets.

A map is stored as its coordinate matrix between bases.  Every bracket for
a level norm ||phi_n|| is a row of ``build_level_table``: per-level ascent
brackets joined by one propagation pass of certified cross-level bounds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .bracket import (
    SOURCE_CB_CAP,
    SOURCE_COEFF_RELAXATION,
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
    SpaceMismatch,
)
from .optimize import DEFAULT_BUDGET, OptBudget, maximize_amplified_norm
from .spaces import (
    OperatorSpace,
    SpaceElement,
    _same_space,
    from_pairs,
    pad_to,
    realize,
    require_finite,
    space_from_dict,
    space_to_dict,
    spectral_norm,
    to_pairs,
)

# Relative slack applied to a converged full-domain search value when it is
# promoted to an upper bound; covers the convergence plateau and SVD noise.
_CERT_SLACK = 1e-10

# lo may exceed hi by at most this relative amount before we call it a bug.
_CROSS_TOL = 1e-9


@dataclass(frozen=True)
class LinearMapRep:
    """A linear map phi: V -> W as a k_W x k_V coordinate matrix."""

    domain: OperatorSpace
    codomain: OperatorSpace
    coeff: np.ndarray
    label: str = "phi"
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.array(self.coeff, dtype=complex)
        want = (self.codomain.dim, self.domain.dim)
        if c.shape != want:
            raise DimensionMismatch(f"coeff shape {c.shape}, expected {want}")
        require_finite(c, f"coefficients of map {self.label!r}")
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)

    @property
    def is_zero(self) -> bool:
        return not np.any(self.coeff)

    def images(self) -> np.ndarray:
        """Realized images of the domain basis, stacked (k_V, e, e)."""
        key = "images"
        if key not in self._cache:
            img = np.einsum("st,sab->tab", self.coeff, self.codomain._stack)
            img.setflags(write=False)
            self._cache[key] = img
        return self._cache[key]


def make_map(
    domain: OperatorSpace,
    codomain: OperatorSpace,
    action: Sequence,
    label: str = "phi",
) -> LinearMapRep:
    """Build a map from its action on the domain basis.

    Each action entry is either a k_W coordinate vector or an e x e matrix
    lying in the codomain; matrices outside the codomain's span raise
    InconsistentAction, as does a coordinate/matrix disagreement.
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
            scale = max(float(np.abs(arr).max()), 1.0)
            if np.abs(back - arr).max() > 1e-12 * scale:
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


def realize_amplified(phi: LinearMapRep, x: SpaceElement) -> np.ndarray:
    return realize(amplify(phi, x))


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
    c2 = spectral_norm(phi.coeff)
    factor = phi.codomain._vec_smax / phi.domain._vec_smin
    return math.sqrt(level * phi.domain.ambient_dim) * c2 * factor


@dataclass(frozen=True)
class LevelEntry:
    """One row of a level-norm table: bracket plus the optimizer's witness."""

    level: int
    bracket: NormBracket
    witness: np.ndarray | None


@dataclass(frozen=True)
class LevelNormTable:
    """Brackets for ||phi_n||, n = 1..max_level, after bound propagation.

    ``stabilization_level`` s means ||phi_n|| = ||phi_s|| for every n >= s;
    for a concrete codomain inside M_m this holds with s = m, so the table
    can serve any level above its stored range.
    """

    map: LinearMapRep
    entries: tuple
    stabilization_level: int
    budget: OptBudget
    seed: int

    @property
    def max_level(self) -> int:
        return len(self.entries)

    def bracket_at(self, n: int) -> NormBracket:
        if n < 1:
            raise InvalidLevel(f"level must be >= 1, got {n}")
        if n <= self.max_level:
            return self.entries[n - 1].bracket
        s = self.stabilization_level
        if s <= self.max_level:
            return self._stable_bracket()
        raise InsufficientTable(
            f"table covers levels 1..{self.max_level} and stabilizes at {s}; "
            f"cannot serve level {n}"
        )

    def _stable_bracket(self) -> NormBracket:
        """Row s's bracket as every level above s has it (Smith stabilization)."""
        b = self.entries[self.stabilization_level - 1].bracket
        return b if self.map.is_zero else NormBracket(b.lo, b.hi, SOURCE_SMITH, SOURCE_SMITH)

    def to_json_dict(self) -> dict:
        return {
            "label": self.map.label,
            "max_level": self.max_level,
            "stabilization_level": self.stabilization_level,
            "seed": self.seed,
            "budget": {
                "restarts": self.budget.restarts,
                "max_iter": self.budget.max_iter,
                "tol": self.budget.tol,
            },
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


def _ascent_entry(phi: LinearMapRep, n: int, budget: OptBudget, seed: int) -> LevelEntry:
    """Level n <= m alone, cached on the map: the ascent's witnessed ``lo``, and
    the smaller of its promoted converged value and the coefficient relaxation."""
    key = ("ascent", n, budget, seed)
    if key not in phi._cache:
        outcome = maximize_amplified_norm(phi.domain, phi.images(), n, budget, seed)
        lo = outcome.value
        candidates = []
        if phi.domain.is_full_matrix_algebra and outcome.converged:
            candidates.append((lo * (1.0 + _CERT_SLACK), SOURCE_OPTIMIZER))
        candidates.append((coefficient_relaxation_bound(phi, n), SOURCE_COEFF_RELAXATION))
        hi, hi_src = min(candidates, key=lambda c: c[0])
        lo, hi = _reconcile(lo, hi, phi, n)
        bracket = NormBracket(lo, hi, SOURCE_OPTIMIZER, hi_src)
        phi._cache[key] = LevelEntry(n, bracket, outcome.coords)
    return phi._cache[key]


def _reconcile(lo: float, hi: float, phi: LinearMapRep, n: int) -> tuple[float, float]:
    if lo > hi:
        if lo <= hi + _CROSS_TOL * max(1.0, hi):
            return hi, hi
        raise InvariantViolation(
            f"witnessed lower bound {lo} exceeds certified upper bound {hi} "
            f"for {phi.label!r} at level {n}"
        )
    return lo, hi


def _table_through(phi: LinearMapRep, n: int, budget: OptBudget, seed: int) -> LevelNormTable:
    """The table whose last row serves level n: levels 1..min(n, m)."""
    if not isinstance(n, int) or n < 1:
        raise InvalidLevel(f"level must be a positive integer, got {n!r}")
    return build_level_table(phi, min(n, phi.codomain.ambient_dim), budget, seed)


def level_norm_bracket(
    phi: LinearMapRep, n: int, budget: OptBudget = DEFAULT_BUDGET, seed: int = 0
) -> NormBracket:
    """Certified bracket for ||phi_n||: row n of the level table.

    Levels above the codomain's ambient dimension m read the level-m row:
    the inclusion of the codomain in M_m stabilizes the sequence there, so
    the value is equal, not just capped.
    """
    return _table_through(phi, n, budget, seed).bracket_at(n)


def level_witness(
    phi: LinearMapRep, n: int, budget: OptBudget = DEFAULT_BUDGET, seed: int = 0
) -> SpaceElement:
    """The witness for the level-n lower bound, padded up from level min(n, m)."""
    row = _table_through(phi, n, budget, seed).entries[-1]
    return pad_to(SpaceElement(phi.domain, row.level, row.witness), n)


def base_norm(
    phi: LinearMapRep, budget: OptBudget = DEFAULT_BUDGET, seed: int = 0
) -> NormBracket:
    """Bracket for the plain operator norm ||phi|| = ||phi_1||."""
    return level_norm_bracket(phi, 1, budget, seed)


def cb_norm(
    phi: LinearMapRep, budget: OptBudget = DEFAULT_BUDGET, seed: int = 0
) -> NormBracket:
    """Bracket for sup_n ||phi_n||: the bracket of any level above the ambient m.

    For a full matrix-algebra codomain this is the stabilization statement
    itself; for a proper subspace it follows by applying the same statement
    to the (completely isometric) ambient inclusion.
    """
    return level_norm_bracket(phi, phi.codomain.ambient_dim + 1, budget, seed)


def build_level_table(
    phi: LinearMapRep,
    max_level: int,
    budget: OptBudget = DEFAULT_BUDGET,
    seed: int = 0,
) -> LevelNormTable:
    """Brackets for n = 1..max_level with all cross-level bounds applied.

    Every level bracket is made here.  The stabilization level s is the
    codomain's ambient dimension m (1 for a zero map, whose one row is
    ``trivial_zero``).  Each level n <= s starts from its own ascent, and
    each cross-level rule then runs once over those rows, in order: lo
    upward, hi downward, the cap n * hi_1.  After that lo and hi are
    nondecreasing and hi_n <= n hi_1, so a second pass could change nothing.
    Every level above s is row s (Smith stabilization): the same bracket,
    named ``smith_stabilization`` on both sides, and row s's witness padded.
    """
    if not isinstance(max_level, int) or max_level < 1:
        raise InvalidLevel(f"max_level must be a positive integer, got {max_level!r}")
    if phi.is_zero:
        s, rows = 1, [_zero_entry(phi, 1)]
    else:
        s = phi.codomain.ambient_dim
        rows = [_ascent_entry(phi, n, budget, seed) for n in range(1, min(max_level, s) + 1)]
    top = len(rows)
    los = [e.bracket.lo for e in rows]
    his = [e.bracket.hi for e in rows]
    lo_srcs = [e.bracket.lo_source for e in rows]
    hi_srcs = [e.bracket.hi_source for e in rows]
    witnesses = [e.witness for e in rows]

    # Monotonicity: lower bounds propagate upward (witnesses padded along).
    for i in range(1, top):
        if los[i - 1] > los[i]:
            los[i] = los[i - 1]
            lo_srcs[i] = SOURCE_MONOTONICITY
            witnesses[i] = pad_to(SpaceElement(phi.domain, i, witnesses[i - 1]), i + 1).coords
    # Upper bounds propagate downward; a cap from level s is a cb cap, the
    # rest plain monotone caps.
    for i in range(top - 2, -1, -1):
        if his[i + 1] < his[i]:
            his[i] = his[i + 1]
            hi_srcs[i] = SOURCE_CB_CAP if i + 2 == s else SOURCE_MONOTONICITY
    # n times the level-1 bound.
    for i in range(1, top):
        cap = (i + 1) * his[0]
        if cap < his[i]:
            his[i] = cap
            hi_srcs[i] = SOURCE_N_TIMES_NORM

    entries = []
    for i in range(top):
        lo, hi = _reconcile(los[i], his[i], phi, i + 1)
        bracket = NormBracket(lo, hi, lo_srcs[i], hi_srcs[i])
        entries.append(LevelEntry(i + 1, bracket, witnesses[i]))
    table = LevelNormTable(phi, tuple(entries), s, budget, seed)
    if max_level <= s:
        return table
    stable, at_s = table._stable_bracket(), SpaceElement(phi.domain, s, witnesses[-1])
    above = [LevelEntry(n, stable, pad_to(at_s, n).coords) for n in range(s + 1, max_level + 1)]
    return replace(table, entries=tuple(entries + above))


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


def map_from_dict(data: dict, resolve_space=None) -> LinearMapRep:
    """Parse a map definition; space slots hold inline objects or file paths.

    ``resolve_space`` maps a path string to an OperatorSpace and defaults to
    loading JSON from the filesystem.
    """
    if not isinstance(data, dict):
        raise ValueError("map definition must be a JSON object")

    def load_slot(slot):
        value = data[slot]
        if isinstance(value, str):
            if resolve_space is None:
                from .spaces import load_space

                return load_space(value)
            return resolve_space(value)
        return space_from_dict(value)

    domain = load_slot("domain")
    codomain = load_slot("codomain")
    action = [from_pairs(a, (codomain.dim,), f"action[{t}]") for t, a in enumerate(data["action"])]
    return make_map(domain, codomain, action, str(data.get("label", "phi")))


def load_map(path: str) -> LinearMapRep:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    base_dir = os.path.dirname(os.path.abspath(path))

    def resolve(rel: str) -> OperatorSpace:
        from .spaces import load_space

        target = rel if os.path.isabs(rel) else os.path.join(base_dir, rel)
        return load_space(target)

    return map_from_dict(data, resolve_space=resolve)


def save_map(phi: LinearMapRep, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(map_to_dict(phi), fh, indent=2)
        fh.write("\n")


def witness_to_dict(entry: LevelEntry) -> dict:
    coords = None if entry.witness is None else to_pairs(entry.witness)
    return {"level": entry.level, "achieved": entry.bracket.lo, "coords": coords}
