"""Linear maps between concrete operator spaces and their level-norm brackets.

A map is stored as its coordinate matrix between bases.  Level norms
||phi_n|| are bracketed from below by the batched ascent optimizer
(witnessed) and from above by a stack of certified caps: n times the base
norm, the coefficient relaxation, stabilization at the codomain's ambient
dimension, and monotone caps from higher levels.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
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
    pad_to,
    realize,
    require_finite,
    space_from_dict,
    space_to_dict,
    spectral_norm,
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
    phi = LinearMapRep(domain, codomain, np.stack(cols, axis=1), label)
    # Construction invariant: realized action on each basis element agrees
    # with the coordinate action.
    images = phi.images()
    for t, col in enumerate(cols):
        direct = np.einsum("s,sab->ab", np.asarray(col), codomain._stack)
        scale = max(float(np.abs(direct).max()), 1.0)
        if np.abs(images[t] - direct).max() > 1e-12 * scale:
            raise InconsistentAction(f"coordinate action disagrees on basis element {t}")
    return phi


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
            return self.entries[s - 1].bracket
        raise InsufficientTable(
            f"table covers levels 1..{self.max_level} and stabilizes at {s}; "
            f"cannot serve level {n}"
        )

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


def _cache_key(kind: str, n: int, budget: OptBudget, seed: int):
    return (kind, n, budget.restarts, budget.max_iter, budget.tol, seed)


def _zero_entry(phi: LinearMapRep, n: int) -> LevelEntry:
    bracket = NormBracket(0.0, 0.0, SOURCE_TRIVIAL_ZERO, SOURCE_TRIVIAL_ZERO)
    witness = np.zeros((n, n, phi.domain.dim), dtype=complex)
    return LevelEntry(n, bracket, witness)


def _raw_level_entry(phi: LinearMapRep, n: int, budget: OptBudget, seed: int) -> LevelEntry:
    """Bracket at one level, before any cross-level propagation."""
    key = _cache_key("raw", n, budget, seed)
    if key in phi._cache:
        return phi._cache[key]
    if phi.is_zero:
        entry = _zero_entry(phi, n)
        phi._cache[key] = entry
        return entry
    outcome = maximize_amplified_norm(phi.domain, phi.images(), n, budget, seed)
    lo = outcome.value
    candidates = []
    if phi.domain.is_full_matrix_algebra and outcome.converged:
        candidates.append((lo * (1.0 + _CERT_SLACK), SOURCE_OPTIMIZER))
    if n > 1:
        base = _raw_level_entry(phi, 1, budget, seed).bracket
        candidates.append((n * base.hi, SOURCE_N_TIMES_NORM))
    candidates.append((coefficient_relaxation_bound(phi, n), SOURCE_COEFF_RELAXATION))
    hi, hi_src = min(candidates, key=lambda c: c[0])
    lo, hi = _reconcile(lo, hi, phi, n)
    entry = LevelEntry(n, NormBracket(lo, hi, SOURCE_OPTIMIZER, hi_src), outcome.coords)
    phi._cache[key] = entry
    return entry


def _reconcile(lo: float, hi: float, phi: LinearMapRep, n: int) -> tuple[float, float]:
    if lo > hi:
        if lo <= hi + _CROSS_TOL * max(1.0, hi):
            return hi, hi
        raise InvariantViolation(
            f"witnessed lower bound {lo} exceeds certified upper bound {hi} "
            f"for {phi.label!r} at level {n}"
        )
    return lo, hi


def level_norm_bracket(
    phi: LinearMapRep, n: int, budget: OptBudget = DEFAULT_BUDGET, seed: int = 0
) -> NormBracket:
    """Certified bracket for ||phi_n||.

    Levels above the codomain's ambient dimension m reuse the level-m
    bracket: the inclusion of the codomain in M_m stabilizes the sequence
    there, so the value is equal, not just capped.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidLevel(f"level must be a positive integer, got {n!r}")
    return _level_entry(phi, n, budget, seed).bracket


def level_witness(
    phi: LinearMapRep, n: int, budget: OptBudget = DEFAULT_BUDGET, seed: int = 0
) -> SpaceElement:
    """The optimizer's witness for the level-n lower bound."""
    entry = _level_entry(phi, n, budget, seed)
    return SpaceElement(phi.domain, n, entry.witness)


def _level_entry(phi: LinearMapRep, n: int, budget: OptBudget, seed: int) -> LevelEntry:
    if not isinstance(n, int) or n < 1:
        raise InvalidLevel(f"level must be a positive integer, got {n!r}")
    if phi.is_zero:
        return _zero_entry(phi, n)
    m = phi.codomain.ambient_dim
    if n <= m:
        return _raw_level_entry(phi, n, budget, seed)
    key = _cache_key("stab", n, budget, seed)
    if key not in phi._cache:
        at_m = _raw_level_entry(phi, m, budget, seed)
        bracket = NormBracket(at_m.bracket.lo, at_m.bracket.hi, SOURCE_SMITH, SOURCE_SMITH)
        witness = pad_to(SpaceElement(phi.domain, m, at_m.witness), n).coords
        phi._cache[key] = LevelEntry(n, bracket, witness)
    return phi._cache[key]


def base_norm(
    phi: LinearMapRep, budget: OptBudget = DEFAULT_BUDGET, seed: int = 0
) -> NormBracket:
    """Bracket for the plain operator norm ||phi|| = ||phi_1||."""
    return level_norm_bracket(phi, 1, budget, seed)


def cb_norm(
    phi: LinearMapRep, budget: OptBudget = DEFAULT_BUDGET, seed: int = 0
) -> NormBracket:
    """Bracket for sup_n ||phi_n||, which equals ||phi_m|| at the ambient m.

    For a full matrix-algebra codomain this is the stabilization statement
    itself; for a proper subspace it follows by applying the same statement
    to the (completely isometric) ambient inclusion.
    """
    if phi.is_zero:
        return NormBracket(0.0, 0.0, SOURCE_TRIVIAL_ZERO, SOURCE_TRIVIAL_ZERO)
    m = phi.codomain.ambient_dim
    inner = level_norm_bracket(phi, m, budget, seed)
    return NormBracket(inner.lo, inner.hi, SOURCE_SMITH, SOURCE_SMITH)


def build_level_table(
    phi: LinearMapRep,
    max_level: int,
    budget: OptBudget = DEFAULT_BUDGET,
    seed: int = 0,
) -> LevelNormTable:
    """Brackets for n = 1..max_level with all cross-level bounds applied."""
    if not isinstance(max_level, int) or max_level < 1:
        raise InvalidLevel(f"max_level must be a positive integer, got {max_level!r}")
    if phi.is_zero:
        entries = tuple(_zero_entry(phi, n) for n in range(1, max_level + 1))
        return LevelNormTable(phi, entries, 1, budget, seed)

    raw = [_level_entry(phi, n, budget, seed) for n in range(1, max_level + 1)]
    los = [e.bracket.lo for e in raw]
    his = [e.bracket.hi for e in raw]
    lo_srcs = [e.bracket.lo_source for e in raw]
    hi_srcs = [e.bracket.hi_source for e in raw]
    witnesses = [e.witness for e in raw]
    m = phi.codomain.ambient_dim

    for _ in range(4):
        changed = False
        # Monotonicity: lower bounds propagate upward (witnesses padded along).
        for i in range(1, max_level):
            if los[i - 1] > los[i]:
                los[i] = los[i - 1]
                lo_srcs[i] = SOURCE_MONOTONICITY
                witnesses[i] = pad_to(
                    SpaceElement(phi.domain, i, witnesses[i - 1]), i + 1
                ).coords
                changed = True
        # Upper bounds propagate downward; caps descending from the
        # stabilized range are cb caps, the rest plain monotone caps.
        for i in range(max_level - 2, -1, -1):
            if his[i + 1] < his[i]:
                his[i] = his[i + 1]
                hi_srcs[i] = SOURCE_CB_CAP if i + 2 >= m else SOURCE_MONOTONICITY
                changed = True
        # n times the level-1 bound.
        for i in range(1, max_level):
            cap = (i + 1) * his[0]
            if cap < his[i]:
                his[i] = cap
                hi_srcs[i] = SOURCE_N_TIMES_NORM
                changed = True
        # Levels at or beyond the ambient dimension share one value.
        if m <= max_level:
            group = range(m - 1, max_level)
            glo = max(los[i] for i in group)
            ghi = min(his[i] for i in group)
            for i in group:
                if los[i] != glo or his[i] != ghi:
                    if los[i] != glo:
                        lo_srcs[i] = SOURCE_SMITH
                    if his[i] != ghi:
                        hi_srcs[i] = SOURCE_SMITH
                    los[i], his[i] = glo, ghi
                    changed = True
        if not changed:
            break

    entries = []
    for i in range(max_level):
        lo, hi = _reconcile(los[i], his[i], phi, i + 1)
        entries.append(
            LevelEntry(i + 1, NormBracket(lo, hi, lo_srcs[i], hi_srcs[i]), witnesses[i])
        )
    return LevelNormTable(phi, tuple(entries), m, budget, seed)


# ---------------------------------------------------------------------------
# JSON map files and witness dumps
# ---------------------------------------------------------------------------


def _complex_to_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def map_to_dict(phi: LinearMapRep) -> dict:
    return {
        "label": phi.label,
        "domain": space_to_dict(phi.domain),
        "codomain": space_to_dict(phi.codomain),
        "action": [
            [_complex_to_pair(z) for z in phi.coeff[:, t]] for t in range(phi.domain.dim)
        ],
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
    action = []
    for entry in data["action"]:
        arr = np.asarray(entry, dtype=float)
        if arr.shape != (codomain.dim, 2):
            raise ValueError(
                f"action entry has shape {arr.shape}, expected ({codomain.dim}, 2)"
            )
        action.append(arr[:, 0] + 1j * arr[:, 1])
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
    coords = entry.witness
    serial = None
    if coords is not None:
        serial = [
            [[_complex_to_pair(z) for z in cell] for cell in row] for row in coords
        ]
    return {"level": entry.level, "achieved": entry.bracket.lo, "coords": serial}
