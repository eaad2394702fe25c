"""Built-in example maps with known level-norm behavior.

Every entry carries a closed-form rule n -> ||phi_n|| taken from classical
operator-space facts (functionals, transpose, Schur multipliers, complete
isometries).  The module is data only: it evaluates no series, since
``npnorm.np_norm`` is the one place a series is closed.  The rules are not
trusted blindly: tests validate each one against the brute-force oracle at
small levels, and the series ``np_norm`` computes from the catalog's tables
against the rules summed to 60 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .maps import LinearMapRep, make_map
from .spaces import full_matrix_space, make_space

PROVENANCE_PAPER_COROLLARY = "paper_corollary"
PROVENANCE_DERIVED_ORACLE = "derived_oracle"
PROVENANCE_TRIVIAL = "trivial"


@dataclass(frozen=True)
class CatalogEntry:
    """A named map and its closed-form rule n -> ||phi_n||."""

    name: str
    map: LinearMapRep
    expected_level_norms: Callable[[int], float]
    provenance: str


@lru_cache(maxsize=1)
def _entries() -> tuple[CatalogEntry, ...]:
    m1 = full_matrix_space(1, "M1")
    m2 = full_matrix_space(2, "M2")
    m3 = full_matrix_space(3, "M3")

    entries = []

    zero = make_map(m2, m2, [np.zeros((2, 2))] * 4, "zero_M2")
    entries.append(CatalogEntry("zero_M2", zero, lambda n: 0.0, PROVENANCE_TRIVIAL))

    for d, space in ((2, m2), (3, m3)):
        ident = make_map(space, space, [b for b in space.basis], f"identity_M{d}")
        entries.append(CatalogEntry(f"identity_M{d}", ident, lambda n: 1.0, PROVENANCE_TRIVIAL))

    for d, space in ((2, m2), (3, m3)):
        transp = make_map(space, space, [np.array(b).T for b in space.basis], f"transpose_M{d}")
        entries.append(CatalogEntry(
            f"transpose_M{d}", transp, lambda n, d=d: float(min(n, d)), PROVENANCE_DERIVED_ORACLE
        ))

    trace = make_map(
        m2, m1, [np.array([[np.trace(b)]]) for b in m2.basis], "trace_M2"
    )
    # Functionals have ||f_n|| = ||f|| for every n; the trace functional on
    # the spectral unit ball attains |tr I| = 2.
    entries.append(CatalogEntry("trace_M2", trace, lambda n: 2.0, PROVENANCE_PAPER_COROLLARY))

    a = np.array([0.6, 0.8j])
    b = np.array([2.0, -1.0])
    rank_one = make_map(
        m2,
        m1,
        [np.array([[np.vdot(a, unit @ b)]]) for unit in m2.basis],
        "rank_one_M2",
    )
    rank_one_value = float(np.linalg.norm(a) * np.linalg.norm(b))
    entries.append(CatalogEntry(
        "rank_one_M2", rank_one, lambda n, v=rank_one_value: v, PROVENANCE_PAPER_COROLLARY
    ))

    # Entrywise multiplier by [[1, 1], [-1, 1]]: norm sqrt(2) at every level
    # (a rotation witness from below, a length-sqrt(2) column factorization
    # from above).
    mult = np.array([[1.0, 1.0], [-1.0, 1.0]])
    schur = make_map(
        m2, m2, [mult * np.array(bm) for bm in m2.basis], "schur_M2"
    )
    entries.append(CatalogEntry(
        "schur_M2", schur, lambda n: math.sqrt(2.0), PROVENANCE_DERIVED_ORACLE
    ))

    units = m2.basis
    diag_space = make_space(2, [units[0], units[3]], "diag(M2)")
    diag = make_map(
        m2,
        diag_space,
        [units[0], np.zeros((2, 2)), np.zeros((2, 2)), units[3]],
        "diag_M2",
    )
    entries.append(CatalogEntry("diag_M2", diag, lambda n: 1.0, PROVENANCE_DERIVED_ORACLE))

    return tuple(entries)


def list_entries() -> list[CatalogEntry]:
    return list(_entries())


def get_entry(name: str) -> CatalogEntry:
    for entry in _entries():
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in _entries())
    raise KeyError(f"no catalog entry {name!r}; known entries: {known}")
