"""Ground truth and output checks, computed apart from the program.

Nothing here imports npspace.  Maps are held as plain arrays: the domain
basis (k, d, d) and the images phi(b_t) of the basis matrices (k, e, e),
both taken from the benchmark's own generator or from the program's JSON
map format.  A check appends a one-line message to a problem list for each
wrong output; an empty list means every output held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

# Relative slack for comparisons against exact values: covers rounding in
# the program's SVDs and sums, and is far below every perturbation the
# self-tests use (1%).
REL_TOL = 1e-9

# The oracle's own acceptance window on catalog maps.
ORACLE_REL = 5e-3
ORACLE_ABS = 1e-9


@dataclass(frozen=True)
class MapData:
    """A linear map as the basis of its domain and the images of that basis."""

    basis: np.ndarray  # (k, d, d)
    images: np.ndarray  # (k, e, e)


@dataclass(frozen=True)
class Rule:
    """Closed-form level norms: value(n) for n < stable, value(stable) after."""

    values: tuple  # ||phi_n|| for n = 1..len(values); constant afterwards

    def at(self, n: int) -> float:
        return self.values[min(n, len(self.values)) - 1]

    def series(self, p: float) -> float:
        """sum_n ||phi_n|| / n^p from zeta(p): head terms plus a constant tail."""
        s = len(self.values)
        head = math.fsum(v / n**p for n, v in enumerate(self.values[:-1], start=1))
        head_zeta = math.fsum(n ** (-p) for n in range(1, s))
        return head + self.values[-1] * (float(zeta(p)) - head_zeta)


def _transpose(d: int) -> Rule:
    # ||t_n|| = min(n, d) (Tomiyama); constant from n = d on.
    return Rule(tuple(float(n) for n in range(1, d + 1)))


# Classical level norms of the catalog maps, keyed by catalog name.
CATALOG_TRUTH = {
    "zero_M2": Rule((0.0,)),
    "identity_M2": Rule((1.0,)),
    "identity_M3": Rule((1.0,)),
    "transpose_M2": _transpose(2),
    "transpose_M3": _transpose(3),
    # A functional has ||f_n|| = ||f||; the trace norm of the identity is 2.
    "trace_M2": Rule((2.0,)),
    # x -> <a, x b> has norm |a| |b| at every level.
    "rank_one_M2": Rule((math.hypot(0.6, 0.8) * math.hypot(2.0, 1.0),)),
    # Schur multiplier by [[1, 1], [-1, 1]]: sqrt(2) at every level.
    "schur_M2": Rule((math.sqrt(2.0),)),
    # Conditional expectation onto the diagonal: a complete contraction.
    "diag_M2": Rule((1.0,)),
}


def pairs_to_matrix(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def map_data_from_dict(data: dict) -> MapData:
    """Arrays of a map given in the JSON map-file schema, spaces inline."""
    basis = np.stack([pairs_to_matrix(m) for m in data["domain"]["basis"]])
    cod = np.stack([pairs_to_matrix(m) for m in data["codomain"]["basis"]])
    coeff = np.stack([pairs_to_matrix(col) for col in data["action"]], axis=1)
    images = np.einsum("st,sab->tab", coeff, cod)
    return MapData(basis, images)


def opnorm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def realize(coords: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_t coords[:, :, t] (x) mats[t]: block (i, j) is sum_t x_ijt mats[t]."""
    return sum(np.kron(coords[:, :, t], mats[t]) for t in range(mats.shape[0]))


def upper_bound(data: MapData) -> float:
    """A bound on every ||phi_n||: sum_t ||P_t|| ||phi(b_t)||.

    P_t is the t-th coordinate functional of the domain.  Any extension of
    it to M_d bounds its norm; the least-squares dual row R_t is one, with
    norm the trace norm of R_t.  Functionals are completely bounded with
    the same norm, so the sum bounds phi_n at every level n.
    """
    k, d, _ = data.basis.shape
    duals = np.linalg.pinv(data.basis.reshape(k, d * d).T).reshape(k, d, d)
    trace_norms = [float(np.linalg.svd(r, compute_uv=False).sum()) for r in duals]
    return math.fsum(t * opnorm(img) for t, img in zip(trace_norms, data.images))


def lower_bound(data: MapData) -> float:
    """||phi_n|| >= ||phi(b_t)|| / ||b_t|| for every basis element and level."""
    return max(opnorm(img) / opnorm(b) for b, img in zip(data.basis, data.images))


def check_witness(problems: list, where: str, data: MapData, coords, lo: float) -> None:
    """The witness must lie in the unit ball and achieve the claimed lo."""
    x = np.asarray(coords, dtype=complex)
    norm_x = opnorm(realize(x, data.basis))
    value = opnorm(realize(x, data.images))
    if norm_x > 1.0 + REL_TOL:
        problems.append(f"{where}: witness norm {norm_x!r} > 1")
    if value < lo * (1.0 - REL_TOL) - REL_TOL:
        problems.append(f"{where}: witness reaches {value!r} < lo {lo!r}")


def check_bracket(problems: list, where: str, lo: float, hi: float, truth: float) -> None:
    """lo <= truth <= hi, up to rounding."""
    slack = REL_TOL * max(1.0, truth)
    if lo > truth + slack:
        problems.append(f"{where}: lo {lo!r} above truth {truth!r}")
    if hi < truth - slack:
        problems.append(f"{where}: hi {hi!r} below truth {truth!r}")


def check_between(problems: list, where: str, value: float, low: float, high: float) -> None:
    """low <= value <= high for bounds the benchmark derived itself."""
    if value < low * (1.0 - REL_TOL) or value > high * (1.0 + REL_TOL):
        problems.append(f"{where}: {value!r} outside [{low!r}, {high!r}]")


def check_oracle(problems: list, where: str, brute: float, truth: float) -> None:
    """truth (1 - 5e-3) <= brute <= truth + 1e-9: a near-optimal lower bound."""
    if not truth * (1.0 - ORACLE_REL) <= brute <= truth + ORACLE_ABS:
        problems.append(f"{where}: brute {brute!r} outside the window of truth {truth!r}")


def geomean(values) -> float:
    """Geometric mean of the positive values; 0 when there are none."""
    logs = [math.log(v) for v in values if v > 0.0]
    return math.exp(math.fsum(logs) / len(logs)) if logs else 0.0
