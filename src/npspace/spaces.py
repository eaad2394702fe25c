"""Concrete operator spaces V inside M_d and their matrix-level norms.

A space is given by an ordered basis of d x d complex matrices.  An element
of the level-n matrix space over V is stored as an (n, n, k) coordinate
array; realizing it substitutes every coordinate vector by the matrix it
encodes, giving an (nd) x (nd) matrix whose spectral norm is the level norm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bracket import within
from .errors import (
    DependentBasis,
    DimensionMismatch,
    InvalidLevel,
    NonFiniteInput,
    ScaleOutOfRange,
    SpaceMismatch,
)

# Relative smallest-singular-value cutoff below which a basis is rejected.
INDEPENDENCE_CUTOFF = 1e-10

# Largest entry of a basis, and of a map's images, lies within 2**±MAX_ENTRY_EXP: the
# pseudo-inverse then lies at the reciprocal scale, and a product of two entries (an
# eigensolve's A A* of realized images is one) within 2**±960, which leaves 2**62 of the
# double range (2**±1022) to the sums over dimensions.
MAX_ENTRY_EXP = 480

# Machine epsilon, the largest relative spacing of doubles.
EPS = float(np.finfo(float).eps)


def rounded_down(value: float, level: int, d: int, m: int) -> float:
    """value, a ratio of two SVD norms of size <= N matrices, each within N eps, lowered by
    4 N eps; N is one bound for every level <= m, so a table's levels keep their order."""
    return float(value * (1.0 - 4 * max(level, m) * max(d, m) * EPS))


def require_entry_range(arr: np.ndarray, what: str) -> None:
    """Raise ScaleOutOfRange if the largest entry of arr lies outside 2**±MAX_ENTRY_EXP."""
    top = float(np.abs(arr).max())
    if not 2.0**-MAX_ENTRY_EXP <= top <= 2.0**MAX_ENTRY_EXP:
        raise ScaleOutOfRange(
            f"{what}: largest entry {top:.3g} is outside 2**-{MAX_ENTRY_EXP}..2**{MAX_ENTRY_EXP},"
            f" where products of its entries would leave the floating-point range"
        )


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a dense matrix."""
    return float(np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False)[0])


def top_singular_values(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., r, c) stack.

    sigma_max(A) = sqrt(lambda_max(A A*)): the top Gram eigenvalue carries an
    absolute error of about eps * ||A||^2, so the norm keeps about eps relative
    accuracy, more cheaply than a full SVD.  The clamp guards the square root:
    a top eigenvalue rounded below zero would give a NaN, which an argmax or a
    comparison downstream would mishandle.
    """
    top = np.linalg.eigvalsh(mats @ mats.conj().swapaxes(-1, -2))[..., -1]
    return np.sqrt(np.maximum(top, 0.0))


def top_singular_pairs(mats: np.ndarray):
    """Top singular triple (s, u, v) of each matrix in a (..., r, c) stack.

    s and u come from the top eigenpair of A A*, with the clamp of
    ``top_singular_values``, and v = A* u / s.  The eigenvector's error is of
    the same order as an SVD's, about eps * s1 / (s1 - s2).  A zero matrix
    gives s = 0 with u and v finite unit vectors (v the first basis vector).
    """
    lam, vecs = np.linalg.eigh(mats @ mats.conj().swapaxes(-1, -2))
    s = np.sqrt(np.maximum(lam[..., -1], 0.0))
    u = vecs[..., -1]
    ahu = (mats.conj().swapaxes(-1, -2) @ u[..., None])[..., 0]
    zero = s == 0.0
    v = np.divide(ahu, s[..., None], out=np.zeros_like(ahu), where=~zero[..., None])
    v[zero, 0] = 1.0
    return s, u, v


def require_finite(arr: np.ndarray, what: str) -> None:
    """Raise NonFiniteInput naming the first NaN or infinite entry of arr."""
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise NonFiniteInput(f"{what}: entry {idx} is {arr[idx]}, not a finite number")


def require_int(value, what: str, error: type = ValueError, minimum: int = 1) -> int:
    """value as a plain int if it is a Python or numpy integer >= minimum; a bool, a float
    (2.0 too), a string or a smaller value raises ``error`` naming ``what`` and the value."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    kind = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
    raise error(f"{what} must be {kind}, got {value!r}")


def _readonly(arr: np.ndarray, dtype: type = complex) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class OperatorSpace:
    """A subspace of the d x d complex matrices, given by an ordered basis.

    Its basis must be independent (DependentBasis) with its largest entry within
    2**±MAX_ENTRY_EXP (ScaleOutOfRange).  Every constant of the space is derived once,
    in __post_init__, from one thin SVD ``u s vh`` of ``vec.conj()``, where column t of the
    (d*d, k) matrix vec is basis[t] flattened; every array is read-only:

    - ``_stack`` (k, d, d): the basis matrices.
    - ``_vec_pinv`` (k, d*d): ``vh.T (1 / s) u.T``, least-squares coordinate recovery.  It
      is ``np.linalg.pinv(vec)`` bitwise, as pinv factors vec by this same SVD.
    - ``_vec_smin``, ``_vec_smax``: the smallest and largest singular values s of vec.
    - ``_orth`` (k, d*d): ``u.conj().T``, whose rows are an orthonormal basis of V.
    - ``_pinv_norms`` (k,): the row norms ``np.linalg.norm(_vec_pinv, axis=1)``.
    """

    ambient_dim: int
    basis: tuple
    label: str = "V"

    _stack: np.ndarray = field(init=False, repr=False, compare=False)
    _vec_pinv: np.ndarray = field(init=False, repr=False, compare=False)
    _vec_smin: float = field(init=False, repr=False, compare=False)
    _vec_smax: float = field(init=False, repr=False, compare=False)
    _orth: np.ndarray = field(init=False, repr=False, compare=False)
    _pinv_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = require_int(self.ambient_dim, "ambient_dim", DimensionMismatch)
        object.__setattr__(self, "ambient_dim", d)
        mats = tuple(_readonly(b) for b in self.basis)
        if not mats:
            raise DimensionMismatch("basis must be nonempty")
        for i, b in enumerate(mats):
            if b.shape != (d, d):
                raise DimensionMismatch(
                    f"basis[{i}] has shape {b.shape}, expected ({d}, {d})"
                )
        object.__setattr__(self, "basis", mats)
        stack = _readonly(np.stack(mats))
        require_finite(stack, f"basis of {self.label!r}")
        vec = stack.reshape(len(mats), d * d).T
        u, svals, vh = np.linalg.svd(vec.conj(), full_matrices=False)
        smax = float(svals[0])
        smin = float(svals[-1])
        if len(mats) > d * d or smin <= INDEPENDENCE_CUTOFF * smax:
            raise DependentBasis(
                f"basis of {self.label!r} is dependent or nearly so "
                f"(smin/smax = {smin / smax if smax else 0.0:.3e})"
            )
        require_entry_range(stack, f"basis of {self.label!r}")
        pinv = _readonly(vh.T @ ((1.0 / svals)[:, None] * u.T))
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_vec_pinv", pinv)
        object.__setattr__(self, "_vec_smin", smin)
        object.__setattr__(self, "_vec_smax", smax)
        object.__setattr__(self, "_orth", _readonly(u.conj().T))
        object.__setattr__(self, "_pinv_norms", _readonly(np.linalg.norm(pinv, axis=1), float))

    @property
    def dim(self) -> int:
        """Number of basis elements k."""
        return len(self.basis)

    @property
    def is_full_matrix_algebra(self) -> bool:
        return self.dim == self.ambient_dim**2

    def coords_of(self, matrix: np.ndarray) -> np.ndarray:
        """Least-squares coordinates of a d x d matrix (its projection onto V)."""
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (self.ambient_dim, self.ambient_dim):
            raise DimensionMismatch(f"expected ({self.ambient_dim},)*2, got {m.shape}")
        return self._vec_pinv @ m.reshape(-1)


def make_space(ambient_dim: int, basis: Sequence[np.ndarray], label: str = "V") -> OperatorSpace:
    """An OperatorSpace from a basis list; ``ambient_dim`` follows ``require_int``."""
    return OperatorSpace(ambient_dim, tuple(basis), label)


def full_matrix_space(d: int, label: str | None = None) -> OperatorSpace:
    """The full matrix algebra M_d with the matrix-unit basis, row-major order."""
    d = require_int(d, "ambient_dim", DimensionMismatch)
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return make_space(d, list(units), label or f"M{d}")


@dataclass(frozen=True)
class SpaceElement:
    """A level-n matrix over a space: (n, n, k) coordinate array."""

    space: OperatorSpace
    level: int
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "level", require_int(self.level, "level", InvalidLevel))
        c = _readonly(self.coords)
        n, k = self.level, self.space.dim
        if c.shape != (n, n, k):
            raise DimensionMismatch(
                f"coords shape {c.shape} does not match (level, level, k) = ({n}, {n}, {k})"
            )
        object.__setattr__(self, "coords", c)


def realize_batch(stack: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Realize (..., n, n, k) coordinates against a (k, d, d) stack.

    The result has shape (..., nd, nd); its (i, j) block of size d x d is
    sum_t coords[..., i, j, t] * stack[t], all from one (blocks, k) x (k, d*d)
    matrix product laid out by ``block_matrices``.
    """
    flat = coords.reshape(-1, stack.shape[0]) @ stack.reshape(stack.shape[0], -1)
    return block_matrices(flat.reshape(*coords.shape[:-1], -1), stack.shape[-1])


def block_matrices(blocks: np.ndarray, d: int) -> np.ndarray:
    """(..., nd, nd) matrices from their (..., n, n, d*d) blocks (``matrix_blocks`` inverse)."""
    *lead, n = blocks.shape[:-2]
    return blocks.reshape(*lead, n, n, d, d).swapaxes(-3, -2).reshape(*lead, n * d, n * d)


def matrix_blocks(mats: np.ndarray, n: int) -> np.ndarray:
    """The (..., n, n, d*d) blocks of (..., nd, nd) matrices, each block flattened.

    These are the coordinates against the matrix units of M_d (row-major), so
    ``realize_batch(units, matrix_blocks(mats, n))`` rebuilds ``mats`` for the
    (d*d, d, d) matrix-unit stack ``units``.
    """
    d = mats.shape[-1] // n
    lead = mats.shape[:-2]
    return mats.reshape(*lead, n, d, n, d).swapaxes(-3, -2).reshape(*lead, n, n, d * d)


def unrealize(space: OperatorSpace, n: int, mats: np.ndarray) -> np.ndarray:
    """Blockwise least-squares coordinates (..., n, n, k) of (..., nd, nd) matrices."""
    blocks = matrix_blocks(mats, n)
    coords = blocks.reshape(-1, blocks.shape[-1]) @ space._vec_pinv.T
    return coords.reshape(*blocks.shape[:-1], space.dim)


def unit_images(space: OperatorSpace, images: np.ndarray) -> np.ndarray:
    """A linear map on ``space`` carried to the matrix units E_jk of M_d (their
    projections onto V): from its (k, e, e) basis images to (d*d, e, e), row-major."""
    flat = space._vec_pinv.T @ images.reshape(space.dim, -1)
    return flat.reshape(-1, *images.shape[1:])


def realize(x: SpaceElement) -> np.ndarray:
    """The (nd) x (nd) matrix whose (i, j) block is the entry x_{ij} of V."""
    return realize_batch(x.space._stack, x.coords)


def level_norm(x: SpaceElement) -> float:
    """Spectral norm of the realized element (the M_n(V) norm)."""
    return spectral_norm(realize(x))


def witnessed_value(
    space: OperatorSpace, images: np.ndarray, level: int, coords: np.ndarray
) -> tuple[float, np.ndarray]:
    """(value, witness): ``coords`` scaled by the SVD norm of their realization into
    the unit ball of M_n(V), and the SVD norm of the witness realized against
    ``images`` (the map's images of the basis), rounded down: a certified lower bound."""
    witness = coords / spectral_norm(realize_batch(space._stack, coords))
    value = spectral_norm(realize_batch(images, witness))
    return rounded_down(value, level, space.ambient_dim, images.shape[-1]), witness


def element_from_matrix(space: OperatorSpace, level: int, matrix: np.ndarray) -> SpaceElement:
    """Blockwise least-squares coordinates of an (nd) x (nd) matrix."""
    nd = require_int(level, "level", InvalidLevel) * space.ambient_dim
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (nd, nd):
        raise DimensionMismatch(f"expected ({nd},)*2, got {m.shape}")
    return SpaceElement(space, level, unrealize(space, level, m))


def direct_sum(x: SpaceElement, y: SpaceElement) -> SpaceElement:
    """Block-diagonal sum in M_{m+n}(V)."""
    if x.space is not y.space and not _same_space(x.space, y.space):
        raise SpaceMismatch("direct_sum requires elements over the same space")
    m, n, k = x.level, y.level, x.space.dim
    coords = np.zeros((m + n, m + n, k), dtype=complex)
    coords[:m, :m] = x.coords
    coords[m:, m:] = y.coords
    return SpaceElement(x.space, m + n, coords)


def sandwich(alpha: np.ndarray, x: SpaceElement, beta: np.ndarray) -> SpaceElement:
    """Scalar-matrix product alpha * x * beta, landing in M_n(V).

    alpha is n x m, beta is m x n when x has level m.
    """
    a = np.asarray(alpha, dtype=complex)
    b = np.asarray(beta, dtype=complex)
    m = x.level
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != m or b.shape[0] != m or a.shape[0] != b.shape[1]:
        raise DimensionMismatch(f"incompatible scalar shapes {a.shape}, {b.shape} for level {m}")
    coords = np.einsum("ia,abt,bj->ijt", a, x.coords, b)
    return SpaceElement(x.space, a.shape[0], coords)


def pad_to(x: SpaceElement, level: int) -> SpaceElement:
    """Embed into a level >= x.level by appending zero rows/columns."""
    level = require_int(level, "level", InvalidLevel, minimum=x.level)
    if level == x.level:
        return x
    coords = np.zeros((level, level, x.space.dim), dtype=complex)
    coords[: x.level, : x.level] = x.coords
    return SpaceElement(x.space, level, coords)


def random_element(space: OperatorSpace, level: int, rng: np.random.Generator) -> SpaceElement:
    """Element with iid complex-gaussian coordinates."""
    level = require_int(level, "level", InvalidLevel)
    shape = (level, level, space.dim)
    coords = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpaceElement(space, level, coords)


def random_subspace(
    ambient_dim: int, dim: int, rng: np.random.Generator, label: str = "random"
) -> OperatorSpace:
    """A random dim-dimensional subspace of M_{ambient_dim}."""
    d = require_int(ambient_dim, "ambient_dim", DimensionMismatch)
    dim = require_int(dim, "dim", DimensionMismatch)
    mats = rng.standard_normal((dim, d, d)) + 1j * rng.standard_normal((dim, d, d))
    return make_space(d, list(mats), label)


def _same_space(a: OperatorSpace, b: OperatorSpace) -> bool:
    return (
        a.ambient_dim == b.ambient_dim
        and a.dim == b.dim
        and np.array_equal(a._stack, b._stack)
    )


# ---------------------------------------------------------------------------
# Axiom spot-checks (direct-sum maximum and scalar contraction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of randomized M1/M2 checks on one space."""

    label: str
    samples: int
    m1_worst: float
    m2_worst: float
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "samples": self.samples,
            "m1_worst": self.m1_worst,
            "m2_worst": self.m2_worst,
            "failures": list(self.failures),
            "passed": self.passed,
        }


def _spectral_norms(mats: list) -> list[float]:
    """``spectral_norm`` of each matrix in ``mats``, in order, from one SVD call per shape."""
    out = [0.0] * len(mats)
    by_shape: dict[tuple, list[int]] = {}
    for i, a in enumerate(mats):
        by_shape.setdefault(a.shape, []).append(i)
    for idx in by_shape.values():
        tops = np.linalg.svd(np.stack([mats[i] for i in idx]), compute_uv=False)[:, 0]
        for i, t in zip(idx, tops.tolist()):
            out[i] = t
    return out


def verify_axioms(space: OperatorSpace, samples: int, seed: int) -> AxiomReport:
    """Randomized check of the direct-sum (M1) and contraction (M2) rules.

    M1 is an equality tested to 1e-9 relative; M2 the inequality
    ``bracket.within(lhs, bound, 1e-9)``, a slack of 1e-9 of the bound.  Both
    worst values are relative, so the checks decide alike at every scale of the
    basis.  Every sample is drawn first, in one stream; then the norms are
    taken, one SVD call per realized shape, each element realized on its own
    as ``level_norm`` realizes it.
    """
    samples = require_int(samples, "samples")
    rng = np.random.default_rng([require_int(seed, "seed", minimum=0), 0x4E50])
    elements, scalars = [], []
    for _ in range(samples):
        # M1: ||v (+) w|| = max(||v||, ||w||), levels kept <= 4 after summing.
        lv, lw = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        v = random_element(space, lv, rng)
        w = random_element(space, lw, rng)
        # M2: ||alpha x beta|| <= |alpha| ||x|| |beta|.
        lx = int(rng.integers(1, 4))
        lo = int(rng.integers(1, 5))
        x = random_element(space, lx, rng)
        alpha = rng.standard_normal((lo, lx)) + 1j * rng.standard_normal((lo, lx))
        beta = rng.standard_normal((lx, lo)) + 1j * rng.standard_normal((lx, lo))
        elements += [direct_sum(v, w), v, w, sandwich(alpha, x, beta), x]
        scalars += [alpha, beta]
    norms = _spectral_norms([realize(e) for e in elements])
    scalar_norms = _spectral_norms(scalars)
    failures = []
    m1_worst = 0.0
    m2_worst = 0.0
    for i in range(samples):
        got, nv, nw, lhs, nx = norms[5 * i : 5 * i + 5]
        want = max(nv, nw)
        rel = abs(got - want) / max(want, 1e-300)
        m1_worst = max(m1_worst, rel)
        if rel > 1e-9:
            failures.append({"check": "M1", "sample": i, "violation": rel})
        bound = scalar_norms[2 * i] * nx * scalar_norms[2 * i + 1]
        excess = (lhs - bound) / max(bound, 1e-300)
        m2_worst = max(m2_worst, excess)
        if not within(lhs, bound, 1e-9):
            failures.append({"check": "M2", "sample": i, "violation": excess})
    return AxiomReport(
        label=space.label,
        samples=samples,
        m1_worst=m1_worst,
        m2_worst=m2_worst,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# JSON space files
# ---------------------------------------------------------------------------


def to_pairs(arr) -> list:
    """A complex array as nested lists with each entry an [re, im] pair of floats."""
    a = np.asarray(arr, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def from_pairs(rows, shape: tuple, what: str) -> np.ndarray:
    """The complex array of the given shape that ``to_pairs`` wrote as ``rows``.

    A malformed ``rows`` raises ValueError naming ``what``, the part of the file it is;
    so does any part that is not an int or a float, such as a string, a bool or null.
    """
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{what} is not an array of [re, im] pairs") from None
    if arr.shape != (*shape, 2):
        raise ValueError(f"{what} has shape {arr.shape}, expected {(*shape, 2)}")
    for x in np.asarray(rows, dtype=object).flat:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"{what} holds {x!r}, not a number")
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = arr[..., 0], arr[..., 1]
    return out


def space_to_dict(space: OperatorSpace) -> dict:
    return {
        "label": space.label,
        "ambient_dim": space.ambient_dim,
        "basis": to_pairs(space._stack),
    }


def json_field(data, key: str, what: str, kind: type = object):
    """data[key] of the JSON object ``what``, which must exist and be a ``kind``; else ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    if key not in data:
        raise ValueError(f'{what} has no "{key}"')
    if not isinstance(data[key], kind):
        raise ValueError(f"{key} must be a {kind.__name__}, got {data[key]!r}")
    return data[key]


def space_from_dict(data: dict) -> OperatorSpace:
    """The space of a decoded space file; ``ambient_dim`` (``require_int``, DimensionMismatch)
    is checked before the basis is decoded."""
    what = "space definition"
    d = require_int(json_field(data, "ambient_dim", what), "ambient_dim", DimensionMismatch)
    basis = json_field(data, "basis", what, list)
    basis = [from_pairs(m, (d, d), f"basis[{i}]") for i, m in enumerate(basis)]
    return make_space(d, basis, str(data.get("label", "V")))


def load_space(path: str) -> OperatorSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return space_from_dict(json.load(fh))


def save_space(space: OperatorSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space_to_dict(space), fh, indent=2)
        fh.write("\n")
