"""Concrete operator spaces V inside M_d and their matrix-level norms.

A space is given by an ordered basis of d x d complex matrices.  An element
of the level-n matrix space over V is stored as an (n, n, k) coordinate
array; realizing it substitutes every coordinate vector by the matrix it
encodes, giving an (nd) x (nd) matrix whose spectral norm is the level norm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DependentBasis, DimensionMismatch, InvalidLevel, NonFiniteInput, SpaceMismatch

# Relative smallest-singular-value cutoff below which a basis is rejected.
INDEPENDENCE_CUTOFF = 1e-10


def rounded_down(value: float, level: int, d: int, m: int) -> float:
    """value, a ratio of two SVD norms of size <= N matrices, each within N eps, lowered by
    4 N eps; N is one bound for every level <= m, so a table's levels keep their order."""
    return float(value * (1.0 - 4 * max(level, m) * max(d, m) * np.finfo(float).eps))


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


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class OperatorSpace:
    """A subspace of the d x d complex matrices, given by an ordered basis."""

    ambient_dim: int
    basis: tuple
    label: str = "V"

    # Derived arrays, filled in __post_init__:
    #   _stack     (k, d, d)  basis matrices
    #   _vec       (d*d, k)   column t = basis[t] flattened
    #   _vec_pinv  (k, d*d)   least-squares coordinate recovery
    _stack: np.ndarray = field(init=False, repr=False, compare=False)
    _vec: np.ndarray = field(init=False, repr=False, compare=False)
    _vec_pinv: np.ndarray = field(init=False, repr=False, compare=False)
    _vec_smin: float = field(init=False, repr=False, compare=False)
    _vec_smax: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.ambient_dim
        if type(d) is not int or d < 1:  # a bool is an int, but not a dimension
            raise DimensionMismatch(f"ambient_dim must be a positive integer, got {d!r}")
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
        vec = _readonly(stack.reshape(len(mats), d * d).T)
        svals = np.linalg.svd(vec, compute_uv=False)
        smax = float(svals[0])
        smin = float(svals[-1])
        if len(mats) > d * d or smin <= INDEPENDENCE_CUTOFF * smax:
            raise DependentBasis(
                f"basis of {self.label!r} is dependent or nearly so "
                f"(smin/smax = {smin / smax if smax else 0.0:.3e})"
            )
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_vec", vec)
        object.__setattr__(self, "_vec_pinv", _readonly(np.linalg.pinv(vec)))
        object.__setattr__(self, "_vec_smin", smin)
        object.__setattr__(self, "_vec_smax", smax)

    @property
    def dim(self) -> int:
        """Number of basis elements k."""
        return len(self.basis)

    @property
    def is_full_matrix_algebra(self) -> bool:
        return self.dim == self.ambient_dim**2

    def element(self, level: int, coords) -> "SpaceElement":
        return SpaceElement(self, level, np.asarray(coords, dtype=complex))

    def coords_of(self, matrix: np.ndarray) -> np.ndarray:
        """Least-squares coordinates of a d x d matrix (its projection onto V)."""
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (self.ambient_dim, self.ambient_dim):
            raise DimensionMismatch(f"expected ({self.ambient_dim},)*2, got {m.shape}")
        return self._vec_pinv @ m.reshape(-1)


def make_space(ambient_dim: int, basis: Sequence[np.ndarray], label: str = "V") -> OperatorSpace:
    """Validate and construct an OperatorSpace from a basis list.

    ``ambient_dim`` may be any integer type (a numpy integer too), but not a
    bool or a float: those raise DimensionMismatch.
    """
    if isinstance(ambient_dim, bool) or not isinstance(ambient_dim, (int, np.integer)):
        raise DimensionMismatch(f"ambient_dim must be an integer, got {ambient_dim!r}")
    return OperatorSpace(int(ambient_dim), tuple(basis), label)


def full_matrix_space(d: int, label: str | None = None) -> OperatorSpace:
    """The full matrix algebra M_d with the matrix-unit basis, row-major order."""
    units = []
    for a in range(d):
        for b in range(d):
            m = np.zeros((d, d), dtype=complex)
            m[a, b] = 1.0
            units.append(m)
    return make_space(d, units, label or f"M{d}")


@dataclass(frozen=True)
class SpaceElement:
    """A level-n matrix over a space: (n, n, k) coordinate array."""

    space: OperatorSpace
    level: int
    coords: np.ndarray

    def __post_init__(self):
        if not isinstance(self.level, int) or self.level < 1:
            raise InvalidLevel(f"level must be a positive integer, got {self.level!r}")
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
    d = space.ambient_dim
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (level * d, level * d):
        raise DimensionMismatch(f"expected ({level * d},)*2, got {m.shape}")
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
    """Embed into a higher level by appending zero rows/columns."""
    if level < x.level:
        raise InvalidLevel(f"cannot pad level {x.level} down to {level}")
    if level == x.level:
        return x
    coords = np.zeros((level, level, x.space.dim), dtype=complex)
    coords[: x.level, : x.level] = x.coords
    return SpaceElement(x.space, level, coords)


def random_element(
    space: OperatorSpace, level: int, rng: np.random.Generator, unit: bool = False
) -> SpaceElement:
    """Element with iid complex-gaussian coordinates; unit realized norm if asked."""
    shape = (level, level, space.dim)
    coords = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x = SpaceElement(space, level, coords)
    if unit:
        nrm = level_norm(x)
        if nrm > 0:
            x = SpaceElement(space, level, coords / nrm)
    return x


def random_subspace(
    ambient_dim: int, dim: int, rng: np.random.Generator, label: str = "random"
) -> OperatorSpace:
    """A random dim-dimensional subspace of M_{ambient_dim}."""
    d = ambient_dim
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
    m1_checked: int
    m2_checked: int
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
            "m1_checked": self.m1_checked,
            "m2_checked": self.m2_checked,
            "m1_worst": self.m1_worst,
            "m2_worst": self.m2_worst,
            "failures": list(self.failures),
            "passed": self.passed,
        }


def verify_axioms(
    space: OperatorSpace,
    samples: int,
    seed: int,
    norm_fn: Callable[[SpaceElement], float] | None = None,
) -> AxiomReport:
    """Randomized check of the direct-sum (M1) and contraction (M2) rules.

    M1 is an equality tested to 1e-9 relative; M2 an inequality with 1e-9
    slack.  ``norm_fn`` exists as a test hook: substituting a corrupted norm
    must surface as reported failures.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    nf = norm_fn or level_norm
    rng = np.random.default_rng([abs(int(seed)), 0x4E50])
    failures = []
    m1_worst = 0.0
    m2_worst = 0.0
    for i in range(samples):
        # M1: ||v (+) w|| = max(||v||, ||w||), levels kept <= 4 after summing.
        lv, lw = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        v = random_element(space, lv, rng)
        w = random_element(space, lw, rng)
        got = nf(direct_sum(v, w))
        want = max(nf(v), nf(w))
        rel = abs(got - want) / max(want, 1e-300)
        m1_worst = max(m1_worst, rel)
        if rel > 1e-9:
            failures.append({"check": "M1", "sample": i, "violation": rel})
        # M2: ||alpha x beta|| <= |alpha| ||x|| |beta|.
        lx = int(rng.integers(1, 4))
        lo = int(rng.integers(1, 5))
        x = random_element(space, lx, rng)
        alpha = rng.standard_normal((lo, lx)) + 1j * rng.standard_normal((lo, lx))
        beta = rng.standard_normal((lx, lo)) + 1j * rng.standard_normal((lx, lo))
        lhs = nf(sandwich(alpha, x, beta))
        rhs = spectral_norm(alpha) * nf(x) * spectral_norm(beta)
        excess = lhs - rhs
        m2_worst = max(m2_worst, excess)
        if excess > 1e-9:
            failures.append({"check": "M2", "sample": i, "violation": excess})
    return AxiomReport(
        label=space.label,
        samples=samples,
        m1_checked=samples,
        m2_checked=samples,
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

    A malformed ``rows`` raises ValueError naming ``what``, the part of the file it is.
    """
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{what} is not an array of [re, im] pairs") from None
    if arr.shape != (*shape, 2):
        raise ValueError(f"{what} has shape {arr.shape}, expected {(*shape, 2)}")
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = arr[..., 0], arr[..., 1]
    return out


def space_to_dict(space: OperatorSpace) -> dict:
    return {
        "label": space.label,
        "ambient_dim": space.ambient_dim,
        "basis": to_pairs(space._stack),
    }


def space_from_dict(data: dict) -> OperatorSpace:
    if not isinstance(data, dict):
        raise ValueError("space definition must be a JSON object")
    d = data["ambient_dim"]
    if type(d) is not int or d < 1:  # rejects a JSON true too
        raise ValueError(f"ambient_dim must be a positive integer, got {d!r}")
    basis = [from_pairs(m, (d, d), f"basis[{i}]") for i, m in enumerate(data["basis"])]
    return make_space(d, basis, str(data.get("label", "V")))


def load_space(path: str) -> OperatorSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return space_from_dict(json.load(fh))


def save_space(space: OperatorSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space_to_dict(space), fh, indent=2)
        fh.write("\n")
