"""One integer rule and one real-number rule, each checked where the value enters.

Each integer entry point (every level, dimension, count and seed) must give a
numpy integer the result it gives the same Python int, bit for bit, and must
reject a bool, a float (integral or not), a string and a value below its
minimum with its own typed error, never with a TypeError or an error from
inside numpy.  Each real-number entry point (every exponent, tolerance,
certified bound and fitted value) must do the same for numpy ints and floats,
and reject whatever ``spaces.is_real`` refuses, and NaN, with its own message.
"""

import json
import math
import re

import numpy as np
import pytest

from npspace import (
    DimensionMismatch,
    InvalidLevel,
    OperatorSpace,
    OptBudget,
    SpaceElement,
    brute_search,
    build_level_table,
    cross_validate,
    element_from_matrix,
    full_matrix_space,
    get_entry,
    index_estimate,
    make_space,
    maximize_amplified_norm,
    np_norm,
    pad_to,
    random_element,
    random_subspace,
    space_from_dict,
    space_to_dict,
    verify_axioms,
    zeta_tail,
)
from npspace.cli import _suite_axioms, main
from npspace.maps import coefficient_relaxation_bound
from npspace.npnorm import require_p

BUDGET = OptBudget(restarts=2, max_iter=20)
PHI = get_entry("transpose_M2").map
M2 = full_matrix_space(2)
UNITS = [np.array(b) for b in M2.basis]


def _table(max_level=2, seed=0):
    return build_level_table(PHI, max_level, BUDGET, seed)


def _bits(obj) -> str:
    """A text that changes with every bit of obj: floats as hex, arrays as bytes."""
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, np.ndarray):
        return obj.tobytes().hex()
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(_bits(x) for x in obj) + ")"
    if hasattr(obj, "entries"):  # a level table: its JSON dump and every witness
        dump = json.dumps(obj.to_json_dict(), sort_keys=True)
        return dump + _bits([e.witness for e in obj.entries])
    if hasattr(obj, "to_json_dict"):
        return json.dumps(obj.to_json_dict(), sort_keys=True, default=_bits)
    if hasattr(obj, "lo_source"):  # a bracket
        return _bits((obj.lo, obj.hi)) + obj.lo_source + obj.hi_source
    if isinstance(obj, SpaceElement):
        return f"{type(obj.level).__name__}{obj.level}" + _bits(obj.coords)
    if isinstance(obj, OperatorSpace):
        return f"{type(obj.ambient_dim).__name__}" + json.dumps(space_to_dict(obj))
    if hasattr(obj, "converged"):  # an ascent outcome
        return _bits((obj.value, obj.coords)) + f"{obj.converged}{obj.support}"
    return f"{type(obj).__name__}:{obj!r}"


# name -> (error, minimum, good value, call with the value under test)
ENTRY_POINTS = {
    # levels
    "SpaceElement.level": (InvalidLevel, 1, 1, lambda n: SpaceElement(M2, n, np.ones((1, 1, 4)))),
    "element_from_matrix.level": (
        InvalidLevel, 1, 2, lambda n: element_from_matrix(M2, n, np.arange(16.0).reshape(4, 4))
    ),
    "pad_to.level": (InvalidLevel, 1, 2, lambda n: pad_to(SpaceElement(M2, 1, np.ones((1, 1, 4))), n)),
    "build_level_table.max_level": (InvalidLevel, 1, 2, lambda n: _table(max_level=n)),
    "bracket_at.n": (InvalidLevel, 1, 2, lambda n: _table().bracket_at(n)),
    "maximize_amplified_norm.level": (
        InvalidLevel, 1, 2, lambda n: maximize_amplified_norm(M2, PHI.images(), n, BUDGET)
    ),
    "random_element.level": (
        InvalidLevel, 1, 2, lambda n: random_element(M2, n, np.random.default_rng(0))
    ),
    "index_estimate.level": (
        InvalidLevel, 1, 3, lambda n: index_estimate([(1, 1.0), (2, 2.0), (n, 3.5), (4, 4.0)])
    ),
    "brute_search.level": (InvalidLevel, 1, 2, lambda n: brute_search(PHI, n, trials=8)),
    "coefficient_relaxation_bound.level": (
        InvalidLevel, 1, 2, lambda n: coefficient_relaxation_bound(PHI, n)
    ),
    "cross_validate.max_level": (
        InvalidLevel, 1, 2, lambda n: cross_validate(_table(), trials=8, max_level=n)
    ),
    # dimensions
    "OperatorSpace.ambient_dim": (DimensionMismatch, 1, 2, lambda d: OperatorSpace(d, tuple(UNITS))),
    "make_space.ambient_dim": (DimensionMismatch, 1, 2, lambda d: make_space(d, UNITS)),
    "full_matrix_space.d": (DimensionMismatch, 1, 2, lambda d: full_matrix_space(d, "M")),
    "random_subspace.ambient_dim": (
        DimensionMismatch, 1, 2, lambda d: random_subspace(d, 2, np.random.default_rng(0))
    ),
    "random_subspace.dim": (
        DimensionMismatch, 1, 2, lambda k: random_subspace(2, k, np.random.default_rng(0))
    ),
    "space_from_dict.ambient_dim": (
        DimensionMismatch, 1, 2,
        lambda d: space_from_dict({"ambient_dim": d, "basis": space_to_dict(M2)["basis"]}),
    ),
    # counts
    "OptBudget.restarts": (ValueError, 1, 3, lambda r: OptBudget(restarts=r)),
    "OptBudget.max_iter": (ValueError, 1, 5, lambda i: OptBudget(max_iter=i)),
    "brute_search.trials": (ValueError, 1, 8, lambda t: brute_search(PHI, 2, trials=t)),
    "cross_validate.trials": (ValueError, 1, 8, lambda t: cross_validate(_table(), trials=t)),
    "verify_axioms.samples": (ValueError, 1, 3, lambda s: verify_axioms(M2, s, seed=0)),
    "zeta_tail.K": (ValueError, 0, 8, lambda k: zeta_tail(2.5, k)),
    # seeds
    "build_level_table.seed": (ValueError, 0, 7, lambda s: _table(seed=s)),
    "maximize_amplified_norm.seed": (
        ValueError, 0, 7, lambda s: maximize_amplified_norm(M2, PHI.images(), 2, BUDGET, s)
    ),
    "brute_search.seed": (ValueError, 0, 7, lambda s: brute_search(PHI, 2, trials=8, seed=s)),
    "cross_validate.seed": (ValueError, 0, 7, lambda s: cross_validate(_table(), trials=8, seed=s)),
    "verify_axioms.seed": (ValueError, 0, 7, lambda s: verify_axioms(M2, 3, seed=s)),
}

BAD = (True, np.True_, 2.0, 2.5, "2", 0, -1)
BAD_SEEDS = (-1, True, 2.5)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_a_numpy_integer_gives_the_python_ints_result_bitwise(name):
    _, _, good, call = ENTRY_POINTS[name]
    assert _bits(call(np.int64(good))) == _bits(call(good))


def _bad_cases():
    for name, (error, minimum, _, _) in sorted(ENTRY_POINTS.items()):
        for value in BAD if minimum == 1 else BAD_SEEDS:
            yield pytest.param(name, value, id=f"{name}-{value!r}")


@pytest.mark.parametrize("name, value", _bad_cases())
def test_a_bool_float_string_or_small_value_raises_the_typed_error(name, value):
    error, minimum, _, call = ENTRY_POINTS[name]
    kind = "a positive integer" if minimum == 1 else "an integer >= 0"
    with pytest.raises(error, match=f"must be {kind}, got {value!r}"):
        call(value)


def test_pad_to_rejects_a_level_below_the_elements():
    x = SpaceElement(M2, 2, np.ones((2, 2, 4)))
    with pytest.raises(InvalidLevel, match="level must be an integer >= 2, got 1"):
        pad_to(x, 1)


@pytest.mark.parametrize("seed", (-1, True, 2.5), ids=repr)
def test_the_axioms_suite_rejects_a_bad_seed_before_drawing(seed):
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
        _suite_axioms(seed)


@pytest.mark.parametrize(
    "command",
    [
        ["levels", "catalog:transpose_M2"],
        ["npnorm", "catalog:transpose_M2", "--p", "2"],
        ["plotdata", "catalog:transpose_M2", "--p-grid", "2:3:0.5"],
        ["index", "catalog:transpose_M2"],
        ["verify", "--suite", "axioms"],
        ["verify", "--suite", "inclusions"],
        ["verify", "--suite", "bounds"],
    ],
    ids=("levels", "npnorm", "plotdata", "index", "axioms", "inclusions", "bounds"),
)
def test_a_negative_seed_exits_2(command, capsys):
    # Once read as abs(seed): levels --seed -3 printed the numbers of --seed 3.
    assert main(command + ["--seed", "-3"]) == 2
    assert "seed must be an integer >= 0, got -3" in capsys.readouterr().err


def _fit(value, at=1):
    """``index_estimate`` of a sequence whose level ``at + 1`` has the value under test."""
    pairs = [(1, 1.0), (2, 2.0), (3, 3.5), (4, 4.0)]
    pairs[at] = (at + 1, value)
    return index_estimate(pairs)


# name -> (start of its message, the good values its range allows, call with the value)
REAL_ENTRY_POINTS = {
    "require_p": ("p must satisfy 1 <= p < inf", (2, 2.5), require_p),
    "np_norm.p": ("p must satisfy 1 <= p < inf", (2, 2.5), lambda p: np_norm(PHI, p, _table())),
    "zeta_tail.p": ("p must be a number", (2, 2.5), lambda p: zeta_tail(p, 3)),
    "OptBudget.tol": ("invalid budget", (0.25,), lambda t: OptBudget(tol=t)),
    "maximize_amplified_norm.hi": (
        "hi must be a real number > 0", (2, 2.5),
        lambda h: maximize_amplified_norm(M2, PHI.images(), 2, BUDGET, 0, h),
    ),
    "index_estimate.value": ("index fit values must satisfy 0 < value < inf", (2, 2.5), _fit),
}

NOT_REAL = ("2.5", b"3", True, np.True_, None, 2 + 0j, math.nan)


def _real_good_cases():
    for name, (_, goods, _) in sorted(REAL_ENTRY_POINTS.items()):
        for good in goods:
            numpy_type = np.int64 if isinstance(good, int) else np.float64
            yield pytest.param(name, good, numpy_type, id=f"{name}-{numpy_type.__name__}({good})")


@pytest.mark.parametrize("name, good, numpy_type", _real_good_cases())
def test_a_numpy_real_gives_the_python_numbers_result_bitwise(name, good, numpy_type):
    call = REAL_ENTRY_POINTS[name][2]
    assert _bits(call(numpy_type(good))) == _bits(call(good))


def _not_real_cases():
    for name in sorted(REAL_ENTRY_POINTS):
        for value in NOT_REAL:
            yield pytest.param(name, value, id=f"{name}-{value!r}")


@pytest.mark.parametrize("name, value", _not_real_cases())
def test_a_string_bool_none_complex_or_nan_raises_the_entrys_error(name, value):
    message, _, call = REAL_ENTRY_POINTS[name]
    with pytest.raises(ValueError, match=re.escape(message) + ".*" + re.escape(repr(value))):
        call(value)


def test_a_budget_keeps_its_tol_as_a_float():
    assert type(OptBudget(tol=np.float64(0.25)).tol) is float


@pytest.mark.parametrize("p", (-math.inf, np.float64(-math.inf), 1, np.int64(0)), ids=repr)
def test_zeta_tail_of_a_divergent_real_p_stays_inf(p):
    assert zeta_tail(p, 0) == (math.inf, math.inf)


@pytest.mark.parametrize("hi", (-1.0, 0.0, math.nan), ids=repr)
@pytest.mark.parametrize("space", ("M2", "sub3_of_M2"))
def test_the_ascent_refuses_a_hi_that_is_not_positive(space, hi):
    # hi = -1 once returned the start as a certified optimum, and a NaN hi on
    # M_d never drew restarts 1..19.
    V = M2 if space == "M2" else random_subspace(2, 3, np.random.default_rng(1))
    images = np.random.default_rng(2).standard_normal((V.dim, 2, 2)).astype(complex)
    with pytest.raises(ValueError, match=re.escape(f"hi must be a real number > 0, got {hi!r}")):
        maximize_amplified_norm(V, images, 1, BUDGET, 0, hi)


def test_a_zero_map_takes_any_hi():
    out = maximize_amplified_norm(M2, np.zeros((4, 2, 2), complex), 1, BUDGET, 0, -1.0)
    assert out.value == 0.0 and out.converged


@pytest.mark.parametrize("at", range(4))
@pytest.mark.parametrize("value", (math.nan, math.inf, 0, 0.0, -1.0, "2.0"), ids=repr)
def test_index_estimate_refuses_a_bad_value_anywhere(value, at):
    # Values below the fit window (levels 1 and 2 here) were once never read:
    # a NaN there gave an estimate, and "2.0" was taken through float().
    with pytest.raises(ValueError, match=re.escape(f"0 < value < inf, got {value!r}")):
        _fit(value, at)


def test_index_estimate_takes_a_python_int_value_beyond_int64():
    # numpy holds a list with 2**70 in it as objects, whose log fails, so the
    # values are read as floats.
    ints = [(1, 1), (2, 2), (3, 3), (4, 2**70)]
    assert _bits(index_estimate(ints)) == _bits(index_estimate([(n, float(v)) for n, v in ints]))
