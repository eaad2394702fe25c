"""Brute-force oracle: lower-bound quality and table cross-validation."""

import numpy as np
import pytest

from npspace import (
    NormBracket,
    base_norm,
    brute_level_norm,
    brute_search,
    build_level_table,
    cross_validate,
    full_matrix_space,
    get_entry,
    level_norm,
    make_map,
    random_subspace,
    realize_amplified,
)
from npspace.maps import LevelEntry, LevelNormTable
from npspace.optimize import DEFAULT_BUDGET
from npspace.spaces import SpaceElement

SEED = 11


def test_brute_transpose_m2_level2_reaches_two():
    # Pinned by the acceptance suite as well: 2000 trials find 2 - 1e-3.
    phi = get_entry("transpose_M2").map
    value = brute_level_norm(phi, 2, trials=2000, seed=0)
    assert value >= 2.0 - 1e-3
    assert value <= 2.0 + 1e-9


def test_brute_identity_level3():
    phi = get_entry("identity_M2").map
    value = brute_level_norm(phi, 3, trials=50, seed=1)
    assert value >= 1.0 - 1e-9
    assert value <= 1.0 + 1e-9


def test_brute_zero_map():
    phi = get_entry("zero_M2").map
    assert brute_level_norm(phi, 2, trials=10, seed=0) == 0.0


def test_brute_witness_is_feasible_and_achieves_value():
    phi = get_entry("schur_M2").map
    value, witness = brute_search(phi, 2, trials=300, seed=4)
    x = SpaceElement(phi.domain, 2, witness)
    assert level_norm(x) <= 1.0 + 1e-10
    assert abs(np.linalg.norm(realize_amplified(phi, x), 2) - value) <= 1e-12


def test_brute_subspace_domain_fallback():
    # Proper subspace domain exercises the coordinate-perturbation path.
    m2 = full_matrix_space(2)
    units = [np.array(b) for b in m2.basis]
    upper = __import__("npspace").make_space(2, [units[0], units[1], units[3]], "UT2")
    incl = make_map(upper, m2, [units[0], units[1], units[3]], "incl")
    value = brute_level_norm(incl, 2, trials=500, seed=2)
    assert value >= 1.0 - 5e-3  # inclusion is a complete isometry
    assert value <= 1.0 + 1e-9


def test_brute_never_exceeds_certified_caps():
    for name in ("identity_M2", "transpose_M2", "schur_M2", "trace_M2"):
        phi = get_entry(name).map
        base_hi = base_norm(phi, seed=SEED).hi
        for n in (1, 2):
            brute = brute_level_norm(phi, n, trials=300, seed=SEED)
            assert brute <= n * base_hi + 1e-9


def test_cross_validate_catalog_subset():
    for name in ("identity_M2", "transpose_M2", "schur_M2", "diag_M2"):
        table = build_level_table(get_entry(name).map, 3, seed=SEED)
        report = cross_validate(table, trials=300, seed=3, max_level=3)
        assert report.passed, report.to_json_dict()["rows"]


@pytest.mark.parametrize("s", (0, 1, 2))
def test_cross_validate_random_subspace_domain(s):
    # The ascent's lower bound on a proper-subspace domain must come within
    # the oracle's 5e-3 of its brute-force value at every level.
    rng = np.random.default_rng([20261018, s])
    V = random_subspace(2, 3, rng)
    images = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    phi = make_map(V, full_matrix_space(2), list(images))
    report = cross_validate(build_level_table(phi, 2, seed=0), trials=500, seed=0, max_level=2)
    assert report.passed


def test_cross_validate_zero_map_trivially_consistent():
    table = build_level_table(get_entry("zero_M2").map, 3)
    report = cross_validate(table, trials=50, seed=0, max_level=3)
    assert report.passed
    assert all(r["brute_lo"] == 0.0 for r in report.rows)


def test_cross_validate_flags_corrupted_table():
    # Negative control: an upper bound below the truth must be reported.
    phi = get_entry("identity_M2").map
    good = build_level_table(phi, 2, seed=SEED)
    bad_bracket = NormBracket(0.4, 0.5, "optimizer", "optimizer")
    tampered = LevelNormTable(
        map=phi,
        entries=(
            LevelEntry(1, bad_bracket, good.entries[0].witness),
            good.entries[1],
        ),
        stabilization_level=good.stabilization_level,
        budget=DEFAULT_BUDGET,
        seed=SEED,
    )
    report = cross_validate(tampered, trials=200, seed=3, max_level=2)
    assert not report.passed
    assert not report.rows[0]["hi_ok"]


def test_report_json_serializable():
    import json

    table = build_level_table(get_entry("trace_M2").map, 2, seed=SEED)
    report = cross_validate(table, trials=100, seed=3, max_level=2)
    payload = json.dumps(report.to_json_dict(), sort_keys=True)
    assert "brute_lo" in payload
