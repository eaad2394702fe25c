"""Catalog entries: closed-form rules validated against the oracle."""

import math

import numpy as np
import pytest

from npspace import (
    NoClosedForm,
    brute_level_norm,
    expected_np_bracket,
    get_entry,
    list_entries,
    load_map,
    map_from_dict,
    np_norm,
)
from npspace.catalog import CatalogEntry, export_entry, resolve_uri

SEED = 11

REQUIRED = {
    "zero_M2",
    "identity_M2",
    "identity_M3",
    "transpose_M2",
    "transpose_M3",
    "trace_M2",
    "rank_one_M2",
    "schur_M2",
    "diag_M2",
}


def test_catalog_has_required_entries():
    names = {e.name for e in list_entries()}
    assert REQUIRED <= names


def test_catalog_provenance_values():
    allowed = {"paper_corollary", "derived_oracle", "trivial"}
    for e in list_entries():
        assert e.provenance in allowed
        assert e.expected_level_norms is not None


def test_expected_rules_sample_values():
    assert get_entry("identity_M2").expected_level_norms(3) == 1.0
    assert get_entry("transpose_M2").expected_level_norms(1) == 1.0
    assert get_entry("transpose_M2").expected_level_norms(4) == 2.0
    assert get_entry("transpose_M3").expected_level_norms(2) == 2.0
    assert get_entry("trace_M2").expected_level_norms(5) == 2.0
    assert abs(get_entry("rank_one_M2").expected_level_norms(2) - np.sqrt(5)) <= 1e-15
    assert abs(get_entry("schur_M2").expected_level_norms(1) - np.sqrt(2)) <= 1e-15


@pytest.mark.parametrize("name", sorted(REQUIRED))
def test_expected_rules_match_oracle_small_levels(name):
    # The closed forms are classical facts; the in-repo oracle has to agree
    # before the catalog is trusted anywhere else.
    entry = get_entry(name)
    for n in (1, 2, 3):
        want = entry.expected_level_norms(n)
        brute = brute_level_norm(entry.map, n, trials=400, seed=SEED)
        assert brute <= want + 1e-9  # oracle is a lower bound for the truth
        assert brute >= want - 5e-3 * max(1.0, want)


def test_expected_np_bracket_transpose_p3():
    entry = get_entry("transpose_M2")
    lo, hi = expected_np_bracket(entry, 3.0, 64)
    want = 1.0 + 2.0 * (1.2020569031595943 - 1.0)
    assert lo - 1e-12 <= want <= hi + 1e-12
    assert hi - lo <= 1e-6


def test_expected_np_bracket_identity_p2():
    entry = get_entry("identity_M2")
    lo, hi = expected_np_bracket(entry, 2.0, 64)
    assert lo - 1e-12 <= 1.6449340668482264 <= hi + 1e-12
    assert hi - lo <= 1e-6


@pytest.mark.parametrize("p", [171.0, 1025.0, 1e6, 1e300])
def test_expected_np_bracket_at_huge_p(p):
    # With K = 64 the partial sum once divided by 64**p, which overflows
    # from p = 171 on.
    for entry in list_entries():
        lo, hi = expected_np_bracket(entry, p, 64)
        assert math.isfinite(lo) and math.isfinite(hi) and lo <= hi, entry.name
    lo, hi = expected_np_bracket(get_entry("transpose_M3"), p, 64)
    assert lo <= 1.0 <= hi


def test_expected_np_bracket_zero():
    lo, hi = expected_np_bracket(get_entry("zero_M2"), 2.0, 64)
    assert lo == hi == 0.0


def test_expected_np_bracket_requires_rule():
    bare = CatalogEntry("bare", get_entry("zero_M2").map, None, None, "trivial")
    with pytest.raises(NoClosedForm):
        expected_np_bracket(bare, 2.0, 64)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_np_norm_matches_expected_brackets(catalog_tables, p):
    # Computed brackets intersect the closed-form brackets and stay narrow.
    for entry in list_entries():
        table = catalog_tables[entry.name]
        got = np_norm(entry.map, p, table)
        lo, hi = expected_np_bracket(entry, p, 64)
        assert got.bracket.lo <= hi + 1e-9
        assert got.bracket.hi >= lo - 1e-9
        assert got.bracket.width <= 1e-6


def test_schur_stabilizes_by_ambient_dimension(catalog_tables):
    table = catalog_tables["schur_M2"]
    assert table.stabilization_level == 2
    ref = table.entries[1].bracket
    for e in table.entries[1:]:
        assert abs(e.bracket.lo - ref.lo) <= 1e-12
        assert abs(e.bracket.hi - ref.hi) <= 1e-12


def test_resolve_uri_and_unknown_name():
    assert resolve_uri("catalog:trace_M2").name == "trace_M2"
    with pytest.raises(KeyError):
        get_entry("no_such_map")
    with pytest.raises(ValueError):
        resolve_uri("file:whatever")


def test_export_entry_round_trips(tmp_path):
    import json

    for name in ("transpose_M2", "diag_M2"):
        data = export_entry(get_entry(name))
        back = map_from_dict(data)
        assert np.allclose(back.coeff, get_entry(name).map.coeff)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert np.allclose(load_map(str(path)).coeff, back.coeff)
