"""Catalog entries: closed-form rules validated against the oracle."""

import numpy as np
import pytest

from npspace import (
    brute_search,
    get_entry,
    list_entries,
    load_map,
    map_from_dict,
    map_to_dict,
)

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
        brute, _ = brute_search(entry.map, n, trials=400, seed=SEED)
        assert brute <= want + 1e-9  # oracle is a lower bound for the truth
        assert brute >= want - 5e-3 * max(1.0, want)


def test_schur_stabilizes_by_ambient_dimension(catalog_tables):
    table = catalog_tables["schur_M2"]
    assert table.stabilization_level == 2
    ref = table.entries[1].bracket
    for e in table.entries[1:]:
        assert abs(e.bracket.lo - ref.lo) <= 1e-12
        assert abs(e.bracket.hi - ref.hi) <= 1e-12


def test_export_entry_round_trips(tmp_path):
    import json

    for name in ("transpose_M2", "diag_M2"):
        data = map_to_dict(get_entry(name).map)
        back = map_from_dict(data)
        assert np.allclose(back.coeff, get_entry(name).map.coeff)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert np.allclose(load_map(str(path)).coeff, back.coeff)
