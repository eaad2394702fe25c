"""CLI behavior: output formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from npspace.cli import main


def run(args):
    return main(args)


def test_levels_transpose_csv(tmp_path, capsys):
    out = tmp_path / "levels.csv"
    code = run(["levels", "catalog:transpose_M2", "--max-level", "4", "--seed", "7",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,lo,hi,lo_source,hi_source"
    rows = [line.split(",") for line in lines[1:]]
    values = [(int(r[0]), float(r[1]), float(r[2])) for r in rows]
    want = [1.0, 2.0, 2.0, 2.0]
    for (n, lo, hi), w in zip(values, want):
        assert abs(lo - w) <= 1e-6 and abs(hi - w) <= 1e-6


def test_levels_writes_json_and_witnesses(tmp_path):
    jout = tmp_path / "table.json"
    wout = tmp_path / "witness.json"
    code = run(["levels", "catalog:identity_M2", "--max-level", "2", "--seed", "7",
                "--out", str(tmp_path / "t.csv"), "--json", str(jout),
                "--witnesses", str(wout)])
    assert code == 0
    table = json.loads(jout.read_text())
    assert table["stabilization_level"] == 2
    assert len(table["entries"]) == 2
    witnesses = json.loads(wout.read_text())
    assert witnesses[0]["level"] == 1


def test_levels_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["levels", str(bad)]) == 2


def test_invariant_violation_exit_3(monkeypatch):
    import npspace.cli as cli
    from npspace.errors import InvariantViolation

    def boom(args):
        raise InvariantViolation("synthetic crossing")

    monkeypatch.setattr(cli, "cmd_levels", boom)
    assert cli.main(["levels", "catalog:zero_M2"]) == 3


def test_levels_schema_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "x", "domain": {"ambient_dim": 2}, "codomain": {}, "action": []}))
    assert run(["levels", str(bad)]) == 2


def test_levels_nan_map_file_exit_2(tmp_path, capsys):
    from npspace import get_entry, map_to_dict

    spec = map_to_dict(get_entry("transpose_M2").map)
    spec["action"][3][0][1] = float("nan")  # json writes the NaN literal
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(spec))
    assert run(["levels", str(bad)]) == 2
    err = capsys.readouterr().err
    # The decoder keeps the real part 0.0, so the entry reads 0+nanj.
    assert "coefficients of map 'transpose_M2': entry (0, 3) is nanj, not a finite" in err


def test_levels_map_out_of_scale_exit_2_before_any_work(tmp_path, capsys):
    # Image entries of 1e78 on M2's unit basis once failed in an SVD mid-table.
    from npspace import get_entry, map_to_dict

    spec = map_to_dict(get_entry("transpose_M2").map)
    spec["action"] = [[[1e78 * re, 1e78 * im] for re, im in a] for a in spec["action"]]
    big = tmp_path / "big.json"
    big.write_text(json.dumps(spec))
    out = tmp_path / "levels.csv"
    assert run(["levels", str(big), "--out", str(out)]) == 2
    assert "error: map 'transpose_M2' has scale 1e+78 " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("exp", (481, -481))
def test_levels_basis_out_of_range_exit_2_before_any_work(tmp_path, capsys, exp):
    # A domain basis entry of 2**±481 is refused when the map file is read.
    from npspace import get_entry, map_to_dict

    spec = map_to_dict(get_entry("transpose_M2").map)
    f = 2.0**exp
    spec["domain"]["basis"] = [[[[f * re, f * im] for re, im in row] for row in b]
                               for b in spec["domain"]["basis"]]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "levels.csv"
    assert run(["levels", str(path), "--out", str(out)]) == 2
    assert "error: basis of 'M2': largest entry " in capsys.readouterr().err
    assert not out.exists()


def test_npnorm_trace_p2(tmp_path, capsys):
    out = tmp_path / "np.json"
    code = run(["npnorm", "catalog:trace_M2", "--p", "2", "--seed", "7", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    want = 2.0 * 1.6449340668482264
    assert data["lo"] - 1e-8 <= want <= data["hi"] + 1e-8
    assert data["verdict"] == "member"
    assert data["closed_form"] == "functional"


@pytest.mark.parametrize("p", ("6e102", "1e300"))
def test_npnorm_at_a_huge_p_keeps_a_finite_ordered_bracket(tmp_path, p):
    # The series is 1 + 2 * (zeta(p) - 1), which is 1.0 in double precision.
    out = tmp_path / "np.json"
    assert run(["npnorm", "catalog:transpose_M2", "--p", p, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["lo"] <= 1.0 <= data["hi"]


def test_series_at_p_above_1024_with_stabilization_level_3_exit_0(tmp_path):
    out = tmp_path / "np.json"
    assert run(["npnorm", "catalog:transpose_M3", "--p", "1025", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["lo"] <= 1.0 <= data["hi"]
    csv = tmp_path / "plot.csv"
    grid = ["--p-grid", "1000:1100:50", "--out", str(csv)]
    assert run(["plotdata", "catalog:transpose_M3", *grid]) == 0
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [1000.0, 1050.0, 1100.0]
    assert all(float(lo) <= 1.0 <= float(hi) for _, lo, hi in rows)


def test_npnorm_identity_p1_not_member(tmp_path):
    out = tmp_path / "np1.json"
    code = run(["npnorm", "catalog:identity_M2", "--p", "1", "--seed", "7", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "not_member"
    assert "divergence_proof" in data


def test_npnorm_zero_p1_member(tmp_path):
    out = tmp_path / "np0.json"
    code = run(["npnorm", "catalog:zero_M2", "--p", "1", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "member"
    assert data["lo"] == data["hi"] == 0.0


def _record_tables(monkeypatch):
    """Patch cli.build_level_table to log (map label, max_level) of every call."""
    import npspace.cli as cli

    calls = []
    build = cli.build_level_table

    def record(phi, max_level, *args, **kwargs):
        calls.append((phi.label, max_level))
        return build(phi, max_level, *args, **kwargs)

    monkeypatch.setattr(cli, "build_level_table", record)
    return calls


def test_npnorm_builds_one_table_through_s(tmp_path, monkeypatch):
    # The codomain's m = 3 is the stabilization level: rows 1..3, once.
    calls = _record_tables(monkeypatch)
    out = tmp_path / "np.json"
    assert run(["npnorm", "catalog:transpose_M3", "--p", "1.5", "--seed", "7",
                "--out", str(out)]) == 0
    assert calls == [("transpose_M3", 3)]
    assert json.loads(out.read_text())["verdict"] == "member"


def test_plotdata_and_index_build_through_s_only(tmp_path, monkeypatch):
    calls = _record_tables(monkeypatch)
    for grid in ("2:2:1", "1:3:0.5", "1.1:4:0.1"):
        calls.clear()
        assert run(["plotdata", "catalog:transpose_M3", "--p-grid", grid, "--seed", "7",
                    "--out", str(tmp_path / "p.csv")]) == 0
        assert calls == [("transpose_M3", 3)], grid
    calls.clear()
    out = tmp_path / "idx.json"
    assert run(["index", "catalog:transpose_M3", "--seed", "7", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["fit_window"] == [3, 3]
    assert calls == []


def test_verify_inclusions_builds_one_table_per_map_at_its_s(monkeypatch, capsys):
    from npspace import list_entries

    calls = _record_tables(monkeypatch)
    assert run(["verify", "--suite", "inclusions", "--seed", "5"]) == 0
    assert calls == [(e.map.label, e.map.stabilization_level) for e in list_entries()]


SYNTHETIC = ["index", "--synthetic", "n^1"]


@pytest.mark.parametrize(
    "command",
    [
        ["npnorm", "catalog:transpose_M2", "--p", "2", "--K", "8"],
        ["npnorm", "catalog:transpose_M2", "--p", "2", "--strict"],
        ["plotdata", "catalog:transpose_M2", "--p-grid", "2:3:0.5", "--K", "8"],
        ["npnorm", "catalog:transpose_M2", "--p", "2", "--max-level", "4"],
        ["plotdata", "catalog:transpose_M2", "--p-grid", "2:3:0.5", "--max-level", "4"],
        SYNTHETIC + ["--seed", "-3", "--restarts", "0", "--max-iter", "-1", "--tol", "nan",
                     "--max-level", "0"],
        SYNTHETIC + ["--restarts", "0"],
        SYNTHETIC + ["--max-iter", "0"],
        SYNTHETIC + ["--tol", "nan"],
        SYNTHETIC + ["--max-level", "0"],
        SYNTHETIC + ["--max-level", "65"],
        ["index", "catalog:transpose_M2", "--max-level", "0"],
        ["index", "catalog:transpose_M2", "--max-level", "65"],
        ["levels", "catalog:transpose_M2", "--tol", "nan"],
        ["verify", "--suite", "axioms", "--trials", "0"],
        ["verify", "--suite", "inclusions", "--trials", "-4"],
        ["verify", "--suite", "bounds", "--trials", "10001"],
    ],
    ids=(
        "npnorm_K", "npnorm_strict", "plotdata_K", "npnorm_max_level", "plotdata_max_level",
        "index_all_bad", "index_restarts", "index_max_iter", "index_tol", "index_max_level_0",
        "index_max_level_65", "index_map_max_level_0", "index_map_max_level_65", "levels_tol_nan",
        "axioms_trials_0", "inclusions_trials_-4", "bounds_trials_10001",
    ),
)
def test_removed_options_exit_2(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_index_synthetic(tmp_path):
    out = tmp_path / "idx.json"
    assert run(["index", "--synthetic", "n^1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["r_hat"] - 2.0) <= 0.05


def test_index_catalog_map(tmp_path):
    out = tmp_path / "idx2.json"
    assert run(["index", "catalog:transpose_M2", "--seed", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["r_hat"] == 1.0


@pytest.mark.parametrize("rule", ("oops", "n^nan", "n^inf", "n^1e308"))
def test_index_bad_synthetic(rule):
    assert run(["index", "--synthetic", rule]) == 2


def test_verify_axioms_suite(capsys):
    assert run(["verify", "--suite", "axioms", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "4/4 checks passed" in out


def test_verify_inclusions_suite(capsys):
    assert run(["verify", "--suite", "inclusions", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "27/27 checks passed" in out


def test_verify_bounds_suite(capsys):
    assert run(["verify", "--suite", "bounds", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "27/27 checks passed"
    # The oracle row reports, per checked level, the brute value beside the bracket.
    row = next(line for line in out.splitlines() if line.startswith("PASS oracle[transpose_M2]"))
    levels = [dict(f.split("=") for f in part.split()) for part in row.split("  ", 1)[1].split("; ")]
    assert [lv["n"] for lv in levels] == ["1", "2", "3", "4"]
    for lv in levels:
        brute, lo, hi = float(lv["brute"]), float(lv["lo"]), float(lv["hi"])
        assert lo >= brute - 5e-3 * max(1.0, brute) and brute <= hi + 1e-9


def test_plotdata_monotone_lo(tmp_path):
    out = tmp_path / "plot.csv"
    code = run(["plotdata", "catalog:transpose_M2", "--p-grid", "2.1:4:0.1",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,lo,hi"
    los = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a >= b for a, b in zip(los, los[1:]))


@pytest.mark.parametrize("grid", ["nan:3:0.5", "1:inf:0.5", "1:3:nan"])
def test_plotdata_non_finite_grid_exit_2(grid, monkeypatch, capsys):
    # A non-finite grid once looped forever; it must fail before any ascent.
    import npspace.cli as cli

    def no_table(*args, **kwargs):
        raise AssertionError("level table built before the grid was checked")

    monkeypatch.setattr(cli, "build_level_table", no_table)
    assert cli.main(["plotdata", "catalog:transpose_M2", "--p-grid", grid]) == 2
    assert "bad grid" in capsys.readouterr().err


def test_plotdata_grid_with_too_many_points_exit_2(monkeypatch, capsys):
    # Counted before any point is made: this grid once ended in MemoryError.
    import npspace.cli as cli

    def no_table(*args, **kwargs):
        raise AssertionError("level table built before the grid was checked")

    monkeypatch.setattr(cli, "build_level_table", no_table)
    assert cli.main(["plotdata", "catalog:transpose_M2", "--p-grid", "0:1e300:1"]) == 2
    assert f"more than {cli.MAX_GRID_POINTS} points" in capsys.readouterr().err


def test_parse_grid_counts_points_like_the_stepping_loop():
    from npspace.cli import MAX_GRID_POINTS, _parse_grid

    def stepped(a, b, step):
        out = []
        while a + len(out) * step <= b + 1e-12:
            out.append(a + len(out) * step)
        return out

    for a, b, step in ((2.1, 4.0, 0.1), (1.0, 3.0, 0.5), (2.0, 2.0, 1.0), (1.0, 1.3, 0.1)):
        assert _parse_grid(f"{a}:{b}:{step}") == stepped(a, b, step)
    assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="bad grid"):
        _parse_grid(f"0:{MAX_GRID_POINTS}:1")


def test_non_finite_p_exit_2(monkeypatch, capsys):
    import npspace.cli as cli

    def no_table(*args, **kwargs):
        raise AssertionError("level table built before the option was checked")

    monkeypatch.setattr(cli, "build_level_table", no_table)
    assert run(["npnorm", "catalog:transpose_M2", "--p", "inf"]) == 2
    assert "p must satisfy 1 <= p < inf" in capsys.readouterr().err


def test_max_level_zero_exit_2(capsys):
    assert run(["levels", "catalog:transpose_M2", "--max-level", "0"]) == 2
    assert "max_level must be a positive integer, got 0" in capsys.readouterr().err


def test_max_level_above_the_cap_exit_2(monkeypatch, capsys):
    # A table's memory grows like max_level**3; the cap is checked before any level.
    import npspace.cli as cli

    def no_table(*args, **kwargs):
        raise AssertionError("level table built before --max-level was checked")

    monkeypatch.setattr(cli, "build_level_table", no_table)
    assert cli.main(["levels", "catalog:transpose_M2", "--max-level", str(cli.MAX_LEVEL + 1)]) == 2
    assert f"max_level must be at most {cli.MAX_LEVEL}" in capsys.readouterr().err


def test_max_level_at_the_cap_is_accepted(tmp_path):
    from npspace.cli import MAX_LEVEL

    out = tmp_path / "t.csv"
    assert run(["levels", "catalog:transpose_M2", "--max-level", str(MAX_LEVEL), "--seed", "7",
                "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == MAX_LEVEL + 1


def test_seeded_runs_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for target in (a, b):
        assert run(["levels", "catalog:schur_M2", "--max-level", "3", "--seed", "9",
                    "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()

    ja = tmp_path / "a.json"
    jb = tmp_path / "b.json"
    for target in (ja, jb):
        assert run(["npnorm", "catalog:schur_M2", "--p", "2.5", "--seed", "9",
                    "--out", str(target)]) == 0
    assert ja.read_bytes() == jb.read_bytes()


def test_file_based_map_with_space_paths(tmp_path):
    from npspace import get_entry, map_to_dict, space_to_dict

    phi = get_entry("transpose_M2").map
    (tmp_path / "m2.json").write_text(json.dumps(space_to_dict(phi.domain)))
    data = map_to_dict(phi)
    data["domain"] = "m2.json"
    data["codomain"] = "m2.json"
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "lv.csv"
    assert run(["levels", str(path), "--max-level", "2", "--seed", "7", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert abs(float(rows[1].split(",")[1]) - 2.0) <= 1e-6


def _upper_triangular_inclusion_file(tmp_path):
    """A map file whose domain is a proper subspace: upper triangles of M2 into M2."""
    from npspace import full_matrix_space, make_map, make_space, save_map

    units = [np.array(b) for b in full_matrix_space(2).basis]
    upper = make_space(2, [units[0], units[1], units[3]], "upper(M2)")
    phi = make_map(upper, full_matrix_space(2), [units[0], units[1], units[3]], "upper_incl")
    path = tmp_path / "upper.json"
    save_map(phi, str(path))
    return str(path)


@pytest.mark.parametrize("ref", ["catalog:transpose_M3", "catalog:trace_M2", "upper"])
def test_series_output_is_the_library_series_through_s(ref, tmp_path, capsys):
    # npnorm and plotdata print np_norm on the table through the map's s.
    from npspace import build_level_table, np_norm
    from npspace.cli import _fmt, _resolve_map

    if ref == "upper":
        ref = _upper_triangular_inclusion_file(tmp_path)
    phi = _resolve_map(ref)
    table = build_level_table(phi, phi.stabilization_level, seed=7)

    r = np_norm(phi, 2.5, table)
    out = tmp_path / "np.json"
    assert run(["npnorm", ref, "--p", "2.5", "--seed", "7", "--out", str(out)]) == 0
    assert out.read_text() == json.dumps(r.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out == (
        f"|{phi.label}|_p for p=2.5: [{_fmt(r.bracket.lo)}, {_fmt(r.bracket.hi)}]  "
        f"verdict={r.verdict}  K={r.truncation_level}\n"
    )

    rows = ["p,lo,hi"]
    for p in (1.0, 1.5, 2.0, 2.5, 3.0):
        b = np_norm(phi, p, table).bracket
        rows.append(f"{_fmt(p)},{_fmt(b.lo)},{_fmt(b.hi)}")
    assert run(["plotdata", ref, "--p-grid", "1:3:0.5", "--seed", "7"]) == 0
    assert capsys.readouterr().out == "\n".join(rows) + "\n"


def _write_map(tmp_path, edit):
    from npspace import get_entry, map_to_dict

    spec = map_to_dict(get_entry("transpose_M2").map)
    edit(spec)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s: s.pop("domain"), 'map definition has no "domain"'),
        (lambda s: s.pop("codomain"), 'map definition has no "codomain"'),
        (lambda s: s.pop("action"), 'map definition has no "action"'),
        (lambda s: s["domain"].pop("basis"), 'space definition has no "basis"'),
        (lambda s: s["codomain"].pop("ambient_dim"), 'space definition has no "ambient_dim"'),
        (lambda s: s.update(action=5), "action must be a list, got 5"),
        (lambda s: s["domain"].update(basis=5), "basis must be a list, got 5"),
        (lambda s: s["domain"].update(ambient_dim=True), "ambient_dim must be a positive integer, got True"),
        (lambda s: s["domain"].update(ambient_dim=2.0), "ambient_dim must be a positive integer, got 2.0"),
        (lambda s: s["domain"].update(ambient_dim="2"), "ambient_dim must be a positive integer, got '2'"),
        (lambda s: s["domain"].update(ambient_dim=0), "ambient_dim must be a positive integer, got 0"),
        (lambda s: s["domain"]["basis"][0][0].__setitem__(0, ["1", "0"]),
         "basis[0] holds '1', not a number"),
        (lambda s: s["action"][2][1].__setitem__(1, True), "action[2] holds True, not a number"),
    ],
    ids=(
        "no_domain", "no_codomain", "no_action", "no_basis", "no_ambient_dim", "action_5",
        "basis_5", "ambient_dim_true", "ambient_dim_2.0", "ambient_dim_str", "ambient_dim_0",
        "basis_string", "action_bool",
    ),
)
def test_malformed_map_file_names_the_key(edit, message, tmp_path, capsys):
    assert run(["levels", _write_map(tmp_path, edit)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("work started before every option was checked")


@pytest.mark.parametrize(
    "command, message",
    [
        (SYNTHETIC + ["--seed", "-3"], "seed must be an integer >= 0, got -3"),
        (["verify", "--suite", "axioms", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["index", "catalog:transpose_M2", "--synthetic", "n^1"],
         "index needs exactly one of a map and --synthetic, got both"),
        (["index"], "index needs exactly one of a map and --synthetic, got neither"),
        (["plotdata", "catalog:transpose_M3", "--p-grid", "0:3:0.5"],
         "p must satisfy 1 <= p < inf, got 0.0"),
    ],
    ids=(
        "index_seed", "verify_seed", "index_map_and_synthetic", "index_neither",
        "plotdata_grid_point_below_1",
    ),
)
def test_every_option_is_checked_before_any_work(command, message, monkeypatch, capsys):
    import npspace.cli as cli

    for name in ("build_level_table", "_resolve_map", "verify_axioms", "index_estimate",
                 "cross_validate"):
        monkeypatch.setattr(cli, name, _never)
    assert cli.main(command) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


class _Built(Exception):
    """Raised by a recording build_level_table once it has seen its arguments."""


@pytest.mark.parametrize(
    "command",
    [["levels", "catalog:transpose_M2"], ["npnorm", "catalog:transpose_M2", "--p", "2"],
     ["plotdata", "catalog:transpose_M2", "--p-grid", "2:3:1"],
     ["verify", "--suite", "inclusions"], ["verify", "--suite", "bounds"]],
    ids=("levels", "npnorm", "plotdata", "verify_inclusions", "verify_bounds"),
)
def test_every_table_is_built_with_the_library_budget(command, monkeypatch):
    import inspect

    import npspace.cli as cli
    from npspace.optimize import DEFAULT_BUDGET

    signature = inspect.signature(cli.build_level_table)
    seen = []

    def record(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append((bound.arguments["budget"], bound.arguments["seed"]))
        raise _Built

    monkeypatch.setattr(cli, "build_level_table", record)
    with pytest.raises(_Built):
        cli.main(command + ["--seed", "3"])
    assert seen == [(DEFAULT_BUDGET, 3)]


def test_each_command_takes_exactly_its_options():
    # Every option below has a caller; a new one needs a caller and an edit here.
    import argparse

    from npspace.cli import build_parser

    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        for name, sub in subs.choices.items()
    }
    assert got == {
        "levels": {"--seed", "--max-level", "--out", "--json", "--witnesses"},
        "npnorm": {"--seed", "--p", "--out"},
        "plotdata": {"--seed", "--p-grid", "--out"},
        "index": {"--seed", "--synthetic", "--out"},
        "verify": {"--suite", "--seed"},
    }


def test_unknown_catalog_name_exit_2_without_quotes(capsys):
    assert run(["levels", "catalog:nope"]) == 2
    assert capsys.readouterr().err.startswith("error: no catalog entry 'nope'; known entries: ")


def test_a_key_error_from_a_bug_is_not_a_parse_error(monkeypatch):
    import npspace.cli as cli

    def bug(args):
        raise KeyError("a bug")

    monkeypatch.setattr(cli, "cmd_levels", bug)
    with pytest.raises(KeyError):
        cli.main(["levels", "catalog:zero_M2"])
