"""CLI behavior: output formats, exit codes, determinism."""

import json

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


def test_npnorm_short_max_level_is_extended(tmp_path):
    # --max-level below the codomain's m = 3: the series is the one from m.
    outs = [tmp_path / "np2.json", tmp_path / "np3.json"]
    for level, out in zip(("2", "3"), outs):
        assert run(["npnorm", "catalog:transpose_M3", "--p", "1.5", "--max-level", level,
                    "--seed", "7", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert json.loads(outs[0].read_text())["verdict"] == "member"


def test_plotdata_and_index_short_max_level(tmp_path):
    csvs = [tmp_path / "p2.csv", tmp_path / "p3.csv"]
    for level, out in zip(("2", "3"), csvs):
        assert run(["plotdata", "catalog:transpose_M3", "--p-grid", "1:3:0.5",
                    "--max-level", level, "--seed", "7", "--out", str(out)]) == 0
    assert csvs[0].read_bytes() == csvs[1].read_bytes()
    out = tmp_path / "idx.json"
    assert run(["index", "catalog:transpose_M3", "--max-level", "2", "--seed", "7",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["r_hat"] == 1.0


@pytest.mark.parametrize(
    "command",
    [
        ["npnorm", "catalog:transpose_M2", "--p", "2", "--K", "8"],
        ["npnorm", "catalog:transpose_M2", "--p", "2", "--strict"],
        ["plotdata", "catalog:transpose_M2", "--p-grid", "2:3:0.5", "--K", "8"],
    ],
    ids=("npnorm_K", "npnorm_strict", "plotdata_K"),
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
    assert run(["verify", "--suite", "bounds", "--seed", "5", "--trials", "100"]) == 0
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


@pytest.mark.parametrize(
    "command, message",
    [
        (["levels", "catalog:transpose_M2", "--tol", "nan"], "invalid budget"),
        (["npnorm", "catalog:transpose_M2", "--p", "inf"], "p must satisfy 1 <= p < inf"),
    ],
    ids=("tol_nan", "p_inf"),
)
def test_non_finite_tol_or_p_exit_2(command, message, monkeypatch, capsys):
    import npspace.cli as cli

    def no_table(*args, **kwargs):
        raise AssertionError("level table built before the option was checked")

    monkeypatch.setattr(cli, "build_level_table", no_table)
    assert run(command) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["levels", "catalog:transpose_M2"],
        ["npnorm", "catalog:transpose_M2", "--p", "2"],
        ["plotdata", "catalog:transpose_M2", "--p-grid", "2:3:0.5"],
    ],
)
def test_max_level_zero_exit_2(command, capsys):
    assert run(command + ["--max-level", "0"]) == 2
    assert "max_level must be a positive integer, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["levels", "catalog:transpose_M2"],
        ["npnorm", "catalog:transpose_M2", "--p", "2"],
        ["plotdata", "catalog:transpose_M2", "--p-grid", "2:3:0.5"],
        ["index", "catalog:transpose_M2"],
    ],
)
def test_max_level_above_the_cap_exit_2(command, monkeypatch, capsys):
    # A table's memory grows like max_level**3; the cap is checked before any level.
    import npspace.cli as cli

    def no_table(*args, **kwargs):
        raise AssertionError("level table built before --max-level was checked")

    monkeypatch.setattr(cli, "build_level_table", no_table)
    assert cli.main(command + ["--max-level", str(cli.MAX_LEVEL + 1)]) == 2
    assert f"--max-level must be at most {cli.MAX_LEVEL}" in capsys.readouterr().err


def test_max_level_at_the_cap_is_accepted(tmp_path):
    from npspace.cli import MAX_LEVEL

    out = tmp_path / "t.csv"
    assert run(["levels", "catalog:transpose_M2", "--max-level", str(MAX_LEVEL), "--seed", "7",
                "--restarts", "2", "--out", str(out)]) == 0
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
    from npspace import get_entry, space_to_dict
    from npspace.catalog import export_entry

    phi = get_entry("transpose_M2").map
    (tmp_path / "m2.json").write_text(json.dumps(space_to_dict(phi.domain)))
    data = export_entry(get_entry("transpose_M2"))
    data["domain"] = "m2.json"
    data["codomain"] = "m2.json"
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "lv.csv"
    assert run(["levels", str(path), "--max-level", "2", "--seed", "7", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert abs(float(rows[1].split(",")[1]) - 2.0) <= 1e-6
