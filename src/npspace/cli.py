"""Command-line front end: level tables, series brackets, index fits, checks.

Maps are referenced either as JSON files or as built-ins via the
``catalog:<name>`` scheme.  All randomness is seeded, so identical
invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import catalog as _catalog
from .errors import InvariantViolation, NpSpaceError
from .maps import (
    LinearMapRep,
    build_level_table,
    load_map,
    witness_to_dict,
)
from .npnorm import NpParameter, index_estimate, inclusion_check, np_norm
from .optimize import OptBudget
from .oracle import cross_validate
from .spaces import full_matrix_space, random_subspace, verify_axioms

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _resolve_map(ref: str) -> LinearMapRep:
    if ref.startswith("catalog:"):
        return _catalog.resolve_uri(ref).map
    return load_map(ref)


def _budget(args) -> OptBudget:
    return OptBudget(restarts=args.restarts, max_iter=args.max_iter, tol=args.tol)


# Most levels --max-level may ask for; a larger value is a parse error.  Each row
# above m keeps its own padded witness, so a table's memory grows like max_level**3.
MAX_LEVEL = 64


def _table_levels(args, phi: LinearMapRep) -> int:
    """--max-level as given (at most MAX_LEVEL; 0 is rejected downstream), or
    max(2, m) when absent.  ``np_norm`` extends a table that stops below m to m.
    """
    if args.max_level is None:
        return max(2, phi.codomain.ambient_dim)
    if args.max_level > MAX_LEVEL:
        raise ValueError(f"--max-level must be at most {MAX_LEVEL}, got {args.max_level}")
    return args.max_level


def _add_budget_options(sub):
    sub.add_argument("--restarts", type=int, default=20)
    sub.add_argument("--max-iter", type=int, default=200)
    sub.add_argument("--tol", type=float, default=1e-11)
    sub.add_argument("--seed", type=int, default=0)


def _add_map_options(sub, max_level: int | None = 4):
    sub.add_argument("map", help="map JSON file or catalog:<name>")
    sub.add_argument("--max-level", type=int, default=max_level)
    _add_budget_options(sub)


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_csv(table) -> str:
    lines = ["n,lo,hi,lo_source,hi_source"]
    for e in table.entries:
        lines.append(
            f"{e.level},{_fmt(e.bracket.lo)},{_fmt(e.bracket.hi)},"
            f"{e.bracket.lo_source},{e.bracket.hi_source}"
        )
    return "\n".join(lines) + "\n"


def cmd_levels(args) -> int:
    phi = _resolve_map(args.map)
    table = build_level_table(phi, _table_levels(args, phi), _budget(args), args.seed)
    _write_or_print(_table_csv(table), args.out)
    if args.json:
        _write_or_print(json.dumps(table.to_json_dict(), sort_keys=True, indent=2) + "\n", args.json)
    if args.witnesses:
        dump = [witness_to_dict(e) for e in table.entries]
        _write_or_print(json.dumps(dump, sort_keys=True, indent=2) + "\n", args.witnesses)
    return EXIT_OK


def cmd_npnorm(args) -> int:
    p = NpParameter(args.p)  # checked before any level is computed
    phi = _resolve_map(args.map)
    table = build_level_table(phi, _table_levels(args, phi), _budget(args), args.seed)
    result = np_norm(phi, p, table)
    payload = json.dumps(result.to_json_dict(), sort_keys=True, indent=2) + "\n"
    print(
        f"|{phi.label}|_p for p={_fmt(args.p)}: "
        f"[{_fmt(result.bracket.lo)}, {_fmt(result.bracket.hi)}]  "
        f"verdict={result.verdict}  K={result.truncation_level}"
    )
    if args.out:
        _write_or_print(payload, args.out)
    return EXIT_OK


def _parse_synthetic(expr: str, levels: int = 16):
    # Accepted form: "n^<alpha>", e.g. n^1 or n^0.5.
    text = expr.strip().replace(" ", "")
    if not text.startswith("n^"):
        raise ValueError(f"synthetic sequence must look like 'n^alpha', got {expr!r}")
    alpha = float(text[2:])
    try:
        return [(n, float(n) ** alpha) for n in range(1, levels + 1)]
    except OverflowError:
        raise ValueError(f"synthetic sequence {expr!r} overflows a float") from None


def cmd_index(args) -> int:
    if args.synthetic:
        est = index_estimate(_parse_synthetic(args.synthetic))
    else:
        if not args.map:
            raise ValueError("cmd_index needs a map or --synthetic")
        phi = _resolve_map(args.map)
        table = build_level_table(phi, _table_levels(args, phi), _budget(args), args.seed)
        est = index_estimate(table)
    payload = json.dumps(est.to_json_dict(), sort_keys=True, indent=2) + "\n"
    print(
        f"r_hat={_fmt(est.r_hat)} alpha_hat={_fmt(est.alpha_hat)} "
        f"window={est.fit_window[0]}..{est.fit_window[1]} residual={_fmt(est.residual)}"
    )
    if args.out:
        _write_or_print(payload, args.out)
    return EXIT_OK


def _suite_axioms(seed: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng([seed, 0xA7])
    spaces = [
        full_matrix_space(2),
        full_matrix_space(3),
        random_subspace(2, 2, rng, "random2_of_M2"),
        random_subspace(3, 2, rng, "random2_of_M3"),
    ]
    checks = []
    for sp in spaces:
        report = verify_axioms(sp, samples=200, seed=seed)
        detail = f"m1_worst={report.m1_worst:.3e} m2_worst={report.m2_worst:.3e}"
        checks.append((f"axioms[{sp.label}]", report.passed, detail))
    return checks


def _suite_inclusions(seed: int, budget: OptBudget) -> list[tuple[str, bool, str]]:
    checks = []
    for entry in _catalog.list_entries():
        phi = entry.map
        table = build_level_table(phi, max(2, phi.codomain.ambient_dim), budget, seed)
        for p, q in ((2.1, 3.0), (2.5, 4.0), (3.0, 5.0)):
            rep = inclusion_check(phi, p, q, table)
            checks.append(
                (
                    f"inclusion[{entry.name},p={p},q={q}]",
                    rep.passed,
                    f"lo_q={rep.result_q.bracket.lo:.9g} hi_p={rep.result_p.bracket.hi:.9g}",
                )
            )
    return checks


def _suite_bounds(seed: int, budget: OptBudget, trials: int) -> list[tuple[str, bool, str]]:
    checks = []
    for entry in _catalog.list_entries():
        phi = entry.map
        table = build_level_table(phi, 4, budget, seed)
        los = [e.bracket.lo for e in table.entries]
        his = [e.bracket.hi for e in table.entries]
        mono = all(a <= b for a, b in zip(los, los[1:]))
        cap = all(h <= (i + 1) * his[0] * (1 + 1e-12) for i, h in enumerate(his))
        cv = cross_validate(table, trials=trials, seed=seed)
        checks.append((f"monotone_lo[{entry.name}]", mono, f"los={los}"))
        checks.append((f"linear_cap[{entry.name}]", cap, f"his={his}"))
        gaps = "; ".join(
            f"n={r['level']} brute={r['brute_lo']:.9g} lo={r['table_lo']:.9g} hi={r['table_hi']:.9g}"
            for r in cv.rows
        )
        checks.append((f"oracle[{entry.name}]", cv.passed, gaps))
    return checks


def cmd_verify(args) -> int:
    budget = _budget(args)
    if args.suite == "axioms":
        checks = _suite_axioms(args.seed)
    elif args.suite == "inclusions":
        checks = _suite_inclusions(args.seed, budget)
    elif args.suite == "bounds":
        checks = _suite_bounds(args.seed, budget, args.trials)
    else:
        raise ValueError(f"unknown suite {args.suite!r}")
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f"  {detail}" if detail else ""
        print(f"{status} {name}{suffix}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_FAILED


# Most points a --p-grid may have; a larger grid is a parse error.
MAX_GRID_POINTS = 10_000


def _parse_grid(text: str) -> list[float]:
    """The points a + i*step <= b (+1e-12) of an a:b:step grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be a:b:step, got {text!r}")
    a, b, step = (float(x) for x in parts)
    if not np.all(np.isfinite([a, b, step])) or step <= 0 or b < a:
        raise ValueError(f"bad grid {text!r}")
    last = (b + 1e-12 - a) / step  # index of the last point, up to rounding
    if not last < MAX_GRID_POINTS:
        raise ValueError(f"bad grid {text!r}: more than {MAX_GRID_POINTS} points")
    points = (a + i * step for i in range(int(last) + 2))
    return [p for p in points if p <= b + 1e-12]


def cmd_plotdata(args) -> int:
    grid = _parse_grid(args.p_grid)
    phi = _resolve_map(args.map)
    table = build_level_table(phi, _table_levels(args, phi), _budget(args), args.seed)
    lines = ["p,lo,hi"]
    for p in grid:
        result = np_norm(phi, p, table)
        lines.append(f"{_fmt(p)},{_fmt(result.bracket.lo)},{_fmt(result.bracket.hi)}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npspace",
        description="Certified amplification-norm brackets and N^p-norm evaluation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_levels = subs.add_parser("levels", help="bracket ||phi_n|| for n = 1..N")
    _add_map_options(p_levels)
    p_levels.add_argument("--out", help="CSV output path (default: stdout)")
    p_levels.add_argument("--json", help="JSON table output path")
    p_levels.add_argument("--witnesses", help="JSON witness dump path")
    p_levels.set_defaults(func=cmd_levels)

    p_np = subs.add_parser("npnorm", help="bracket the N^p norm")
    _add_map_options(p_np, max_level=None)
    p_np.add_argument("--p", type=float, required=True)
    p_np.add_argument("--out", help="JSON result path")
    p_np.set_defaults(func=cmd_npnorm)

    p_index = subs.add_parser("index", help="estimate the summability index")
    p_index.add_argument("map", nargs="?", help="map JSON file or catalog:<name>")
    p_index.add_argument("--synthetic", help="synthetic growth rule, e.g. 'n^1'")
    p_index.add_argument("--max-level", type=int, default=4)
    _add_budget_options(p_index)
    p_index.add_argument("--out", help="JSON result path")
    p_index.set_defaults(func=cmd_index)

    p_verify = subs.add_parser("verify", help="run a property suite")
    p_verify.add_argument("--suite", choices=["axioms", "inclusions", "bounds"], required=True)
    _add_budget_options(p_verify)
    p_verify.add_argument("--trials", type=int, default=300, help="oracle trials (bounds suite)")
    p_verify.set_defaults(func=cmd_verify)

    p_plot = subs.add_parser("plotdata", help="CSV of p,lo,hi over a grid")
    _add_map_options(p_plot, max_level=None)
    p_plot.add_argument(
        "--p-grid", required=True, help=f"a:b:step, at most {MAX_GRID_POINTS} points"
    )
    p_plot.add_argument("--out", help="CSV output path (default: stdout)")
    p_plot.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (json.JSONDecodeError, OSError, KeyError, TypeError, ValueError, NpSpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
