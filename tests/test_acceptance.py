"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The battery computes everything once per run from freshly cloned maps (so
caches cannot leak state between runs); the determinism criterion runs the
whole battery a second time and compares the serialized results bytewise.
"""

import json
import math
import time

import numpy as np
import pytest

from npspace import (
    base_norm,
    brute_level_norm,
    build_level_table,
    full_matrix_space,
    index_estimate,
    list_entries,
    make_map,
    map_from_dict,
    map_to_dict,
    membership,
    np_norm,
    random_subspace,
    verify_axioms,
    zeta_bracket,
)
from npspace.npnorm import VERDICT_MEMBER, VERDICT_NOT_MEMBER

SEED = 2026

# Maps whose codomain is a full matrix algebra of size 2 or 3 (criterion 4).
FULL_TARGET_NAMES = (
    "zero_M2",
    "identity_M2",
    "identity_M3",
    "transpose_M2",
    "transpose_M3",
    "schur_M2",
)


def _clone(phi):
    return map_from_dict(map_to_dict(phi))


def _fresh_catalog():
    return [(e.name, _clone(e.map), e.expected_level_norms) for e in list_entries()]


def run_battery(seed: int) -> dict:
    results = {}
    entries = _fresh_catalog()

    # -- criterion 1: axiom suite ------------------------------------------
    t0 = time.monotonic()
    rng = np.random.default_rng([seed, 0xA7])
    spaces = [
        full_matrix_space(2),
        full_matrix_space(3),
        random_subspace(2, 2, rng, "rand2_of_M2"),
        random_subspace(3, 2, rng, "rand2_of_M3"),
    ]
    reports = [verify_axioms(sp, samples=200, seed=seed) for sp in spaces]
    runtime1 = time.monotonic() - t0
    results["c1"] = {
        "passed": all(r.passed for r in reports) and runtime1 < 10.0,
        "detail": (
            f"worst M1 {max(r.m1_worst for r in reports):.2e}, "
            f"worst M2 {max(r.m2_worst for r in reports):.2e}, {runtime1:.2f}s"
        ),
        "payload": json.dumps([r.to_json_dict() for r in reports], sort_keys=True),
    }

    # -- criterion 2: linear growth cap (tables built here, reused below) ---
    t0 = time.monotonic()
    tables = {}
    ok2 = True
    worst2 = -math.inf
    for name, phi, _ in entries:
        max_level = max(4, phi.codomain.ambient_dim + 2)
        tables[name] = build_level_table(phi, max_level, seed=seed)
        base_hi = tables[name].entries[0].bracket.hi
        for e in tables[name].entries[:4]:
            slack = e.bracket.lo - e.level * base_hi
            worst2 = max(worst2, slack)
            ok2 = ok2 and slack <= 1e-9
    runtime2 = time.monotonic() - t0
    ok2 = ok2 and runtime2 < 60.0
    results["c2"] = {
        "passed": ok2,
        "detail": f"worst lo - n*hi(1) = {worst2:.2e}, {runtime2:.2f}s",
        "payload": json.dumps(
            {name: t.to_json_dict() for name, t in tables.items()}, sort_keys=True
        ),
    }

    # -- criterion 3: monotone lower bounds (exact) -------------------------
    ok3 = True
    for name, _, _ in entries:
        los = [e.bracket.lo for e in tables[name].entries]
        ok3 = ok3 and all(a <= b for a, b in zip(los, los[1:]))
    results["c3"] = {
        "passed": ok3,
        "detail": "propagated lo nondecreasing for all catalog tables",
        "payload": json.dumps(
            {name: [e.bracket.lo for e in tables[name].entries] for name, _, _ in entries},
            sort_keys=True,
        ),
    }

    # -- criterion 4: stabilization agreement -------------------------------
    ok4 = True
    worst4 = 0.0
    for name in FULL_TARGET_NAMES:
        table = tables[name]
        m = table.map.codomain.ambient_dim
        for n in range(m, m + 3):
            b = table.bracket_at(n)
            gap = (b.hi - b.lo) / max(1.0, b.hi)
            worst4 = max(worst4, gap)
            ok4 = ok4 and gap <= 5e-3
    results["c4"] = {
        "passed": ok4,
        "detail": f"worst relative bracket gap at n=m..m+2: {worst4:.2e}",
        "payload": json.dumps(
            {
                name: [
                    [tables[name].bracket_at(n).lo, tables[name].bracket_at(n).hi]
                    for n in range(
                        tables[name].map.codomain.ambient_dim,
                        tables[name].map.codomain.ambient_dim + 3,
                    )
                ]
                for name in FULL_TARGET_NAMES
            },
            sort_keys=True,
        ),
    }

    # -- criterion 5: transpose ground truth --------------------------------
    t_entry = next((n, p, r) for n, p, r in entries if n == "transpose_M2")
    _, t_phi, t_rule = t_entry
    t_table = tables["transpose_M2"]
    ok5 = True
    brutes = []
    for n in (1, 2, 3, 4):
        want = t_rule(n)
        brute = brute_level_norm(t_phi, n, trials=2000, seed=seed)
        brutes.append(brute)
        ok5 = ok5 and brute >= want - 1e-3
        ok5 = ok5 and t_table.bracket_at(n).hi <= want + 1e-9
    zl, zh = zeta_bracket(3.0, 2048)
    closed_lo, closed_hi = 1.0 + 2.0 * (zl - 1.0), 1.0 + 2.0 * (zh - 1.0)
    r5 = np_norm(t_phi, 3.0, t_table)
    ok5 = ok5 and r5.bracket.lo - 1e-12 <= closed_lo
    ok5 = ok5 and r5.bracket.hi + 1e-12 >= closed_hi
    ok5 = ok5 and r5.bracket.width <= 1e-5
    results["c5"] = {
        "passed": ok5,
        "detail": (
            f"brute={['%.6f' % b for b in brutes]}, "
            f"N3 bracket [{r5.bracket.lo:.12f}, {r5.bracket.hi:.12f}] "
            f"vs closed form [{closed_lo:.12f}, {closed_hi:.12f}]"
        ),
        "payload": json.dumps({"brute": brutes, "np3": r5.to_json_dict()}, sort_keys=True),
    }

    # -- criterion 6: functional closed form --------------------------------
    tr_phi = tables["trace_M2"].map
    f_bracket = base_norm(tr_phi, seed=seed)
    ok6 = True
    payload6 = {}
    for p in (2.0, 3.0):
        r = np_norm(tr_phi, p, tables["trace_M2"])
        zl, zh = zeta_bracket(p, 2048)
        prod_lo, prod_hi = f_bracket.lo * zl, f_bracket.hi * zh
        ok6 = ok6 and r.bracket.lo <= prod_hi + 1e-12
        ok6 = ok6 and r.bracket.hi >= prod_lo - 1e-12
        ok6 = ok6 and r.bracket.rel_width <= 1e-5
        payload6[str(p)] = r.to_json_dict()
    results["c6"] = {
        "passed": ok6,
        "detail": f"||f|| bracket [{f_bracket.lo:.9f}, {f_bracket.hi:.9f}]",
        "payload": json.dumps(payload6, sort_keys=True),
    }

    # -- criterion 7: inclusions on random maps -----------------------------
    m2 = full_matrix_space(2)
    stack = np.stack([np.array(b) for b in m2.basis])
    rng7 = np.random.default_rng([seed, 7])
    ok7 = True
    payload7 = []
    for i in range(20):
        coeff = rng7.standard_normal((4, 4)) + 1j * rng7.standard_normal((4, 4))
        action = [np.einsum("s,sab->ab", coeff[:, t], stack) for t in range(4)]
        phi = make_map(m2, m2, action, f"random_{i}")
        table = build_level_table(phi, 2, seed=seed)
        for p, q in ((2.1, 3.0), (2.5, 4.0), (3.0, 5.0)):
            rp = np_norm(phi, p, table)
            rq = np_norm(phi, q, table)
            ok7 = ok7 and rq.bracket.lo <= rp.bracket.hi + 1e-8
            payload7.append([i, p, q, rq.bracket.lo, rp.bracket.hi])
    results["c7"] = {
        "passed": ok7,
        "detail": "60 bracket-aware inclusion comparisons on 20 seeded maps",
        "payload": json.dumps(payload7, sort_keys=True),
    }

    # -- criterion 8: membership above p = 2 --------------------------------
    ok8 = True
    payload8 = {}
    for name, phi, _ in entries:
        verdict = membership(phi, 2.1, tables[name])
        r = np_norm(phi, 2.1, tables[name])
        ok8 = ok8 and verdict == VERDICT_MEMBER
        ok8 = ok8 and math.isfinite(r.bracket.hi)
        payload8[name] = {"verdict": verdict, "hi": r.bracket.hi}
    results["c8"] = {
        "passed": ok8,
        "detail": "all catalog maps member at p=2.1 with finite hi",
        "payload": json.dumps(payload8, sort_keys=True),
    }

    # -- criterion 9: N^1 triviality -----------------------------------------
    ok9 = True
    payload9 = {}
    for name, phi, _ in entries:
        r = np_norm(phi, 1.0, tables[name])
        if phi.is_zero:
            ok9 = ok9 and r.verdict == VERDICT_MEMBER and r.bracket.hi == 0.0
        else:
            ok9 = ok9 and r.verdict == VERDICT_NOT_MEMBER and bool(r.divergence_proof)
        payload9[name] = r.to_json_dict()
    results["c9"] = {
        "passed": ok9,
        "detail": "nonzero maps diverge at p=1 with proof; zero map is member",
        "payload": json.dumps(payload9, sort_keys=True),
    }

    # -- criterion 10: index estimator ---------------------------------------
    ok10 = True
    payload10 = {}
    for alpha in (0.0, 0.5, 1.0, 2.0):
        est = index_estimate([(n, float(n) ** alpha) for n in range(1, 17)])
        want = max(1.0, alpha + 1.0)
        ok10 = ok10 and abs(est.r_hat - want) <= 0.05
        payload10[str(alpha)] = est.to_json_dict()
    results["c10"] = {
        "passed": ok10,
        "detail": "synthetic n^alpha recovers max(1, alpha+1) within 0.05",
        "payload": json.dumps(payload10, sort_keys=True),
    }

    return results


@pytest.fixture(scope="module")
def battery():
    return run_battery(SEED)


def _report(battery, key, label):
    entry = battery[key]
    status = "PASS" if entry["passed"] else "FAIL"
    print(f"criterion {label}: {status} - {entry['detail']}")
    assert entry["passed"], entry["detail"]


def test_criterion_01_axiom_suite(battery):
    _report(battery, "c1", "1 (axiom suite)")


def test_criterion_02_linear_growth_cap(battery):
    _report(battery, "c2", "2 (lo <= n * base hi)")


def test_criterion_03_monotonicity(battery):
    _report(battery, "c3", "3 (monotone lo)")


def test_criterion_04_stabilization_agreement(battery):
    _report(battery, "c4", "4 (stabilization agreement)")


def test_criterion_05_transpose_ground_truth(battery):
    _report(battery, "c5", "5 (transpose ground truth)")


def test_criterion_06_functional_closed_form(battery):
    _report(battery, "c6", "6 (functional closed form)")


def test_criterion_07_inclusions(battery):
    _report(battery, "c7", "7 (inclusion inequality)")


def test_criterion_08_membership_above_two(battery):
    _report(battery, "c8", "8 (membership for p > 2)")


def test_criterion_09_n1_triviality(battery):
    _report(battery, "c9", "9 (N^1 triviality)")


def test_criterion_10_index_estimator(battery):
    _report(battery, "c10", "10 (index estimator)")


def test_criterion_11_determinism(battery):
    rerun = run_battery(SEED)
    mismatched = [
        key for key in sorted(battery) if battery[key]["payload"] != rerun[key]["payload"]
    ]
    status = "PASS" if not mismatched else "FAIL"
    print(f"criterion 11 (determinism): {status} - criteria 2-10 byte-identical on rerun")
    assert not mismatched, f"non-deterministic criteria: {mismatched}"
