"""Tests of the benchmark's own checks: each must reject a wrong answer.

    python3 bench/selftest.py

Each test feeds a check one real output of the program, which must pass,
and the same output made wrong, which must be reported.
"""

from __future__ import annotations

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import npspace  # noqa: E402
from checks import CATALOG_TRUTH  # noqa: E402


def _data(name: str) -> checks.MapData:
    return checks.map_data_from_dict(npspace.map_to_dict(npspace.get_entry(name).map))


def _problems(check, *args) -> list:
    found = []
    check(found, "t", *args)
    return found


class ClosedForms(unittest.TestCase):
    def test_series_agrees_with_partial_sum_plus_tail(self):
        # sum_{n <= K} a_n n^-p plus the stable value times the tail, whose
        # integral bounds are K+1 and K: the zeta form must fall inside.
        K = 20000
        for name, rule in CATALOG_TRUTH.items():
            for p in (1.5, 2.0, 3.0, 4.0):
                partial = math.fsum(rule.at(n) / n**p for n in range(1, K + 1))
                stable = rule.values[-1]
                lo = partial + stable * (K + 1) ** (1 - p) / (p - 1)
                hi = partial + stable * K ** (1 - p) / (p - 1)
                with self.subTest(name=name, p=p):
                    value = rule.series(p)
                    self.assertLessEqual(lo - 1e-12, value)
                    self.assertLessEqual(value, hi + 1e-12)

    def test_transpose_series_is_two_zeta_minus_one(self):
        from scipy.special import zeta

        self.assertAlmostEqual(CATALOG_TRUTH["transpose_M2"].series(2.0), 2 * zeta(2.0) - 1, 14)

    def test_self_derived_bounds_enclose_the_truth(self):
        for name, rule in CATALOG_TRUTH.items():
            data = _data(name)
            for n in (1, 2, 3, 4):
                with self.subTest(name=name, n=n):
                    self.assertLessEqual(rule.at(n), checks.upper_bound(data) * (1 + 1e-12))
                    self.assertLessEqual(checks.lower_bound(data), rule.at(n) * (1 + 1e-12) + 1e-12)

    def test_upper_bound_holds_on_a_proper_subspace(self):
        # The inclusion of a subspace has norm 1 at every level.
        rng = np.random.default_rng(5)
        basis = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        data = checks.MapData(basis, basis)
        self.assertGreaterEqual(checks.upper_bound(data), 1.0)
        self.assertLessEqual(checks.lower_bound(data), 1.0 + 1e-12)


class ChecksRejectWrongAnswers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.phi = npspace.get_entry("transpose_M2").map
        cls.data = _data("transpose_M2")
        cls.table = npspace.build_level_table(npspace.map_from_dict(npspace.map_to_dict(cls.phi)), 2)
        cls.entry = cls.table.entries[1]  # level 2: ||t_2|| = 2

    def test_real_output_passes(self):
        e = self.entry
        self.assertEqual(_problems(checks.check_bracket, e.bracket.lo, e.bracket.hi, 2.0), [])
        self.assertEqual(_problems(checks.check_witness, self.data, e.witness, e.bracket.lo), [])

    def test_lo_one_percent_above_truth(self):
        self.assertTrue(_problems(checks.check_bracket, 2.0 * 1.01, 2.0 * 1.01, 2.0))

    def test_hi_below_truth(self):
        self.assertTrue(_problems(checks.check_bracket, 1.9, 2.0 * 0.99, 2.0))

    def test_witness_scaled_by_one_percent(self):
        e = self.entry
        self.assertTrue(_problems(checks.check_witness, self.data, e.witness * 1.01, e.bracket.lo))

    def test_witness_that_misses_lo(self):
        e = self.entry
        self.assertTrue(_problems(checks.check_witness, self.data, e.witness, e.bracket.lo * 1.01))

    def test_series_bracket_that_misses_the_value(self):
        rule = CATALOG_TRUTH["transpose_M2"]
        result = npspace.np_norm(self.phi, 2.0, npspace.build_level_table(self.phi, 4))
        lo, hi = result.bracket.lo, result.bracket.hi
        self.assertEqual(_problems(checks.check_bracket, lo, hi, rule.series(2.0)), [])
        shift = 1e-6 * rule.series(2.0)
        self.assertTrue(_problems(checks.check_bracket, lo + shift + (hi - lo), hi + shift, rule.series(2.0)))
        self.assertTrue(_problems(checks.check_bracket, lo - shift - (hi - lo), lo - shift, rule.series(2.0)))

    def test_oracle_window(self):
        self.assertEqual(_problems(checks.check_oracle, 2.0 - 1e-4, 2.0), [])
        self.assertTrue(_problems(checks.check_oracle, 2.0 * (1 - 6e-3), 2.0))
        self.assertTrue(_problems(checks.check_oracle, 2.0 + 1e-6, 2.0))

    def test_self_derived_bound(self):
        ub = checks.upper_bound(self.data)
        self.assertEqual(_problems(checks.check_between, 2.0, 0.0, ub), [])
        self.assertTrue(_problems(checks.check_between, ub * 1.01, 0.0, ub))


if __name__ == "__main__":
    unittest.main()
