from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from npspace import OptBudget, build_level_table, list_entries

SEED = 11


@pytest.fixture(scope="session")
def budget():
    return OptBudget()


@pytest.fixture(scope="session")
def catalog_tables(budget):
    """Level tables to n = 4 for every catalog entry, built once."""
    return {e.name: build_level_table(e.map, 4, budget, SEED) for e in list_entries()}


@pytest.fixture(scope="session")
def catalog_entries():
    return {e.name: e for e in list_entries()}


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


# An independent 60-digit reference for the series, in ``decimal``: the tests of
# ``npnorm`` and of the catalog check every zeta sum and series bracket against it.

# Even Bernoulli numbers B_2 .. B_24.
_BERNOULLI = tuple(map(Fraction, ("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6",
                                  "-3617/510", "43867/798", "-174611/330", "854513/138",
                                  "-236364091/2730")))


def _decimal_tail(p, K, ctx, terms=200):
    """sum_{n > K} n^-p in ``ctx``: ``terms`` terms, then Euler-Maclaurin at
    N = K + terms + 1 to B_24, whose remainder is below 1e-50 relative at N >= 201."""
    P, N = Decimal(p), Decimal(K + terms + 1)
    total = sum(ctx.power(Decimal(n), -P) for n in range(K + 1, K + terms + 1))
    total += ctx.power(N, 1 - P) / (P - 1) + ctx.power(N, -P) / 2
    rising, factorial = P, Decimal(1)  # (p)_(2j-1) = p (p+1) .. (p+2j-2), and (2j)!
    for j, b in enumerate(_BERNOULLI, 1):
        factorial *= (2 * j - 1) * (2 * j)
        coeff = Decimal(b.numerator) / Decimal(b.denominator) / factorial
        total += coeff * rising * ctx.power(N, -P - 2 * j + 1)
        rising *= (P + 2 * j - 1) * (P + 2 * j)
    return total


# The catalog's level norms at 60 digits: the rule's own value where it is an
# integer, and the two irrational norms from the maps' exact coefficients.
_EXACT_NORM = {
    "schur_M2": lambda: Decimal(2).sqrt(),
    "rank_one_M2": lambda: ((Decimal(0.6) ** 2 + Decimal(0.8) ** 2) * 5).sqrt(),
}


def _exact_norm(entry, n):
    if entry.name in _EXACT_NORM:
        return _EXACT_NORM[entry.name]()
    value = entry.expected_level_norms(n)
    assert value.is_integer(), (entry.name, n)
    return Decimal(value)
