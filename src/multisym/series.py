"""Integer power series, truncated, for the dimension identities.

All arithmetic is exact: division needs a divisor whose constant term is a
unit over the integers.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache

from .trees import _Record, _set


class TruncatedSeries(_Record):
    """Coefficients c_0..c_N of a power series truncated at order N."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        _set(self, "coeffs", tuple(int(c) for c in coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def _common_order(self, other) -> int:
        return min(self.order, other.order)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = self._common_order(other)
        out = [0] * (n + 1)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                out[i + j] += self[i] * other[j]
        return TruncatedSeries(tuple(out))

    def __truediv__(self, other: TruncatedSeries) -> TruncatedSeries:
        if other[0] not in (1, -1):
            raise ValueError("divisor constant term must be a unit over the integers")
        n = self._common_order(other)
        out = [0] * (n + 1)
        for k in range(n + 1):
            acc = self[k] - sum(out[j] * other[k - j] for j in range(k))
            out[k] = acc * other[0]  # multiplying by 1 or -1 inverts it
        return TruncatedSeries(tuple(out))

    def pretty(self) -> str:
        parts = [str(self[0])]
        for k in range(1, self.order + 1):
            q = "q" if k == 1 else f"q^{k}"
            parts.append(f"{self[k]} {q}")
        return " + ".join(parts)


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def bileveled_count(n: int) -> int:
    """Number of bi-leveled trees on n nodes, by the convolution recurrence."""
    if n < 1:
        return 0
    return catalan(n - 1) + sum(bileveled_count(k) * bileveled_count(n - k)
                                for k in range(1, n))


# The longest series made, one process each (2-core Xeon, CPython 3.11): at
# order 2000 the quotient takes 10.6 s, M 5.9 s, Y 0.7 s and S 0.5 s; the
# convolution recurrence and the division are quadratic in big-integer products
MAX_SERIES_ORDER = 2000


def check_series_order(order: int) -> None:
    """Refuse an order outside 0..MAX_SERIES_ORDER, before any coefficient is made."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_SERIES_ORDER:
        raise ValueError(f"a series is limited to order {MAX_SERIES_ORDER}, got {order}")


def counts(family: str, order: int) -> TruncatedSeries:
    """Dimension series of a family up to the given order."""
    check_series_order(order)
    if family == "S":
        return TruncatedSeries(tuple(math.factorial(n) for n in range(order + 1)))
    if family == "Y":
        return TruncatedSeries(tuple(catalan(n) for n in range(order + 1)))
    if family == "M":
        return TruncatedSeries(tuple(bileveled_count(n) for n in range(order + 1)))
    raise ValueError(f"unknown family {family!r}")


def series_quotient(numer: TruncatedSeries, denom: TruncatedSeries) -> TruncatedSeries:
    if denom[0] != 1:
        raise ValueError("quotient needs a denominator with constant term 1")
    return numer / denom


class DimensionReport(_Record, namedtuple("DimensionReport", "n_max failures")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def check_dimension_identities(n_max: int) -> DimensionReport:
    """Counting series versus direct enumeration, and the quotient versus the
    coinvariant keys."""
    from .algebra import coinvariant_basis
    from .trees import enumerate_family

    failures = []
    for family in ("S", "Y", "M"):
        series = counts(family, n_max)
        start = 1 if family == "M" else 0
        for n in range(start, n_max + 1):
            # words are counted one at a time, not held as n! strings
            found = (sum(1 for _ in itertools.permutations(range(n))) if family == "S"
                     else len(enumerate_family(family, n)))
            if found != series[n]:
                failures.append(f"{family} size {n}: enumerated {found}, series {series[n]}")
    quotient = series_quotient(counts("M", n_max), counts("Y", n_max))
    for n in range(1, n_max + 1):
        found = len(coinvariant_basis(n))
        if found != quotient[n]:
            failures.append(f"coinvariants size {n}: {found} keys, quotient {quotient[n]}")
    return DimensionReport(n_max, tuple(failures))
