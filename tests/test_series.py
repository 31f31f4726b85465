import pytest
from hypothesis import given, strategies as st

from multisym import series
from multisym.series import (
    TruncatedSeries,
    bileveled_count,
    catalan,
    check_dimension_identities,
    counts,
    series_quotient,
)
from multisym.trees import enumerate_family


def test_counting_series():
    assert counts("M", 5).coeffs == (0, 1, 2, 6, 21, 80)
    assert counts("Y", 5).coeffs == (1, 1, 2, 5, 14, 42)
    assert counts("S", 5).coeffs == (1, 1, 2, 6, 24, 120)
    assert counts("M", 6)[6] == 322


def test_counts_refuse_an_order_past_the_limit_before_any_coefficient(monkeypatch):
    assert series.MAX_SERIES_ORDER == 2000
    counts("S", 2000)
    def fail(*args):
        raise AssertionError("made a coefficient past the order limit")
    monkeypatch.setattr(series, "bileveled_count", fail)
    monkeypatch.setattr(series, "catalan", fail)
    for family in "SYM":
        with pytest.raises(ValueError, match=r"^a series is limited to order 2000, got 2001$"):
            counts(family, 2001)
    with pytest.raises(ValueError, match=r"^order must be nonnegative$"):
        counts("M", -1)


def test_recurrence_matches_enumeration():
    for n in range(1, 7):
        assert bileveled_count(n) == len(enumerate_family("M", n))


def test_quotient_series():
    quotient = series_quotient(counts("M", 5), counts("Y", 5))
    assert quotient.coeffs == (0, 1, 1, 3, 11, 44)


def test_self_quotient_is_one():
    x = TruncatedSeries((1, 4, 1, 5))
    assert (x / x).coeffs == (1, 0, 0, 0)


def test_word_series_over_tree_series_is_nonnegative():
    quotient = series_quotient(counts("S", 8), counts("Y", 8))
    assert all(c >= 0 for c in quotient.coeffs)


def test_quotient_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series_quotient(counts("Y", 3), counts("M", 3))
    with pytest.raises(ValueError):
        TruncatedSeries((1, 2)) / TruncatedSeries((2, 1))


small_series = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(
    lambda cs: TruncatedSeries(tuple(cs)))
unit_series = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(
    lambda cs: TruncatedSeries((1,) + tuple(cs)[1:]))


@given(small_series, unit_series)
def test_division_inverts_multiplication(a, b):
    n = min(a.order, b.order)
    trimmed = TruncatedSeries(a.coeffs[:n + 1])
    assert ((a * b) / b).coeffs == trimmed.coeffs


def test_pretty_printing():
    assert counts("M", 3).pretty() == "0 + 1 q + 2 q^2 + 6 q^3"
    assert TruncatedSeries((5,)).pretty() == "5"
    assert TruncatedSeries((1, -2)).pretty() == "1 + -2 q"


def test_catalan_values():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_dimension_identities_report():
    report = check_dimension_identities(5)
    assert report.passed
    assert report.failures == ()
