import math

from hypothesis import given
from hypothesis import strategies as st

from tensormp import bell, c1_count, falling_factorial, stirling2
from tensormp import combinatorics as comb
from tensormp.claims import CLAIMS, stirling_explicit


def test_stirling_matches_explicit_formula():
    # the explicit-sum oracle on the edge cases; the acceptance gate compares
    # it with the recurrence for n <= 20, k <= n + 1
    cases = [(0, 0, 1), (5, 0, 0), (3, 4, 0), (4, 2, 7), (10, 5, 42525)]
    assert [stirling_explicit(n, k) for n, k, _ in cases] == [want for _, _, want in cases]


def test_stirling_edge_cases():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(3, 4) == 0
    assert stirling2(10, 5) == 42525


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
def test_stirling_recurrence(n, k):
    assert stirling2(n, k) == stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)


def test_bell_totals():
    assert [bell(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    assert bell(10) == 115975
    assert CLAIMS["bell totals"].run(14) is None


def test_bell_totals_catch_a_wrong_stirling(monkeypatch):
    # bell shares nothing with stirling2, so one wrong S(n, k) shows
    right = comb.stirling2
    monkeypatch.setattr(comb, "stirling2", lambda n, k: right(n, k) + ((n, k) == (9, 4)))
    assert CLAIMS["bell totals"].run(14) == "n=9"


def test_falling_factorial():
    assert falling_factorial(10, 0) == 1
    assert falling_factorial(10, 3) == 720
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(4, 4) == math.factorial(4)


def test_c1_count_values():
    # row p=4 is 1, 6, 6, 1; totals are the Catalan numbers
    assert [c1_count(s, 4) for s in range(1, 5)] == [1, 6, 6, 1]
    catalan = [math.comb(2 * p, p) // (p + 1) for p in range(1, 11)]
    for p in range(1, 11):
        assert sum(c1_count(s, p) for s in range(1, p + 1)) == catalan[p - 1]


def test_c1_count_symmetry_and_range():
    assert CLAIMS["narayana symmetry"].run(11) is None
    assert c1_count(0, 4) == 0
    assert c1_count(5, 4) == 0
