"""Exact and limiting moment machinery.

The exhaustive oracle (``tensormp.claims.exhaustive_mean_trace``)
enumerates every entry assignment of the random model at tiny sizes and
averages the normalized trace power directly, with no combinatorics
involved. The acceptance gate compares it with the exact expansion for
Rademacher, weighted Rademacher, and third and fourth roots of unity;
the golden values below pin the expansion itself.
"""

from fractions import Fraction

import pytest

import tensormp as t
from tensormp import GraphClass, TauModel
from tensormp.claims import CLAIMS, noncrossing_limit_sum


def test_limiting_moments_tau_one():
    tau = TauModel.constant(1.0)
    assert [t.limiting_moment(p, 1.0, tau) for p in (1, 2, 3, 4)] == [1.0, 2.0, 5.0, 14.0]
    assert t.limiting_moment(2, 2.0, tau) == 6.0
    assert t.limiting_moment(1, 0.5, tau) == 0.5
    assert t.limiting_moment(2, 0.5, tau) == 0.75


def test_limiting_moment_nonconstant_tau():
    # tau taking values 1 and 2 with equal weight, p = 2, c = 1:
    # sum over the two non-crossing patterns gives 19/4
    tau = TauModel(coefficients=(1.0, 2.0))
    assert t.limiting_moment(2, 1.0, tau) == 4.75
    assert noncrossing_limit_sum(2, 1.0, tau) == 4.75
    # declaring the same moments directly must agree
    assert t.limiting_moment(2, 1.0, TauModel(moments=(1.5, 2.5))) == 4.75


def test_moment_needs_enough_tau_moments():
    with pytest.raises(ValueError):
        t.limiting_moment(3, 1.0, TauModel(moments=(1.0, 1.0)))
    # p >= 1 and c > 0 are required as well
    for p, c in ((0, 1.0), (2, 0.0), (2, -1.0)):
        with pytest.raises(ValueError):
            t.limiting_moment(p, c, TauModel.constant(1.0))


def test_limiting_moment_beyond_enumeration_cap():
    # the recursion needs no sequence enumeration, so P_CAP does not bind it
    assert t.P_CAP < 14
    tau = TauModel.constant(1.0)
    for c in (0.1, 0.5, 1.0, 2.0):
        assert t.limiting_moment(14, c, tau) == t.mp_moment(14, c)


def test_tau_model_validation():
    with pytest.raises(ValueError):
        TauModel()
    tau = TauModel(coefficients=(1.0, 2.0, 3.0))
    assert tau.moment(1) == 2.0
    assert tau.moment(2) == float(Fraction(14, 3))
    assert TauModel(coefficients=(2.0, 0.0)).moment(1) == 1.0
    assert TauModel(coefficients=(1.0, -1.0)).moment(1) == 0.0
    assert TauModel(coefficients=(1.0, -1.0)).moment(2) == 1.0


def test_tau_empirical_moments():
    def moments(coeffs, q_max):
        return [TauModel(coefficients=coeffs).moment(q) for q in range(1, q_max + 1)]

    assert moments((1.0, 1.0, 1.0), 3) == [1.0, 1.0, 1.0]
    assert moments((2.0, 0.0), 2) == [1.0, 2.0]
    assert moments((1.0, -1.0), 2) == [0.0, 1.0]


def test_carleman_check():
    ok, bad = t.carleman_check([1.0, 2.0, 6.0], 2.0)
    assert ok and bad is None
    ok, bad = t.carleman_check([1.0, 100.0], 1.0)
    assert not ok and bad == 2


def test_mixed_moment_rules():
    phase = t.uniform_phase_rule()
    rad = t.rademacher_rule()
    r3 = t.roots_of_unity_rule(3)
    for a in range(4):
        for b in range(4):
            assert phase.mu(a, b) == (1 if a == b else 0)
            assert rad.mu(a, b) == (1 if (a + b) % 2 == 0 else 0)
            assert r3.mu(a, b) == (1 if (a - b) % 3 == 0 else 0)
    with pytest.raises(ValueError):
        t.roots_of_unity_rule(1)


def test_exact_oracle_rademacher():
    rad = t.rademacher_rule()
    tau1 = TauModel(coefficients=(1.0, 1.0))
    for k, expected in [(1, [1.0, 1.5, 2.5]), (2, [0.5, 0.625, 0.875])]:
        for p in (1, 2, 3):
            got = t.exact_mean_trace_moment(2, k, 2, p, tau1, rad)
            assert got == pytest.approx(expected[p - 1], abs=1e-14)


def test_exact_oracle_rademacher_weighted():
    rad = t.rademacher_rule()
    tau = TauModel(coefficients=(1.0, 2.0))
    for k, expected in [(1, [1.5, 3.5, 9.0]), (2, [0.75, 1.5])]:
        for p, want in enumerate(expected, start=1):
            got = t.exact_mean_trace_moment(2, k, 2, p, tau, rad)
            assert got == pytest.approx(want, abs=1e-14)


def test_exact_oracle_roots_of_unity():
    tau1 = TauModel(coefficients=(1.0, 1.0))
    r3 = t.roots_of_unity_rule(3)
    got = t.exact_mean_trace_moment(2, 1, 2, 4, tau1, r3)
    assert got == pytest.approx(4.375, abs=1e-14)


def test_exact_oracle_requires_coefficients():
    with pytest.raises(ValueError):
        t.exact_mean_trace_moment(2, 1, 2, 2, TauModel(moments=(1.0, 1.0)), t.rademacher_rule())
    with pytest.raises(ValueError):
        t.exact_mean_trace_moment(2, 1, 3, 2, TauModel(coefficients=(1.0, 1.0)), t.rademacher_rule())
    # one coefficient stands for m equal weights
    for p in (1, 2, 3):
        assert t.exact_mean_trace_moment(
            2, 1, 3, p, TauModel.constant(1.0), t.rademacher_rule()
        ) == t.exact_mean_trace_moment(2, 1, 3, p, TauModel(coefficients=(1.0,) * 3), t.rademacher_rule())


def test_phase_weight_vanishes_unless_paired():
    assert CLAIMS["phase weight iff paired"].run(5) is None


def test_single_weight_vanishes_for_all_rules():
    rules = [t.uniform_phase_rule(), t.rademacher_rule(), t.roots_of_unity_rule(3)]
    for p in range(1, 6):
        for a in t.enumerate_canonical(p):
            for i in t.enumerate_canonical(p):
                if t.classify(t.build_graph(i, a)) is not GraphClass.SINGLE:
                    continue
                for rule in rules:
                    assert t.graph_expectation_weight(i, a, rule) == 0


def test_inner_factor_collapse_for_phase():
    # for non-crossing alpha the i-sum telescopes to n^(1-s)
    assert CLAIMS["phase inner factor collapse"].run(6, ns=(2, 5, 9)) is None


def test_moment_table_csv():
    from tensormp.moments import moment_table_csv

    text = moment_table_csv([(1, 1.0, 1.0), (2, 2.0, None)])
    lines = text.strip().split("\n")
    assert lines[0] == "p,theory,exact_or_mc,abs_error"
    assert lines[1] == "1,1.0,1.0,0.0"
    assert lines[2] == "2,2.0,,"
