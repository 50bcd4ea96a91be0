"""Exact and limiting moment machinery.

The exhaustive oracle (``tensormp.claims.exhaustive_mean_trace``)
enumerates every entry assignment of the random model at tiny sizes and
averages the normalized trace power directly, with no combinatorics
involved. The acceptance gate compares it with the exact expansion for
Rademacher, weighted Rademacher, and third and fourth roots of unity;
the golden values below pin the expansion itself.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tensormp as t
from tensormp import GraphClass, MixedMomentRule, TauModel, claims, moments
from tensormp.claims import (
    CLAIMS,
    noncrossing_limit_sum,
    pairwise_counts,
    pairwise_inner_factor,
    pairwise_mean_trace_moment,
)

# Not an entry law: an integer mu(a, b) != mu(b, a), whose inner factor
# is invariant under rotation only (first at p = 6, alpha = (1,1,2,1,2,3)),
# and whose entries above 1 take the column counts off their int64 path.
SKEW = MixedMomentRule("skew", lambda a, b: (a + 1) * (2 * b + 1))
SYMMETRIC_RULES = [
    t.uniform_phase_rule(),
    t.rademacher_rule(),
    t.roots_of_unity_rule(3),
    t.roots_of_unity_rule(4),
]


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
    # the series needs no sequence enumeration, so P_CAP does not bind it
    assert t.P_CAP < 14
    tau = TauModel.constant(1.0)
    for c in (0.1, 0.5, 1.0, 2.0):
        for p in (14, 20, 30):
            assert t.limiting_moment(p, c, tau) == t.mp_moment(p, c)


@pytest.mark.parametrize("c", [0.3, 1.7])
def test_limiting_moment_of_declared_moments(c):
    # no m real weights have these power sums: m_2 < m_1^2 and m_4 < 0
    tau = TauModel(moments=(1.0, 0.5, 3.0, -2.0, 7.0, 1.0, 2.0, 5.0))
    for p in range(1, 9):
        assert t.limiting_moment(p, c, tau) == noncrossing_limit_sum(p, c, tau)


def test_tau_model_validation():
    with pytest.raises(ValueError):
        TauModel()
    with pytest.raises(ValueError, match="empty coefficient list"):
        TauModel(coefficients=())
    with pytest.raises(ValueError, match="must be >= 1"):
        TauModel.constant().moment(0)
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


def test_exact_oracle_pinned_past_p6():
    # recorded with the Bell(s) set-partition tau factor; the degree recursion
    # must reproduce them float for float
    tau = TauModel(coefficients=tuple(0.5 + j / 32 for j in range(32)))
    got = [t.exact_mean_trace_moment(4, 3, 32, p, tau, t.rademacher_rule()) for p in (7, 8)]
    assert got == [54.453285093466995, 158.25214533556672]


def test_tau_factor_equals_injection_enumeration_claim():
    assert CLAIMS["tau factor equals injection enumeration"].run(7) is None
    taus = (0.5, 1.25, -2.0, 3.0)
    assert claims.injection_sum_by_enumeration((1, 1, 1, 1, 1), taus) == 0
    assert claims.injection_sum_by_enumeration((2,), taus) == Fraction(237, 16)


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


@pytest.mark.parametrize("rule", [*SYMMETRIC_RULES, SKEW], ids=lambda r: r.name)
def test_inner_factor_equals_pairwise_sum(rule):
    # the walk-graph sum weighs each (i, alpha) once per rule, and its memoized
    # counts serve every n
    for p in range(1, 7):
        for a in t.enumerate_canonical(p):
            for n in range(1, 6):
                assert t.inner_factor(a, n, rule) == pairwise_inner_factor(a, n, rule), (a, n)


def test_mu_table_cache_cannot_be_corrupted():
    # one table per (rule, p), shared by every inner factor, so it is read-only
    for rule in (t.rademacher_rule(), SKEW):
        table = moments._mu_table(rule, 5)
        assert moments._mu_table(rule, 5) is table
        with pytest.raises(ValueError):
            table[1, 1] = 7
        with pytest.raises(ValueError):
            table += 1
    assert moments._mu_table(t.rademacher_rule(), 5)[1, 1] == 1


def test_rules_that_share_a_name_stay_apart():
    # rules compare by name and mu, so SKEW renamed to a symmetric rule's
    # name is another rule, and every cache keyed on a rule keeps them apart
    rad = t.rademacher_rule()
    twin = MixedMomentRule(rad.name, SKEW.mu)
    assert twin != rad
    a, tau = (1, 1, 2, 1, 2, 3), TauModel(coefficients=(0.5, 1.25, 2.0))

    def values(rule):
        return pairwise_inner_factor(a, 2, rule), pairwise_mean_trace_moment(2, 2, 3, 4, tau, rule)

    # a dict keyed on the rule would make the same mistake, so pair them in a list
    want = [(rad, values(rad)), (twin, values(SKEW))]
    assert want[0][1] != want[1][1]
    for order in (want, want[::-1]):
        for rule, own in order:
            assert values(rule) == own
            assert t.inner_factor(a, 2, rule) == own[0]


def test_each_law_has_one_rule():
    assert t.rademacher_rule() is moments.EntryDistribution.parse("rademacher").mixed_moment_rule()
    assert t.roots_of_unity_rule(3) is moments.EntryDistribution.parse("roots:3").mixed_moment_rule()
    assert t.uniform_phase_rule() is t.PHASE.mixed_moment_rule()
    assert t.roots_of_unity_rule(3) != t.roots_of_unity_rule(4)


def test_pairwise_counts_return_a_new_list():
    a, rad = (1, 2, 1, 2), t.rademacher_rule()
    first = pairwise_counts(a, rad)
    first[0] = 99
    assert pairwise_counts(a, rad) == [0, 1, 3, 0, 0] != first


def test_skew_rule_is_not_reduced_by_reversal(monkeypatch):
    a = (1, 1, 2, 1, 2, 3)
    assert t.inner_factor(a, 2, SKEW) != t.inner_factor(a[::-1], 2, SKEW)
    tau = TauModel(coefficients=(0.5, 1.25, 2.0))
    want = [pairwise_mean_trace_moment(2, 2, 3, p, tau, SKEW) for p in range(1, 7)]
    # folding reversals first changes the total at p = 7, where the walk-graph
    # sum is slow; there the alpha-by-alpha sum takes inner_factor, which the
    # test above holds equal to the walk-graph sum
    monkeypatch.setattr(claims, "pairwise_inner_factor", t.inner_factor)
    want.append(pairwise_mean_trace_moment(2, 2, 3, 7, tau, SKEW))
    assert [t.exact_mean_trace_moment(2, 2, 3, p, tau, SKEW) for p in range(1, 8)] == want


def test_exact_oracle_equals_pairwise_sum_claim():
    assert CLAIMS["exact oracle equals pairwise sum"].run(6) is None


def test_rademacher_crossing_persistence_claim():
    assert CLAIMS["rademacher crossing persistence"].run(6) is None
    # the phase rule decays at the same crossing alpha
    a = (1, 2, 1, 2)
    assert 2 * t.inner_factor(a, 2, t.rademacher_rule()) == 1
    assert 2 * t.inner_factor(a, 2, t.uniform_phase_rule()) < 1


def test_noncrossing_limit_sum_reads_each_tau_moment_once(monkeypatch):
    tau = TauModel(coefficients=(0.5, 1.0, 1.5, 2.0))
    want = t.limiting_moment(7, 0.5, tau)
    moment, calls = TauModel.moment, []
    monkeypatch.setattr(TauModel, "moment", lambda self, q: calls.append(q) or moment(self, q))
    assert noncrossing_limit_sum(7, 0.5, tau) == want
    assert calls == list(range(1, 8))


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=6).map(tuple),
    st.integers(0, 5),
    st.integers(1, 5),
    st.sampled_from([*SYMMETRIC_RULES, SKEW]),
)
def test_inner_factor_rotation_and_reversal_invariance(alpha, shift, n, rule):
    j = shift % len(alpha)
    base = t.inner_factor(alpha, n, rule)
    assert t.inner_factor(alpha[j:] + alpha[:j], n, rule) == base
    if rule is not SKEW:
        assert t.inner_factor(alpha[::-1], n, rule) == base


@pytest.mark.parametrize("spec", ["rademacher", *(f"roots:{q}" for q in range(2, 7))])
def test_alphabet_averages_are_the_rule(spec):
    # ties the values the sampler draws to the mu the exact oracle reads
    dist = moments.EntryDistribution.parse(spec)
    x = dist.alphabet
    rule = dist.mixed_moment_rule()
    for a in range(9):
        for b in range(9):
            assert abs(np.mean(x**a * np.conj(x) ** b) - rule.mu(a, b)) <= 1e-12


def test_rule_factories_are_the_entry_laws():
    factories = [
        (t.uniform_phase_rule(), moments.EntryDistribution("phase")),
        (t.rademacher_rule(), moments.EntryDistribution("rademacher")),
        *((t.roots_of_unity_rule(q), moments.EntryDistribution("roots", q)) for q in range(2, 7)),
    ]
    for rule, dist in factories:
        law = dist.mixed_moment_rule()
        assert rule == law and rule.name == dist.label
        assert all(rule.mu(a, b) == law.mu(a, b) for a in range(9) for b in range(9))
        assert moments.EntryDistribution.parse(dist.label) == dist
    for bad in (lambda: t.roots_of_unity_rule(1),
                lambda: moments.EntryDistribution.parse("roots:1"),
                lambda: moments.EntryDistribution.parse("phase:3")):
        with pytest.raises(ValueError):
            bad()
