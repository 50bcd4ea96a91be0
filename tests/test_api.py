"""The public names stay reachable as ``tensormp.<name>``."""

import numpy as np
import pytest

import tensormp
import tensormp.claims

PUBLIC = """
    P_CAP EntryDistribution GraphClass MPLaw MixedMomentRule NumericalError PHASE
    RADEMACHER SimulationReport SpectrumSample TauModel WalkGraph bell build_graph
    c1_count canonicalize cdf classify classify_rows
    count_consecutive_violations degree delta1_partner density dump_graph
    edge_counts enumerate_canonical esd
    exact_mean_trace_moment falling_factorial gram_matrix graph_expectation_weight
    hermitian_eigenvalues inner_factor is_canonical is_crossing is_delta1 ks_distance
    limiting_moment mp_moment paired_partners quadrature_moment rademacher_rule
    roots_of_unity_rule run_trials sample_base_vectors stirling2 trace_moments
    uniform_phase_rule
""".split()


def test_public_names_resolve():
    assert len(PUBLIC) == 48
    assert [name for name in PUBLIC if not hasattr(tensormp, name)] == []


def test_dense_oracle_lives_in_claims():
    assert callable(tensormp.claims.dense_matrix) and callable(tensormp.claims.dense_check)
    assert not hasattr(tensormp, "dense_matrix")


BAD_ARGUMENTS = {
    "sample_base_vectors": lambda: tensormp.sample_base_vectors(0, 2, 4, tensormp.PHASE, 0),
    "trace_moments": lambda: tensormp.trace_moments(np.eye(2), np.ones(2), 0, 2),
    "run_trials": lambda: tensormp.run_trials(2, 2, 2, tensormp.PHASE, (1.0, 1.0), 2, 0, 0),
    "quadrature_moment": lambda: tensormp.quadrature_moment(-1, 0.5),
    "exact_mean_trace_moment": lambda: tensormp.exact_mean_trace_moment(
        2, 0, 2, 2, tensormp.TauModel(coefficients=(1.0,)), tensormp.rademacher_rule()
    ),
    "pairwise_mean_trace_moment": lambda: tensormp.claims.pairwise_mean_trace_moment(
        2, 0, 2, 2, tensormp.TauModel(coefficients=(1.0,)), tensormp.rademacher_rule()
    ),
    "stirling2": lambda: tensormp.stirling2(-1, 0),
    "bell": lambda: tensormp.bell(-1),
    "falling_factorial": lambda: tensormp.falling_factorial(5, -1),
    "c1_count": lambda: tensormp.c1_count(1, 0),
    "mp_moment": lambda: tensormp.mp_moment(2, 0.0),
    "noncrossing_limit_sum": lambda: tensormp.claims.noncrossing_limit_sum(
        2, 0.0, tensormp.TauModel.constant()
    ),
}


@pytest.mark.parametrize("name", BAD_ARGUMENTS)
def test_public_functions_refuse_bad_arguments(name):
    # a ValueError, not an assert, so the check survives python -O
    with pytest.raises(ValueError, match="need"):
        BAD_ARGUMENTS[name]()
