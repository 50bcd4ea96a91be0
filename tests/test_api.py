"""The public names stay reachable as ``tensormp.<name>``."""

import tensormp
import tensormp.claims

PUBLIC = """
    P_CAP EntryDistribution GraphClass MPLaw MixedMomentRule NumericalError PHASE
    RADEMACHER SimulationReport SpectrumSample TauModel WalkGraph bell build_graph
    c1_count canonicalize carleman_check cdf classify classify_rows
    count_consecutive_violations degree delta1_partner delta1_rows density dump_graph
    edge_counts enumerate_canonical esd
    exact_mean_trace_moment falling_factorial gram_matrix graph_expectation_weight
    hermitian_eigenvalues inner_factor is_canonical is_crossing is_delta1 ks_distance
    limiting_moment mp_moment paired_partners quadrature_moment rademacher_rule
    roots_of_unity_rule run_trials sample_base_vectors stirling2 trace_moments
    uniform_phase_rule
""".split()


def test_public_names_resolve():
    assert len(PUBLIC) == 50
    assert [name for name in PUBLIC if not hasattr(tensormp, name)] == []


def test_dense_oracle_lives_in_claims():
    assert callable(tensormp.claims.dense_matrix) and callable(tensormp.claims.dense_check)
    assert not hasattr(tensormp, "dense_matrix")
