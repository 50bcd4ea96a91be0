"""Spectra of sums of rank-one tensor-product covariance matrices.

The package has two halves that check each other. The combinatorial
half (``sequences``, ``graphs``, ``combinatorics``, ``moments``) builds
the walk-graph expansion of mean trace moments and evaluates it in
exact rational arithmetic. The numerical half (``simulation``,
``mplaw``) samples the random model, reduces it through its Gram
matrix, and compares empirical spectra against the limiting law.
"""

from .combinatorics import bell, c1_count, falling_factorial, stirling2
from .errors import NumericalError
from .graphs import (
    GraphClass,
    WalkGraph,
    build_graph,
    classify,
    count_consecutive_violations,
    delta1_partner,
    dump_graph,
    is_delta1,
    paired_partners,
)
from .moments import (
    MixedMomentRule,
    TauModel,
    carleman_check,
    exact_mean_trace_moment,
    graph_expectation_weight,
    inner_factor,
    limiting_moment,
    mp_moment,
    rademacher_rule,
    roots_of_unity_rule,
    uniform_phase_rule,
)
from .mplaw import MPLaw, cdf, density, ks_distance, quadrature_moment
from .sequences import (
    P_CAP,
    canonicalize,
    degree,
    enumerate_canonical,
    is_canonical,
    is_crossing,
)
from .simulation import (
    PHASE,
    RADEMACHER,
    EntryDistribution,
    SimulationReport,
    SpectrumSample,
    dense_matrix,
    esd,
    gram_matrix,
    hermitian_eigenvalues,
    run_trials,
    sample_base_vectors,
    trace_moments,
)

__version__ = "0.1.0"

__all__ = [
    "P_CAP",
    "EntryDistribution",
    "GraphClass",
    "MPLaw",
    "MixedMomentRule",
    "NumericalError",
    "PHASE",
    "RADEMACHER",
    "SimulationReport",
    "SpectrumSample",
    "TauModel",
    "WalkGraph",
    "bell",
    "build_graph",
    "c1_count",
    "canonicalize",
    "carleman_check",
    "cdf",
    "classify",
    "count_consecutive_violations",
    "degree",
    "delta1_partner",
    "dense_matrix",
    "density",
    "dump_graph",
    "enumerate_canonical",
    "esd",
    "exact_mean_trace_moment",
    "falling_factorial",
    "gram_matrix",
    "graph_expectation_weight",
    "hermitian_eigenvalues",
    "inner_factor",
    "is_canonical",
    "is_crossing",
    "is_delta1",
    "ks_distance",
    "limiting_moment",
    "mp_moment",
    "paired_partners",
    "quadrature_moment",
    "rademacher_rule",
    "roots_of_unity_rule",
    "run_trials",
    "sample_base_vectors",
    "stirling2",
    "trace_moments",
    "uniform_phase_rule",
]
