"""Spectra of sums of rank-one tensor-product covariance matrices.

The package has two halves that check each other. The combinatorial
half (``sequences``, ``graphs``, ``combinatorics``, ``moments``) builds
the walk-graph expansion of mean trace moments and evaluates it in
exact rational arithmetic. The numerical half (``simulation``,
``mplaw``) samples the random model, reduces it through its Gram
matrix, and compares empirical spectra against the limiting law.
The imports below are the public API; the brute-force oracles live in
``tensormp.claims``.
"""

from .combinatorics import bell, c1_count, falling_factorial, stirling2
from .errors import NumericalError
from .graphs import (
    GraphClass,
    WalkGraph,
    build_graph,
    classify,
    classify_rows,
    count_consecutive_violations,
    delta1_partner,
    dump_graph,
    edge_counts,
    is_delta1,
    paired_partners,
)
from .moments import (
    PHASE,
    RADEMACHER,
    EntryDistribution,
    MixedMomentRule,
    TauModel,
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
    SimulationReport,
    SpectrumSample,
    esd,
    gram_matrix,
    hermitian_eigenvalues,
    run_trials,
    sample_base_vectors,
    trace_moments,
)

__version__ = "0.1.0"
