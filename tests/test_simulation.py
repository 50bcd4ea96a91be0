import ctypes
import functools
import json
import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import tensormp as t
from tensormp import EntryDistribution, NumericalError
from tensormp.claims import dense_check, dense_matrix
from tensormp import simulation
from tensormp.simulation import estimate_gram_bytes, histogram_rows, trial_rng

from conftest import needs_openblas


def test_entry_distribution_parse():
    assert EntryDistribution.parse("phase").label == "phase"
    assert EntryDistribution.parse("rademacher").label == "rademacher"
    d = EntryDistribution.parse("roots:5")
    assert d.label == "roots:5" and d.q == 5
    with pytest.raises(ValueError):
        EntryDistribution.parse("gaussian")
    with pytest.raises(ValueError):
        EntryDistribution.parse("roots:1")


def test_samples_have_unit_modulus():
    rng = trial_rng(0, 0)
    for spec in ("phase", "rademacher", "roots:3", "roots:8"):
        d = EntryDistribution.parse(spec)
        z = d.sample(rng, (64,))
        assert np.allclose(np.abs(z), 1.0, atol=1e-14)


def test_rademacher_and_roots_land_on_their_alphabet():
    rng = trial_rng(1, 0)
    z = EntryDistribution.parse("rademacher").sample(rng, (256,))
    assert set(np.round(z.real).astype(int)) == {-1, 1}
    assert np.all(z.imag == 0)
    z = EntryDistribution.parse("roots:4").sample(rng, (256,))
    angles = np.angle(z) % (2 * np.pi)
    steps = np.round(angles / (np.pi / 2)).astype(int) % 4
    assert set(steps) == {0, 1, 2, 3}


def test_base_vector_scaling():
    vecs = t.sample_base_vectors(5, 3, 7, t.PHASE, seed=9)
    assert vecs.shape == (7, 3, 5)
    assert np.allclose(np.abs(vecs), 1 / np.sqrt(5), atol=1e-14)


def test_rademacher_vectors_are_real():
    vecs = t.sample_base_vectors(5, 3, 7, t.RADEMACHER, seed=9)
    assert vecs.dtype == np.float64
    assert np.all(np.abs(vecs) == 1 / math.sqrt(5))
    assert t.gram_matrix(vecs).dtype == np.float64


def _gram_by_legs(vecs):
    # the whole m x m product of each leg, multiplied into G one leg at a time
    m, k, _ = vecs.shape
    G = np.ones((m, m), dtype=vecs.dtype)
    for l in range(k):
        V = vecs[:, l, :]
        G *= V @ V.conj().T
    return G


@pytest.mark.parametrize("m", [1, simulation.GRAM_STRIP - 1, simulation.GRAM_STRIP + 1, 300])
@pytest.mark.parametrize("dist", [t.PHASE, t.RADEMACHER], ids=["phase", "rademacher"])
def test_strip_gram_matches_leg_products(dist, m):
    vecs = t.sample_base_vectors(3, 4, m, dist, seed=m)
    G = t.gram_matrix(vecs)
    assert G.dtype == vecs.dtype
    assert np.max(np.abs(G - _gram_by_legs(vecs))) <= 1e-15


def test_gram_matches_dense_spectrum():
    for spec in ("phase", "rademacher", "roots:3"):
        d = EntryDistribution.parse(spec)
        vecs = t.sample_base_vectors(2, 3, 5, d, seed=3)
        tau = np.array([1.0, 2.0, 0.5, 1.0, 3.0])
        G = t.gram_matrix(vecs)
        s = t.esd(G, tau, 8, seed=3, dims=(2, 3, 5))
        assert dense_check(s, vecs, tau)[0] < 1e-10  # raises if the dimensions differ


def test_dense_check_refuses_a_sample_of_another_dimension():
    vecs = t.sample_base_vectors(2, 3, 5, t.PHASE, seed=3)
    tau = np.ones(5)
    s = t.esd(t.gram_matrix(vecs), tau, 8)
    short = replace(s, zero_multiplicity=s.zero_multiplicity - 1)  # 7 eigenvalues, not n^k = 8
    with pytest.raises(ValueError, match="sample has dimension 7, the dense matrix 8"):
        dense_check(short, vecs, tau)


def test_trace_moments_match_dense_powers():
    d = EntryDistribution.parse("phase")
    vecs = t.sample_base_vectors(3, 2, 6, d, seed=11)
    tau = np.linspace(0.5, 2.0, 6)
    G = t.gram_matrix(vecs)
    _, dense = dense_check(t.esd(G, tau, 9), vecs, tau, P=5)
    got = t.trace_moments(G, tau, 5, 9)
    for p in range(1, 6):
        assert got[p - 1] == pytest.approx(dense[p - 1], abs=1e-12)


def test_trace_moments_zero_tau():
    d = EntryDistribution.parse("phase")
    vecs = t.sample_base_vectors(3, 1, 4, d, seed=2)
    G = t.gram_matrix(vecs)
    got = t.trace_moments(G, np.zeros(4), 3, 3)
    assert got == [0.0, 0.0, 0.0]


def test_esd_single_projector():
    # m = 1, tau = 1: one eigenvalue equal to |y|^2 = 1, rest zero
    vecs = t.sample_base_vectors(4, 2, 1, t.PHASE, seed=5)
    G = t.gram_matrix(vecs)
    s = t.esd(G, np.ones(1), 16, seed=5, dims=(4, 2, 1))
    assert s.zero_multiplicity == 15
    assert s.nonzero_eigenvalues.shape == (1,)
    assert s.nonzero_eigenvalues[0] == pytest.approx(1.0, abs=1e-12)


def test_esd_eigenvalue_sum_matches_weighted_diagonal():
    vecs = t.sample_base_vectors(3, 2, 5, t.RADEMACHER, seed=8)
    tau = np.array([1.0, -1.0, 2.0, 0.5, 1.5])  # negative weights allowed
    G = t.gram_matrix(vecs)
    s = t.esd(G, tau, 9, seed=8, dims=(3, 2, 5))
    assert float(np.sum(s.nonzero_eigenvalues)) == pytest.approx(
        float(np.sum(tau * np.diag(G).real)), abs=1e-10
    )


def test_hermitian_eigenvalues_known_matrices():
    lam = t.hermitian_eigenvalues(np.eye(3, dtype=complex))
    assert np.allclose(lam, 1.0)
    H = np.array([[2.0, 1j], [-1j, 2.0]])
    assert np.allclose(t.hermitian_eigenvalues(H), [1.0, 3.0], atol=1e-12)
    H = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
    expect = [(5 - np.sqrt(5)) / 2, (5 + np.sqrt(5)) / 2]
    assert np.allclose(t.hermitian_eigenvalues(H), expect, atol=1e-12)


def test_trace_moments_refuse_an_imaginary_trace():
    with pytest.raises(NumericalError, match="imaginary residue"):
        t.trace_moments(np.array([[1.0 + 1.0j]]), np.ones(1), 1, 1)


@pytest.mark.parametrize("dtype", [float, complex])
def test_trace_moments_refuse_a_trace_beyond_double_range(dtype):
    # Tr M^2 = 2e400 overflows; no warning escapes, even under -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"Tr M\^2 is inf"):
            t.trace_moments(np.eye(2, dtype=dtype), [1e200, 1e200], 3, 2)
        with pytest.raises(NumericalError, match=r"Tr M\^1 is nan"):
            t.trace_moments(np.eye(2, dtype=dtype), [np.nan, 1.0], 1, 2)


@pytest.mark.parametrize("P", [0, 2])
def test_nan_eigenvalue_is_a_trace_mismatch(monkeypatch, P):
    # a NaN fails the trace identity rather than folding into the zero atom
    eigh = simulation._eigh_in_place
    monkeypatch.setattr(simulation, "_eigh_in_place", lambda A: eigh(A) * [np.nan, 1, 1, 1])
    with pytest.raises(NumericalError, match="trace mismatch: eigenvalue sum nan"):
        t.esd(np.eye(4, dtype=complex), np.ones(4), 4, P=P)


@needs_openblas
def test_lapack_failure_is_numerical_error(monkeypatch):
    fortran = simulation._fortran
    monkeypatch.setattr(simulation, "_fortran", lambda f, *args: fortran(f, *args) or -1)
    with pytest.raises(NumericalError, match="eigensolve failed with info=-1"):
        simulation._eigh_in_place(np.eye(3))
    with pytest.raises(NumericalError, match="pivoted Cholesky failed with info=-1"):
        simulation._psd_factor_in_place(np.eye(3))


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(NumericalError):
        t.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_check_stays_live_at_huge_entries():
    # the Frobenius norm of these matrices overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not Hermitian"):
            t.hermitian_eigenvalues(np.array([[1e200, 1e200], [0.0, 1e200]]))
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(NumericalError, match="not finite"):
                t.hermitian_eigenvalues(np.array([[1.0, bad], [bad, 1.0]]))
        simulation._require_hermitian(np.array([[1e200, 3e199j], [-3e199j, 1e200]]))
        simulation._require_hermitian(np.array([[1e153, 1e153], [1e153, 1e153]]))


TILE = simulation.HERMITIAN_TILE


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("size", [1, 2, TILE - 1, TILE + 1, 300])
def test_tiled_hermitian_residual_matches_dense_norms(size, complex_):
    rng = np.random.default_rng(size)
    X = rng.standard_normal((size, size))
    if complex_:
        X = X + 1j * rng.standard_normal((size, size))
    for H in (X, X + X.conj().T):
        for scale in (1.0, 3.0):
            residual, norm, peak = simulation._hermitian_residual(H, scale)
            dense = np.linalg.norm((H - H.conj().T) / scale), np.linalg.norm(H / scale)
            assert (residual, norm) == pytest.approx(dense, rel=1e-12, abs=0)
            assert peak == np.abs(H / scale).max()


@pytest.mark.parametrize(
    "i, j",
    [(299, 297), (297, 299), (TILE + 6, 5), (5, TILE + 6)],
    ids=["partial-tile-lower", "partial-tile-upper", "off-diagonal-lower", "off-diagonal-upper"],
)
def test_hermitian_check_finds_one_asymmetric_entry(i, j):
    assert 300 % TILE and 299 // TILE == 300 // TILE and (TILE + 6) // TILE != 5 // TILE
    H = _small_hermitian(300)
    simulation._require_hermitian(H)
    H[i, j] += 1e-7 * np.linalg.norm(H)
    with pytest.raises(NumericalError, match="not Hermitian"):
        simulation._require_hermitian(H)


@pytest.mark.parametrize("shape", [(3,), (1, 3), (2, 3), (2, 2, 2)])
def test_hermitian_eigenvalues_rejects_non_square(shape):
    # the solver reads n x n entries, so a wrong shape never reaches it
    with pytest.raises(ValueError):
        t.hermitian_eigenvalues(np.zeros(shape))


def test_run_trials_deterministic():
    args = (3, 2, 4, t.PHASE, (1.0,) * 4, 4, 3, 42)
    r1 = t.run_trials(*args)
    r2 = t.run_trials(*args)
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r2.to_json_dict(), sort_keys=True
    )


def test_run_trials_threads_do_not_change_results():
    r1 = t.run_trials(3, 2, 4, t.PHASE, (1.0,) * 4, 3, 4, 7, threads=1)
    r2 = t.run_trials(3, 2, 4, t.PHASE, (1.0,) * 4, 3, 4, 7, threads=2)
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r2.to_json_dict(), sort_keys=True
    )


def test_run_trials_seed_and_trial_independence():
    # different seeds give different draws; same seed, disjoint trials too
    r1 = t.run_trials(3, 2, 4, t.PHASE, (1.0,) * 4, 2, 1, 0)
    r2 = t.run_trials(3, 2, 4, t.PHASE, (1.0,) * 4, 2, 1, 1)
    assert r1.outcomes[0].sample.trace_moments != r2.outcomes[0].sample.trace_moments
    r3 = t.run_trials(3, 2, 4, t.PHASE, (1.0,) * 4, 2, 2, 0)
    assert (
        r3.outcomes[0].sample.trace_moments != r3.outcomes[1].sample.trace_moments
    )
    # trial 0 of the 2-trial run reproduces the 1-trial run
    assert r3.outcomes[0].sample.trace_moments == r1.outcomes[0].sample.trace_moments


def test_run_trials_single_trial_se_is_zero():
    r = t.run_trials(3, 2, 4, t.PHASE, (1.0,) * 4, 2, 1, 5)
    assert r.moment_ses == [0.0, 0.0]


@pytest.mark.parametrize("spec, n, k, m, tau", [
    ("phase", 3, 2, 4, (1.0,) * 4),
    ("rademacher", 2, 3, 20, tuple(np.resize([1e-6, 1.0, 1e6, -1e-6], 20))),
])
def test_run_trials_scaled_aggregation_equals_plain_mean_and_se(spec, n, k, m, tau):
    # each column is scaled by a power of two, which is exact in binary
    r = t.run_trials(n, k, m, EntryDistribution.parse(spec), tau, 6, 5, 3)
    mat = np.array([o.sample.trace_moments for o in r.outcomes])
    assert r.moment_means == mat.mean(axis=0).tolist()
    assert r.moment_ses == (mat.std(axis=0, ddof=1) / math.sqrt(5)).tolist()


def test_run_trials_moments_near_the_double_range_aggregate_finitely():
    # at p = 400 the means reach 2.5e158, whose squares overflow a double;
    # two trials near 1.2e308 sum to more than the largest double
    for args in ((3, 1, 4, (1.0,) * 4, 400), (1, 1, 1, (1.2e308,), 1)):
        n, k, m, tau, P = args
        r = t.run_trials(n, k, m, t.PHASE, tau, P, 2, 0)
        assert np.all(np.isfinite(r.moment_means)) and np.all(np.isfinite(r.moment_ses))
        mat = np.array([o.sample.trace_moments for o in r.outcomes])
        assert np.all(np.abs(r.moment_means) <= np.abs(mat).max(axis=0))
    assert max(r.moment_means) == pytest.approx(1.2e308, rel=1e-12)


def test_every_solver_refuses_a_wrong_weight_count():
    vecs = simulation.sample_base_vectors(2, 2, 4, t.PHASE, seed=0)
    G = simulation.gram_matrix(vecs)
    calls = (
        lambda tau: simulation.esd(G, tau, 4),
        lambda tau: simulation.tensor_esd(vecs, tau),
        lambda tau: simulation.trace_moments(G, tau, 2, 4),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"tau length \(3,\) does not match m=4"):
            call((1.0, 1.0, 1.0))


def test_report_json_has_no_clock_fields():
    r = t.run_trials(3, 2, 4, t.PHASE, (1.0,) * 4, 2, 2, 5)
    payload = r.to_json_dict()
    flat = json.dumps(payload)
    assert "runtime" not in flat and "time" not in flat
    assert payload["ks"]["per_trial"] == r.ks_values == [o.ks for o in r.outcomes]
    assert [row["p"] for row in payload["moments"]] == [1, 2]


def test_histogram_rows_mass_and_atom():
    r = t.run_trials(3, 2, 4, t.PHASE, (1.0,) * 4, 2, 3, 5)
    rows = histogram_rows([o.sample for o in r.outcomes], bins=16)
    left, right, mass = rows[0]
    assert (left, right) == (0.0, 0.0)  # dedicated zero-atom row
    total_zero = sum(o.sample.zero_multiplicity for o in r.outcomes)
    total = sum(o.sample.total_dimension for o in r.outcomes)
    assert mass == pytest.approx(total_zero / total, abs=1e-14)
    assert sum(m for _, _, m in rows) == pytest.approx(1.0, abs=1e-12)


def _pooled(*values):
    return [t.SpectrumSample(np.array(values), 0)]


def test_histogram_rows_keep_numpy_default_range():
    for values in ((0.5, 2.0, 3.5), (7.0, 7.0), (1e12, 1e12)):
        _, edges = np.histogram(values, bins=60)
        rows = histogram_rows(_pooled(*values))
        assert [(l, r) for l, r, _ in rows[1:]] == list(zip(edges[:-1].tolist(), edges[1:].tolist()))


@pytest.mark.parametrize("values", [
    (1e15, 1e15),  # v +- 0.5 cannot hold 60 bins once ulp(v) > 1/60
    (1e15, 1e15 + 0.125, 1e15 + 0.5),  # a few ulps apart
    (-3e200,),
    (1.2e308,),
    (np.finfo(float).max,) * 2,  # the widened range is clipped to the doubles
    (-np.finfo(float).max,),
])
def test_histogram_rows_widen_a_range_too_narrow_for_the_bins(values):
    rows = histogram_rows(_pooled(*values))
    left = np.array([r[0] for r in rows[1:]])
    right = np.array([r[1] for r in rows[1:]])
    assert len(rows) == 61 and np.all(np.isfinite(left)) and np.all(np.isfinite(right))
    assert np.all(left < right) and np.all(left[1:] == right[:-1])
    assert left[0] <= min(values) and max(values) <= right[-1]
    assert sum(mass for _, _, mass in rows) == pytest.approx(1.0, abs=1e-15)


def test_estimate_gram_bytes(monkeypatch):
    # the Gram side counts two m x m matrices for tau >= 0, four for signed
    # tau, and six for signed tau when numpy's eigh factors H
    for blas, signed in ((object(), 4), (None, 6)):
        monkeypatch.setattr(simulation, "_openblas", lambda blas=blas: blas)
        assert estimate_gram_bytes(2048, 8, 4, False) == 16 * 2048 * 2048 * 2
        assert estimate_gram_bytes(2048, 8, 4, True) == 16 * 2048 * 2048 * signed
    # m > n^k: the n^k x n^k buffer and strip product, one n^k x GRAM_STRIP
    # strip and its weighted copy, and the m x k x n base vectors
    strip = simulation.GRAM_STRIP
    for signed in (False, True):
        assert estimate_gram_bytes(8192, 8, 4, signed) == 16 * (
            2 * 4096 * 4096 + 2 * 4096 * strip + 8192 * 4 * 8
        )
        # a strip holds at most m vectors
        assert estimate_gram_bytes(5, 2, 2, signed) == 16 * (2 * 4 * 4 + 2 * 4 * 5 + 5 * 2 * 2)
        # only the base vectors grow with m
        assert estimate_gram_bytes(10**8, 2, 4, signed) == 16 * (2 * 16 * 16 + 2 * 16 * strip + 10**8 * 8)
        # real (Rademacher) entries take 8 bytes, not 16, on either side
        for m in (2048, 8192):
            full = estimate_gram_bytes(m, 8, 4, signed)
            assert estimate_gram_bytes(m, 8, 4, signed, real=True) * 2 == full


def _eigh_workspace_bytes(m):
    # numpy's complex eigh, malloced out of tracemalloc's view: its copy of H
    # and the eigenvalues, then zheevd's work (m^2 + 2m complex), rwork
    # (2m^2 + 5m + 1 reals) and iwork (5m + 3 integers)
    return 16 * m * m + 8 * m + 16 * (m * m + 2 * m) + 8 * (2 * m * m + 5 * m + 1) + 8 * (5 * m + 3)


@pytest.mark.parametrize("kind", ["tau=1", "signed", "tensor", "signed-fallback"])
def test_estimate_covers_the_measured_peak_of_one_trial(monkeypatch, kind):
    n, k, m = (4, 4, 512) if kind == "tensor" else (4, 5, 512)
    nk = n**k
    signed = kind.startswith("signed")
    tau = _signed(m) if signed else np.ones(m)
    vecs = t.sample_base_vectors(n, k, m, t.PHASE, seed=1)
    real_factor, real_eigh, in_factor = simulation._psd_factor_in_place, np.linalg.eigh, [0]

    def factor(H):
        in_factor[0] = tracemalloc.get_traced_memory()[0]
        return real_factor(H)

    def eigh(H):  # the fallback factor; its eigenpairs are traced when it returns
        out = real_eigh(H)
        in_factor[0] = tracemalloc.get_traced_memory()[0] + _eigh_workspace_bytes(len(H))
        return out

    monkeypatch.setattr(simulation, "_psd_factor_in_place", factor)
    if kind == "signed-fallback":
        monkeypatch.setattr(simulation, "_openblas", lambda: None)
    if simulation._openblas() is None:  # forced, or a numpy without the bundled OpenBLAS
        monkeypatch.setattr(np.linalg, "eigh", eigh)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if kind == "tensor":
            simulation.tensor_esd(vecs, tau)
        else:  # the trial path of run_trials
            simulation._esd_in_place(t.gram_matrix(vecs), tau, nk, P=0)
        peak = max(tracemalloc.get_traced_memory()[1], in_factor[0]) - base
    finally:
        tracemalloc.stop()
    assert (in_factor[0] > 0) == signed
    one = 16 * (nk * nk if kind == "tensor" else m * m)  # the trial's largest matrix
    estimate = estimate_gram_bytes(m, n, k, signed)
    assert estimate - one <= peak <= estimate
    if kind == "tau=1":
        assert peak <= 1.5 * one  # G alone, scaled into H and solved in place


def test_phase_rotation_invariance_of_gram_moments():
    # multiplying one base vector by a global phase leaves G's moments alone
    d = EntryDistribution.parse("phase")
    vecs = t.sample_base_vectors(3, 2, 4, d, seed=13)
    tau = np.ones(4)
    G1 = t.gram_matrix(vecs)
    rotated = vecs.copy()
    rotated[2, 0] *= np.exp(0.7j)
    G2 = t.gram_matrix(rotated)
    m1 = t.trace_moments(G1, tau, 4, 9)
    m2 = t.trace_moments(G2, tau, 4, 9)
    assert m1 == pytest.approx(m2, abs=1e-12)


@pytest.mark.parametrize(
    "spec, n, k, c, signed",
    [
        ("phase", 3, 3, 0.5, False),
        ("rademacher", 3, 3, 2.0, False),
        ("rademacher", 3, 3, 2.0, True),
        ("roots:4", 4, 2, 0.75, False),
    ],
)
def test_run_trials_moments_match_matrix_power_oracle(spec, n, k, c, signed):
    # run_trials reads moments off the eigenvalues; trace_moments reaches
    # the same numbers by matrix powers of the regenerated Gram matrix
    nk = n**k
    m = round(c * nk)
    tau = np.linspace(-1.0, 2.0, m) if signed else np.ones(m)
    d = EntryDistribution.parse(spec)
    r = t.run_trials(n, k, m, d, tau, 6, 3, 11, c=c)
    for o in r.outcomes:
        G = t.gram_matrix(t.sample_base_vectors(n, k, m, d, 11, trial=o.trial))
        want = t.trace_moments(G, tau, 6, nk)
        assert o.sample.trace_moments == pytest.approx(want, rel=1e-12, abs=0)


def test_ks_for_constant_tau_is_scale_free():
    # tau = v scales the spectrum by v; KS is measured after undoing it
    m = round(0.5 * 6**4)
    r1 = t.run_trials(6, 4, m, t.PHASE, (1.0,) * m, 2, 2, 7, c=0.5)
    r2 = t.run_trials(6, 4, m, t.PHASE, (2.0,) * m, 2, 2, 7, c=0.5)
    assert r2.ks_values == pytest.approx(r1.ks_values, rel=0, abs=1e-12)
    assert r1.mean_ks < 0.05
    for p in (1, 2):
        assert r2.moment_means[p - 1] == pytest.approx(
            2.0**p * r1.moment_means[p - 1], rel=1e-12
        )


def _signed(m):
    return np.where(np.arange(m) % 2 == 0, 1.0, -0.5)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("c", [1.5, 2.0, 4.0])
@pytest.mark.parametrize("spec", ["phase", "rademacher", "roots:3"])
def test_tensor_side_matches_gram_side(spec, c, signed):
    n, k = 4, 3
    nk = n**k
    m = round(c * nk)
    tau = _signed(m) if signed else np.ones(m)
    vecs = t.sample_base_vectors(n, k, m, EntryDistribution.parse(spec), seed=2)
    got = simulation.tensor_esd(vecs, tau, P=6)
    want = t.esd(t.gram_matrix(vecs), tau, nk, P=6)
    assert got.zero_multiplicity == want.zero_multiplicity
    scale = max(1.0, float(np.max(np.abs(want.nonzero_eigenvalues))))
    assert np.max(np.abs(got.nonzero_eigenvalues - want.nonzero_eigenvalues)) <= 1e-12 * scale
    assert got.trace_moments == pytest.approx(want.trace_moments, rel=1e-12, abs=0)


def _strip_cases():
    strip = simulation.GRAM_STRIP
    for n, k in ((4, 3), (8, 1)):
        for m in (n**k + 1, strip - 1, strip + 1, 2 * strip + 1):
            for spec in ("phase", "rademacher"):
                for signed in (False, True):
                    label = f"n{n}-k{k}-m{m}-{spec}-{'signed' if signed else 'tau>=0'}"
                    yield pytest.param(n, k, m, spec, signed, id=label)


@pytest.mark.parametrize("n, k, m, spec, signed", _strip_cases())
def test_tensor_strips_match_the_dense_matrix(n, k, m, spec, signed):
    # the last strip is partial at every m; k = 1 hands out views of vecs
    vecs = t.sample_base_vectors(n, k, m, EntryDistribution.parse(spec), seed=m)
    before = vecs.copy()
    tau = _signed(m) if signed else np.linspace(0.5, 2.0, m)
    s = simulation.tensor_esd(vecs, tau, P=4)
    assert np.array_equal(vecs, before)
    assert s.total_dimension == n**k
    deviation, dense = dense_check(s, vecs, tau, P=4)
    peak = float(np.max(np.abs(s.nonzero_eigenvalues), initial=0.0))
    assert deviation <= 1e-8 * max(1.0, peak)
    assert s.trace_moments == pytest.approx(dense, rel=1e-10, abs=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the fold drops a resolvable eigenvalue")
def test_tall_fold_keeps_a_resolvable_eigenvalue():
    # the dense spectrum is full rank: min |lambda| 2.8e-7 against a peak of
    # 1.8e6, 1.6e-13 of it, below ZERO_TOL yet above the round-off floor
    vecs = t.sample_base_vectors(2, 3, 20, EntryDistribution.parse("roots:3"), seed=711533)
    tau = np.resize([1e-6, 1.0, 1e6, -1e-6], 20)
    lam = np.linalg.eigvalsh(dense_matrix(vecs, tau))
    assert np.min(np.abs(lam)) > 2e-7
    s = simulation.tensor_esd(vecs, tau)
    assert s.zero_multiplicity == 0 and len(s.nonzero_eigenvalues) == 8


def test_tensor_side_on_rank_deficient_signed_sample():
    # at n = 3 Rademacher tensor vectors repeat, so Y (27 x 54) has rank 26
    vecs = t.sample_base_vectors(3, 3, 54, t.RADEMACHER, seed=1)
    assert np.linalg.matrix_rank(simulation.tensor_vectors(vecs)) == 26
    # linearly dependent tensor vectors make the zero eigenvalue of D G
    # defective; both sides must still count the zero atom exactly
    for n, k, m, seed in ((2, 4, 12, 12), (2, 4, 16, 5), (2, 4, 64, 1), (3, 3, 27, 3), (3, 3, 54, 1)):
        vecs = t.sample_base_vectors(n, k, m, t.RADEMACHER, seed=seed)
        tau = _signed(m)
        gram = t.esd(t.gram_matrix(vecs), tau, n**k, P=4)
        for s in (gram, simulation.tensor_esd(vecs, tau, P=4)):
            deviation, dense = dense_check(s, vecs, tau, P=4)
            assert deviation < 1e-10
            assert s.trace_moments == pytest.approx(dense, rel=1e-12, abs=0)


@pytest.mark.parametrize("m", [20, 27, 40])
def test_signed_trials_never_take_the_general_eigenproblem(monkeypatch, m):
    def refuse(*args, **kwargs):
        pytest.fail("the non-symmetric eigensolver ran")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    r = t.run_trials(3, 3, m, t.RADEMACHER, _signed(m), 2, 2, 3)
    assert all(o.sample.total_dimension == 27 for o in r.outcomes)


@pytest.mark.parametrize("m, side", [(27, "gram"), (28, "tensor")])
def test_run_trials_solves_the_smaller_side(monkeypatch, m, side):
    def refuse(*args, **kwargs):
        pytest.fail("the larger side was solved")

    monkeypatch.setattr(simulation, "gram_matrix" if side == "tensor" else "tensor_esd", refuse)
    r = t.run_trials(3, 3, m, t.PHASE, (1.0,) * m, 2, 1, 4)
    assert r.outcomes[0].sample.total_dimension == 27


def _assert_same_spectrum(got, want):
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


def _tensor_side_matrix():
    vecs = t.sample_base_vectors(3, 3, 54, t.PHASE, seed=4)
    Y = simulation.tensor_vectors(vecs)
    return np.conj(Y * _signed(54)) @ Y.T


def _small_hermitian(size):
    rng = np.random.default_rng(size)
    X = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return X + X.conj().T


BAND = simulation.BAND
SOLVER_SIZES = {"band": BAND, "band+1": BAND + 1, "2band+3": 2 * BAND + 3, "size-300": 300}


def _sized_case(size, real, scale=1.0):
    H = _small_hermitian(size)
    return (H.real.copy() if real else H) * scale


SOLVER_CASES = {
    "phase-gram": lambda: t.gram_matrix(t.sample_base_vectors(4, 3, 40, t.PHASE, seed=1)),
    "rademacher-gram": lambda: t.gram_matrix(t.sample_base_vectors(4, 3, 40, t.RADEMACHER, seed=1)),
    "tensor-side": _tensor_side_matrix,
    "size-1": lambda: _small_hermitian(1),
    "size-2": lambda: _small_hermitian(2),
    "size-3": lambda: _small_hermitian(3),
    # m > n^k: G (20 x 20) has rank at most n^k = 8
    "rank-deficient": lambda: t.gram_matrix(t.sample_base_vectors(2, 3, 20, t.PHASE, seed=6)),
    # sizes about the band width: A is already a band up to BAND + 1
    **{f"{name}-{kind}": functools.partial(_sized_case, size, kind == "real")
       for name, size in SOLVER_SIZES.items() for kind in ("complex", "real")},
    # the largest entry outside [sqrt(SMLNUM), sqrt(BIGNUM)]: A is scaled before the reduction
    **{f"max-entry-{scale:g}-{kind}": functools.partial(_sized_case, 70, kind == "real", scale)
       for scale in (1e160, 1e-160) for kind in ("complex", "real")},
}


@needs_openblas
@pytest.mark.parametrize("case", SOLVER_CASES)
def test_two_stage_solver_matches_eigvalsh(case):
    H = SOLVER_CASES[case]()
    real = case == "rademacher-gram" or case.endswith("-real")
    assert H.dtype == (np.float64 if real else np.complex128)
    # the scaled cases are compared at 1e-12 of their largest entry
    unit = np.abs(H).max() if case.startswith("max-entry") else 1.0
    _assert_same_spectrum(t.hermitian_eigenvalues(H) / unit, np.linalg.eigvalsh(H) / unit)


def _lapacke_two_stage(H):
    """?heevd_2stage / ?syevd_2stage through LAPACKE, at LAPACK's own band
    width: the oracle of the staged solve."""
    lib = ctypes.CDLL(simulation._openblas_paths()[0])
    name = "zheevd_2stage" if np.iscomplexobj(H) else "dsyevd_2stage"
    solve = getattr(lib, f"scipy_LAPACKE_{name}64_")
    solve.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
                      ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    solve.restype = ctypes.c_int64
    A, w = np.array(H, order="C"), np.empty(len(H))
    assert solve(102, b"N", b"L", len(A), A.ctypes.data, max(len(A), 1), w.ctypes.data) == 0
    return w


@needs_openblas
def test_staged_solve_matches_lapacke_two_stage():
    # real matrices take LAPACK's own band width, 32, so every bit agrees;
    # complex ones move from 16 to BAND, within rounding
    trial = [lambda d=d: t.gram_matrix(t.sample_base_vectors(3, 5, 200, d, seed=2))
             for d in (t.PHASE, t.RADEMACHER)]
    with simulation._ONE_BLAS_THREAD:
        for case in [*SOLVER_CASES.values(), *trial]:
            H = case()
            got, want = t.hermitian_eigenvalues(H), _lapacke_two_stage(H)
            if np.iscomplexobj(H):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            else:
                assert np.array_equal(got, want)


@needs_openblas
@pytest.mark.parametrize(
    "spec, n, k, m, signed",
    [("phase", 4, 3, 32, False), ("rademacher", 3, 3, 20, True), ("phase", 3, 3, 40, True)],
)
def test_run_trials_without_openblas_gives_the_same_spectra(monkeypatch, spec, n, k, m, signed):
    args = (n, k, m, EntryDistribution.parse(spec), _signed(m) if signed else np.ones(m), 4, 2, 9)
    fast = t.run_trials(*args, threads=2)
    monkeypatch.setattr(simulation, "_openblas", lambda: None)
    slow = t.run_trials(*args, threads=2)
    for a, b in zip(fast.outcomes, slow.outcomes):
        assert a.sample.zero_multiplicity == b.sample.zero_multiplicity
        _assert_same_spectrum(a.sample.nonzero_eigenvalues, b.sample.nonzero_eigenvalues)


@pytest.mark.parametrize("signed", [False, True], ids=["tau=1", "signed"])
@pytest.mark.parametrize(
    "spec, n, k, m", [("phase", 4, 4, 128), ("rademacher", 3, 5, 200), ("roots:3", 3, 4, 81)]
)
def test_run_trials_equals_public_esd_bitwise(spec, n, k, m, signed):
    # run_trials solves each Gram matrix in place; public esd solves a copy
    # of the regenerated one by the same operations, so every bit agrees
    d = EntryDistribution.parse(spec)
    tau = _signed(m) if signed else np.ones(m)
    r = t.run_trials(n, k, m, d, tau, 6, 2, 13)
    for o in r.outcomes:
        G = t.gram_matrix(t.sample_base_vectors(n, k, m, d, 13, trial=o.trial))
        with simulation._ONE_BLAS_THREAD:
            want = t.esd(G, tau, n**k, P=6)
        assert np.array_equal(o.sample.nonzero_eigenvalues, want.nonzero_eigenvalues)
        assert o.sample.zero_multiplicity == want.zero_multiplicity
        assert o.sample.trace_moments == want.trace_moments


@pytest.mark.parametrize("fallback", [False, True])
def test_solvers_leave_their_input_alone(monkeypatch, fallback):
    if fallback:
        monkeypatch.setattr(simulation, "_openblas", lambda: None)
    for H in (_small_hermitian(5), _small_hermitian(5).real.copy()):
        before = H.copy()
        t.hermitian_eigenvalues(H)
        assert np.array_equal(H, before)
    # m = 200 spans two Gram strips and four Hermitian-check tiles
    for dist in (t.PHASE, t.RADEMACHER):
        for n, k, m in ((3, 2, 6), (3, 5, 200)):
            G = t.gram_matrix(t.sample_base_vectors(n, k, m, dist, seed=3))
            before = G.copy()
            for tau in (np.ones(m), _signed(m)):
                t.esd(G, tau, n**k)
                assert np.array_equal(G, before)
        vecs = t.sample_base_vectors(3, 2, 20, dist, seed=3)  # m > n^k: the tensor side
        before = vecs.copy()
        for tau in (np.ones(20), _signed(20)):
            simulation.tensor_esd(vecs, tau)
            assert np.array_equal(vecs, before)


def _converted_inputs():
    """(input, its C-ordered float64/complex128 copy) pairs of positive
    semidefinite matrices in every layout and dtype the public copies take."""
    rng = np.random.default_rng(8)
    B = rng.integers(-3, 4, (6, 4))
    Z = B + 1j * rng.integers(-3, 4, (6, 4))
    ints, cplx = B @ B.T, Z @ Z.conj().T
    for given in (ints, ints.astype(np.float32), np.asfortranarray(ints.astype(float)),
                  cplx.astype(np.complex64), np.asfortranarray(cplx)):
        yield given, np.array(given, dtype=np.result_type(given, np.float64), order="C")


@pytest.mark.parametrize("fallback", [False, True], ids=["openblas", "fallback"])
def test_public_copies_convert_any_layout_and_dtype(monkeypatch, fallback):
    if fallback:
        monkeypatch.setattr(simulation, "_openblas", lambda: None)
    for given, copy in _converted_inputs():
        before = given.copy(order="A")
        assert np.array_equal(t.hermitian_eigenvalues(given), t.hermitian_eigenvalues(copy))
        for tau in (np.ones(6), _signed(6)):
            got, want = t.esd(given, tau, 6, P=3), t.esd(copy, tau, 6, P=3)
            assert np.array_equal(got.nonzero_eigenvalues, want.nonzero_eigenvalues)
            assert got.zero_multiplicity == want.zero_multiplicity
            assert got.trace_moments == want.trace_moments
        assert given.dtype == before.dtype and given.flags.f_contiguous == before.flags.f_contiguous
        assert np.array_equal(given, before)


def test_public_solves_take_nested_lists():
    # both public solves convert their argument by the same rule
    for _, copy in _converted_inputs():
        nested = copy.tolist()
        assert np.array_equal(t.hermitian_eigenvalues(nested), t.hermitian_eigenvalues(copy))
        got, want = t.esd(nested, _signed(6), 6, P=3), t.esd(copy, _signed(6), 6, P=3)
        assert np.array_equal(got.nonzero_eigenvalues, want.nonzero_eigenvalues)
        assert got.trace_moments == want.trace_moments


@pytest.mark.parametrize("fallback", [False, True], ids=["openblas", "fallback"])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_psd_factor_reproduces_its_matrix_and_rank(monkeypatch, fallback, real):
    if fallback:
        monkeypatch.setattr(simulation, "_openblas", lambda: None)
    dtype = np.float64 if real else np.complex128
    rng = np.random.default_rng(2)
    for size, rank in ((1, 1), (2, 2), (7, 7), (40, 40), (40, 13)):
        X = rng.standard_normal((size, rank)).astype(dtype)
        if not real:
            X += 1j * rng.standard_normal((size, rank))
        H = X @ X.conj().T
        R, piv = simulation._psd_factor_in_place(H.copy())
        assert R.shape == (rank, size) and sorted(piv) == list(range(size))
        assert np.max(np.abs(R.conj().T @ R - H[piv][:, piv])) <= 1e-12 * np.linalg.norm(H)
    # linearly dependent Rademacher tensor vectors: G's rank is Y's
    for n, k, m in ((2, 4, 16), (2, 4, 12), (3, 3, 27), (2, 3, 8), (2, 5, 32), (3, 2, 9)):
        for seed in range(4):
            vecs = t.sample_base_vectors(n, k, m, t.RADEMACHER, seed=seed)
            G = t.gram_matrix(vecs).astype(dtype)
            R, piv = simulation._psd_factor_in_place(G.copy())
            assert len(R) == np.linalg.matrix_rank(simulation.tensor_vectors(vecs))
            assert np.max(np.abs(R.conj().T @ R - G[piv][:, piv])) <= 1e-12 * np.linalg.norm(G)


@pytest.mark.parametrize("fallback", [False, True], ids=["openblas", "fallback"])
@pytest.mark.parametrize("spec", ["phase", "rademacher", "roots:3"])
def test_signed_gram_side_with_zero_and_wide_weights(monkeypatch, fallback, spec):
    # zero weights leave rows of H empty, and 1e3 next to -1e-3 spans six decades
    if fallback:
        monkeypatch.setattr(simulation, "_openblas", lambda: None)
    d = EntryDistribution.parse(spec)
    for n, k, m in ((2, 4, 16), (3, 3, 20), (3, 3, 27), (4, 3, 50)):
        tau = np.resize([1.0, 0.0, -0.5, 1e3, -1e-3], m)
        for seed in range(3):
            vecs = t.sample_base_vectors(n, k, m, d, seed=seed)
            s = t.esd(t.gram_matrix(vecs), tau, n**k)
            lam = np.linalg.eigvalsh(dense_matrix(vecs, tau))
            peak = float(np.max(np.abs(lam)))
            assert dense_check(s, vecs, tau)[0] <= 1e-10 * max(1.0, peak)
            dense_zeros = np.count_nonzero(np.abs(lam) <= simulation.ZERO_TOL * peak)
            assert s.zero_multiplicity == dense_zeros


@needs_openblas
def test_run_trials_pins_and_restores_blas_threads(monkeypatch):
    blas = simulation._openblas()
    outer = blas.get_num_threads()
    seen = []
    real_esd = simulation._esd_in_place

    def spy(*args, **kwargs):
        seen.append(blas.get_num_threads())
        return real_esd(*args, **kwargs)

    def fail(*args, **kwargs):
        raise NumericalError("injected")

    try:
        blas.set_num_threads(2)
        monkeypatch.setattr(simulation, "_esd_in_place", spy)
        t.run_trials(3, 2, 4, t.PHASE, (1.0,) * 4, 2, 3, 5, threads=2)
        assert seen == [1, 1, 1]
        assert blas.get_num_threads() == 2
        monkeypatch.setattr(simulation, "_esd_in_place", fail)
        with pytest.raises(NumericalError):
            t.run_trials(3, 2, 4, t.PHASE, (1.0,) * 4, 2, 3, 5, threads=2)
        assert blas.get_num_threads() == 2
    finally:
        blas.set_num_threads(outer)


@needs_openblas
def test_concurrent_run_trials_share_one_pin(monkeypatch):
    # the thread count is process-wide state: overlapping run_trials calls
    # must all run pinned, and the last one out restores the caller's count
    blas = simulation._openblas()
    outer = blas.get_num_threads()
    seen = []
    real_esd = simulation._esd_in_place

    def spy(*args, **kwargs):
        seen.append(blas.get_num_threads())
        return real_esd(*args, **kwargs)

    monkeypatch.setattr(simulation, "_esd_in_place", spy)
    interval = sys.getswitchinterval()
    workers = [
        threading.Thread(target=t.run_trials, args=(3, 2, 4, t.PHASE, (1.0,) * 4, 2, 6, s),
                         kwargs={"threads": 2})
        for s in range(6)
    ]
    try:
        blas.set_num_threads(2)
        sys.setswitchinterval(1e-6)
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        assert seen == [1] * 36
        assert blas.get_num_threads() == 2
    finally:
        sys.setswitchinterval(interval)
        blas.set_num_threads(outer)


def test_openblas_binding_passes_over_what_it_cannot_bind(monkeypatch, tmp_path):
    # a file that is no library (OSError), then a library without the entry
    # points (AttributeError): both are passed over, so there is no binding;
    # __wrapped__ runs the search without touching the cached binding
    from numpy.random import bit_generator

    cached = simulation._openblas()
    not_a_library = tmp_path / "libscipy_openblas_fake.so"
    not_a_library.write_text("not a shared object\n")
    monkeypatch.setattr(
        simulation, "_openblas_paths", lambda: [str(not_a_library), bit_generator.__file__]
    )
    assert simulation._openblas.__wrapped__() is None
    assert simulation._openblas() is cached


def test_bundled_openblas_exports_the_fast_path():
    # a numpy wheel built on scipy-openblas must not fall back silently
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:
        pytest.skip("numpy < 1.25 has no show_config(mode=)")
    if "scipy-openblas" not in {deps.get(k, {}).get("name") for k in ("blas", "lapack")}:
        pytest.skip("numpy is not built on scipy-openblas")
    blas = simulation._openblas()
    assert blas is not None and all(callable(f) for f in blas)
    # the thread count, the two stages of the reduction, the tridiagonal
    # eigenvalues and the pivoted Cholesky factors
    assert blas._fields == (
        "get_num_threads", "set_num_threads", "zhetrd_he2hb", "dsytrd_sy2sb",
        "zhetrd_hb2st", "dsytrd_sb2st", "dsterf", "zpstrf", "dpstrf",
    )
