"""Monte Carlo realization of the random tensor covariance model.

A configuration (n, k, m) describes the matrix sum of m rank-one terms
tau_alpha Y_alpha Y_alpha^*, where each Y_alpha is the k-fold tensor
product of independent length-n vectors with i.i.d. unit-modulus entries
scaled by n^(-1/2). Each trial is solved on the smaller of its two
sides, so no matrix larger than min(m, n^k) squared is eigensolved:
- m <= n^k: inner products factor across tensor legs, so the trial runs
  on the m x m Gram matrix G. D_tau G is similar to sign(tau) H with the
  Hermitian H = |D_tau|^(1/2) G |D_tau|^(1/2); for mixed signs its
  nonzero eigenvalues are those of F^* sign(tau) F, where H = F F^*;
- m > n^k: the n^k x m matrix Y of tensor vectors is built and the
  n^k x n^k model matrix M = Y D_tau Y^* itself is eigensolved.
Every eigensolve is Hermitian, for every real tau. The zero eigenvalue
keeps multiplicity n^k - (number of nonzero eigenvalues) as an exact
integer. Rademacher entries are real, so their trials run in real
arithmetic on either side.

Every trial matrix goes through one in-place solve, ``_eigh_in_place``.
With the OpenBLAS that numpy ships it runs LAPACK's two stages itself,
dense to a band of width BAND and band to tridiagonal, then ``dsterf``;
else it calls ``numpy.linalg.eigvalsh``. The signed Gram side factors
H = F F^* by pivoted Cholesky, ``_psd_factor_in_place``, so no
eigenvector is computed, and both products X diag(w) X^* come from
``_hermitian_form``.
Trials hand over the C-ordered matrices they build, so only the public
``hermitian_eigenvalues`` and ``esd`` copy their argument, and a tau >= 0
Gram-side trial holds one m x m matrix.

Reproducibility: random streams come from numpy's counter-based Philox
generator keyed by SeedSequence((seed, trial)), so any trial can be
regenerated independently of the others and results do not depend on
thread scheduling. With the bundled OpenBLAS every trial runs on one
BLAS thread, so its bytes do not depend on the BLAS thread count either.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import mplaw
from .errors import NumericalError
from .moments import EntryDistribution

_IMAG_TOL = 1e-8
ZERO_TOL = 1e-10  # relative to the largest |eigenvalue|; exact zeros land near 1e-15
GRAM_STRIP = 128  # rows of G built per product in ``gram_matrix``
HERMITIAN_TILE = 64  # block edge of the tiles ``_require_hermitian`` compares


def trial_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """The pinned per-trial generator: Philox keyed by (seed, trial)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, trial))))


def sample_base_vectors(
    n: int, k: int, m: int, dist: EntryDistribution, seed: int, trial: int = 0
) -> np.ndarray:
    """(m, k, n) array of base vectors, each entry of modulus n^(-1/2)."""
    if min(n, k, m) < 1:
        raise ValueError(f"need n, k, m >= 1, got {n}, {k}, {m}")
    rng = trial_rng(seed, trial)
    return dist.sample(rng, (m, k, n)) / math.sqrt(n)


def gram_matrix(vecs: np.ndarray) -> np.ndarray:
    """m x m Gram matrix of the tensor-product vectors, in the dtype of vecs.

    Inner products factor leg by leg, so the cost is O(m^2 k n) and the
    n^k-dimensional vectors are never formed. G is filled GRAM_STRIP rows
    at a time, so each leg's product is a strip, not a second m x m
    matrix. The diagonal is 1 up to rounding and G is conjugate-symmetric
    by construction.
    """
    m, k, _ = vecs.shape
    (V0, V0h), *rest = [(vecs[:, l, :], vecs[:, l, :].conj().T) for l in range(k)]
    G = np.empty((m, m), dtype=vecs.dtype)
    for lo in range(0, m, GRAM_STRIP):
        rows = slice(lo, lo + GRAM_STRIP)
        np.matmul(V0[rows], V0h, out=G[rows])
        for V, Vh in rest:
            G[rows] *= V[rows] @ Vh
    return G


def _weights(tau, m: int) -> np.ndarray:
    """tau as a float array, refused unless it holds exactly m weights."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (m,):
        raise ValueError(f"tau length {tau.shape} does not match m={m}")
    return tau


def trace_moments(G: np.ndarray, tau, P: int, nk_scale: int) -> list[float]:
    """Normalized traces (1/n^k) Tr M^p for p = 1..P by matrix powers.

    The cross-check for the eigenvalue power sums that ``esd`` reports:
    it reaches the same numbers without an eigensolve. Tr M^p equals
    Tr B^p for B = D_tau G, and B^p is formed as B^(p-1) B. The model is
    Hermitian, so every trace must be real; an imaginary residue beyond
    tolerance, or a trace that is not finite, raises NumericalError.
    """
    if P < 1:
        raise ValueError(f"need P >= 1, got {P}")
    with np.errstate(over="ignore", invalid="ignore"):
        B = _weights(tau, G.shape[0])[:, None] * G
        power, out = B, []
        for p in range(1, P + 1):
            if p > 1:
                power = power @ B
            tr = power.trace()
            if not math.isfinite(tr.real):
                raise NumericalError(f"Tr M^{p} is {float(tr.real)!r}: not a finite double")
            if not abs(tr.imag) <= _IMAG_TOL * max(1.0, abs(tr.real)):
                raise NumericalError(f"Tr M^{p} has imaginary residue {tr.imag:.3e}")
            out.append(float(tr.real) / float(nk_scale))
    return out


BAND = 32  # band width KD of the two-stage reduction (BENCH_two_stage_band.json)

_OpenBLAS = namedtuple(
    "_OpenBLAS",
    "get_num_threads set_num_threads zhetrd_he2hb dsytrd_sy2sb zhetrd_hb2st dsytrd_sb2st"
    " dsterf zpstrf dpstrf",
)


def _openblas_paths() -> list[str]:
    """The scipy-openblas libraries of numpy's wheel directories
    (numpy.libs/ on Linux, numpy/.dylibs/ on macOS)."""
    import glob

    pkg = os.path.dirname(np.__file__)
    return sorted(
        glob.glob(os.path.join(os.path.dirname(pkg), "numpy.libs", "libscipy_openblas*"))
        + glob.glob(os.path.join(pkg, ".dylibs", "libscipy_openblas*"))
    )


@functools.cache
def _openblas() -> _OpenBLAS | None:
    """The ILP64 thread-count, two-stage reduction, tridiagonal eigenvalue
    and pivoted Cholesky entry points of the OpenBLAS that numpy ships, or
    None when any of them is missing.

    The library is the one numpy.linalg already runs on. Resolved on first
    use: importing tensormp loads nothing. Every LAPACK routine is bound
    as its gfortran subroutine and called through ``_fortran``.
    """
    import ctypes

    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
            found = _OpenBLAS(
                lib.scipy_openblas_get_num_threads64_,
                lib.scipy_openblas_set_num_threads64_,
                lib.scipy_zhetrd_he2hb_64_,
                lib.scipy_dsytrd_sy2sb_64_,
                lib.scipy_zhetrd_hb2st_64_,
                lib.scipy_dsytrd_sb2st_64_,
                lib.scipy_dsterf_64_,
                lib.scipy_zpstrf_64_,
                lib.scipy_dpstrf_64_,
            )
        except (OSError, AttributeError):
            continue
        found.get_num_threads.argtypes, found.get_num_threads.restype = [], ctypes.c_int
        found.set_num_threads.argtypes, found.set_num_threads.restype = [ctypes.c_int], None
        for f in found[2:]:
            f.restype = None  # arguments are converted by ``_fortran``
        return found
    return None


def _fortran(f, *args) -> int:
    """INFO of the gfortran LAPACK subroutine f, called with args and INFO.

    Every argument goes by reference: arrays by their data pointer, ints
    as int64 (lapack_int in the 64_ ABI), floats as doubles, bytes as
    CHARACTER*1, whose hidden size_t lengths follow INFO.
    """
    import ctypes

    info = ctypes.c_int64()
    refs = [
        ctypes.c_void_p(a.ctypes.data) if isinstance(a, np.ndarray)
        else a if isinstance(a, bytes)
        else ctypes.byref(ctypes.c_double(a) if isinstance(a, float) else ctypes.c_int64(a))
        for a in args
    ]
    lengths = [ctypes.c_size_t(len(a)) for a in args if isinstance(a, bytes)]
    f(*refs, ctypes.byref(info), *lengths)
    return info.value


class _OneBlasThread:
    """Holds the process-wide OpenBLAS thread count at 1 while any caller is
    inside, and restores the count the first caller found when the last
    one leaves.

    Process-wide, not per thread: every BLAS call inside then runs the same
    single-threaded kernels, whichever pool thread makes it. Callers are
    counted, so concurrent ``run_trials`` calls neither restore the count
    while another still runs nor restore the pinned 1.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = 1

    def __enter__(self):
        blas = _openblas()
        if blas is not None:
            with self._lock:
                if self._holders == 0:
                    self._saved = blas.get_num_threads()
                    blas.set_num_threads(1)
                self._holders += 1

    def __exit__(self, *exc):
        blas = _openblas()
        if blas is not None:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    blas.set_num_threads(self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()


def _solver_copy(A) -> np.ndarray:
    """A C-ordered float64 or complex128 copy of the array-like A: the one
    copy and the one conversion the public solves make."""
    A = np.asarray(A)
    return np.array(A, dtype=np.result_type(A, np.float64), order="C")


def hermitian_eigenvalues(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, leaving H unchanged:
    ``_eigh_in_place`` on the ``_solver_copy`` of H."""
    return _eigh_in_place(_solver_copy(H))


def _eigh_in_place(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian, C-ordered float64 or
    complex128 A that the caller gives up.

    Verifies Hermiticity to a relative 1e-9 first; the backward-stable
    solver then guarantees residuals at the epsilon * norm level. LAPACK
    reads A column-major from its lower triangle, as A^T = conj(A), and
    overwrites it. ?hetrd_he2hb / ?sytrd_sy2sb takes A to a band of
    width BAND, ?hetrd_hb2st / ?sytrd_sb2st the band to a tridiagonal,
    and ``dsterf`` gives its eigenvalues: ?heevd_2stage's eigenvalue path
    and scaling rule, with the band's width fixed. LAPACK's ilaenv2stage
    picks 32 for real and 16 for complex matrices on one thread, sized
    for parallel bulge chasing that a one-thread trial never runs; at 16
    the rank-32 updates of the first stage take most of the solve. Real
    solves are therefore LAPACK's bit for bit, complex ones move in the
    last bits. The band, the Householder array and one work array shared
    by both stages take the sizes of LAPACK's -1 queries, about 3.3 MB
    for a complex m = 2048. Without the bundled OpenBLAS the solve is
    ``eigvalsh``, which works on a copy.
    """
    peak = _require_hermitian(A)
    blas = _openblas()
    if blas is None:
        return np.linalg.eigvalsh(A)
    assert A.dtype in (np.float64, np.complex128) and A.flags.c_contiguous and A.flags.writeable
    sigma = _lapack_scale(peak)
    if sigma != 1.0:
        A *= sigma
    to_band, to_tridiagonal = (
        (blas.zhetrd_he2hb, blas.zhetrd_hb2st) if np.iscomplexobj(A)
        else (blas.dsytrd_sy2sb, blas.dsytrd_sb2st)
    )
    n, ld = A.shape[0], max(A.shape[0], 1)
    band = np.empty((n, BAND + 1), dtype=A.dtype)  # column-major (BAND + 1) x n
    tau = np.empty(max(n - BAND, 1), dtype=A.dtype)
    w, e = np.empty(n), np.empty(max(n - 1, 1))
    sizes = np.zeros(3, dtype=A.dtype)  # the -1 queries' sizes: work, Householder, work
    _fortran(to_band, b"L", n, BAND, A, ld, band, BAND + 1, tau, sizes, -1)
    _fortran(to_tridiagonal, b"Y", b"N", b"L", n, BAND, band, BAND + 1, w, e,
             sizes[1:], -1, sizes[2:], -1)
    hous = np.empty(max(int(sizes[1].real), 1), dtype=A.dtype)
    work = np.empty(max(int(sizes[0].real), int(sizes[2].real), 1), dtype=A.dtype)
    info = _fortran(to_band, b"L", n, BAND, A, ld, band, BAND + 1, tau, work, work.size)
    if info == 0:
        info = _fortran(to_tridiagonal, b"Y", b"N", b"L", n, BAND, band, BAND + 1, w, e,
                        hous, hous.size, work, work.size)
    if info == 0:
        info = _fortran(blas.dsterf, n, w, e)
    if info != 0:
        raise NumericalError(f"Hermitian eigensolve failed with info={info}")
    if sigma != 1.0:
        w *= 1.0 / sigma
    return w


def _lapack_scale(peak: float) -> float:
    """The factor ?heevd_2stage scales A by before its reduction: 1 unless
    the largest |entry| lies outside [sqrt(SMLNUM), sqrt(BIGNUM)], for
    SMLNUM = safe minimum / eps and BIGNUM = 1 / SMLNUM; else the factor
    that takes it to the nearer end."""
    smlnum = np.finfo(float).tiny / np.finfo(float).eps
    rmin, rmax = math.sqrt(smlnum), math.sqrt(1.0 / smlnum)
    if 0.0 < peak < rmin:
        return rmin / peak
    return rmax / peak if peak > rmax else 1.0


def _psd_factor_in_place(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, piv) with H[piv][:, piv] = R^* R, R being the first r rows of
    the buffer of a positive semidefinite, C-ordered float64 or complex128
    H that the caller gives up, and r its numerical rank.

    Verifies Hermiticity first. ?pstrf, Cholesky with complete pivoting,
    stops once no pivot left exceeds LAPACK's default tolerance,
    m u max_a H[a, a] for the unit roundoff u. Reading H as conj(H), it
    writes L with P^T conj(H) P = L L^*, so R = L^T, strictly-lower part
    zeroed. Without the bundled OpenBLAS, ``eigh`` gives R = F^* from the
    eigenpairs above m eps max, and piv is the identity.
    """
    _require_hermitian(H)
    m = H.shape[0]
    blas = _openblas()
    if blas is None:
        w, F = np.linalg.eigh(H)
        r = np.count_nonzero(w > m * np.finfo(float).eps * w[-1])
        F = F[:, m - r:]  # ascending, so the kept columns trail
        F *= np.sqrt(w[m - r:])
        H[:r] = F.conj().T
        return H[:r], np.arange(m)
    assert H.dtype in (np.float64, np.complex128) and H.flags.c_contiguous and H.flags.writeable
    factor = blas.zpstrf if np.iscomplexobj(H) else blas.dpstrf
    piv, rank, work = np.empty(m, dtype=np.int64), np.zeros(1, dtype=np.int64), np.empty(2 * m)
    info = _fortran(factor, b"L", m, H, max(m, 1), piv, rank, -1.0, work)
    if info < 0:  # info > 0 only reports that H is rank-deficient
        raise NumericalError(f"pivoted Cholesky failed with info={info}")
    R = H[:int(rank[0])]
    for i in range(1, len(R)):
        R[i, :i] = 0
    return R, piv - 1


def _hermitian_form(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """conj(X diag(w) X^*) for real weights w: Hermitian, with the
    eigenvalues of X diag(w) X^*. One weighted copy of X is conjugated in
    place and times X^T, so X and that copy are the only operands held.
    """
    W = X * w
    np.conjugate(W, out=W)
    return W @ X.T


def _require_hermitian(H: np.ndarray) -> float:
    """The largest |entry| of H, which is refused unless it is square,
    finite and Hermitian to a relative 1e-9:
    ||H - H^H||_F <= 1e-9 max(1, ||H||_F).

    The largest |entry| and both Frobenius norms come from one pass of
    ``_hermitian_residual``, a tile at a time, so no temporary as large
    as H is made. The squared norm overflows once entries pass about
    1e154; only then are the norms taken again, of H divided by its
    largest |entry|.
    """
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        residual, norm, peak = _hermitian_residual(H)
        if not math.isfinite(peak):
            raise NumericalError("matrix has an entry that is not finite")
        if not math.isfinite(norm):
            residual, norm, _ = _hermitian_residual(H, peak)
    if residual > 1e-9 * max(1.0, norm):
        raise NumericalError("matrix is not Hermitian within tolerance")
    return peak


def _hermitian_residual(H: np.ndarray, scale: float = 1.0) -> tuple[float, float, float]:
    """(||H - H^H||_F, ||H||_F, max|entry|) of H / scale, summed over
    HERMITIAN_TILE blocks: the norm and the largest |entry| over row
    strips, the residual over the lower block triangle, each off-diagonal
    block standing for its mirror too."""
    m = H.shape[0]
    norm2 = resid2 = peak = 0.0
    for lo in range(0, m, HERMITIAN_TILE):
        rows = slice(lo, lo + HERMITIAN_TILE)
        strip = H[rows] if scale == 1.0 else H[rows] / scale
        norm2 += np.vdot(strip, strip).real
        peak = np.maximum(peak, np.abs(strip).max())  # Python's max would drop a NaN
        for lo2 in range(0, lo + 1, HERMITIAN_TILE):
            cols = slice(lo2, lo2 + HERMITIAN_TILE)
            d = np.conjugate(H[rows, cols])
            d -= H[cols, rows].T  # conj(H - H^H) on this block
            if scale != 1.0:
                d /= scale
            resid2 += (1 if lo2 == lo else 2) * np.vdot(d, d).real
    return math.sqrt(resid2), math.sqrt(norm2), float(peak)


@dataclass
class SpectrumSample:
    """Full spectrum of one realization, zero atom held analytically."""

    nonzero_eigenvalues: np.ndarray
    zero_multiplicity: int
    trace_moments: list[float] = field(default_factory=list)
    seed: int | None = None  # seed and dims: filled by the public ``esd`` only
    dims: tuple[int, int, int] | None = None  # (n, k, m)

    @property
    def total_dimension(self) -> int:
        return self.zero_multiplicity + len(self.nonzero_eigenvalues)


def esd(G: np.ndarray, tau, nk_scale: int, *, P: int = 0, seed: int | None = None,
        dims: tuple[int, int, int] | None = None) -> SpectrumSample:
    """Empirical spectral distribution of one realization from its Gram
    matrix G, which is left untouched: ``_esd_in_place`` on the
    ``_solver_copy`` of G.
    """
    return replace(_esd_in_place(_solver_copy(G), tau, nk_scale, P=P), seed=seed, dims=dims)


def _esd_in_place(G, tau, nk_scale, *, P) -> SpectrumSample:
    """The ``esd`` of a Gram matrix G that the caller gives up.

    D G is similar to sign(tau) H with H = |D|^(1/2) G |D|^(1/2) Hermitian,
    and H is formed by scaling G in place, after the trace identity's
    sum_a tau_a G[a, a] is read. For tau >= 0 H is eigensolved in place.
    For mixed signs ``_psd_factor_in_place`` turns H into R with
    H[piv][:, piv] = R^* R, and the r x r Hermitian R sign(tau)[piv] R^*,
    which has the nonzero eigenvalues of D G, is eigensolved. A trial
    holds one m x m matrix, plus the signed path's weighted copy of R and
    the product. The fold and the moments are those of ``_spectrum_sample``.
    """
    tau = _weights(tau, G.shape[0])
    root = np.sqrt(np.abs(tau))
    t_gram = float((tau * np.diag(G).real).sum())
    G *= root[:, None]
    G *= root  # now H[a, b] = root_a G[a, b] root_b
    if np.all(tau >= 0):
        lam = _eigh_in_place(G)
    else:
        R, piv = _psd_factor_in_place(G)
        lam = _eigh_in_place(_hermitian_form(R, np.sign(tau)[piv]))
    return _spectrum_sample(lam, t_gram, nk_scale, P)


def tensor_vectors(vecs: np.ndarray) -> np.ndarray:
    """n^k x m matrix whose column a is Y_a = v_(a,1) ⊗ ... ⊗ v_(a,k).

    One broadcast outer product per leg, over all m vectors at once, in
    the dtype of vecs.
    """
    m, k, _ = vecs.shape
    rows = vecs[:, 0, :]
    for l in range(1, k):
        rows = (rows[:, :, None] * vecs[:, l, None, :]).reshape(m, -1)
    return rows.T


def tensor_esd(vecs: np.ndarray, tau, *, P: int = 0) -> SpectrumSample:
    """Empirical spectral distribution of one realization from its
    n^k x n^k model matrix M = Y D_tau Y^*, the smaller side when m > n^k.

    M is Hermitian for every real tau, so signed weights need no general
    eigenproblem, and no Gram matrix is built. The trace identity checks
    the eigenvalue sum against sum_a tau_a prod_l |v_(a,l)|^2, the Gram
    diagonal computed without G; the fold and the moments are those of
    ``_spectrum_sample``.
    """
    tau = _weights(tau, vecs.shape[0])
    # Y is freed when the product is formed, so the solve holds only M
    lam = _eigh_in_place(_hermitian_form(tensor_vectors(vecs), tau))
    norms = np.prod(np.sum(np.abs(vecs) ** 2, axis=2), axis=1)
    return _spectrum_sample(lam, float((tau * norms).sum()), lam.size, P)


def _spectrum_sample(lam, t_gram: float, nk_scale: int, P: int) -> SpectrumSample:
    """The sample of one realization from its eigenvalues lam on either side.

    The eigenvalue sum must match the weighted Gram trace t_gram. The
    trace moments (1/n^k) Tr M^p for p = 1..P are power sums of lam,
    taken before the fold; one that is not finite is a NumericalError.
    Eigenvalues within ZERO_TOL * max|eigenvalue| fold into the zero atom,
    whose multiplicity is the exact integer nk_scale - (number of nonzero
    eigenvalues).
    """
    peak = float(np.max(np.abs(lam))) if lam.size else 0.0
    nonzero = lam[np.abs(lam) > ZERO_TOL * peak] if peak > 0 else lam[:0]
    t_eig = float(lam.sum())
    if not abs(t_eig - t_gram) <= 1e-8 * max(1.0, abs(t_gram)):  # NaN fails too
        raise NumericalError(f"trace mismatch: eigenvalue sum {t_eig!r} vs Gram trace {t_gram!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        moments = [float(np.sum(lam**p)) / float(nk_scale) for p in range(1, P + 1)]
    for p, value in enumerate(moments, start=1):
        if not math.isfinite(value):
            raise NumericalError(f"trace moment p={p} is {value!r}: lambda^p overflows a double")
    zeros = int(nk_scale) - int(nonzero.size)
    return SpectrumSample(np.asarray(nonzero, dtype=float), zeros, trace_moments=moments)


@dataclass
class TrialOutcome:
    trial: int
    sample: SpectrumSample
    ks: float


@dataclass
class SimulationReport:
    """Aggregate of independent trials; the caller keeps the configuration."""

    outcomes: list[TrialOutcome]
    moment_means: list[float]
    moment_ses: list[float]

    @property
    def ks_values(self) -> list[float]:
        return [o.ks for o in self.outcomes]

    @property
    def mean_ks(self) -> float:
        return float(np.mean(self.ks_values))

    def to_json_dict(self) -> dict:
        """Deterministic JSON payload (no wall-clock fields)."""
        per_p = [
            {"p": p + 1, "mean": self.moment_means[p], "se": self.moment_ses[p]}
            for p in range(len(self.moment_means))
        ]
        ks = {"per_trial": self.ks_values, "mean": self.mean_ks}
        return {"moments": per_p, "ks": ks}


def estimate_gram_bytes(m: int, nk: int, signed: bool, real: bool = False) -> int:
    """Peak working-set estimate for one trial, in bytes: 16 per matrix
    entry, or 8 when the entries are real (Rademacher).

    Gram side (m <= n^k), in m x m matrices: a trial scales G into H and
    solves it in place, so for tau >= 0 it holds that one matrix; it
    counts two, the buffer and one of margin. Signed tau: the factor
    overwrites H, and the product R sign(tau)[piv] R^* adds R's weighted
    copy and the r x r result, three at full rank; it counts four. Without
    the bundled OpenBLAS, ``eigh`` adds its eigenvectors, its own copy of
    H and two matrices of work arrays, five in all; it counts six. In a
    phase trial at m = 2048 the resident set grows by 1.12 (tau = 1) and
    3.16 (alternating 1, -0.5) of them, the staged solve's band and work
    arrays included, and by 5.39 through ``eigh`` at m = 1024. When
    m > n^k: the n^k x m tensor matrix and its weighted copy, the
    n^k x n^k product, and one n^k x n^k matrix of margin.
    """
    itemsize = 8 if real else 16
    if m > nk:
        return itemsize * (2 * nk * nk + 2 * m * nk)
    return itemsize * (2 if not signed else 4 if _openblas() else 6) * m * m


def constant_weight(tau_coeffs) -> float | None:
    """v when every weight equals one v > 0, else None.

    Only then is the run's limit a rescaled tau = 1 law: the spectrum is
    v times a tau = 1 spectrum.
    """
    levels = np.unique(np.asarray(tau_coeffs, dtype=float))
    return float(levels[0]) if levels.size == 1 and levels[0] > 0 else None


def run_trials(
    n: int,
    k: int,
    m: int,
    dist: EntryDistribution,
    tau_coeffs,
    P: int,
    trials: int,
    seed: int,
    *,
    c: float | None = None,
    threads: int = 1,
) -> SimulationReport:
    """Independent trials of the full pipeline, deterministically seeded.

    Trial t draws from the (seed, t) stream, so the set of results is a
    pure function of the configuration regardless of thread count; the
    reduction walks trials in index order. The whole trial loop runs with
    the bundled OpenBLAS at one thread, so ``threads`` pool workers use
    ``threads`` cores and the bytes do not depend on the BLAS setting.
    Each trial is solved on its smaller side: ``tensor_esd`` when
    m > n^k, else ``_esd_in_place`` on the Gram matrix, which it then
    overwrites.

    KS is measured against the tau = 1 law at ratio c. When every tau
    equals one v > 0 the spectrum is v times a tau = 1 spectrum, so KS is
    taken on the eigenvalues divided by v; for any other tau it compares
    the unscaled spectrum with the tau = 1 law, which is not its limit.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    nk = n ** k
    tau_coeffs = np.asarray(tau_coeffs, dtype=float)
    c_ref = c if c is not None else m / nk
    ks_scale = constant_weight(tau_coeffs) or 1.0

    def one(t: int) -> TrialOutcome:
        vecs = sample_base_vectors(n, k, m, dist, seed, trial=t)
        if m > nk:
            sample = tensor_esd(vecs, tau_coeffs, P=P)
        else:
            sample = _esd_in_place(gram_matrix(vecs), tau_coeffs, nk, P=P)
        scaled = replace(sample, nonzero_eigenvalues=sample.nonzero_eigenvalues / ks_scale)
        return TrialOutcome(t, sample, mplaw.ks_distance(scaled, c_ref))

    with _ONE_BLAS_THREAD, ThreadPoolExecutor(max_workers=threads) as pool:
        outcomes = list(pool.map(one, range(trials)))

    mat = np.array([o.sample.trace_moments for o in outcomes])  # trials x P
    ses = mat.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros(P)
    return SimulationReport(outcomes, mat.mean(axis=0).tolist(), ses.tolist())


def histogram_rows(samples, bins: int = 60) -> list[tuple[float, float, float]]:
    """Pooled ESD histogram rows (bin_left, bin_right, mass).

    The first row is the zero atom with bin_left = bin_right = 0; its
    mass is exact, computed from the integer zero multiplicities.
    Continuous rows cover the pooled nonzero eigenvalues; all masses sum
    to 1.
    """
    samples = list(samples)
    total = sum(s.total_dimension for s in samples)
    zeros = sum(s.zero_multiplicity for s in samples)
    pooled = np.concatenate([np.asarray(s.nonzero_eigenvalues, float) for s in samples])
    rows = [(0.0, 0.0, zeros / total)]
    if pooled.size:
        counts, edges = np.histogram(pooled, bins=bins)
        rows.extend(
            (float(edges[i]), float(edges[i + 1]), int(counts[i]) / total)
            for i in range(len(counts))
        )
    return rows
