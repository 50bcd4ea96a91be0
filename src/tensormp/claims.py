"""The claims ``tensormp verify`` checks, each stated once.

Each claim is a step of the moment-method proof checked against brute
force. ``tensormp verify <suite>`` runs each claim at min(p_max, cap);
the tests run the same claims at their stated ranges, passing wider grids
as keyword arguments. The brute-force oracles are defined here, once.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from . import combinatorics as comb
from . import graphs, moments, mplaw, sequences

#: p_max of ``tensormp verify <suite>`` when --p-max is not given.
DEFAULT_P_MAX = {"sequences": 7, "graphs": 6, "stirling": 10, "moments": 8}


@dataclass(frozen=True)
class Claim:
    """A statement, its check, and the largest p ``verify`` runs it at."""

    suite: str
    name: str
    scope: str
    statement: str
    check: Callable[..., Iterable]
    cap: int

    def label(self, p: int) -> str:
        return f"{self.name} {self.scope.format(p=p)}"

    def run(self, p: int, **grid):
        """The first counterexample up to p, or None; a raised exception is one."""
        try:
            return next(iter(self.check(p, **grid)), None)
        except Exception as exc:
            return f"raised {type(exc).__name__}: {exc}"


#: Every claim by name, grouped by suite in report order.
CLAIMS: dict[str, Claim] = {}


def _claim(suite, name, statement, scope="p<={p}", cap=sequences.P_CAP):
    def register(check):
        CLAIMS[name] = Claim(suite, name, scope, statement, check, cap)
        return check
    return register


def _sequences(p_max: int, noncrossing: bool = False):
    """Each alpha of length p <= p_max (all, or the non-crossing ones) with
    the list of every canonical sequence of length p and its shared 0-based
    array."""
    for p in range(1, p_max + 1):
        seqs, cols = sequences.enumerate_canonical(p), sequences.canonical_array(p)
        for a in seqs:
            if not (noncrossing and sequences.is_crossing(a)):
                yield a, seqs, cols


# --------------------------------------------------------------- oracles

def crossing_by_quartic_scan(alpha) -> bool:
    """Positions j1<j2<j3<j4 hold a, b, a, b with a != b."""
    for j1, j2, j3, j4 in itertools.combinations(range(len(alpha)), 4):
        if alpha[j1] == alpha[j3] != alpha[j2] == alpha[j4]:
            return True
    return False


def brute_partner_search(alpha, cols: np.ndarray) -> list:
    """Every balanced tree partner of alpha: each canonical candidate with
    p + 1 - s values has r + s = p + 1 vertices, so the paired ones of one
    ``classify_rows`` pass are the partners (``is_delta1``); ``cols`` holds
    every canonical sequence of length p, 0-based."""
    p, s = len(alpha), max(alpha)
    cands = cols[cols.max(axis=1) == p - s]
    paired = graphs.classify_rows(alpha, cands) == graphs.GraphClass.PAIRED
    return [tuple(i) for i in (cands[paired] + 1).tolist()]


def stirling_explicit(n: int, k: int) -> Fraction:
    """S(n, k) by the alternating sum (1/k!) sum_i (-1)^(k-i) C(k, i) i^n."""
    num = sum((-1) ** (k - i) * math.comb(k, i) * i**n for i in range(k + 1))
    return Fraction(num, math.factorial(k))


def noncrossing_limit_sum(p: int, c: float, tau: moments.TauModel) -> float:
    """The limit moment by brute force: c^s * prod_t m_deg_t summed over the
    non-crossing canonical sequences alpha of length p, where deg_t counts
    the positions of value t. The sequences are grouped by their s sorted
    degrees, each group adding count * c^s * prod m_deg once. Exact
    rational arithmetic, one float out."""
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    cfrac = Fraction(c)
    mq = [None] + [Fraction(tau.moment(q)) for q in range(1, p + 1)]
    shapes = Counter(
        tuple(sorted(Counter(alpha).values()))
        for alpha in sequences.enumerate_canonical(p)
        if not sequences.is_crossing(alpha)
    )
    total = sum(
        count * cfrac ** len(degrees) * math.prod(mq[d] for d in degrees)
        for degrees, count in shapes.items()
    )
    return float(total)


def mp_cdf_closed_form(xs: np.ndarray, c: float) -> np.ndarray:
    """The Marchenko-Pastur distribution function at points a < x < b of its
    support, atom included, from the elementary antiderivative of its density:
    atom + (1/2 pi) [sqrt((b-x)(x-a)) + ((a+b)/2) (arcsin((2x-a-b)/(b-a)) + pi/2)
    - sqrt(ab) (arcsin(((a+b)x - 2ab)/((b-a)x)) + pi/2)], with a + b = 2(1 + c),
    ab = (1 - c)^2 and b - a = 4 sqrt(c). It loses digits at large c."""
    sc = math.sqrt(c)
    a, b, w = (1.0 - sc) ** 2, (1.0 + sc) ** 2, 4.0 * sc

    def angle(u):  # arcsin(u) + pi/2, with u held in [-1, 1] against rounding
        return np.arcsin(np.clip(u, -1.0, 1.0)) + math.pi / 2.0

    cont = (np.sqrt((b - xs) * (xs - a)) + (1.0 + c) * angle((2.0 * xs - a - b) / w)
            - abs(1.0 - c) * angle(((a + b) * xs - 2.0 * (1.0 - c) ** 2) / (w * xs)))
    return max(0.0, 1.0 - c) + cont / (2.0 * math.pi)


def injection_sum_by_enumeration(degrees, taus) -> Fraction:
    """The tau factor by brute force: prod_t taus[phi(t)]^degrees[t] summed
    over every injection phi of the degree slots into the weights."""
    images = itertools.permutations([Fraction(t) for t in taus], len(degrees))
    return sum((math.prod(t**d for t, d in zip(phi, degrees)) for phi in images), Fraction(0))


def pairwise_counts(alpha, rule: moments.MixedMomentRule) -> list:
    """[N_0, ..., N_p]: N_r sums the walk-graph weight n^p E(i, alpha) over
    the canonical i with r distinct values, one ``graph_expectation_weight``
    per i. A weight does not depend on n, so neither do the counts: they are
    memoized on (alpha, rule), and each call returns a new list."""
    return list(_pairwise_counts(tuple(alpha), rule))


@functools.cache
def _pairwise_counts(alpha: tuple, rule: moments.MixedMomentRule) -> tuple:
    counts = [0] * (len(alpha) + 1)
    for i_seq in sequences.enumerate_canonical(len(alpha)):
        counts[max(i_seq)] += moments.graph_expectation_weight(i_seq, alpha, rule)
    return tuple(counts)


def pairwise_inner_factor(alpha, n: int, rule: moments.MixedMomentRule) -> Fraction:
    """``moments.inner_factor`` as the walk-graph sum over every canonical i:
    sum_r n^(r) N_r / n^p from ``pairwise_counts``, summed here and not by
    the exact path's own step."""
    terms = enumerate(pairwise_counts(alpha, rule))
    return sum(comb.falling_factorial(n, r) * N for r, N in terms) / Fraction(n) ** len(alpha)


def pairwise_mean_trace_moment(
    n: int, k: int, m: int, p: int, tau: moments.TauModel, rule: moments.MixedMomentRule
) -> float:
    """``moments.exact_mean_trace_moment`` as the sum over every canonical
    alpha, with no class reduction: Bell(p)^2 walk graphs, each alpha
    through ``pairwise_inner_factor``."""
    if min(n, k, m) < 1:
        raise ValueError(f"need n, k, m >= 1, got {n}, {k}, {m}")
    tau_factor = moments._tau_factor(tau, m, p)
    total = Fraction(0)
    for alpha in sequences.enumerate_canonical(p):
        tau_fac = tau_factor(Counter(alpha).values())
        if tau_fac != 0:
            total += tau_fac * pairwise_inner_factor(alpha, n, rule) ** k
    return float(total / Fraction(n) ** k)


def dense_matrix(vecs: np.ndarray, tau) -> np.ndarray:
    """The n^k x n^k matrix sum_a tau_a Y_a Y_a^* by explicit tensor products."""
    m, k, n = vecs.shape
    M = np.zeros((n**k, n**k), dtype=np.complex128)
    for a in range(m):
        Y = vecs[a, 0]
        for l in range(1, k):
            Y = np.kron(Y, vecs[a, l])
        M += tau[a] * np.outer(Y, Y.conj())
    return M


def dense_check(sample, vecs: np.ndarray, tau, P: int = 0) -> tuple[float, list[float]]:
    """One realization through its n^k x n^k matrix: the largest deviation of
    the sample's spectrum, zero atom included, from the dense spectrum, and
    the dense (1/n^k) Tr M^p for p = 1..P. The dense spectrum comes from
    ``numpy.linalg.eigvalsh``, not from the staged solve it checks."""
    lam = np.linalg.eigvalsh(dense_matrix(vecs, tau))
    red = np.sort(np.concatenate([np.zeros(sample.zero_multiplicity), sample.nonzero_eigenvalues]))
    if red.shape != lam.shape:
        raise ValueError(f"sample has dimension {red.size}, the dense matrix {lam.size}")
    return float(np.max(np.abs(lam - red))), [float(np.sum(lam**p)) / lam.size for p in range(1, P + 1)]


def exhaustive_mean_trace(n: int, k: int, m: int, p_max: int, taus, alphabet) -> list[float]:
    """[(1/n^k) Tr M^p for p = 1..p_max], each averaged over every assignment
    of entries from alphabet.

    Builds each of the len(alphabet)^(n m k) matrices densely, once, and
    takes its successive powers; tiny sizes only.
    """
    totals = [0.0] * p_max
    for entries in itertools.product(alphabet, repeat=n * m * k):
        xs = np.array(entries, dtype=complex).reshape(m, k, n) / math.sqrt(n)
        M = power = dense_matrix(xs, taus)
        for j in range(p_max):
            if j:
                power = power @ M
            totals[j] += float(np.trace(power).real) / n**k
    return [total / len(alphabet) ** (n * m * k) for total in totals]


# ------------------------------------------------------------- sequences

@_claim("sequences", "canonical counts", "Bell(p) in all, S(p,s) with s values")
def _canonical_counts(p_max):
    for p in range(1, p_max + 1):
        cols = sequences.canonical_array(p)
        counts = np.bincount(cols.max(axis=1), minlength=p)
        for s in (None, *range(1, p + 1)):
            got = len(cols) if s is None else counts[s - 1]
            want = comb.bell(p) if s is None else comb.stirling2(p, s)
            if got != want:
                yield f"p={p} s={s} enumerated={got} formula={want}"


@_claim("sequences", "canonical order", "first value 1, each <= running max + 1, lexicographic order")
def _canonical_order(p_max):
    for p in range(1, p_max + 1):
        cols = sequences.canonical_array(p)
        run = np.maximum.accumulate(cols, axis=1)
        bad = (cols[:, 0] != 0) | (cols[:, 1:] > run[:, :-1] + 1).any(axis=1)
        yield from (f"alpha={tuple(a)} is not canonical" for a in (cols[bad] + 1).tolist())
        step = np.diff(cols, axis=0)  # each row's first change from the row before must rise
        if not (step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0).all():
            yield f"p={p} enumeration out of order"


@_claim("sequences", "degree sums", "sum_t degree = p")
def _degree_sums(p_max):
    for p in range(1, p_max + 1):
        cols = sequences.canonical_array(p)
        sums = sum(sequences.degree(cols, t) for t in range(p))
        yield from (f"alpha={tuple(a)}" for a in (cols[sums != p] + 1).tolist())


@_claim("sequences", "crossing scan agreement", "is_crossing = quartic scan", cap=8)
def _crossing_scan(p_max):
    for a, *_ in _sequences(p_max):
        if sequences.is_crossing(a) != crossing_by_quartic_scan(a):
            yield f"alpha={a}"


# ---------------------------------------------------------------- graphs

@_claim("graphs", "non-crossing counts", "N(p,s) = C(p,s-1) C(p,s)/p, total Catalan(p)")
def _noncrossing_counts(p_max):
    for p in range(1, p_max + 1):
        noncross = [a for a in sequences.enumerate_canonical(p) if not sequences.is_crossing(a)]
        for s in range(1, p + 1):
            got = sum(1 for a in noncross if max(a) == s)
            if got != comb.c1_count(s, p):
                yield f"p={p} s={s} enumerated={got} formula={comb.c1_count(s, p)}"
        catalan = math.comb(2 * p, p) // (p + 1)
        if len(noncross) != catalan:
            yield f"p={p} enumerated={len(noncross)} Catalan={catalan}"


@_claim("graphs", "tree partner uniqueness", "one iff non-crossing, the constructed one")
def _tree_partner(p_max):
    for a, _, cols in _sequences(p_max):
        found, partner = brute_partner_search(a, cols), graphs.delta1_partner(a)
        crossing = sequences.is_crossing(a)
        if (partner is None) != crossing or found != ([] if crossing else [partner]):
            yield f"alpha={a} found={found} partner={partner}"


@_claim("graphs", "paired partner counts", "constructed = classified, S(p+1-s, r) each")
def _paired_counts(p_max):
    for a, _, cols in _sequences(p_max, noncrossing=True):
        p, s = len(a), max(a)
        paired = cols[graphs.classify_rows(a, cols) == graphs.GraphClass.PAIRED]
        for r in range(1, p + 1):
            brute = [tuple(i) for i in (paired[paired.max(axis=1) == r - 1] + 1).tolist()]
            image = graphs.paired_partners(a, r)
            if image != brute or len(brute) != comb.stirling2(p + 1 - s, r):
                yield f"alpha={a} r={r} constructed={image} classified={brute}"


@_claim("graphs", "dichotomy", "paired or single only", cap=6)
def _dichotomy(p_max):
    for a, seqs, cols in _sequences(p_max, noncrossing=True):
        for j in np.flatnonzero(graphs.classify_rows(a, cols) == graphs.GraphClass.OTHER):
            yield f"alpha={a} i={seqs[j]}"


@_claim("graphs", "tree partner diagnostics", "no consecutive pairs")
def _partner_diagnostics(p_max):
    for a, *_ in _sequences(p_max, noncrossing=True):
        g = graphs.build_graph(graphs.delta1_partner(a), a)
        if graphs.count_consecutive_violations(g) is not None:
            yield f"alpha={a}"


# -------------------------------------------------------------- stirling

@_claim("stirling", "recurrence vs explicit sum", "exact equality for k <= n+1", scope="n<=20")
def _explicit_sum(p_max):
    for n in range(21):
        for k in range(n + 2):
            if comb.stirling2(n, k) != stirling_explicit(n, k):
                yield f"n={n} k={k} recurrence={comb.stirling2(n, k)}"


@_claim("stirling", "partition collapse", "sum_r n^(r) S(q,r) = n^q, 0 <= n <= 10",
        scope="q<={p}", cap=10)
def _partition_collapse(p_max):
    # the falling-factorial identity; it removes the free i-sum of the moment expansion
    for q in range(1, p_max + 1):
        for n in range(11):
            terms = (comb.falling_factorial(n, r) * comb.stirling2(q, r) for r in range(1, q + 1))
            if sum(terms) != n**q:
                yield f"n={n} q={q}"


@_claim("stirling", "bell totals", "bell = sum_k S(n,k)", scope="n<=14")
def _bell_totals(p_max):
    for n in range(15):
        if comb.bell(n) != sum(comb.stirling2(n, k) for k in range(n + 1)):
            yield f"n={n}"


@_claim("stirling", "narayana symmetry", "N(p,s) = N(p,p+1-s)", scope="p<=11")
def _narayana_symmetry(p_max):
    for p in range(1, 12):
        for s in range(1, p + 1):
            if comb.c1_count(s, p) != comb.c1_count(p + 1 - s, p):
                yield f"p={p} s={s}"


# --------------------------------------------------------------- moments

@_claim("moments", "limit equals narayana sum", "float-exact at c = 0.1, 0.5, 1, 2")
def _limit_narayana(p_max, cs=(0.1, 0.5, 1.0, 2.0)):
    tau = moments.TauModel.constant(1.0)
    for c in cs:
        for p in range(1, p_max + 1):
            got, want = moments.limiting_moment(p, c, tau), moments.mp_moment(p, c)
            if got != want:
                yield f"c={c} p={p} limit={got!r} narayana={want!r}"


@_claim("moments", "limit equals non-crossing sum", "float-exact at c = 0.5, tau = 0.5, 1, 1.5, 2")
def _limit_noncrossing(p_max):
    tau = moments.TauModel(coefficients=(0.5, 1.0, 1.5, 2.0))
    for p in range(1, p_max + 1):
        got, want = moments.limiting_moment(p, 0.5, tau), noncrossing_limit_sum(p, 0.5, tau)
        if got != want:
            yield f"p={p} limit={got!r} non-crossing={want!r}"


@_claim("moments", "quadrature moments", "abs error <= 1e-6 at c = 0.1, 0.5, 1, 2", cap=6)
def _quadrature(p_max, cs=(0.1, 0.5, 1.0, 2.0)):
    for c in cs:
        for p in range(1, p_max + 1):
            got, want = mplaw.quadrature_moment(p, c), moments.mp_moment(p, c)
            if abs(got - want) > 1e-6:
                yield f"c={c} p={p} quadrature={got!r} narayana={want!r}"


@_claim("moments", "law mass", "mass min(1, c), rel error <= 1e-12", scope="1e-8<=c<=1e300")
def _law_mass(p_max):
    for c in (1e-8, 0.25, 0.99, 0.9999, 1 - 1e-8, 1.0, 1 + 1e-8, 1.0001, 2.0,
              1e8, 1e16, 1e30, 1e100, 1e300):
        mass = mplaw.quadrature_moment(0, c)
        if abs(mass - min(1.0, c)) > 1e-12 * min(1.0, c):
            yield f"c={c} mass={mass!r}"


@_claim("moments", "law cdf equals closed form",
        "abs error <= 1e-13, 63 points inside (a, b) per c; exactly 0, atom, 1 off it",
        scope="1e-4<=c<=4")
def _law_cdf(p_max):
    # the closed form loses digits as c grows (1.3e-12 at c = 1e4), hence c <= 4, and is NaN at 0
    for c in (1e-4, 0.25, 0.5, 0.9999, 1.0, 1.0001, 2.0, 4.0):
        law = mplaw.MPLaw(c)
        xs = np.linspace(law.a, law.b, 65)[1:-1]
        err = np.abs(mplaw.cdf(xs, c) - mp_cdf_closed_form(xs, c))
        j = int(err.argmax())
        if err[j] > 1e-13:
            yield f"c={c} x={float(xs[j])!r} error={float(err[j])!r}"
        for x, want in ((-1.0, 0.0), (-1e-300, 0.0), (0.0, law.atom), (law.a / 2, law.atom),
                        (law.a, law.atom), (law.b, 1.0), (2 * law.b, 1.0)):
            if (got := mplaw.cdf(x, c)) != want:
                yield f"c={c} x={x!r} cdf={got!r} want={want!r}"


@_claim("moments", "exact oracle vs exhaustive", "abs error <= 1e-12 at n=m=2", cap=3)
def _exhaustive(p_max, cases=(("rademacher", (1.0, 1.0), (1, 2)),)):
    # a case is (entry law, tau coefficients, tensor legs k); n = 2, m = len(tau)
    for spec, taus, ks in cases:
        dist = moments.EntryDistribution.parse(spec)
        tau, rule = moments.TauModel(coefficients=taus), dist.mixed_moment_rule()
        for k in ks:
            brutes = exhaustive_mean_trace(2, k, len(taus), p_max, taus, dist.alphabet)
            for p, brute in enumerate(brutes, start=1):
                exact = moments.exact_mean_trace_moment(2, k, len(taus), p, tau, rule)
                if abs(exact - brute) > 1e-12:
                    yield f"{spec} tau={taus} k={k} p={p} exact={exact!r} exhaustive={brute!r}"


@_claim("moments", "tau factor equals injection enumeration",
        "exact, every degree multiset of sum <= p, tau = 0.5, 1.25, -2, 3", cap=6)
def _tau_factor_enumeration(p_max):
    taus = (0.5, 1.25, -2.0, 3.0)  # m = 4: each multiset of over 4 degrees checks the zero case
    tau_factor = moments._tau_factor(moments.TauModel(coefficients=taus), len(taus), p_max)
    for degrees in sorted({tuple(sorted(Counter(a).values())) for a, *_ in _sequences(p_max)}):
        got, want = tau_factor(degrees), injection_sum_by_enumeration(degrees, taus)
        if got != want:
            yield f"degrees={degrees} recursion={got} enumeration={want}"


@_claim("moments", "exact oracle equals pairwise sum",
        "float-exact, rademacher and roots:3, tau = 0.5 + j/m, (n,k,m) = (2,3,3), (3,2,4)", cap=5)
def _exact_pairwise(p_max):
    for n, k, m in ((2, 3, 3), (3, 2, 4)):
        tau = moments.TauModel(coefficients=tuple(0.5 + j / m for j in range(m)))
        for rule in (moments.rademacher_rule(), moments.roots_of_unity_rule(3)):
            for p in range(1, p_max + 1):
                got = moments.exact_mean_trace_moment(n, k, m, p, tau, rule)
                want = pairwise_mean_trace_moment(n, k, m, p, tau, rule)
                if got != want:
                    yield f"{rule.name} n={n} k={k} m={m} p={p} exact={got!r} pairwise={want!r}"


@_claim("moments", "phase weight iff paired", "nonzero on paired graphs only", cap=5)
def _phase_weight(p_max):
    phase = moments.uniform_phase_rule()
    for a, seqs, cols in _sequences(p_max):
        paired = graphs.classify_rows(a, cols) == graphs.GraphClass.PAIRED
        for i, is_paired in zip(seqs, paired):
            if (moments.graph_expectation_weight(i, a, phase) != 0) != is_paired:
                yield f"i={i} alpha={a}"


@_claim("moments", "phase inner factor collapse", "n^(1-s) at n=5", cap=6)
def _inner_factor(p_max, ns=(5,)):
    phase = moments.uniform_phase_rule()
    for n in ns:
        for a, *_ in _sequences(p_max, noncrossing=True):
            if moments.inner_factor(a, n, phase) != Fraction(n) ** (1 - max(a)):
                yield f"n={n} alpha={a}"


@_claim("moments", "fixed-n limit",
        "n=2, k=64, m=2^63: phase = MP, rademacher = Poisson(c), rel error <= 1e-8", cap=5)
def _fixed_n_limit(p_max):
    # the paper's regime, k -> infinity at fixed n; at n = 2 every +-1 tensor is a
    # signed Hadamard vector, so Rademacher eigenvalues are Binomial(m, 2^-k) counts
    n, k, m = 2, 64, 2**63
    c, tau = Fraction(m, n**k), moments.TauModel.constant(1.0)
    for p in range(1, p_max + 1):
        phase = moments.exact_mean_trace_moment(n, k, m, p, tau, moments.uniform_phase_rule())
        mp = moments.mp_moment(p, float(c))
        rad = moments.exact_mean_trace_moment(n, k, m, p, tau, moments.rademacher_rule())
        poisson = float(sum(comb.stirling2(p, s) * c**s for s in range(1, p + 1)))
        if abs(phase - mp) > 1e-8 * mp or abs(rad - poisson) > 1e-8 * poisson:
            yield f"p={p} phase={phase!r} mp={mp!r} rademacher={rad!r} poisson={poisson!r}"


@_claim("moments", "crossing decay",
        "n^(s-1) inner factor <= (2n-1)/n^2 < 1 for crossing alpha, phase, n=2,3", cap=5)
def _crossing_decay(p_max):
    # non-crossing alpha give exactly 1 (the collapse above), so crossing ones vanish as k grows
    phase = moments.uniform_phase_rule()
    for n in (2, 3):
        for a, *_ in _sequences(p_max):
            if sequences.is_crossing(a):
                r = Fraction(n) ** (max(a) - 1) * moments.inner_factor(a, n, phase)
                if r > Fraction(2 * n - 1, n * n):
                    yield f"n={n} alpha={a} r={r}"


@_claim("moments", "rademacher crossing persistence",
        "crossing alpha, rademacher: n^(s-1) inner factor = 1 at n=2, max 7/9 per p at n=3", cap=5)
def _rademacher_crossing(p_max):
    # at n = 2 no crossing alpha decays as k grows, which is why Rademacher
    # reaches Poisson(c) there and not MP (fixed-n limit); at n = 3 they decay,
    # though more slowly than the phase bound 5/9. No alpha shorter than 4 crosses.
    rad = moments.rademacher_rule()
    for p in range(4, p_max + 1):
        worst = Fraction(0)
        for a in sequences.enumerate_canonical(p):
            if sequences.is_crossing(a):
                r2 = Fraction(2) ** (max(a) - 1) * moments.inner_factor(a, 2, rad)
                if r2 != 1:
                    yield f"n=2 alpha={a} r={r2}"
                worst = max(worst, Fraction(3) ** (max(a) - 1) * moments.inner_factor(a, 3, rad))
        if worst != Fraction(7, 9):
            yield f"n=3 p={p} max r={worst}"
