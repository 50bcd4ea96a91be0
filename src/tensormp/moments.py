"""Limiting and exact finite-size trace moments of the random model.

The model is a sum of m rank-one projectors weighted by coefficients
tau_alpha, built from k-fold tensor products of vectors in dimension n
with i.i.d. ``EntryDistribution`` entries. Its normalized expected trace
moments admit an exact combinatorial evaluation: a sum over canonical
row sequences alpha of an injection-weighted tau factor times the k-th
power of an inner factor, which sums walk-graph expectations over all
canonical column sequences. As m/n^k -> c only the non-crossing alpha
survive, with a factor kappa_q = c m_q per block of size q: the
moment-cumulant formula of the free Poisson law with free cumulants
kappa_q (Nica & Speicher, 2006). ``limiting_moment`` evaluates it by
Lagrange inversion of M(z) = 1 + sum_s kappa_s z^s M(z)^s, an O(p^2)
exact series; the brute-force sum is the test oracle
``claims.noncrossing_limit_sum``. With constant weights
the limit is ``mp_moment``, the Marchenko-Pastur (Narayana) moments.

All combinatorial sums are carried out in exact rational arithmetic and
converted to float once, so algebraically equal quantities compare equal
as floats.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .combinatorics import c1_count, falling_factorial
from .graphs import build_graph, edge_counts
from .sequences import Canon, canonical_array, canonicalize, enumerate_canonical


@dataclass(frozen=True)
class TauModel:
    """Weight coefficients, their limiting moments, or both.

    The one owner of the weights: consumers read them only through the
    exact averages ``mean_power(q)`` = (1/len) sum tau_j^q, or the power
    sums m times those. ``coefficients`` are either all m weights
    tau_1..tau_m or one value standing for m equal weights, so a
    constant model costs nothing in m. ``moments`` holds the limiting
    averages m_q = lim (1/m) sum tau_j^q with moments[q-1] = m_q; it
    feeds the limit only, since declared moments need not be the power
    sums of any m real weights. When only coefficients are given, their
    averages stand in for the limiting moments.
    """

    coefficients: tuple[float, ...] | None = None
    moments: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.coefficients is None and self.moments is None:
            raise ValueError("TauModel needs coefficients or moments")
        if self.coefficients is not None and len(self.coefficients) == 0:
            raise ValueError("empty coefficient list")

    @classmethod
    def constant(cls, value: float = 1.0) -> "TauModel":
        """The constant model tau = value, as the single coefficient (value,),
        which stands for m equal weights at every m."""
        return cls(coefficients=(float(value),))

    def mean_power(self, q: int) -> Fraction:
        """The exact average (1/len) sum_j coefficients[j]^q."""
        if self.coefficients is None:
            raise ValueError("TauModel has no coefficients, only declared moments")
        return sum(Fraction(t) ** q for t in self.coefficients) / len(self.coefficients)

    def moment(self, q: int) -> float:
        """m_q, preferring declared limiting moments over mean_power(q)."""
        if q < 1:
            raise ValueError(f"moment order must be >= 1, got {q}")
        if self.moments is not None:
            if q > len(self.moments):
                raise ValueError(f"m_{q} not provided (have q <= {len(self.moments)})")
            return self.moments[q - 1]
        return float(self.mean_power(q))


@dataclass(frozen=True)
class MixedMomentRule:
    """Mixed moments mu(a, b) = E[xi^a conj(xi)^b] of the entry law.

    mu must be the real mixed moments of a law, so mu(0, 0) = 1 and mu is
    symmetric, which ``_mu_table`` checks. Centering and unit variance matter
    for the limit, not for the exact sum. The built-in rules return exact
    ints, which keeps the oracle's rational arithmetic exact.

    Rules compare and hash by ``name`` and by ``mu``, a function that
    equals only itself, so a cache may be keyed on a rule: two rules
    that share a name but not their mu stay apart.
    """

    name: str
    mu: Callable[[int, int], int]


@dataclass(frozen=True)
class EntryDistribution:
    """Unit-modulus entry law: uniform phase, Rademacher, or q-th roots. Its
    label, its ``alphabet``, which the sampler indexes, and its
    ``mixed_moment_rule`` for the moment oracle are stated here once."""

    kind: str  # "phase" | "rademacher" | "roots"
    q: int | None = None

    def __post_init__(self):
        if self.kind not in ("phase", "rademacher", "roots"):
            raise ValueError(f"unknown entry distribution {self.kind!r}")
        if self.kind == "roots" and (self.q is None or self.q < 2):
            raise ValueError("roots distribution needs q >= 2")
        if self.kind != "roots" and self.q is not None:
            raise ValueError(f"{self.kind} takes no q parameter")

    @classmethod
    def parse(cls, spec: str) -> "EntryDistribution":
        """Parse 'phase', 'rademacher', or 'roots:q'."""
        kind, sep, q = spec.partition(":")
        return cls(kind, int(q) if sep else None)

    @property
    def label(self) -> str:
        return f"roots:{self.q}" if self.kind == "roots" else self.kind

    @property
    def alphabet(self) -> np.ndarray | None:
        """The equally likely entry values: [-1, 1] for Rademacher, exp(2 pi i j/q)
        for j = 0..q-1, or None for the continuous uniform phase."""
        if self.kind == "rademacher":
            return np.array([-1.0, 1.0])
        if self.kind == "roots":
            return np.exp(2j * np.pi * np.arange(self.q) / self.q)
        return None

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """I.i.d. entries of modulus 1: exactly 1 for Rademacher (float64),
        within an ulp of 1, 2.2e-16, otherwise (complex128)."""
        if self.alphabet is None:
            return np.exp(2j * np.pi * rng.random(shape))
        return self.alphabet[rng.integers(0, len(self.alphabet), shape)]

    @functools.cache
    def mixed_moment_rule(self) -> MixedMomentRule:
        """mu(a, b) = E[xi^a conj(xi)^b]: 1 iff a = b for the phase, and for an
        alphabet of q roots of unity 1 iff a = b mod q, else 0. Memoized on
        the law, so each law has one rule object, which every caller shares."""
        if self.alphabet is None:
            return MixedMomentRule(self.label, lambda a, b: int(a == b))
        q = len(self.alphabet)
        return MixedMomentRule(self.label, lambda a, b: int((a - b) % q == 0))


PHASE = EntryDistribution("phase")
RADEMACHER = EntryDistribution("rademacher")


def uniform_phase_rule() -> MixedMomentRule:
    """xi uniform on the unit circle: mu(a,b) = 1 iff a = b."""
    return PHASE.mixed_moment_rule()


def rademacher_rule() -> MixedMomentRule:
    """xi uniform on {+1, -1}: mu(a,b) = 1 iff a + b is even."""
    return RADEMACHER.mixed_moment_rule()


def roots_of_unity_rule(q: int) -> MixedMomentRule:
    """xi uniform on the q-th roots of unity: mu(a,b) = 1 iff a = b mod q."""
    return EntryDistribution("roots", q).mixed_moment_rule()


def limiting_moment(p: int, c: float, tau: TauModel) -> float:
    """Limit of the normalized expected p-th trace moment as m/n^k -> c.

    The moment generating series M(z) = 1 + sum_s kappa_s z^s M(z)^s, with
    kappa_q = c m_q, reads f = z phi(f) for f = z M and
    phi(w) = 1 + sum_q kappa_q w^q. Lagrange inversion gives
    m_p = [w^p] phi(w)^(p+1) / (p+1), and Miller's power recurrence
    (Knuth, TAOCP vol. 2, 4.7) the coefficients a_j of phi^(p+1):
    a_0 = 1, a_j = (1/j) sum_(i=1..j) ((p+2) i - j) kappa_i a_(j-i).
    Exact rational arithmetic inside, one float conversion out, so the
    result equals ``claims.noncrossing_limit_sum`` float-for-float.
    """
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    kappa = [Fraction(1)] + [Fraction(c) * Fraction(tau.moment(q)) for q in range(1, p + 1)]
    a = [Fraction(1)]
    for j in range(1, p + 1):
        a.append(sum(((p + 2) * i - j) * kappa[i] * a[j - i] for i in range(1, j + 1)) / j)
    return float(a[p] / (p + 1))


def mp_moment(p: int, c: float) -> float:
    """p-th moment of the Marchenko-Pastur law with ratio parameter c.

    Closed form sum_s c^s N(p, s) over the Narayana numbers; equals
    limiting_moment(p, c, tau = 1) exactly, including as floats.
    """
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    cfrac = Fraction(c)
    total = sum(cfrac ** s * c1_count(s, p) for s in range(1, p + 1))
    return float(total)


def graph_expectation_weight(i_seq, alpha, rule: MixedMomentRule) -> int:
    """n^p E(i, alpha): the product of mu over glued edge multiplicities.

    Each (alpha-value, i-value) pair contributes mu(up-count, down-count);
    the built-in rules make this 0 or 1. Zero for every rule whenever the
    walk graph is Single (one unmatched first-power factor), and for the
    uniform-phase rule nonzero exactly on Paired graphs.
    """
    g = build_graph(i_seq, alpha)
    w = 1
    for kv in g.edge_keys():
        w *= rule.mu(g.up.get(kv, 0), g.down.get(kv, 0))
        if w == 0:
            return 0
    return w


@functools.cache
def _mu_table(rule: MixedMomentRule, p: int) -> np.ndarray:
    """table[a, b] = rule.mu(a, b) for a, b in 0..p, the weight of one
    (alpha-value, i-value) key with a up and b down edges.

    A table with mu(0, 0) != 1 or mu(a, b) != mu(b, a) is no law's (see
    ``MixedMomentRule``) and raises ValueError. It is int64 when every entry
    is 0 or +-1, so a product of entries cannot overflow; otherwise it holds
    the rule's own exact numbers. Memoized on (rule, p), so each rule is
    checked once, and shared, so it is read-only.
    """
    values = [[rule.mu(a, b) for b in range(p + 1)] for a in range(p + 1)]
    if values[0][0] != 1 or values != [list(col) for col in zip(*values)]:
        raise ValueError(f"rule {rule.name!r}: mu(0, 0) != 1 or mu is not symmetric")
    small = all(isinstance(v, int) and abs(v) <= 1 for row in values for v in row)
    table = np.array(values, dtype=np.int64 if small else object)
    table.flags.writeable = False
    return table


def inner_factor(alpha, n: int, rule: MixedMomentRule) -> Fraction:
    """The per-leg column sum: sum_r n^(r) sum_{i in C_{r,p}} E(i, alpha).

    Evaluated as sum_r n^(r) N_r / n^p from alpha's column counts N_r:
    N_r sums the walk-graph weight n^p E(i, alpha) over the canonical i
    with r distinct values, the rows of ``canonical_array(p)``. A row's
    weight is the product of ``_mu_table`` entries table[up, down] over
    its ``edge_counts``. Exact rational in n, a polynomial in n of degree
    p over n^p. For the uniform-phase rule and non-crossing alpha this
    collapses to n^(1-s) via the Stirling identity, because the paired i
    with r distinct values number S(p+1-s, r). The walk-graph sum it
    replaces is the test oracle ``claims.pairwise_inner_factor``.
    """
    alpha = canonicalize(alpha)
    p = len(alpha)
    table, cols = _mu_table(rule, p), canonical_array(p)
    distinct = cols.max(axis=1) + 1
    counts = np.zeros(p + 1, dtype=table.dtype)
    for rows, down, up in edge_counts(alpha, cols):
        np.add.at(counts, distinct[rows], table[up, down].prod(axis=1))
    terms = enumerate(counts.tolist())
    return sum(falling_factorial(n, r) * N for r, N in terms) / Fraction(n) ** p


def _rotation_classes(p: int) -> list[tuple[Canon, int]]:
    """The canonical sequences of length p grouped by the canonical forms
    of their rotations and reversals: one (first member, class size) per
    class, in enumeration order."""
    seen: set[Canon] = set()
    out = []
    for alpha in enumerate_canonical(p):
        if alpha not in seen:
            orbit = {canonicalize(s[j:] + s[:j]) for s in (alpha, alpha[::-1]) for j in range(p)}
            seen |= orbit
            out.append((alpha, len(orbit)))
    return out


def _tau_factor(tau: TauModel, m: int, p: int) -> Callable[[Iterable[int]], Fraction]:
    """The tau factor of degrees d_1..d_s summing to at most p, memoised on
    their multiset: sum over injections phi: {1..s} -> {1..m} of
    prod_t tau_phi(t)^d_t, from the power sums P_d = m * tau.mean_power(d).

    Slot 1 shares its weight with no other slot, or with exactly one slot
    j, which merges their degrees: inj(d_1, rest) = P_d_1 inj(rest) -
    sum_j inj(rest with d_j + d_1), inj(()) = 1, and inj = 0 once s > m.
    The test oracle is ``claims.injection_sum_by_enumeration``.
    """
    if tau.coefficients is not None and len(tau.coefficients) not in (1, m):
        raise ValueError(f"got {len(tau.coefficients)} coefficients for m={m}; need m or 1")
    power = [None] + [m * tau.mean_power(d) for d in range(1, p + 1)]

    @functools.cache
    def inj(degrees: tuple[int, ...]) -> Fraction:
        if len(degrees) > m:
            return Fraction(0)
        if not degrees:
            return Fraction(1)
        d1, rest = degrees[0], degrees[1:]
        total = power[d1] * inj(rest)
        for j, d in enumerate(rest):
            total -= inj(tuple(sorted(rest[:j] + (d + d1,) + rest[j + 1:])))
        return total

    return lambda degrees: inj(tuple(sorted(degrees)))


def exact_mean_trace_moment(
    n: int,
    k: int,
    m: int,
    p: int,
    tau: TauModel,
    rule: MixedMomentRule,
) -> float:
    """Exact normalized expected p-th trace moment at finite (n, k, m).

    Evaluates, over canonical row sequences alpha with s distinct values,
    the injection-weighted tau factor times inner_factor(alpha, n, rule)
    raised to the k-th power, all divided by n^k. ``tau`` holds m
    coefficients or one (m equal weights) and enters only through
    ``_tau_factor``, so k is only an exponent and one coefficient costs
    nothing in m. Exact up to the final float conversion, which makes it
    the reference oracle for both the Monte Carlo sampler and the
    limiting formula.

    The trace is cyclic, so both factors are the same for every rotation
    of alpha. Reversal swaps up and down edges, which conjugates the weight
    since E[xi^a conj(xi)^b] = conj E[xi^b conj(xi)^a]; mu is real, so it
    leaves them unchanged too. Each class of alpha under those moves is
    evaluated once, and each tau factor once per degree multiset. The sum
    over every alpha is the test oracle ``claims.pairwise_mean_trace_moment``.
    """
    if min(n, k, m) < 1:
        raise ValueError(f"need n, k, m >= 1, got {n}, {k}, {m}")
    tau_factor = _tau_factor(tau, m, p)
    total = Fraction(0)
    for alpha, size in _rotation_classes(p):
        tau_fac = tau_factor(Counter(alpha).values())
        if tau_fac != 0:
            total += size * tau_fac * inner_factor(alpha, n, rule) ** k
    return float(total / Fraction(n) ** k)

