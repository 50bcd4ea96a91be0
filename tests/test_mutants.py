"""Planted faults: every claim ``tensormp verify`` checks must be able to fail.

Each mutant replaces one module attribute: a function rebuilt from its own
source with one edit (``edit``), or a constant. The fault is planted in every tensormp
module that bound the original, as a bug in its source would reach them. A
caught mutant must make each claim it names return a counterexample at
p <= P; together the caught mutants name every entry of ``claims.CLAIMS``.
A mutant that no claim can see is kept, with the reason, and must trip no
claim, so that a claim which starts to see it moves it to the caught list.
(DeMillo, Lipton & Sayward 1978, "Hints on test data selection".)
"""

import __future__
import inspect
from dataclasses import dataclass

import pytest

import tensormp
from tensormp import claims, graphs, moments, mplaw, sequences, simulation
from tensormp import combinatorics as comb

P = 5  # every claim runs at min(P, cap); no alpha shorter than 4 crosses
MODULES = (tensormp, comb, sequences, graphs, moments, mplaw, simulation, claims)


def edit(old, new):
    """The function rebuilt from its source with the one ``old`` made ``new``;
    it reads a copy of its module's globals, so a recursive call stays in the
    mutant and no memo of the original is filled."""
    def make(module, original):
        src = inspect.getsource(original)
        assert src.count(old) == 1, f"{original.__name__} no longer holds {old!r} once"
        flags = __future__.annotations.compiler_flag
        code = compile(src.replace(old, new), module.__file__, "exec", flags=flags, dont_inherit=True)
        namespace = dict(vars(module))
        exec(code, namespace)
        return namespace[original.__name__]
    return make


@dataclass(frozen=True)
class Mutant:
    label: str
    module: object
    name: str
    make: object
    expect: tuple = ()  # the claims it must trip; empty for a mutant no claim sees
    reason: str = ""  # why no claim sees it


CAUGHT = [
    Mutant("a value may jump by two", sequences, "canonical_array",
           edit("cols.max(axis=1).astype(np.intp) + 2", "cols.max(axis=1).astype(np.intp) + 3"),
           ("canonical counts", "canonical order", "non-crossing counts", "tree partner uniqueness",
            "limit equals non-crossing sum", "paired partner counts", "dichotomy",
            "exact oracle vs exhaustive", "exact oracle equals pairwise sum", "phase weight iff paired",
            "phase inner factor collapse", "fixed-n limit", "crossing decay",
            "rademacher crossing persistence")),
    Mutant("values tried in decreasing order", sequences, "canonical_array",
           edit("np.arange(ends[-1]) - np.repeat(ends - reps, reps)",
                "np.repeat(ends - 1, reps) - np.arange(ends[-1])"),
           ("canonical order", "paired partner counts")),
    Mutant("degree counts values at least t", sequences, "degree",
           edit("np.asarray(alpha) == t", "np.asarray(alpha) >= t"),
           ("degree sums",)),
    Mutant("a recurring value compared with the oldest open one", sequences, "is_crossing",
           edit("stack[-1] != v", "stack[0] != v"),
           ("crossing scan agreement", "non-crossing counts", "tree partner uniqueness",
            "limit equals non-crossing sum", "crossing decay", "rademacher crossing persistence")),
    Mutant("Kreweras step taken forward", graphs, "delta1_partner",
           edit("v = prev[(v + 1) % p]", "v = prev[(v - 1) % p]"),
           ("tree partner uniqueness", "paired partner counts", "tree partner diagnostics")),
    Mutant("crossing alpha given a partner", graphs, "delta1_partner",
           edit("== p + 1", "<= p + 1"),
           ("tree partner uniqueness",)),
    Mutant("partner relabelled by the wrong block", graphs, "paired_partners",
           edit("np.array(base) - 1", "-np.array(base)"),
           ("paired partner counts",)),
    Mutant("an odd edge count read as other", graphs, "classify_rows",
           edit("(diff == 1)", "(diff == 2)"),
           ("dichotomy",)),
    Mutant("opposite directions reported as consecutive", graphs, "count_consecutive_violations",
           edit("if d1 != d2:", "if d1 == d2:"),
           ("tree partner diagnostics",)),
    Mutant("Stirling recurrence weights k - 1 blocks", comb, "stirling2",
           edit("k * stirling2(n - 1, k)", "(k - 1) * stirling2(n - 1, k)"),
           ("canonical counts", "paired partner counts", "recurrence vs explicit sum",
            "partition collapse", "bell totals", "fixed-n limit")),
    Mutant("falling factorial counts subsets", comb, "falling_factorial",
           edit("math.perm(n, r)", "math.comb(n, r)"),
           ("partition collapse", "exact oracle vs exhaustive", "phase inner factor collapse",
            "fixed-n limit", "rademacher crossing persistence")),
    Mutant("Bell recurrence drops the last block size", comb, "bell",
           edit("for k in range(j + 1)", "for k in range(j)"),
           ("canonical counts", "bell totals")),
    Mutant("Narayana number zero at s = p", comb, "c1_count",
           edit("if s < 1 or s > p:", "if s < 1 or s >= p:"),
           ("non-crossing counts", "narayana symmetry", "limit equals narayana sum",
            "quadrature moments", "fixed-n limit")),
    Mutant("Miller recurrence at power p", moments, "limiting_moment",
           edit("(p + 2) * i - j", "(p + 1) * i - j"),
           ("limit equals narayana sum", "limit equals non-crossing sum")),
    Mutant("MP moment skips its s = p term", moments, "mp_moment",
           edit("for s in range(1, p + 1)", "for s in range(1, p)"),
           ("limit equals narayana sum", "quadrature moments", "fixed-n limit")),
    Mutant("density factor 1/(4 pi) rounded", mplaw, "_integrand_theta",
           edit("(4.0 * math.pi)", "(4.0 * 3.14159265)"),
           ("law mass", "law cdf equals closed form")),
    Mutant("4-point Gauss-Legendre rule", mplaw, "_gl_nodes",
           edit("leggauss(96)", "leggauss(4)"),
           ("quadrature moments", "law mass", "law cdf equals closed form")),
    Mutant("continuous part of the CDF scaled by 1 + 1e-6", mplaw, "cdf",
           edit("np.minimum(1.0, cont", "np.minimum(1.0, 1.000001 * cont"),
           ("law cdf equals closed form",)),
    Mutant("no atom at x = 0", mplaw, "cdf",
           edit("law.atom * (xs >= 0.0)", "law.atom * (xs > 0.0)"),
           ("law cdf equals closed form",)),
    Mutant("class size forgotten", moments, "exact_mean_trace_moment",
           edit("total += size * tau_fac", "total += tau_fac"),
           ("exact oracle vs exhaustive", "exact oracle equals pairwise sum", "fixed-n limit")),
    Mutant("merged slots added, not subtracted", moments, "_tau_factor",
           edit("total -= inj(", "total += inj("),
           ("tau factor equals injection enumeration", "exact oracle vs exhaustive")),
    Mutant("rotation orbit misses the last rotation", moments, "_rotation_classes",
           edit("for j in range(len(seq))", "for j in range(len(seq) - 1)"),
           ("exact oracle vs exhaustive", "exact oracle equals pairwise sum", "fixed-n limit")),
    Mutant("edge weight reads up twice", moments, "graph_expectation_weight",
           edit("g.down.get(kv, 0)", "g.up.get(kv, 0)"),
           ("phase weight iff paired", "exact oracle equals pairwise sum")),
    Mutant("inner factor uses n^r for n^(r)", moments, "inner_factor",
           edit("falling_factorial(n, r)", "n**r"),
           ("phase inner factor collapse", "crossing decay", "rademacher crossing persistence",
            "exact oracle vs exhaustive", "exact oracle equals pairwise sum", "fixed-n limit")),
]

SURVIVING = [
    Mutant("up and down edges swapped", graphs, "edge_counts",
           edit("down.reshape(hi - lo, keys), up.reshape(hi - lo, keys)",
                "up.reshape(hi - lo, keys), down.reshape(hi - lo, keys)"),
           reason="equivalent: every rule a claim runs has mu(a, b) = mu(b, a), and the "
                  "classes read |up - down|; tests with a skew rule catch it"),
    Mutant("every rule taken as symmetric", moments, "exact_mean_trace_moment",
           edit("reflect=np.array_equal(table, table.T)", "reflect=True"),
           reason="equivalent: every rule a claim runs is symmetric, so reversal is "
                  "always a symmetry of its classes"),
    Mutant("one Gram leg without its conjugate", simulation, "gram_matrix",
           edit("np.matmul(V0[rows], V0h,", "np.matmul(V0[rows], V0h.conj(),"),
           reason="no claim runs the simulator until the spectra suite exists"),
    Mutant("weights enter unrooted", simulation, "_esd_in_place",
           edit("root = np.sqrt(np.abs(tau))", "root = np.abs(tau)"),
           reason="no claim runs the simulator until the spectra suite exists"),
    Mutant("fold threshold 10x too wide", simulation, "ZERO_TOL", lambda module, original: 1e-9,
           reason="no claim runs the simulator until the spectra suite exists"),
]


@pytest.fixture
def plant(monkeypatch):
    """Plant a mutant in every module that bound the original, with the
    memos that a fault could fill cleared before and after."""
    memos = (comb.stirling2, sequences.canonical_array, moments._mu_table, claims._pairwise_counts)

    def clear():
        for memo in memos:
            memo.cache_clear()

    def plant(mutant):
        original = getattr(mutant.module, mutant.name)
        replacement = mutant.make(mutant.module, original)
        for module in MODULES:
            if getattr(module, mutant.name, None) is original:
                monkeypatch.setattr(module, mutant.name, replacement)
        clear()

    yield plant
    monkeypatch.undo()
    clear()


def _tripped(names):
    return {name for name in names if claims.CLAIMS[name].run(min(P, claims.CLAIMS[name].cap))}


@pytest.mark.parametrize("mutant", CAUGHT, ids=[m.label for m in CAUGHT])
def test_mutant_is_caught(plant, mutant):
    plant(mutant)
    assert _tripped(mutant.expect) == set(mutant.expect)


@pytest.mark.parametrize("mutant", SURVIVING, ids=[m.label for m in SURVIVING])
def test_mutant_survives_for_its_reason(plant, mutant):
    plant(mutant)
    assert _tripped(claims.CLAIMS) == set(), mutant.reason


def test_caught_mutants_name_every_claim():
    named = {name for mutant in CAUGHT for name in mutant.expect}
    assert named == set(claims.CLAIMS)
