"""Acceptance gate: one test per headline claim, at the stated sizes.

Claims c01-c07 and c13 are entries of ``tensormp.claims``, the registry
that ``tensormp verify`` also runs; each test here runs its claim at the
range it states and fails with the first counterexample. c08-c12 are
stated here. Each test prints a single summary line on success.
"""

import json
import math

import numpy as np

import tensormp as t
from tensormp.claims import CLAIMS, dense_check
from tensormp.cli import main as cli_main

from conftest import LADDER_C, LADDER_P, LADDER_TRIALS


def test_c01_noncrossing_counting_law():
    # non-crossing canonical sequences of length p with s values number
    # C(p, s-1) C(p, s) / p, and total the Catalan number
    assert CLAIMS["non-crossing counts"].run(8) is None
    print("ACCEPTANCE 1 PASS counting law for p <= 8")


def test_c02_tree_partner_existence_uniqueness():
    # non-crossing alpha: exactly one balanced tree partner, and it is the
    # constructed one; crossing alpha: none
    assert CLAIMS["tree partner uniqueness"].run(7) is None
    print("ACCEPTANCE 2 PASS tree partner existence and uniqueness for p <= 7")


def test_c03_classification_dichotomy():
    # against non-crossing alpha every walk graph is paired or single
    assert CLAIMS["dichotomy"].run(6) is None
    print("ACCEPTANCE 3 PASS paired/single dichotomy for p <= 6")


def test_c04_paired_partner_counts():
    # paired partners with r values number S(p+1-s, r), and the construction
    # reproduces the brute-force classified set, not just its size
    assert CLAIMS["paired partner counts"].run(7) is None
    print("ACCEPTANCE 4 PASS paired partner sets and counts for p <= 7")


def test_c05_stirling_identities():
    assert CLAIMS["recurrence vs explicit sum"].run(20) is None  # n <= 20, k <= n + 1
    assert CLAIMS["partition collapse"].run(10) is None
    print("ACCEPTANCE 5 PASS stirling identities (explicit n <= 20, collapse n <= 10)")


def test_c06_limit_moments_match_closed_form():
    # the free-cumulant recursion equals the non-crossing sum for a non-constant
    # tau, and the Narayana closed form for tau = 1, as floats
    cs = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)
    assert CLAIMS["limit equals non-crossing sum"].run(10) is None
    assert CLAIMS["limit equals narayana sum"].run(10, cs=cs) is None
    assert CLAIMS["quadrature moments"].run(6, cs=cs) is None
    print("ACCEPTANCE 6 PASS limit moments: exact for p <= 10, quadrature 1e-6 for p <= 6")


def test_c07_exact_oracle_vs_exhaustive():
    cases = [
        ("rademacher", (1.0, 1.0), (1, 2)),
        ("rademacher", (1.0, 2.0), (1, 2)),
        ("roots:3", (1.0, 1.0), (1,)),
        ("roots:4", (1.0, 1.0), (1,)),
    ]
    assert CLAIMS["exact oracle vs exhaustive"].run(3, cases=cases) is None
    print("ACCEPTANCE 7 PASS combinatorial oracle vs exhaustive average (abs error <= 1e-12)")


def test_c08_gram_reduction_matches_dense():
    worst = 0.0
    for n, k, m, spec in [
        (8, 2, 32, "phase"),
        (4, 3, 32, "rademacher"),
        (2, 6, 40, "roots:4"),
        (64, 1, 32, "phase"),
        (3, 3, 27, "rademacher"),
    ]:
        nk = n**k
        assert nk <= 64
        d = t.EntryDistribution.parse(spec)
        vecs = t.sample_base_vectors(n, k, m, d, seed=31)
        tau = np.linspace(0.5, 1.5, m)
        G = t.gram_matrix(vecs)
        s = t.esd(G, tau, nk, seed=31, dims=(n, k, m))
        worst = max(worst, dense_check(s, vecs, tau)[0])
    assert worst <= 1e-8
    print(f"ACCEPTANCE 8 PASS gram reduction vs dense spectrum (worst {worst:.2e})")


def test_c09_monte_carlo_convergence(mc_ladder):
    rep = mc_ladder[8]
    m, nk = round(LADDER_C * 8**4), 8**4
    assert len(rep.outcomes) == LADDER_TRIALS == 20
    # p = 1 is deterministic for phase entries: trace equals m/n^k
    assert abs(rep.moment_means[0] - m / nk) <= 5e-13
    for p in range(2, LADDER_P + 1):
        mean, se = rep.moment_means[p - 1], rep.moment_ses[p - 1]
        limit = t.mp_moment(p, LADDER_C)
        assert abs(mean - limit) <= 3 * se, (p, mean, limit, se)
    print("ACCEPTANCE 9 PASS monte carlo means within 3 SE at n=8, k=4, c=0.5 (p=1 exact)")


def test_c10_ks_small_and_shrinking(mc_ladder):
    means = []
    for n in (4, 6, 8):
        rep = mc_ladder[n]
        assert all(ks < 0.08 for ks in rep.ks_values), n
        means.append(rep.mean_ks)
    assert means[0] > means[1] > means[2]
    print(
        "ACCEPTANCE 10 PASS ks < 0.08 every trial; mean ks decreasing: "
        + " > ".join(f"{v:.4f}" for v in means)
    )


def test_c11_moment_concentration(mc_ladder):
    stds = {}
    for n in (4, 6, 8):
        rep = mc_ladder[n]
        stds[n] = [se * math.sqrt(LADDER_TRIALS) for se in rep.moment_ses]
        for p in range(2, LADDER_P + 1):
            mean = rep.moment_means[p - 1]
            assert stds[n][p - 1] < 0.25 * abs(mean), (n, p)
    for p in range(2, LADDER_P + 1):
        assert stds[8][p - 1] < stds[4][p - 1], p
    print("ACCEPTANCE 11 PASS per-trial moment std < 25% of mean and shrinking with size")


def test_c12_byte_identical_determinism(tmp_path):
    argv = [
        *"simulate --n 3 --k 2 --m 4 --trials 3 --seed 123 --p-max 4 --threads 1".split(),
        "--out",
        str(tmp_path),
    ]
    assert cli_main(list(argv)) == 0
    first = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert cli_main(list(argv) + ["--force"]) == 0
    second = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert first == second
    # threading must not change the bytes either
    r1 = t.run_trials(3, 2, 4, t.PHASE, (1.0,) * 4, 4, 3, 123, threads=1)
    r2 = t.run_trials(3, 2, 4, t.PHASE, (1.0,) * 4, 4, 3, 123, threads=2)
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r2.to_json_dict(), sort_keys=True
    )
    print("ACCEPTANCE 12 PASS byte-identical outputs across reruns and thread counts")


def test_c13_fixed_n_regime():
    # the paper's regime: n = 2 fixed, k = 64, m = c n^k with c = 1/2
    assert CLAIMS["fixed-n limit"].run(5) is None
    assert CLAIMS["crossing decay"].run(5) is None
    print("ACCEPTANCE 13 PASS fixed n=2, k=64: phase = MP and rademacher = Poisson to 1e-8 "
          "for p <= 5; crossing decay r <= (2n-1)/n^2 at n = 2, 3")
