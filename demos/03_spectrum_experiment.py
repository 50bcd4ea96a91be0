"""A desk-scale Monte Carlo run compared against the limit predictions.

Run:  PYTHONPATH=src python3 demos/03_spectrum_experiment.py
"""

import numpy as np

import tensormp as t

N, K, C = 6, 4, 0.5
TRIALS, SEED = 10, 7


def main():
    m = round(C * N**K)
    print(f"Model: n={N}, k={K}, m={m} (c={C}), phase entries, tau = 1, {TRIALS} trials")
    rep = t.run_trials(N, K, m, t.PHASE, (1.0,) * m, 4, TRIALS, SEED, c=C)

    print(f"\n  {'p':>2} {'mc mean':>10} {'se':>9} {'limit':>9} {'|dev|/se':>9}")
    for p in range(1, 5):
        mean, se = rep.moment_means[p - 1], rep.moment_ses[p - 1]
        limit = t.mp_moment(p, C)
        ratio = abs(mean - limit) / se if se > 0 else 0.0
        print(f"  {p:>2} {mean:>10.6f} {se:>9.2e} {limit:>9.6f} {ratio:>9.2f}")

    print(f"\nDistance to the limiting distribution per trial:")
    print("  ks:", " ".join(f"{v:.4f}" for v in rep.ks_values))
    print(f"  mean {rep.mean_ks:.4f}")

    sample = rep.outcomes[0].sample
    nk = N**K
    print(f"\nTrial 0 spectrum: {nk} total eigenvalues,")
    print(f"  {sample.zero_multiplicity} exactly at zero (model rank is at most m={m}),")
    lam = sample.nonzero_eigenvalues
    print(f"  nonzero range [{lam.min():.4f}, {lam.max():.4f}]")
    law = t.MPLaw(C)
    print(f"  limit support   [{law.a:.4f}, {law.b:.4f}], atom at zero {law.atom}")

    edges = np.linspace(0.0, law.b * 1.1, 13)
    counts, _ = np.histogram(lam, bins=edges)
    masses = counts / nk
    print("\nNonzero-part histogram vs law mass per bin:")
    cdf_at_edges = [t.cdf(x, C) for x in edges]
    for j in range(len(counts)):
        want = cdf_at_edges[j + 1] - cdf_at_edges[j]
        bar = "#" * int(round(200 * masses[j]))
        print(f"  [{edges[j]:5.2f},{edges[j + 1]:5.2f})  mc={masses[j]:.4f}  law={want:.4f}  {bar}")


if __name__ == "__main__":
    main()
