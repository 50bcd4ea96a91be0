"""Limiting trace moments: combinatorial sum vs closed form vs quadrature.

The combinatorial column is the sum over non-crossing sequences that the
moment method leaves (``tensormp.claims.noncrossing_limit_sum``); the
library's ``limiting_moment`` reaches the same numbers by Lagrange
inversion of the free-cumulant equation, an O(p^2) exact series. A k-sweep at fixed n = 2 shows the exact moment
of unit-circle entries reaching the Marchenko-Pastur value, while
Rademacher entries reach the Poisson(c) moment instead.

Run:  PYTHONPATH=src python3 demos/02_limit_moments.py
"""

import tensormp as t
from tensormp.claims import noncrossing_limit_sum


def main():
    tau1 = t.TauModel.constant(1.0)
    print("Constant weights: the limit moments are the classical ones.")
    print(f"  {'p':>2} {'combinatorial':>14} {'closed form':>12} {'quadrature':>12}")
    for p in range(1, 7):
        lim = noncrossing_limit_sum(p, 1.0, tau1)
        mp = t.mp_moment(p, 1.0)
        quad = t.quadrature_moment(p, 1.0)
        print(f"  {p:>2} {lim:>14.6f} {mp:>12.6f} {quad:>12.6f}")
    print()

    print("Same comparison across the ratio parameter c at p = 4:")
    for c in (0.1, 0.5, 1.0, 2.0, 4.0):
        print(
            f"  c={c:<4} combinatorial={noncrossing_limit_sum(4, c, tau1):>10.5f}"
            f"  closed={t.mp_moment(4, c):>10.5f}"
        )
    print()

    print("Non-constant weights enter only through their moments:")
    by_coeffs = t.TauModel(coefficients=(1.0, 2.0))
    by_moments = t.TauModel(moments=tuple(by_coeffs.moment(q) for q in range(1, 7)))
    for p in range(1, 5):
        a = t.limiting_moment(p, 1.0, by_coeffs)
        b = t.limiting_moment(p, 1.0, by_moments)
        print(f"  p={p}: from coefficients {a:.6f}, from declared moments {b:.6f}")
    print()

    print("Exact finite-size check at a size small enough to enumerate:")
    tau = t.TauModel(coefficients=(1.0, 1.0))
    for p in (1, 2, 3):
        em = t.exact_mean_trace_moment(2, 2, 2, p, tau, t.rademacher_rule())
        print(f"  n=2 k=2 m=2 rademacher, p={p}: mean trace moment = {em}")
    print()

    print("Fixed n = 2, k growing, m = c n^k at c = 0.5, p = 4 (the exact oracle")
    print("takes one coefficient for all m equal weights, so k = 64 is cheap):")
    limit, poisson = t.mp_moment(4, 0.5), 0.5 + 7 * 0.5**2 + 6 * 0.5**3 + 0.5**4
    print(f"  MP limit {limit}, Poisson(c) 4th moment {poisson}")
    for k in (4, 8, 16, 32, 64):
        m = round(0.5 * 2**k)
        phase = t.exact_mean_trace_moment(2, k, m, 4, tau1, t.uniform_phase_rule())
        rad = t.exact_mean_trace_moment(2, k, m, 4, tau1, t.rademacher_rule())
        print(f"  k={k:>2}: phase error vs MP {abs(phase - limit):.2g}, rademacher {rad:.6g}")
    print()


if __name__ == "__main__":
    main()
