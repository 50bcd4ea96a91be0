"""Walk through the combinatorial layer on small, printable cases.

Run:  PYTHONPATH=src python3 demos/01_counting_walkthrough.py
"""

import math

import tensormp as t


def main():
    print("Canonical sequences of length 3, in enumeration order:")
    for a in t.enumerate_canonical(3):
        tag = "crossing" if t.is_crossing(a) else "non-crossing"
        print(f"  {a}  values={max(a)}  {tag}")
    print()

    print("Counts by length: total = Bell numbers, non-crossing = Catalan numbers")
    print(f"  {'p':>2} {'total':>6} {'noncross':>8} {'catalan':>8}")
    for p in range(1, 9):
        seqs = t.enumerate_canonical(p)
        nc = sum(1 for a in seqs if not t.is_crossing(a))
        cat = math.comb(2 * p, p) // (p + 1)
        print(f"  {p:>2} {len(seqs):>6} {nc:>8} {cat:>8}")
    print()

    print("Per-value-count law for p = 5: C(p, s-1) C(p, s) / p")
    for s in range(1, 6):
        got = sum(
            1
            for a in t.enumerate_canonical(5, s)
            if not t.is_crossing(a)
        )
        print(f"  s={s}: enumerated {got:>3}, formula {t.c1_count(s, 5):>3}")
    print()

    alpha = (1, 2, 2, 3, 1)
    print(f"Tree partner of alpha = {alpha}:")
    i = t.delta1_partner(alpha)
    print(f"  partner i = {i}")
    g = t.build_graph(i, alpha)
    print(f"  {t.dump_graph(g)}")
    print(f"  balanced tree: {t.is_delta1(i, alpha)}")
    print()

    print(f"All paired partners of alpha = (1, 2, 2) by value count r:")
    for r in range(1, 4):
        print(f"  r={r}: {t.paired_partners((1, 2, 2), r)}")
    print()

    bad = (1, 2, 1, 2)
    print(f"A crossing sequence has no tree partner: {bad} ->", t.delta1_partner(bad))
    g = t.build_graph((1, 2, 1, 2), (1, 2, 1, 2))
    print(f"  and walks against it can fall outside both classes: {t.classify(g).name}")


if __name__ == "__main__":
    main()
