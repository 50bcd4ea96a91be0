"""The limiting law itself: support, atom, density and CDF tables.

Run:  PYTHONPATH=src python3 demos/04_law_tables.py
"""

import numpy as np

import tensormp as t


def main():
    print("Support endpoints and zero atom as the ratio parameter varies:")
    print(f"  {'c':>5} {'a':>7} {'b':>7} {'atom':>6} {'continuous mass':>16}")
    for c in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0):
        law = t.MPLaw(c)
        mass = t.quadrature_moment(0, c)
        print(f"  {c:>5} {law.a:>7.4f} {law.b:>7.4f} {law.atom:>6.2f} {mass:>16.10f}")
    print()

    c = 0.25
    law = t.MPLaw(c)
    print(f"Density and CDF at c = {c} (atom {law.atom} sits in the CDF at 0):")
    print(f"  {'x':>6} {'pdf':>9} {'cdf':>9}")
    for x in np.linspace(0.0, law.b + 0.25, 11):
        print(f"  {x:>6.3f} {t.density(x, c):>9.5f} {t.cdf(x, c):>9.5f}")
    print()

    print("Spot values with known closed forms at c = 1:")
    print(f"  pdf(2)   = {t.density(2.0, 1.0):.10f}   (1/(2 pi) = {1 / (2 * np.pi):.10f})")
    print(f"  cdf(2)   = {t.cdf(2.0, 1.0):.10f}   (1/2 + 1/pi = {0.5 + 1 / np.pi:.10f})")
    print(f"  cdf(4)   = {t.cdf(4.0, 1.0):.10f}")
    print()

    print("Quadrature recovers the moment sequence:")
    for p in range(1, 7):
        q = t.quadrature_moment(p, 0.5)
        print(f"  p={p}: quadrature {q:.10f}, closed form {t.mp_moment(p, 0.5):.10f}")


if __name__ == "__main__":
    main()
