"""Marchenko-Pastur law: density, CDF, quadrature moments, KS distance.

The law with ratio parameter c > 0 has continuous density
sqrt((b - x)(x - a)) / (2 pi x) on [a, b] with a = (1 - sqrt(c))^2 and
b = (1 + sqrt(c))^2, plus a point mass 1 - c at zero when c < 1. The
inverse-square-root edge singularities are removed by substituting
x = a + (b - a) sin^2(theta), with b - a taken as 4 sqrt(c). Every number
of the law, from ``cdf`` to the KS distance, is then one integral from
theta = 0, by 96-point Gauss-Legendre on a fixed partition fine enough
near c = 1, where a << b - a, to resolve the 1/x factor. ``density`` and
``cdf`` take a number or an array, so every caller reads the same two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class MPLaw:
    """Ratio parameter plus derived support edges and atom mass."""

    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"need c > 0, got {self.c}")

    @property
    def a(self) -> float:
        return (1.0 - math.sqrt(self.c)) ** 2

    @property
    def b(self) -> float:
        return (1.0 + math.sqrt(self.c)) ** 2

    @property
    def width(self) -> float:
        """b - a as 4 sqrt(c): b - a itself loses every bit once 4 sqrt(c) < ulp(a)."""
        return 4.0 * math.sqrt(self.c)

    @property
    def atom(self) -> float:
        """Mass at zero; the continuous part carries min(1, c)."""
        return max(0.0, 1.0 - self.c)


@lru_cache(maxsize=None)
def _gl_nodes() -> tuple[np.ndarray, np.ndarray]:
    """The 96-point Gauss-Legendre rule on [-1, 1], for every integral of the law."""
    return np.polynomial.legendre.leggauss(96)


def _integrand_theta(law: MPLaw, theta: np.ndarray, power: int = 0) -> np.ndarray:
    """x(theta)^power * p(x(theta)) * dx/dtheta, smooth on [0, pi/2]."""
    a, w = law.a, law.width
    if a == 0.0:
        # c = 1, b = w = 4: the 1/x pole cancels, leaving (b / pi) cos^2(theta)
        base = (w / math.pi) * np.cos(theta) ** 2
        x = w * np.sin(theta) ** 2
    else:
        x = a + w * np.sin(theta) ** 2
        # w (w / x), not w^2 / x: w^2 overflows once c passes about 1e307
        base = w * (w / x) * np.sin(2.0 * theta) ** 2 / (4.0 * math.pi)
    return base if power == 0 else x ** power * base


def _theta_of_x(law: MPLaw, x: np.ndarray) -> np.ndarray:
    frac = np.clip((x - law.a) / law.width, 0.0, 1.0)
    return np.arcsin(np.sqrt(frac))


def _segment_masses(law: MPLaw, t0: np.ndarray, t1: np.ndarray, power: int = 0) -> np.ndarray:
    """Integral of x^power times the density over each theta segment [t0_i, t1_i];
    einsum sums each row's nodes alone, as a matrix product need not."""
    nodes, weights = _gl_nodes()
    mid, half = (t0 + t1) / 2.0, (t1 - t0) / 2.0
    theta = mid[:, None] + half[:, None] * nodes
    return np.einsum("ij,j->i", _integrand_theta(law, theta, power), weights) * half


def _integral(law: MPLaw, theta: np.ndarray, power: int = 0) -> np.ndarray:
    """Integral of x^power times the density from 0 to each theta: the whole
    pieces below theta plus one piece up to it. Pieces end at arcsin(sqrt(a/(b - a))),
    the scale of the 1/x factor when a << b - a, and its eightfold multiples."""
    cuts = [0.0]
    if 0.0 < law.a < law.width:
        cut = math.asin(math.sqrt(law.a / law.width))
        while cut < math.pi / 2.0:
            cuts, cut = cuts + [cut], 8.0 * cut
    cuts = np.array(cuts + [math.pi / 2.0])
    below = np.concatenate(([0.0], np.cumsum(_segment_masses(law, cuts[:-1], cuts[1:], power))))
    piece = np.searchsorted(cuts, theta, side="right").clip(1, cuts.size - 1) - 1
    return below[piece] + _segment_masses(law, cuts[piece], theta, power)


def density(x, c: float) -> float | np.ndarray:
    """Continuous density at x, zero outside the open support (a, b); the
    atom (MPLaw.atom) is not part of it. A number gives a float, an array
    an array of its shape."""
    law = MPLaw(c)
    xs = np.asarray(x, dtype=float)
    out = np.zeros_like(xs)
    inside = (xs > law.a) & (xs < law.b)
    y = xs[inside]
    out[inside] = np.sqrt((law.b - y) * (y - law.a)) / (2.0 * math.pi * y)
    return out if out.ndim else float(out)


def cdf(x, c: float) -> float | np.ndarray:
    """Distribution function at x, atom at zero included: right-continuous,
    so F(0) = 1 - c for c < 1, capped at 1, and 1 from b up. A number gives
    a float, an array an array of its shape, its points in any order."""
    law = MPLaw(c)
    xs = np.asarray(x, dtype=float)
    cont = _integral(law, _theta_of_x(law, xs.ravel())).reshape(xs.shape)
    out = np.where(xs >= law.b, 1.0, np.minimum(1.0, cont + law.atom * (xs >= 0.0)))
    return out if out.ndim else float(out)


def quadrature_moment(p: int, c: float) -> float:
    """p-th moment of the law by quadrature, atom excluded.

    The atom contributes nothing for p >= 1; p = 0 therefore returns the
    continuous mass min(1, c), a handy normalization self-check.
    """
    if p < 0:
        raise ValueError(f"need p >= 0, got {p}")
    return float(_integral(MPLaw(c), np.full(1, math.pi / 2.0), p)[0])


def ks_distance(sample, c: float) -> float:
    """Kolmogorov-Smirnov distance between a spectrum sample and the law.

    ``sample`` provides nonzero_eigenvalues and zero_multiplicity; the
    zero atom is weighted analytically, never materialized. The supremum
    of |empirical - law| over jump points is exact for a step empirical
    CDF against the continuous-plus-atom law: both one-sided limits are
    checked at every jump. The right limit is the capped distribution
    function that ``cdf`` and the law table read; the left limit is that
    less the atom at zero.
    """
    lam = np.asarray(sample.nonzero_eigenvalues, dtype=float)
    zero_mult = int(sample.zero_multiplicity)
    total = zero_mult + lam.size
    if total == 0:
        raise ValueError("empty sample")
    pts = np.append(lam, 0.0)
    mass = np.append(np.full(lam.size, 1.0 / total), zero_mult / total)
    idx = np.argsort(pts, kind="stable")
    pts, mass = pts[idx], mass[idx]
    cum_hi = np.cumsum(mass)
    cum_lo = cum_hi - mass

    f_right = cdf(pts, c)
    f_left = f_right - MPLaw(c).atom * (pts == 0.0)
    return float(
        max(np.max(np.abs(f_right - cum_hi)), np.max(np.abs(f_left - cum_lo)))
    )


def law_table_csv(c: float, xs) -> str:
    """CSV with columns x, pdf, cdf, one row per distinct grid value in
    ascending order (at large c a default grid spans only a few ulps), and
    a row at x = 0 whenever the law has an atom there."""
    xs = np.asarray(xs, dtype=float)
    xs = np.unique(np.append(xs, 0.0) if c < 1.0 else xs)
    rows = zip(xs.tolist(), density(xs, c).tolist(), cdf(xs, c).tolist())
    return "\n".join(["x,pdf,cdf"] + [f"{x!r},{pdf!r},{f!r}" for x, pdf, f in rows]) + "\n"
