"""Exact integer combinatorics for the sequence and moment machinery.

Everything here returns plain Python ints, so all values are exact at any
size. Floating point enters only in the moment modules, and only at the
final conversion step.
"""

from __future__ import annotations

import math
from functools import lru_cache


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-element set into k nonempty blocks.

    Computed by the triangle recurrence S(n, k) = S(n-1, k-1) + k*S(n-1, k)
    with S(0, 0) = 1. Out-of-range arguments give 0, matching the usual
    convention S(n, k) = 0 for k > n or k = 0 < n.
    """
    if n < 0 or k < 0:
        raise ValueError(f"need n, k >= 0, got {n}, {k}")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)


def bell(n: int) -> int:
    """Number of set partitions of an n-element set by B_(j+1) = sum_k C(j, k) B_k,
    B_0 = 1, which shares nothing with ``stirling2``: k elements stay out of
    the block of element j + 1."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    b = [1]
    for j in range(n):
        b.append(sum(math.comb(j, k) * b[k] for k in range(j + 1)))
    return b[n]


def falling_factorial(n: int, r: int) -> int:
    """n (n-1) ... (n-r+1) for n >= 0, with the empty product 1 for r = 0.

    For 0 <= n < r the product hits zero, which is exactly the number of
    injections from an r-set into an n-set, as ``math.perm`` counts them.
    """
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    return math.perm(n, r)


def c1_count(s: int, p: int) -> int:
    """Number of non-crossing canonical s-sequences of length p.

    Evaluates (1/p) C(p, s-1) C(p, s); the division is always exact
    (these are the Narayana numbers). Returns 0 for s outside 1..p.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if s < 1 or s > p:
        return 0
    num = math.comb(p, s - 1) * math.comb(p, s)
    q, rem = divmod(num, p)
    assert rem == 0
    return q
