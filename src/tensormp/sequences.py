"""Canonical index sequences: relabeling, enumeration, crossing detection.

A length-p sequence of positive integers is *canonical* when its first
value is 1 and each later value exceeds the running maximum by at most
one. Every sequence is equivalent, under a relabeling of its values, to
exactly one canonical sequence, so canonical sequences index the ways p
positions can share values. A canonical sequence with s distinct values
uses exactly the values {1, ..., s}.

Sequences are stored as tuples of ints; positions are 1-based in the
documentation and 0-based in the code.
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

Canon = tuple[int, ...]

#: Enumeration guard: Bell(p) grows fast enough that enumerating beyond
#: this length is almost certainly a mistake rather than an experiment.
P_CAP = 12


def canonicalize(seq: Iterable[int]) -> Canon:
    """Relabel values by order of first appearance.

    (3,5,3) -> (1,2,1); a canonical input comes back unchanged. Raises
    ValueError on an empty sequence.
    """
    seq = tuple(seq)
    if not seq:
        raise ValueError("cannot canonicalize an empty sequence")
    relabel: dict[int, int] = {}
    out = []
    for v in seq:
        if v not in relabel:
            relabel[v] = len(relabel) + 1
        out.append(relabel[v])
    return tuple(out)


def is_canonical(seq: Iterable[int]) -> bool:
    """True iff the sequence is its own canonical form."""
    seq = tuple(seq)
    return bool(seq) and seq == canonicalize(seq)


def enumerate_canonical(p: int, s: int | None = None) -> list[Canon]:
    """All canonical sequences of length p, in lexicographic order.

    With s given, keep only sequences with exactly s distinct values.
    The full list has Bell(p) entries; the filtered list has S(p, s).
    Lengths above P_CAP raise ValueError instead of silently enumerating
    millions of tuples. The enumeration is memoized per p, and the
    filtered lists are read off it, so each length is enumerated once per
    process; every call returns a new list, which the caller may mutate.
    """
    seqs, cols = _enumeration(p)
    if s is None:
        return list(seqs)
    return [seqs[j] for j in np.flatnonzero(cols.max(axis=1) == s - 1)]


def canonical_array(p: int) -> np.ndarray:
    """The Bell(p) x p int64 array of ``enumerate_canonical(p)``, 0-based,
    one sequence per row. Memoized and shared, so it is read-only."""
    return _enumeration(p)[1]


@functools.cache
def _enumeration(p: int) -> tuple[tuple[Canon, ...], np.ndarray]:
    """The canonical sequences of length p as tuples and as a read-only
    0-based array, built level by level from (1,): each sequence of length
    j + 1 is one of length j followed by a value from 1 to its maximum + 1.
    Values go in increasing order, so every level stays lexicographic."""
    if not 1 <= p <= P_CAP:
        raise ValueError(f"length {p} outside supported range 1..{P_CAP}")
    seqs: list[Canon] = [(1,)]
    for _ in range(p - 1):
        seqs = [a + (v,) for a in seqs for v in range(1, max(a) + 2)]
    cols = np.array(seqs, dtype=np.int64)
    cols -= 1
    cols.flags.writeable = False
    return tuple(seqs), cols


def is_crossing(alpha: Iterable[int]) -> bool:
    """True iff two values alternate a..b..a..b along the sequence.

    Equivalent to the quadruple condition: positions j1<j2<j3<j4 exist
    with alpha[j1] = alpha[j3] != alpha[j2] = alpha[j4]. Checked in one
    left-to-right scan with a stack of open values: a value is pushed at
    its first position and popped at its last, and a value that recurs
    while a value opened after it is still open, i.e. is not on top of
    the stack, is a crossing.
    """
    alpha = tuple(alpha)
    last = {v: u for u, v in enumerate(alpha)}
    opened, stack = set(), []
    for u, v in enumerate(alpha):
        if v not in opened:
            opened.add(v)
            stack.append(v)
        elif stack[-1] != v:
            return True
        if u == last[v]:
            stack.pop()
    return False


def degree(alpha: Iterable[int], t: int) -> int:
    """Number of positions holding value t; 0 for t outside the value set."""
    return sum(1 for v in alpha if v == t)

