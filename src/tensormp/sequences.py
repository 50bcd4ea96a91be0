"""Canonical index sequences: relabeling, enumeration, crossing detection.

A length-p sequence of positive integers is *canonical* when its first
value is 1 and each later value exceeds the running maximum by at most
one. Every sequence is equivalent, under a relabeling of its values, to
exactly one canonical sequence, so canonical sequences index the ways p
positions can share values. A canonical sequence with s distinct values
uses exactly the values {1, ..., s}.

Each length is stored once, as an int8 array of 0-based rows, and handed
out as tuples of ints; positions are 1-based in the documentation and
0-based in the code.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

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
    millions of tuples. The tuples are built on each call from the
    memoized ``canonical_array``, so each call returns a new list, which
    the caller may mutate.
    """
    cols = canonical_array(p)
    if s is not None:
        cols = cols[cols.max(axis=1) == s - 1]
    return list(map(tuple, (cols + 1).tolist()))


@functools.cache
def canonical_array(p: int) -> np.ndarray:
    """The canonical sequences of length p as a Bell(p) x p int8 array,
    0-based, one per row, built level by level from [[0]]: each row of
    length j + 1 is a row of length j followed by a value from 0 to its
    maximum + 1. Values go in increasing order, so every level stays
    lexicographic. Memoized and shared, so it is read-only."""
    if not 1 <= p <= P_CAP:
        raise ValueError(f"length {p} outside supported range 1..{P_CAP}")
    cols = np.zeros((1, 1), dtype=np.int8)
    for _ in range(p - 1):
        reps = cols.max(axis=1).astype(np.intp) + 2
        ends = np.cumsum(reps)
        value = np.arange(ends[-1]) - np.repeat(ends - reps, reps)
        cols = np.column_stack((np.repeat(cols, reps, axis=0), value.astype(np.int8)))
    cols.flags.writeable = False
    return cols


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


def degree(alpha: Sequence[int] | np.ndarray, t: int) -> int | np.ndarray:
    """Number of positions holding value t, 0 for t outside the value set:
    an int for a sequence, one count per row for a 2-D array of them."""
    counts = np.count_nonzero(np.asarray(alpha) == t, axis=-1)
    return counts if np.ndim(counts) else int(counts)
