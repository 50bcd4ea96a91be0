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

from typing import Iterable

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
    millions of tuples.
    """
    if not 1 <= p <= P_CAP:
        raise ValueError(f"length {p} outside supported range 1..{P_CAP}")
    if s is not None and not 1 <= s <= p:
        return []
    out: list[Canon] = []
    prefix = [1]

    def extend(mx: int) -> None:
        if len(prefix) == p:
            if s is None or mx == s:
                out.append(tuple(prefix))
            return
        # values tried in increasing order keeps the output lexicographic
        for v in range(1, mx + 2):
            if s is not None:
                new_mx = mx if v <= mx else v
                # remaining positions must still be able to reach s values
                if new_mx > s or new_mx + (p - len(prefix) - 1) < s:
                    continue
            prefix.append(v)
            extend(max(mx, v))
            prefix.pop()

    extend(1)
    return out


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

