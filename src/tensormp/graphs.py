"""Walk graphs of index-sequence pairs and their classification.

A pair of length-p sequences (i, alpha) encodes a closed walk that
alternates between row labels alpha_u and column labels i_u: one *down*
edge alpha_u -> i_u and one *up* edge i_u -> alpha_{u+1} per position,
with the wrap-around alpha_{p+1} = alpha_1. The alpha-labels and the
i-labels live in disjoint vertex namespaces, so the graph is bipartite.
Edge multiplicities between a vertex pair determine whether an expected
trace contribution survives, which is what the classification below
captures. A non-crossing alpha has exactly one tree partner, the
Kreweras complement of its partition (Nica & Speicher 2006, Lecture 9).

``build_graph``, ``classify`` and ``is_delta1`` take one pair; the row
versions ``edge_counts`` and ``classify_rows`` take one alpha and an
array of canonical i, one per row, and count every row's edges in one
numpy pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .sequences import Canon, canonical_array, canonicalize

EdgeKey = tuple[int, int]  # (alpha-value, i-value)


class GraphClass(Enum):
    PAIRED = "paired"
    SINGLE = "single"
    OTHER = "other"


@dataclass(frozen=True)
class WalkGraph:
    """Edge multiset of the closed walk defined by (i, alpha)."""

    alpha: Canon
    i_seq: Canon
    down: dict[EdgeKey, int]  # multiplicity of alpha_u -> i_u edges
    up: dict[EdgeKey, int]    # multiplicity of i_u -> alpha_{u+1} edges

    @property
    def p(self) -> int:
        return len(self.alpha)

    def edge_keys(self) -> list[EdgeKey]:
        return sorted(set(self.down) | set(self.up))


def build_graph(i_seq: Iterable[int], alpha: Iterable[int]) -> WalkGraph:
    """Count down and up edge multiplicities for the walk of (i, alpha)."""
    i_seq = tuple(i_seq)
    alpha = tuple(alpha)
    if len(i_seq) != len(alpha):
        raise ValueError(
            f"sequence lengths differ: i has {len(i_seq)}, alpha has {len(alpha)}"
        )
    down: dict[EdgeKey, int] = {}
    up: dict[EdgeKey, int] = {}
    for key in zip(alpha, i_seq):
        down[key] = down.get(key, 0) + 1
    for key in zip(alpha[1:] + alpha[:1], i_seq):
        up[key] = up.get(key, 0) + 1
    return WalkGraph(alpha, i_seq, down, up)


def classify(g: WalkGraph) -> GraphClass:
    """Paired, Single, or Other, by up/down multiplicity differences.

    Paired: every vertex pair has equally many up and down edges.
    Single: some vertex pair's counts differ by exactly one (this takes
    precedence when pairs differing by one and by more both occur; either
    way one unmatched factor kills the expectation).
    Other: differences exist but none equals one, e.g. two same-direction
    coincident edges.
    """
    diffs = [abs(g.up.get(kv, 0) - g.down.get(kv, 0)) for kv in g.edge_keys()]
    if all(d == 0 for d in diffs):
        return GraphClass.PAIRED
    if 1 in diffs:
        return GraphClass.SINGLE
    return GraphClass.OTHER


def is_delta1(i_seq: Iterable[int], alpha: Iterable[int]) -> bool:
    """True iff the walk graph glues to a tree with every edge doubled once:
    it is paired and has r + s = p + 1 vertices, r distinct i-values and s
    distinct alpha-values.

    The glued undirected graph is connected, since the walk is closed, so
    its r + s = p + 1 vertices need at least p distinct keys. A paired
    graph's p down edges allow at most p keys, so each key carries exactly
    one down and one up edge, and the p keys form a tree.
    """
    g = build_graph(i_seq, alpha)
    return classify(g) is GraphClass.PAIRED and len(set(g.i_seq)) + len(set(g.alpha)) == g.p + 1


def edge_counts(
    alpha: Iterable[int], cols: np.ndarray
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Down and up edge counts of each row's walk graph, a block of rows at a time.

    ``cols`` holds canonical i of alpha's length, one per row, 0-based.
    Yields (rows, down, up) per block: down[j, (a - 1) p + v] counts the
    down edges alpha_u -> i_u with alpha_u = a and i_u = v + 1 in row
    rows.start + j, as ``build_graph`` counts them, and up the up edges.
    Blocks keep each count array near 2^20 entries, whatever p.
    """
    a = np.asarray(tuple(alpha)) - 1
    cols = np.asarray(cols)
    if cols.ndim != 2 or cols.shape[1] != len(a):
        raise ValueError(f"expected rows of length {len(a)}, got shape {cols.shape}")
    rows, p = cols.shape
    keys = int(a.max() + 1) * p
    down_key, up_key = a * p + cols, np.roll(a, -1) * p + cols
    step = max(1, 2**20 // keys)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        base = np.arange(hi - lo)[:, None] * keys
        size = (hi - lo) * keys
        down = np.bincount((base + down_key[lo:hi]).ravel(), minlength=size)
        up = np.bincount((base + up_key[lo:hi]).ravel(), minlength=size)
        yield slice(lo, hi), down.reshape(hi - lo, keys), up.reshape(hi - lo, keys)


_CLASSES = np.array([GraphClass.PAIRED, GraphClass.SINGLE, GraphClass.OTHER], dtype=object)


def classify_rows(alpha: Iterable[int], cols: np.ndarray) -> np.ndarray:
    """``classify`` of each row's walk graph with alpha, as an object array
    of GraphClass; ``cols`` is as in ``edge_counts``."""
    out = np.empty(len(cols), dtype=object)
    for rows, down, up in edge_counts(alpha, cols):
        diff = np.abs(up - down)
        code = np.where((diff == 1).any(axis=1), 1, np.where(diff.any(axis=1), 2, 0))
        out[rows] = _CLASSES[code]
    return out


def delta1_partner(alpha: Iterable[int]) -> Canon | None:
    """The unique i-sequence forming a glued tree with alpha, if one exists.

    For a non-crossing canonical alpha with s distinct values this returns
    the single canonical i with p+1-s distinct values and is_delta1(i,
    alpha) true; for a crossing alpha it returns None. The partner is the
    Kreweras complement of alpha's partition (Kreweras 1972): positions u
    and prev(u + 1) share an i-value, where prev steps back to the
    previous position of the same alpha-value, cyclically. The i-values
    are the cycles of u -> prev(u + 1), numbered by smallest position.

    With pi the permutation whose cycles are alpha's blocks (u to the next
    position of its value) and gamma the shift u -> u + 1, that map is
    pi^-1 gamma, and #(pi) + #(pi^-1 gamma) <= p + 1 with equality iff
    pi is non-crossing (Biane 1997, "Some properties of crossings and
    partitions"). So alpha crosses iff the cycles number fewer than
    p + 1 - s, and the count alone decides.
    """
    alpha = canonicalize(alpha)
    p = len(alpha)
    last = {a: u for u, a in enumerate(alpha)}
    prev = []
    for u, a in enumerate(alpha):
        prev.append(last[a])
        last[a] = u
    i_seq, label = [0] * p, 0
    for start in range(p):
        if not i_seq[start]:
            label, v = label + 1, start
            while not i_seq[v]:
                i_seq[v] = label
                v = prev[(v + 1) % p]
    return tuple(i_seq) if label + max(alpha) == p + 1 else None


def paired_partners(alpha: Iterable[int], r: int) -> list[Canon]:
    """All i-sequences with r distinct values whose walk graph is paired,
    sorted; r beyond p+1-s gives an empty list. Crossing alpha raises
    ValueError.

    They are the images of the tree partner, with q = p+1-s values, under
    the block maps of {1, ..., q} into r blocks: each canonical row of
    length q with r values relabels the partner's values by their block,
    so the image count is S(q, r).
    """
    alpha = canonicalize(alpha)
    if not 1 <= r <= len(alpha):
        raise ValueError(f"r={r} outside 1..{len(alpha)}")
    base = delta1_partner(alpha)
    if base is None:
        raise ValueError(f"alpha={alpha} is crossing; paired partners need a tree partner")
    blocks = canonical_array(max(base))
    blocks = blocks[blocks.max(axis=1) == r - 1]
    # base lists values in first-appearance order and blocks are numbered by
    # least element, so each image is already canonical
    return sorted(map(tuple, (blocks[:, np.array(base) - 1] + 1).tolist()))


@dataclass(frozen=True)
class ConsecutivePair:
    """Two same-direction coincident edges with nothing between them."""

    direction: str  # "down" or "up"
    edge: EdgeKey
    positions: tuple[int, int]  # 1-based walk positions

    @property
    def distance(self) -> int:
        return self.positions[1] - self.positions[0]


def count_consecutive_violations(g: WalkGraph) -> ConsecutivePair | None:
    """Smallest-distance pair of consecutive same-direction edges, if any.

    Two coincident edges of the same direction are *consecutive* when no
    other edge between the same vertex pair occurs between them along the
    walk (down edge u sits at slot 2u-1, up edge u at slot 2u). Tree
    partners and simple paired graphs have none; same-orientation doubled
    edges always produce one, which makes this the standard diagnostic
    for Other-class graphs.
    """
    p = g.p
    timeline: dict[EdgeKey, list[tuple[int, str, int]]] = {}
    for u in range(1, p + 1):
        a_down = g.alpha[u - 1]
        a_up = g.alpha[u % p]
        v = g.i_seq[u - 1]
        timeline.setdefault((a_down, v), []).append((2 * u - 1, "down", u))
        timeline.setdefault((a_up, v), []).append((2 * u, "up", u))
    best: ConsecutivePair | None = None
    for key, events in timeline.items():
        events.sort()
        for (s1, d1, u1), (s2, d2, u2) in zip(events, events[1:]):
            if d1 != d2:
                continue
            cand = ConsecutivePair(d1, key, (u1, u2))
            if best is None or cand.distance < best.distance:
                best = cand
    return best


def dump_graph(g: WalkGraph) -> str:
    """One-line diagnostic record: alpha, i, class, edge multiset."""
    edges = " ".join(
        f"({a},{v}):down={g.down.get((a, v), 0)},up={g.up.get((a, v), 0)}"
        for a, v in g.edge_keys()
    )
    label = classify(g).value
    return f"alpha={g.alpha} i={g.i_seq} class={label} edges={edges}"
