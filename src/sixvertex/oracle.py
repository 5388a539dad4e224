"""Brute-force ground truth: Holant sums and perfect-matching signatures.

Everything here is exponential-time and capped; the point is exactness.
The backtracking over edge orientations orders edges along a search tree
so the six-pattern support prunes early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .instance import PlanarInstance
from .scalar import ONE, ZERO, Scalar


class OracleCapExceeded(RuntimeError):
    pass


HOLANT_CAP = 24  # edges
MATCHING_CAP = 16  # matched pairs, so 32 vertices


# -- Holant ---------------------------------------------------------------------


def holant_brute(inst: PlanarInstance) -> Scalar:
    """Exact Holant value by backtracking over edge orientations."""
    m = inst.map
    if m.edge_count > HOLANT_CAP:
        raise OracleCapExceeded(
            f"{m.edge_count} edges exceeds the brute-force cap {HOLANT_CAP}"
        )
    values: list[Optional[int]] = [None] * m.half_edge_count
    counts = [[0, 0] for _ in range(m.vertex_count)]
    labels = inst.labels

    def place(h: int, bit: int, touched: list[int]) -> Optional[Scalar]:
        """Set h := bit; return the vertex factor (or None when pruned)."""
        v = m.vertex_of[h]
        values[h] = bit
        counts[v][bit] += 1
        touched.append(h)
        if counts[v][0] > 2 or counts[v][1] > 2:
            return None
        if counts[v][0] + counts[v][1] == 4:  # every vertex has degree 4
            val = labels[v].value(*(values[k] for k in m.vertices[v]))
            return None if val.is_zero() else val
        return ONE

    def unplace(touched: list[int]) -> None:
        for h in touched:
            v = m.vertex_of[h]
            counts[v][values[h]] -= 1
            values[h] = None

    # order the edges along a vertex DFS for early support pruning
    order: list[int] = []
    seen_edges: set[int] = set()
    seen_vertices: set[int] = set()
    stack = list(range(m.vertex_count))
    while stack:
        v = stack.pop()
        if v in seen_vertices:
            continue
        seen_vertices.add(v)
        for h in m.vertices[v]:
            e = min(h, m.involution[h])
            if e not in seen_edges:
                seen_edges.add(e)
                order.append(e)
            stack.append(m.vertex_of[m.involution[h]])

    def run(idx: int, acc: Scalar) -> Scalar:
        if idx == len(order):
            return acc
        h = order[idx]
        hp = m.involution[h]
        total = ZERO
        for bit in (0, 1):
            touched: list[int] = []
            f1 = place(h, bit, touched)
            ok = f1 is not None
            f2: Optional[Scalar] = ONE
            if ok:
                f2 = place(hp, 1 - bit, touched)
                ok = f2 is not None
            if ok:
                total = total + run(idx + 1, acc * f1 * f2)
            unplace(touched)
        return total

    return run(0, ONE)


# -- perfect matchings --------------------------------------------------------------------


@dataclass
class WeightedGraph:
    """A weighted multigraph for matching enumeration (no embedding needed)."""

    n: int
    edges: list[tuple[int, int, Scalar]]


def perfect_matching_sum(graph: WeightedGraph) -> Scalar:
    """Weighted count of perfect matchings by branch on the lowest vertex."""
    if graph.n > 2 * MATCHING_CAP:
        raise OracleCapExceeded(f"{graph.n} vertices exceeds the matching cap")
    adj: list[list[tuple[int, Scalar]]] = [[] for _ in range(graph.n)]
    for u, v, w in graph.edges:
        if u == v:
            continue  # loops never enter matchings
        if w.is_zero():
            continue
        adj[u].append((v, w))
        adj[v].append((u, w))
    matched = [False] * graph.n

    def recurse(start: int) -> Scalar:
        v = start
        while v < graph.n and matched[v]:
            v += 1
        if v == graph.n:
            return ONE
        matched[v] = True
        total = ZERO
        for u, w in adj[v]:
            if matched[u]:
                continue
            matched[u] = True
            total = total + w * recurse(v + 1)
            matched[u] = False
        matched[v] = False
        return total

    if graph.n % 2:
        return ZERO
    return recurse(0)


def matching_signature(
    graph: WeightedGraph,
    externals: Sequence[int],
) -> list[Scalar]:
    """Entries of the matchgate signature: entry(S) is the weighted perfect
    matching sum of the gadget with the externals flagged 1 in S removed
    (flag 1 = external matched outward).  Lexicographic in the flags.
    """
    k = len(externals)
    out = []
    for mask in range(2 ** k):
        removed = {
            externals[t] for t in range(k) if (mask >> (k - 1 - t)) & 1
        }
        keep = [v for v in range(graph.n) if v not in removed]
        index = {v: i for i, v in enumerate(keep)}
        sub = WeightedGraph(
            len(keep),
            [
                (index[u], index[v], w)
                for u, v, w in graph.edges
                if u in index and v in index
            ],
        )
        out.append(perfect_matching_sum(sub))
    return out
