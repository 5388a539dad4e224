from dataclasses import dataclass
from typing import Optional

import pytest

from sixvertex.instance import (
    MapError,
    RotationMap,
    cycle_graph,
    cycle_medial,
    grid_graph,
    grid_patch,
    medial,
    path_graph,
    random_plane_graph,
    uniform_instance,
)
from sixvertex.oracle import (
    OracleCapExceeded,
    WeightedGraph,
    holant_brute,
    matching_signature,
    perfect_matching_sum,
)
from sixvertex.scalar import ONE, ZERO, Scalar, rational
from sixvertex.signature import SixVertexSignature


def sv(*vals):
    return SixVertexSignature.from_values(*vals)


ICE = sv(1, 1, 1, 1, 1, 1)
TUTTE_WEIGHTS = sv(1, 1, 2, 1, 1, 2)


# -- references: Eulerian statistics and the Tutte polynomial ------------------
#
# Only these tests read them: they check the medial/Tutte identity
# sum over Eulerian orientations of 2^saddles = 2 T(G; 3, 3) and the Holant
# at the ice point against exhaustive counts.


@dataclass(frozen=True)
class OrientationStats:
    count: int
    saddle_histogram: dict[int, int]

    def weighted_sum(self, base: int = 2) -> int:
        return sum(mult * base ** beta for beta, mult in self.saddle_histogram.items())


def eulerian_stats(map_: RotationMap, cap: int = 24) -> OrientationStats:
    """Exhaustive Eulerian-orientation census with saddle counts.

    Saddle vertices have their half-edge values alternating in the
    counterclockwise rotation (in, out, in, out).
    """
    if any(d != 4 for d in map(len, map_.vertices)):
        raise MapError("eulerian statistics need a 4-regular map")
    if map_.edge_count > cap:
        raise OracleCapExceeded(f"{map_.edge_count} edges exceeds the cap {cap}")
    if map_.half_edge_count == 0:
        return OrientationStats(1, {})
    values: list[Optional[int]] = [None] * map_.half_edge_count
    counts = [[0, 0] for _ in range(map_.vertex_count)]
    filled = [0] * map_.vertex_count
    histogram: dict[int, int] = {}
    edges = [(h, map_.involution[h]) for h in range(map_.half_edge_count) if h < map_.involution[h]]

    def saddle(v: int) -> bool:
        bits = [values[h] for h in map_.vertices[v]]
        return bits in ([0, 1, 0, 1], [1, 0, 1, 0])

    def recurse(idx: int, saddles: int) -> None:
        if idx == len(edges):
            histogram[saddles] = histogram.get(saddles, 0) + 1
            return
        h, hp = edges[idx]
        for bit in (0, 1):
            ok = True
            delta = 0
            touched = []
            for hh, b in ((h, bit), (hp, 1 - bit)):
                v = map_.vertex_of[hh]
                values[hh] = b
                counts[v][b] += 1
                filled[v] += 1
                touched.append(hh)
                if counts[v][0] > 2 or counts[v][1] > 2:
                    ok = False
                    break
                if filled[v] == 4:
                    delta += 1 if saddle(v) else 0
            if ok:
                recurse(idx + 1, saddles + delta)
            for hh in touched:
                v = map_.vertex_of[hh]
                counts[v][values[hh]] -= 1
                filled[v] -= 1
                values[hh] = None

    recurse(0, 0)
    total = sum(histogram.values())
    return OrientationStats(total, histogram)


def edge_list(graph: RotationMap) -> list[tuple[int, int]]:
    """Edges as (vertex, vertex) pairs, loops included."""
    return [(graph.vertex_of[h], graph.vertex_of[k]) for h, k in graph.edges()]


def tutte(graph: RotationMap, x: Scalar, y: Scalar, cap: int = 14) -> Scalar:
    """Deletion-contraction with loop/bridge base cases."""
    edges = edge_list(graph)
    n = graph.vertex_count
    if len(edges) > cap:
        raise OracleCapExceeded(f"{len(edges)} edges exceeds the Tutte cap {cap}")
    return _tutte_rec([(a, b) for a, b in edges], n, x, y)


def _tutte_rec(edges: list[tuple[int, int]], n: int, x: Scalar, y: Scalar) -> Scalar:
    if not edges:
        return ONE
    a, b = edges[0]
    rest = edges[1:]
    if a == b:
        return y * _tutte_rec(rest, n, x, y)
    if _is_bridge(edges, n, 0):
        merged = _contract(rest, a, b)
        return x * _tutte_rec(merged, n - 1, x, y)
    deleted = _tutte_rec(rest, n, x, y)
    contracted = _tutte_rec(_contract(rest, a, b), n - 1, x, y)
    return deleted + contracted


def _contract(edges: list[tuple[int, int]], a: int, b: int) -> list[tuple[int, int]]:
    out = []
    for u, v in edges:
        uu = a if u == b else u
        vv = a if v == b else v
        out.append((uu, vv))
    return out


def _is_bridge(edges: list[tuple[int, int]], n: int, idx: int) -> bool:
    a, b = edges[idx]
    adj: dict[int, set[int]] = {}
    for j, (u, v) in enumerate(edges):
        if j == idx:
            continue
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen = {a}
    stack = [a]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):  # type: ignore[arg-type]
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return b not in seen


def two_loop_instance(f):
    m = RotationMap([[0, 1, 2, 3]], {0: 1, 1: 0, 2: 3, 3: 2})
    return uniform_instance(m, f)


class TestHolantBrute:
    def test_two_adjacent_loops(self):
        f = sv(1, 2, 3, 4, 5, 6)
        # the four valid patterns pick out b, c, y, z
        assert holant_brute(two_loop_instance(f)) == rational(2 + 3 + 5 + 6)

    def test_doubled_triangle_ice(self):
        inst = uniform_instance(cycle_medial(3), ICE)
        assert holant_brute(inst) == rational(10)

    def test_zero_signature(self):
        inst = uniform_instance(cycle_medial(3), sv(0, 0, 0, 0, 0, 0))
        assert holant_brute(inst) == ZERO

    def test_relabel_invariance(self):
        # same map with half-edge ids permuted inside rotations intact:
        # compare two isomorphic builds of the doubled triangle
        a = uniform_instance(cycle_medial(3), TUTTE_WEIGHTS)
        m = a.map
        perm = {h: (h + 2) % m.half_edge_count for h in range(m.half_edge_count)}
        vertices = [[perm[h] for h in rot] for rot in m.vertices]
        vertices = sorted(vertices, key=lambda rot: rot[0])
        involution = {perm[h]: perm[m.involution[h]] for h in range(m.half_edge_count)}
        b = uniform_instance(RotationMap(vertices, involution), TUTTE_WEIGHTS)
        assert holant_brute(a) == holant_brute(b)

    def test_fixed_split_sums_to_total(self):
        # fixing x1 of vertex 0 to 0 keeps (a,b,c) there, to 1 keeps (x,y,z);
        # the two parts sum to the whole Holant
        inst = uniform_instance(cycle_medial(3), TUTTE_WEIGHTS)
        total = holant_brute(inst)
        f = TUTTE_WEIGHTS
        rest = inst.labels[1:]
        zero_part = holant_brute(inst.relabel((sv(f.a, f.b, f.c, 0, 0, 0),) + rest))
        one_part = holant_brute(inst.relabel((sv(0, 0, 0, f.x, f.y, f.z),) + rest))
        assert not zero_part.is_zero() and not one_part.is_zero()
        assert zero_part + one_part == total

    def test_cap(self):
        inst = uniform_instance(grid_patch(3, 4), ICE)
        assert inst.map.edge_count == 34  # past the cap of 24 edges
        with pytest.raises(OracleCapExceeded):
            holant_brute(inst)


class TestEulerianStats:
    def test_doubled_triangle(self):
        stats = eulerian_stats(cycle_medial(3))
        assert stats.count == 10
        assert stats.weighted_sum(2) == 30  # equals 2 T(C3; 3, 3)

    def test_matches_holant_at_ice(self):
        for seed in range(3):
            m = medial(random_plane_graph(5, seed))
            stats = eulerian_stats(m)
            inst = uniform_instance(m, ICE)
            assert rational(stats.count) == holant_brute(inst)

    def test_weighted_sum_matches_tutte_weights(self):
        for seed in range(3):
            m = medial(random_plane_graph(5, seed))
            stats = eulerian_stats(m)
            inst = uniform_instance(m, TUTTE_WEIGHTS)
            assert rational(stats.weighted_sum(2)) == holant_brute(inst)

    def test_empty_graph_convention(self):
        m = RotationMap([], {})
        stats = eulerian_stats(m)
        assert stats.count == 1
        assert stats.saddle_histogram == {}


class TestTutte:
    def test_triangle(self):
        # T(C3; x, y) = x^2 + x + y
        assert tutte(cycle_graph(3), rational(3), rational(3)) == rational(15)

    def test_bridge(self):
        assert tutte(path_graph(1), rational(3), rational(3)) == rational(3)

    def test_loop(self):
        assert tutte(cycle_graph(1), rational(3), rational(3)) == rational(3)

    def test_flagship_identity_small(self):
        # sum over Eulerian orientations of 2^beta = 2 T(G;3,3)
        for graph in [cycle_graph(3), cycle_graph(4), grid_graph(2, 2), path_graph(3)]:
            stats = eulerian_stats(medial(graph))
            assert stats.weighted_sum(2) == 2 * int(
                tutte(graph, rational(3), rational(3)).as_rational()
            )


class TestMatchings:
    def test_single_edge_signature(self):
        u = rational(5)
        g = WeightedGraph(2, [(0, 1, u)])
        sig = matching_signature(g, [0, 1])
        assert sig == [u, ZERO, ZERO, ONE]

    def test_path_gives_diseq(self):
        g = WeightedGraph(3, [(0, 1, ONE), (1, 2, ONE)])
        sig = matching_signature(g, [0, 2])
        assert sig == [ZERO, ONE, ONE, ZERO]

    def test_c4_two_matchings(self):
        g = WeightedGraph(4, [(0, 1, ONE), (1, 2, ONE), (2, 3, ONE), (3, 0, ONE)])
        assert perfect_matching_sum(g) == rational(2)

    def test_2x3_grid_three_matchings(self):
        edges = []
        def vid(r, c):
            return r * 3 + c
        for r in range(2):
            for c in range(3):
                if c + 1 < 3:
                    edges.append((vid(r, c), vid(r, c + 1), ONE))
                if r + 1 < 2:
                    edges.append((vid(r, c), vid(r + 1, c), ONE))
        assert perfect_matching_sum(WeightedGraph(6, edges)) == rational(3)

    def test_odd_graph_zero(self):
        g = WeightedGraph(3, [(0, 1, ONE), (1, 2, ONE), (2, 0, ONE)])
        assert perfect_matching_sum(g) == ZERO
