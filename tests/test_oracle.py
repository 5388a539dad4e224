import pytest

from sixvertex.instance import (
    RotationMap,
    cycle_graph,
    cycle_medial,
    grid_graph,
    medial,
    path_graph,
    random_plane_graph,
    uniform_instance,
)
from sixvertex.oracle import (
    OracleCapExceeded,
    WeightedGraph,
    csp_brute,
    eulerian_stats,
    holant_brute,
    matching_signature,
    perfect_matching_sum,
    tutte,
)
from sixvertex.membership import is_product
from sixvertex.scalar import ONE, ZERO, rational
from sixvertex.signature import (
    BinarySignature,
    SixVertexSignature,
    UnarySignature,
)


def sv(*vals):
    return SixVertexSignature.from_values(*vals)


ICE = sv(1, 1, 1, 1, 1, 1)
TUTTE_WEIGHTS = sv(1, 1, 2, 1, 1, 2)


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
        inst = uniform_instance(cycle_medial(3), ICE)
        with pytest.raises(OracleCapExceeded):
            holant_brute(inst, cap=2)


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


class TestCspBrute:
    def test_unary(self):
        assert csp_brute(1, [(UnarySignature(ONE, ONE), (0,))]) == rational(2)

    def test_diseq(self):
        g = BinarySignature(ZERO, ONE, ONE, ZERO)
        assert csp_brute(2, [(g, (0, 1))]) == rational(2)

    def test_g1f_table(self):
        a, b, y, x = rational(2), rational(3), rational(5), rational(7)
        g = BinarySignature(a * a, b * y, b * y, x * x)
        assert csp_brute(2, [(g, (0, 1))]) == a * a + b * y + b * y + x * x

    def test_rejects_unsupported_constraint(self):
        # a membership witness is not a signature table
        witness = is_product(UnarySignature(ONE, ONE))
        with pytest.raises(TypeError):
            csp_brute(1, [(UnarySignature(ONE, ONE), (0,)), (witness, (0,))])


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
