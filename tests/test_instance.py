import dataclasses
import math
import random

import pytest

from sixvertex.instance import (
    MapError,
    PlanarInstance,
    RotationMap,
    cycle_graph,
    cycle_medial,
    grid_graph,
    grid_patch,
    medial,
    medial_of_random_plane_graph,
    parse_instance,
    path_graph,
    random_plane_graph,
    serialize_instance,
    uniform_instance,
)
from sixvertex.signature import SixVertexSignature, Table
from sixvertex.scalar import ONE, ZERO


ICE = SixVertexSignature.from_values(1, 1, 1, 1, 1, 1)


class TestRotationMap:
    def test_triangle_faces(self):
        g = cycle_graph(3)
        assert len(g.faces()) == 2

    def test_nested_loops_three_faces(self):
        m = RotationMap([[0, 1, 2, 3]], {0: 1, 1: 0, 2: 3, 3: 2})
        assert len(m.faces()) == 3  # V-E+F = 1-2+3 = 2
        m.validate_planar()

    def test_crossing_loops_rejected(self):
        m = RotationMap([[0, 1, 2, 3]], {0: 2, 2: 0, 1: 3, 3: 1})
        with pytest.raises(MapError):
            m.validate_planar()

    def test_grid_euler(self):
        g = grid_graph(2, 2)
        assert g.vertex_count == 4
        assert g.edge_count == 4
        assert len(g.faces()) == 2
        g.validate_planar()

    def test_involution_validation(self):
        with pytest.raises(MapError):
            RotationMap([[0, 1]], {0: 0, 1: 1})
        with pytest.raises(MapError):
            RotationMap([[0, 2]], {0: 2, 2: 0})


class TestMedial:
    def test_triangle_medial_counts(self):
        m = cycle_medial(3)
        assert m.vertex_count == 3
        assert m.edge_count == 6
        assert [len(rot) for rot in m.vertices] == [4, 4, 4]
        m.validate_planar()

    def test_single_loop_medial(self):
        m = medial(cycle_graph(1))
        assert m.vertex_count == 1
        assert m.edge_count == 2
        m.validate_planar()

    def test_single_edge_medial(self):
        m = medial(path_graph(1))
        assert m.vertex_count == 1
        assert m.edge_count == 2
        m.validate_planar()

    def test_grid_medials_4_regular(self):
        for rows, cols in [(2, 2), (2, 3), (3, 3)]:
            m = grid_patch(rows, cols)
            assert all(d == 4 for d in map(len, m.vertices))
            m.validate_planar()

    def test_medial_counts_general(self):
        for seed in range(5):
            g = random_plane_graph(7, seed)
            m = medial(g)
            assert m.vertex_count == g.edge_count
            assert m.edge_count == 2 * g.edge_count
            assert all(d == 4 for d in map(len, m.vertices))
            m.validate_planar()


def rebuilding_random_plane_graph(n_edges, seed):
    """The reference for `random_plane_graph`: the same draws, with a fresh
    RotationMap and every face rebuilt at each step (quadratic)."""
    rng = random.Random(seed)
    vertices = [[0, 1]]
    involution = {0: 1, 1: 0}
    while len(involution) // 2 < n_edges:
        m = RotationMap([list(v) for v in vertices], dict(involution))
        choice = rng.random()
        face = rng.choice(m.faces())
        h1 = len(involution)
        h2 = h1 + 1
        involution[h1] = h2
        involution[h2] = h1
        if choice < 0.45:
            h = rng.choice(face)
            vertices[m.vertex_of[h]].insert(m.slot_of[h], h1)
            vertices.append([h2])
        elif choice < 0.9 and len(face) >= 2:
            h_a, h_b = rng.sample(face, 2)
            va, pa = m.vertex_of[h_a], m.slot_of[h_a]
            vb, pb = m.vertex_of[h_b], m.slot_of[h_b]
            if va == vb:
                first, second = sorted([pa, pb])
                vertices[va].insert(second, h2)
                vertices[va].insert(first, h1)
            else:
                vertices[va].insert(pa, h1)
                vertices[vb].insert(pb, h2)
        else:
            h = rng.choice(face)
            v, pos = m.vertex_of[h], m.slot_of[h]
            vertices[v].insert(pos, h1)
            vertices[v].insert(pos, h2)
    graph = RotationMap(vertices, involution)
    graph.validate_planar()
    return graph


def figure_eights(count):
    """count disjoint one-vertex maps, each two nested loops (V-E+F = 2)."""
    vertices = [[4 * c, 4 * c + 1, 4 * c + 2, 4 * c + 3] for c in range(count)]
    involution = {h: h ^ 1 for h in range(4 * count)}
    return vertices, involution


class TestGenerators:
    def test_seed_stability(self):
        a = random_plane_graph(8, 42)
        b = random_plane_graph(8, 42)
        assert a.vertices == b.vertices
        assert a.involution == b.involution

    def test_random_medials_valid(self):
        for seed in range(8):
            m = medial_of_random_plane_graph(6, seed)
            m.validate_planar()
            assert all(d == 4 for d in map(len, m.vertices))

    @pytest.mark.parametrize(
        "sizes, seeds",
        [(range(1, 41), range(5)), ([300], range(3)), ([1200], range(3))],
        ids=["1-40", "300", "1200"],
    )
    def test_matches_rebuilding_reference(self, sizes, seeds):
        for n in sizes:
            for seed in seeds:
                got = random_plane_graph(n, seed)
                want = rebuilding_random_plane_graph(n, seed)
                assert got.vertices == want.vertices, (n, seed)
                assert got.involution == want.involution, (n, seed)

    def test_one_map_and_one_face_walk(self, monkeypatch):
        """The generator builds its RotationMap once, at the end, and walks
        the faces only inside that map's planarity check."""
        inits = []
        walks = []
        in_check = []
        real_init = RotationMap.__init__
        real_faces = RotationMap.faces
        real_check = RotationMap.validate_planar

        def init(self, *args):
            inits.append(1)
            real_init(self, *args)

        def faces(self):
            walks.append(bool(in_check))
            return real_faces(self)

        def check(self):
            in_check.append(1)
            try:
                real_check(self)
            finally:
                in_check.pop()

        monkeypatch.setattr(RotationMap, "__init__", init)
        monkeypatch.setattr(RotationMap, "faces", faces)
        monkeypatch.setattr(RotationMap, "validate_planar", check)
        graph = random_plane_graph(60, 5)
        assert graph.edge_count == 60
        assert len(inits) == 1
        assert walks == [True]


class TestValidatePlanar:
    def test_many_components_scan_the_faces_once(self, monkeypatch):
        iterations = []

        class CountingList(list):
            def __iter__(self):
                iterations.append(1)
                return super().__iter__()

        real_faces = RotationMap.faces
        monkeypatch.setattr(RotationMap, "faces", lambda self: CountingList(real_faces(self)))
        m = RotationMap(*figure_eights(500))
        assert m.component_ids()[1] == 500
        m.validate_planar()
        assert len(iterations) == 1

    def test_non_planar_component_among_planar_ones(self):
        vertices, involution = figure_eights(3)
        # the middle vertex gets two crossing loops: V=1 E=2 F=1
        involution.update({4: 6, 6: 4, 5: 7, 7: 5})
        m = RotationMap(vertices, involution)
        with pytest.raises(MapError, match=r"^component is not planar: V=1 E=2 F=1, V-E\+F=0$"):
            m.validate_planar()

    def test_component_ids_in_order_of_least_vertex(self):
        # vertices 0 and 2 share an edge; 1 is a figure-eight of its own
        m = RotationMap([[0], [2, 3, 4, 5], [1]], {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4})
        assert m.component_ids() == ([0, 1, 0], 2)
        m.validate_planar()

    def test_isolated_vertex_is_planar(self):
        """An isolated vertex traces no face cycle, yet its sphere has one
        face: V - E + F = 1 - 0 + 1."""
        RotationMap([[]], {}).validate_planar()
        m = RotationMap([[0], [], [1]], {0: 1, 1: 0})
        assert m.component_ids() == ([0, 1, 0], 2)
        m.validate_planar()

    def test_agrees_with_networkx(self):
        """validate_planar raises exactly when networkx rejects the same
        rotations as a PlanarEmbedding, on random simple straight-line
        maps with up to three rotations of degree 3 or more shuffled in
        half of them."""
        nx = pytest.importorskip("networkx")
        rng = random.Random(17)
        rejected = 0
        for trial in range(60):
            rotations, involution = straight_line_map(rng, rng.randint(3, 6))
            if trial % 2:
                branching = [rot for rot in rotations if len(rot) >= 3]
                for rot in rng.sample(branching, min(3, len(branching))):
                    rng.shuffle(rot)
            m = RotationMap(rotations, involution)
            embedding = nx.PlanarEmbedding()
            # networkx lists neighbours clockwise, the map counterclockwise
            embedding.set_data(
                {
                    v: [m.vertex_of[m.involution[h]] for h in reversed(rot)]
                    for v, rot in enumerate(m.vertices)
                }
            )
            try:
                embedding.check_structure()
                theirs = True
            except nx.NetworkXException:
                theirs = False
            try:
                m.validate_planar()
                ours = True
            except MapError:
                ours = False
            assert ours == theirs, trial
            rejected += not ours
        assert 10 <= rejected <= 30


def straight_line_map(rng, k):
    """Rotations and involution of a random simple plane map drawn with
    straight lines on the k x k grid of points: each grid edge and one
    random diagonal per square is kept with probability 0.7, and each
    rotation lists a vertex's edges by angle, counterclockwise.  Edge e is
    the half-edge pair (2e, 2e + 1)."""
    edges = []
    for y in range(k):
        for x in range(k):
            v = y * k + x
            candidates = []
            if x + 1 < k:
                candidates.append((v, v + 1))
            if y + 1 < k:
                candidates.append((v, v + k))
            if x + 1 < k and y + 1 < k:
                candidates.append(rng.choice([(v, v + k + 1), (v + 1, v + k)]))
            edges += [e for e in candidates if rng.random() < 0.7]
    ends = [[] for _ in range(k * k)]
    for e, (u, w) in enumerate(edges):
        for h, a, b in ((2 * e, u, w), (2 * e + 1, w, u)):
            angle = math.atan2(b // k - a // k, b % k - a % k)
            ends[a].append((angle, h))
    rotations = [[h for _, h in sorted(hs)] for hs in ends]
    return rotations, {h: h ^ 1 for h in range(2 * len(edges))}


class TestInstances:
    def test_arity_validation(self):
        # every label is a six-vertex signature on a degree-4 vertex
        m = cycle_medial(3)
        with pytest.raises(MapError):
            PlanarInstance(m, tuple(Table((ONE, ZERO, ZERO, ONE)) for _ in range(3)))
        with pytest.raises(MapError):
            uniform_instance(m, ICE.to_table())
        with pytest.raises(MapError):
            uniform_instance(cycle_graph(3), ICE)
        text = serialize_instance(uniform_instance(m, ICE))
        with pytest.raises(MapError):
            parse_instance(text.replace("s0: 1,1,1,1,1,1", "s0: " + ",".join("1" * 16)))

    def test_round_trip(self):
        inst = uniform_instance(cycle_medial(3), ICE)
        text = serialize_instance(inst)
        back = parse_instance(text)
        assert back.map.vertices == inst.map.vertices
        assert back.map.involution == inst.map.involution
        assert back.labels == inst.labels
        assert serialize_instance(back) == text

    def test_parse_rejects_unknown_signature(self):
        inst = uniform_instance(cycle_medial(3), ICE)
        text = serialize_instance(inst).replace("v1: s0", "v1: nope")
        with pytest.raises(MapError):
            parse_instance(text)

    def test_parse_rejects_a_repeated_signature_name(self):
        # a second definition must not silently replace the first
        text = serialize_instance(uniform_instance(cycle_medial(3), ICE))
        text = text.replace("s0: 1,1,1,1,1,1", "s0: 9,9,9,9,9,9\ns0: 1,1,1,1,1,1")
        with pytest.raises(MapError, match="'s0' is defined twice"):
            parse_instance(text)

    def test_parse_rejects_genus(self):
        text = "\n".join(
            [
                "sixvertex-instance v1",
                "signatures:",
                "s0: 1,1,1,1,1,1",
                "vertices:",
                "v0: s0 : h0 h1 h2 h3",
                "edges:",
                "h0 - h2",
                "h1 - h3",
            ]
        )
        with pytest.raises(MapError):
            parse_instance(text)

    def test_parse_rejects_bad_header(self):
        with pytest.raises(MapError):
            parse_instance("nonsense\n")


class TestPlanarInstanceSlots:
    def test_frozen_without_instance_dict(self):
        inst = uniform_instance(cycle_medial(3), ICE)
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.labels = ()
        assert not hasattr(inst, "__dict__")

    def test_hash_and_equality(self):
        m = cycle_medial(3)
        inst = uniform_instance(m, ICE)
        ice = SixVertexSignature.from_values(1, 1, 1, 1, 1, 1)
        same = PlanarInstance(m, (ice, ice, ice))
        assert inst == same
        assert hash(inst) == hash(same) == hash((m, inst.labels))
        assert inst != uniform_instance(m, SixVertexSignature.from_values(1, 1, 1, 1, 1, 2))
