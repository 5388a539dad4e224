import dataclasses

import pytest

from sixvertex.instance import (
    MapError,
    PlainGraph,
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
from sixvertex.signature import BinarySignature, SixVertexSignature
from sixvertex.scalar import ONE, ZERO


ICE = SixVertexSignature.from_values(1, 1, 1, 1, 1, 1)


class TestRotationMap:
    def test_triangle_faces(self):
        g = cycle_graph(3)
        assert len(g.map.faces()) == 2

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
        assert g.map.vertex_count == 4
        assert g.map.edge_count == 4
        assert len(g.map.faces()) == 2
        g.map.validate_planar()

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
        assert m.degrees() == [4, 4, 4]
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
            assert all(d == 4 for d in m.degrees())
            m.validate_planar()

    def test_medial_counts_general(self):
        for seed in range(5):
            g = random_plane_graph(7, seed)
            m = medial(g)
            assert m.vertex_count == g.edge_count
            assert m.edge_count == 2 * g.edge_count
            assert all(d == 4 for d in m.degrees())
            m.validate_planar()


class TestGenerators:
    def test_seed_stability(self):
        a = random_plane_graph(8, 42)
        b = random_plane_graph(8, 42)
        assert a.map.vertices == b.map.vertices
        assert a.map.involution == b.map.involution

    def test_random_medials_valid(self):
        for seed in range(8):
            m = medial_of_random_plane_graph(6, seed)
            m.validate_planar()
            assert all(d == 4 for d in m.degrees())


class TestInstances:
    def test_arity_validation(self):
        m = cycle_medial(3)
        with pytest.raises(MapError):
            PlanarInstance(m, tuple(BinarySignature(ONE, ZERO, ZERO, ONE) for _ in range(3)))

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
