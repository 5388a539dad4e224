"""The front door: routing by the labels' witnesses, the C1 route over the
edge #CSP against the brute-force oracle, the routes against each other
past the oracle's cap, and the command line."""

import io
import itertools
import random

import pytest

from sixvertex import NoPolynomialRoute, evaluate, loopspace, matchgate, route
from sixvertex.classify import Condition, classify
from sixvertex.cli import main
from sixvertex.cspsolve import affine_eval, product_eval
from sixvertex.instance import (
    PlanarInstance,
    RotationMap,
    cycle_medial,
    grid_patch,
    medial,
    medial_of_random_plane_graph,
    path_graph,
    serialize_instance,
    uniform_instance,
)
from sixvertex.membership import is_affine
from sixvertex.oracle import holant_brute
from sixvertex.scalar import I, ONE, W, ZERO, format_scalar, rational
from sixvertex.signature import SixVertexSignature


def sv(*vals):
    return SixVertexSignature.from_values(*vals)


C1 = {Condition.C1_P, Condition.C1_A}
C1_SOLVERS = {Condition.C1_P: product_eval, Condition.C1_A: affine_eval}

# small medials with loop edges: one vertex with two loops (the medials of
# a single loop and of a single edge), then random medials of 8-14 edges
# with one to four loops
SMALL_MEDIALS = [
    cycle_medial(1),
    medial(path_graph(1)),
    medial_of_random_plane_graph(4, 4),
    medial_of_random_plane_graph(5, 1),
    medial_of_random_plane_graph(6, 2),
    medial_of_random_plane_graph(7, 11),
]


def loop_count(m):
    return sum(h < k and m.vertex_of[h] == m.vertex_of[k] for h, k in enumerate(m.involution))


def c1_only_palette():
    """The labels over {0, 1, 2, 3, -1, i, zeta8} whose only witnesses are
    C1.  A scan of all 117,649 palette signatures finds 116, each nonzero
    exactly on (a,x), (b,y), (c,z), (b,c,y,z) or (a,c,x,z).  On the two
    four-entry patterns a product-type label is a matchgate (cz = by and
    ax = cz respectively), so only affine labels are candidates there,
    which keeps this scan short."""
    nonzero = [rational(v) for v in (1, 2, 3, -1)] + [I, W]
    out = []
    for pattern in ((0, 3), (1, 4), (2, 5), (1, 2, 4, 5), (0, 2, 3, 5)):
        for values in itertools.product(nonzero, repeat=len(pattern)):
            entries = [ZERO] * 6
            for slot, v in zip(pattern, values):
                entries[slot] = v
            f = SixVertexSignature(*entries)
            if len(pattern) == 4 and is_affine(f) is None:
                continue
            witnesses = classify(f).witnesses
            if witnesses and witnesses <= C1:
                out.append(f)
    return out


class TestFrontDoor:
    def test_c1_only_palette_against_brute(self):
        labels = c1_only_palette()
        assert len(labels) == 116
        assert all(loop_count(m) for m in SMALL_MEDIALS)
        nonzero = 0
        for f in labels:
            for m in SMALL_MEDIALS:
                inst = uniform_instance(m, f)
                value = evaluate(inst)
                assert value == holant_brute(inst), (f, m.edge_count)
                nonzero += not value.is_zero()
        assert nonzero > len(labels)

    def test_mixed_c1_labels_against_brute(self):
        rng = random.Random(5)
        labels = [sv(0, 0, 1, 0, 0, 2), sv(0, 0, 3, 0, 0, -1), sv(0, 0, 2, 0, 0, 1)]
        nonzero = 0
        for m in SMALL_MEDIALS[2:]:
            inst = PlanarInstance(m, tuple(rng.choice(labels) for _ in m.vertices))
            value = evaluate(inst)
            assert value == holant_brute(inst)
            nonzero += not value.is_zero()
        assert nonzero

    def test_c1_on_a_large_grid(self):
        value = evaluate(uniform_instance(grid_patch(40, 40), sv(0, 0, 1, 0, 0, 2)))
        assert not value.is_zero()

    def test_hard_label_refused(self):
        inst = uniform_instance(grid_patch(2, 2), sv(1, 2, 3, 4, 5, 7))
        with pytest.raises(NoPolynomialRoute, match=r"#P-hard.*\(1,2,3,4,5,7\)"):
            evaluate(inst)

    def test_labels_without_a_shared_route_refused(self):
        m = grid_patch(2, 2)
        # C1_P only against C3_M only
        labels = (sv(0, 0, 1, 0, 0, 2), sv(1, 1, 1, 2, 1, 3))
        inst = PlanarInstance(m, tuple(labels[v % 2] for v in range(m.vertex_count)))
        with pytest.raises(NoPolynomialRoute, match="share no route"):
            evaluate(inst)

    def test_mixed_labels_fall_through_to_fkt(self, monkeypatch):
        chain, fkt_only = sv(1, 1, 0, 1, -1, 0), sv(1, 1, 1, 2, 1, 3)
        assert classify(chain).witnesses == {
            Condition.C1_A, Condition.C3_M, Condition.C4I, Condition.C4II
        }
        assert classify(fkt_only).witnesses == {Condition.C3_M}
        calls = []
        monkeypatch.setattr(
            route, "fkt_eval", lambda inst: calls.append(inst) or matchgate.fkt_eval(inst)
        )
        nonzero = 0
        for m in SMALL_MEDIALS[2:]:
            labels = (chain, fkt_only)
            inst = PlanarInstance(m, tuple(labels[v % 2] for v in range(m.vertex_count)))
            value = evaluate(inst)
            assert value == holant_brute(inst)
            nonzero += not value.is_zero()
        assert nonzero
        assert len(calls) == len(SMALL_MEDIALS[2:])

    def test_quarter_turns_of_one_c4_label_go_to_loop_space(self, monkeypatch):
        f = sv(1, 2, 0, 2, 1, 0)
        calls = []
        real = loopspace.evaluate
        monkeypatch.setattr(
            loopspace, "evaluate", lambda inst, **kw: calls.append(kw) or real(inst, **kw)
        )
        rng = random.Random(3)
        for m in SMALL_MEDIALS[2:]:
            inst = PlanarInstance(m, tuple(f.rotate(rng.randrange(4)) for _ in m.vertices))
            assert evaluate(inst) == holant_brute(inst)
        assert len(calls) == len(SMALL_MEDIALS[2:])

    def test_loop_space_base_is_the_first_label(self, monkeypatch):
        """The profile base is the label of vertex 0, whatever the labels'
        hashes."""
        f = sv(1, 2, 0, 2, 1, 0)
        bases = []
        real = loopspace.evaluate
        monkeypatch.setattr(
            loopspace,
            "evaluate",
            lambda inst, profile_base: bases.append(profile_base) or real(inst, profile_base),
        )
        m = SMALL_MEDIALS[-1]
        for r in range(4):
            turns = [(r + v) % 4 for v in range(m.vertex_count)]
            inst = PlanarInstance(m, tuple(f.rotate(t) for t in turns))
            assert evaluate(inst) == holant_brute(inst)
            assert bases[-1] is inst.labels[0]
        assert len(bases) == 4

    def test_empty_instance(self):
        assert evaluate(uniform_instance(RotationMap([], {}), sv(1, 2, 3, 4, 5, 7))) == ONE


# (label, the route it is checked against): each label is C1 and has that
# second polynomial route, so the two must agree past the brute-force cap
CROSS_ROUTES = [
    (sv(0, 1, 1, 0, 2, 2), matchgate.fkt_eval),  # C3_M and C1, not C4
    (sv(0, 0, 1, 0, 0, 1), matchgate.fkt_eval_hat),  # C3_Mhat and C1 only
    (sv(1, 1, 0, 1, -1, 0), None),  # loop space
    (SixVertexSignature(ONE, I, ZERO, ONE, I, ZERO), None),
]


@pytest.fixture(scope="module")
def large_maps():
    return [grid_patch(12, 12), medial_of_random_plane_graph(150, 0)]


@pytest.mark.parametrize(
    "f, other", CROSS_ROUTES, ids=["fkt", "fkt_hat", "loopspace", "loopspace_i"]
)
def test_c1_route_against_a_second_route(f, other, large_maps):
    solvers = [C1_SOLVERS[c] for c in C1 if c in classify(f).witnesses]
    assert solvers
    # the edge #CSP names a loop's variable twice in its vertex's table;
    # past the cap this is checked only on the medial, since the grid has
    # no loops
    assert loop_count(large_maps[1]) >= 40
    nonzero = 0
    for m in large_maps:
        assert m.edge_count >= 300
        inst = uniform_instance(m, f)
        expected = other(inst) if other else loopspace.evaluate(inst, profile_base=f)
        for solve in solvers:
            assert solve(*route._edge_csp(inst)) == expected
        nonzero += not expected.is_zero()
    assert nonzero


def test_c1_only_palette_identities_past_the_cap(large_maps):
    """C1-only labels have no second route, so past the brute-force cap
    the C1 route is checked against three identities of Holant(!= | f):
    arrow reversal (a,b,c,x,y,z) -> (x,y,z,a,b,c) keeps the value, the
    Galois action sigma_3 on every entry acts on the value, and scaling
    every label by lam multiplies the value by lam^V."""
    medial_300 = large_maps[1]
    assert loop_count(medial_300) >= 40
    lam = rational(2) * W
    lam_v = lam ** medial_300.vertex_count
    labels = c1_only_palette()
    nonzero = 0
    for f in labels:
        a, b, c, x, y, z = f.tuple()
        value = evaluate(uniform_instance(medial_300, f))
        reversed_f = SixVertexSignature(x, y, z, a, b, c)
        assert evaluate(uniform_instance(medial_300, reversed_f)) == value, f
        conjugate = SixVertexSignature(*(v.galois(3) for v in f.tuple()))
        assert evaluate(uniform_instance(medial_300, conjugate)) == value.galois(3), f
        assert evaluate(uniform_instance(medial_300, f.scale(lam))) == lam_v * value, f
        nonzero += not value.is_zero()
    assert len(labels) == 116
    assert nonzero >= 25


def test_edge_csp_has_one_variable_per_edge(large_maps):
    """Loops included: on a map with loops, a loop's vertex names its
    variable twice, and the #CSP still has one variable per edge."""
    for m in [*SMALL_MEDIALS, *large_maps]:
        constraints, n_vars = route._edge_csp(uniform_instance(m, sv(0, 0, 1, 0, 0, 2)))
        assert n_vars == m.edge_count
        assert len(constraints) == m.vertex_count
        assert {v for _, vars_ in constraints for v in vars_} == set(range(n_vars))
        repeats = sum(len(set(vars_)) < len(vars_) for _, vars_ in constraints)
        assert (repeats > 0) == (loop_count(m) > 0), m.edge_count


# labels whose only witness is C3_M: FKT is their one polynomial route, so
# past the brute-force cap it is checked under two Kasteleyn orientations
FKT_ONLY = [sv(1, 1, 1, 2, 1, 3), sv(1, 1, 1, 1, 1, 2), sv(1, 1, 2, 2, 2, 2), sv(1, 1, 1, 2, -1, 1)]
# labels whose only route is FKT-hat: witness 1 with a = 0, witness -1
# with b = 0, and witness -1 with a = 0 and a zeta8 entry
MHAT_ONLY = [
    sv(0, 1, 2, 0, 1, 2),
    sv(2, 0, 3, -2, 0, -3),
    SixVertexSignature(ZERO, ONE, W, ZERO, -ONE, -W),
]
# labels that both FKT and FKT-hat serve
FKT_AND_HAT = [sv(0, 1, 1, 0, 1, 1), sv(0, 1, -1, 0, 1, -1), sv(0, 2, 2, 0, 2, 2)]


def renumbered(inst, rng):
    """The same plane instance written differently: vertices listed in a
    random order, half-edges renamed at random, and each rotation read from
    a random slot with its label turned to match.  FKT then builds another
    spanning tree, face order and Kasteleyn matrix for the same value."""
    m = inst.map
    order = list(range(m.vertex_count))
    rng.shuffle(order)
    name = list(range(m.half_edge_count))
    rng.shuffle(name)
    vertices, labels = [], []
    for v in order:
        r = rng.randrange(4)
        rot = m.vertices[v]
        vertices.append([name[h] for h in rot[r:] + rot[:r]])
        labels.append(inst.labels[v].rotate(r))
    involution = {name[h]: name[k] for h, k in enumerate(m.involution)}
    return PlanarInstance(RotationMap(vertices, involution), tuple(labels))


def test_fkt_only_labels_past_the_cap(large_maps):
    """FKT is the only route of these labels, so past the brute-force cap
    it is checked against itself: under orientation seeds 0 and 1, which
    orient every spanning-forest edge of the assembled graph the other
    way, and on the instance renumbered, which builds another forest."""
    rng = random.Random(77)
    small = uniform_instance(SMALL_MEDIALS[3], FKT_ONLY[0])
    assert holant_brute(renumbered(small, rng)) == holant_brute(small)
    medial_300 = large_maps[1]
    nonzero = 0
    for f in FKT_ONLY:
        assert classify(f).witnesses == {Condition.C3_M}
        inst = uniform_instance(medial_300, f)
        value = matchgate.fkt_eval(inst, orientation_seed=0)
        assert matchgate.fkt_eval(inst, orientation_seed=1) == value
        assert matchgate.fkt_eval(renumbered(inst, rng)) == value
        nonzero += not value.is_zero()
    assert nonzero >= 3


def test_mhat_only_labels_past_the_cap(large_maps):
    """FKT-hat is the only route of these labels, so past the brute-force
    cap it is checked against itself: on the instance renumbered, whose
    labels turn to the other shape where a vertex is read from an odd
    slot, and under the Galois action sigma_3 on every label, which acts
    on the value as well."""
    rng = random.Random(78)
    medial_300 = large_maps[1]
    nonzero = 0
    for f in MHAT_ONLY:
        assert classify(f).witnesses == {Condition.C3_MHAT}
        inst = uniform_instance(medial_300, f)
        value = matchgate.fkt_eval_hat(inst)
        assert matchgate.fkt_eval_hat(renumbered(inst, rng)) == value
        conjugate = SixVertexSignature(*(v.galois(3) for v in f.tuple()))
        assert matchgate.fkt_eval_hat(uniform_instance(medial_300, conjugate)) == value.galois(3)
        nonzero += not value.is_zero()
    assert nonzero >= 2


# C4i and C4ii labels for loop space on renumbered instances
C4_LABELS = [
    sv(1, 2, 0, 2, 1, 0),
    sv(2, 1, 0, -1, 2, 0),
    SixVertexSignature(ONE, I, ZERO, ONE, I, ZERO),
    SixVertexSignature(ONE, W, ZERO, I, W**3, ZERO),
]


def test_loop_space_on_renumbered_instances(large_maps):
    """Renumbering renames every half-edge, so each circuit gets another
    leader (its lowest half-edge) and may run the other way; the induced
    #CSP changes but its value must not."""
    rng = random.Random(65)
    nonzero = 0
    for m in (cycle_medial(3), medial_of_random_plane_graph(20, 0), large_maps[1]):
        for f in C4_LABELS:
            assert classify(f).witnesses & {Condition.C4I, Condition.C4II}
            inst = uniform_instance(m, f)
            value = loopspace.evaluate(inst, profile_base=f)
            for _ in range(3):
                assert loopspace.evaluate(renumbered(inst, rng), profile_base=f) == value
            nonzero += not value.is_zero()
    assert nonzero >= 8


def test_fkt_against_fkt_hat(large_maps):
    nonzero = 0
    for f in FKT_AND_HAT:
        assert {Condition.C3_M, Condition.C3_MHAT} <= classify(f).witnesses
        for m in large_maps:
            inst = uniform_instance(m, f)
            value = matchgate.fkt_eval(inst)
            assert matchgate.fkt_eval_hat(inst) == value
            nonzero += not value.is_zero()
    assert nonzero >= 4


class TestCommandLine:
    def test_eval_matches_evaluate(self, tmp_path, capsys):
        inst = uniform_instance(grid_patch(3, 3), sv(0, 0, 1, 0, 0, 2))
        path = tmp_path / "grid.txt"
        path.write_text(serialize_instance(inst))
        assert main(["eval", str(path)]) == 0
        assert capsys.readouterr().out == format_scalar(evaluate(inst)) + "\n"

    def test_eval_hard_exits_2(self, tmp_path, capsys):
        path = tmp_path / "hard.txt"
        path.write_text(serialize_instance(uniform_instance(grid_patch(2, 2), sv(1, 2, 3, 4, 5, 7))))
        assert main(["eval", str(path)]) == 2
        assert "#P-hard" in capsys.readouterr().err

    def test_classify_bad_literal_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["classify", "1,2,x"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "bad rational 'x'" in err and "Traceback" not in err

    def test_eval_headerless_exits_2(self, monkeypatch, capsys):
        text = serialize_instance(uniform_instance(grid_patch(2, 2), sv(1, 2, 0, 2, 1, 0)))
        monkeypatch.setattr("sys.stdin", io.StringIO(text.split("\n", 1)[1]))
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", "-"])
        assert exit_info.value.code == 2
        assert "missing header" in capsys.readouterr().err

    def test_eval_missing_file_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", str(tmp_path / "missing.txt")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "No such file" in err and "Traceback" not in err

    def test_eval_sixteen_entry_label_exits_2(self, tmp_path, capsys):
        text = serialize_instance(uniform_instance(grid_patch(2, 2), sv(1, 1, 1, 1, 1, 1)))
        path = tmp_path / "general.txt"
        path.write_text(text.replace("s0: 1,1,1,1,1,1", "s0: " + ",".join("1" * 16)))
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", str(path)])
        assert exit_info.value.code == 2
        assert "six scalars" in capsys.readouterr().err

    def test_classify(self, capsys):
        assert main(["classify", "1,1,0,1,-1,0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "planar: PTimeAll",
            "general: PTime",
            "witnesses: C1_A C3_M C4i C4ii",
        ]
