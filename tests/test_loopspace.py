import dataclasses
import random
from collections import Counter

import pytest

from sixvertex.instance import (
    MapError,
    PlanarInstance,
    RotationMap,
    cycle_medial,
    grid_patch,
    medial_of_random_plane_graph,
    uniform_instance,
)
from sixvertex.loopspace import (
    ENTRY,
    SELF,
    SLOT,
    LoopSpaceError,
    decompose,
    entry_exit_audit,
    evaluate,
    induced_csp,
)
from sixvertex.oracle import HOLANT_CAP, holant_brute
from sixvertex.scalar import MU8, ONE, W, ZERO, Scalar, rational
from sixvertex.signature import SixVertexSignature, Table
from test_matchgate import torus_grid


def sv(*vals):
    return SixVertexSignature.from_values(*vals)


def random_c4i(rng):
    """c=z=0 with (ax)^2 = (by)^2, mixing zero and nonzero patterns."""
    style = rng.random()
    if style < 0.2:
        # ax = by = 0 degenerate supports
        a, b = rational(rng.randint(-2, 2)), rational(rng.randint(-2, 2))
        return SixVertexSignature(a, b, ZERO, ZERO, ZERO, ZERO).rotate(
            rng.randrange(4)
        )
    a, b, x = (rational(rng.choice([1, 2, -1, -2])) for _ in range(3))
    y = rational(rng.choice([1, -1])) * a * x / b
    return SixVertexSignature(a, b, ZERO, x, y, ZERO)


def random_c4ii(rng):
    a = MU8[rng.randrange(8)] * rational(rng.choice([1, 2]))
    alpha = rng.randrange(4)
    beta = rng.randrange(8)
    gamma = (beta + 2 * rng.randrange(4)) % 8
    x = a * (W ** 2) ** alpha
    b = a * W ** beta
    y = a * W ** gamma
    return SixVertexSignature(a, b, ZERO, x, y, ZERO)


def two_loop_map():
    return RotationMap([[0, 1, 2, 3]], {0: 1, 1: 0, 2: 3, 3: 2})


class TestDecompose:
    def test_two_adjacent_loops_single_circuit(self):
        inst = uniform_instance(two_loop_map(), sv(1, 1, 0, 1, 1, 0))
        dec = decompose(inst)
        assert dec.k == 1
        assert dec.pairs == (0,)  # circuit pair (0, 0)
        assert len(dec.codes) == 1
        assert dec.codes[0] & SELF

    def test_disjoint_cycles_no_records(self):
        # two squares sharing no vertex: build 2 disjoint doubled cycles?
        # simplest: two copies of the two-loop vertex cannot be disjoint in
        # one map with one vertex; use the 2x2 grid medial and count circuits
        inst = uniform_instance(grid_patch(2, 2), sv(1, 1, 0, 1, 1, 0))
        dec = decompose(inst)
        # every half-edge is tagged, and every circuit enters and leaves
        assert len(dec.tags) == inst.map.half_edge_count
        assert sorted(set(dec.tags)) == list(range(2 * dec.k))

    def test_doubled_triangle_balanced(self):
        inst = uniform_instance(cycle_medial(3), sv(1, 1, 0, 1, 1, 0))
        dec = decompose(inst)
        assert entry_exit_audit(dec)

    def test_audit_catches_an_unbalanced_pair(self):
        inst = uniform_instance(grid_patch(3, 3), sv(1, 1, 0, 1, 1, 0))
        dec = decompose(inst)
        assert entry_exit_audit(dec)
        v = next(v for v, code in enumerate(dec.codes) if not code & SELF)
        codes = list(dec.codes)
        codes[v] ^= ENTRY  # one entry read as an exit, or the reverse
        assert not entry_exit_audit(dataclasses.replace(dec, codes=tuple(codes)))

    def test_rejects_nonzero_inner(self):
        # decompose reads the map only; the inner-pair check is the base's,
        # in induced_csp, on every call
        f = sv(1, 1, 1, 1, 1, 1)
        inst = uniform_instance(cycle_medial(3), f)
        dec = decompose(inst)
        with pytest.raises(LoopSpaceError, match="zero inner pair"):
            induced_csp(dec, inst, profile_base=f)
        with pytest.raises(LoopSpaceError, match="zero inner pair"):
            evaluate(inst, profile_base=f)

    def test_rejects_vertex_of_other_degree(self):
        # a degree-4 vertex whose two remaining slots meet a degree-2 vertex:
        # the instance itself refuses it, so decompose never sees one
        f = sv(1, 1, 0, 1, 1, 0)
        m = RotationMap([[0, 1, 2, 3], [4, 5]], {0: 1, 1: 0, 2: 4, 4: 2, 3: 5, 5: 3})
        with pytest.raises(MapError):
            PlanarInstance(m, (f, Table((ONE, ONE, ONE, ONE))))

    def test_random_instances_balanced(self):
        rng = random.Random(60)
        for seed in range(10):
            m = medial_of_random_plane_graph(rng.randint(3, 8), seed)
            inst = uniform_instance(m, sv(1, 1, 0, 1, 1, 0))
            dec = decompose(inst)
            assert entry_exit_audit(dec)


class TestTables:
    def test_self_intersection_h_table(self):
        f = sv(2, 3, 0, 5, 7, 0)
        inst = uniform_instance(two_loop_map(), f)
        dec = decompose(inst)
        csp = induced_csp(dec, inst, profile_base=f)
        assert not csp.binary
        (table,) = csp.unary.values()
        # Table 3: a on e=0, x on e=1, for some rotation form
        assert set(table.entries) in (
            {f.a, f.x},
            {f.b, f.y},
        )

    def test_profile_matches_direct_random(self):
        rng = random.Random(61)
        for seed in range(12):
            m = medial_of_random_plane_graph(rng.randint(3, 7), seed + 100)
            f = random_c4i(rng)
            inst = uniform_instance(m, f)
            dec = decompose(inst)
            induced_csp(dec, inst, profile_base=f)  # raises on mismatch

    def test_g1f_profile(self):
        # two circuits meeting twice with k1 = l1 = 1 produce
        # [[a^2, by], [by, x^2]]; the doubled 2-cycle realizes it
        f = sv(2, 3, 0, 5, 7, 0)
        inst = uniform_instance(cycle_medial(2), f)
        dec = decompose(inst)
        csp = induced_csp(dec, inst, profile_base=f)
        if csp.binary:
            vals = set()
            for table in csp.binary.values():
                vals.update(table.entries)
            products = {
                f.a * f.a, f.x * f.x, f.b * f.y, f.a * f.x, f.b * f.b, f.y * f.y
            }
            assert vals <= products


class TestEvaluate:
    def test_matches_brute_on_fixed_instances(self):
        f = sv(1, 1, 0, 1, -1, 0)
        for m in [two_loop_map(), cycle_medial(2), cycle_medial(3), grid_patch(2, 2)]:
            inst = uniform_instance(m, f)
            assert evaluate(inst, profile_base=f) == holant_brute(inst)

    def test_c4ii_doubled_triangle(self):
        rng = random.Random(62)
        for _ in range(5):
            f = random_c4ii(rng)
            inst = uniform_instance(cycle_medial(3), f)
            assert evaluate(inst, profile_base=f) == holant_brute(inst)

    def test_random_c4i_equivalence(self):
        rng = random.Random(63)
        for trial in range(25):
            m = medial_of_random_plane_graph(rng.randint(3, 8), trial + 500)
            if m.edge_count > 20:
                continue
            f = random_c4i(rng)
            inst = uniform_instance(m, f)
            assert evaluate(inst, profile_base=f) == holant_brute(inst)

    def test_random_c4ii_equivalence(self):
        rng = random.Random(64)
        for trial in range(25):
            m = medial_of_random_plane_graph(rng.randint(3, 7), trial + 900)
            if m.edge_count > 18:
                continue
            f = random_c4ii(rng)
            inst = uniform_instance(m, f)
            assert evaluate(inst, profile_base=f) == holant_brute(inst)

    def test_unknown_method_raises_before_any_work(self, monkeypatch):
        from sixvertex import loopspace

        def no_decompose(*args, **kwargs):
            raise AssertionError("decompose ran before the method was checked")

        monkeypatch.setattr(loopspace, "decompose", no_decompose)
        f = sv(1, 1, 0, 1, 1, 0)
        inst = uniform_instance(cycle_medial(3), f)
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            evaluate(inst, profile_base=f, method="bogus")

    def test_empty_instance(self):
        f = sv(1, 1, 0, 1, 1, 0)
        inst = uniform_instance(RotationMap([], {}), f)
        assert evaluate(inst, profile_base=f) == ONE


def small_medials(seed, count, max_edges=18):
    rng = random.Random(seed)
    out = []
    trial = 0
    while len(out) < count:
        m = medial_of_random_plane_graph(rng.randint(3, 7), seed * 100 + trial)
        trial += 1
        if m.edge_count <= max_edges:
            out.append(m)
    return out


class TestWitnessReuse:
    """evaluate tests each distinct induced table once and hands the
    solvers witnesses, so the solvers never re-run membership."""

    def count_calls(self, monkeypatch):
        from sixvertex import cspsolve, loopspace

        seen = {"product": [], "affine": [], "solver": 0}

        def counted(name, real):
            def wrapper(sig):
                seen[name].append(sig.entries)
                return real(sig)

            return wrapper

        def forbidden(sig):
            seen["solver"] += 1
            raise AssertionError("the solvers re-ran membership")

        monkeypatch.setattr(loopspace, "is_product", counted("product", loopspace.is_product))
        monkeypatch.setattr(loopspace, "is_affine", counted("affine", loopspace.is_affine))
        monkeypatch.setattr(cspsolve, "is_product", forbidden)
        monkeypatch.setattr(cspsolve, "is_affine", forbidden)
        return seen

    def test_one_membership_run_per_distinct_table(self, monkeypatch):
        seen = self.count_calls(monkeypatch)
        rng = random.Random(66)
        cases = [(grid_patch(4, 4), sv(1, 2, 0, 2, 1, 0))]
        cases += [(m, random_c4ii(rng)) for m in small_medials(67, 4)]
        cases += [(m, random_c4i(rng)) for m in small_medials(68, 4)]
        for m, f in cases:
            inst = uniform_instance(m, f)
            for key in ("product", "affine"):
                seen[key].clear()
            evaluate(inst, profile_base=f)
            csp = induced_csp(decompose(inst), inst, profile_base=f)
            distinct = {table.entries for table, _ in csp.constraints()}
            for key in ("product", "affine"):
                assert len(seen[key]) == len(set(seen[key]))
                assert set(seen[key]) <= distinct
        assert seen["solver"] == 0

    def test_repeated_tables_tested_once(self, monkeypatch):
        seen = self.count_calls(monkeypatch)
        f = sv(1, 2, 0, 2, 1, 0)
        inst = uniform_instance(grid_patch(5, 5), f)
        evaluate(inst, profile_base=f)
        csp = induced_csp(decompose(inst), inst, profile_base=f)
        n_tables = len(csp.constraints())
        n_distinct = len({table.entries for table, _ in csp.constraints()})
        assert n_distinct < n_tables  # the grid repeats its tables
        assert len(seen["product"]) == n_distinct
        assert seen["affine"] == []

    def test_no_state_between_calls(self, monkeypatch):
        seen = self.count_calls(monkeypatch)
        f = sv(1, 2, 0, 2, 1, 0)
        inst = uniform_instance(grid_patch(3, 3), f)
        evaluate(inst, profile_base=f)
        first = len(seen["product"])
        evaluate(inst, profile_base=f)
        assert len(seen["product"]) == 2 * first


def fresh_copy(m):
    """The same map as a new object, on which nothing has been walked."""
    return RotationMap(m.vertices, dict(enumerate(m.involution)))


class TestDecompositionKeptOnTheMap:
    """decompose walks a map once and keeps the result on the map; every
    check that reads the labels still runs on every call."""

    def test_second_call_and_relabelled_instance_share_one_object(self):
        for m in [grid_patch(3, 3), *small_medials(77, 3)]:
            assert m.circuit_decomposition is None
            inst = uniform_instance(m, sv(1, 2, 0, 2, 1, 0))
            dec = decompose(inst)
            assert m.circuit_decomposition is dec
            assert decompose(inst) is dec
            assert decompose(inst.relabel([sv(2, 3, 0, 5, 7, 0)] * m.vertex_count)) is dec
            assert decompose(uniform_instance(m, sv(1, W, 0, W**2, W**3, 0))) is dec
            # a copy of the map walks again and finds the same circuits
            again = decompose(uniform_instance(fresh_copy(m), sv(1, 2, 0, 2, 1, 0)))
            assert again is not dec and again == dec

    def test_nonzero_inner_label_on_a_warm_map_raises(self):
        # a c != 0 label is refused on every call, as the base or as a
        # label that is no quarter turn of a c = 0 base
        m = cycle_medial(3)
        f = sv(1, 1, 0, 1, 1, 0)
        dec = decompose(uniform_instance(m, f))
        bad = sv(1, 1, 1, 1, 1, 1)
        for _ in range(2):
            with pytest.raises(LoopSpaceError, match="zero inner pair"):
                evaluate(uniform_instance(m, bad), profile_base=bad)
        one_bad = PlanarInstance(m, (bad,) + (f,) * (m.vertex_count - 1))
        with pytest.raises(LoopSpaceError, match="not a rotation of the base"):
            evaluate(one_bad, profile_base=f)
        assert m.circuit_decomposition is dec

    def test_two_labels_on_one_map_in_both_orders(self):
        rng = random.Random(78)
        maps = [cycle_medial(3), grid_patch(2, 2), *small_medials(79, 6)]
        for trial, m in enumerate(maps):
            labels = (random_c4i(rng), random_c4ii(rng))
            fresh = [evaluate(uniform_instance(fresh_copy(m), f), profile_base=f) for f in labels]
            if m.edge_count <= HOLANT_CAP:
                assert fresh == [holant_brute(uniform_instance(m, f)) for f in labels], trial
            for step in (1, -1):
                warm = fresh_copy(m)
                got = [evaluate(uniform_instance(warm, f), profile_base=f) for f in labels[::step]]
                assert got[::step] == fresh, trial

    def test_torus_raises_the_planarity_bug_on_every_call(self):
        """The 3 x 3 torus grid fails the entry/exit audit; the audit runs on
        every call, so the kept decomposition does not hide it."""
        m = torus_grid(3)
        f = sv(1, 2, 0, 2, 1, 0)
        for _ in range(2):
            with pytest.raises(LoopSpaceError, match=r"\(planarity bug\)"):
                evaluate(uniform_instance(m, f), profile_base=f)
        assert m.circuit_decomposition is not None

    def test_a_walk_that_raises_keeps_nothing(self, monkeypatch):
        from sixvertex import loopspace

        def failing(m):
            raise LoopSpaceError("twin closure failed to close a circuit")

        m = cycle_medial(3)
        inst = uniform_instance(m, sv(1, 1, 0, 1, 1, 0))
        with monkeypatch.context() as patch:
            patch.setattr(loopspace, "_walk", failing)
            for _ in range(2):
                with pytest.raises(LoopSpaceError, match="twin closure"):
                    decompose(inst)
                assert m.circuit_decomposition is None
        assert decompose(inst) is m.circuit_decomposition is not None


def circuit_sides(dec):
    """Per half-edge, its circuit and whether it enters its vertex, read
    off the walk's tags alone (2 * circuit, + 1 when it leaves)."""
    circuit_of, enters = {}, set()
    for h, tag in enumerate(dec.tags):
        circuit_of[h] = tag >> 1
        if not tag & 1:
            enters.add(h)
    return circuit_of, enters


def assert_tables_equal_plain_factor_products(inst, f):
    """The induced tables of `inst` equal, entrywise, the per-vertex
    products of the vertex factors, multiplied one vertex at a time.  The
    reference reads only the circuits and the labels: which circuits meet
    at each vertex and each half-edge's direction, not the decomposition's
    pair keys or local codes."""
    dec = decompose(inst)
    csp = induced_csp(dec, inst, profile_base=f)
    circuit_of, enters = circuit_sides(dec)
    rotations = inst.map.vertices
    by_pair, by_self = {}, {}
    for vid, rot in enumerate(rotations):
        met = sorted({circuit_of[h] for h in rot})
        if len(met) == 2:
            by_pair.setdefault(tuple(met), []).append(vid)
        else:
            by_self.setdefault(met[0], []).append(vid)

    def plain(vertices, bits):
        acc = ONE
        for vid in vertices:
            args = [
                bits[circuit_of[h]] if h in enters else 1 - bits[circuit_of[h]]
                for h in rotations[vid]
            ]
            acc = acc * inst.labels[vid].value(*args)
        return acc

    assert set(csp.binary) == set(by_pair)
    assert set(csp.unary) == set(by_self)
    for (i, j), vertices in by_pair.items():
        expected = tuple(
            plain(vertices, {i: b, j: bp}) for b in (0, 1) for bp in (0, 1)
        )
        assert csp.binary[(i, j)].entries == expected
    for i, vertices in by_self.items():
        expected = tuple(plain(vertices, {i: b}) for b in (0, 1))
        assert csp.unary[i].entries == expected


def reference_vertex_fields(inst, dec):
    """Each vertex's pair key and local code by the definition: x1 is the
    enter of the lower circuit (at a self-intersection, the enter whose
    ccw-successor is the other enter), and the vertex is an entry when
    the other enter is the ccw-successor of x1."""
    circuit_of, enters = circuit_sides(dec)
    pairs, codes = [], []
    for rot in inst.map.vertices:
        e1 = rot[0] if rot[0] in enters else rot[2]
        e2 = rot[1] if rot[1] in enters else rot[3]
        c1, c2 = circuit_of[e1], circuit_of[e2]
        if c1 > c2:
            e1, e2, c1, c2 = e2, e1, c2, c1
        s1, s2 = rot.index(e1), rot.index(e2)
        follows = (s1 + 1) % 4 == s2
        if c1 == c2:
            x1 = s1 if follows else s2
            codes.append(x1 * SLOT + SELF)
        else:
            codes.append(s1 * SLOT + (ENTRY if follows else 0))
        pairs.append(c1 * dec.k + c2)
    return tuple(pairs), tuple(codes)


# random medials of 5 to 1200 edges and grids, for the checks against the
# plain references
REFERENCE_MAPS = [
    *(medial_of_random_plane_graph(n, seed) for seed, n in enumerate((5, 9, 17, 40, 150, 600, 1200))),
    grid_patch(2, 2),
    grid_patch(5, 7),
    grid_patch(12, 12),
]


def reference_audit(dec):
    """The entry/exit audit one vertex at a time: +1 per entry vertex and -1
    per exit vertex of each circuit pair."""
    balance = Counter()
    for pair, code in zip(dec.pairs, dec.codes):
        if not code & SELF:
            balance[pair] += 1 if code & ENTRY else -1
    return not any(balance.values())


def value_equal_labelings(m, f):
    """Three labelings of `m` by labels equal to f: one shared object, a
    value-equal copy at every vertex, and at every vertex a distinct object
    turned back to f through quarter turns."""
    n = m.vertex_count
    return {
        "shared": uniform_instance(m, f),
        "copies": PlanarInstance(m, tuple(SixVertexSignature(*f.tuple()) for _ in range(n))),
        "turned": PlanarInstance(m, tuple(f.rotate(1 + v % 3).rotate(3 - v % 3) for v in range(n))),
    }


class TestVertexClasses:
    """The decomposition keeps each (pair key, local code) with its vertex
    count; the audit and an instance with one label object read those, and
    only an instance with more than one label object counts its vertices."""

    MAPS = [*REFERENCE_MAPS, *small_medials(80, 6), two_loop_map(), cycle_medial(2), cycle_medial(5)]

    def test_class_counts_equal_a_per_vertex_count(self):
        """On every map, and on a copy made by dataclasses.replace with
        every entry and exit swapped, which must derive its own classes."""
        loops = selfs = 0
        for m in self.MAPS:
            dec = decompose(uniform_instance(m, sv(1, 2, 0, 2, 1, 0)))
            swapped = tuple(code if code & SELF else code ^ ENTRY for code in dec.codes)
            for d in (dec, dataclasses.replace(dec, codes=swapped)):
                counts = Counter({(pair, code): n for pair, code, n in d.classes})
                assert len(counts) == len(d.classes)
                assert counts == Counter(zip(d.pairs, d.codes))
            loops += sum(m.vertex_of[h] == m.vertex_of[k] for h, k in enumerate(m.involution))
            selfs += sum(1 for code in dec.codes if code & SELF)
        assert loops and selfs

    def test_audit_over_classes_equals_the_per_vertex_audit(self):
        verdicts = set()
        maps = self.MAPS + [torus_grid(3), torus_grid(4)]
        for m in maps:
            dec = decompose(uniform_instance(m, sv(1, 2, 0, 2, 1, 0)))
            forged = []
            for v in range(0, len(dec.codes), 7):
                codes = list(dec.codes)
                codes[v] ^= ENTRY  # toggles an entry/exit, or a self-intersection's slot
                forged.append(dataclasses.replace(dec, codes=tuple(codes)))
            for d in [dec, *forged]:
                verdict = entry_exit_audit(d)
                assert verdict == reference_audit(d)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_torus_raises_under_every_labeling_on_every_call(self):
        m = torus_grid(3)
        f = sv(1, 2, 0, 2, 1, 0)
        for inst in value_equal_labelings(m, f).values():
            for _ in range(2):
                with pytest.raises(LoopSpaceError, match=r"\(planarity bug\)"):
                    evaluate(inst, profile_base=f)

    def test_value_equal_labelings_give_one_csp_and_value(self):
        rng = random.Random(81)
        maps = [two_loop_map(), cycle_medial(3), grid_patch(2, 2), *small_medials(82, 6)]
        maps += REFERENCE_MAPS[4:7]  # 300 to 2400 edges, past the brute-force cap
        checked = 0
        for trial, m in enumerate(maps):
            f = random_c4i(rng) if trial % 2 else random_c4ii(rng)
            csps, values = [], []
            for inst in value_equal_labelings(m, f).values():
                csp = induced_csp(decompose(inst), inst, profile_base=f)
                csps.append((
                    csp.n_vars,
                    {ij: t.entries for ij, t in csp.binary.items()},
                    {i: t.entries for i, t in csp.unary.items()},
                ))
                values.append(evaluate(inst, profile_base=f))
            assert csps[0] == csps[1] == csps[2], trial
            assert values[0] == values[1] == values[2], trial
            if m.edge_count <= HOLANT_CAP:
                assert values[0] == holant_brute(uniform_instance(m, f)), trial
                checked += 1
        assert checked == 9

    def test_only_an_instance_with_several_label_objects_counts_its_vertices(self, monkeypatch):
        from sixvertex import loopspace

        calls = []
        real = loopspace._count_per_label

        def counted(dec, labels):
            calls.append(len(labels))
            return real(dec, labels)

        monkeypatch.setattr(loopspace, "_count_per_label", counted)
        f = sv(1, 2, 0, 2, 1, 0)
        for m in [grid_patch(4, 4), *small_medials(83, 3)]:
            labelings = value_equal_labelings(m, f)
            calls.clear()
            for _ in range(2):
                evaluate(labelings["shared"], profile_base=f)
                induced_csp(decompose(labelings["shared"]), labelings["shared"], profile_base=f)
            assert calls == []
            for name in ("copies", "turned"):
                evaluate(labelings[name], profile_base=f)
            assert calls == [m.vertex_count] * 2

    def test_the_label_test_costs_no_eq(self, monkeypatch):
        """Telling one label object from several takes no __eq__ of
        labels: every vertex holds an equal copy, and nothing compares them
        before they are counted by id."""
        from sixvertex import loopspace

        class Counted(Exception):
            pass

        def stop(dec, labels):
            raise Counted

        eq_calls = []
        real_eq = SixVertexSignature.__eq__

        def eq(self, other):
            eq_calls.append(1)
            return real_eq(self, other)

        f = sv(1, 2, 0, 2, 1, 0)
        inst = value_equal_labelings(grid_patch(4, 4), f)["copies"]
        dec = decompose(inst)
        monkeypatch.setattr(loopspace, "_count_per_label", stop)
        monkeypatch.setattr(SixVertexSignature, "__eq__", eq)
        with pytest.raises(Counted):
            induced_csp(dec, inst, profile_base=f)
        assert eq_calls == []


class TestInducedTables:
    def test_tables_equal_plain_factor_products(self):
        rng = random.Random(69)
        for trial, m in enumerate(small_medials(70, 10, max_edges=40)):
            f = random_c4i(rng) if trial % 2 else random_c4ii(rng)
            assert_tables_equal_plain_factor_products(uniform_instance(m, f), f)

    def test_plain_factor_products_up_to_1200_edges(self):
        rng = random.Random(75)
        for trial, m in enumerate(REFERENCE_MAPS):
            f = random_c4i(rng) if trial % 2 else random_c4ii(rng)
            assert_tables_equal_plain_factor_products(uniform_instance(m, f), f)

    def test_plain_factor_products_with_mixed_label_objects(self):
        """Quarter turns of one base and value-equal copies, as separate
        label objects: vertex classes are keyed by the label object's id,
        so value-equal copies and quarter turns fall in different classes
        and must each still give the plain products."""
        rng = random.Random(76)
        for trial, m in enumerate(REFERENCE_MAPS):
            f = random_c4i(rng) if trial % 2 else random_c4ii(rng)
            turns = [f.rotate(r) for r in range(4)]
            copies = [SixVertexSignature(*f.tuple()), SixVertexSignature(*f.tuple())]
            if trial % 3 == 0:  # only value-equal copies of f
                pool = copies
            elif trial % 3 == 1:  # only quarter turns
                pool = turns
            else:
                pool = turns + copies
            labels = tuple(rng.choice(pool) for _ in range(m.vertex_count))
            assert_tables_equal_plain_factor_products(PlanarInstance(m, labels), f)

    def test_vertex_fields_follow_the_circuits(self):
        seen = set()
        for m in REFERENCE_MAPS + [two_loop_map(), cycle_medial(2), cycle_medial(5)]:
            inst = uniform_instance(m, sv(1, 2, 0, 2, 1, 0))
            dec = decompose(inst)
            assert (dec.pairs, dec.codes) == reference_vertex_fields(inst, dec)
            seen.update(dec.codes)
        # every slot, entry and exit vertices and self-intersections
        assert len(seen) == 12

    def test_mixed_rotation_labels(self):
        """Vertices labeled by different rotations of one base, as distinct
        objects: the per-class work keys on label identity and slot, so
        value-equal labels in separate objects must still agree."""
        rng = random.Random(73)
        equal_but_distinct = 0
        for trial, m in enumerate(small_medials(74, 12)):
            f = random_c4i(rng) if trial % 2 else random_c4ii(rng)
            labels = tuple(
                SixVertexSignature(*f.rotate(rng.randrange(4)).tuple())
                for _ in range(m.vertex_count)
            )
            inst = PlanarInstance(m, labels)
            equal_but_distinct += any(
                labels[u] == labels[v] and labels[u] is not labels[v]
                for u in range(len(labels))
                for v in range(u)
            )
            assert evaluate(inst, profile_base=f) == holant_brute(inst), trial
            assert_tables_equal_plain_factor_products(inst, f)
        assert equal_but_distinct

    def test_work_per_class_and_per_distinct_profile(self, monkeypatch):
        """_class_factors runs once per vertex class and _profile_binary
        once per distinct (k, l) vector, however many vertices the instance
        has."""
        from sixvertex import loopspace

        calls = {"factor": 0, "profile": []}
        real_factor = loopspace._class_factors
        real_profile = loopspace._profile_binary

        def factor(*args):
            calls["factor"] += 1
            return real_factor(*args)

        def profile(k, l, base, powers):
            calls["profile"].append((tuple(k), tuple(l)))
            return real_profile(k, l, base, powers)

        monkeypatch.setattr(loopspace, "_class_factors", factor)
        monkeypatch.setattr(loopspace, "_profile_binary", profile)
        f = sv(1, 2, 0, 2, 1, 0)
        forms = [f.rotate(r) for r in range(4)]
        factor_calls = []
        for size in (4, 8):
            inst = uniform_instance(grid_patch(size, size), f)
            dec = decompose(inst)
            calls["factor"] = 0
            calls["profile"].clear()
            induced_csp(dec, inst, profile_base=f)
            classes = {(id(inst.labels[v]), code) for v, code in enumerate(dec.codes)}
            assert calls["factor"] == len(classes)
            factor_calls.append(calls["factor"])
            profiles = {}
            for v, (pair, code) in enumerate(zip(dec.pairs, dec.codes)):
                if code & SELF:
                    continue
                k, l = profiles.setdefault(pair, ([0] * 4, [0] * 4))
                r = forms.index(inst.labels[v].rotate(code // SLOT))
                if code & ENTRY:
                    k[r] += 1
                else:
                    l[(r - 1) % 4] += 1
            expected = {(tuple(k), tuple(l)) for k, l in profiles.values()}
            assert len(expected) < len(profiles)  # the grid repeats its profiles
            assert sorted(calls["profile"]) == sorted(expected)
        assert factor_calls[0] == factor_calls[1]

    def test_one_power_per_distinct_value_and_exponent(self, monkeypatch):
        """Within one induced_csp call the direct tables and the profiles
        share one power cache: Scalar.__pow__ runs at most once per
        distinct (value, exponent) pair, and never for a value in mu_8,
        whose powers are turns of w."""
        real_pow = Scalar.__pow__
        seen = Counter()

        def counted(value, exponent):
            seen[value, exponent] += 1
            return real_pow(value, exponent)

        monkeypatch.setattr(Scalar, "__pow__", counted)
        cases = [
            (grid_patch(8, 8), sv(2, 3, 0, 5, 7, 0), True),
            (medial_of_random_plane_graph(60, 4), SixVertexSignature(ONE, W, ZERO, W * W, W**3, ZERO), False),
        ]
        for m, f, powered in cases:
            inst = uniform_instance(m, f)
            dec = decompose(inst)
            seen.clear()
            induced_csp(dec, inst, profile_base=f)
            if powered:
                assert seen and max(seen.values()) == 1
            else:
                assert not seen

    def test_form_misindex_raises(self, monkeypatch):
        """Mis-indexing the form of any single rotation breaks the
        comparison of direct and profile tables."""
        from sixvertex import loopspace

        f = sv(2, 3, 0, 5, 7, 0)
        inst = uniform_instance(grid_patch(3, 3), f)
        dec = decompose(inst)
        real = loopspace._form_indexer
        rotations = {code // SLOT for code in dec.codes}
        assert len(rotations) > 1
        for target in rotations:

            def wrong(base_forms, label, rotation, target=target):
                r = real(base_forms, label, rotation)
                return (r + 1) % 4 if rotation == target else r

            monkeypatch.setattr(loopspace, "_form_indexer", wrong)
            with pytest.raises(LoopSpaceError):
                induced_csp(dec, inst, profile_base=f)

    def test_profile_mismatch_still_raises(self, monkeypatch):
        from sixvertex import loopspace

        f = sv(2, 3, 0, 5, 7, 0)
        inst = uniform_instance(grid_patch(2, 2), f)
        dec = decompose(inst)
        assert induced_csp(dec, inst, profile_base=f).binary
        monkeypatch.setattr(
            loopspace, "_profile_binary", lambda *args: Table((ONE, ONE, ONE, ZERO))
        )
        with pytest.raises(LoopSpaceError):
            induced_csp(dec, inst, profile_base=f)


# outer values that coincide or are powers of one another, so that unequal
# exponent vectors can still give equal values: y = b and x = y^2; all four
# equal; and 2 w^t, none in mu_8
COINCIDING_LABELS = [
    sv(1, 2, 0, 4, 2, 0),
    sv(2, 2, 0, 2, 2, 0),
    SixVertexSignature(rational(2), 2 * W, ZERO, 2 * W**2, 2 * W**3, ZERO),
]


class TestPackedVectors:
    """induced_csp compares direct and profile tables as packed exponent
    vectors and falls back to their values when the vectors differ."""

    @pytest.mark.parametrize("kind", ["binary", "unary"])
    def test_equal_values_in_a_fresh_profile_object_pass(self, monkeypatch, kind):
        from sixvertex import loopspace

        name = f"_profile_{kind}"
        real = getattr(loopspace, name)
        copies = []

        def fresh(*args):
            table = real(*args)
            copy = Table(table.entries)
            copies.append(copy)
            return copy

        monkeypatch.setattr(loopspace, name, fresh)
        f = sv(2, 3, 0, 5, 7, 0)
        for m in [grid_patch(4, 4), medial_of_random_plane_graph(60, 4)]:
            inst = uniform_instance(m, f)
            csp = induced_csp(decompose(inst), inst, profile_base=f)
            tables = {id(t) for t in (*csp.binary.values(), *csp.unary.values())}
            assert not tables & {id(copy) for copy in copies}
        assert copies

    def test_unary_profile_mismatch_raises(self, monkeypatch):
        from sixvertex import loopspace

        f = sv(2, 3, 0, 5, 7, 0)
        inst = uniform_instance(two_loop_map(), f)
        dec = decompose(inst)
        assert induced_csp(dec, inst, profile_base=f).unary
        monkeypatch.setattr(
            loopspace, "_profile_unary", lambda *args: Table((ONE, ZERO))
        )
        with pytest.raises(LoopSpaceError, match="h_0"):
            induced_csp(dec, inst, profile_base=f)

    @pytest.mark.parametrize("f", COINCIDING_LABELS, ids=["powers", "equal", "c4ii"])
    def test_coinciding_values_give_the_plain_products(self, f):
        for m in REFERENCE_MAPS:
            assert_tables_equal_plain_factor_products(uniform_instance(m, f), f)

    @pytest.mark.parametrize("f", COINCIDING_LABELS, ids=["powers", "equal", "c4ii"])
    def test_coinciding_values_match_brute(self, f):
        for m in small_medials(77, 6) + [two_loop_map(), cycle_medial(3), grid_patch(2, 2)]:
            inst = uniform_instance(m, f)
            assert evaluate(inst, profile_base=f) == holant_brute(inst)


class TestMethods:
    def test_forced_methods_match_brute(self):
        from sixvertex.cspsolve import NotAffine, NotProduct

        rng = random.Random(71)
        checked = {"product": 0, "affine": 0}
        for trial, m in enumerate(small_medials(72, 12)):
            f = random_c4i(rng) if trial % 2 else random_c4ii(rng)
            inst = uniform_instance(m, f)
            expected = holant_brute(inst)
            for method in checked:
                try:
                    value = evaluate(inst, profile_base=f, method=method)
                except (NotProduct, NotAffine):
                    continue
                assert value == expected, (trial, method)
                checked[method] += 1
        assert all(checked.values()), checked
