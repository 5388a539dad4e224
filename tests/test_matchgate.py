import random

import pytest
from hypothesis import given, settings, strategies as st

from sixvertex import loopspace, matchgate
from sixvertex.cspsolve import NotAffine
from sixvertex.instance import (
    MapError,
    RotationMap,
    cycle_medial,
    grid_patch,
    medial_of_random_plane_graph,
    uniform_instance,
)
from sixvertex.matchgate import (
    _DISEQ_PATH,
    _SIGNED_EQ_PATH,
    PlaneGadget,
    SynthesisError,
    _assemble,
    _build,
    _chain_halves,
    _hat_gadget,
    _image_template_general,
    _image_template_paths,
    _image_template_sides,
    _is_chain,
    _kasteleyn_matrix,
    _label_gadgets,
    _matching_sign,
    _scaled_propto,
    _split_chain_vertices,
    _wheel_applies,
    _wheel_core,
    add_flip_pigtail,
    fkt_eval,
    fkt_eval_hat,
    kasteleyn_orient,
    perfect_matching,
    pfaffian_sparse,
    synthesize,
    synthesize_even_image,
)
from sixvertex.membership import is_matchgate, is_matchgate_hat
from sixvertex.oracle import holant_brute
from sixvertex.scalar import I, ONE, W, ZERO, Scalar, rational
from sixvertex.signature import (
    SixVertexSignature,
    compose_n,
    hadamard_image,
)


def sv(*vals):
    return SixVertexSignature.from_values(*vals)


def rand_scalar(rng, span=3):
    return rational(rng.randint(-span, span))


def random_matchgate(rng):
    """Random f with ax = cz - by over small integers."""
    style = rng.random()
    if style < 0.25:
        # c = z = 0, ax = -by
        a, b, x = (rational(rng.choice([1, 2, -1, -2])) for _ in range(3))
        y = -a * x / b
        return SixVertexSignature(a, b, ZERO, x, y, ZERO)
    if style < 0.4:
        # sparse: support in one outer pair after rotation
        a, b = rand_scalar(rng), rand_scalar(rng)
        return SixVertexSignature(a, b, ZERO, ZERO, ZERO, ZERO).rotate(
            rng.randrange(4)
        )
    b, c, z, y = (rand_scalar(rng) for _ in range(4))
    a = rational(rng.choice([1, 2, -1]))
    x = (c * z - b * y) / a
    return SixVertexSignature(a, b, c, x, y, z)


def random_matchgate_hat(rng):
    eps = rational(rng.choice([1, -1]))
    if rng.random() < 0.5:
        b, c = rand_scalar(rng), rand_scalar(rng)
        return SixVertexSignature(ZERO, b, c, ZERO, eps * b, eps * c)
    a, c = rand_scalar(rng), rand_scalar(rng)
    return SixVertexSignature(a, ZERO, c, eps * a, ZERO, eps * c)


def dense_from_sparse(n, entries):
    m = [[ZERO] * n for _ in range(n)]
    for (u, v), w in entries.items():
        m[u][v] = m[u][v] + w
        m[v][u] = m[v][u] - w
    return m


def pfaffian_dense(matrix):
    """Textbook exact Pfaffian by elimination; odd dimension gives 0.  The
    reference for pfaffian_sparse."""
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            if matrix[i][j] != -matrix[j][i]:
                raise ValueError("matrix is not skew-symmetric")
    if n % 2:
        return ZERO
    a = [row[:] for row in matrix]
    sign = ONE
    result = ONE
    idx = 0
    while idx < n:
        pivot = None
        for j in range(idx + 1, n):
            if not a[idx][j].is_zero():
                pivot = j
                break
        if pivot is None:
            return ZERO
        if pivot != idx + 1:
            a[idx + 1], a[pivot] = a[pivot], a[idx + 1]
            for row in a:
                row[idx + 1], row[pivot] = row[pivot], row[idx + 1]
            sign = -sign
        piv = a[idx][idx + 1]
        result = result * piv
        for i in range(idx + 2, n):
            for j in range(idx + 2, n):
                a[i][j] = a[i][j] + (
                    a[idx][j] * a[idx + 1][i] - a[idx][i] * a[idx + 1][j]
                ) / piv
        idx += 2
    return sign * result


def det_exact(matrix):
    n = len(matrix)
    a = [row[:] for row in matrix]
    det = ONE
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col]
        inv = a[col][col].inv()
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor.is_zero():
                continue
            for c in range(col, n):
                a[r][c] = a[r][c] - factor * a[col][c]
    return det


def rand_field(rng):
    """A random element of Q(zeta_8) with small coefficients."""
    return Scalar(*(rng.randint(-2, 2) for _ in range(4)), rng.choice([1, 1, 2, 3]))


def congruent_entries(k, m):
    """The upper entries of M^T K M for a skew K and a square or wide M.

    Every entry of the product is a sum of many terms, so eliminating it
    cancels fill-in to exact zero: when M is 2m x n with 2m < n the matrix
    has rank at most 2m and the last Schur complement vanishes entirely."""
    rows, n = len(m), len(m[0])
    entries = {}
    for u in range(n):
        for v in range(u + 1, n):
            total = ZERO
            for a in range(rows):
                if m[a][u].is_zero():
                    continue
                for b in range(rows):
                    if not m[b][v].is_zero() and not k[a][b].is_zero():
                        total = total + m[a][u] * k[a][b] * m[b][v]
            if not total.is_zero():
                entries[(u, v)] = total
    return entries


def min_degree_pivots(n, entries):
    """The pivot pairs (i, j) and pivots A[i][j] of min-degree elimination,
    found the plain way on the Schur complements: i is the live vertex of
    least (degree, index), j its neighbour of least (degree, index).  The
    reference for pfaffian_sparse's pivot order."""
    rows = {v: {} for v in range(n)}
    for (u, v), w in entries.items():
        if not w.is_zero():
            rows[u][v], rows[v][u] = w, -w
    pairs, pivots = [], []
    while rows:
        i = min(rows, key=lambda v: (len(rows[v]), v))
        if not rows[i]:
            break
        j = min(rows[i], key=lambda v: (len(rows[v]), v))
        piv = rows[i][j]
        pairs.append((i, j))
        pivots.append(piv)
        row_i, row_j = rows.pop(i), rows.pop(j)
        for row in rows.values():
            row.pop(i, None)
            row.pop(j, None)
        for u, wju in row_j.items():
            for v, wiv in row_i.items():
                if u in (i, j) or v in (i, j) or u == v:
                    continue
                cur = rows[u].get(v, ZERO) + wiv * wju / piv
                if cur.is_zero():
                    rows[u].pop(v, None)
                    rows[v].pop(u, None)
                else:
                    rows[u][v], rows[v][u] = cur, -cur
    return pairs, pivots


def rand_rational(rng):
    """A random nonzero rational, mostly not a unit, over mixed denominators."""
    return rational(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 1, 2, 3, 4, 6]))


def random_skew(rng, n, density, value=rand_field):
    entries = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                entries[(u, v)] = value(rng)
    return entries


class TestPfaffian:
    def test_2x2(self):
        u = rational(5)
        m = [[ZERO, u], [-u, ZERO]]
        assert pfaffian_dense(m) == u

    def test_4x4_textbook(self):
        rng = random.Random(70)
        vals = {key: rand_scalar(rng) for key in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}
        m = dense_from_sparse(4, vals)
        expected = (
            vals[(0, 1)] * vals[(2, 3)]
            - vals[(0, 2)] * vals[(1, 3)]
            + vals[(0, 3)] * vals[(1, 2)]
        )
        assert pfaffian_dense(m) == expected
        assert pfaffian_sparse(4, vals) == expected

    def test_odd_dimension(self):
        assert pfaffian_dense([[ZERO]]) == ZERO
        assert pfaffian_sparse(3, {(0, 1): ONE}) == ZERO

    def test_square_equals_det(self):
        rng = random.Random(71)
        for n in (4, 6, 8, 10, 12):
            entries = {}
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.6:
                        entries[(u, v)] = rand_scalar(rng)
            m = dense_from_sparse(n, entries)
            pf_d = pfaffian_dense(m)
            pf_s = pfaffian_sparse(n, entries)
            assert pf_d == pf_s
            assert pf_d * pf_d == det_exact(m)
        # Q(zeta_8) entries, up to n = 24 (det only up to 16: it is slow)
        rng = random.Random(76)
        for _ in range(40):
            n = rng.choice([2, 4, 6, 8, 10, 12, 16, 20, 24])
            entries = random_skew(rng, n, rng.choice([0.1, 0.25, 0.5, 0.9]))
            m = dense_from_sparse(n, entries)
            pf = pfaffian_sparse(n, entries)
            assert pf == pfaffian_dense(m)
            if n <= 16:
                assert pf * pf == det_exact(m)

    def test_unimodular_congruence_cancels(self):
        """Pf(M^T K M) = det(M) Pf(K) = Pf(K) for unit upper triangular M;
        the congruence makes Schur updates cancel to exact zero."""
        rng = random.Random(77)
        nonzero = 0
        for n, density in [(8, 0.3), (12, 0.25), (16, 0.2), (24, 0.2), (24, 0.3)]:
            k_entries = random_skew(rng, n, density)
            k = dense_from_sparse(n, k_entries)
            m = [
                [
                    ONE if a == u
                    else rational(rng.choice([-1, 1])) if a < u and rng.random() < density
                    else ZERO
                    for u in range(n)
                ]
                for a in range(n)
            ]
            entries = congruent_entries(k, m)
            pf = pfaffian_sparse(n, entries)
            assert pf == pfaffian_sparse(n, k_entries)
            assert pf == pfaffian_dense(dense_from_sparse(n, entries))
            nonzero += not pf.is_zero()
        assert nonzero >= 1

    def test_low_rank_is_singular(self):
        """A complete skew matrix of rank 2m < n: every entry left after m
        pivots must cancel to exact zero, and the Pfaffian is 0."""
        rng = random.Random(78)
        for n, half_rank in [(6, 2), (12, 3), (20, 6), (24, 11)]:
            k = dense_from_sparse(2 * half_rank, random_skew(rng, 2 * half_rank, 1.0))
            m = [
                [rational(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(n)]
                for _ in range(2 * half_rank)
            ]
            entries = congruent_entries(k, m)
            assert len(entries) == n * (n - 1) // 2
            assert pfaffian_sparse(n, entries) == ZERO
            assert pfaffian_dense(dense_from_sparse(n, entries)) == ZERO

    def test_pivots_in_min_degree_order(self, monkeypatch):
        """Both number types eliminate the pivots plain min-degree
        elimination picks, in its order, so the heap leaves pivot order and
        fill-in unchanged.  The Scalar path inverts each pivot once (at most
        n/2 inverses); the integer path inverts nothing."""
        rng = random.Random(80)
        scalar_cases = [
            (n, random_skew(rng, n, d))
            for n, d in [(12, 0.3), (16, 0.3), (24, 0.2), (24, 0.4)]
        ]
        rational_cases = [
            (n, random_skew(rng, n, d, rand_rational))
            for n, d in [(12, 0.3), (16, 0.3), (24, 0.2), (24, 0.4)]
        ]
        # a ladder: many degree ties, and degrees change as rungs fill in
        ladder = {}
        for t in range(11):
            ladder[(2 * t, 2 * t + 1)] = ONE
            ladder[(2 * t, 2 * t + 2)] = ONE
            ladder[(2 * t + 1, 2 * t + 3)] = -ONE
        rational_cases.append((24, ladder))
        scalar_cases.append((24, {key: w * W for key, w in ladder.items()}))
        cases = [(n, e, True) for n, e in rational_cases] + [(n, e, False) for n, e in scalar_cases]
        wants = [min_degree_pivots(n, entries) for n, entries, _ in cases]

        pairs = []
        real_partner = matchgate._partner

        def recording_partner(i, rows):
            j = real_partner(i, rows)
            pairs.append((i, j))
            return j

        inverted = []
        real_inv = Scalar.inv

        def recording_inv(self):
            inverted.append(self)
            return real_inv(self)

        monkeypatch.setattr(matchgate, "_partner", recording_partner)
        monkeypatch.setattr(Scalar, "inv", recording_inv)
        for (n, entries, rational_entries), (want_pairs, want_pivots) in zip(cases, wants):
            pairs.clear()
            inverted.clear()
            pfaffian_sparse(n, entries)
            assert 0 < len(pairs) <= n // 2
            assert pairs == want_pairs
            assert inverted == ([] if rational_entries else want_pivots)

    def test_rational_square_equals_det(self):
        """The integer path: mixed denominators, non-unit pivots, odd n."""
        rng = random.Random(81)
        for _ in range(40):
            n = rng.choice([2, 3, 4, 6, 8, 9, 10, 12, 16, 20, 24])
            entries = random_skew(rng, n, rng.choice([0.1, 0.25, 0.5, 0.9]), rand_rational)
            m = dense_from_sparse(n, entries)
            pf = pfaffian_sparse(n, entries)
            assert pf == pfaffian_dense(m)
            if n <= 12:
                assert pf * pf == det_exact(m)
        assert pfaffian_sparse(5, {(0, 1): rational(2, 3), (2, 3): rational(5)}) == ZERO

    def test_rational_unimodular_congruence_cancels(self):
        """Pf(M^T K M) = Pf(K) for unit upper triangular M over Q: on the
        integer path, Schur updates cancel to exact zero mid-elimination."""
        rng = random.Random(82)
        nonzero = 0
        for n, density in [(8, 0.3), (12, 0.25), (16, 0.2), (24, 0.2), (24, 0.3)]:
            k_entries = random_skew(rng, n, density, rand_rational)
            k = dense_from_sparse(n, k_entries)
            m = [
                [
                    ONE if a == u
                    else rational(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
                    if a < u and rng.random() < density
                    else ZERO
                    for u in range(n)
                ]
                for a in range(n)
            ]
            entries = congruent_entries(k, m)
            pf = pfaffian_sparse(n, entries)
            assert pf == pfaffian_sparse(n, k_entries)
            assert pf == pfaffian_dense(dense_from_sparse(n, entries))
            nonzero += not pf.is_zero()
        assert nonzero >= 1

    def test_rational_low_rank_is_singular(self):
        """A complete rational skew matrix of rank 2m < n, odd n included:
        every integer entry left after m pivots cancels to exact zero."""
        rng = random.Random(83)
        for n, half_rank in [(6, 2), (9, 3), (12, 3), (20, 6), (24, 11)]:
            k = dense_from_sparse(2 * half_rank, random_skew(rng, 2 * half_rank, 1.0, rand_rational))
            m = [
                [rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 5])) for _ in range(n)]
                for _ in range(2 * half_rank)
            ]
            entries = congruent_entries(k, m)
            assert len(entries) == n * (n - 1) // 2
            assert pfaffian_sparse(n, entries) == ZERO
            assert pfaffian_dense(dense_from_sparse(n, entries)) == ZERO

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rational_matches_dense_reference(self, data):
        n = data.draw(st.integers(0, 24), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        support = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="support") if pairs else []
        entries = {
            key: Scalar.from_rational(
                data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=6))
            )
            for key in support
        }
        assert pfaffian_sparse(n, entries) == pfaffian_dense(dense_from_sparse(n, entries))


def torus_grid(k):
    """The k x k grid on the torus: at vertex (r, c) the half-edges
    4v .. 4v+3 run right, up, left and down, counterclockwise."""
    vertex = lambda r, c: (r % k) * k + c % k
    involution = {}
    for r in range(k):
        for c in range(k):
            v = vertex(r, c)
            right, up = 4 * vertex(r, c + 1) + 2, 4 * vertex(r + 1, c) + 3
            involution.update({4 * v: right, right: 4 * v, 4 * v + 1: up, up: 4 * v + 1})
    return RotationMap([[4 * v + t for t in range(4)] for v in range(k * k)], involution)


def is_kasteleyn(m, direction):
    """Whether every face of m but the first of each connected component
    has an odd number of half-edges running along their edge."""
    comp_of, _ = m.component_ids()
    rooted = set()
    for face in m.faces():
        comp = comp_of[m.vertex_of[face[0]]]
        if comp not in rooted:
            rooted.add(comp)
            continue
        agree = 0
        for h in face:
            k = m.involution[h]
            agree += (h < k) == (direction[min(h, k)] == 0)
        if agree % 2 == 0:
            return False
    return True


def disjoint_union(*maps):
    """One map with each of maps as a component, half-edges renumbered in
    order."""
    vertices, involution, shift = [], {}, 0
    for m in maps:
        vertices += [[h + shift for h in rot] for rot in m.vertices]
        involution.update({h + shift: k + shift for h, k in enumerate(m.involution)})
        shift += m.half_edge_count
    return RotationMap(vertices, involution)


class TestKasteleyn:
    def test_c4_counts_matchings(self):
        # C4 as a plane map
        m = RotationMap(
            [[0, 7], [1, 2], [3, 4], [5, 6]],
            {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
        )
        directions = [kasteleyn_orient(m, seed) for seed in (0, 1)]
        # seed 1 reverses the three tree edges and so the fourth as well:
        # every vertex switched, which keeps the 4 x 4 Pfaffian
        assert all(directions[1][h] == 1 - directions[0][h] for h, _ in m.edges())
        pfaffians = []
        for direction in directions:
            entries = {}
            for h, hp in m.edges():
                u, v = m.vertex_of[h], m.vertex_of[hp]
                tail = u if direction[h] == 0 else v
                key = (min(u, v), max(u, v))
                entries[key] = ONE if tail == key[0] else -ONE
            pfaffians.append(pfaffian_sparse(4, entries))
        assert pfaffians[0] * pfaffians[0] == rational(4)  # |PM(C4)| = 2
        assert pfaffians[1] == pfaffians[0]

    def test_orientation_valid_on_medials(self):
        for seed in range(4):
            m = medial_of_random_plane_graph(6, seed)
            for orientation_seed in (0, 1):
                assert is_kasteleyn(m, kasteleyn_orient(m, orientation_seed))

    @pytest.mark.parametrize(
        "m", [grid_patch(4, 4), medial_of_random_plane_graph(150, 0)], ids=["grid4", "medial300"]
    )
    def test_seeds_give_two_orientations(self, m):
        first, second = kasteleyn_orient(m, 0), kasteleyn_orient(m, 1)
        assert first != second
        assert is_kasteleyn(m, first) and is_kasteleyn(m, second)

    def test_each_component_rooted_at_its_first_face(self):
        m = disjoint_union(cycle_medial(3), grid_patch(3, 3), cycle_medial(1))
        assert m.component_ids()[1] == 3
        for seed in (0, 1):
            assert is_kasteleyn(m, kasteleyn_orient(m, seed))

    def test_edge_on_one_face_raises(self):
        # two crossing loops: a torus map, whose one face borders both loops twice
        m = RotationMap([[0, 1, 2, 3]], {0: 2, 2: 0, 1: 3, 3: 1})
        with pytest.raises(MapError, match="border two faces"):
            kasteleyn_orient(m)

    def test_undecided_edge_raises(self, monkeypatch):
        """The two triangles of the doubled triangle merged into one face
        hand the BFS a cycle of faces, so one edge is never crossed, and the
        pass refuses it instead of orienting it at random."""
        m = cycle_medial(3)  # the doubled triangle: three digons, two triangles
        faces = m.faces()
        inner, outer = [face for face in faces if len(face) == 3]
        merged = [face for face in faces if len(face) == 2] + [inner + outer]
        monkeypatch.setattr(RotationMap, "faces", lambda self: merged)
        with pytest.raises(MapError, match="undecided"):
            kasteleyn_orient(m)

    def test_torus_grid_fails_the_euler_count(self):
        """Every edge of the 3 x 3 torus grid borders two faces, so only the
        count V - E + F = C + R can refuse it: 9 - 18 + 9 = 0, not 2."""
        m = torus_grid(3)
        assert len(m.faces()) == 9
        with pytest.raises(MapError, match=r"V - E \+ F = 0, not 2; the map is not planar"):
            kasteleyn_orient(m)


def assert_synthesized(f):
    """The gadget of f has matching signature scale * f, scale != 0."""
    gadget, scale = synthesize(f)
    assert not scale.is_zero()
    assert gadget.signature() == [scale * v for v in f.to_table().entries]
    return gadget, scale


def assert_chain_halves(f):
    """f has no wheel, but its halves do, and the halves' gadgets joined by
    the double Disequality have matching signature (s1 s2) f: each gadget's
    16 entries are s1 g1 and s2 g2 (assert_synthesized)."""
    with pytest.raises(SynthesisError):
        synthesize(f)
    g1, g2 = _chain_halves(f)
    _, s1 = assert_synthesized(g1)
    _, s2 = assert_synthesized(g2)
    assert compose_n(g1.scale(s1), g2.scale(s2)) == f.scale(s1 * s2)


class TestSynthesize:
    def test_inner_example(self):
        assert_synthesized(sv(1, 1, 2, 1, 1, 1))

    def test_chain_family(self):
        f = sv(1, 1, 0, 2, -2, 0)
        assert _is_chain(f)
        assert_chain_halves(f)

    def test_not_matchgate_rejected(self):
        with pytest.raises(SynthesisError):
            synthesize(sv(1, 1, 1, 1, 1, 1))

    def test_random_members(self):
        rng = random.Random(72)
        chains = 0
        for _ in range(120):
            f = random_matchgate(rng)
            assert is_matchgate(f)
            if _is_chain(f):
                assert_chain_halves(f)
                chains += 1
            else:
                assert_synthesized(f)
        assert chains >= 20

    def test_even_image_templates(self):
        # a label of witness -1 is synthesized as (a, b, c, a, b, c) and
        # gets the flip pigtail
        rng = random.Random(73)
        for _ in range(80):
            f = random_matchgate_hat(rng)
            even = even_label(f)
            gadget, scale = synthesize_even_image(even)
            assert gadget.signature() == [scale * v for v in hadamard_image(even).entries]
            if is_matchgate_hat(f) == -1:
                flipped = add_flip_pigtail(gadget)
                assert flipped.signature() == [scale * v for v in hadamard_image(f).entries]
        # ab != 0, and a label of witness -1: no template realizes the image
        for outside in (sv(1, 1, 0, 1, 1, 0), sv(0, 1, 2, 0, -1, -2)):
            with pytest.raises(SynthesisError):
                synthesize_even_image(outside)

    def test_wheel_realizes_f_only_at_the_back_shift(self):
        # the wheel on an applicable turn r of f, shifted by -r, realizes
        # f; the other shifts realize f only where a turn of f is a
        # multiple of f, which few random matchgates have
        rng = random.Random(74)
        asymmetric = ab_supported = 0
        for _ in range(150):
            f = random_matchgate(rng)
            if f.is_zero():
                continue
            target = f.to_table().entries
            symmetry = {
                t for t in range(4) if nonzero_multiple(f.rotate(t).to_table().entries, target)
            }
            for turn in range(4):
                turned = f.rotate(turn)
                if not _wheel_applies(turned):
                    continue
                ab_supported += turned.c.is_zero()
                wheel = add_flip_pigtail(_wheel_core(turned))
                realized = {
                    shift
                    for shift in range(4)
                    if nonzero_multiple(wheel.shifted(shift).signature(), target)
                }
                assert realized == {(t - turn) % 4 for t in symmetry}
            asymmetric += symmetry == {0}
        assert asymmetric >= 80 and ab_supported >= 20

    def test_wheel_graph_is_the_core_with_the_pigtail(self):
        gadget, scale = synthesize(sv(1, 1, 2, 1, 1, 1))
        half, one, two = rational(1, 2), ONE, rational(2)
        assert gadget.edges == [
            (0, 1, half), (3, 0, half), (4, 1, one), (4, 2, two), (4, 3, one),
            (0, 5, one), (5, 6, one), (6, 7, one),
        ]
        assert gadget.rotations == [
            [("edge", 0, 0), ("edge", 1, 1), ("edge", 5, 0)],
            [("edge", 2, 1), ("edge", 0, 1), ("open", 1)],
            [("open", 2), ("edge", 3, 1)],
            [("edge", 1, 0), ("edge", 4, 1), ("open", 3)],
            [("edge", 2, 0), ("edge", 3, 0), ("edge", 4, 0)],
            [("edge", 5, 1), ("edge", 6, 0)],
            [("edge", 6, 1), ("edge", 7, 0)],
            [("edge", 7, 1), ("open", 0)],
        ]
        assert (gadget.externals, scale) == ([7, 1, 2, 3], ONE)

    def test_second_shape_images_use_the_turned_template(self):
        # a = 0, b != 0: the image has (q, s) = (-p, -r), and turn 1 swaps
        # q and r into the shape (r, s) = (-p, -q), with (p, r) a multiple
        # of (b+c, b-c)
        two = rational(2)
        cases = [
            (rational(3), ONE, _image_template_general(rational(4), two)),
            (W, two, _image_template_general(W + two, W - two)),
            (ONE, ONE, _image_template_sides()),
            (ONE, -ONE, _image_template_paths(two)),
        ]
        for b, c, template in cases:
            f = SixVertexSignature(ZERO, b, c, ZERO, b, c)
            gadget, scale = synthesize_even_image(f)
            assert gadget == template.shifted(3)
            assert gadget.signature() == [scale * v for v in hadamard_image(f).entries]

    def test_second_shape_hadamard_images(self):
        rng = random.Random(76)
        turned = 0
        two = rational(2)
        for _ in range(80):
            f = even_label(random_matchgate_hat(rng))
            if f.b.is_zero():
                continue
            assert f.a.is_zero()
            image = hadamard_image(f).entries
            p, q, r, s = (image[idx] for idx in (0b0000, 0b0011, 0b0110, 0b0101))
            assert (p, r) == (two * (f.b + f.c), two * (f.b - f.c))
            assert (q, s) == (-p, -r)
            gadget, scale = synthesize_even_image(f)
            if p.is_zero():
                template = _image_template_paths(f.b - f.c)
            elif r.is_zero():
                template = _image_template_sides()
            else:
                template = _image_template_general(f.b + f.c, f.b - f.c)
            assert gadget == template.shifted(3)
            assert gadget.signature() == [scale * v for v in image]
            turned += 1
        assert turned >= 10

    def test_one_oracle_verification_per_synthesis(self, monkeypatch):
        checked = count_calls(monkeypatch, matchgate, "matching_signature")
        # c != 0; (a, b) support on turn 2; c = 0 but z != 0, so turn 1
        for f in (sv(1, 1, 2, 1, 1, 1), sv(0, 0, 0, 1, 2, 0), sv(1, 1, 0, 1, -1, 3)):
            before = len(checked)
            assert_synthesized(f)
            assert len(checked) == before + 2  # synthesize, then the test's check
        # the general template on turns 0 and 1, the sides, the paths
        for f in (
            sv(2, 0, 1, 2, 0, 1),
            sv(0, 3, 1, 0, 3, 1),
            sv(0, 1, 1, 0, 1, 1),
            sv(1, 0, -1, 1, 0, -1),
        ):
            before = len(checked)
            synthesize_even_image(f)
            assert len(checked) == before + 1

    def test_gadget_sizes(self):
        rng = random.Random(77)
        for _ in range(60):
            f = random_matchgate(rng)
            if not _is_chain(f) and not f.is_zero():
                assert synthesize(f)[0].n == 8
            label = random_matchgate_hat(rng)
            pigtail = is_matchgate_hat(label) == -1
            assert _hat_gadget(label)[0].n <= (9 if pigtail else 6)


def even_label(f):
    """(a, b, c, a, b, c): f itself when f has M-hat witness 1; for witness
    -1, the label whose image is that of f with variable 1 flipped."""
    return SixVertexSignature(f.a, f.b, f.c, f.a, f.b, f.c)


def nonzero_multiple(values, target):
    scale = _scaled_propto(values, target)
    return scale is not None and not scale.is_zero()


class TestBuilder:
    EDGES = [(0, 1, ONE), (1, 2, ONE)]

    def test_drops_zero_weight_edges(self):
        g = _build([(0, 1, ZERO), (1, 2, -ONE)], [[1, ("open", 0)], [0, 2], [1, ("open", 1)]])
        assert g.edges == [(1, 2, -ONE)]
        assert g.rotations == [[("open", 0)], [("edge", 0, 0)], [("edge", 0, 1), ("open", 1)]]
        assert g.externals == [0, 2]

    def test_parallel_edge_raises(self):
        with pytest.raises(SynthesisError, match="parallel"):
            _build([(0, 1, ONE), (1, 0, -ONE)], [[1, ("open", 0)], [0, ("open", 1)]])

    def test_rotation_missing_a_port_raises(self):
        for orders in (
            [[1, ("open", 0)], [0], [1, ("open", 1)]],  # vertex 1 misses its edge to 2
            [[1], [0, 2], [1, ("open", 1)]],  # no external 0
        ):
            with pytest.raises(SynthesisError, match="misses or repeats"):
                _build(self.EDGES, orders)

    def test_rotation_repeating_a_port_raises(self):
        for orders in (
            [[1, 1, ("open", 0)], [0, 2], [1, ("open", 1)]],
            [[1, ("open", 0)], [0, 2, ("open", 0)], [1, ("open", 1)]],
        ):
            with pytest.raises(SynthesisError, match="misses or repeats"):
                _build(self.EDGES, orders)

    def test_rotation_naming_a_non_neighbour_raises(self):
        with pytest.raises(SynthesisError, match="no edge"):
            _build(self.EDGES, [[1, 2, ("open", 0)], [0, 2], [1, ("open", 1)]])


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's first
    argument; the wrapper is what callers in the module look up."""
    seen = []
    real = getattr(module, name)

    def counting(arg, *args, **kwargs):
        seen.append(arg)
        return real(arg, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return seen


def two_label_instance(map_, f, g, seed):
    """map_ with each vertex labelled f or g at random, both used."""
    rng = random.Random(seed)
    labels = [rng.choice([f, g]) for _ in range(map_.vertex_count)]
    labels[0], labels[-1] = f, g
    return uniform_instance(map_, f).relabel(labels)


class TestFkt:
    def test_doubled_triangle(self):
        f = sv(1, 1, 2, 1, 1, 1)
        inst = uniform_instance(cycle_medial(3), f)
        assert fkt_eval(inst) == holant_brute(inst)

    def test_zero_vertices(self):
        inst = uniform_instance(RotationMap([], {}), sv(1, 1, 2, 1, 1, 1))
        assert fkt_eval(inst) == ONE

    def test_random_equivalence(self):
        rng = random.Random(74)
        checked = 0
        for trial in range(40):
            m = medial_of_random_plane_graph(rng.randint(3, 7), trial + 2000)
            if m.edge_count > 16:
                continue
            f = random_matchgate(rng)
            inst = uniform_instance(m, f)
            assert fkt_eval(inst) == holant_brute(inst)
            checked += 1
        assert checked >= 20

    def test_two_orientations_agree(self):
        f = sv(1, 1, 2, 1, 1, 1)
        inst = uniform_instance(grid_patch(2, 3), f)
        assert fkt_eval(inst, orientation_seed=0) == fkt_eval(
            inst, orientation_seed=1
        )

    def test_two_labels_against_brute(self):
        pairs = [
            (sv(1, 1, 2, 1, 1, 1), sv(1, 1, 1, 2, 1, 3)),
            (sv(1, 1, 0, 2, -2, 0), sv(1, 1, 2, 1, 1, 1)),  # chain + wheel
            (sv(1, 1, 2, 1, 1, 1), sv(2, 2, 4, 2, 2, 2)),  # equal up to scale
        ]
        for trial, (f, g) in enumerate(pairs):
            for m in (cycle_medial(3), grid_patch(2, 3)):
                inst = two_label_instance(m, f, g, trial)
                assert fkt_eval(inst) == holant_brute(inst)

    def test_one_synthesis_per_distinct_label(self, monkeypatch):
        seen = count_calls(monkeypatch, matchgate, "synthesize")
        f, g = sv(1, 1, 2, 1, 1, 1), sv(1, 1, 1, 2, 1, 3)
        inst = two_label_instance(grid_patch(2, 3), f, g, 0)
        first = fkt_eval(inst)
        assert sorted(map(repr, seen)) == sorted(map(repr, [f, g]))
        assert fkt_eval(inst) == first
        assert len(seen) == 4  # nothing is kept between calls

    def test_grid_agrees_with_loop_space(self):
        f = sv(1, 1, 0, 1, -1, 0)  # split into chain halves; also C4i
        inst = uniform_instance(grid_patch(6, 6), f)
        by_loops = loopspace.evaluate(inst, profile_base=f)
        for seed in (0, 1):
            assert fkt_eval(inst, orientation_seed=seed) == by_loops

    @pytest.mark.parametrize("n_edges, seed", [(100, 0), (120, 1), (150, 2)])
    def test_random_medials_agree_with_loop_space(self, n_edges, seed):
        """Past the brute-force cap (200-300 vertices), FKT, loop space with
        its own solver choice, and each forced #CSP solver that accepts the
        induced tables give one value.  Under (1,1,0,1,-1,0) (C3_M, C4i and
        C4ii) both solvers accept, so the Gauss sum is reached; its Holant
        is 0 on these medials, so (1,2,0,2,-1,0) (C3_M and C4i, tables not
        affine) checks nonzero values."""
        m = medial_of_random_plane_graph(n_edges, seed)
        for f, solvers in (
            (sv(1, 1, 0, 1, -1, 0), ("product", "affine")),
            (sv(1, 2, 0, 2, -1, 0), ("product",)),
        ):
            inst = uniform_instance(m, f)
            value = fkt_eval(inst)
            assert loopspace.evaluate(inst, profile_base=f) == value
            for method in solvers:
                assert loopspace.evaluate(inst, profile_base=f, method=method) == value
        assert not value.is_zero()
        with pytest.raises(NotAffine):
            loopspace.evaluate(inst, profile_base=f, method="affine")

    def test_assembly_leaves_shared_gadget_intact(self):
        f = sv(1, 1, 2, 1, 1, 1)
        gadget, scale = synthesize(f)
        before = [list(r) for r in gadget.rotations], list(gadget.edges), list(gadget.externals)
        inst = uniform_instance(grid_patch(2, 2), f)
        count = inst.map.vertex_count
        _assemble(inst, [gadget] * count, [scale] * count, _DISEQ_PATH)
        assert (gadget.rotations, gadget.edges, gadget.externals) == before

    def test_weights_keyed_by_lower_half_edge(self):
        inst = uniform_instance(grid_patch(2, 3), sv(1, 1, 2, 1, 1, 1))
        gadgets, scales = _label_gadgets(inst, synthesize)
        assembled = _assemble(inst, gadgets, scales, _DISEQ_PATH)
        assert sorted(assembled.weights) == [h for h, _ in assembled.map.edges()]


    def test_non_planar_assembled_map_raises(self, monkeypatch):
        """One gadget with a reversed rotation makes the assembled map
        non-planar (V - E + F = 0 on grid_patch(2, 2)); the Kasteleyn pass,
        which now walks the faces alone, still refuses it."""
        f, g = sv(1, 1, 2, 1, 1, 1), sv(1, 1, 1, 2, 1, 3)
        real_synthesize = matchgate.synthesize

        def twisting(label):
            gadget, scale = real_synthesize(label)
            if label != f:
                return gadget, scale
            rotations = [list(rot) for rot in gadget.rotations]
            rotations[0].reverse()
            return PlaneGadget(rotations, gadget.edges, gadget.externals), scale

        inst = two_label_instance(grid_patch(2, 2), f, g, 0)
        assert fkt_eval(inst) == holant_brute(inst)
        monkeypatch.setattr(matchgate, "synthesize", twisting)
        gadgets, scales = _label_gadgets(inst, twisting)
        with pytest.raises(MapError, match="not planar"):
            _assemble(inst, gadgets, scales, _DISEQ_PATH).map.validate_planar()
        with pytest.raises(MapError):
            fkt_eval(inst)

    def test_one_face_walk_per_evaluation(self, monkeypatch):
        walks = []
        real_faces = RotationMap.faces

        def counting(self):
            walks.append(self.vertex_count)
            return real_faces(self)

        grid = grid_patch(2, 3)
        cases = [
            (fkt_eval, uniform_instance(grid, sv(1, 1, 2, 1, 1, 1))),
            (fkt_eval_hat, uniform_instance(grid, sv(0, 1, 2, 0, 1, 2))),
        ]
        monkeypatch.setattr(RotationMap, "faces", counting)
        for evaluate, inst in cases:
            walks.clear()
            evaluate(inst)
            assert len(walks) == 1


# scales u with value(u f) = u^|V| value(f); 1 + i is not a root of unity
UNIT_SCALES = (W, W**3, I, rational(2), rational(-1, 3), ONE + I)
# a C3_M-only label that is no multiple of a rational signature
COMPLEX_LABEL = SixVertexSignature(ONE, I, ONE, ONE, I, ZERO)


def record_number_types(monkeypatch):
    """Record whether each elimination runs on ints (True) or Scalars."""
    integral = []
    real = matchgate._eliminate

    def recording(n, entries, zero):
        integral.append(isinstance(zero, int))
        return real(n, entries, zero)

    monkeypatch.setattr(matchgate, "_eliminate", recording)
    return integral


class TestUnitNormalization:
    @pytest.mark.parametrize(
        "evaluate, label",
        [(fkt_eval, sv(1, 1, 2, 1, 1, 1)), (fkt_eval, sv(2, 1, 3, 1, 4, 2)), (fkt_eval_hat, sv(0, 1, 2, 0, 1, 2))],
        ids=["wheel", "wheel-fractions", "hat"],
    )
    def test_scaled_labels_against_brute(self, monkeypatch, evaluate, label):
        """value(u f) = u^|V| value(f) for every u, each value checked
        against holant_brute, and every multiple of a rational signature
        eliminated on ints."""
        integral = record_number_types(monkeypatch)
        for m in (cycle_medial(3), grid_patch(2, 3), medial_of_random_plane_graph(5, 1)):
            assert m.edge_count <= 24
            base = evaluate(uniform_instance(m, label))
            assert not base.is_zero()
            for u in UNIT_SCALES:
                inst = uniform_instance(m, label.scale(u))
                value = evaluate(inst)
                assert value == u ** m.vertex_count * base
                assert value == holant_brute(inst)
        assert integral and all(integral)

    def test_label_built_on_its_first_nonzero_entry(self, monkeypatch):
        seen = count_calls(monkeypatch, matchgate, "synthesize")
        f = sv(0, 2, 3, 0, 3, 2)  # c z = b y and a = 0: a matchgate
        assert is_matchgate(f)
        fkt_eval(uniform_instance(cycle_medial(3), f.scale(ONE + I)))
        assert seen == [f.scale(rational(1, 2))]


class TestScalarPath:
    def test_complex_label_against_brute(self, monkeypatch):
        integral = record_number_types(monkeypatch)
        rng = random.Random(90)
        checked = 0
        for trial in range(30):
            m = medial_of_random_plane_graph(rng.randint(3, 7), trial + 3000)
            if m.edge_count > 16:
                continue
            inst = uniform_instance(m, COMPLEX_LABEL)
            value = fkt_eval(inst)
            assert value == holant_brute(inst)
            checked += not value.is_zero()
        assert checked >= 5
        assert integral and not any(integral)

    def test_complex_label_orientation_seeds_agree_at_300_edges(self, monkeypatch):
        integral = record_number_types(monkeypatch)
        inst = uniform_instance(medial_of_random_plane_graph(150, 0), COMPLEX_LABEL)
        assert inst.map.edge_count == 300
        value = fkt_eval(inst, orientation_seed=0)
        assert not value.is_zero()
        assert fkt_eval(inst, orientation_seed=1) == value
        assert integral == [False, False]


CHAIN, WHEEL = sv(1, 1, 0, 2, -2, 0), sv(1, 1, 2, 1, 1, 1)


class TestChainSplit:
    def test_split_instance_is_planar_with_the_same_holant(self):
        nonzero = 0
        instances = [uniform_instance(cycle_medial(3), CHAIN)] + [
            two_label_instance(medial_of_random_plane_graph(5, 3200 + seed), CHAIN, WHEEL, seed)
            for seed in range(4)
        ]
        for inst in instances:
            k = inst.labels.count(CHAIN)
            split = _split_chain_vertices(inst)
            split.map.validate_planar()
            assert split.map.vertex_count == inst.map.vertex_count + k
            assert split.map.edge_count == inst.map.edge_count + 2 * k
            assert not any(_is_chain(label) for label in split.labels)
            value = holant_brute(inst)
            assert holant_brute(split) == value
            nonzero += not value.is_zero()
        assert nonzero >= 2

    def test_instance_without_chain_labels_is_kept(self):
        inst = uniform_instance(grid_patch(2, 3), WHEEL)
        assert _split_chain_vertices(inst) is inst

    def test_synthesize_never_sees_a_chain_label(self, monkeypatch):
        seen = count_calls(monkeypatch, matchgate, "synthesize")
        inst = two_label_instance(grid_patch(2, 3), CHAIN, WHEEL, 0)
        assert fkt_eval(inst) == holant_brute(inst)
        assert sorted(map(repr, seen)) == sorted(map(repr, [*_chain_halves(CHAIN), WHEEL]))

    def test_outside_the_closed_form_raises_before_synthesis(self, monkeypatch):
        f = sv(1, 1, 0, 1, 1, 0)  # c = z = 0 and ax != 0, but ax != -by
        seen = count_calls(monkeypatch, matchgate, "synthesize")
        with pytest.raises(SynthesisError):
            fkt_eval(uniform_instance(cycle_medial(3), f))
        assert seen == []


class TestFktHat:
    def test_two_loop_instance(self):
        m = RotationMap([[0, 1, 2, 3]], {0: 1, 1: 0, 2: 3, 3: 2})
        for f in [sv(0, 1, 2, 0, 1, 2), sv(0, 1, -2, 0, -1, 2)]:
            inst = uniform_instance(m, f)
            assert fkt_eval_hat(inst) == holant_brute(inst)

    def test_two_labels_against_brute(self):
        pairs = [
            (sv(0, 1, 2, 0, 1, 2), sv(0, 1, -2, 0, -1, 2)),
            (sv(1, 0, 2, 1, 0, 2), sv(0, 1, 1, 0, 1, 1)),
        ]
        for trial, (f, g) in enumerate(pairs):
            for seed in range(3):
                inst = two_label_instance(
                    medial_of_random_plane_graph(5, 3100 + seed), f, g, trial
                )
                assert fkt_eval_hat(inst) == holant_brute(inst)

    def test_one_synthesis_per_distinct_label(self, monkeypatch):
        tested = count_calls(monkeypatch, matchgate, "is_matchgate_hat")
        synthesized = count_calls(monkeypatch, matchgate, "synthesize_even_image")
        f, g = sv(0, 1, 2, 0, 1, 2), sv(0, 1, -2, 0, -1, 2)
        inst = two_label_instance(medial_of_random_plane_graph(5, 3100), f, g, 0)
        first = fkt_eval_hat(inst)
        assert (len(tested), len(synthesized)) == (2, 2)
        assert fkt_eval_hat(inst) == first
        assert (len(tested), len(synthesized)) == (4, 4)

    def test_rejected_outside_class(self):
        inst = uniform_instance(cycle_medial(3), sv(1, 1, 1, 1, 1, 1))
        with pytest.raises(SynthesisError):
            fkt_eval_hat(inst)

    def test_random_equivalence(self):
        rng = random.Random(75)
        checked = 0
        for trial in range(40):
            m = medial_of_random_plane_graph(rng.randint(3, 6), trial + 3000)
            if m.edge_count > 14:
                continue
            f = random_matchgate_hat(rng)
            if is_matchgate_hat(f) is None:
                continue
            inst = uniform_instance(m, f)
            assert fkt_eval_hat(inst) == holant_brute(inst)
            checked += 1
        assert checked >= 15


def assembled_graph(inst, joiner):
    """The graph fkt_eval ("diseq", chain-family vertices split first) or
    fkt_eval_hat ("minus-eq") assembles."""
    if joiner == "diseq":
        inst = _split_chain_vertices(inst)
        build, path = synthesize, _DISEQ_PATH
    else:
        build, path = _hat_gadget, _SIGNED_EQ_PATH
    gadgets, scales = _label_gadgets(inst, build)
    return _assemble(inst, gadgets, scales, path)


def ones_pfaffian(assembled, orientation_seed):
    """The Pfaffian of the orientation with every weight 1: sigma times the
    number of perfect matchings.  The reference for the matching sign."""
    _, forward, _ = _kasteleyn_matrix(assembled, orientation_seed)
    ones = {key: ONE if fwd else -ONE for key, fwd in forward.items()}
    return pfaffian_sparse(assembled.map.vertex_count, ones)


def assert_sign_is_reference(assembled):
    """The reference matching's sign is the all-ones Pfaffian's, under the
    orientations of seeds 0 and 1; returns those two Pfaffians, which
    count the same matchings."""
    n = assembled.map.vertex_count
    refs = []
    for seed in (0, 1):
        ref = ones_pfaffian(assembled, seed).as_rational()
        assert ref != 0
        _, forward, adjacency = _kasteleyn_matrix(assembled, seed)
        sign = _matching_sign(n, forward, perfect_matching(n, adjacency))
        assert sign == (1 if ref > 0 else -1)
        refs.append(ref)
    assert abs(refs[0]) == abs(refs[1])
    return refs


JOINER_LABELS = {
    "diseq": (sv(1, 1, 1, 2, 1, 3), sv(1, 1, 0, 1, -1, 0)),  # wheel, chain
    "minus-eq": (sv(0, 1, 2, 0, 1, 2), sv(1, 0, 2, 1, 0, 2)),
}


class TestMatchingSign:
    @pytest.mark.parametrize("joiner", ["diseq", "minus-eq"])
    def test_equals_all_ones_pfaffian_on_grids(self, joiner):
        for k in range(2, 9):
            for label in JOINER_LABELS[joiner]:
                inst = uniform_instance(grid_patch(k, k), label)
                assert_sign_is_reference(assembled_graph(inst, joiner))

    @pytest.mark.parametrize("joiner", ["diseq", "minus-eq"])
    def test_equals_all_ones_pfaffian_on_random_medials(self, joiner):
        rng = random.Random(81)
        edges = []
        flips = 0
        for trial in range(12):
            m = medial_of_random_plane_graph(rng.randint(3, 30), 4000 + trial)
            edges.append(m.edge_count)
            f, g = JOINER_LABELS[joiner]
            inst = two_label_instance(m, f, g, trial)
            refs = assert_sign_is_reference(assembled_graph(inst, joiner))
            flips += refs[0] != refs[1]
        assert max(edges) >= 50
        assert flips  # the seeds are two orientations, not one

    def test_seeds_flip_the_pfaffian_not_the_value(self):
        """Under seeds 0 and 1 the weighted Pfaffian of an assembled graph
        is one value up to sign, the sign differs on some graphs, and
        fkt_eval gives one value."""
        flips = 0
        for trial in range(8):
            m = medial_of_random_plane_graph(4 + 3 * trial, 4100 + trial)
            inst = two_label_instance(m, *JOINER_LABELS["diseq"], trial)
            assembled = assembled_graph(inst, "diseq")
            n = assembled.map.vertex_count
            pf = [pfaffian_sparse(n, _kasteleyn_matrix(assembled, seed)[0]) for seed in (0, 1)]
            assert not pf[0].is_zero() and pf[1] in (pf[0], -pf[0])
            flips += pf[1] == -pf[0]
            assert fkt_eval(inst, orientation_seed=1) == fkt_eval(inst, orientation_seed=0)
        assert flips

    @pytest.mark.parametrize(
        "joiner, evaluate", [("diseq", fkt_eval), ("minus-eq", fkt_eval_hat)]
    )
    def test_no_matching_gives_zero(self, monkeypatch, joiner, evaluate):
        """The f = 0 gadget has an isolated vertex, so the assembled graph has
        no perfect matching: the value is 0 and the matcher is not asked."""
        inst = uniform_instance(grid_patch(2, 2), sv(0, 0, 0, 0, 0, 0))
        assembled = assembled_graph(inst, joiner)
        n = assembled.map.vertex_count
        _, _, adjacency = _kasteleyn_matrix(assembled)
        assert perfect_matching(n, adjacency) is None
        assert ones_pfaffian(assembled, 0) == ZERO
        matched = count_calls(monkeypatch, matchgate, "perfect_matching")
        assert evaluate(inst) == ZERO
        assert matched == []

    @pytest.mark.parametrize(
        "evaluate, label",
        [(fkt_eval, sv(1, 1, 2, 1, 1, 1)), (fkt_eval_hat, sv(0, 1, 2, 0, 1, 2))],
    )
    def test_one_pfaffian_per_evaluation(self, monkeypatch, evaluate, label):
        inst = uniform_instance(grid_patch(2, 3), label)
        eliminated = count_calls(monkeypatch, matchgate, "pfaffian_sparse")
        first = evaluate(inst)
        assert len(eliminated) == 1
        assert evaluate(inst) == first == holant_brute(inst)
        assert len(eliminated) == 2

    @pytest.mark.parametrize(
        "evaluate, label",
        [(fkt_eval, sv(1, 1, 2, 1, 1, 1)), (fkt_eval_hat, sv(0, 1, 2, 0, 1, 2))],
    )
    def test_bad_reference_matching_raises(self, monkeypatch, evaluate, label):
        """A nonzero Pfaffian with no matching, or with a mate list that is
        not a perfect matching of the graph, is a typed error."""
        inst = uniform_instance(grid_patch(2, 2), label)
        real = matchgate.perfect_matching

        def rewired(n, adjacency):
            # pairs (a, b), (c, d) become (a, c), (b, d) with a-c not an edge
            mate = real(n, adjacency)
            a = 0
            c = next(c for c in range(n) if c != a and c != mate[a] and c not in adjacency[a])
            b, d = mate[a], mate[c]
            mate[a], mate[c], mate[b], mate[d] = c, a, d, b
            return mate

        for fake in (
            lambda n, adjacency: None,
            lambda n, adjacency: real(n, adjacency)[:-1],
            lambda n, adjacency: [-1] + real(n, adjacency)[1:],
            lambda n, adjacency: list(range(n)),
            rewired,
        ):
            monkeypatch.setattr(matchgate, "perfect_matching", fake)
            with pytest.raises(SynthesisError):
                evaluate(inst)


def random_odd_cycle_graph(rng, n):
    """A graph on n vertices made of random odd cycles (so blossoms form)
    and a few random chords, as shuffled adjacency lists."""
    edges = set()
    for _ in range(rng.randint(1, n)):
        cycle = rng.sample(range(n), min(n, rng.choice([3, 5, 7])))
        if len(cycle) % 2 == 0:
            cycle.pop()
        for t, u in enumerate(cycle):
            v = cycle[(t + 1) % len(cycle)]
            if u != v:
                edges.add((min(u, v), max(u, v)))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for row in adjacency:
        rng.shuffle(row)
    return sorted(edges), adjacency


def assert_perfect(mate, edges):
    n = len(mate)
    edge_set = set(edges)
    for u, v in enumerate(mate):
        assert 0 <= v < n and v != u and mate[v] == u
        assert (min(u, v), max(u, v)) in edge_set


class TestPerfectMatching:
    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(82)
        found = absent = 0
        for _ in range(400):
            n = rng.choice([2, 4, 6, 8, 10, 12, 16, 20, 30, 40])
            edges, adjacency = random_odd_cycle_graph(rng, n)
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from(edges)
            exists = 2 * len(nx.max_weight_matching(g, maxcardinality=True)) == n
            mate = perfect_matching(n, adjacency)
            assert (mate is not None) == exists
            if mate is not None:
                assert_perfect(mate, edges)
                found += 1
            else:
                absent += 1
        assert found >= 100 and absent >= 100

    def test_augments_through_a_blossom(self):
        """A 5-cycle 0-1-2-3-4 with a pendant vertex 5 on 0.  The greedy pass
        matches 0-1 and 2-3 and leaves 4 and 5 free; the one augmenting path
        4-3-2-1-0-5 runs through the blossom the cycle forms."""
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)]
        adjacency = [[1, 4, 5], [0, 2], [1, 3], [2, 4], [3, 0], [0]]
        mate = perfect_matching(6, adjacency)
        assert mate == [5, 2, 1, 4, 3, 0]
        assert_perfect(mate, edges)

    def test_no_perfect_matching(self):
        two_triangles = [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]]
        star = [[1, 2, 3], [0], [0], [0]]
        assert perfect_matching(6, two_triangles) is None
        assert perfect_matching(4, star) is None
        assert perfect_matching(3, [[1], [0, 2], [1]]) is None
        assert perfect_matching(0, []) == []
