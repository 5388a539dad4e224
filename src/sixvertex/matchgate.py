"""Planar evaluation by matchgates, Kasteleyn orientations and Pfaffians.

Every vertex of an instance is replaced by a weighted planar gadget whose
perfect-matching signature equals the vertex signature (up to a tracked
scalar), every instance edge by a weighted path, and the resulting planar
graph is evaluated exactly with one Pfaffian under a Kasteleyn
orientation.  Every perfect matching has the same term sign sigma under
that orientation, so sigma is read off one reference perfect matching,
found by Edmonds' blossom algorithm and checked to be a perfect matching
of the graph.  The orientation seed sets the direction of every
spanning-forest edge, so seeds 0 and 1 give two different orientations
whose Pfaffians may differ in sign, and one value.  fkt_eval joins gadgets
by the Disequality path (1, 1); the Hadamard-transformed evaluation joins
them by the signed equality (-1, 1, 1) and synthesizes gadgets for the
transformed vertex signature instead, read off the label's entries and
its M-hat witness eps.  _assemble is the one place where gadgets are
joined.

The Pfaffian runs over the integers whenever it can.  Each label f is
built as f / u, u its first nonzero entry, with 1 / u folded into its
scale, so a label that is a multiple of a rational signature (a rational
signature times a root of unity, say) gets a gadget of rational weights,
and every Kasteleyn entry is rational.  pfaffian_sparse then clears the
denominators with one integer D, Pf(D A) = D^(n/2) Pf(A), and eliminates
on plain ints, fraction-free: each touched entry becomes
(piv A[u][v] + A[i][v] A[j][u] - A[i][u] A[j][v]) divided by the previous
pivot, and the division is exact because every entry stays a Pfaffian of
a principal submatrix (Sylvester's identity for Pfaffians; Bareiss 1968,
Knuth 1996).  Other matrices are eliminated on Scalars by the same loop.

Every gadget comes from one builder, _build, which takes a template's
weighted edge list and each vertex's counterclockwise list of neighbours
and open ports.  Every gadget of fkt_eval is one template, the wheel.  The
chain family c = z = 0, ax = -by != 0 has no wheel, so fkt_eval splits
each such vertex of the instance into two vertices joined by two edges,
labelled by two signatures that do have one and whose composition is the
original.

Both synthesizers follow one quarter-turn rule: a template is built on the
first quarter turn f^r of its target that it applies to, its externals are
shifted back by -r, and the gadget is verified once against the matching
oracle.  The weight formulas are derived from the perfect-matching
enumeration of the templates, so that verification makes a formula slip
fail loudly.  An evaluation synthesizes (and so verifies) each distinct
label once per call and shares that gadget among the vertices carrying the
label; nothing is kept between calls.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from math import lcm
from typing import Callable, Optional, Sequence

from .instance import MapError, PlanarInstance, RotationMap
from .membership import is_matchgate, is_matchgate_hat
from .oracle import WeightedGraph, matching_signature
from .scalar import ONE, ZERO, Scalar, rational
from .signature import SixVertexSignature, compose_n, hadamard_image


class SynthesisError(ValueError):
    pass


# -- plane gadgets ---------------------------------------------------------------


@dataclass
class PlaneGadget:
    """A weighted plane graph with open ports.

    Rotations list ports in counterclockwise order; a port is either
    ("edge", edge_index, end) or ("open", external_index).  Externals lie
    on the outer face in counterclockwise order x1..x4.
    """

    rotations: list[list]
    edges: list[tuple[int, int, Scalar]]
    externals: list[int]

    @property
    def n(self) -> int:
        return len(self.rotations)

    def signature(self) -> list[Scalar]:
        return matching_signature(WeightedGraph(self.n, self.edges), self.externals)

    def shifted(self, shift: int) -> "PlaneGadget":
        """Cyclically relabel the externals (a rotation of the signature)."""
        k = len(self.externals)
        externals = [self.externals[(t + shift) % k] for t in range(k)]
        rotations = [
            [("open", (p[1] - shift) % k) if p[0] == "open" else p for p in rot]
            for rot in self.rotations
        ]
        return PlaneGadget(rotations, list(self.edges), externals)


def _build(edges: Sequence[tuple[int, int, Scalar]], orders: Sequence[list]) -> PlaneGadget:
    """The gadget of a template: `edges` lists (u, v, weight), and
    orders[v] lists v's neighbours and ("open", t) markers counterclockwise;
    external t is the vertex that carries ("open", t).

    Zero-weight edges are dropped from the edges and from the orders.
    Raises SynthesisError on a loop or parallel edge, or when a rotation
    misses or repeats a port.
    """
    port_of: dict[tuple[int, int], Optional[tuple]] = {}
    kept = []
    for u, v, w in edges:
        if u == v or (u, v) in port_of:
            raise SynthesisError(f"template edge {u}-{v} is a loop or a parallel edge")
        if w.is_zero():
            port_of[(u, v)] = port_of[(v, u)] = None
            continue
        port_of[(u, v)] = ("edge", len(kept), 0)
        port_of[(v, u)] = ("edge", len(kept), 1)
        kept.append((u, v, w))
    rotations = []
    external_of: dict[int, int] = {}
    for v, order in enumerate(orders):
        rot = []
        for item in order:
            if isinstance(item, tuple):
                external_of[item[1]] = v
                rot.append(item)
            elif (v, item) not in port_of:
                raise SynthesisError(f"template vertex {v} has no edge to {item}")
            elif port_of[(v, item)] is not None:
                rot.append(port_of[(v, item)])
        rotations.append(rot)
    ports = [port for rot in rotations for port in rot]
    k = len(ports) - 2 * len(kept)
    if len(set(ports)) != len(ports) or sorted(external_of) != list(range(k)):
        raise SynthesisError("a template rotation misses or repeats a port")
    return PlaneGadget(rotations, kept, [external_of[t] for t in range(k)])


def add_flip_pigtail(g: PlaneGadget) -> PlaneGadget:
    """Compose external 0 with Disequality: a 3-edge pigtail whose far end
    becomes the new external 0 (flips the first variable of the signature)."""
    old_vertex = g.externals[0]
    q1, q2, x_new = g.n, g.n + 1, g.n + 2
    e_a, e_b, e_c = (len(g.edges) + t for t in range(3))
    pigtail = ("edge", e_a, 0)
    rotations = [
        [pigtail if p == ("open", 0) else p for p in rot]
        for rot in g.rotations
    ]
    if pigtail not in rotations[old_vertex]:
        raise SynthesisError("external slot not found")
    rotations += [
        [("edge", e_a, 1), ("edge", e_b, 0)],
        [("edge", e_b, 1), ("edge", e_c, 0)],
        [("edge", e_c, 1), ("open", 0)],
    ]
    edges = g.edges + [(old_vertex, q1, ONE), (q1, q2, ONE), (q2, x_new, ONE)]
    externals = list(g.externals)
    externals[0] = x_new
    return PlaneGadget(rotations, edges, externals)


def _scaled_propto(sig_values: Sequence[Scalar], target: Sequence[Scalar]) -> Optional[Scalar]:
    """The scalar s with sig = s * target, if one exists: the ratio at the
    first nonzero target entry, checked against every entry by one product."""
    pairs = list(zip(sig_values, target))
    first = next((got / want for got, want in pairs if not want.is_zero()), ZERO)
    if any(got != first * want if want else got for got, want in pairs):
        return None
    return first


def _turned_back(
    template: PlaneGadget, turn: int, target: Sequence[Scalar]
) -> tuple[PlaneGadget, Scalar]:
    """A template built on the quarter turn `turn` of its target, with its
    externals shifted back by -turn, and the scale with which its matching
    signature equals the target: the one oracle verification of a gadget.
    SynthesisError when the signature is not a nonzero multiple."""
    gadget = template.shifted(-turn % 4)
    scale = _scaled_propto(gadget.signature(), target)
    if scale is None or scale.is_zero():
        raise SynthesisError("the gadget's matching signature is not a multiple of its target")
    return gadget, scale


def _zero_gadget() -> PlaneGadget:
    """Four ports and an isolated vertex, which kills every matching: the
    gadget of a zero signature, with scale 1."""
    return _build([], [[("open", t)] for t in range(4)] + [[]])


# -- the wheel ----------------------------------------------------------------------


def _wheel_applies(f: SixVertexSignature) -> bool:
    """c != 0, or support on the (a, b) slots only."""
    return not f.c.is_zero() or (f.x.is_zero() and f.y.is_zero() and f.z.is_zero())


def _wheel_core(f: SixVertexSignature) -> PlaneGadget:
    """Hub-and-rim template: rim vertices e1..e4 carry the externals x1..x4
    and the hub joins e2, e3, e4.

    With the flip pigtail on x1 it realizes f whenever _wheel_applies(f).
    The perfect-matching expansion forces spoke1 = 0 and, via the matchgate
    identity cz = ax + by, makes the remaining weights consistent; with
    c = 0 only the spokes to e2 and e4 remain.
    """
    if f.c.is_zero():
        spoke2, spoke3, spoke4, rim41, rim12 = f.a, ZERO, f.b, ZERO, ZERO
    else:
        spoke2, spoke3, spoke4 = f.a, f.c, f.b
        rim41, rim12 = f.x / f.c, f.y / f.c
    e1, e2, e3, e4, hub = range(5)
    return _build(
        [
            (e1, e2, rim12),
            (e4, e1, rim41),
            (hub, e2, spoke2),
            (hub, e3, spoke3),
            (hub, e4, spoke4),
        ],
        [
            [e2, e4, ("open", 0)],
            [hub, e1, ("open", 1)],
            [("open", 2), hub],
            [e1, hub, ("open", 3)],
            [e2, e3, e4],
        ],
    )


def synthesize(f: SixVertexSignature) -> tuple[PlaneGadget, Scalar]:
    """A plane gadget whose matching signature equals scale * f, scale != 0
    (scale 1 for f = 0).  Raises SynthesisError when f is not a matchgate.

    Every gadget is the wheel, built on the first quarter turn f^r of f
    it applies to (c != 0, or support on the (a, b) slots) and shifted
    back by -r.  No wheel realizes the chain family c = z = 0,
    ax = -by != 0, so fkt_eval splits those vertices in the instance
    (_split_chain_vertices) and never asks here.
    """
    if not is_matchgate(f):
        raise SynthesisError("signature violates the matchgate identity")
    if f.is_zero():
        return _zero_gadget(), ONE
    for turn in range(4):
        turned = f.rotate(turn)
        if _wheel_applies(turned):
            wheel = add_flip_pigtail(_wheel_core(turned))
            return _turned_back(wheel, turn, f.to_table().entries)
    raise SynthesisError(f"no wheel template applies to {f!r}")


# -- gadgets for Hadamard images ---------------------------------------------------


def synthesize_even_image(f: SixVertexSignature) -> tuple[PlaneGadget, Scalar]:
    """A gadget for the Hadamard image H f of an M-hat label f of witness
    eps = 1, so (x, y, z) = (a, b, c) and ab = 0.

    H f is (p, q, r, s) = 2 (a+b+c, a-b-c, -a+b-c, -a-b+c) on 0000, 0011,
    0110, 0101 and on their complements.  b = 0 gives the shape
    (r, s) = (-p, -q), (p, q) a multiple of (a+c, a-c); a = 0 gives it on
    turn 1, which swaps q and r, with (p, r) a multiple of (b+c, b-c).  It
    splits into three closed-form templates; the gadget is shifted back
    from its turn and verified against the generic transform, so any other
    label raises SynthesisError: its matching signature is scale * H f.
    """
    if f.is_zero():
        return _zero_gadget(), ONE
    if f.b.is_zero():
        turn, p, q = 0, f.a + f.c, f.a - f.c
    else:
        turn, p, q = 1, f.b + f.c, f.b - f.c
    if p.is_zero():
        template = _image_template_paths(q)
    elif q.is_zero():
        template = _image_template_sides()
    else:
        template = _image_template_general(p, q)
    return _turned_back(template, turn, hadamard_image(f).entries)


def _image_template_general(p: Scalar, q: Scalar) -> PlaneGadget:
    """Shape [[p,q],[q,p]] outer, [[-p,-q],[-q,-p]] inner; p, q != 0."""
    e1, e2, e3, e4, u, v = range(6)
    return _build(
        [
            (u, v, p),
            (e1, e2, q / p),
            (e3, e4, q / p),
            (e4, e1, (q * q - p * p) / (p * p)),
            (u, e1, ONE),
            (u, e2, p / q),
            (v, e3, -q),
            (v, e4, -(q * q) / p),
        ],
        [
            [e2, u, e4, ("open", 0)],
            [u, e1, ("open", 1)],
            [("open", 2), e4, v],
            [e3, ("open", 3), e1, v],
            [v, e1, e2],
            [e3, e4, u],
        ],
    )


def _image_template_sides() -> PlaneGadget:
    """Two -1 edges, e4-e1 and e2-e3, on opposite sides: the shape with
    q = 0, up to the scale."""
    e1, e2, e3, e4 = range(4)
    return _build(
        [(e4, e1, -ONE), (e2, e3, -ONE)],
        [[e4, ("open", 0)], [e3, ("open", 1)], [("open", 2), e2], [("open", 3), e1]],
    )


def _image_template_paths(weight: Scalar) -> PlaneGadget:
    """Two odd 2-paths, e1-e4 and e2-e3, carrying (0, w, -w, 0)-type
    factors: the shape with p = 0."""
    e1, e2, e3, e4, mid_a, mid_b = range(6)
    return _build(
        [(e1, mid_a, weight), (mid_a, e4, -weight), (e2, mid_b, ONE), (mid_b, e3, -ONE)],
        [
            [mid_a, ("open", 0)],
            [mid_b, ("open", 1)],
            [("open", 2), mid_b],
            [("open", 3), mid_a],
            [e1, e4],
            [e2, e3],
        ],
    )


# -- Pfaffians --------------------------------------------------------------------


def pfaffian_sparse(n: int, entries: dict[tuple[int, int], Scalar]) -> Scalar:
    """Exact Pfaffian of a sparse skew matrix with min-degree pivoting.

    `entries` holds A[u][v] for u < v; A[v][u] = -A[u][v] implied.

    Eliminating the pivot pair (i, j), piv = A[i][j], updates every entry
    it touches to

        A'[u][v] = (piv A[u][v] + A[i][v] A[j][u] - A[i][u] A[j][v]) / q.

    With q = piv this is the Schur complement, and the Pfaffian is the
    product of the pivots and the pivot-order sign.  When every entry is
    rational (fkt_eval builds each label on its first nonzero entry, so any
    multiple of a rational signature gets here), the denominators are
    cleared with one integer D, Pf(D A) = D^(n/2) Pf(A), and the
    elimination runs on plain ints with q the previous step's pivot (1 at
    the first): fraction-free, like Bareiss's determinant.  After k steps
    every entry is then, up to sign, the Pfaffian of the principal
    submatrix on the k pivot pairs and {u, v}, an integer, so by the
    Pfaffian form of Sylvester's identity (Knuth, "Overlapping Pfaffians")
    every division is exact, no gcd is taken, and the last pivot is the
    Pfaffian.  An entry a step leaves untouched is scaled by piv / q, also
    exactly; that is done only when the entry is next read.  Other
    matrices are eliminated on Scalars by the same loop (_eliminate).
    """
    if n % 2:
        return ZERO
    for w in entries.values():
        if not w.is_rational():
            return _eliminate(n, entries, ZERO)
    den = lcm(*{w.den for w in entries.values()})
    cleared = {key: w.n0 * (den // w.den) for key, w in entries.items()}
    return Scalar(_eliminate(n, cleared, 0), 0, 0, 0, den ** (n // 2))


def _partner(i: int, rows: dict[int, dict]) -> int:
    """The neighbour of the pivot row i of least (degree, index)."""
    return min(rows[i], key=lambda v: (len(rows[v]), v))


def _eliminate(n: int, entries: dict[tuple[int, int], Scalar | int], zero: Scalar | int):
    """The Pfaffian of an even-order skew matrix of Scalars or of ints
    (`zero` names the type) by the update of pfaffian_sparse.

    Each step eliminates the live vertex i of least (degree, index) together
    with its neighbour j of least (degree, index) (_partner): the Pfaffian
    gains the sign of moving i, then j, to the front of the live vertices in
    index order.  A lazy heap of (degree, vertex) finds i (stale entries are
    dropped on pop), and ranks in a sorted list of the live vertices give
    the sign.  Heap, pivot choice, sign and fill-in are shared; each touched
    pair is updated once, and only that arithmetic depends on the type.  On
    Scalars row i is scaled once by 1 / piv, so a pivot costs one inverse
    and each term one product.  On ints each entry keeps the pivot it was
    written under, its stamp, and is read as value * q // stamp.
    """
    integral = isinstance(zero, int)
    rows: dict[int, dict] = {i: {} for i in range(n)}
    for (u, v), w in entries.items():
        if w:
            rows[u][v] = w
            rows[v][u] = -w
    stamps = {i: dict.fromkeys(row, 1) for i, row in rows.items()} if integral else {}
    heap = [(len(rows[v]), v) for v in range(n)]
    heapq.heapify(heap)
    live = list(range(n))  # sorted, so a vertex's rank is its position
    sign_flips = 0
    result = 1 if integral else ONE  # on ints, the previous pivot q
    while live:
        degree, i = heapq.heappop(heap)
        row_i = rows.get(i)
        if row_i is None or len(row_i) != degree:
            continue  # i was eliminated or its degree has changed since
        if not row_i:
            return zero
        j = _partner(i, rows)
        rank_i = bisect_left(live, i)
        rank_j = bisect_left(live, j)
        # i moves to the front past rank_i vertices, then j to second place
        # past the rank_j vertices before it, less i when i preceded it
        sign_flips += rank_i + rank_j - (rank_i < rank_j)
        del live[max(rank_i, rank_j)]
        del live[min(rank_i, rank_j)]
        row_j = rows[j]
        piv = row_i[j]
        if integral:
            q = result
            stamp_i, stamp_j = stamps[i], stamps[j]
            if stamp_i[j] is not q:
                piv = piv * q // stamp_i[j]
            from_i = {
                v: w if stamp_i[v] is q else w * q // stamp_i[v]
                for v, w in row_i.items() if v != j
            }
            from_j = {
                u: w if stamp_j[u] is q else w * q // stamp_j[u]
                for u, w in row_j.items() if u != i
            }
            result = piv
        else:
            result = result * piv
            inv_piv = piv.inv()
            from_i = {v: w * inv_piv for v, w in row_i.items() if v != j}
            from_j = {u: w for u, w in row_j.items() if u != i}
        for u, wju in from_j.items():
            wiu = from_i.get(u)
            row_u = rows[u]
            stamp_u = stamps.get(u)
            for v, wiv in from_i.items():
                if u == v:
                    continue
                if wiu is None or (wjv := from_j.get(v)) is None:
                    term = wiv * wju
                elif u < v:
                    term = wiv * wju - wiu * wjv
                else:
                    continue  # the pair (v, u) takes both terms
                old = row_u.get(v)
                if not integral:
                    cur = term if old is None else old + term
                elif old is None:
                    cur = term // q
                elif stamp_u[v] is q:
                    cur = (piv * old + term) // q
                else:
                    cur = (piv * (old * q // stamp_u[v]) + term) // q
                if cur:
                    row_u[v] = cur
                    rows[v][u] = -cur
                    if integral:
                        stamp_u[v] = stamps[v][u] = piv
                elif old is not None:
                    del row_u[v]
                    del rows[v][u]
        for u in from_i:
            rows[u].pop(i, None)
        for u in from_j:
            rows[u].pop(j, None)
        del rows[i], rows[j]
        for u in from_i.keys() | from_j.keys():
            heapq.heappush(heap, (len(rows[u]), u))
    return -result if sign_flips % 2 else result


# -- perfect matchings ----------------------------------------------------------------


def perfect_matching(n: int, adjacency: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """A perfect matching of a general graph as a mate list, or None if the
    graph has none.

    A greedy pass matches what it can; then Edmonds' blossom algorithm grows
    an alternating tree from each vertex left free.  When a tree finds no
    augmenting path, its root is free in every maximum matching reached from
    here, so the graph has no perfect matching.
    """
    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            for u in adjacency[v]:
                if mate[u] == -1 and u != v:
                    mate[u], mate[v] = v, u
                    break
    for root in range(n):
        if mate[root] == -1 and not _augment_from(root, adjacency, mate):
            return None
    return mate


def _augment_from(root: int, adjacency: Sequence[Sequence[int]], mate: list[int]) -> bool:
    """Grow an alternating tree from the free vertex root, shrinking blossoms
    into their bases (a union-find), and flip the first augmenting path it
    finds.  Only the vertices the tree reaches are touched."""
    outer = {root}  # even vertices, and odd ones absorbed into a blossom
    parent: dict[int, int] = {}  # into each odd vertex; across a blossom from its even ones
    link: dict[int, int] = {}  # union-find towards each blossom's base

    def base(v: int) -> int:
        top = v
        while top in link:
            top = link[top]
        while v != top:
            link[v], v = top, link[v]
        return top

    def common_base(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base(a)
            seen.add(a)
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base(b)
            if b in seen:
                return b
            b = parent[mate[b]]

    def shrink_path(v: int, top: int, child: int, merged: set[int]) -> None:
        # walk from v up to the blossom base, pointing each even vertex's
        # parent across the new blossom so augmenting paths can pass through
        while base(v) != top:
            merged.add(base(v))
            merged.add(base(mate[v]))
            parent[v] = child
            child = mate[v]
            if child not in outer:
                outer.add(child)
                queue.append(child)
            v = parent[child]

    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in adjacency[v]:
            if u == mate[v] or base(u) == base(v):
                continue
            if u in outer:
                top = common_base(v, u)
                merged: set[int] = set()
                shrink_path(v, top, u, merged)
                shrink_path(u, top, v, merged)
                for b in merged:
                    if b != top:
                        link[b] = top
            elif u not in parent:
                parent[u] = v
                if mate[u] == -1:
                    while u != -1:
                        v = parent[u]
                        after = mate[v]
                        mate[u], mate[v] = v, u
                        u = after
                    return True
                outer.add(mate[u])
                queue.append(mate[u])
    return False


# -- Kasteleyn orientation -----------------------------------------------------------


def kasteleyn_orient(map_: RotationMap, orientation_seed: int = 0) -> list[int]:
    """An orientation where every inner face has an odd number of edges
    agreeing with its traversal direction.

    Returns a list indexed by half-edge: at the lower half-edge h of each
    edge, 0 orients the edge from h's vertex to its partner's and 1 the
    other way (higher half-edges hold -1).  Every spanning-forest edge gets
    the direction orientation_seed & 1, so seeds 0 and 1 give two different
    orientations.  The other edges span the dual: one BFS over the faces
    crosses only them, from each component's first face, and then each
    face fixes the edge it was reached through, deepest face first.

    The faces are walked once, and that walk is also the planarity check.
    The BFS crosses F - R edges, R its roots, and the forest holds V - C, C
    the components, so every edge is decided exactly when V - E + F = C + R.
    Each component has V - E + F <= 2 (1 for an isolated vertex), with
    equality exactly when it is planar, and each component with an edge
    roots at least one BFS, so that count holds exactly when every
    component is planar.  MapError when a non-tree edge borders one face
    twice, when the count fails (an edge is left undecided), or when an
    inner face fails the parity check.
    """
    inv = map_.involution
    direction = [-1] * len(inv)
    reached = [False] * map_.vertex_count
    components = 0
    for root in range(map_.vertex_count):
        if reached[root]:
            continue
        reached[root] = True
        components += 1
        stack = [root]
        while stack:
            for h in map_.vertices[stack.pop()]:
                u = map_.vertex_of[inv[h]]
                if not reached[u]:
                    reached[u] = True
                    direction[min(h, inv[h])] = orientation_seed & 1
                    stack.append(u)
    faces = map_.faces()
    face_of = [0] * len(inv)
    for idx, face in enumerate(faces):
        for h in face:
            face_of[h] = idx
    # order: the faces as the BFS reaches them, order[head:] its queue;
    # entry[f]: f's half-edge on the edge it was reached through, -1 at a root
    entry: list[Optional[int]] = [None] * len(faces)
    order: list[int] = []
    head = roots = 0
    for root in range(len(faces)):
        if entry[root] is None:
            entry[root] = -1
            order.append(root)
            roots += 1
        while head < len(order):
            fa = order[head]
            head += 1
            for h in faces[fa]:
                k = inv[h]
                if direction[min(h, k)] < 0:
                    if face_of[k] == fa:
                        raise MapError("non-tree edge must border two faces")
                    if entry[face_of[k]] is None:
                        entry[face_of[k]] = k
                        order.append(face_of[k])
    euler = map_.vertex_count - map_.edge_count + len(faces)
    if euler != components + roots:
        raise MapError(
            f"an edge is left undecided: V - E + F = {euler}, not {components + roots};"
            " the map is not planar"
        )

    def agreeing(face: list[int], skip: int = -1) -> int:
        """How many half-edges of face, skip aside, run along their edge."""
        count = 0
        for g in face:
            if g != skip:
                k = inv[g]
                count += direction[g] == 0 if g < k else direction[k] == 1
        return count

    for fa in reversed(order):
        h = entry[fa]
        if h >= 0:
            # h agrees exactly when the other half-edges agree an even number of times
            direction[min(h, inv[h])] = int((h < inv[h]) == (agreeing(faces[fa], h) % 2 == 1))
    if any(entry[fa] >= 0 and agreeing(faces[fa]) % 2 == 0 for fa in order):
        raise MapError("Kasteleyn orientation failed on an inner face")
    return direction


# -- full evaluation -----------------------------------------------------------------


@dataclass
class AssembledGraph:
    map: RotationMap
    weights: dict[int, Scalar]  # by each edge's lower half-edge
    scale: Scalar  # product of gadget scales


# the weights along the path that replaces each instance edge
_DISEQ_PATH = (ONE, ONE)  # Disequality: one interior vertex
# the signed equality [1, 0, 0, -1]: matching-equivalent to one edge of
# weight -1, but never a loop or a parallel of a gadget edge
_SIGNED_EQ_PATH = (-ONE, ONE, ONE)


def _assemble(
    inst: PlanarInstance,
    gadget_of: Sequence[PlaneGadget],
    scales: Sequence[Scalar],
    path: Sequence[Scalar],
) -> AssembledGraph:
    """Glue vertex gadgets along the instance map, the one place gadgets are
    joined.

    The gadget vertices come first, in vertex order.  Each instance edge
    then becomes a path from the open port of its first half-edge to that
    of its second, whose edges carry the weights in `path` and whose
    len(path) - 1 interior vertices are numbered in edge order.  Chain-family
    vertices reach here already split (_split_chain_vertices), so every
    gadget is one template, and gadgets are read, never mutated.
    """
    m = inst.map
    rotations: list[list[int]] = []
    counter = 0
    internal_half: dict[tuple[int, int, int], int] = {}  # (vid, eidx, end)
    open_half: dict[tuple[int, int], int] = {}  # (vid, external index)
    for vid, g in enumerate(gadget_of):
        for rot in g.rotations:
            rotations.append(list(range(counter, counter + len(rot))))
            for port in rot:
                if port[0] == "edge":
                    internal_half[(vid, port[1], port[2])] = counter
                else:
                    open_half[(vid, port[1])] = counter
                counter += 1
    involution: dict[int, int] = {}
    weights: dict[int, Scalar] = {}

    def bind(h1: int, h2: int, w: Scalar) -> None:
        involution[h1] = h2
        involution[h2] = h1
        weights[min(h1, h2)] = w

    for vid, g in enumerate(gadget_of):
        for eidx, (_, _, w) in enumerate(g.edges):
            bind(internal_half[(vid, eidx, 0)], internal_half[(vid, eidx, 1)], w)
    for h, hp in m.edges():
        tail = open_half[(m.vertex_of[h], m.slot_of[h])]
        for w in path[:-1]:
            rotations.append([counter, counter + 1])  # the next interior vertex
            bind(tail, counter, w)
            tail = counter + 1
            counter += 2
        bind(tail, open_half[(m.vertex_of[hp], m.slot_of[hp])], path[-1])
    assembled = RotationMap(rotations, involution)
    scale = ONE
    for s in scales:
        scale = scale * s
    return AssembledGraph(assembled, weights, scale)


def _pfaffian_value(assembled: AssembledGraph, orientation_seed: int = 0) -> Scalar:
    """Signed perfect-matching sum through a Kasteleyn orientation.

    Under a valid orientation every perfect matching's Pfaffian term carries
    the same sign sigma, so the weighted Pfaffian is sigma times the
    matching sum.  A nonzero Pfaffian means a perfect matching exists, and
    sigma is read off one such reference matching: the sign of its
    permutation times the orientation signs of its pairs.  A matcher that
    finds none, or returns pairs that are not edges or do not cover every
    vertex, raises SynthesisError.
    """
    n = assembled.map.vertex_count
    if n == 0:
        return ONE
    entries, forward, adjacency = _kasteleyn_matrix(assembled, orientation_seed)
    pf = pfaffian_sparse(n, entries)
    if pf.is_zero():
        return ZERO
    sigma = _matching_sign(n, forward, perfect_matching(n, adjacency))
    return pf if sigma > 0 else -pf


def _kasteleyn_matrix(
    assembled: AssembledGraph, orientation_seed: int = 0
) -> tuple[dict[tuple[int, int], Scalar], dict[tuple[int, int], bool], list[list[int]]]:
    """The weighted skew matrix of a Kasteleyn orientation as upper entries
    A[u][v], u < v; whether each pair is oriented from u to v; and the
    adjacency lists of the graph."""
    amap = assembled.map
    direction = kasteleyn_orient(amap, orientation_seed)
    entries: dict[tuple[int, int], Scalar] = {}
    forward: dict[tuple[int, int], bool] = {}
    adjacency: list[list[int]] = [[] for _ in range(amap.vertex_count)]
    for h, hp in amap.edges():
        u, v = amap.vertex_of[h], amap.vertex_of[hp]
        if u == v:
            raise SynthesisError("assembled graphs must be loop-free")
        w = assembled.weights[h]
        key = (min(u, v), max(u, v))
        if key in entries:
            raise SynthesisError("assembled graphs must have no parallel edges")
        forward[key] = (direction[h] == 0) == (u < v)
        entries[key] = w if forward[key] else -w
        adjacency[u].append(v)
        adjacency[v].append(u)
    return entries, forward, adjacency


def _matching_sign(
    n: int, forward: dict[tuple[int, int], bool], mate: Optional[list[int]]
) -> int:
    """The sign sigma of the perfect matching `mate` in the Pfaffian of the
    orientation: the sign of the permutation (u1 v1 u2 v2 ...), ui < vi,
    times -1 for each pair oriented from vi to ui."""
    if mate is None:
        raise SynthesisError("no perfect matching behind a nonzero Pfaffian")
    if len(mate) != n:
        raise SynthesisError("the reference matching is not a perfect matching")
    order = []
    negative = 0
    for u, v in enumerate(mate):
        if not 0 <= v < n or mate[v] != u or (min(u, v), max(u, v)) not in forward:
            raise SynthesisError("the reference matching is not a perfect matching")
        if u < v:
            order += (u, v)
            negative += not forward[(u, v)]
    # a permutation of n points with c cycles has sign (-1)^(n - c)
    cycles = 0
    seen = [False] * n
    for start in range(n):
        if not seen[start]:
            cycles += 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = order[k]
    return -1 if (negative + n - cycles) % 2 else 1


def _label_gadgets(
    inst: PlanarInstance,
    build: Callable[[SixVertexSignature], tuple[PlaneGadget, Scalar]],
) -> tuple[list[PlaneGadget], list[Scalar]]:
    """The (gadget, scale) of every vertex, built once per distinct label.

    Each label f is built as f / u, u its first nonzero entry, and 1 / u is
    folded into its scale, so a label that is a multiple of a rational
    signature gets rational weights and pfaffian_sparse its integer path;
    the zero label is built as it is.  The table lives for this call only;
    the assembly reads a shared gadget and never mutates it.
    """
    built: dict[SixVertexSignature, tuple[PlaneGadget, Scalar]] = {}
    gadgets = []
    scales = []
    for label in inst.labels:
        entry = built.get(label)
        if entry is None:
            unit = next((v for v in label.tuple() if not v.is_zero()), ONE)
            if unit == ONE:
                entry = build(label)
            else:
                inverse = unit.inv()
                gadget, scale = build(label.scale(inverse))
                entry = gadget, scale * inverse
            built[label] = entry
        gadgets.append(entry[0])
        scales.append(entry[1])
    return gadgets, scales


_CHAIN_LEFT = SixVertexSignature.from_values(1, 1, 1, 1, 1, 2)


def _is_chain(label: SixVertexSignature) -> bool:
    """Whether fkt_eval splits a vertex with this label: c = z = 0 and
    ax != 0.  The matchgates among these (ax = -by), the chain family, are
    the ones no wheel realizes; the others fail in _chain_halves."""
    return (
        label.c.is_zero()
        and label.z.is_zero()
        and not label.a.is_zero()
        and not label.x.is_zero()
    )


def _chain_halves(f: SixVertexSignature) -> tuple[SixVertexSignature, SixVertexSignature]:
    """Labels g1 = (1,1,1,1,1,2) and g2 = (a, 2b, -y, x, y, -b) with
    g1 N g2 = f, N the double Disequality, for f with c = z = 0.  Both have
    c != 0, so the wheel realizes them when both are matchgates, which for
    g2 holds exactly when f is one (ax = -by).  SynthesisError when f is
    not a matchgate or the closed form fails."""
    if not is_matchgate(f):
        raise SynthesisError("signature violates the matchgate identity")
    right = SixVertexSignature(f.a, rational(2) * f.b, -f.y, f.x, f.y, -f.b)
    if compose_n(_CHAIN_LEFT, right) != f:
        raise SynthesisError("chain closed form failed")
    return _CHAIN_LEFT, right


def _split_chain_vertices(inst: PlanarInstance) -> PlanarInstance:
    """The instance with every chain-family vertex split in two.

    A vertex v with rotation (h1, h2, h3, h4) and label f keeps g1 on
    (h1, h2, k, k+1); a new vertex, numbered after all others, carries g2 on
    (k+2, k+3, h3, h4), k the least unused half-edge; and two new edges
    k+1--k+2 and k--k+3 join them.  Instance edges carry Disequality, so
    the pair contributes g1 N g2 = f, and the map stays planar.  The halves
    are built and checked once per distinct label.  An instance with no
    such vertex is returned as it is.
    """
    halves = {f: _chain_halves(f) for f in set(inst.labels) if _is_chain(f)}
    if not halves:
        return inst
    m = inst.map
    vertices = list(m.vertices)
    involution = dict(enumerate(m.involution))
    labels = list(inst.labels)
    k = m.half_edge_count
    for v, f in enumerate(inst.labels):
        if f not in halves:
            continue
        h1, h2, h3, h4 = m.vertices[v]
        labels[v], g2 = halves[f]
        vertices[v] = [h1, h2, k, k + 1]
        vertices.append([k + 2, k + 3, h3, h4])
        labels.append(g2)
        involution.update({k: k + 3, k + 3: k, k + 1: k + 2, k + 2: k + 1})
        k += 4
    return PlanarInstance(RotationMap(vertices, involution), tuple(labels))


def fkt_eval(
    inst: PlanarInstance, orientation_seed: int = 0
) -> Scalar:
    """Exact Holant value through matchgate synthesis and the Pfaffian.

    Every vertex label must be a matchgate.
    Chain-family vertices are split in two first; then each distinct label
    is synthesized, and its gadget re-verified against the matching oracle,
    once per call.  orientation_seed & 1 orients every spanning-forest edge
    of the assembled graph (kasteleyn_orient): seeds 0 and 1 may give
    Pfaffians of opposite sign, and the reference matching's sign follows."""
    inst = _split_chain_vertices(inst)
    gadgets, scales = _label_gadgets(inst, synthesize)
    assembled = _assemble(inst, gadgets, scales, _DISEQ_PATH)
    value = _pfaffian_value(assembled, orientation_seed)
    return value / assembled.scale


def _hat_gadget(label: SixVertexSignature) -> tuple[PlaneGadget, Scalar]:
    """A gadget for the Hadamard image H f of an M-hat label f.

    A label of witness eps = 1 is synthesized directly.  For eps = -1,
    H f is H f' with variable 1 flipped, f' = (a, b, c, a, b, c), so f'
    is synthesized and gets a Disequality pigtail on that external."""
    eps = is_matchgate_hat(label)
    if eps is None:
        raise SynthesisError("label is not in M-hat")
    if eps == 1:
        return synthesize_even_image(label)
    a, b, c = label.a, label.b, label.c
    gadget, scale = synthesize_even_image(SixVertexSignature(a, b, c, a, b, c))
    return add_flip_pigtail(gadget), scale


def fkt_eval_hat(inst: PlanarInstance) -> Scalar:
    """Evaluation for Hadamard-transformed matchgates.

    Holant(!= | f) = 2^{-|E|} Holant([1,0,0,-1]-equality | H f), where the
    signed equality is the weighted path (-1, 1, 1) and H f is synthesized
    per eps, the witness of is_matchgate_hat (eps = -1 flips variable 1
    with a pigtail).  Each distinct label is tested, transformed,
    synthesized and re-verified once per call."""
    gadgets, scales = _label_gadgets(inst, _hat_gadget)
    assembled = _assemble(inst, gadgets, scales, _SIGNED_EQ_PATH)
    value = _pfaffian_value(assembled)
    return value / assembled.scale * rational(1, 2 ** inst.map.edge_count)
