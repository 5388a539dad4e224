"""Planar instances as rotation systems (combinatorial maps).

A map stores, per vertex, its incident half-edges in counterclockwise
order, plus a fixed-point-free involution pairing half-edges into edges.
Faces are the orbits of (rotation-successor o involution).  A map may have
any genus: `validate_planar`, the Euler check V - E + F = 2 per component,
runs only in `parse_instance`, `medial` and `random_plane_graph`.

An instance labels every vertex with a six-vertex signature, and every
vertex has degree 4; `PlanarInstance` checks this once and the evaluators
rely on it.  Every edge implicitly carries binary Disequality, so a
half-edge value of 1 reads "edge directed away from this vertex" and the
nonzero terms of the all-ones six-vertex signature are exactly the
Eulerian orientations.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Sequence

from .signature import SixVertexSignature, format_signature, parse_signature


class MapError(ValueError):
    pass


class RotationMap:
    """Half-edges 0..2m-1 with vertex rotations and an edge involution.

    A map is never mutated after construction, so what depends on the map
    alone may be kept on it: the slot `circuit_decomposition` holds the
    loop space's circuits of the map once `loopspace.decompose` has walked
    them, and is None until then.  Nothing else sets it.
    """

    __slots__ = ("vertices", "involution", "vertex_of", "slot_of", "circuit_decomposition")

    def __init__(self, vertices: Sequence[Sequence[int]], involution: Mapping[int, int]):
        self.vertices = tuple(tuple(v) for v in vertices)
        inv = dict(involution)
        half_edges = [h for v in self.vertices for h in v]
        n = len(half_edges)
        if sorted(half_edges) != list(range(n)):
            raise MapError("half-edges must be 0..2m-1, each in exactly one vertex")
        if n % 2:
            raise MapError("odd number of half-edges")
        if sorted(inv) != list(range(n)):
            raise MapError("involution must cover every half-edge")
        for h, k in inv.items():
            if h == k or inv[k] != h:
                raise MapError("involution must be a fixed-point-free pairing")
        self.involution = tuple(inv[h] for h in range(n))
        vertex_of = [0] * n
        slot_of = [0] * n
        for vid, rot in enumerate(self.vertices):
            for slot, h in enumerate(rot):
                vertex_of[h] = vid
                slot_of[h] = slot
        self.vertex_of = tuple(vertex_of)
        self.slot_of = tuple(slot_of)
        self.circuit_decomposition = None

    # -- basic structure -------------------------------------------------

    @property
    def half_edge_count(self) -> int:
        return len(self.involution)

    @property
    def edge_count(self) -> int:
        return self.half_edge_count // 2

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        return [(h, self.involution[h]) for h in range(self.half_edge_count) if h < self.involution[h]]

    def rotation_next(self, h: int) -> int:
        """The next half-edge counterclockwise around h's vertex."""
        rot = self.vertices[self.vertex_of[h]]
        return rot[(self.slot_of[h] + 1) % len(rot)]

    def rotation_prev(self, h: int) -> int:
        rot = self.vertices[self.vertex_of[h]]
        return rot[(self.slot_of[h] - 1) % len(rot)]

    def faces(self) -> list[list[int]]:
        """Face orbits of next = rotation-successor of involution."""
        inv = self.involution
        successor = [0] * len(inv)
        for rot in self.vertices:
            for slot, h in enumerate(rot):
                successor[rot[slot - 1]] = h
        seen = [False] * len(inv)
        out = []
        for start in range(len(inv)):
            if seen[start]:
                continue
            cycle = []
            h = start
            while not seen[h]:
                seen[h] = True
                cycle.append(h)
                h = successor[inv[h]]
            out.append(cycle)
        return out

    def component_ids(self) -> tuple[list[int], int]:
        """A connected-component id per vertex, and the number of components;
        ids are assigned in order of each component's least vertex."""
        comp_of = [-1] * self.vertex_count
        count = 0
        for v0 in range(self.vertex_count):
            if comp_of[v0] >= 0:
                continue
            comp_of[v0] = count
            stack = [v0]
            while stack:
                v = stack.pop()
                for h in self.vertices[v]:
                    u = self.vertex_of[self.involution[h]]
                    if comp_of[u] < 0:
                        comp_of[u] = count
                        stack.append(u)
            count += 1
        return comp_of, count

    def validate_planar(self) -> None:
        """Euler check V - E + F = 2 per connected component.  An isolated
        vertex traces no face cycle but lies in one face of its sphere."""
        comp_of, count = self.component_ids()
        v_count = [0] * count
        half_count = [0] * count
        f_count = [0] * count
        for vid, rot in enumerate(self.vertices):
            v_count[comp_of[vid]] += 1
            half_count[comp_of[vid]] += len(rot)
        for cycle in self.faces():
            f_count[comp_of[self.vertex_of[cycle[0]]]] += 1
        for c in range(count):
            v, e, f = v_count[c], half_count[c] // 2, f_count[c] or 1
            if v - e + f != 2:
                raise MapError(
                    f"component is not planar: V={v} E={e} F={f}, V-E+F={v - e + f}"
                )


@dataclass(frozen=True, slots=True)
class PlanarInstance:
    """A map of degree-4 vertices with a SixVertexSignature label on each;
    MapError otherwise.  Planarity is not checked here."""

    map: RotationMap
    labels: tuple

    def __post_init__(self):
        if len(self.labels) != self.map.vertex_count:
            raise MapError("one label per vertex required")
        for rot, label in zip(self.map.vertices, self.labels):
            if not isinstance(label, SixVertexSignature):
                raise MapError(f"label {label!r} is not a six-vertex signature")
            if len(rot) != 4:
                raise MapError(f"six-vertex label on a vertex of degree {len(rot)}")

    def relabel(self, labels: Sequence) -> "PlanarInstance":
        return PlanarInstance(self.map, tuple(labels))


def uniform_instance(map_: RotationMap, f: SixVertexSignature) -> PlanarInstance:
    return PlanarInstance(map_, tuple(f for _ in range(map_.vertex_count)))


# -- medials ------------------------------------------------------------------


def medial(graph: RotationMap) -> RotationMap:
    """The medial map: one degree-4 vertex per edge of the input graph.

    Corners (h, next h) of the input become medial edges; around the medial
    vertex of edge {h, h'} the counterclockwise order is

        (prev h, h), (h', next h'), (prev h', h'), (h, next h).
    """
    if graph.component_ids()[1] != 1:
        raise MapError("medial construction needs a connected graph")
    graph.validate_planar()
    # A corner (g, sigma g) of the input joins the medial vertices of
    # edge(g) and edge(sigma g); the slot keyed (corner, 0) belongs to the
    # first component's medial vertex and (corner, 1) to the second's.
    half_ids: dict[tuple[tuple[int, int], int], int] = {}
    counter = 0
    vertices: list[list[int]] = []
    for h0 in range(graph.half_edge_count):
        if h0 > graph.involution[h0]:
            continue
        h, hp = h0, graph.involution[h0]
        slots = []
        for c, side in (
            ((graph.rotation_prev(h), h), 1),
            ((hp, graph.rotation_next(hp)), 0),
            ((graph.rotation_prev(hp), hp), 1),
            ((h, graph.rotation_next(h)), 0),
        ):
            half_ids[(c, side)] = counter
            slots.append(counter)
            counter += 1
        vertices.append(slots)
    involution = {}
    for (c, side), hid in half_ids.items():
        involution[hid] = half_ids[(c, 1 - side)]
    result = RotationMap(vertices, involution)
    if result.edge_count != 2 * graph.edge_count:
        raise MapError("medial edge count mismatch")
    result.validate_planar()
    return result


# -- generators ---------------------------------------------------------------


def cycle_graph(n: int) -> RotationMap:
    """The n-cycle as a plane graph (n >= 1; n = 1 is a single loop)."""
    if n < 1:
        raise ValueError("cycle needs n >= 1")
    if n == 1:
        return RotationMap([[0, 1]], {0: 1, 1: 0})
    vertices = []
    involution = {}
    for v in range(n):
        fwd = 2 * v
        back = (2 * ((v - 1) % n)) + 1
        vertices.append([fwd, back])
        involution[fwd] = 2 * v + 1
        involution[2 * v + 1] = fwd
    return RotationMap(vertices, involution)


def path_graph(n_edges: int) -> RotationMap:
    if n_edges < 1:
        raise ValueError("path needs at least one edge")
    vertices: list[list[int]] = [[] for _ in range(n_edges + 1)]
    involution = {}
    for e in range(n_edges):
        a, b = 2 * e, 2 * e + 1
        vertices[e].append(a)
        vertices[e + 1].append(b)
        involution[a] = b
        involution[b] = a
    return RotationMap(vertices, involution)


def grid_graph(rows: int, cols: int) -> RotationMap:
    """The rows x cols grid as a plane graph with ccw rotations."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least two vertices")
    counter = 0
    slots: dict[tuple[int, int, str], int] = {}
    involution = {}
    vertices = []

    def vid(r, c):
        return r * cols + c

    # assign half-edge ids edge by edge
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                slots[(r, c, "E")] = counter
                slots[(r, c + 1, "W")] = counter + 1
                involution[counter] = counter + 1
                involution[counter + 1] = counter
                counter += 2
            if r + 1 < rows:
                slots[(r, c, "S")] = counter
                slots[(r + 1, c, "N")] = counter + 1
                involution[counter] = counter + 1
                involution[counter + 1] = counter
                counter += 2
    for r in range(rows):
        for c in range(cols):
            rot = []
            # ccw in screen coordinates with row growing downward: E, N, W, S
            for d in ("E", "N", "W", "S"):
                if (r, c, d) in slots:
                    rot.append(slots[(r, c, d)])
            vertices.append(rot)
    return RotationMap(vertices, involution)


def cycle_medial(n: int) -> RotationMap:
    """Medial of the n-cycle: the doubled n-cycle, 4-regular."""
    return medial(cycle_graph(n))


def grid_patch(rows: int, cols: int) -> RotationMap:
    """A 4-regular patch: the medial of the rows x cols grid."""
    return medial(grid_graph(rows, cols))


def random_plane_graph(n_edges: int, seed: int) -> RotationMap:
    """A random connected plane multigraph with n_edges edges, grown edge by edge.

    It starts from a single loop.  Each step draws a face and then adds one
    edge inside it: a pendant edge to a new vertex at one of the face's
    corners, a chord between two of its corners, or a loop at one corner.
    Every new half-edge is spliced into its rotation just before a corner's
    half-edge, so the embedding stays planar.  Edge k is the half-edge pair
    (2k, 2k + 1).

    The draws index the face list in the order `RotationMap.faces` gives:
    faces by their least half-edge, each cycle starting at its least
    half-edge.  A step changes only the face it drew, so the generator keeps
    that list up to date one face at a time instead of rebuilding it.  The
    graphs, rotation lists included, are exactly those of the earlier
    generator that rebuilt every face at each step, which the tests keep as
    the reference.
    """
    rng = random.Random(seed)
    # start from a single loop, whose inside and outside are one-corner faces
    vertices: list[list[int]] = [[0, 1]]
    vertex_of = [0, 0]
    rot_next = [1, 0]
    faces = [[0], [1]]
    minima = [0, 1]

    def insert_before(x: int, y: int) -> None:
        rot = vertices[vertex_of[y]]
        slot = rot.index(y)
        rot_next[rot[slot - 1]] = x
        rot_next[x] = y
        rot.insert(slot, x)
        vertex_of[x] = vertex_of[y]

    def add_face(start: int) -> list[int]:
        cycle = [start]
        h = rot_next[start ^ 1]
        while h != start:
            cycle.append(h)
            h = rot_next[h ^ 1]
        low = min(cycle)
        k = cycle.index(low)
        i = bisect_left(minima, low)
        minima.insert(i, low)
        faces.insert(i, cycle[k:] + cycle[:k])
        return cycle

    while len(vertex_of) // 2 < n_edges:
        choice = rng.random()
        face = rng.choice(faces)
        h1 = len(vertex_of)
        h2 = h1 + 1
        vertex_of += (0, 0)
        rot_next += (0, 0)
        if choice < 0.45:
            # new vertex hanging off a face corner
            insert_before(h1, rng.choice(face))
            vertex_of[h2] = len(vertices)
            rot_next[h2] = h2
            vertices.append([h2])
        elif choice < 0.9 and len(face) >= 2:
            # chord across one face between two of its corners; at a single
            # vertex, h1 goes before the corner that comes first in rotation
            h_a, h_b = rng.sample(face, 2)
            if vertex_of[h_a] == vertex_of[h_b]:
                rot = vertices[vertex_of[h_a]]
                if rot.index(h_a) > rot.index(h_b):
                    h_a, h_b = h_b, h_a
            insert_before(h1, h_a)
            insert_before(h2, h_b)
        else:
            # loop at a face corner
            insert_before(h1, rng.choice(face))
            insert_before(h2, h1)
        i = bisect_left(minima, face[0])
        del faces[i], minima[i]
        if h2 not in add_face(h1):
            add_face(h2)
    graph = RotationMap(vertices, {h: h ^ 1 for h in range(len(vertex_of))})
    graph.validate_planar()
    return graph


def medial_of_random_plane_graph(n_edges: int, seed: int) -> RotationMap:
    return medial(random_plane_graph(n_edges, seed))


# -- serialization --------------------------------------------------------------

HEADER = "sixvertex-instance v1"


def serialize_instance(inst: PlanarInstance) -> str:
    """The instance as `sixvertex-instance v1` text, the format that
    `parse_instance` and `sixvertex eval` read.  The header line comes
    first, then three sections, each opened by its own line: `signatures:`,
    one `<name>: a,b,c,x,y,z` line per distinct label (named s0, s1, ...);
    `vertices:`, one `v<i>: <name> : h.. h.. h.. h..` line per vertex, its
    four half-edges in counterclockwise order; and `edges:`, one
    `h<a> - h<b>` line per edge.  Blank lines and `#` comments are ignored.
    """
    names: dict[str, str] = {}
    label_names = []
    for label in inst.labels:
        text = format_signature(label)
        if text not in names:
            names[text] = f"s{len(names)}"
        label_names.append(names[text])
    lines = [HEADER, "signatures:"]
    for text, name in names.items():
        lines.append(f"{name}: {text}")
    lines.append("vertices:")
    for vid, rot in enumerate(inst.map.vertices):
        slots = " ".join(f"h{h}" for h in rot)
        lines.append(f"v{vid}: {label_names[vid]} : {slots}")
    lines.append("edges:")
    for h, k in inst.map.edges():
        lines.append(f"h{h} - h{k}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> PlanarInstance:
    """The instance that `sixvertex-instance v1` text describes (see
    `serialize_instance`); MapError when the text is malformed, breaks the
    PlanarInstance contract or describes a map that is not planar."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != HEADER:
        raise MapError(f"missing header {HEADER!r}")
    section = None
    signatures: dict[str, object] = {}
    vertex_rows: list[tuple[int, str, list[int]]] = []
    involution: dict[int, int] = {}
    for ln in lines[1:]:
        if ln == "signatures:":
            section = "signatures"
            continue
        if ln == "vertices:":
            section = "vertices"
            continue
        if ln == "edges:":
            section = "edges"
            continue
        if section == "signatures":
            name, _, literal = ln.partition(":")
            name = name.strip()
            if not literal:
                raise MapError(f"bad signature line {ln!r}")
            if name in signatures:
                raise MapError(f"signature name {name!r} is defined twice")
            try:
                signatures[name] = parse_signature(literal.strip())
            except ValueError as exc:
                raise MapError(f"bad signature line {ln!r}: {exc}") from exc
        elif section == "vertices":
            head, _, slots_text = ln.rpartition(":")
            vid_text, _, sig_name = head.partition(":")
            if not slots_text or not sig_name:
                raise MapError(f"bad vertex line {ln!r}")
            vid = _parse_id(vid_text.strip(), "v")
            slots = [_parse_id(tok, "h") for tok in slots_text.split()]
            vertex_rows.append((vid, sig_name.strip(), slots))
        elif section == "edges":
            left, _, right = ln.partition("-")
            a = _parse_id(left.strip(), "h")
            b = _parse_id(right.strip(), "h")
            involution[a] = b
            involution[b] = a
        else:
            raise MapError(f"content outside any section: {ln!r}")
    vertex_rows.sort()
    if [vid for vid, _, _ in vertex_rows] != list(range(len(vertex_rows))):
        raise MapError("vertex ids must be v0..vN-1")
    labels = []
    for _, name, _ in vertex_rows:
        if name not in signatures:
            raise MapError(f"unknown signature name {name!r}")
        labels.append(signatures[name])
    rotation = RotationMap([slots for _, _, slots in vertex_rows], involution)
    inst = PlanarInstance(rotation, tuple(labels))
    rotation.validate_planar()
    return inst


def _parse_id(token: str, prefix: str) -> int:
    if not token.startswith(prefix):
        raise MapError(f"expected {prefix}<int>, got {token!r}")
    try:
        return int(token[len(prefix):])
    except ValueError as exc:
        raise MapError(f"expected {prefix}<int>, got {token!r}") from exc
