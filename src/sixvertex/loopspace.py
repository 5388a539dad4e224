"""Planar evaluation through the loop space of an instance.

For a signature whose inner pair vanishes (c = z = 0), the support forces
each vertex to route two crossing strands, and the closure of the edge-twin
relation (the paired half-edge through the implicit Disequality, and the
opposite half-edge at a degree-4 vertex) partitions the half-edges into
circuits.  Each circuit carries exactly two consistent assignments, so the
Holant collapses to a #CSP whose variables are the circuits: intersection
vertices contribute binary tables, self-intersections unary ones.

Planarity makes every pair of circuits cross an even number of times,
which is what pushes the induced tables into the product-type or affine
classes under conditions 4(i)/4(ii) of the trichotomy.

Tables are computed two independent ways: directly, by extending the two
leader assignments along both circuits, and through the entry/exit
exponent profiles; the two must agree entrywise, which pins down the
combinatorial chirality conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Callable, Optional, Sequence

from .cspsolve import NotAffine, NotProduct, affine_eval, product_eval
from .instance import PlanarInstance
from .membership import is_affine, is_product
from .oracle import csp_brute
from .scalar import ZERO, Scalar
from .signature import BinarySignature, SixVertexSignature, UnarySignature


class LoopSpaceError(ValueError):
    pass


@dataclass(frozen=True)
class VertexRecord:
    vertex: int
    kind: str  # "intersection" or "self"
    i: int
    j: int  # equals i for self-intersections
    x1: int  # the half-edge labeled x1 (an entering half of circuit i)
    rotation: int  # slot index of x1 in the vertex's rotation
    entry: bool  # meaningful for intersections only


@dataclass(frozen=True)
class CircuitDecomposition:
    circuits: tuple[tuple[int, ...], ...]  # even positions enter their vertex
    leaders: tuple[int, ...]
    circuit_of: tuple[int, ...]  # per half-edge
    enters: tuple[bool, ...]  # per half-edge: entering its vertex
    records: tuple[VertexRecord, ...]

    @property
    def k(self) -> int:
        return len(self.circuits)


def _require_loop_form(inst: PlanarInstance) -> None:
    for rot, label in zip(inst.map.vertices, inst.labels):
        if len(rot) != 4 or not isinstance(label, SixVertexSignature):
            raise LoopSpaceError("loop space needs degree-4 six-vertex labels only")
        if not (label.c.is_zero() and label.z.is_zero()):
            raise LoopSpaceError("loop space needs labels with zero inner pair")


def decompose(
    inst: PlanarInstance, leaders: Optional[Sequence[int]] = None
) -> CircuitDecomposition:
    """Partition the half-edges into circuits and classify every vertex.

    `leaders` optionally lists one half-edge per circuit to anchor its
    traversal (the anchored half-edge enters its vertex first); by default
    the lowest half-edge id of each circuit leads it.
    """
    _require_loop_form(inst)
    m = inst.map
    n_half = m.half_edge_count
    circuit_of = [-1] * n_half
    enters = [False] * n_half
    circuits: list[tuple[int, ...]] = []
    chosen_leaders: list[int] = []
    preferred = list(leaders) if leaders else []

    def trace(start: int, cid: int) -> tuple[int, ...]:
        seq = []
        h = start
        entering = True
        while circuit_of[h] == -1:
            circuit_of[h] = cid
            enters[h] = entering
            seq.append(h)
            h = m.opposite(h) if entering else m.involution[h]
            entering = not entering
        if h != start:
            raise LoopSpaceError("twin closure failed to close a circuit")
        return tuple(seq)

    for start in list(preferred) + list(range(n_half)):
        if circuit_of[start] != -1:
            continue
        cid = len(circuits)
        circuits.append(trace(start, cid))
        chosen_leaders.append(start)

    records = []
    for vid, rot in enumerate(m.vertices):
        enter_halves = [h for h in rot if enters[h]]
        if len(enter_halves) != 2:
            raise LoopSpaceError("each vertex must be entered exactly twice")
        e1, e2 = enter_halves
        c1, c2 = circuit_of[e1], circuit_of[e2]
        if c1 == c2:
            # self-intersection: x1 is the enter whose ccw-successor is the
            # other enter
            if m.rotation_next(e1) == e2:
                x1 = e1
            elif m.rotation_next(e2) == e1:
                x1 = e2
            else:
                raise LoopSpaceError("self-intersection enters are not adjacent")
            records.append(
                VertexRecord(vid, "self", c1, c1, x1, m.slot_of[x1], False)
            )
        else:
            lo_half, hi_half = (e1, e2) if c1 < c2 else (e2, e1)
            # entry vertex: circuit j enters through the ccw-successor of x1
            entry = m.rotation_next(lo_half) == hi_half
            records.append(
                VertexRecord(
                    vid,
                    "intersection",
                    min(c1, c2),
                    max(c1, c2),
                    lo_half,
                    m.slot_of[lo_half],
                    entry,
                )
            )
    return CircuitDecomposition(
        tuple(circuits),
        tuple(chosen_leaders),
        tuple(circuit_of),
        tuple(enters),
        tuple(records),
    )


@dataclass(frozen=True)
class InducedCSP:
    n_vars: int
    binary: dict[tuple[int, int], BinarySignature]
    unary: dict[int, UnarySignature]

    def constraints(self) -> list[tuple[object, tuple[int, ...]]]:
        out: list[tuple[object, tuple[int, ...]]] = []
        for (i, j), table in sorted(self.binary.items()):
            out.append((table, (i, j)))
        for i, table in sorted(self.unary.items()):
            out.append((table, (i,)))
        return out


def _vertex_factor(inst: PlanarInstance, dec: CircuitDecomposition, vid: int, bits) -> Scalar:
    m = inst.map
    args = []
    for h in m.vertices[vid]:
        b = bits[dec.circuit_of[h]]
        args.append(b if dec.enters[h] else 1 - b)
    return inst.labels[vid].value(*args)


def _factor_product(
    inst: PlanarInstance, dec: CircuitDecomposition, recs: Sequence[VertexRecord], bits
) -> Scalar:
    """Product of the vertex factors at `recs`, as one power per distinct
    factor value."""
    counts: dict[Scalar, int] = {}
    for rec in recs:
        v = _vertex_factor(inst, dec, rec.vertex, bits)
        if v.is_zero():
            return ZERO
        counts[v] = counts.get(v, 0) + 1
    return reduce(mul, [v**e for v, e in counts.items()])


def induced_csp(
    dec: CircuitDecomposition,
    inst: PlanarInstance,
    profile_base: Optional[SixVertexSignature] = None,
) -> InducedCSP:
    """Build the circuit #CSP, verifying the direct tables against the
    entry/exit exponent profiles when a base signature is available."""
    check = profile_base is not None
    form_index = _form_indexer(inst, profile_base) if check else None
    pair_vertices: dict[tuple[int, int], list[VertexRecord]] = {}
    self_vertices: dict[int, list[VertexRecord]] = {}
    for rec in dec.records:
        if rec.kind == "intersection":
            pair_vertices.setdefault((rec.i, rec.j), []).append(rec)
        else:
            self_vertices.setdefault(rec.i, []).append(rec)

    binary = {}
    for (i, j), recs in pair_vertices.items():
        table = BinarySignature(
            *(
                _factor_product(inst, dec, recs, {i: b, j: bp})
                for b in (0, 1)
                for bp in (0, 1)
            )
        )
        if check:
            profile = _profile_binary(recs, profile_base, form_index)
            if profile.values() != table.values():
                raise LoopSpaceError(
                    f"direct and profile tables disagree on pair {(i, j)}"
                )
        binary[(i, j)] = table

    unary = {}
    for i, recs in self_vertices.items():
        table = UnarySignature(*(_factor_product(inst, dec, recs, {i: b}) for b in (0, 1)))
        if check:
            profile = _profile_unary(recs, profile_base, form_index)
            if profile.values() != table.values():
                raise LoopSpaceError(f"direct and profile tables disagree on h_{i}")
        unary[i] = table
    return InducedCSP(dec.k, binary, unary)


_FormIndex = Callable[[VertexRecord], int]


def _form_indexer(inst: PlanarInstance, base: SixVertexSignature) -> _FormIndex:
    """Which rotated form of `base` the local x1-labeling sees at a vertex,
    memoised per (label, rotation) for the lifetime of the returned function.

    The memo is keyed by the label's id, which is unique while `inst` keeps
    every label alive, and cheaper than hashing a label's six scalars."""
    base_forms = [base.rotate(r) for r in range(4)]
    memo: dict[tuple[int, int], int] = {}

    def form_index(rec: VertexRecord) -> int:
        label = inst.labels[rec.vertex]
        key = (id(label), rec.rotation)
        r = memo.get(key)
        if r is None:
            local = label.rotate(rec.rotation)
            for r, form in enumerate(base_forms):
                if form == local:
                    break
            else:
                raise LoopSpaceError("vertex label is not a rotation of the base signature")
            memo[key] = r
        return r

    return form_index


def _profile_binary(
    recs: Sequence[VertexRecord], base: SixVertexSignature, form_index: _FormIndex
) -> BinarySignature:
    """Def-4.3 monomial evaluation from the (k, l) exponent profile."""
    k = [0, 0, 0, 0]
    l = [0, 0, 0, 0]
    for rec in recs:
        r = form_index(rec)
        if rec.entry:
            k[r] += 1
        else:
            # exit columns are shifted: forms f^{pi/2},f^{pi},f^{3pi/2},f
            l[(r - 1) % 4] += 1
    if sum(k) != sum(l):
        raise LoopSpaceError("entry/exit imbalance in a pairwise profile")
    a, b, x, y = base.a, base.b, base.x, base.y
    k1, k2, k3, k4 = k
    l1, l2, l3, l4 = l
    return BinarySignature(
        a ** (k1 + l1) * y ** (k2 + l2) * x ** (k3 + l3) * b ** (k4 + l4),
        a ** (k2 + l4) * y ** (k3 + l1) * x ** (k4 + l2) * b ** (k1 + l3),
        a ** (k4 + l2) * y ** (k1 + l3) * x ** (k2 + l4) * b ** (k3 + l1),
        a ** (k3 + l3) * y ** (k4 + l4) * x ** (k1 + l1) * b ** (k2 + l2),
    )


def _profile_unary(
    recs: Sequence[VertexRecord], base: SixVertexSignature, form_index: _FormIndex
) -> UnarySignature:
    m = [0, 0, 0, 0]
    for rec in recs:
        m[form_index(rec)] += 1
    a, b, x, y = base.a, base.b, base.x, base.y
    m1, m2, m3, m4 = m
    return UnarySignature(
        a ** m1 * y ** m2 * x ** m3 * b ** m4,
        a ** m3 * y ** m4 * x ** m1 * b ** m2,
    )


def entry_exit_audit(dec: CircuitDecomposition) -> bool:
    """Whether every pair of circuits has as many entries as exits; a
    plane circuit leaves another as often as it enters it."""
    balance: dict[tuple[int, int], int] = {}
    for rec in dec.records:
        if rec.kind == "intersection":
            key = (rec.i, rec.j)
            balance[key] = balance.get(key, 0) + (1 if rec.entry else -1)
    return not any(balance.values())


def evaluate(
    inst: PlanarInstance,
    profile_base: Optional[SixVertexSignature] = None,
    method: str = "auto",
) -> Scalar:
    """Evaluate the instance through its circuit #CSP.

    method: "auto" tries the product-type propagation, then Gauss sums,
    then brute enumeration, which raises OracleCapExceeded past csp_brute's
    cap; "product", "affine" and "brute" force one path.

    Many induced tables repeat, so each distinct table is tested for
    membership once per call, and the solvers receive the constraints as
    (witness, variables) pairs instead of re-testing every table.  Nothing
    is kept between calls.
    """
    dec = decompose(inst)
    if not entry_exit_audit(dec):
        raise LoopSpaceError("entry/exit balance violated (planarity bug)")
    csp = induced_csp(dec, inst, profile_base=profile_base)
    constraints = csp.constraints()
    if method in ("auto", "product"):
        witnessed = _witnessed(constraints, is_product)
        if witnessed is not None:
            return product_eval(witnessed, csp.n_vars)
        if method == "product":
            raise NotProduct("induced tables are not product-type")
    if method in ("auto", "affine"):
        witnessed = _witnessed(constraints, is_affine)
        if witnessed is not None:
            return affine_eval(witnessed, csp.n_vars)
        if method == "affine":
            raise NotAffine("induced tables are not affine")
    if method in ("auto", "brute"):
        return csp_brute(csp.n_vars, constraints)
    raise ValueError(f"unknown method {method!r}")


def _witnessed(
    constraints: Sequence[tuple[object, tuple[int, ...]]],
    membership: Callable[[object], Optional[object]],
) -> Optional[list[tuple[object, tuple[int, ...]]]]:
    """The constraints as (witness, variables) pairs, running `membership`
    once per distinct table; None as soon as one table has no witness."""
    witness_of: dict[tuple[Scalar, ...], Optional[object]] = {}
    out = []
    for table, variables in constraints:
        key = table.values()
        if key in witness_of:
            witness = witness_of[key]
        else:
            witness = witness_of[key] = membership(table)
        if witness is None:
            return None
        out.append((witness, variables))
    return out
