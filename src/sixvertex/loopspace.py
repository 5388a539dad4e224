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

Per record, `induced_csp` does integer bookkeeping only: it files the
vertex under its class (label object, slot of x1, entry or exit, self or
intersection).  Circuits run straight through a degree-4 vertex, so the
class fixes the vertex's factor under every assignment of its circuits;
the factors and the class's rotated form of the base are computed once per
class.  A pair's or a circuit's table depends only on how many of its
vertices fall in each class, so the direct table is built once per distinct
count vector and the profile table once per distinct exponent vector, and
every pair and every circuit is still compared against its profile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .cspsolve import NotAffine, NotProduct, affine_eval, once_per_table, product_eval
from .instance import PlanarInstance
from .membership import is_affine, is_product
from .scalar import ONE, ZERO, Scalar
from .signature import BinarySignature, SixVertexSignature, UnarySignature


class LoopSpaceError(ValueError):
    pass


class VertexRecord(NamedTuple):
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


def _require_loop_labels(inst: PlanarInstance) -> None:
    for label in {id(label): label for label in inst.labels}.values():
        if not isinstance(label, SixVertexSignature):
            raise LoopSpaceError("loop space needs degree-4 six-vertex labels only")
        if not (label.c.is_zero() and label.z.is_zero()):
            raise LoopSpaceError("loop space needs labels with zero inner pair")


def decompose(
    inst: PlanarInstance, leaders: Optional[Sequence[int]] = None
) -> CircuitDecomposition:
    """Partition the half-edges into circuits and classify every vertex.

    `leaders` optionally lists one half-edge per circuit to anchor its
    traversal (the anchored half-edge enters its vertex first); by default
    the lowest half-edge id of each circuit leads it.  A leader that is not
    a half-edge of the instance, a vertex of degree other than 4 or a label
    that is not a six-vertex signature with zero inner pair raises
    LoopSpaceError.
    """
    _require_loop_labels(inst)
    m = inst.map
    n_half = m.half_edge_count
    preferred = list(leaders) if leaders else []
    for h in preferred:
        if not 0 <= h < n_half:
            raise LoopSpaceError(
                f"leader {h!r} is not a half-edge of the instance (0..{n_half - 1})"
            )
    opposite = [0] * n_half
    successor = [0] * n_half  # ccw-successor around the vertex
    try:
        for h0, h1, h2, h3 in m.vertices:
            opposite[h0], opposite[h1], opposite[h2], opposite[h3] = h2, h3, h0, h1
            successor[h0], successor[h1], successor[h2], successor[h3] = h1, h2, h3, h0
    except ValueError:  # a rotation of other than four half-edges
        raise LoopSpaceError("loop space needs degree-4 six-vertex labels only") from None
    involution = m.involution
    circuit_of = [-1] * n_half
    enters = [False] * n_half
    circuits: list[tuple[int, ...]] = []
    chosen_leaders: list[int] = []

    for start in chain(preferred, range(n_half)):
        if circuit_of[start] != -1:
            continue
        cid = len(circuits)
        seq: list[int] = []
        h = start
        # an entering half-edge leaves through its opposite, whose twin
        # enters the next vertex
        while circuit_of[h] == -1:
            out = opposite[h]
            circuit_of[h] = circuit_of[out] = cid
            enters[h] = True
            seq += (h, out)
            h = involution[out]
        if h != start:
            raise LoopSpaceError("twin closure failed to close a circuit")
        circuits.append(tuple(seq))
        chosen_leaders.append(start)

    slot_of = m.slot_of
    records = []
    for vid, (h0, h1, h2, h3) in enumerate(m.vertices):
        if enters[h0] == enters[h2] or enters[h1] == enters[h3]:
            raise LoopSpaceError("each vertex must be entered exactly twice")
        # the two enters, in adjacent slots
        e1 = h0 if enters[h0] else h2
        e2 = h1 if enters[h1] else h3
        c1, c2 = circuit_of[e1], circuit_of[e2]
        if c1 == c2:
            # self-intersection: x1 is the enter whose ccw-successor is the
            # other enter
            x1 = e1 if successor[e1] == e2 else e2
            records.append(VertexRecord(vid, "self", c1, c1, x1, slot_of[x1], False))
        else:
            if c1 > c2:
                e1, e2, c1, c2 = e2, e1, c2, c1
            # entry vertex: circuit j enters through the ccw-successor of x1
            records.append(
                VertexRecord(
                    vid, "intersection", c1, c2, e1, slot_of[e1], successor[e1] == e2
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


def _class_factors(
    inst: PlanarInstance, dec: CircuitDecomposition, rec: VertexRecord
) -> tuple[Scalar, ...]:
    """The factor of `rec`'s vertex under each assignment of its circuits,
    in table order: (i, j) = 00, 01, 10, 11, or i = 0, 1 at a
    self-intersection."""
    if rec.kind == "self":
        return tuple(_vertex_factor(inst, dec, rec.vertex, {rec.i: b}) for b in (0, 1))
    return tuple(
        _vertex_factor(inst, dec, rec.vertex, {rec.i: b, rec.j: bp})
        for b in (0, 1)
        for bp in (0, 1)
    )


class _PowerTable:
    """The powers one induced_csp call needs, each distinct (value,
    exponent) computed once.  Values are interned as small ints, so the
    per-entry bookkeeping hashes ints rather than Scalars."""

    def __init__(self) -> None:
        self._values: list[Scalar] = []
        self._ids: dict[Scalar, int] = {}
        self._powers: dict[tuple[int, int], Scalar] = {}

    def intern(self, value: Scalar) -> int:
        vid = self._ids.get(value)
        if vid is None:
            vid = self._ids[value] = len(self._values)
            self._values.append(value)
        return vid

    def monomial(self, terms: Iterable[tuple[int, int]]) -> Scalar:
        """The product of value ** exponent over (interned value, exponent)
        terms, equal values sharing one power: ZERO when a zero value has a
        positive exponent, and factors equal to ONE are skipped."""
        merged: dict[int, int] = {}
        for vid, e in terms:
            if e:
                merged[vid] = merged.get(vid, 0) + e
        out = ONE
        for vid, e in merged.items():
            power = self._powers.get((vid, e))
            if power is None:
                value = self._values[vid]
                if value.is_zero():
                    return ZERO
                power = self._powers[vid, e] = ONE if value == ONE else value**e
            if power is not ONE:
                out = power if out is ONE else out * power
        return out


def _table_entries(
    counts: Counter, factors: Sequence[tuple[int, ...]], size: int, powers: _PowerTable
) -> list[Scalar]:
    """Each table entry as the product of the class factors (interned in
    `powers`) raised to the class counts."""
    return [powers.monomial((factors[c][e], n) for c, n in counts.items()) for e in range(size)]


def _outer_ids(powers: _PowerTable, base: SixVertexSignature) -> list[int]:
    """The base's outer values interned, in the profiles' order a, y, x, b."""
    return [powers.intern(v) for v in (base.a, base.y, base.x, base.b)]


def induced_csp(
    dec: CircuitDecomposition,
    inst: PlanarInstance,
    profile_base: Optional[SixVertexSignature] = None,
) -> InducedCSP:
    """Build the circuit #CSP, verifying the direct tables against the
    entry/exit exponent profiles when a base signature is available.

    Per record, the vertex is filed under its class and its pair or circuit.
    Per class, the vertex factors and the form index are computed once.  Per
    distinct class-count vector, the direct table is built and compared
    with the profile table, which is computed once per distinct (k, l) or m
    exponent vector.  Both sides read their powers from one table per call,
    so each distinct (value, exponent) power is computed once, and neither
    multiplies by ONE.  Nothing is kept between calls.
    """
    labels = inst.labels
    # the class memo keys on the label's id, which is unique while `inst`
    # keeps every label alive, and cheaper than hashing its six scalars
    class_of: dict[tuple[int, int, bool, str], int] = {}
    reps: list[VertexRecord] = []
    pair_classes: dict[tuple[int, int], list[int]] = {}
    self_classes: dict[int, list[int]] = {}
    for rec in dec.records:
        key = (id(labels[rec.vertex]), rec.rotation, rec.entry, rec.kind)
        c = class_of.get(key)
        if c is None:
            c = class_of[key] = len(reps)
            reps.append(rec)
        if rec.kind == "intersection":
            pair_classes.setdefault((rec.i, rec.j), []).append(c)
        else:
            self_classes.setdefault(rec.i, []).append(c)
    powers = _PowerTable()
    factors = [
        tuple(powers.intern(v) for v in _class_factors(inst, dec, rec)) for rec in reps
    ]

    check = profile_base is not None
    if check:
        base_forms = [profile_base.rotate(r) for r in range(4)]
        form = [_form_indexer(base_forms, labels[rec.vertex], rec.rotation) for rec in reps]
        binary_profiles: dict[tuple[tuple[int, ...], tuple[int, ...]], BinarySignature] = {}
        unary_profiles: dict[tuple[int, ...], UnarySignature] = {}

    binary = {}
    binary_tables: dict[tuple[int, ...], BinarySignature] = {}
    for pair, classes in pair_classes.items():
        key = tuple(sorted(classes))
        table = binary_tables.get(key)
        if table is None:
            counts = Counter(key)
            table = binary_tables[key] = BinarySignature(
                *_table_entries(counts, factors, 4, powers)
            )
            if check:
                k = [0, 0, 0, 0]
                l = [0, 0, 0, 0]
                for c, n in counts.items():
                    if reps[c].entry:
                        k[form[c]] += n
                    else:
                        # exit columns are shifted: forms f^{pi/2},f^{pi},f^{3pi/2},f
                        l[(form[c] - 1) % 4] += n
                exponents = (tuple(k), tuple(l))
                profile = binary_profiles.get(exponents)
                if profile is None:
                    profile = binary_profiles[exponents] = _profile_binary(
                        k, l, profile_base, powers
                    )
                if profile.values() != table.values():
                    raise LoopSpaceError(f"direct and profile tables disagree on pair {pair}")
        binary[pair] = table

    unary = {}
    unary_tables: dict[tuple[int, ...], UnarySignature] = {}
    for i, classes in self_classes.items():
        key = tuple(sorted(classes))
        table = unary_tables.get(key)
        if table is None:
            counts = Counter(key)
            table = unary_tables[key] = UnarySignature(
                *_table_entries(counts, factors, 2, powers)
            )
            if check:
                m = [0, 0, 0, 0]
                for c, n in counts.items():
                    m[form[c]] += n
                exponents = tuple(m)
                profile = unary_profiles.get(exponents)
                if profile is None:
                    profile = unary_profiles[exponents] = _profile_unary(
                        m, profile_base, powers
                    )
                if profile.values() != table.values():
                    raise LoopSpaceError(f"direct and profile tables disagree on h_{i}")
        unary[i] = table
    return InducedCSP(dec.k, binary, unary)


def _form_indexer(
    base_forms: Sequence[SixVertexSignature], label: SixVertexSignature, rotation: int
) -> int:
    """Which rotated form of the base (`base_forms[r]` is the base turned r
    quarter turns) the local x1-labeling sees at a vertex with `label`
    whose x1 sits at slot `rotation`."""
    local = label.rotate(rotation)
    for r, form in enumerate(base_forms):
        if form == local:
            return r
    raise LoopSpaceError("vertex label is not a rotation of the base signature")


def _profile_binary(
    k: Sequence[int], l: Sequence[int], base: SixVertexSignature, powers: _PowerTable
) -> BinarySignature:
    """Def-4.3 monomial evaluation from the (k, l) exponent profile: k counts
    the entry vertices in each form, l the exit vertices in each shifted
    form."""
    if sum(k) != sum(l):
        raise LoopSpaceError("entry/exit imbalance in a pairwise profile")
    k1, k2, k3, k4 = k
    l1, l2, l3, l4 = l
    outer = _outer_ids(powers, base)
    return BinarySignature(
        powers.monomial(zip(outer, (k1 + l1, k2 + l2, k3 + l3, k4 + l4))),
        powers.monomial(zip(outer, (k2 + l4, k3 + l1, k4 + l2, k1 + l3))),
        powers.monomial(zip(outer, (k4 + l2, k1 + l3, k2 + l4, k3 + l1))),
        powers.monomial(zip(outer, (k3 + l3, k4 + l4, k1 + l1, k2 + l2))),
    )


def _profile_unary(
    m: Sequence[int], base: SixVertexSignature, powers: _PowerTable
) -> UnarySignature:
    """The unary profile table from m, the self-intersections in each form."""
    m1, m2, m3, m4 = m
    outer = _outer_ids(powers, base)
    return UnarySignature(
        powers.monomial(zip(outer, (m1, m2, m3, m4))),
        powers.monomial(zip(outer, (m3, m4, m1, m2))),
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


_METHODS = ("auto", "product", "affine")


def evaluate(
    inst: PlanarInstance,
    profile_base: Optional[SixVertexSignature] = None,
    method: str = "auto",
) -> Scalar:
    """Evaluate the instance through its circuit #CSP.

    method: "auto" tries the product-type propagation, then Gauss sums,
    and raises NotAffine when the induced tables fit neither; "product"
    and "affine" force one path, raising NotProduct or NotAffine when its
    tables do not fit.  Under condition 4 of the trichotomy with one base
    signature the tables always fit one of the two.

    An unknown method raises ValueError before any work is done.

    `induced_csp` does per-vertex bookkeeping only and builds each distinct
    table once (see its docstring).  Many induced tables repeat, so each
    distinct table is tested for membership once per call, and the solvers
    receive the constraints as (witness, variables) pairs instead of
    re-testing every table.  Nothing is kept between calls.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
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
    witnessed = _witnessed(constraints, is_affine)
    if witnessed is None:
        raise NotAffine("induced tables are not affine")
    return affine_eval(witnessed, csp.n_vars)


def _witnessed(
    constraints: Sequence[tuple[object, tuple[int, ...]]],
    membership: Callable[[object], Optional[object]],
) -> Optional[list[tuple[object, tuple[int, ...]]]]:
    """The constraints as (witness, variables) pairs, running `membership`
    once per distinct table; None as soon as one table has no witness."""
    witness_of = once_per_table(membership)
    out = []
    for table, variables in constraints:
        witness = witness_of(table)
        if witness is None:
            return None
        out.append((witness, variables))
    return out
