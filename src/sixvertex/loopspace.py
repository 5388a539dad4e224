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

The per-vertex work is one pass over integers.  `decompose` tags each
half-edge with its circuit and whether it enters or leaves its vertex, then
reads every vertex off the tags of its half-edges as two integers: the key
i * k + j of its circuit pair (i == j at a self-intersection) and its local
code, slot of x1 * 4 + entry * 2 + self.  No per-vertex object is made.
A vertex's class, its (pair key, local code), depends on the map alone, so
the decomposition also keeps each class with its vertex count.  When every
vertex carries one label object, as in Holant(!= | f) with one f,
`induced_csp` reads those classes as they are; an instance with more than
one label object is counted per (pair key, local code, label id) on each
call.  Circuits run straight through a degree-4 vertex, so a local code
with a label fixes the vertex's factor under every assignment of its
circuits and its rotated form of the base; both are computed once per
local code and label.

Every induced table entry is a monomial in the base's outer values a, y,
x, b, held as one packed exponent vector: an int whose field j, wide
enough for the vertex count, is the exponent of the j-th distinct outer
value.  A direct entry is the sum, over the classes at a pair or circuit,
of count times the vector of the class's factor, and a profile entry is
the same linear form in (k, l) or m that Def. 4.3 gives, so the two sides
are compared as integers.  One table object stands for each distinct tuple
of packed entries in a call, and only when a direct and a profile tuple
differ are their values compared.  Values are formed once per distinct
vector: a value in mu_8 = {w^t} adds t times its exponent to one turn mod
8, applied once as MU8[turn]; every other value reads its power from a
per-call (value, exponent) cache, and a zero value with a positive
exponent gives ZERO.

The circuits depend on the map alone, and the labels only weigh them, so
`decompose` walks a map once and keeps its CircuitDecomposition, vertex
classes included, on the map (`RotationMap.circuit_decomposition`); every
signature evaluated on one map reuses it, and an instance with one label
object does no per-vertex work but an identity test of its labels.
Tables, witnesses and powers are not kept between calls, and the
inner-pair check, the entry/exit audit and the profile check run on every
call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import is_, mul
from typing import Callable, Iterable, Optional, Sequence

from .cspsolve import NotAffine, NotProduct, affine_eval, once_per_table, product_eval
from .instance import PlanarInstance, RotationMap
from .membership import is_affine, is_product
from .scalar import MU8, ONE, ZERO, Scalar
from .signature import SixVertexSignature, Table


class LoopSpaceError(ValueError):
    pass


# A vertex's local code is SLOT * (the slot of x1 in its rotation), plus
# ENTRY when circuit j enters through the ccw-successor of x1, plus SELF at
# a self-intersection.  x1 is the entering half-edge of circuit i, the lower
# circuit; at a self-intersection, the enter whose ccw-successor is the
# other enter.
SLOT, ENTRY, SELF = 4, 2, 1


def _local_code(leaves: int, order: int) -> int:
    """The local code of a vertex whose half-edges at slots 0 and 1 leave it
    as the bits of `leaves` (leave0 * 2 + leave1), so that its enters sit at
    slots 2 * leave0 and 1 + 2 * leave1.  `order` is -1 when the circuit
    through slots 0 and 2 is the lower one, 1 when it is the higher one and
    0 at a self-intersection."""
    even, odd = 2 * (leaves >> 1), 1 + 2 * (leaves & 1)
    x1, other = (odd, even) if order > 0 else (even, odd)
    follows = (x1 + 1) % 4 == other
    if order == 0:
        return (x1 if follows else other) * SLOT + SELF
    return x1 * SLOT + (ENTRY if follows else 0)


# decompose reads a vertex's local code from one of these by its `leaves`
_CODES_EVEN_LOWER, _CODES_ODD_LOWER, _CODES_SELF = (
    tuple(_local_code(leaves, order) for leaves in range(4)) for order in (-1, 1, 0)
)


@dataclass(frozen=True)
class CircuitDecomposition:
    k: int  # the number of circuits
    tags: tuple[int, ...]  # per half-edge: 2 * circuit, + 1 if it leaves its vertex
    pairs: tuple[int, ...]  # per vertex: i * k + j for its circuits i <= j
    codes: tuple[int, ...]  # per vertex: its local code
    # each distinct (pair key, local code) with its vertex count, derived
    # from pairs and codes, so that dataclasses.replace keeps it consistent
    classes: tuple[tuple[int, int, int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        counts = Counter(zip(self.pairs, self.codes))
        classes = tuple((pair, code, n) for (pair, code), n in counts.items())
        object.__setattr__(self, "classes", classes)


def decompose(inst: PlanarInstance) -> CircuitDecomposition:
    """The circuits of the instance's map, with every vertex classified.

    The decomposition depends on the map alone, and decompose reads no
    label: induced_csp checks them.  The first call on a map walks it (see
    `_walk`), counts its vertex classes (`CircuitDecomposition.classes`,
    each (pair key, local code) with its vertex count) and keeps the result
    on the map; later calls on the same map, under any labels, return that
    same object.  A walk that raises keeps nothing.
    """
    m = inst.map
    dec = m.circuit_decomposition
    if dec is None:
        dec = m.circuit_decomposition = _walk(m)
    return dec


def _walk(m: RotationMap) -> CircuitDecomposition:
    """Partition the half-edges of `m` into circuits and classify every
    vertex.

    The walk tags each half-edge 2 * circuit if it enters its vertex and
    2 * circuit + 1 if it leaves it; the tags are all it keeps of the
    circuits.  Each vertex is then read off the tags of its four half-edges
    into its pair key and local code (see the module docstring); nothing is
    made per vertex or per circuit but integers.

    The lowest half-edge id of each circuit leads it: it enters its vertex
    first.
    """
    n_half = m.half_edge_count
    opposite = [0] * n_half
    for h0, h1, h2, h3 in m.vertices:
        opposite[h0], opposite[h1], opposite[h2], opposite[h3] = h2, h3, h0, h1
    involution = m.involution
    tag = [-1] * n_half
    k = 0

    for start in range(n_half):
        if tag[start] != -1:
            continue
        enter = 2 * k
        leave = enter + 1
        h = start
        # an entering half-edge leaves through its opposite, whose twin
        # enters the next vertex
        while tag[h] == -1:
            out = opposite[h]
            tag[h] = enter
            tag[out] = leave
            h = involution[out]
        if h != start:
            raise LoopSpaceError("twin closure failed to close a circuit")
        k += 1

    pairs: list[int] = []
    codes: list[int] = []
    for h0, h1, h2, h3 in m.vertices:
        t0, t1 = tag[h0], tag[h1]
        # opposite half-edges share a circuit, one entering and one leaving
        if t0 ^ tag[h2] != 1 or t1 ^ tag[h3] != 1:
            raise LoopSpaceError("each vertex must be entered exactly twice")
        c0, c1 = t0 >> 1, t1 >> 1
        leaves = (t0 & 1) << 1 | t1 & 1
        if c0 < c1:
            pairs.append(c0 * k + c1)
            codes.append(_CODES_EVEN_LOWER[leaves])
        elif c1 < c0:
            pairs.append(c1 * k + c0)
            codes.append(_CODES_ODD_LOWER[leaves])
        else:
            pairs.append(c0 * k + c0)
            codes.append(_CODES_SELF[leaves])
    return CircuitDecomposition(k, tuple(tag), tuple(pairs), tuple(codes))


@dataclass(frozen=True)
class InducedCSP:
    n_vars: int
    binary: dict[tuple[int, int], Table]
    unary: dict[int, Table]

    def constraints(self) -> list[tuple[Table, tuple[int, ...]]]:
        out: list[tuple[Table, tuple[int, ...]]] = []
        for (i, j), table in sorted(self.binary.items()):
            out.append((table, (i, j)))
        for i, table in sorted(self.unary.items()):
            out.append((table, (i,)))
        return out


def _class_factors(label: SixVertexSignature, code: int) -> tuple[Scalar, ...]:
    """The factor of a vertex with `label` and local `code` under each
    assignment of its circuits, in table order: (i, j) = 00, 01, 10, 11, or
    i = 0, 1 at a self-intersection.

    Circuit i enters at x1 and leaves through the opposite slot; circuit j
    enters through the slot after x1 at an entry vertex or a
    self-intersection, through the slot before it at an exit vertex."""
    x1 = code // SLOT
    other = x1 + 1 if code & (ENTRY | SELF) else x1 + 3

    def factor(b: int, bp: int) -> Scalar:
        args = [0, 0, 0, 0]
        args[x1], args[(x1 + 2) % 4] = b, 1 - b
        args[other % 4], args[(other + 2) % 4] = bp, 1 - bp
        return label.value(*args)

    if code & SELF:
        return tuple(factor(b, b) for b in (0, 1))
    return tuple(factor(b, bp) for b in (0, 1) for bp in (0, 1))


_TURN = {root: t for t, root in enumerate(MU8)}  # w^t -> t

# the table one induced_csp call shares for a tuple of packed entries
_TableOf = Callable[[tuple[int, ...]], Table]


def induced_csp(
    dec: CircuitDecomposition,
    inst: PlanarInstance,
    profile_base: SixVertexSignature,
) -> InducedCSP:
    """Build the circuit #CSP, verifying every direct table against the
    entry/exit exponent profiles of `profile_base` (Def. 4.3), whose
    quarter turns every label must be; a mismatch raises LoopSpaceError.
    So does a base whose inner pair is not zero, and since a quarter turn
    keeps the inner pair, that one check covers every label.

    When every vertex carries one label object, which an identity test of
    the labels decides without an __eq__, the vertex classes are the ones
    kept on `dec`, and no vertex is visited.  Otherwise the vertices are
    counted per (pair key, local code, label id) in one pass
    (`_count_per_label`).  Per local code and label the vertex factors and
    the form index are computed once.  Each table entry is a packed exponent
    vector over the base's outer values (see the module docstring).  A
    local code with a label packs its entries, and a profile count of one
    in the field of its form, into one int, so that a pair's or a circuit's
    direct entries and its (k, l) or m profile are the sum of count times
    that int over its classes.  The profile table is built once per
    distinct profile.  Each distinct tuple of packed entries is one table
    object, so a direct table and a profile table with equal vectors are
    the same object, and only when they are not are their values compared.
    Every pair and every circuit is checked.  Each value is formed once per
    distinct vector, each power of a value outside mu_8 once per exponent,
    and no power of a value in mu_8 at all.  `dec` and its classes may be
    kept on the map (see decompose), but the inner-pair check, the tables,
    the powers and the profile check are made anew on every call.
    """
    if not (profile_base.c.is_zero() and profile_base.z.is_zero()):
        raise LoopSpaceError("loop space needs labels with zero inner pair")
    labels = inst.labels
    first = labels[0] if labels else None
    if all(map(is_, labels, repeat(first))):
        # one label object, as in Holant(!= | f): the map's classes are the
        # instance's, and this identity test is the only per-vertex work
        label_of = {0: first}
        counted = (((pair, code, 0), n) for pair, code, n in dec.classes)
    else:
        label_of, counted = _count_per_label(dec, labels)
    n_circuits = dec.k
    # an exponent or a profile count never exceeds the vertex count, so
    # fields this wide never carry into each other
    width = max(1, len(labels).bit_length())
    mask = (1 << width) - 1
    # a label that passes _form_indexer is a quarter turn of the base, so
    # its factors are among the base's outer values: four fields an entry
    entry = 4 * width
    entry_mask = (1 << entry) - 1
    # a row: four entries, then the profile counts
    profile_shift = 4 * entry
    outer_values = (profile_base.a, profile_base.y, profile_base.x, profile_base.b)
    field_of: dict[Scalar, int] = {}
    for value in outer_values:
        field_of.setdefault(value, len(field_of))
    values = list(field_of)  # field j holds the exponent of values[j]
    turns = [_TURN.get(value) for value in values]  # t with values[j] = w^t
    outer = tuple(1 << width * field_of[value] for value in outer_values)

    powers: dict[tuple[int, int], Scalar] = {}

    def value_of(packed: int) -> Scalar:
        """The product of values[j] ** (field j of `packed`)."""
        out, turn, j = ONE, 0, 0
        while packed:
            e = packed & mask
            if e:
                t = turns[j]
                if t is not None:
                    turn += t * e
                else:
                    power = powers.get((j, e))
                    if power is None:
                        if values[j].is_zero():
                            return ZERO
                        power = powers[j, e] = values[j] ** e
                    out = power if out is ONE else out * power
            packed >>= width
            j += 1
        turn %= 8
        if turn:
            out = MU8[turn] if out is ONE else out * MU8[turn]
        return out

    vector_values: dict[int, Scalar] = {}
    tables: dict[tuple[int, ...], Table] = {}

    def table_of(packed: tuple[int, ...]) -> Table:
        table = tables.get(packed)
        if table is None:
            entries = []
            for p in packed:
                value = vector_values.get(p)
                if value is None:
                    value = vector_values[p] = value_of(p)
                entries.append(value)
            table = tables[packed] = Table(tuple(entries))
        return table

    base_forms = [profile_base.rotate(r) for r in range(4)]
    packed_of: dict[tuple[int, int], int] = {}
    pair_rows: dict[int, int] = {}
    self_rows: dict[int, int] = {}
    for (pair, code, key), n in counted:
        packed = packed_of.get((code, key))
        if packed is None:
            label = label_of[key]
            form = _form_indexer(base_forms, label, code // SLOT)
            # profile fields k1..k4, then l1..l4, or m1..m4; exit columns
            # are shifted: forms f^{pi/2},f^{pi},f^{3pi/2},f
            field = form if code & (ENTRY | SELF) else 4 + (form - 1) % 4
            packed = 1 << profile_shift + width * field
            for e, value in enumerate(_class_factors(label, code)):
                packed += 1 << e * entry + width * field_of[value]
            packed_of[code, key] = packed
        rows = self_rows if code & SELF else pair_rows
        rows[pair] = rows.get(pair, 0) + n * packed

    binary = {}
    by_profile: dict[int, Table] = {}
    for pair, row in pair_rows.items():
        table = table_of((
            row & entry_mask,
            row >> entry & entry_mask,
            row >> 2 * entry & entry_mask,
            row >> 3 * entry & entry_mask,
        ))
        counts = row >> profile_shift
        profile = by_profile.get(counts)
        if profile is None:
            kl = [counts >> width * f & mask for f in range(8)]
            profile = by_profile[counts] = _profile_binary(kl[:4], kl[4:], outer, table_of)
        ij = divmod(pair, n_circuits)
        if not (profile is table or profile.entries == table.entries):
            raise LoopSpaceError(f"direct and profile tables disagree on pair {ij}")
        binary[ij] = table

    unary = {}
    by_profile_unary: dict[int, Table] = {}
    for pair, row in self_rows.items():
        table = table_of((row & entry_mask, row >> entry & entry_mask))
        counts = row >> profile_shift
        profile = by_profile_unary.get(counts)
        if profile is None:
            m = [counts >> width * f & mask for f in range(4)]
            profile = by_profile_unary[counts] = _profile_unary(m, outer, table_of)
        i = pair // n_circuits
        if not (profile is table or profile.entries == table.entries):
            raise LoopSpaceError(f"direct and profile tables disagree on h_{i}")
        unary[i] = table
    return InducedCSP(n_circuits, binary, unary)


def _count_per_label(
    dec: CircuitDecomposition, labels: Sequence[SixVertexSignature]
) -> tuple[dict[int, SixVertexSignature], Iterable[tuple[tuple[int, int, int], int]]]:
    """The label of each label id, and the vertices of an instance with more
    than one label object counted per (pair key, local code, label id) in
    one pass.  Labels are told apart by id, which is unique while the
    instance keeps every label alive, and costs no __eq__ or hash of their
    six scalars."""
    label_of = dict(zip(map(id, labels), labels))
    return label_of, Counter(zip(dec.pairs, dec.codes, map(id, labels))).items()


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


def _packed(outer: Sequence[int], exponents: Sequence[int]) -> int:
    return sum(map(mul, outer, exponents))


def _profile_binary(
    k: Sequence[int], l: Sequence[int], outer: Sequence[int], table_of: _TableOf
) -> Table:
    """Def-4.3 monomial evaluation from the (k, l) exponent profile: k counts
    the entry vertices in each form, l the exit vertices in each shifted
    form.  `outer` is the packed unit of each of the base's outer values in
    the order a, y, x, b, and `table_of` the call's table for a tuple of
    packed entries."""
    if sum(k) != sum(l):
        raise LoopSpaceError("entry/exit imbalance in a pairwise profile")
    k1, k2, k3, k4 = k
    l1, l2, l3, l4 = l
    return table_of((
        _packed(outer, (k1 + l1, k2 + l2, k3 + l3, k4 + l4)),
        _packed(outer, (k2 + l4, k3 + l1, k4 + l2, k1 + l3)),
        _packed(outer, (k4 + l2, k1 + l3, k2 + l4, k3 + l1)),
        _packed(outer, (k3 + l3, k4 + l4, k1 + l1, k2 + l2)),
    ))


def _profile_unary(
    m: Sequence[int], outer: Sequence[int], table_of: _TableOf
) -> Table:
    """The unary profile table from m, the self-intersections in each form,
    over the packed units of the base's outer values."""
    m1, m2, m3, m4 = m
    return table_of((_packed(outer, (m1, m2, m3, m4)), _packed(outer, (m3, m4, m1, m2))))


def entry_exit_audit(dec: CircuitDecomposition) -> bool:
    """Whether every pair of circuits has as many entries as exits; a
    plane circuit leaves another as often as it enters it.

    The audit reads the map alone: it sums plus or minus each class's vertex
    count over `dec.classes`, so it visits no vertex, and it runs on every
    evaluate call whatever the labels."""
    balance: dict[int, int] = {}
    for pair, code, n in dec.classes:
        if not code & SELF:
            balance[pair] = balance.get(pair, 0) + (n if code & ENTRY else -n)
    return not any(balance.values())


_METHODS = ("auto", "product", "affine")


def evaluate(
    inst: PlanarInstance,
    profile_base: SixVertexSignature,
    method: str = "auto",
) -> Scalar:
    """Evaluate the instance through its circuit #CSP.  Every label must be
    a quarter turn of `profile_base`: each induced table is checked against
    its entry/exit profile (see induced_csp) on every call.

    method: "auto" tries the product-type propagation, then Gauss sums,
    and raises NotAffine when the induced tables fit neither; "product"
    and "affine" force one path, raising NotProduct or NotAffine when its
    tables do not fit.  Under condition 4 of the trichotomy with one base
    signature the tables always fit one of the two.

    An unknown method raises ValueError before any work is done.

    The map's circuit decomposition and its vertex classes are kept on the
    map (see decompose).  On an instance with one label object,
    `induced_csp` works per class and does no per-vertex work beyond an
    identity test of the labels; an instance with more than one label
    object is counted per vertex on each call.  Each distinct table is
    built once (see induced_csp), and, since many induced tables repeat,
    tested for membership once per call; the solvers receive the
    constraints as (witness, variables) pairs instead of re-testing every
    table.  Tables, witnesses and powers are not kept between calls, and
    the inner-pair check, the entry/exit audit and the profile check run on
    every call.
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
