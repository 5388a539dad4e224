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
`induced_csp` adds 16 times the index of the vertex's distinct label object
to the local code to get its class, and counts classes per pair key.
Circuits run straight through a degree-4 vertex, so the class fixes the
vertex's factor under every assignment of its circuits; the factors and the
class's rotated form of the base are computed once per class.  A pair's or a
circuit's table depends only on its class counts, so the direct table is
built once per distinct count vector and the profile table once per distinct
exponent vector, and every pair and every circuit is still compared against
its profile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import Callable, Iterable, Optional, Sequence

from .cspsolve import NotAffine, NotProduct, affine_eval, once_per_table, product_eval
from .instance import PlanarInstance
from .membership import is_affine, is_product
from .scalar import ONE, ZERO, Scalar
from .signature import BinarySignature, SixVertexSignature, UnarySignature


class LoopSpaceError(ValueError):
    pass


# A vertex's local code is SLOT * (the slot of x1 in its rotation), plus
# ENTRY when circuit j enters through the ccw-successor of x1, plus SELF at
# a self-intersection.  x1 is the entering half-edge of circuit i, the lower
# circuit; at a self-intersection, the enter whose ccw-successor is the
# other enter.
SLOT, ENTRY, SELF = 4, 2, 1
LOCAL_CODES = 16


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
    circuits: tuple[tuple[int, ...], ...]  # even positions enter their vertex
    pairs: tuple[int, ...]  # per vertex: i * k + j for its circuits i <= j
    codes: tuple[int, ...]  # per vertex: its local code

    @property
    def k(self) -> int:
        return len(self.circuits)


def decompose(inst: PlanarInstance) -> CircuitDecomposition:
    """Partition the half-edges into circuits and classify every vertex.

    The walk tags each half-edge 2 * circuit if it enters its vertex and
    2 * circuit + 1 if it leaves it.  Each vertex is then read off the tags
    of its four half-edges into its pair key and local code (see the module
    docstring); nothing is made per vertex but those two integers.

    The lowest half-edge id of each circuit leads it: it enters its vertex
    first.  A label whose inner pair is not zero raises LoopSpaceError.
    """
    for label in {id(label): label for label in inst.labels}.values():
        if not (label.c.is_zero() and label.z.is_zero()):
            raise LoopSpaceError("loop space needs labels with zero inner pair")
    m = inst.map
    n_half = m.half_edge_count
    opposite = [0] * n_half
    for h0, h1, h2, h3 in m.vertices:
        opposite[h0], opposite[h1], opposite[h2], opposite[h3] = h2, h3, h0, h1
    involution = m.involution
    tag = [-1] * n_half
    circuits: list[tuple[int, ...]] = []

    for start in range(n_half):
        if tag[start] != -1:
            continue
        enter = 2 * len(circuits)
        leave = enter + 1
        seq: list[int] = []
        push = seq.append
        h = start
        # an entering half-edge leaves through its opposite, whose twin
        # enters the next vertex
        while tag[h] == -1:
            out = opposite[h]
            tag[h] = enter
            tag[out] = leave
            push(h)
            push(out)
            h = involution[out]
        if h != start:
            raise LoopSpaceError("twin closure failed to close a circuit")
        circuits.append(tuple(seq))

    k = len(circuits)
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
    return CircuitDecomposition(tuple(circuits), tuple(pairs), tuple(codes))


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


class _PowerTable:
    """The powers one induced_csp call needs, each distinct (value,
    exponent) computed once.  Values are interned as small ints, so the
    per-entry bookkeeping hashes ints rather than Scalars.  A root of unity
    repeats with its order, so its exponents are taken modulo the order."""

    def __init__(self) -> None:
        self._values: list[Scalar] = []
        self._orders: list[Optional[int]] = []
        self._ids: dict[Scalar, int] = {}
        self._powers: dict[tuple[int, int], Scalar] = {}

    def intern(self, value: Scalar) -> int:
        vid = self._ids.get(value)
        if vid is None:
            vid = self._ids[value] = len(self._values)
            self._values.append(value)
            self._orders.append(value.is_root_of_unity())
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
            order = self._orders[vid]
            if order:
                e %= order
            power = self._powers.get((vid, e))
            if power is None:
                value = self._values[vid]
                if value.is_zero():
                    return ZERO
                power = self._powers[vid, e] = value**e
            if power is not ONE:
                out = power if out is ONE else out * power
        return out


def _table_entries(
    row: Sequence[tuple[int, int]],
    factors: dict[int, tuple[int, ...]],
    size: int,
    powers: _PowerTable,
) -> list[Scalar]:
    """Each table entry as the product of the class factors (interned in
    `powers`) raised to the class counts of `row`, (class, count) pairs."""
    return [powers.monomial((factors[c][e], n) for c, n in row) for e in range(size)]


def _outer_ids(powers: _PowerTable, base: SixVertexSignature) -> tuple[int, ...]:
    """The base's outer values interned, in the profiles' order a, y, x, b."""
    return tuple(powers.intern(v) for v in (base.a, base.y, base.x, base.b))


def induced_csp(
    dec: CircuitDecomposition,
    inst: PlanarInstance,
    profile_base: SixVertexSignature,
) -> InducedCSP:
    """Build the circuit #CSP, verifying every direct table against the
    entry/exit exponent profiles of `profile_base` (Def. 4.3), whose
    quarter turns every label must be; a mismatch raises LoopSpaceError.

    Each vertex's class is its local code plus LOCAL_CODES times the index
    of its label object among the distinct ones, and the classes are
    counted per pair key in one pass.  Per class, the vertex factors and the
    form index are computed once.  Per distinct class-count vector, the
    direct table is built and compared with the profile table, which is
    computed once per distinct (k, l) or m exponent vector.  Both sides read
    their powers from one table per call, so each distinct (value, exponent)
    power is computed once, and neither multiplies by ONE.  Nothing is kept
    between calls.
    """
    labels = inst.labels
    # labels are told apart by id, which is unique while `inst` keeps every
    # label alive, and cheaper than hashing their six scalars
    distinct = dict(zip(map(id, labels), labels))
    offset = {key: n * LOCAL_CODES for n, key in enumerate(distinct)}
    classes = map(add, map(offset.__getitem__, map(id, labels)), dec.codes)
    distinct_labels = list(distinct.values())
    n_circuits = dec.k
    # class counts per pair and per circuit, in order of first vertex
    pair_rows: dict[tuple[int, int], list[tuple[int, int]]] = {}
    self_rows: dict[int, list[tuple[int, int]]] = {}
    for (pair, c), n in Counter(zip(dec.pairs, classes)).items():
        i, j = divmod(pair, n_circuits)
        if i == j:
            self_rows.setdefault(i, []).append((c, n))
        else:
            pair_rows.setdefault((i, j), []).append((c, n))
    # each class once, as its (label, local code)
    class_keys = {
        c: (distinct_labels[c // LOCAL_CODES], c % LOCAL_CODES)
        for row in chain(pair_rows.values(), self_rows.values())
        for c, _ in row
    }
    powers = _PowerTable()
    factors = {
        c: tuple(map(powers.intern, _class_factors(label, code)))
        for c, (label, code) in class_keys.items()
    }

    base_forms = [profile_base.rotate(r) for r in range(4)]
    outer = _outer_ids(powers, profile_base)
    form = {
        c: _form_indexer(base_forms, label, code // SLOT)
        for c, (label, code) in class_keys.items()
    }
    binary_profiles: dict[tuple[tuple[int, ...], tuple[int, ...]], BinarySignature] = {}
    unary_profiles: dict[tuple[int, ...], UnarySignature] = {}

    binary = {}
    binary_tables: dict[tuple[tuple[int, int], ...], BinarySignature] = {}
    for pair, row in pair_rows.items():
        key = tuple(sorted(row))
        table = binary_tables.get(key)
        if table is None:
            table = binary_tables[key] = BinarySignature(
                *_table_entries(key, factors, 4, powers)
            )
            k = [0, 0, 0, 0]
            l = [0, 0, 0, 0]
            for c, n in key:
                if c & ENTRY:
                    k[form[c]] += n
                else:
                    # exit columns are shifted: forms f^{pi/2},f^{pi},f^{3pi/2},f
                    l[(form[c] - 1) % 4] += n
            exponents = (tuple(k), tuple(l))
            profile = binary_profiles.get(exponents)
            if profile is None:
                profile = binary_profiles[exponents] = _profile_binary(k, l, outer, powers)
            if profile.values() != table.values():
                raise LoopSpaceError(f"direct and profile tables disagree on pair {pair}")
        binary[pair] = table

    unary = {}
    unary_tables: dict[tuple[tuple[int, int], ...], UnarySignature] = {}
    for i, row in self_rows.items():
        key = tuple(sorted(row))
        table = unary_tables.get(key)
        if table is None:
            table = unary_tables[key] = UnarySignature(
                *_table_entries(key, factors, 2, powers)
            )
            m = [0, 0, 0, 0]
            for c, n in key:
                m[form[c]] += n
            exponents = tuple(m)
            profile = unary_profiles.get(exponents)
            if profile is None:
                profile = unary_profiles[exponents] = _profile_unary(m, outer, powers)
            if profile.values() != table.values():
                raise LoopSpaceError(f"direct and profile tables disagree on h_{i}")
        unary[i] = table
    return InducedCSP(n_circuits, binary, unary)


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
    k: Sequence[int], l: Sequence[int], outer: Sequence[int], powers: _PowerTable
) -> BinarySignature:
    """Def-4.3 monomial evaluation from the (k, l) exponent profile: k counts
    the entry vertices in each form, l the exit vertices in each shifted
    form; `outer` is the base's outer values as `_outer_ids` interns them."""
    if sum(k) != sum(l):
        raise LoopSpaceError("entry/exit imbalance in a pairwise profile")
    k1, k2, k3, k4 = k
    l1, l2, l3, l4 = l
    return BinarySignature(
        powers.monomial(zip(outer, (k1 + l1, k2 + l2, k3 + l3, k4 + l4))),
        powers.monomial(zip(outer, (k2 + l4, k3 + l1, k4 + l2, k1 + l3))),
        powers.monomial(zip(outer, (k4 + l2, k1 + l3, k2 + l4, k3 + l1))),
        powers.monomial(zip(outer, (k3 + l3, k4 + l4, k1 + l1, k2 + l2))),
    )


def _profile_unary(
    m: Sequence[int], outer: Sequence[int], powers: _PowerTable
) -> UnarySignature:
    """The unary profile table from m, the self-intersections in each form,
    over the base's interned outer values."""
    m1, m2, m3, m4 = m
    return UnarySignature(
        powers.monomial(zip(outer, (m1, m2, m3, m4))),
        powers.monomial(zip(outer, (m3, m4, m1, m2))),
    )


def entry_exit_audit(dec: CircuitDecomposition) -> bool:
    """Whether every pair of circuits has as many entries as exits; a
    plane circuit leaves another as often as it enters it."""
    balance: dict[int, int] = {}
    for pair, code in zip(dec.pairs, dec.codes):
        if not code & SELF:
            balance[pair] = balance.get(pair, 0) + (1 if code & ENTRY else -1)
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
