"""The front door: evaluate a six-vertex instance by the route its
labels' witnesses allow.

Each distinct label is classified, and classify keeps its verdict on the
label object, so a label reused across calls is classified once.  The
route must serve every vertex, so it is chosen from the intersection of
the witness sets, in order of measured cost (on grid_patch(24,24), where
all three apply to (1,1,0,1,-1,0) and (1,i,0,1,i,0), on a shared 2-core
host: loop space 3-4 ms, the C1 affine route 20-25 ms, FKT 0.37 s for
the first, whose Pfaffian runs on ints, and 0.6 s for the second, whose
runs on Scalars):

  C4       loop space, when every label is a quarter turn of one base
           signature (the profile check needs one base),
  C1_P     product-type propagation over the edge #CSP,
  C1_A     Gauss sums over the edge #CSP,
  C3_M     matchgates and the Pfaffian,
  C3_Mhat  the Hadamard-transformed matchgates.

On the plane C2 needs no route of its own: a zero in each pair forces
ax = by = cz = 0, so ax = cz - by holds and every C2 signature is C3_M.
That holds on the plane only.  C2 is the paper's type (1), polynomial on
every graph, but C3_M is served by FKT, which is planar-only, as is loop
space; only the C1 routes do not depend on the genus.  So a C2 signature
that is not C1, such as (1,2,3,0,0,0), has no route here on a non-planar
map, and PlanarInstance does not check planarity.  With no route left,
evaluate raises NoPolynomialRoute; the brute-force oracles run only when a
caller asks for them (oracle.holant_brute).

The edge #CSP has one Boolean variable per instance edge, the value of its
smaller half-edge.  The larger half-edge reads the negation through the
implicit Disequality, so each vertex's label is flipped on the ports whose
half-edge is the larger of its pair.  A loop is an edge like any other:
its vertex's table names the loop's variable twice, once flipped, and the
#CSP solvers read such a table on its diagonal (see cspsolve).
Product-type and affine functions are closed under flipping a variable
(Cai-Lu-Xia, complex weighted Boolean #CSP), so every table stays in the
label's C1 class.
"""

from __future__ import annotations

from . import loopspace
from .classify import Condition, classify
from .cspsolve import affine_eval, product_eval
from .instance import PlanarInstance
from .matchgate import fkt_eval, fkt_eval_hat
from .scalar import ONE, Scalar
from .signature import Table, format_signature


class NoPolynomialRoute(ValueError):
    """No polynomial-time evaluator serves every vertex of the instance."""


def evaluate(inst: PlanarInstance) -> Scalar:
    """Exact Holant(!= | labels) of a planar instance, by the first route
    in C4, C1_P, C1_A, C3_M, C3_Mhat order that every label admits;
    NoPolynomialRoute when there is none."""
    labels = set({id(label): label for label in inst.labels}.values())
    if not labels:
        return ONE
    verdicts = {label: classify(label).witnesses for label in labels}
    hard = [label for label, witnesses in verdicts.items() if not witnesses]
    if hard:
        raise NoPolynomialRoute(
            f"#P-hard on planar graphs: ({format_signature(hard[0])}) satisfies no condition"
        )
    common = frozenset.intersection(*verdicts.values())
    if common & {Condition.C4I, Condition.C4II}:
        base = inst.labels[0]  # the first in vertex order, not in hash order
        forms = {base.rotate(r) for r in range(4)}
        if labels <= forms:
            return loopspace.evaluate(inst, profile_base=base)
    if Condition.C1_P in common:
        return product_eval(*_edge_csp(inst))
    if Condition.C1_A in common:
        return affine_eval(*_edge_csp(inst))
    if Condition.C3_M in common:
        return fkt_eval(inst)
    if Condition.C3_MHAT in common:
        return fkt_eval_hat(inst)
    raise NoPolynomialRoute(
        "the labels are each tractable but share no route: "
        + "; ".join(
            f"({format_signature(label)}): {' '.join(sorted(c.value for c in witnesses))}"
            for label, witnesses in verdicts.items()
        )
    )


def _edge_csp(inst: PlanarInstance) -> tuple[list[tuple[Table, tuple[int, ...]]], int]:
    """(constraints, variable count) of the edge #CSP.

    Variables are numbered in order of their edge's smaller half-edge, and
    a vertex's table is its label's read negated on the slots of larger
    half-edges (see the module docstring).  A table depends only on the
    label and its 4-bit flip mask, slot s giving bit 8 >> s as in the
    label's entry index, so it is built once per distinct (label, mask)
    and shared.
    """
    m = inst.map
    var = [0] * m.half_edge_count
    flip = [0] * m.half_edge_count
    n_vars = 0
    for h, k in enumerate(m.involution):
        if h < k:
            var[h] = var[k] = n_vars
            flip[k] = 1
            n_vars += 1
    constraints = []
    tables: dict[tuple[int, int], Table] = {}
    for (h0, h1, h2, h3), label in zip(m.vertices, inst.labels):
        mask = flip[h0] << 3 | flip[h1] << 2 | flip[h2] << 1 | flip[h3]
        key = (id(label), mask)
        table = tables.get(key)
        if table is None:
            entries = label.to_table().entries
            table = tables[key] = Table(tuple([entries[i ^ mask] for i in range(16)]))
        constraints.append((table, (var[h0], var[h1], var[h2], var[h3])))
    return constraints, n_vars
