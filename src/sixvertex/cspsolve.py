"""Polynomial-time #CSP evaluation for affine and product-type constraints.

Affine instances aggregate every constraint witness into one global
quadratic form over Z_4 (with even cross terms) plus a linear system over
Z_2, then eliminate variables with the standard quadratic Gauss-sum case
split.  For the pivot variable's linear coefficient c:

  c = 0 (mod 4): factor 2 and a new Z_2 condition on the cross parity,
  c = 2 (mod 4): factor 2 and the complementary condition,
  c odd:         factor sqrt(2) * w^{+-1} and a linear update to Q,

using x xor y = x + y - 2xy to push Z_2 substitutions through Z_4.  Every
result stays inside Q(zeta_8).

Pivot order: each linear condition is solved as soon as it exists, by
substituting for its variable of least degree (pending rows plus cross
partners, ties by index).  With no condition pending, the live variable of
least cross degree (ties by index) is summed out; a lazy heap of (degree,
variable) finds it, as in matchgate.pfaffian_sparse.  Cross terms are kept
as one partner set per variable and linear conditions as sparse variable
sets, so a step costs in the size of its neighbourhood, not in n.

A constraint is a table or its witness, and it may name one variable in
several of its slots, as the edge #CSP of route.py does at a loop.  Both
solvers stay exact there because each reads a witness slot by slot into
terms of its global variables, and those terms fold as the variable's
values do: a witness row's coefficients are summed mod 2 (a variable named
twice cancels), linear terms add mod 4, a cross term 2 x_u x_u is the
linear term 2 x_u, and a block relation x_u = x_u xor p holds iff p = 0.

Product-type instances decompose into =/!= relations with unary weights,
solved by union-find with parity; an inconsistent relation set makes the
value 0, which is a legitimate partition-function value, not an error.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .membership import AffineWitness, ProductWitness, is_affine, is_product
from .scalar import MU8, ONE, SQRT2, ZERO, Scalar


class NotAffine(ValueError):
    pass


class NotProduct(ValueError):
    pass


class GaussSumError(RuntimeError):
    """The elimination left a variable unsummed or a term of Q behind."""


def once_per_table(
    membership: Callable[[object], Optional[object]],
) -> Callable[[object], Optional[object]]:
    """`membership` run at most once per distinct table (equal tables are
    one) for as long as the returned function lives.

    A table object is hashed by value once, the first time it is seen:
    one `setdefault` finds or stores the one-element cell of its value.
    After that its id finds the witness.  Each entry keeps its table
    alive, so an id is never reused while the function lives.
    """
    by_value: dict[object, list] = {}
    by_id: dict[int, tuple[object, Optional[object]]] = {}

    def test(table: object) -> Optional[object]:
        seen = by_id.get(id(table))
        if seen is not None:
            return seen[1]
        cell = by_value.setdefault(table, [])
        if not cell:
            cell.append(membership(table))
        witness = cell[0]
        by_id[id(table)] = (table, witness)
        return witness

    return test


@dataclass
class AffineAggregate:
    """lam * sqrt(2)^sqrt2_exp * w^w_exp * chi_{rows} * i^Q over n variables.

    Q = sum lin[v] x_v + sum over partners u in adj[v] of 2 x_u x_v (each
    pair once): cross coefficients are 0 or 2, so a partner set holds them.
    A row (variables, constant) is the Z_2 condition that the variables
    xor to the constant.
    """

    n: int
    lam: Scalar
    rows: list[tuple[set[int], int]]
    lin: list[int]  # Z_4 coefficients
    adj: list[set[int]]
    sqrt2_exp: int = 0
    w_exp: int = 0  # mod 8

    @classmethod
    def empty(cls, n: int) -> "AffineAggregate":
        return cls(n, ONE, [], [0] * n, [set() for _ in range(n)])

    def add_witness(self, witness: AffineWitness, variables: Sequence[int]) -> None:
        if witness.n != len(variables):
            raise ValueError("arity mismatch")
        self.lam = self.lam * witness.lam
        for row in witness.rows:
            # the row's variables mod 2: a variable named twice drops out
            vars_: set[int] = set()
            for local, coeff in enumerate(row[:-1]):
                if coeff:
                    v = variables[local]
                    if v in vars_:
                        vars_.discard(v)
                    else:
                        vars_.add(v)
            if vars_ or row[-1]:
                self.rows.append((vars_, row[-1]))
        for local, coeff in enumerate(witness.quad_lin):
            self.add_lin(variables[local], coeff)
        for s, t, bit in witness.quad_cross:
            self.add_cross(variables[s], variables[t], 2 * bit)

    def add_lin(self, var: int, coeff: int) -> None:
        self.lin[var] = (self.lin[var] + coeff) % 4

    def add_cross(self, u: int, v: int, coeff: int) -> None:
        if u == v:
            # x^2 = x on 0/1 values
            self.add_lin(u, coeff)
            return
        coeff %= 4
        if coeff % 2:
            raise NotAffine("odd cross coefficient")
        if coeff:
            if v in self.adj[u]:
                self.adj[u].discard(v)
                self.adj[v].discard(u)
            else:
                self.adj[u].add(v)
                self.adj[v].add(u)

    def add_parity_term(self, vars_: Iterable[int], const: int, scale: int) -> None:
        """Add scale * parity(x_{vars} xor const) to Q (mod 4).

        parity(S) = sum x - 2 * sum_{s<t} x_s x_t (mod 4) on 0/1 values;
        a constant 1 contributes via 1 xor P = 1 - P.
        """
        scale %= 4
        if scale == 0:
            return
        if const:
            # scale * (1 - P) = scale + (-scale) * P, and i^scale = w^{2 scale}
            self.w_exp = (self.w_exp + 2 * scale) % 8
            scale = -scale % 4
        vars_ = list(vars_)
        for v in vars_:
            self.add_lin(v, scale)
        if scale % 2:
            for idx, s in enumerate(vars_):
                for t in vars_[idx + 1 :]:
                    self.add_cross(s, t, 2)

    def detach(self, var: int) -> set[int]:
        """Remove x_var's cross terms from Q and return its partners."""
        partners = self.adj[var]
        self.adj[var] = set()
        for u in partners:
            self.adj[u].discard(var)
        return partners

    def substitute(self, pivot: int, others: set[int], const: int) -> set[int]:
        """Replace x_pivot by xor(others) xor const inside Q; return the
        partners it had."""
        coeff = self.lin[pivot]
        self.lin[pivot] = 0
        partners = self.detach(pivot)
        if coeff:
            self.add_parity_term(others, const, coeff)
        for o in partners:
            # 2 * x_pivot * x_o = 2 * (xor(others) xor const) * x_o  (mod 4):
            # the parity's own cross terms cancel against the factor 2
            if const:
                self.add_lin(o, 2)
            for v in others:
                self.add_cross(v, o, 2)  # x^2 = x when v == o
        return partners


def affine_eval(
    constraints: Sequence[tuple[object, tuple[int, ...]]],
    n_vars: int,
) -> Scalar:
    """Exact sum over {0,1}^n of the product of affine constraints.

    A constraint is a signature or its AffineWitness, with one variable
    per slot (ValueError("arity mismatch") otherwise), and its variables
    may repeat: the witness's terms are folded onto each global variable
    (see the module docstring), so the Gauss sum sees the constraint's
    restriction to its diagonal.  A witness is used as given, and
    is_affine runs once per distinct table of the call, so a caller that
    has already tested each table (as loopspace.evaluate does) avoids a
    second run here.
    """
    witness_of = once_per_table(is_affine)
    agg = AffineAggregate.empty(n_vars)
    for sig, var_tuple in constraints:
        witness = sig if isinstance(sig, AffineWitness) else witness_of(sig)
        if witness is None:
            raise NotAffine(f"constraint not affine: {sig!r}")
        agg.add_witness(witness, var_tuple)
    return _gauss_sum(agg)


def _gauss_sum(agg: AffineAggregate) -> Scalar:
    """Solve the linear rows, then sum out the live variable of least cross
    degree (ties by index) until none is left."""
    n = agg.n
    if agg.lam.is_zero():
        return ZERO
    alive = [True] * n
    heap = [(len(agg.adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    touched: set[int] = set()

    def requeue() -> None:
        """Queue every live touched variable under its current degree."""
        for u in touched:
            if alive[u]:
                heapq.heappush(heap, (len(agg.adj[u]), u))
        touched.clear()

    rows, agg.rows = agg.rows, []
    if not _solve_rows(agg, rows, alive, touched):
        return ZERO
    requeue()
    while heap:
        degree, v = heapq.heappop(heap)
        if not alive[v] or len(agg.adj[v]) != degree:
            continue  # v was eliminated or its degree has changed since
        alive[v] = False
        coeff = agg.lin[v]
        agg.lin[v] = 0
        partners = agg.detach(v)
        touched |= partners
        if coeff % 2 == 1:
            # sum over x_v of i^{x_v (coeff + 2P)} = sqrt(2) * w^{+-1} * i^{lin(P)}
            agg.sqrt2_exp += 1
            agg.w_exp = (agg.w_exp + (1 if coeff == 1 else 7)) % 8
            agg.add_parity_term(partners, 0, 3 if coeff == 1 else 1)
        else:
            # even coefficient: factor 2 and a parity condition
            agg.sqrt2_exp += 2
            if not _solve_rows(agg, [(partners, coeff >> 1)], alive, touched):
                return ZERO
        requeue()
    if any(alive) or any(agg.lin):
        raise GaussSumError("a variable kept a linear coefficient or was never summed")
    if any(agg.adj):
        raise GaussSumError("cross terms survived elimination")
    twos, odd = divmod(agg.sqrt2_exp, 2)
    out = agg.lam * Scalar(2**twos) * MU8[agg.w_exp]
    return out * SQRT2 if odd else out


def _solve_rows(
    agg: AffineAggregate,
    rows: list[tuple[set[int], int]],
    alive: list[bool],
    touched: set[int],
) -> bool:
    """Gaussian elimination over Z_2 by substitution: each row in turn
    replaces its variable of least degree (pending rows plus cross
    partners, ties by index) inside Q and inside the rows still pending.
    Every variable whose cross terms change joins `touched`.

    Returns False on an inconsistent row (0 = 1).
    """
    rows_of: dict[int, set[int]] = {}
    for r, (vars_, _) in enumerate(rows):
        for v in vars_:
            rows_of.setdefault(v, set()).add(r)
    consts = [const for _, const in rows]
    for r, (vars_, _) in enumerate(rows):
        if not vars_:
            if consts[r]:
                return False  # 0 = 1
            continue
        for v in vars_:
            rows_of[v].discard(r)
        pivot = min(vars_, key=lambda v: (len(rows_of[v]) + len(agg.adj[v]), v))
        others = vars_ - {pivot}
        for r2 in rows_of.pop(pivot):
            vars2 = rows[r2][0]
            vars2.discard(pivot)
            for v in others:
                if v in vars2:
                    vars2.discard(v)
                    rows_of[v].discard(r2)
                else:
                    vars2.add(v)
                    rows_of[v].add(r2)
            consts[r2] ^= consts[r]
        touched |= agg.substitute(pivot, others, consts[r])
        touched |= others
        alive[pivot] = False
    return True


# -- product-type propagation ----------------------------------------------------


def product_eval(
    constraints: Sequence[tuple[object, tuple[int, ...]]],
    n_vars: int,
) -> Scalar:
    """Union-find with parity over =/!= chains, unary weights per component.

    A constraint is a signature or its ProductWitness, with one variable
    per slot (ValueError("arity mismatch") otherwise), and its variables
    may repeat: a block that names one variable in two slots relates it to
    itself, which holds at parity 0 and makes the value 0 otherwise, and
    two blocks led by one variable both weigh it.  A witness is used as
    given, and is_product runs once per distinct table of the call, so a
    caller that has already tested each table (as loopspace.evaluate does)
    avoids a second run here.
    """
    witness_of = once_per_table(is_product)
    parent = list(range(n_vars))
    parity = [0] * n_vars  # parity to parent

    def find(v: int) -> tuple[int, int]:
        """(root, parity of v to root), compressing the path iteratively."""
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        par = 0
        for u in reversed(path):  # nearest the root first
            par ^= parity[u]
            parity[u] = par
            parent[u] = v
        return v, par

    def union(u: int, v: int, rel_parity: int) -> bool:
        ru, pu = find(u)
        rv, pv = find(v)
        if ru == rv:
            return (pu ^ pv) == rel_parity
        parent[ru] = rv
        parity[ru] = pu ^ pv ^ rel_parity
        return True

    unary_factors: list[list[tuple[Scalar, Scalar]]] = [[] for _ in range(n_vars)]
    contradiction = False

    for sig, var_tuple in constraints:
        witness = sig if isinstance(sig, ProductWitness) else witness_of(sig)
        if witness is None:
            raise NotProduct(f"constraint not product-type: {sig!r}")
        if witness.n != len(var_tuple):
            raise ValueError("arity mismatch")
        if witness.zero:
            return ZERO
        for members, pars, weights in zip(
            witness.blocks, witness.parities, witness.weights
        ):
            rep_var = var_tuple[members[0]]
            for m, p in zip(members[1:], pars[1:]):
                if not union(var_tuple[m], rep_var, p):
                    contradiction = True
            unary_factors[rep_var].append(weights)
    if contradiction:
        return ZERO
    # aggregate per component
    components: dict[int, list[int]] = {}
    for v in range(n_vars):
        root, _ = find(v)
        components.setdefault(root, []).append(v)
    total = ONE
    for root, members in components.items():
        acc0, acc1 = ONE, ONE
        for v in members:
            _, par = find(v)
            for w0, w1 in unary_factors[v]:
                lo, hi = (w0, w1) if par == 0 else (w1, w0)
                # a witness's later blocks carry ONE on one side
                if lo is not ONE:
                    acc0 = acc0 * lo
                if hi is not ONE:
                    acc1 = acc1 * hi
        total = total * (acc0 + acc1)
    return total
