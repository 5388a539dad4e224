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

Product-type instances decompose into =/!= relations with unary weights,
solved by union-find with parity; an inconsistent relation set makes the
value 0, which is a legitimate partition-function value, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .membership import AffineWitness, ProductWitness, is_affine, is_product
from .scalar import I, ONE, SQRT2, W, ZERO, Scalar
from .signature import BinarySignature, UnarySignature


class NotAffine(ValueError):
    pass


class NotProduct(ValueError):
    pass


class GaussSumError(RuntimeError):
    """The elimination left a quadratic or linear term on a free variable."""


@dataclass
class AffineAggregate:
    """lam * chi_{AX=0} * i^Q over n variables, cross coefficients even."""

    n: int
    lam: Scalar
    rows: list[int]  # bitmasks over n+1 columns; bit n is the affine constant
    lin: list[int]  # Z_4 coefficients
    cross: dict[tuple[int, int], int]  # (s < t) -> Z_4 coefficient, always 0 or 2

    @classmethod
    def empty(cls, n: int) -> "AffineAggregate":
        return cls(n, ONE, [], [0] * n, {})

    def add_witness(self, witness: AffineWitness, variables: Sequence[int]) -> None:
        if witness.n != len(variables):
            raise ValueError("arity mismatch")
        self.lam = self.lam * witness.lam
        for row in witness.rows:
            mask = 0
            for local, coeff in enumerate(row[:-1]):
                if coeff:
                    mask ^= 1 << variables[local]
            if row[-1]:
                mask ^= 1 << self.n
            if mask:
                self.rows.append(mask)
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
        key = (min(u, v), max(u, v))
        value = (self.cross.get(key, 0) + coeff) % 4
        if value % 2:
            raise NotAffine("odd cross coefficient")
        if value:
            self.cross[key] = value
        else:
            self.cross.pop(key, None)

    def add_parity_term(self, vars_: list[int], const: int, scale: int) -> None:
        """Add scale * parity(x_{vars} xor const) to Q (mod 4).

        parity(S) = sum x - 2 * sum_{s<t} x_s x_t (mod 4) on 0/1 values;
        a constant 1 contributes via 1 xor P = 1 - P.
        """
        scale %= 4
        if scale == 0:
            return
        if const:
            # scale * (1 - P) = scale + (-scale) * P
            self.lam = self.lam * I ** scale
            self.add_parity_term(vars_, 0, -scale)
            return
        for v in vars_:
            self.add_lin(v, scale)
        for idx, s in enumerate(vars_):
            for t in vars_[idx + 1 :]:
                self.add_cross(s, t, (-2 * scale) % 4)


def affine_eval(
    constraints: Sequence[tuple[object, tuple[int, ...]]],
    n_vars: int,
) -> Scalar:
    """Exact sum over {0,1}^n of the product of affine constraints.

    A constraint is a signature or its AffineWitness; a witness is used as
    given, so a caller that has already tested each distinct table (as
    loopspace.evaluate does, once per table within one call) avoids a
    second is_affine run here.
    """
    agg = AffineAggregate.empty(n_vars)
    for sig, var_tuple in constraints:
        sig2, var_tuple = _collapse_repeats(sig, var_tuple)
        witness = sig2 if isinstance(sig2, AffineWitness) else is_affine(sig2)
        if witness is None:
            raise NotAffine(f"constraint not affine: {sig!r}")
        agg.add_witness(witness, var_tuple)
    return _gauss_sum(agg)


def _collapse_repeats(sig, var_tuple):
    """Replace repeated variables by the diagonal of the constraint, read
    from a witness through its evaluate and from a signature by value."""
    if len(set(var_tuple)) == len(var_tuple):
        return sig, tuple(var_tuple)
    if isinstance(sig, (AffineWitness, ProductWitness)):
        read = sig.evaluate
    else:
        read = lambda args: sig.value(*args)
    distinct = sorted(set(var_tuple), key=lambda v: var_tuple.index(v))
    values = []
    n = len(distinct)
    for mask in range(2 ** n):
        assign = {
            v: (mask >> (n - 1 - t)) & 1 for t, v in enumerate(distinct)
        }
        args = tuple(assign[v] for v in var_tuple)
        values.append(read(args))
    if n == 1:
        return UnarySignature(*values), tuple(distinct)
    if n == 2:
        return BinarySignature(*values), tuple(distinct)
    raise ValueError("only arity <= 2 after collapsing repeats is supported")


def _gauss_sum(agg: AffineAggregate) -> Scalar:
    """Eliminate the linear system, then free variables one at a time."""
    n = agg.n
    alive = [True] * n
    if agg.lam.is_zero():
        return ZERO

    def substitute_linear() -> bool:
        """Gaussian elimination over Z_2; substitute pivots into Q.

        Returns False on inconsistency.
        """
        rows = [r for r in agg.rows if r]
        agg.rows = []
        basis: dict[int, int] = {}  # pivot var -> row mask
        for row in rows:
            for pv, pr in basis.items():
                if row >> pv & 1:
                    row ^= pr
            vars_bits = row & ((1 << n) - 1)
            if vars_bits == 0:
                if row:
                    return False  # 0 = 1
                continue
            pivot = vars_bits.bit_length() - 1
            basis[pivot] = row
        # reduce rows against each other for clean substitution
        for pv in sorted(basis, reverse=True):
            row = basis[pv]
            for qv in list(basis):
                if qv != pv and basis[qv] >> pv & 1:
                    basis[qv] ^= row
        for pivot, row in basis.items():
            others = [v for v in range(n) if v != pivot and row >> v & 1]
            const = row >> n & 1
            _substitute(agg, pivot, others, const)
            alive[pivot] = False
        return True

    def _substitute(agg: AffineAggregate, pivot: int, others: list[int], const: int):
        """Replace x_pivot by xor(others) xor const inside Q."""
        coeff = agg.lin[pivot]
        agg.lin[pivot] = 0
        cross_items = [
            (key, value)
            for key, value in list(agg.cross.items())
            if pivot in key
        ]
        for key, value in cross_items:
            del agg.cross[key]
        if coeff:
            agg.add_parity_term(others, const, coeff)
        for (s, t), value in cross_items:
            other_var = t if s == pivot else s
            # 2 * x_pivot * x_o = 2 * (xor(others) xor const) * x_o  (mod 4):
            # the parity's own cross terms cancel against the factor 2
            if const:
                agg.add_lin(other_var, value)
            for v in others:
                if v == other_var:
                    agg.add_lin(other_var, value)  # x^2 = x
                else:
                    agg.add_cross(v, other_var, value)

    while True:
        if not substitute_linear():
            return ZERO
        progressed = False
        for pivot in range(n):
            if not alive[pivot]:
                continue
            coeff = agg.lin[pivot]
            partners = [
                (key[0] if key[1] == pivot else key[1])
                for key in agg.cross
                if pivot in key
            ]
            if coeff % 2 == 1:
                # sum over x_pivot of i^{x(coeff + 2P)} = sqrt(2) * w^{eps} * i^{lin(P)}
                for key in [k for k in agg.cross if pivot in k]:
                    del agg.cross[key]
                agg.lin[pivot] = 0
                alive[pivot] = False
                agg.lam = agg.lam * SQRT2
                if coeff % 4 == 1:
                    agg.lam = agg.lam * W
                    agg.add_parity_term(partners, 0, 3)
                else:  # coeff = 3 mod 4
                    agg.lam = agg.lam * W ** 7
                    agg.add_parity_term(partners, 0, 1)
                progressed = True
                break
            else:
                # even coefficient: factor 2 and a parity condition
                for key in [k for k in agg.cross if pivot in k]:
                    del agg.cross[key]
                agg.lin[pivot] = 0
                alive[pivot] = False
                agg.lam = agg.lam * Scalar.from_rational(2)
                mask = 0
                for v in partners:
                    mask ^= 1 << v
                if coeff == 2:
                    mask ^= 1 << n
                if mask:
                    agg.rows.append(mask)
                progressed = True
                break
        if not progressed:
            break
        if agg.lam.is_zero():
            return ZERO
    # remaining alive variables are unconstrained with no Q terms
    free = sum(1 for v in range(n) if alive[v])
    if any(agg.lin[v] for v in range(n) if alive[v]):
        raise GaussSumError("a free variable kept a linear coefficient")
    if agg.cross or agg.rows:
        raise GaussSumError("cross terms or linear rows survived elimination")
    return agg.lam * Scalar.from_rational(2 ** free)


# -- product-type propagation ----------------------------------------------------


def product_eval(
    constraints: Sequence[tuple[object, tuple[int, ...]]],
    n_vars: int,
) -> Scalar:
    """Union-find with parity over =/!= chains, unary weights per component.

    A constraint is a signature or its ProductWitness; a witness is used as
    given, so a caller that has already tested each distinct table (as
    loopspace.evaluate does, once per table within one call) avoids a
    second is_product run here.
    """
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
    scalar = ONE
    contradiction = False

    for sig, var_tuple in constraints:
        sig2, var_tuple = _collapse_repeats(sig, var_tuple)
        witness = sig2 if isinstance(sig2, ProductWitness) else is_product(sig2)
        if witness is None:
            raise NotProduct(f"constraint not product-type: {sig!r}")
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
    total = scalar
    for root, members in components.items():
        acc0, acc1 = ONE, ONE
        for v in members:
            _, par = find(v)
            for w0, w1 in unary_factors[v]:
                lo, hi = (w0, w1) if par == 0 else (w1, w0)
                acc0 = acc0 * lo
                acc1 = acc1 * hi
        total = total * (acc0 + acc1)
    return total
