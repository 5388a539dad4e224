"""Decidable membership in the tractable signature classes.

Affine signatures are lambda * chi_{AX=0} * i^{Q(X)} with Q quadratic over
Z_4 and even cross terms; product-type signatures factor into unaries,
binary equality and binary disequality.  Matchgate membership for arity-4
even-parity signatures is the determinant criterion
det M_Out(f) = det M_In(f); the odd-parity case reduces to it by composing
one variable with Disequality (itself a matchgate, so membership is
preserved exactly).  Every returned witness reconstructs its signature
entrywise; the witness constructors check this and raise WitnessError
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .scalar import I, ONE, ZERO, Scalar
from .signature import (
    BinarySignature,
    GeneralSignature4,
    SixVertexSignature,
    UnarySignature,
    hadamard_image,
)


class WitnessError(RuntimeError):
    """A membership witness (or the GF(2) solution behind one) failed to
    reproduce the data it was computed from."""


def _values_of(sig) -> tuple[tuple[Scalar, ...], int]:
    """Flatten a signature to (lex value list, arity)."""
    if isinstance(sig, UnarySignature):
        return sig.values(), 1
    if isinstance(sig, BinarySignature):
        return sig.values(), 2
    if isinstance(sig, SixVertexSignature):
        return sig.to_general().entries, 4
    if isinstance(sig, GeneralSignature4):
        return sig.entries, 4
    raise TypeError(f"not a signature: {sig!r}")


def _bits(idx: int, n: int) -> tuple[int, ...]:
    return tuple((idx >> (n - 1 - t)) & 1 for t in range(n))


# -- affine signatures -------------------------------------------------------


@dataclass(frozen=True)
class AffineWitness:
    """f(X) = lam * [X satisfies every row] * i^{Q(X)}.

    rows: affine equations over Z_2, each a tuple (c_1..c_n, c_0) meaning
    sum c_t x_t = c_0.  quad_lin[t] in Z_4 is the coefficient of x_t; the
    cross coefficient of x_s x_t is 2*quad_cross bit, kept even as the
    affine class requires.
    """

    n: int
    lam: Scalar
    rows: tuple[tuple[int, ...], ...]
    quad_lin: tuple[int, ...]
    quad_cross: tuple[tuple[int, int, int], ...]  # (s, t, bit)

    def evaluate(self, assignment: Sequence[int]) -> Scalar:
        for row in self.rows:
            acc = sum(c * v for c, v in zip(row[:-1], assignment)) & 1
            if acc != row[-1]:
                return ZERO
        q = 0
        for t, coeff in enumerate(self.quad_lin):
            q += coeff * assignment[t]
        for s, t, bit in self.quad_cross:
            q += 2 * bit * assignment[s] * assignment[t]
        return self.lam * I ** (q % 4)


def is_affine(sig) -> Optional[AffineWitness]:
    """Affine-class membership with a reconstructing witness.

    The support must be an affine Z_2-subspace and all value ratios powers
    of i; the quadratic part is searched over the 4^n linear coefficient
    vectors, solving a small GF(2) system for the (even) cross terms.
    """
    values, n = _values_of(sig)
    support = [idx for idx, v in enumerate(values) if not v.is_zero()]
    if not support:
        return AffineWitness(n, ONE, (tuple([0] * n + [1]),), tuple([0] * n), tuple())
    sup_set = set(support)
    for a in support:
        for b in support:
            for c in support:
                if a ^ b ^ c not in sup_set:
                    return None
    x0 = support[0]
    base = values[x0]
    exps = {}
    for idx in support:
        ratio = values[idx] / base
        for e in range(4):
            if ratio == I ** e:
                exps[idx] = e
                break
        else:
            return None
    rows = _affine_rows(sup_set, n)
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    points = [_bits(idx, n) for idx in support]
    bits0 = points[0]
    pr0 = [bits0[s] & bits0[t] for s, t in pairs]
    targets = [exps[idx] for idx in support]
    for lin in product(range(4), repeat=n):
        lin0 = sum(lin[t] * bits0[t] for t in range(n))
        eqs = []
        ok = True
        for bits, target in zip(points, targets):
            delta = (target - sum(lin[t] * bits[t] for t in range(n)) + lin0) % 4
            if delta & 1:
                ok = False
                break
            mask = 0
            for pidx, (s, t) in enumerate(pairs):
                if (bits[s] & bits[t]) ^ pr0[pidx]:
                    mask |= 1 << pidx
            eqs.append((mask, delta >> 1))
        if not ok:
            continue
        cross_bits = _solve_gf2(eqs, len(pairs))
        if cross_bits is None:
            continue
        q0 = (lin0 + 2 * sum(cb & pb for cb, pb in zip(_unpack(cross_bits, len(pairs)), pr0))) % 4
        lam = base * I ** ((-q0) % 4)
        witness = AffineWitness(
            n,
            lam,
            rows,
            tuple(lin),
            tuple(
                (s, t, cb)
                for cb, (s, t) in zip(_unpack(cross_bits, len(pairs)), pairs)
                if cb
            ),
        )
        if _witness_matches(witness, values, n):
            return witness
    return None


def _unpack(mask: int, width: int) -> list[int]:
    return [(mask >> i) & 1 for i in range(width)]


def _solve_gf2(eqs: list[tuple[int, int]], nvars: int) -> Optional[int]:
    """Solve linear equations (coeff mask, rhs bit) over GF(2); any solution."""
    rows = [(m, r) for m, r in eqs if m or r]
    pivots: list[tuple[int, int, int]] = []  # (pivot bit, mask, rhs)
    for mask, rhs in rows:
        for pbit, pmask, prhs in pivots:
            if mask >> pbit & 1:
                mask ^= pmask
                rhs ^= prhs
        if mask == 0:
            if rhs:
                return None
            continue
        pbit = mask.bit_length() - 1
        pivots.append((pbit, mask, rhs))
    solution = 0
    # each pivot row only contains bits <= its pivot bit, so ascending
    # back-substitution sees every lower bit already decided (free bits = 0)
    for pbit, mask, rhs in sorted(pivots):
        rest = mask & ~(1 << pbit)
        if rhs ^ (bin(rest & solution).count("1") & 1):
            solution |= 1 << pbit
    for mask, rhs in rows:
        if (bin(mask & solution).count("1") & 1) != rhs:
            raise WitnessError("GF(2) back-substitution missed an equation")
    return solution


def _affine_rows(sup_set: set[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Equations over Z_2 cutting out exactly the given affine subspace."""
    rows = []
    for coeffs in product(range(2), repeat=n):
        if not any(coeffs):
            continue
        rhs = None
        ok = True
        for idx in sup_set:
            bits = _bits(idx, n)
            val = sum(c * b for c, b in zip(coeffs, bits)) & 1
            if rhs is None:
                rhs = val
            elif rhs != val:
                ok = False
                break
        if ok:
            rows.append(coeffs + (rhs,))
    return tuple(rows)


def _witness_matches(witness: AffineWitness, values, n) -> bool:
    return all(
        witness.evaluate(_bits(idx, n)) == values[idx] for idx in range(2 ** n)
    )


# -- product-type signatures ---------------------------------------------------


@dataclass(frozen=True)
class ProductWitness:
    """f = prod over blocks of [w0, w1] on the block representative, with
    every block member tied to the representative by an equality (parity 0)
    or disequality (parity 1) chain.  A zero signature is represented by
    the `zero` flag (realizable as a [0,0] unary).
    """

    n: int
    zero: bool
    blocks: tuple[tuple[int, ...], ...] = ()
    parities: tuple[tuple[int, ...], ...] = ()  # per block, relative to member 0
    weights: tuple[tuple[Scalar, Scalar], ...] = ()

    def evaluate(self, assignment: Sequence[int]) -> Scalar:
        if self.zero:
            return ZERO
        total = ONE
        for members, pars, (w0, w1) in zip(self.blocks, self.parities, self.weights):
            rep = assignment[members[0]]
            for m, p in zip(members, pars):
                if assignment[m] != rep ^ p:
                    return ZERO
            total = total * (w1 if rep else w0)
        return total


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def is_product(sig) -> Optional[ProductWitness]:
    """Product-type membership with a reconstructing witness.

    Enumerates set partitions of the variables and within-block parity
    patterns, then checks the surviving value tensor factors with rank 1
    across independent blocks.
    """
    values, n = _values_of(sig)
    if all(v.is_zero() for v in values):
        return ProductWitness(n, zero=True)
    for part in _set_partitions(list(range(n))):
        blocks = [sorted(b) for b in part]
        parity_choices = [list(product(range(2), repeat=len(b) - 1)) for b in blocks]
        for pars in product(*parity_choices):
            full_pars = [(0,) + p for p in pars]
            witness = _try_factor(values, n, blocks, full_pars)
            if witness is not None:
                if not _product_matches(witness, values, n):
                    raise WitnessError(f"product witness does not reconstruct {sig!r}")
                return witness
    return None


def _try_factor(values, n, blocks, full_pars) -> Optional[ProductWitness]:
    def structured(idx):
        bits = _bits(idx, n)
        reps = []
        for members, pars in zip(blocks, full_pars):
            rep = bits[members[0]]
            for m, p in zip(members, pars):
                if bits[m] != rep ^ p:
                    return None
            reps.append(rep)
        return tuple(reps)

    k = len(blocks)
    tensor: dict[tuple[int, ...], Scalar] = {}
    for idx, v in enumerate(values):
        reps = structured(idx)
        if reps is None:
            if not v.is_zero():
                return None
        else:
            tensor[reps] = v
    ref = None
    for reps, v in tensor.items():
        if not v.is_zero():
            ref = reps
            break
    if ref is None:
        return None  # zero signature was handled before structure search
    ref_val = tensor[ref]
    weights = []
    for t in range(k):
        w = [ZERO, ZERO]
        for bit in range(2):
            probe = list(ref)
            probe[t] = bit
            w[bit] = tensor[tuple(probe)] / ref_val
        weights.append(w)  # note w[ref[t]] == 1
    for reps, v in tensor.items():
        acc = ref_val
        for t in range(k):
            acc = acc * weights[t][reps[t]]
        if acc != v:
            return None
    out_weights = []
    for t in range(k):
        w0, w1 = weights[t]
        if t == 0:
            w0, w1 = w0 * ref_val, w1 * ref_val
        out_weights.append((w0, w1))
    return ProductWitness(
        n,
        zero=False,
        blocks=tuple(tuple(b) for b in blocks),
        parities=tuple(tuple(p) for p in full_pars),
        weights=tuple(out_weights),
    )


def _product_matches(witness: ProductWitness, values, n) -> bool:
    return all(
        witness.evaluate(_bits(idx, n)) == values[idx] for idx in range(2 ** n)
    )


# -- matchgates ----------------------------------------------------------------


def is_matchgate(f: SixVertexSignature) -> bool:
    """det M_Out(f) = det M_In(f), i.e. ax = cz - by."""
    det_in, det_out = f.inner_outer_dets()
    return det_in == det_out


def is_matchgate_general(g: GeneralSignature4) -> bool:
    """Arity-4 matchgate test: parity condition plus determinant criterion."""
    has_odd = g.has_parity_support(1)
    if has_odd and g.has_parity_support(0):
        return False
    if has_odd:
        # flip variable 1 through Disequality (a matchgate) to reach even parity
        return is_matchgate_general(g.flip_variable(1))
    val = g.value
    det_out = val(0, 0, 0, 0) * val(1, 1, 1, 1) - val(0, 0, 1, 1) * val(1, 1, 0, 0)
    det_in = val(0, 1, 1, 0) * val(1, 0, 0, 1) - val(0, 1, 0, 1) * val(1, 0, 1, 0)
    return det_out == det_in


def is_matchgate_hat(f: SixVertexSignature) -> bool:
    """Membership in M-hat = H2 * M, tested on the Hadamard image."""
    return is_matchgate_general(hadamard_image(f))
