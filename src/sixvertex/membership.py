"""Decidable membership in the tractable signature classes.

Affine signatures are lambda * chi_{AX=0} * i^{Q(X)} with Q quadratic over
Z_4 and even cross terms; product-type signatures factor into unaries,
binary equality and binary disequality.  Matchgate membership of a
six-vertex signature is the determinant criterion det M_Out(f) = det M_In(f).
M-hat = H2 * M is read off the six entries: the Hadamard image of
(a,b,c,x,y,z) has even entries +-(a+x) +-(b+y) +-(c+z) and odd entries
+-(a-x) +-(b-y) +-(c-z), under every sign pattern, so it has one parity
exactly when (x, y, z) = eps (a, b, c), eps = +-1, the witness.  For
eps = 1 its entries (p, q, r, s) = 2 (a+b+c, a-b-c, -a+b-c, -a-b+c) on
0000, 0011, 0110, 0101 make its determinant criterion p^2 - q^2 = r^2 - s^2
read a (b + c) = -a (b - c), that is ab = 0; flipping variable 1 of the
image of eps = -1 gives that of (a, b, c, a, b, c).

The affine witness is read off the support with no search: a GF(2) basis,
the exponents at the unit and pair points, and one check of every entry.
Product-type membership reads a unary or binary witness off the entries
(one block, or two of rank 1) and enumerates set partitions of the
variables at arity 4; either way it divides at most once per block.
A binary table of two blocks is its own value tensor, so its read-off
factors it with no structure search, through the same rank-1
factorisation the enumeration uses.  Every returned witness reconstructs
its signature entrywise: is_affine returns a witness only after checking
this, and is_product raises WitnessError when its witness does not.  Both
checks read the entries by index, at every arity: a product witness is
multiplied out, by weights other than ONE only, and an affine witness
matches each support entry's exponent over lam with Q mod 4, its rows
deciding the zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .scalar import ONE, ZERO, Scalar
from .signature import SixVertexSignature, Table


class WitnessError(RuntimeError):
    """A membership witness failed to reproduce the data it was computed
    from."""


def _values_of(sig) -> tuple[tuple[Scalar, ...], int]:
    """A Table's or a six-vertex signature's (entries, arity)."""
    if isinstance(sig, SixVertexSignature):
        sig = sig.to_table()
    elif not isinstance(sig, Table):
        raise TypeError(f"not a signature: {sig!r}")
    return sig.entries, sig.arity


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


def is_affine(sig) -> Optional[AffineWitness]:
    """Affine-class membership with a reconstructing witness, read off the
    support without search.

    The support S is affine iff, with x0 its least point, the vectors
    s xor x0 span a GF(2) space of rank r with |S| = 2^r.  In reduced
    echelon form each basis vector b owns one pivot variable, its leading
    bit, so the pivot bits coordinatize S, the witness rows give every
    other variable as an affine function of them, and x0 is the point of S
    whose pivot bits are all 0.  Anchored there, every value must be
    f(x0) * i^e.  On S the exponent is then a multilinear polynomial over
    Z_4 in the pivot bits, which is unique: its linear coefficients are the
    exponents at the unit points x0 xor b, its cross coefficients come from
    the points x0 xor b xor b', and an odd cross coefficient means f is not
    affine.  The witness so read is checked against every entry by index
    (_affine_matches).
    """
    values, n = _values_of(sig)
    witness = _read_off_affine(values, n)
    return witness if witness is not None and _affine_matches(witness, values, n) else None


def _read_off_affine(values, n) -> Optional[AffineWitness]:
    """The witness is_affine reads off the support and the unit and pair
    points, before its check against every entry; None when the support is
    not affine or a value read is not f(x0) * i^e with an even cross term."""
    support = [idx for idx, v in enumerate(values) if not v.is_zero()]
    if not support:
        return AffineWitness(n, ONE, (tuple([0] * n + [1]),), tuple([0] * n), tuple())
    x0 = support[0]
    basis: dict[int, int] = {}  # pivot bit -> vector; no vector has another's pivot
    for s in support:
        v = s ^ x0
        for p, b in basis.items():
            if v >> p & 1:
                v ^= b
        if v:
            p = v.bit_length() - 1
            for q in list(basis):
                if basis[q] >> p & 1:
                    basis[q] ^= v
            basis[p] = v
    if len(support) != 1 << len(basis):
        return None
    exponent_of = _i_multiples(values[x0])

    def exponent(idx: int) -> Optional[int]:
        v = values[idx]
        return exponent_of.get((v.n0, v.n1, v.n2, v.n3, v.den))

    # bit p of an index is variable n - 1 - p; ascending variables
    pivots = sorted(basis, reverse=True)
    lin = [0] * n
    for p in pivots:
        e = exponent(x0 ^ basis[p])
        if e is None:
            return None
        lin[n - 1 - p] = e
    cross = []
    for at, p in enumerate(pivots):
        for q in pivots[at + 1 :]:
            e = exponent(x0 ^ basis[p] ^ basis[q])
            if e is None:
                return None
            d = (e - lin[n - 1 - p] - lin[n - 1 - q]) % 4
            if d & 1:
                return None
            if d:
                cross.append((n - 1 - p, n - 1 - q, 1))
    rows = []
    for c in range(n - 1, -1, -1):
        if c in basis:
            continue
        row = [0] * n
        row[n - 1 - c] = 1
        for p, b in basis.items():
            if b >> c & 1:
                row[n - 1 - p] = 1
        rows.append(tuple(row) + (x0 >> c & 1,))
    return AffineWitness(n, values[x0], tuple(rows), tuple(lin), tuple(cross))


def _affine_matches(witness: AffineWitness, values, n) -> bool:
    """Whether the affine witness reproduces every entry, read by index: an
    entry is nonzero exactly where every row holds, and there its exponent
    over lam, looked up among lam * i^e, is Q mod 4.  No Scalar is built."""
    # bit n - 1 - t of an index is variable t
    rows = [
        (sum(c << n - 1 - t for t, c in enumerate(row[:-1])), row[-1])
        for row in witness.rows
    ]
    lin = [(1 << n - 1 - t, c) for t, c in enumerate(witness.quad_lin) if c]
    cross = [1 << n - 1 - s | 1 << n - 1 - t for s, t, bit in witness.quad_cross if bit]
    exponent_of = _i_multiples(witness.lam)
    for idx, v in enumerate(values):
        for mask, c in rows:
            if bin(idx & mask).count("1") & 1 != c:
                if not v.is_zero():
                    return False
                break
        else:
            q = 0
            for bit, c in lin:
                if idx & bit:
                    q += c
            for both in cross:
                if idx & both == both:
                    q += 2
            if exponent_of.get((v.n0, v.n1, v.n2, v.n3, v.den)) != q % 4:
                return False
    return True


def _i_multiples(base: Scalar) -> dict[tuple[int, ...], int]:
    """{(n0, n1, n2, n3, den) of base * i^e: e} for e in Z_4.  Multiplying
    by i = w^2 moves each coefficient up two places and negates the two
    that wrap past w^4 = -1, so no Scalar arithmetic is needed."""
    n0, n1, n2, n3, den = base.n0, base.n1, base.n2, base.n3, base.den
    return {
        (n0, n1, n2, n3, den): 0,
        (-n2, -n3, n0, n1, den): 1,
        (-n0, -n1, -n2, -n3, den): 2,
        (n2, n3, -n0, -n1, den): 3,
    }


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

    A unary or binary table reads its witness off its entries; an arity-4
    table enumerates set partitions of the variables and within-block
    parity patterns, then checks that the surviving value tensor factors
    with rank 1 across independent blocks.  Both give the witness of the
    first candidate in the enumeration's order that factors.
    """
    values, n = _values_of(sig)
    witness = (_read_off_product if n <= 2 else _enumerated_product)(values, n)
    if witness is not None and not _product_matches(witness, values, n):
        raise WitnessError(f"product witness does not reconstruct {sig!r}")
    return witness


def _product_matches(witness: ProductWitness, values, n) -> bool:
    """Whether the product witness reproduces every entry, read by index:
    an entry is zero off the blocks' parity patterns and is the product of
    its blocks' weights, other than ONE, on them; is_product raises
    WitnessError when not."""
    if witness.zero:
        return not any(values)
    # per block: the shift of its representative's bit, the mask of its
    # members' bits, and the bits they take when the representative is 0
    blocks = []
    for members, pars, w in zip(witness.blocks, witness.parities, witness.weights):
        mask = bits = 0
        for m, p in zip(members, pars):
            mask |= 1 << n - 1 - m
            bits |= p << n - 1 - m
        blocks.append((n - 1 - members[0], mask, bits, w))
    for idx, v in enumerate(values):
        acc = ONE
        for shift, mask, bits, w in blocks:
            rep = idx >> shift & 1
            if idx & mask != (bits ^ mask if rep else bits):
                acc = ZERO
                break
            if w[rep] is not ONE:
                acc = w[rep] if acc is ONE else acc * w[rep]
        if acc != v:
            return False
    return True


def _read_off_product(values, n) -> Optional[ProductWitness]:
    """The witness of _enumerated_product on a table of arity 1 or 2, with
    the candidates that cannot factor skipped: a unary table is one block,
    and a binary one is one block when its support lies in {00, 11} or
    {01, 10}, two blocks of rank 1 otherwise.  Two singleton blocks leave
    no entry off their pattern, so the table is already the tensor that
    _factor_tensor factors."""
    if all(v.is_zero() for v in values):
        return ProductWitness(n, zero=True)
    if n == 1:
        return ProductWitness(1, False, ((0,),), ((0,),), (tuple(values),))
    v00, v01, v10, v11 = values
    if v01.is_zero() and v10.is_zero():
        return ProductWitness(2, False, ((0, 1),), ((0, 0),), ((v00, v11),))
    if v00.is_zero() and v11.is_zero():
        return ProductWitness(2, False, ((0, 1),), ((0, 1),), ((v01, v10),))
    tensor = {(0, 0): v00, (0, 1): v01, (1, 0): v10, (1, 1): v11}
    return _factor_tensor(tensor, 2, ((0,), (1,)), ((0,), (0,)))


def _enumerated_product(values, n) -> Optional[ProductWitness]:
    """The first candidate, in set-partition and parity order, that
    factors; the unchecked witness of is_product for any arity."""
    if all(v.is_zero() for v in values):
        return ProductWitness(n, zero=True)
    for part in _set_partitions(list(range(n))):
        blocks = [sorted(b) for b in part]
        parity_choices = [list(product(range(2), repeat=len(b) - 1)) for b in blocks]
        for pars in product(*parity_choices):
            full_pars = [(0,) + p for p in pars]
            witness = _try_factor(values, n, blocks, full_pars)
            if witness is not None:
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

    tensor: dict[tuple[int, ...], Scalar] = {}
    for idx, v in enumerate(values):
        reps = structured(idx)
        if reps is None:
            if not v.is_zero():
                return None
        else:
            tensor[reps] = v
    return _factor_tensor(tensor, n, blocks, full_pars)


def _factor_tensor(tensor, n, blocks, full_pars) -> Optional[ProductWitness]:
    """The rank-1 factorisation of the value tensor over the block
    representatives, or None; the tensor has a nonzero entry."""
    k = len(blocks)
    ref = None
    for reps, v in tensor.items():
        if not v.is_zero():
            ref = reps
            break
    if ref is None:
        return None  # the zero signature is handled before any tensor
    ref_val = tensor[ref]
    # block 0 keeps the tensor's values along its axis through ref; every
    # later block is exactly ONE on ref's side and one ratio on the other,
    # so a block costs at most one division
    weights = []
    for t in range(k):
        probe = list(ref)
        probe[t] ^= 1
        other = tensor[tuple(probe)]
        w = [ZERO, ZERO]
        if t == 0:
            w[ref[t]], w[1 - ref[t]] = ref_val, other
        else:
            w[ref[t]] = ONE
            w[1 - ref[t]] = ZERO if other.is_zero() else other / ref_val
        weights.append(tuple(w))
    for reps, v in tensor.items():
        acc = weights[0][reps[0]]
        for t in range(1, k):
            w = weights[t][reps[t]]
            if w is not ONE:
                acc = acc * w
        if acc != v:
            return None
    return ProductWitness(
        n,
        zero=False,
        blocks=tuple(tuple(b) for b in blocks),
        parities=tuple(tuple(p) for p in full_pars),
        weights=tuple(weights),
    )


# -- matchgates ----------------------------------------------------------------


def is_matchgate(f: SixVertexSignature) -> bool:
    """det M_Out(f) = det M_In(f), i.e. ax = cz - by."""
    det_in, det_out = f.inner_outer_dets()
    return det_in == det_out


def is_matchgate_hat(f: SixVertexSignature) -> Optional[int]:
    """Membership in M-hat = H2 * M in closed form: the witness eps = +-1
    with (x, y, z) = eps (a, b, c), when ab = 0, or None.  The zero
    signature gets eps = 1."""
    if not (f.a.is_zero() or f.b.is_zero()):
        return None
    abc = (f.a, f.b, f.c)
    if (f.x, f.y, f.z) == abc:
        return 1
    if (-f.x, -f.y, -f.z) == abc:
        return -1
    return None
