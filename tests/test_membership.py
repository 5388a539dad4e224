import random
from dataclasses import replace
from itertools import product

from sixvertex.scalar import I, MU8, ONE, W, ZERO, rational
from sixvertex.membership import (
    AffineWitness,
    _enumerated_product,
    _product_matches,
    _read_off_affine,
    _values_of,
    is_affine,
    is_matchgate,
    is_matchgate_hat,
    is_product,
)
from sixvertex.signature import SixVertexSignature, Table, compose_n, hadamard_image


def sv(*vals):
    return SixVertexSignature.from_values(*vals)


def bits(idx, n=4):
    return tuple((idx >> (n - 1 - t)) & 1 for t in range(n))


I_POWERS = (ONE, I, -ONE, -I)  # i^q for q in Z_4


def affine_value(witness, assignment):
    """The value an AffineWitness gives an assignment, by its definition:
    lam * [every row holds] * i^Q; the reference the library's check by
    index must agree with."""
    for row in witness.rows:
        if sum(c * v for c, v in zip(row[:-1], assignment)) & 1 != row[-1]:
            return ZERO
    q = sum(coeff * assignment[t] for t, coeff in enumerate(witness.quad_lin))
    q += sum(2 * bit * assignment[s] * assignment[t] for s, t, bit in witness.quad_cross)
    return witness.lam * I_POWERS[q % 4]


def product_value(witness, assignment):
    """The value a ProductWitness gives an assignment, by its definition:
    zero off the blocks' parity patterns, else the product of the blocks'
    weights at their representatives."""
    if witness.zero:
        return ZERO
    total = ONE
    for members, pars, (w0, w1) in zip(witness.blocks, witness.parities, witness.weights):
        rep = assignment[members[0]]
        if any(assignment[m] != rep ^ p for m, p in zip(members, pars)):
            return ZERO
        total = total * (w1 if rep else w0)
    return total


def searched_is_affine(sig):
    """Reference affine test: the search over all 4^n linear coefficient
    vectors, each with a GF(2) solve for the even cross terms, that
    membership.is_affine replaced.  Returns a reconstructing witness or
    None."""
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
    base = values[support[0]]
    exps = {}
    for idx in support:
        ratio = values[idx] / base
        for e in range(4):
            if ratio == I ** e:
                exps[idx] = e
                break
        else:
            return None
    rows = _searched_rows(sup_set, n)
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    points = [bits(idx, n) for idx in support]
    bits0 = points[0]
    pr0 = [bits0[s] & bits0[t] for s, t in pairs]
    targets = [exps[idx] for idx in support]
    for lin in product(range(4), repeat=n):
        lin0 = sum(lin[t] * bits0[t] for t in range(n))
        eqs = []
        ok = True
        for xs, target in zip(points, targets):
            delta = (target - sum(lin[t] * xs[t] for t in range(n)) + lin0) % 4
            if delta & 1:
                ok = False
                break
            mask = 0
            for pidx, (s, t) in enumerate(pairs):
                if (xs[s] & xs[t]) ^ pr0[pidx]:
                    mask |= 1 << pidx
            eqs.append((mask, delta >> 1))
        if not ok:
            continue
        solution = _solve_gf2(eqs)
        if solution is None:
            continue
        cross_bits = [(solution >> i) & 1 for i in range(len(pairs))]
        q0 = (lin0 + 2 * sum(cb & pb for cb, pb in zip(cross_bits, pr0))) % 4
        witness = AffineWitness(
            n,
            base * I ** ((-q0) % 4),
            rows,
            tuple(lin),
            tuple((s, t, cb) for cb, (s, t) in zip(cross_bits, pairs) if cb),
        )
        if all(affine_value(witness, bits(idx, n)) == values[idx] for idx in range(2**n)):
            return witness
    return None


def _solve_gf2(eqs):
    """Any solution of the equations (coefficient mask, rhs bit) over GF(2)."""
    pivots = []  # (pivot bit, mask, rhs)
    for mask, rhs in eqs:
        for pbit, pmask, prhs in pivots:
            if mask >> pbit & 1:
                mask ^= pmask
                rhs ^= prhs
        if mask == 0:
            if rhs:
                return None
            continue
        pivots.append((mask.bit_length() - 1, mask, rhs))
    solution = 0
    # a pivot row has no bit above its pivot, so ascending back-substitution
    # sees every lower bit decided (free bits 0)
    for pbit, mask, rhs in sorted(pivots):
        if rhs ^ (bin(mask & ~(1 << pbit) & solution).count("1") & 1):
            solution |= 1 << pbit
    return solution


def _searched_rows(sup_set, n):
    """Every equation over Z_2 that holds on the whole support."""
    rows = []
    for coeffs in product(range(2), repeat=n):
        if any(coeffs):
            sides = {sum(c * b for c, b in zip(coeffs, bits(idx, n))) & 1 for idx in sup_set}
            if len(sides) == 1:
                rows.append(coeffs + (sides.pop(),))
    return tuple(rows)


def random_affine_entries(rng, n=4):
    """The 2^n values of a random affine signature."""
    nrows = rng.randint(0, 3)
    rows = [tuple(rng.randint(0, 1) for _ in range(n + 1)) for _ in range(nrows)]
    lin = [rng.randint(0, 3) for _ in range(n)]
    cross = {(s, t): rng.randint(0, 1) for s in range(n) for t in range(s + 1, n)}
    lam = MU8[rng.randrange(8)] * rational(rng.randint(1, 3))
    entries = []
    for idx in range(2**n):
        xs = bits(idx, n)
        if any(
            (sum(c * v for c, v in zip(row[:-1], xs)) & 1) != row[-1] for row in rows
        ):
            entries.append(ZERO)
            continue
        q = sum(l * v for l, v in zip(lin, xs))
        q += 2 * sum(cb * xs[s] * xs[t] for (s, t), cb in cross.items())
        entries.append(lam * I ** (q % 4))
    return entries


def random_product_entries(rng, weights, n=4):
    """The 2^n values of a random product-type signature: blocks tied by
    equality or disequality to their first member, one unary per block."""
    labels = [rng.randrange(n) for _ in range(n)]
    blocks: dict[int, list[int]] = {}
    for v, lbl in enumerate(labels):
        blocks.setdefault(lbl, []).append(v)
    pars = {lbl: [0] + [rng.randint(0, 1) for _ in members[1:]] for lbl, members in blocks.items()}
    unaries = {lbl: (rng.choice(weights), rng.choice(weights)) for lbl in blocks}
    entries = []
    for idx in range(2**n):
        xs = bits(idx, n)
        total = ONE
        for lbl, members in blocks.items():
            rep = xs[members[0]]
            if not all(xs[m] == rep ^ p for m, p in zip(members, pars[lbl])):
                total = ZERO
                break
            total = total * unaries[lbl][rep]
        entries.append(total)
    return entries


def assert_agrees_with_search(sig):
    """is_affine and the search agree on membership, and the returned
    witness reconstructs the table; returns whether it is affine."""
    values, n = _values_of(sig)
    witness = is_affine(sig)
    assert (witness is None) == (searched_is_affine(sig) is None), sig
    if witness is not None:
        assert [affine_value(witness, bits(idx, n)) for idx in range(2**n)] == list(values)
    return witness is not None


class TestAffine:
    def test_chi1_is_affine(self):
        w = is_affine(sv(1, 1, 0, 1, 1, 0))
        assert w is not None
        # support is the coset x1 xor x3 = 1, x2 xor x4 = 1; all values 1
        assert all(b == 0 for b in [bit for (_, _, bit) in w.quad_cross])

    def test_value_two_not_affine(self):
        # support values (1,1,1,2): 2 is not a power of i
        entries = [ZERO] * 16
        entries[0b0011] = ONE
        entries[0b0110] = ONE
        entries[0b1001] = ONE
        entries[0b1100] = rational(2)
        assert is_affine(Table(tuple(entries))) is None

    def test_ice_not_affine(self):
        assert is_affine(sv(1, 1, 1, 1, 1, 1)) is None  # support size 6

    def test_closure_random_constructions(self):
        rng = random.Random(20)
        for _ in range(120):
            n = 4
            nrows = rng.randint(0, 3)
            rows = [
                tuple(rng.randint(0, 1) for _ in range(n + 1)) for _ in range(nrows)
            ]
            lin = [rng.randint(0, 3) for _ in range(n)]
            cross = {
                (s, t): rng.randint(0, 1)
                for s in range(n)
                for t in range(s + 1, n)
            }
            lam = MU8[rng.randrange(8)] * rational(rng.randint(1, 3))
            entries = []
            for idx in range(16):
                xs = bits(idx)
                if any(
                    (sum(c * v for c, v in zip(row[:-1], xs)) & 1) != row[-1]
                    for row in rows
                ):
                    entries.append(ZERO)
                    continue
                q = sum(l * v for l, v in zip(lin, xs))
                q += 2 * sum(
                    cb * xs[s] * xs[t] for (s, t), cb in cross.items()
                )
                entries.append(lam * I ** (q % 4))
            sig = Table(tuple(entries))
            w = is_affine(sig)
            assert w is not None
            for idx in range(16):
                assert affine_value(w, bits(idx)) == entries[idx]

    def test_unary_and_binary(self):
        assert is_affine(Table((ONE, I ** 3))) is not None
        assert is_affine(Table((ZERO, ONE, ONE, ZERO))) is not None
        assert is_affine(Table((ONE, ONE, ONE, rational(2)))) is None

    def test_unary_and_binary_tables_agree_with_search(self):
        palette = [ZERO, ONE, -ONE, I, -I, rational(2), W]
        verdicts = []
        for pair in product(palette, repeat=2):
            verdicts.append(assert_agrees_with_search(Table(pair)))
        for quad in product(palette, repeat=4):
            verdicts.append(assert_agrees_with_search(Table(quad)))
        assert 0 < sum(verdicts) < len(verdicts)

    def test_random_arity4_tables_agree_with_search(self):
        rng = random.Random(24)
        palette = [ONE, -ONE, I, -I, rational(2), W]
        affine, perturbed, product_type = [], [], []
        for _ in range(150):
            entries = random_affine_entries(rng)
            affine.append(assert_agrees_with_search(Table(tuple(entries))))
            idx = rng.randrange(16)
            if entries[idx].is_zero() or rng.random() < 0.3:
                entries[idx] = rng.choice(palette) if entries[idx].is_zero() else ZERO
            else:
                entries[idx] = entries[idx] * rng.choice(palette[1:])
            perturbed.append(assert_agrees_with_search(Table(tuple(entries))))
            entries = random_product_entries(rng, [ZERO] + palette)
            product_type.append(assert_agrees_with_search(Table(tuple(entries))))
        assert all(affine)
        assert 0 < sum(perturbed) < len(perturbed)
        assert 0 < sum(product_type) < len(product_type)


class TestProduct:
    def test_disequality_product_family(self):
        # c=z=0, (a,b,y,x) = (1,1,2,2): chi(x1!=x3) chi(x2!=x4) [1,2](x1)
        f = sv(1, 1, 0, 2, 2, 0)
        w = is_product(f)
        assert w is not None

    def test_sign_breaks_factorization(self):
        f = sv(1, 1, 0, 2, -2, 0)
        assert is_product(f) is None

    def test_ice_not_product(self):
        assert is_product(sv(1, 1, 1, 1, 1, 1)) is None

    def test_zero_is_product(self):
        w = is_product(sv(0, 0, 0, 0, 0, 0))
        assert w is not None and w.zero

    def test_closure_random_constructions(self):
        rng = random.Random(21)
        for _ in range(120):
            n = 4
            # random partition via random parent pointers
            labels = [rng.randrange(4) for _ in range(n)]
            blocks: dict[int, list[int]] = {}
            for v, lbl in enumerate(labels):
                blocks.setdefault(lbl, []).append(v)
            entries = []
            pars = {
                lbl: [0] + [rng.randint(0, 1) for _ in members[1:]]
                for lbl, members in blocks.items()
            }
            weights = {
                lbl: (
                    rational(rng.randint(-2, 2)),
                    rational(rng.randint(-2, 2)),
                )
                for lbl in blocks
            }
            for idx in range(16):
                xs = bits(idx)
                total = ONE
                for lbl, members in blocks.items():
                    rep = xs[members[0]]
                    okay = all(
                        xs[m] == rep ^ p for m, p in zip(members, pars[lbl])
                    )
                    if not okay:
                        total = ZERO
                        break
                    total = total * weights[lbl][rep]
                entries.append(total)
            sig = Table(tuple(entries))
            w = is_product(sig)
            assert w is not None
            for idx in range(16):
                assert product_value(w, bits(idx)) == entries[idx]


# every kind of entry the unary and binary short path meets: zero, signs,
# non-units, roots of unity, a non-unit outside Q, a number past 64 bits and
# a rational with a denominator
SMALL_ARITY_PALETTE = (
    ZERO, ONE, -ONE, rational(2), I, W, ONE + I, rational(2**70), rational(-3, 5),
)


class TestSmallArityProduct:
    """is_product reads unary and binary witnesses off the entries; they
    must be the witnesses the set-partition enumeration returns."""

    def test_unary_witnesses_are_the_enumerated_ones(self):
        for values in product(SMALL_ARITY_PALETTE, repeat=2):
            assert is_product(Table(values)) == _enumerated_product(values, 1)

    def test_binary_witnesses_are_the_enumerated_ones(self):
        kinds = {"zero": 0, "one block": 0, "two blocks": 0, "none": 0}
        for values in product(SMALL_ARITY_PALETTE, repeat=4):
            witness = is_product(Table(values))
            assert witness == _enumerated_product(values, 2), values
            if witness is None:
                kinds["none"] += 1
            elif witness.zero:
                kinds["zero"] += 1
            else:
                kinds["one block" if len(witness.blocks) == 1 else "two blocks"] += 1
        assert all(kinds.values()), kinds


def reconstructed_is_affine(sig):
    """is_affine as it checked its witness before the check by index: the
    witness read off the support, kept only when it reproduces every entry
    at every assignment (affine_value)."""
    values, n = _values_of(sig)
    witness = _read_off_affine(values, n)
    if witness is None:
        return None
    if any(affine_value(witness, bits(idx, n)) != values[idx] for idx in range(2**n)):
        return None
    return witness


class TestAffineCheckByIndex:
    """is_affine checks its witness by index, each support entry's
    exponent against Q mod 4; it must keep exactly the witnesses that
    reconstruct at every assignment (affine_value)."""

    def test_unary_and_binary_palette(self):
        kept = 0
        for arity in (1, 2):
            for values in product(SMALL_ARITY_PALETTE, repeat=2**arity):
                sig = Table(values)
                witness = is_affine(sig)
                assert witness == reconstructed_is_affine(sig), values
                kept += witness is not None
        assert kept

    def test_seeded_arity4_tables(self):
        rng = random.Random(25)
        palette = [ONE, -ONE, I, -I, rational(2), W]
        kept = refused_after_read_off = 0
        for trial in range(2000):
            style = trial % 4
            if style == 0:
                entries = random_affine_entries(rng)
            elif style == 1:
                # one entry off an affine table, so that the read-off
                # witness often survives until the check
                entries = random_affine_entries(rng)
                idx = rng.randrange(16)
                entries[idx] = entries[idx] * rng.choice(palette[1:]) if entries[idx] else rng.choice(palette)
            elif style == 2:
                entries = random_product_entries(rng, [ZERO] + palette)
            else:
                entries = [rng.choice([ZERO, ZERO] + palette) for _ in range(16)]
            sig = Table(tuple(entries))
            witness = is_affine(sig)
            assert witness == reconstructed_is_affine(sig), entries
            kept += witness is not None
            refused_after_read_off += witness is None and _read_off_affine(entries, 4) is not None
        assert kept and refused_after_read_off


class TestProductCheckByIndex:
    """is_product checks its witness by index at every arity; the check
    must accept exactly the witnesses that reproduce the table at every
    assignment (product_value), tampered witnesses and tables included."""

    def test_true_and_tampered_witnesses(self):
        rng = random.Random(26)
        palette = [ZERO, ONE, -ONE, I, rational(2), W]
        verdicts = set()
        for trial in range(1500):
            n = (1, 2, 4)[trial % 3]
            values = random_product_entries(rng, palette, n)
            witness = _enumerated_product(values, n)
            candidates = [witness]
            if not witness.zero:
                t = rng.randrange(len(witness.blocks))
                weights = list(witness.weights)
                weights[t] = (rng.choice(palette), rng.choice(palette))
                candidates.append(replace(witness, weights=tuple(weights)))
                if len(witness.blocks[t]) > 1:
                    pars = list(witness.parities)
                    pars[t] = pars[t][:-1] + (1 - pars[t][-1],)
                    candidates.append(replace(witness, parities=tuple(pars)))
            tampered = list(values)
            tampered[rng.randrange(2**n)] = rng.choice(palette)
            for w in candidates:
                for table in (values, tampered):
                    expected = all(
                        product_value(w, bits(idx, n)) == table[idx] for idx in range(2**n)
                    )
                    assert _product_matches(w, table, n) == expected, (w, table)
                    verdicts.add((n, expected))
        assert len(verdicts) == 6, verdicts


def flip_variable(g: Table, var: int) -> Table:
    """g composed with Disequality on variable `var` (1 to 4): that input
    negated."""
    shift = 8 >> (var - 1)
    return Table(tuple(g.entries[idx ^ shift] for idx in range(16)))


def is_matchgate_general(g: Table) -> bool:
    """Reference arity-4 matchgate test: support of one parity, an odd one
    moved to even by flipping variable 1 (composing it with Disequality,
    itself a matchgate), then det M_Out = det M_In."""
    e = g.entries
    parities = {bin(idx).count("1") & 1 for idx in range(16) if not e[idx].is_zero()}
    if parities == {0, 1}:
        return False
    if parities == {1}:
        e = flip_variable(g, 1).entries
    return e[0b0000] * e[0b1111] - e[0b0011] * e[0b1100] == (
        e[0b0110] * e[0b1001] - e[0b0101] * e[0b1010]
    )


UNIT_PALETTE = (ZERO, ONE, -ONE, I, -I)


def hat_against_image(palette) -> int:
    """Check is_matchgate_hat on every signature over the palette against
    the Hadamard image test, and its witness eps against
    (x, y, z) = eps (a, b, c); the number of members."""
    members = 0
    for values in product(palette, repeat=6):
        f = SixVertexSignature(*values)
        eps = is_matchgate_hat(f)
        assert (eps is not None) == is_matchgate_general(hadamard_image(f)), f
        if eps is not None:
            e = rational(eps)
            assert (f.x, f.y, f.z) == (e * f.a, e * f.b, e * f.c), f
            members += 1
    return members


class TestMatchgate:
    def test_example_in(self):
        assert is_matchgate(sv(1, 1, 2, 1, 1, 1))  # cz-by = 1 = ax

    def test_ice_not(self):
        assert not is_matchgate(sv(1, 1, 1, 1, 1, 1))

    def test_zero_in(self):
        assert is_matchgate(sv(0, 0, 0, 0, 0, 0))

    def test_hat_positive_family(self):
        # a = x = 0, (y, z) = eps (b, c); for eps = -1 the image is that of
        # (a, b, c, a, b, c) with variable 1 flipped
        assert is_matchgate_hat(sv(0, 1, 2, 0, 1, 2)) == 1
        f, even = sv(0, 1, -2, 0, -1, 2), sv(0, 1, -2, 0, 1, -2)
        assert is_matchgate_hat(f) == -1
        assert flip_variable(hadamard_image(f), 1) == hadamard_image(even)
        assert is_matchgate_hat(sv(0, 0, 0, 0, 0, 0)) == 1

    def test_hat_negative_family(self):
        # abxy != 0, c=z=0 is never in M-hat
        assert is_matchgate_hat(sv(1, 1, 0, 1, 1, 0)) is None
        assert is_matchgate_hat(sv(1, 2, 0, 3, 4, 0)) is None

    def test_ice_not_hat(self):
        assert is_matchgate_hat(sv(1, 1, 1, 1, 1, 1)) is None

    def test_hat_closed_form(self):
        # derived closed form: f in M-hat iff a = eps x, b = eps y, c = eps z
        # with ab = 0, for some eps = +-1 (cross-checked here at random)
        rng = random.Random(22)
        for _ in range(300):
            f = sv(*(rng.randint(-2, 2) for _ in range(6)))
            predicted = False
            for eps in (1, -1):
                e = rational(eps)
                if (
                    f.x == e * f.a
                    and f.y == e * f.b
                    and f.z == e * f.c
                    and (f.a * f.b).is_zero()
                ):
                    predicted = True
            assert (is_matchgate_hat(f) is not None) == predicted

    def test_hat_against_the_image_test(self):
        # every signature over {0, +-1, +-i}; CI runs the 7-value palette
        assert hat_against_image(UNIT_PALETTE) == 89

    def test_hat_closed_under_composition(self):
        # compose_n keeps (x, y, z) = eps (a, b, c) with eps = e1 e2, and
        # ab = 0; a zero composition has eps = 1
        members = []
        for values in product(UNIT_PALETTE, repeat=6):
            f = SixVertexSignature(*values)
            eps = is_matchgate_hat(f)
            if eps is not None:
                members.append((f, eps))
        assert len(members) == 89
        for f, e1 in members:
            for g, e2 in members:
                h = compose_n(f, g)
                assert is_matchgate_hat(h) == (1 if h.is_zero() else e1 * e2), (f, g)

    def test_hat_consistent_with_hadamard_involution(self):
        # f in M iff hadamard_image(f) in M-hat-image sense: applying the
        # transform twice scales by 16, so the criterion round-trips
        rng = random.Random(23)
        for _ in range(100):
            f = sv(*(rng.randint(-2, 2) for _ in range(6)))
            img = hadamard_image(f)
            assert is_matchgate_general(hadamard_image(img)) == is_matchgate_general(
                f.to_table()
            )

