import random

from sixvertex.scalar import I, MU8, ONE, ZERO, rational
from sixvertex.membership import (
    is_affine,
    is_matchgate,
    is_matchgate_general,
    is_matchgate_hat,
    is_product,
)
from sixvertex.signature import (
    BinarySignature,
    GeneralSignature4,
    SixVertexSignature,
    UnarySignature,
    hadamard_image,
)


def sv(*vals):
    return SixVertexSignature.from_values(*vals)


def bits(idx, n=4):
    return tuple((idx >> (n - 1 - t)) & 1 for t in range(n))


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
        assert is_affine(GeneralSignature4(entries)) is None

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
            sig = GeneralSignature4(entries)
            w = is_affine(sig)
            assert w is not None
            for idx in range(16):
                assert w.evaluate(bits(idx)) == entries[idx]

    def test_unary_and_binary(self):
        assert is_affine(UnarySignature(ONE, I ** 3)) is not None
        assert is_affine(BinarySignature(ZERO, ONE, ONE, ZERO)) is not None
        assert is_affine(BinarySignature(ONE, ONE, ONE, rational(2))) is None


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
            sig = GeneralSignature4(entries)
            w = is_product(sig)
            assert w is not None
            for idx in range(16):
                assert w.evaluate(bits(idx)) == entries[idx]


class TestMatchgate:
    def test_example_in(self):
        assert is_matchgate(sv(1, 1, 2, 1, 1, 1))  # cz-by = 1 = ax

    def test_ice_not(self):
        assert not is_matchgate(sv(1, 1, 1, 1, 1, 1))

    def test_zero_in(self):
        assert is_matchgate(sv(0, 0, 0, 0, 0, 0))

    def test_hat_positive_family(self):
        # a=x=0, b = eps y, c = eps z
        assert is_matchgate_hat(sv(0, 1, 2, 0, 1, 2))
        assert is_matchgate_hat(sv(0, 1, -2, 0, -1, 2))

    def test_hat_negative_family(self):
        # abxy != 0, c=z=0 is never in M-hat
        assert not is_matchgate_hat(sv(1, 1, 0, 1, 1, 0))
        assert not is_matchgate_hat(sv(1, 2, 0, 3, 4, 0))

    def test_ice_not_hat(self):
        assert not is_matchgate_hat(sv(1, 1, 1, 1, 1, 1))

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
            assert is_matchgate_hat(f) == predicted

    def test_hat_consistent_with_hadamard_involution(self):
        # f in M iff hadamard_image(f) in M-hat-image sense: applying the
        # transform twice scales by 16, so the criterion round-trips
        rng = random.Random(23)
        for _ in range(100):
            f = sv(*(rng.randint(-2, 2) for _ in range(6)))
            img = hadamard_image(f)
            assert is_matchgate_general(hadamard_image(img)) == is_matchgate_general(
                f.to_general()
            )

