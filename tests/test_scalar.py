import copy
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sixvertex.scalar import (
    I,
    MU8,
    ONE,
    SQRT2,
    W,
    ZERO,
    Scalar,
    format_scalar,
    parse_scalar,
    rational,
)


def rand_scalar(rng, span=6, den=4):
    return Scalar(
        rng.randint(-span, span),
        rng.randint(-span, span),
        rng.randint(-span, span),
        rng.randint(-span, span),
        rng.randint(1, den),
    )


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
scalars = st.builds(
    lambda a, b, c, d: rational(a.numerator, a.denominator)
    + rational(b.numerator, b.denominator) * W
    + rational(c.numerator, c.denominator) * I
    + rational(d.numerator, d.denominator) * W ** 3,
    small_fraction,
    small_fraction,
    small_fraction,
    small_fraction,
)

# rationals, many of them past 64 bits, and now and then an element off Q
big_int = st.one_of(st.integers(-6, 6), st.integers(-(2**90), 2**90))
rational_heavy = st.one_of(
    st.builds(Scalar, big_int, den=st.integers(1, 2**70)),
    st.builds(Scalar, big_int, big_int, big_int, big_int, st.integers(1, 12)),
    st.builds(Scalar, big_int),
)


def full_product(s, t):
    """The schoolbook product in Q(w), all sixteen terms, w^4 = -1."""
    a, b = (s.n0, s.n1, s.n2, s.n3), (t.n0, t.n1, t.n2, t.n3)
    c = [0, 0, 0, 0]
    for j in range(4):
        for k in range(4):
            term = a[j] * b[k]
            c[(j + k) % 4] += term if j + k < 4 else -term
    return Scalar(*c, s.den * t.den)


class TestRationalShortPath:
    """A product with a rational takes four integer products and a rational
    inverts to den/n0; both must give the general path's reduced form."""

    @given(rational_heavy, rational_heavy)
    def test_product_is_the_full_product(self, s, t):
        for lhs, rhs in ((s, t), (t, s)):
            got, want = lhs * rhs, full_product(lhs, rhs)
            assert (got.n0, got.n1, got.n2, got.n3, got.den) == (
                want.n0, want.n1, want.n2, want.n3, want.den
            )

    @given(rational_heavy)
    def test_inverse(self, s):
        if s.is_zero():
            return
        assert s * s.inv() == ONE
        assert s.inv() * s == ONE
        if s.is_rational():
            assert s.inv().as_rational() == 1 / s.as_rational()

    @given(rational_heavy, st.integers(0, 40))
    def test_power_is_the_repeated_full_product(self, s, e):
        """s ** e, and s ** -e for s != 0, in the reduced form that
        repeated schoolbook products give."""
        cases = [(s, e)] + ([] if s.is_zero() else [(s.inv(), -e)])
        for base, exponent in cases:
            want = ONE
            for _ in range(e):
                want = full_product(want, base)
            got = s**exponent
            assert (got.n0, got.n1, got.n2, got.n3, got.den) == (
                want.n0, want.n1, want.n2, want.n3, want.den
            )


class TestHashMatchesEquality:
    """Equal numbers hash equal: a rational Scalar hashes as the int or
    Fraction it equals."""

    @given(big_int, st.integers(1, 2**70))
    def test_rational_hashes_as_its_fraction(self, num, den):
        s, f = rational(num, den), Fraction(num, den)
        assert s == f and hash(s) == hash(f)
        if den == 1:
            assert s == num and hash(s) == hash(num)

    def test_set_and_dict_lookups(self):
        assert 2 in {Scalar(2)}
        assert Fraction(1, 2) in {rational(1, 2)}
        assert rational(-7, 3) in {Fraction(-7, 3)}
        assert {Scalar(-1): "x"}[-1] == "x"
        # a denominator divisible by the hash modulus
        p = sys.hash_info.modulus
        assert hash(rational(1, p)) == hash(Fraction(1, p))
        assert hash(rational(-5, 3 * p)) == hash(Fraction(-5, 3 * p))


class TestBasics:
    def test_w_squared_is_i(self):
        assert W * W == I

    def test_w_fourth_is_minus_one(self):
        assert W ** 4 == -ONE

    def test_sqrt2_squared(self):
        assert SQRT2 * SQRT2 == rational(2)

    def test_i_sqrt2_squared_is_minus_two(self):
        # (w + w^3)^2 = -2, i.e. (i*sqrt(2))^2
        s = W + W ** 3
        assert s * s == rational(-2)

    def test_inv_of_one_plus_i(self):
        # inv(1 + i) = (1 - i)/2 since |1+i|^2 = 2
        v = ONE + I
        assert v.inv() == (ONE - I) * rational(1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inv()
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_copy_and_pickle_round_trip(self):
        rng = random.Random(17)
        for s in [ZERO, ONE, W, rational(-7, 3)] + [rand_scalar(rng) for _ in range(20)]:
            for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
                assert t == s and hash(t) == hash(s)
                assert (t.n0, t.n1, t.n2, t.n3, t.den) == (s.n0, s.n1, s.n2, s.n3, s.den)


def conjugate(s):
    """Complex conjugation, the Galois map w -> w^7."""
    return s.galois(7)


class TestConjugate:
    def test_conjugate_i(self):
        assert conjugate(I) == -I

    def test_conjugate_w(self):
        assert conjugate(W) == -(W ** 3)

    def test_conjugate_rational_point(self):
        # conj(3/5 + 4i/5) = 3/5 - 4i/5
        v = rational(3, 5) + rational(4, 5) * I
        assert conjugate(v) == rational(3, 5) - rational(4, 5) * I

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(50):
            s = rand_scalar(rng)
            assert conjugate(conjugate(s)) == s

    def test_fixes_rationals(self):
        assert conjugate(rational(5, 3)) == rational(5, 3)


class TestRootsOfUnity:
    def test_w_cubed_order_8(self):
        assert (W ** 3).is_root_of_unity() == 8

    def test_unit_modulus_but_not_torsion(self):
        v = (rational(3) + rational(4) * I) * rational(1, 5)
        assert v * conjugate(v) == ONE
        assert v.is_root_of_unity() is None

    def test_two_is_not(self):
        assert rational(2).is_root_of_unity() is None

    def test_mu8_orders_and_non_roots(self):
        assert [root.is_root_of_unity() for root in MU8] == [1, 8, 4, 8, 2, 8, 4, 8]
        for v in (rational(2), ONE + I, SQRT2):
            assert v.is_root_of_unity() is None

    def test_orders_match_powers(self):
        for s in MU8:
            n = s.is_root_of_unity()
            assert n is not None
            assert s ** n == ONE
            for m in range(1, n):
                assert s ** m != ONE


class TestFieldAxioms:
    def test_random_associativity_and_inverses(self):
        rng = random.Random(12345)
        for _ in range(1000):
            s = rand_scalar(rng)
            t = rand_scalar(rng)
            u = rand_scalar(rng)
            assert (s * t) * u == s * (t * u)
            assert s * (t + u) == s * t + s * u
            if not s.is_zero():
                assert s * s.inv() == ONE

    @given(scalars, scalars)
    def test_conjugate_is_automorphism(self, s, t):
        for k in (3, 5, 7):
            assert (s * t).galois(k) == s.galois(k) * t.galois(k)
            assert (s + t).galois(k) == s.galois(k) + t.galois(k)

    @given(scalars, scalars)
    def test_abs_squared_multiplicative(self, s, t):
        """|s|^2 = s * conj(s) is multiplicative and lies in the real
        subfield Q(sqrt(2)): no w^2 part, and the w and w^3 parts cancel."""
        lhs = s * t * conjugate(s * t)
        rhs = s * conjugate(s) * t * conjugate(t)
        assert lhs == rhs
        assert lhs.n2 == 0 and lhs.n1 == -lhs.n3


class TestLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/2 + 3*w^1", rational(1, 2) + rational(3) * W),
            ("i", I),
            ("-2", rational(-2)),
            ("w", W),
            ("-w^3", -(W ** 3)),
            ("1 - w^2", ONE - I),
            ("0", ZERO),
            ("2*i", rational(2) * I),
        ],
    )
    def test_parse(self, text, value):
        assert parse_scalar(text) == value

    def test_round_trip(self):
        rng = random.Random(99)
        for _ in range(200):
            s = rand_scalar(rng)
            assert parse_scalar(format_scalar(s)) == s

    def test_bad_literals(self):
        # the grammar's rationals are ASCII digits, optionally over a
        # nonzero run of digits: no point, exponent, underscore or other
        # script's digits, and none of them in the exponent of w; 1e10000000
        # must be refused before it is built
        for text in [
            "", "w^", "1//2", "q", "1 +", "3*z^2",
            "1.5", "1e3", "1_0", "2.5e-1", "1e10000000", "1/0", "\u0663", "1/", "/2",
            "1.5*w^1", "w^1_0", "2*w^\u0663",
        ]:
            with pytest.raises(ValueError):
                parse_scalar(text)

    def test_negative_exponent_of_w(self):
        # the exponent of w is ASCII digits after an optional "-"
        assert parse_scalar("w^-1") == W ** 7
        assert parse_scalar("2*w^-3") == rational(2) * W ** 5

    def test_literal_past_the_digit_limit_is_refused(self):
        with pytest.raises(ValueError):
            parse_scalar("9" * 5000)

    def test_format_past_the_digit_limit(self):
        """format_scalar writes numbers past the int-to-str limit without
        changing it; decimal.Decimal, which the limit does not bind, gives
        the expected digits."""
        limit = sys.get_int_max_str_digits()
        big = 2**20000
        assert format_scalar(rational(2) ** 20000) == str(Decimal(big))
        value = rational(-big, 3**9000) + rational(big + 1) * W ** 3
        expected = f"{Decimal(-big)}/{Decimal(3**9000)} + {Decimal(big + 1)}*w^3"
        assert format_scalar(value) == expected
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize(
        "n", [10**599, 10**600 - 1, 10**600, 10**1200, 10**1200 + 10**600 - 1, 3**9000]
    )
    def test_format_either_side_of_the_split(self, n):
        assert format_scalar(rational(n)) == str(Decimal(n))
        assert format_scalar(rational(-n)) == str(Decimal(-n))


def test_hash_consistency():
    assert hash(Scalar(2, 0, 0, 0, 4)) == hash(Scalar(1, 0, 0, 0, 2))
    assert Scalar(2, 0, 0, 0, 4) == rational(1, 2)


def test_fraction_coefficients_view():
    s = rational(1, 2) + rational(-3, 4) * I
    assert s.coefficients == (Fraction(1, 2), 0, Fraction(-3, 4), 0)


class TestPower:
    @pytest.mark.parametrize("den", [1, 3])
    def test_pow_matches_repeated_multiplication(self, den):
        rng = random.Random(70 + den)
        for _ in range(6):
            s = rand_scalar(rng, span=3, den=1)
            s = Scalar(s.n0, s.n1, s.n2, s.n3, den)
            if s.is_zero():
                continue
            for e in range(-5, 21):
                expected = ONE
                for _ in range(abs(e)):
                    expected = expected * (s if e > 0 else s.inv())
                assert s ** e == expected

    def test_pow_of_zero(self):
        assert ZERO ** 0 == ONE
        assert ZERO ** 5 == ZERO


class TestReducedForm:
    def test_den_one_matches_reduced_form(self):
        pairs = [
            (Scalar(6, 0, 0, 0), Scalar(12, 0, 0, 0, 2)),
            (Scalar(2, 4, -6, 8), Scalar(4, 8, -12, 16, 2)),
            (Scalar(-3, 0, 1, 0), Scalar(3, 0, -1, 0, -1)),
            (Scalar(0, 0, 0, 0), Scalar(0, 0, 0, 0, 7)),
        ]
        for direct, reduced in pairs:
            assert direct == reduced
            assert repr(direct) == repr(reduced)
            assert hash(direct) == hash(reduced)
            assert (direct.n0, direct.n1, direct.n2, direct.n3, direct.den) == (
                reduced.n0, reduced.n1, reduced.n2, reduced.n3, reduced.den
            )
            assert direct.den == 1

    def test_skipped_gcd_gives_the_constructor_form(self):
        """Negation and the Galois maps copy reduced numerators without a gcd,
        and subtraction is one constructor call; each result has the fields
        and hash of the value built through the full constructor."""

        def fields(s):
            return (s.n0, s.n1, s.n2, s.n3, s.den)

        rng = random.Random(2024)
        checked = 0
        for _ in range(500):
            s = rand_scalar(rng, span=30, den=12)
            t = rand_scalar(rng, span=30, den=12)
            if s.den == 1 or t.den == 1:
                continue
            checked += 1
            neg_t = Scalar(-t.n0, -t.n1, -t.n2, -t.n3, t.den)
            neg_s = Scalar(-s.n0, -s.n1, -s.n2, -s.n3, s.den)
            pairs = [
                (-t, neg_t),
                (s - t, s + neg_t),
                (3 - s, Scalar(3) + neg_s),
                (s - Fraction(1, 3), s + Scalar(-1, 0, 0, 0, 3)),
                (s.galois(3), Scalar(s.n0, s.n3, -s.n2, s.n1, s.den)),
                (s.galois(5), Scalar(s.n0, -s.n1, s.n2, -s.n3, s.den)),
                (s.galois(7), Scalar(s.n0, -s.n3, -s.n2, -s.n1, s.den)),
            ]
            for fast, slow in pairs:
                assert type(fast) is Scalar
                assert fields(fast) == fields(slow)
                assert hash(fast) == hash(slow)
                assert fast == slow
        assert checked >= 300
        with pytest.raises(AttributeError):
            (-s).n0 = 0
