"""Exact arithmetic in the eighth cyclotomic field Q(w), w = zeta_8 = e^{i*pi/4}.

Elements are stored as n0 + n1*w + n2*w^2 + n3*w^3 over a common positive
denominator, with w^4 = -1.  The representation is kept gcd-reduced so that
equality and hashing are structural.  This field contains i = w^2,
sqrt(i) = w and sqrt(2) = w - w^3, which covers every constant appearing in
the six-vertex classification, in Pfaffians and in quadratic Gauss sums.

No floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from sys import hash_info
from typing import Iterable, Optional, Union

_RatLike = Union[int, Fraction]
_HASH_MODULUS = hash_info.modulus
_HASH_INF = hash_info.inf


def _gcd_many(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(v))
        if g == 1:
            return 1
    return g


class Scalar:
    """An element c0 + c1*w + c2*w^2 + c3*w^3 of Q(zeta_8), exact and immutable.

    Rationals (c1 = c2 = c3 = 0) take a short path: a product with one costs
    four integer products instead of sixteen, its inverse is den/n0, its
    e-th power is n0^e / den^e, and it hashes as the int or Fraction it
    equals.
    """

    __slots__ = ("n0", "n1", "n2", "n3", "den")

    def __init__(self, n0: int, n1: int = 0, n2: int = 0, n3: int = 0, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            n0, n1, n2, n3, den = -n0, -n1, -n2, -n3, -den
        if den != 1:
            # an integral element (den == 1) is already in reduced form
            g = _gcd_many((n0, n1, n2, n3, den))
            if g > 1:
                n0 //= g
                n1 //= g
                n2 //= g
                n3 //= g
                den //= g
        _SET_N0(self, n0)
        _SET_N1(self, n1)
        _SET_N2(self, n2)
        _SET_N3(self, n3)
        _SET_DEN(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: the default restores the
        # slots by setattr, which an immutable Scalar refuses
        return Scalar, (self.n0, self.n1, self.n2, self.n3, self.den)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value: _RatLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        f = Fraction(value)
        return cls(f.numerator, 0, 0, 0, f.denominator)

    # -- views ---------------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        d = self.den
        return (
            Fraction(self.n0, d),
            Fraction(self.n1, d),
            Fraction(self.n2, d),
            Fraction(self.n3, d),
        )

    def is_zero(self) -> bool:
        return self.n0 == 0 and self.n1 == 0 and self.n2 == 0 and self.n3 == 0

    def is_rational(self) -> bool:
        return self.n1 == 0 and self.n2 == 0 and self.n3 == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.n0, self.den)

    # -- field operations ----------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        return Scalar(
            a.n0 * b.den + b.n0 * a.den,
            a.n1 * b.den + b.n1 * a.den,
            a.n2 * b.den + b.n2 * a.den,
            a.n3 * b.den + b.n3 * a.den,
            a.den * b.den,
        )

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _reduced(-self.n0, -self.n1, -self.n2, -self.n3, self.den)

    def __sub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        return Scalar(
            a.n0 * b.den - b.n0 * a.den,
            a.n1 * b.den - b.n1 * a.den,
            a.n2 * b.den - b.n2 * a.den,
            a.n3 * b.den - b.n3 * a.den,
            a.den * b.den,
        )

    def __rsub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a0, a1, a2, a3 = self.n0, self.n1, self.n2, self.n3
        b0, b1, b2, b3 = other.n0, other.n1, other.n2, other.n3
        den = self.den * other.den
        if not (b1 or b2 or b3):
            return Scalar(a0 * b0, a1 * b0, a2 * b0, a3 * b0, den)
        if not (a1 or a2 or a3):
            return Scalar(a0 * b0, a0 * b1, a0 * b2, a0 * b3, den)
        # w^4 = -1: degree-k products with k >= 4 wrap with a sign flip.
        c0 = a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1
        c1 = a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2
        c2 = a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3
        c3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
        return Scalar(c0, c1, c2, c3, den)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """Multiplicative inverse: the unique x with self*x = 1.

        A rational n0/den inverts to den/n0.  Otherwise it is computed
        through the Galois conjugates sigma_k (w -> w^k, k odd):
        self * sigma_3 * sigma_5 * sigma_7 is the rational field norm.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_8)")
        if self.is_rational():
            return Scalar(self.den, 0, 0, 0, self.n0)
        t = self.galois(3) * self.galois(5) * self.galois(7)
        norm = self * t
        if not norm.is_rational() or norm.is_zero():
            raise ArithmeticError(f"field norm of {self!r} is not a nonzero rational")
        return t * Scalar(norm.den, 0, 0, 0, norm.n0)

    def __truediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, exponent: int) -> "Scalar":
        if exponent < 0:
            return self.inv() ** (-exponent)
        if exponent == 0:
            return ONE
        if not (self.n1 or self.n2 or self.n3):
            # powers of coprime n0 and den stay coprime, so already reduced
            return _reduced(self.n0**exponent, 0, 0, 0, self.den**exponent)
        # square up to the lowest set bit, then fold in the higher bits;
        # the base is never squared past the highest bit
        base = self
        e = exponent
        while not e & 1:
            base = base * base
            e >>= 1
        result = base
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                result = result * base
            e >>= 1
        return result

    # -- Galois automorphisms -----------------------------------------------

    def galois(self, k: int) -> "Scalar":
        """Apply the automorphism w -> w^k (k odd mod 8)."""
        k %= 8
        if k == 1:
            return self
        if k == 3:
            return _reduced(self.n0, self.n3, -self.n2, self.n1, self.den)
        if k == 5:
            return _reduced(self.n0, -self.n1, self.n2, -self.n3, self.den)
        if k == 7:
            return _reduced(self.n0, -self.n3, -self.n2, -self.n1, self.den)
        raise ValueError("galois automorphisms need k odd")

    # -- structure tests ---------------------------------------------------

    def is_root_of_unity(self) -> Optional[int]:
        """Order of self if self is in mu_8 = {w^k}, else None.

        In Q(zeta_8) the torsion units are exactly mu_8, so looking self
        up among the eight elements of MU8 is a complete test.
        """
        return _MU8_ORDER.get(self)

    # -- hashing / comparison / display -----------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.n0 == other.n0
            and self.n1 == other.n1
            and self.n2 == other.n2
            and self.n3 == other.n3
            and self.den == other.den
        )

    def __hash__(self):
        if self.n1 or self.n2 or self.n3:
            return hash((self.n0, self.n1, self.n2, self.n3, self.den))
        if self.den == 1:
            return hash(self.n0)
        # a rational hashes as the Fraction it equals ("Hashing of numeric
        # types" in the Python docs); n0 and den are coprime, so den is a
        # unit mod the hash modulus unless the modulus divides it
        try:
            h = abs(self.n0) % _HASH_MODULUS * pow(self.den, -1, _HASH_MODULUS) % _HASH_MODULUS
        except ValueError:
            h = _HASH_INF
        h = h if self.n0 >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        return format_scalar(self)


# the slot setters bypass Scalar.__setattr__, which refuses every write
_SET_N0 = Scalar.n0.__set__
_SET_N1 = Scalar.n1.__set__
_SET_N2 = Scalar.n2.__set__
_SET_N3 = Scalar.n3.__set__
_SET_DEN = Scalar.den.__set__


def _reduced(n0: int, n1: int, n2: int, n3: int, den: int) -> Scalar:
    """A Scalar from numerators and a positive denominator that are already
    in reduced form, such as a signed permutation of a Scalar's own; skips
    the constructor's gcd."""
    out = object.__new__(Scalar)
    _SET_N0(out, n0)
    _SET_N1(out, n1)
    _SET_N2(out, n2)
    _SET_N3(out, n3)
    _SET_DEN(out, den)
    return out


def _coerce(value) -> "Scalar":
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.from_rational(value)
    return NotImplemented


ZERO = Scalar(0)
ONE = Scalar(1)
W = Scalar(0, 1)          # zeta_8 = sqrt(i)
I = Scalar(0, 0, 1)       # w^2
SQRT2 = Scalar(0, 1, 0, -1)  # w + w^-1 = w - w^3
MU8 = tuple(W ** k for k in range(8))
_MU8_ORDER = {root: 8 // gcd(k, 8) for k, root in enumerate(MU8)}  # gcd(0, 8) = 8


# -- scalar literal grammar ------------------------------------------------
#
#   term     := rational | rational "*" "w" "^" exponent | "i" | "-" term
#   expr     := term ("+" term)*
#   rational := int | int "/" posint
#   exponent := int | "-" int
#
# "a - b" is accepted as shorthand for "a + -b", and a bare "w" or "w^k"
# for "1*w^k".  An int is ASCII digits, with no point, "e", underscore or
# other script's digits, so the exponent of w is ASCII digits after an
# optional "-" (w^-1 is w^7).

_RATIONAL = re.compile(r"[0-9]+(/[0-9]+)?")
_EXPONENT = re.compile(r"-?[0-9]+")


def parse_scalar(text: str) -> Scalar:
    """The literal's value; ValueError for any other text, and for a number
    past the int-to-str digit limit (sys.get_int_max_str_digits)."""
    s = text.strip()
    if not s:
        raise ValueError("empty scalar literal")
    # split on '+' and binary '-' at top level (no parentheses in the grammar)
    terms: list[str] = []
    current = []
    for idx, ch in enumerate(s):
        if ch == "+":
            terms.append("".join(current))
            current = []
        elif ch == "-" and current and "".join(current).strip() and not "".join(current).rstrip().endswith(("*", "^", "/")):
            terms.append("".join(current))
            current = ["-"]
        else:
            current.append(ch)
    terms.append("".join(current))
    total = ZERO
    for term in terms:
        total = total + _parse_term(term.strip())
    return total


def _parse_term(term: str) -> Scalar:
    if not term:
        raise ValueError("empty term in scalar literal")
    if term.startswith("-"):
        return -_parse_term(term[1:].strip())
    if term == "i":
        return I
    if term == "w":
        return W
    if term.startswith("w^"):
        return W ** _parse_int(term[2:])
    if "*" in term:
        coeff_text, _, w_text = term.partition("*")
        w_text = w_text.strip()
        if w_text == "i":
            power = 2
        elif w_text == "w":
            power = 1
        elif w_text.startswith("w^"):
            power = _parse_int(w_text[2:])
        else:
            raise ValueError(f"bad term {term!r} in scalar literal")
        return Scalar.from_rational(_parse_rational(coeff_text)) * W ** power
    return Scalar.from_rational(_parse_rational(term))


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        if not _RATIONAL.fullmatch(text):
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r} in scalar literal") from exc


def _parse_int(text: str) -> int:
    text = text.strip()
    try:
        if not _EXPONENT.fullmatch(text):
            raise ValueError(text)
        return int(text)
    except ValueError as exc:
        raise ValueError(f"bad integer {text!r} in scalar literal") from exc


def format_scalar(value: Scalar) -> str:
    """Canonical literal, of any size, that round-trips through
    parse_scalar up to the int-to-str digit limit it reads under."""
    parts: list[str] = []
    for power, coeff in enumerate(value.coefficients):
        if coeff == 0:
            continue
        text = _decimal(coeff.numerator)
        if coeff.denominator != 1:
            text += "/" + _decimal(coeff.denominator)
        parts.append(text if power == 0 else f"{text}*w^{power}")
    if not parts:
        return "0"
    return " + ".join(parts)


# str() of an int below 10^600 is within every int-to-str digit limit
# the interpreter accepts (none is below 640), and leaves the limit as is
_DIGITS = 600
_SPLIT = 10**_DIGITS


def _decimal(n: int) -> str:
    """str(n) for an int of any size: str(n) below 10^600, else the digits
    of n split at the least 10^(600 * 2^j) whose square exceeds n."""
    if n < 0:
        return "-" + _decimal(-n)
    if n < _SPLIT:
        return str(n)
    split, digits = _SPLIT, _DIGITS
    while split * split <= n:
        split, digits = split * split, 2 * digits
    hi, lo = divmod(n, split)
    return _decimal(hi) + _decimal(lo).zfill(digits)


def rational(num: int, den: int = 1) -> Scalar:
    return Scalar.from_rational(Fraction(num, den))
