"""Six-vertex and general arity-<=4 signatures.

The paper writes a signature as the 4x4 matrix M_{x1x2,x4x3}(f), row x1x2
and column x4x3 in lexicographic order, so that planar composition is a
matrix product.  A six-vertex signature (a,b,c,x,y,z) has

    M(f) = [[0,0,0,a],
            [0,b,c,0],
            [0,z,y,0],
            [x,0,0,0]]

with inner pair (c,z), det M_In = by - cz, and outer pairs (a,x), (b,y),
det M_Out = -ax.  The library reads and composes six-vertex signatures by
their six entries: compose_n is M(f) N M(g) in closed form.  Rotating the
four inputs one quarter turn counterclockwise maps (a,b,c,x,y,z) to
(y,a,z,b,x,c); the inner pair stays inner under every rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .scalar import ZERO, Scalar, format_scalar, parse_scalar


@dataclass(frozen=True)
class UnarySignature:
    u0: Scalar
    u1: Scalar

    def value(self, x: int) -> Scalar:
        return self.u1 if x else self.u0

    def values(self) -> tuple[Scalar, Scalar]:
        return (self.u0, self.u1)


@dataclass(frozen=True)
class BinarySignature:
    g00: Scalar
    g01: Scalar
    g10: Scalar
    g11: Scalar

    def value(self, x1: int, x2: int) -> Scalar:
        return (self.g00, self.g01, self.g10, self.g11)[2 * x1 + x2]

    def values(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.g00, self.g01, self.g10, self.g11)


class GeneralSignature4:
    """Arity-4 signature as 16 values indexed by (x1,x2,x3,x4) lexicographic."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Scalar]):
        if len(entries) != 16:
            raise ValueError("GeneralSignature4 needs 16 entries")
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("GeneralSignature4 is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneralSignature4) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "GeneralSignature4([" + ", ".join(format_scalar(e) for e in self.entries) + "])"


@dataclass(frozen=True, slots=True)
class SixVertexSignature:
    a: Scalar
    b: Scalar
    c: Scalar
    x: Scalar
    y: Scalar
    z: Scalar

    @classmethod
    def from_values(cls, a, b, c, x, y, z) -> "SixVertexSignature":
        conv = Scalar.from_rational
        return cls(conv(a), conv(b), conv(c), conv(x), conv(y), conv(z))

    def tuple(self) -> tuple[Scalar, ...]:
        return (self.a, self.b, self.c, self.x, self.y, self.z)

    def value(self, x1: int, x2: int, x3: int, x4: int) -> Scalar:
        field = _PATTERN_FIELD.get((x1, x2, x3, x4))
        return ZERO if field is None else getattr(self, field)

    def to_general(self) -> GeneralSignature4:
        entries = []
        for idx in range(16):
            entries.append(
                self.value((idx >> 3) & 1, (idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
            )
        return GeneralSignature4(entries)

    def rotate(self, quarter_turns: int = 1) -> "SixVertexSignature":
        """One quarter turn maps (a,b,c,x,y,z) to (y,a,z,b,x,c)."""
        f = self
        for _ in range(quarter_turns % 4):
            f = SixVertexSignature(f.y, f.a, f.z, f.b, f.x, f.c)
        return f

    def scale(self, factor: Scalar) -> "SixVertexSignature":
        """factor * f; zero entries stay the shared ZERO."""
        return SixVertexSignature(
            *(ZERO if v.is_zero() else factor * v for v in self.tuple())
        )

    def inner_outer_dets(self) -> tuple[Scalar, Scalar]:
        """(det M_In, det M_Out) = (by - cz, -ax)."""
        det_in = self.b * self.y - self.c * self.z
        det_out = -(self.a * self.x)
        return det_in, det_out

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.tuple())


_SIX_PATTERNS = (
    (0, 0, 1, 1),
    (0, 1, 1, 0),
    (0, 1, 0, 1),
    (1, 1, 0, 0),
    (1, 0, 0, 1),
    (1, 0, 1, 0),
)

# input pattern -> the SixVertexSignature field it reads; every other
# pattern has value zero
_PATTERN_FIELD = dict(zip(_SIX_PATTERNS, ("a", "b", "c", "x", "y", "z")))


# -- planar composition --------------------------------------------------------


def compose_n(f: SixVertexSignature, g: SixVertexSignature) -> SixVertexSignature:
    """Join two six-vertex signatures through the double Disequality N.

    The result has matrix M(f) N M(g), again a six-vertex signature: its
    variables are the two row variables of f followed by the two free
    column variables of g, which stays planar and counterclockwise.
    """
    return SixVertexSignature(
        f.a * g.a,
        f.c * g.b + f.b * g.z,
        f.c * g.c + f.b * g.y,
        f.x * g.x,
        f.y * g.c + f.z * g.y,
        f.y * g.b + f.z * g.z,
    )


def hadamard_image(f: GeneralSignature4 | SixVertexSignature) -> GeneralSignature4:
    """Unnormalized Hadamard transform: fhat(y) = sum_x (-1)^{<x,y>} f(x)."""
    g = f.to_general() if isinstance(f, SixVertexSignature) else f
    entries = []
    for yidx in range(16):
        acc = ZERO
        for xidx in range(16):
            term = g.entries[xidx]
            if term.is_zero():
                continue
            if bin(xidx & yidx).count("1") & 1:
                acc = acc - term
            else:
                acc = acc + term
        entries.append(acc)
    return GeneralSignature4(entries)


# -- literals ----------------------------------------------------------------


def parse_signature(text: str) -> SixVertexSignature:
    """The six-vertex literal a,b,c,x,y,z; ValueError otherwise."""
    vals = [parse_scalar(p) for p in text.split(",")]
    if len(vals) != 6:
        raise ValueError(f"signature literal needs six scalars a,b,c,x,y,z, got {len(vals)}")
    return SixVertexSignature(*vals)


def format_signature(sig: SixVertexSignature) -> str:
    return ",".join(format_scalar(v) for v in sig.tuple())
