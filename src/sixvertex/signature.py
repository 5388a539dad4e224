"""Six-vertex signatures and the truth tables of #CSP constraints.

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

from dataclasses import dataclass, field

from .scalar import ZERO, Scalar, format_scalar, parse_scalar


@dataclass(frozen=True, slots=True)
class Table:
    """A Boolean constraint of arity 1, 2 or 4 as its truth table: the
    tuple `entries` holds its value at (x1..xn) at the index that reads
    x1..xn as a binary number, x1 the high bit."""

    entries: tuple[Scalar, ...]

    def __post_init__(self):
        if type(self.entries) is not tuple:
            raise TypeError("a Table's entries are a tuple")
        if len(self.entries) not in (2, 4, 16):
            raise ValueError("a Table needs 2, 4 or 16 entries")

    @property
    def arity(self) -> int:
        return len(self.entries).bit_length() - 1  # 2, 4, 16 entries: 1, 2, 4


@dataclass(frozen=True, slots=True)
class SixVertexSignature:
    """The six-vertex signature (a,b,c,x,y,z).

    A signature is never mutated after construction, so what depends on
    its six entries alone may be kept on it: the slot `verdict` holds the
    Verdict of classify once classify has computed it, and is None until
    then.  Nothing else sets it.  Equality, hashing, repr and
    format_signature ignore it; the constructor, rotate, scale,
    compose_n, dataclasses.replace, copy and pickle make objects with no
    verdict kept (rotate by a multiple of four turns returns f itself)."""

    a: Scalar
    b: Scalar
    c: Scalar
    x: Scalar
    y: Scalar
    z: Scalar
    verdict: object = field(default=None, init=False, repr=False, compare=False)

    def __reduce__(self):
        # copy and pickle rebuild the object from its six entries, so the
        # kept Verdict is not carried over as a copy of a shared one
        return SixVertexSignature, self.tuple()

    @classmethod
    def from_values(cls, a, b, c, x, y, z) -> "SixVertexSignature":
        conv = Scalar.from_rational
        return cls(conv(a), conv(b), conv(c), conv(x), conv(y), conv(z))

    def tuple(self) -> tuple[Scalar, ...]:
        return (self.a, self.b, self.c, self.x, self.y, self.z)

    def value(self, x1: int, x2: int, x3: int, x4: int) -> Scalar:
        field = _PATTERN_FIELD.get((x1, x2, x3, x4))
        return ZERO if field is None else getattr(self, field)

    def to_table(self) -> Table:
        return Table(tuple([ZERO if n is None else getattr(self, n) for n in _FIELD_AT]))

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
# entry index -> the field the entry reads, or None where it is zero
_FIELD_AT = tuple(
    _PATTERN_FIELD.get((i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1)) for i in range(16)
)


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


def hadamard_image(f: Table | SixVertexSignature) -> Table:
    """Unnormalized Hadamard transform: fhat(y) = sum_x (-1)^{<x,y>} f(x)."""
    g = f.to_table() if isinstance(f, SixVertexSignature) else f
    size = len(g.entries)
    entries = []
    for yidx in range(size):
        acc = ZERO
        for xidx in range(size):
            term = g.entries[xidx]
            if term.is_zero():
                continue
            if bin(xidx & yidx).count("1") & 1:
                acc = acc - term
            else:
                acc = acc + term
        entries.append(acc)
    return Table(tuple(entries))


# -- literals ----------------------------------------------------------------


def parse_signature(text: str) -> SixVertexSignature:
    """The six-vertex literal a,b,c,x,y,z; ValueError otherwise."""
    vals = [parse_scalar(p) for p in text.split(",")]
    if len(vals) != 6:
        raise ValueError(f"signature literal needs six scalars a,b,c,x,y,z, got {len(vals)}")
    return SixVertexSignature(*vals)


def format_signature(sig: SixVertexSignature) -> str:
    return ",".join(format_scalar(v) for v in sig.tuple())
