"""The complexity trichotomy for six-vertex signatures.

A signature is polynomial-time on planar graphs exactly when one of the
four conditions holds:

  C1  f is product-type or affine,
  C2  each pair (a,x), (b,y), (c,z) contains a zero,
  C3  f is a matchgate signature (ax = cz - by) or a Hadamard-transformed
      one: (x, y, z) = eps (a, b, c) for some eps = +-1, and ab = 0,
  C4  c = z = 0 and either (ax)^2 = (by)^2, or x/a, b/a, y/a are the
      torsion points x = a*i^alpha, b = a*sqrt(i)^beta, y = a*sqrt(i)^gamma
      with beta = gamma (mod 2).

C1 or C2 give polynomial time on all graphs; otherwise the non-planar
problem is #P-hard, and without any condition the planar problem is
#P-hard as well.  The verdict reports every satisfied condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .membership import is_affine, is_matchgate, is_matchgate_hat, is_product
from .signature import SixVertexSignature


class PlanarClass(Enum):
    PTIME_ALL = "PTimeAll"
    PTIME_PLANAR_ONLY = "PTimePlanarOnly"
    SHARP_P_HARD_PLANAR = "SharpPHardPlanar"


class GeneralClass(Enum):
    PTIME = "PTime"
    SHARP_P_HARD = "SharpPHard"


class Condition(Enum):
    C1_P = "C1_P"
    C1_A = "C1_A"
    C2_ZERO_PAIRS = "C2_zero_pairs"
    C3_M = "C3_M"
    C3_MHAT = "C3_Mhat"
    C4I = "C4i"
    C4II = "C4ii"


@dataclass(frozen=True)
class Verdict:
    planar_class: PlanarClass
    general_class: GeneralClass
    witnesses: frozenset[Condition]


_GENERAL = frozenset({Condition.C1_P, Condition.C1_A, Condition.C2_ZERO_PAIRS})


def _verdict_of(witnesses: frozenset[Condition]) -> Verdict:
    """C1 or C2 give polynomial time on all graphs, any other condition on
    planar graphs only."""
    if witnesses & _GENERAL:
        return Verdict(PlanarClass.PTIME_ALL, GeneralClass.PTIME, witnesses)
    if witnesses:
        return Verdict(PlanarClass.PTIME_PLANAR_ONLY, GeneralClass.SHARP_P_HARD, witnesses)
    return Verdict(PlanarClass.SHARP_P_HARD_PLANAR, GeneralClass.SHARP_P_HARD, witnesses)


# one Verdict for every set of conditions, keyed by that set: the classes
# are functions of the witnesses, so signatures with equal witness sets
# share one Verdict (and one frozenset), and a kept verdict costs a slot
_VERDICTS = {
    w: _verdict_of(w)
    for w in (
        frozenset(c for bit, c in enumerate(Condition) if mask >> bit & 1)
        for mask in range(1 << len(Condition))
    )
}


def _zero_in_each_pair(f: SixVertexSignature) -> bool:
    return (
        (f.a.is_zero() or f.x.is_zero())
        and (f.b.is_zero() or f.y.is_zero())
        and (f.c.is_zero() or f.z.is_zero())
    )


def _condition4(f: SixVertexSignature) -> tuple[bool, bool]:
    if not (f.c.is_zero() and f.z.is_zero()):
        return False, False
    ax = f.a * f.x
    by = f.b * f.y
    c4i = ax * ax == by * by
    c4ii = False
    if not f.a.is_zero() and not f.b.is_zero() and not f.y.is_zero():
        rx = (f.x / f.a).is_root_of_unity()
        rb = (f.b / f.a).is_root_of_unity()
        ry = (f.y / f.a).is_root_of_unity()
        rby = (f.b / f.y).is_root_of_unity()
        c4ii = (
            rx is not None
            and rx in (1, 2, 4)
            and rb is not None
            and ry is not None
            and rby is not None
            and rby in (1, 2, 4)
        )
    return c4i, c4ii


def classify(f: SixVertexSignature) -> Verdict:
    """The verdict of the trichotomy on f: its planar class, its general
    class and the set of every condition f satisfies.

    Every condition is tested, not only up to the first that holds, since
    the router picks its evaluator from the witness set.  The verdict is
    kept on f (its `verdict` slot), so a later call on the same object
    returns it and runs no membership test; a call that raises, such as
    a WitnessError from a membership check, keeps nothing."""
    if f.verdict is not None:
        return f.verdict
    witnesses = set()
    if is_product(f) is not None:
        witnesses.add(Condition.C1_P)
    if is_affine(f) is not None:
        witnesses.add(Condition.C1_A)
    if _zero_in_each_pair(f):
        witnesses.add(Condition.C2_ZERO_PAIRS)
    if is_matchgate(f):
        witnesses.add(Condition.C3_M)
    if is_matchgate_hat(f) is not None:
        witnesses.add(Condition.C3_MHAT)
    c4i, c4ii = _condition4(f)
    if c4i:
        witnesses.add(Condition.C4I)
    if c4ii:
        witnesses.add(Condition.C4II)
    verdict = _VERDICTS[frozenset(witnesses)]
    object.__setattr__(f, "verdict", verdict)
    return verdict
