import copy
import dataclasses
import pickle
import random
from collections import Counter

import pytest

import sixvertex.classify as classify_module
from sixvertex import membership
from sixvertex.scalar import I, MU8, ONE, W, ZERO, rational
from sixvertex.classify import (
    Condition,
    GeneralClass,
    PlanarClass,
    classify,
)
from sixvertex.membership import WitnessError, is_matchgate, is_product
from sixvertex.signature import SixVertexSignature, compose_n, format_signature


def sv(*vals):
    return SixVertexSignature.from_values(*vals)


def rand_six(rng, span=2):
    return sv(*(rng.randint(-span, span) for _ in range(6)))


class TestFixtures:
    def test_ice_point(self):
        v = classify(sv(1, 1, 1, 1, 1, 1))
        assert v.planar_class is PlanarClass.SHARP_P_HARD_PLANAR
        assert not v.witnesses

    def test_tutte_weights(self):
        v = classify(sv(1, 1, 2, 1, 1, 2))
        assert v.planar_class is PlanarClass.SHARP_P_HARD_PLANAR

    def test_c4ii_point(self):
        f = SixVertexSignature.from_values(1, 0, 0, 1, 0, 0)
        f = sv(1, 1, 0, 1, 1, 0)
        f = SixVertexSignature(
            rational(1), W, rational(0), rational(1), W, rational(0)
        )
        v = classify(f)
        assert v.planar_class is PlanarClass.PTIME_PLANAR_ONLY
        assert Condition.C4II in v.witnesses
        assert v.general_class is GeneralClass.SHARP_P_HARD

    def test_all_zero_is_ptime_all(self):
        v = classify(sv(0, 0, 0, 0, 0, 0))
        assert v.planar_class is PlanarClass.PTIME_ALL

    def test_matchgate_point(self):
        v = classify(sv(1, 1, 2, 1, 1, 1))
        assert Condition.C3_M in v.witnesses
        assert v.planar_class is PlanarClass.PTIME_PLANAR_ONLY

    def test_mhat_point(self):
        v = classify(sv(0, 1, 2, 0, 1, 2))
        assert Condition.C3_MHAT in v.witnesses


class TestInvariance:
    def test_rotation_invariance(self):
        rng = random.Random(32)
        for _ in range(100):
            f = rand_six(rng)
            base = classify(f)
            for k in range(1, 4):
                v = classify(f.rotate(k))
                assert v.planar_class == base.planar_class
                assert v.general_class == base.general_class

    def test_scaling_invariance(self):
        rng = random.Random(33)
        for _ in range(60):
            f = rand_six(rng)
            lam = MU8[rng.randrange(8)] * rational(rng.randint(1, 3))
            v = classify(f.scale(lam))
            base = classify(f)
            assert v.planar_class == base.planar_class
            assert v.witnesses == base.witnesses

    def test_c4i_nonzero_subsumption(self):
        # with all four outer entries nonzero and C4i, either by = ax
        # (product-type) or by = -ax (matchgate)
        rng = random.Random(34)
        found = 0
        for _ in range(200):
            a, b, x = (rational(rng.choice([1, 2, -1, -2, 3])) for _ in range(3))
            sign = rng.choice([1, -1])
            y = rational(sign) * a * x / b
            f = SixVertexSignature(a, b, rational(0), x, y, rational(0))
            v = classify(f)
            assert Condition.C4I in v.witnesses
            if sign == 1:
                assert is_product(f) is not None
            else:
                assert is_matchgate(f)
            found += 1
        assert found == 200


# the nonzero values of the palette {0, 1, 2, 3, -1, i, zeta8}
NONZERO_PALETTE = (ONE, rational(2), rational(3), -ONE, I, W)

SYMMETRIES = {
    "arrow reversal": lambda f: SixVertexSignature(f.x, f.y, f.z, f.a, f.b, f.c),
    "mirror image": lambda f: SixVertexSignature(f.x, f.b, f.z, f.a, f.y, f.c),
    "sigma3": lambda f: SixVertexSignature(*(v.galois(3) for v in f.tuple())),
    "sigma5": lambda f: SixVertexSignature(*(v.galois(5) for v in f.tuple())),
}


def palette_draws(seed, count):
    """Signatures whose entries are each zero with probability 1/2, else a
    uniform nonzero value of the palette."""
    rng = random.Random(seed)
    return [
        SixVertexSignature(
            *(ZERO if rng.random() < 0.5 else rng.choice(NONZERO_PALETTE) for _ in range(6))
        )
        for _ in range(count)
    ]


# how often each condition holds at least among the 300 draws of seed 7
# (they reach 119 C3_M, 118 C2, 115 C1_P, 63 C1_A, 42 C4i, 7 C3_Mhat and
# 1 C4ii)
MIN_REACHED = {
    Condition.C1_P: 50,
    Condition.C1_A: 30,
    Condition.C2_ZERO_PAIRS: 50,
    Condition.C3_M: 50,
    Condition.C3_MHAT: 5,
    Condition.C4I: 20,
    Condition.C4II: 1,
}


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_witness_sets_invariant_under_symmetries(name):
    """Reversing every arrow, mirroring the vertex and the Galois maps
    sigma3 and sigma5 keep every condition of the trichotomy, so each
    keeps the witness set; the draws reach every condition."""
    symmetry = SYMMETRIES[name]
    reached = Counter()
    for f in palette_draws(7, 300):
        witnesses = classify(f).witnesses
        assert classify(symmetry(f)).witnesses == witnesses, (name, f)
        reached.update(witnesses)
    assert all(reached[c] >= MIN_REACHED[c] for c in Condition), reached


class TestWitnessSets:
    def test_equal_witness_sets_are_shared(self):
        rng = random.Random(35)
        by_set = {}
        for _ in range(80):
            v = classify(rand_six(rng))
            assert by_set.setdefault(v.witnesses, v) is v
        f = sv(1, 1, 1, 2, 1, 3)
        assert classify(f) is classify(f.scale(rational(2)))
        assert classify(f).witnesses == frozenset({Condition.C3_M})


MEMBERSHIP_TESTS = ("is_product", "is_affine", "is_matchgate", "is_matchgate_hat")


class TestKeptVerdict:
    """classify keeps its verdict on the signature object.  Every test
    that patches membership builds its own signatures, so a verdict kept
    by another test cannot hide a call."""

    def count_membership(self, monkeypatch):
        calls = Counter()

        def counted(name, real):
            def wrapper(f):
                calls[name] += 1
                return real(f)

            return wrapper

        for name in MEMBERSHIP_TESTS:
            real = getattr(classify_module, name)
            monkeypatch.setattr(classify_module, name, counted(name, real))
        return calls

    def test_second_call_runs_no_membership_test(self, monkeypatch):
        calls = self.count_membership(monkeypatch)
        for f in palette_draws(41, 40):
            first = classify(f)
            assert f.verdict is first
            seen = sum(calls.values())
            assert classify(f) is first
            assert sum(calls.values()) == seen
        assert all(calls[name] == 40 for name in MEMBERSHIP_TESTS), calls

    def test_derived_signatures_keep_no_verdict(self):
        f = sv(1, 2, 0, 2, 1, 0)
        g = sv(1, 1, 2, 1, 1, 1)
        classify(f), classify(g)
        derived = [
            *(f.rotate(k) for k in (1, 2, 3)),
            f.scale(ONE),
            compose_n(f, g),
            dataclasses.replace(f),
            dataclasses.replace(f, a=rational(3)),
            SixVertexSignature(*f.tuple()),
        ]
        assert all(h.verdict is None for h in derived)
        with pytest.raises(ValueError):
            dataclasses.replace(f, verdict=classify(g))

    def test_kept_verdict_ignored_by_equality_hash_and_text(self):
        for f in palette_draws(42, 30):
            fresh = SixVertexSignature(*f.tuple())
            classify(f)
            assert f.verdict is not None and fresh.verdict is None
            assert f == fresh and hash(f) == hash(fresh)
            assert repr(f) == repr(fresh) and "verdict" not in repr(f)
            assert format_signature(f) == format_signature(fresh)

    def test_a_raising_classify_keeps_nothing(self, monkeypatch):
        f = sv(0, 0, 1, 0, 0, 2)  # product-type, so its witness is checked
        with monkeypatch.context() as patch:
            patch.setattr(membership, "_product_matches", lambda *args: False)
            with pytest.raises(WitnessError):
                classify(f)
            assert f.verdict is None
            with pytest.raises(WitnessError):
                classify(f)
            assert f.verdict is None
        assert classify(f).witnesses == {Condition.C1_P}
        assert f.verdict is classify(f)

    def test_kept_verdict_equals_a_fresh_one(self):
        for f in palette_draws(43, 300):
            kept = classify(f)
            assert classify(f) is kept
            assert classify(SixVertexSignature(*f.tuple())) == kept, f

    def test_copy_and_pickle_give_a_correct_signature(self):
        for f in palette_draws(45, 40):
            verdict = classify(f)
            for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
                assert g == f and hash(g) == hash(f) and g.verdict is None
                assert classify(g) is verdict


# the classes compose_n keeps; C2, C4i and C4ii are not closed under it,
# and M-hat closure is tested on every {0, +-1, +-i} pair in
# tests/test_membership.py
CLOSED_UNDER_COMPOSITION = (Condition.C1_P, Condition.C1_A, Condition.C3_M)


def test_composition_keeps_shared_classes():
    """compose_n(g1, g2) stays in every class among P, A and M that holds
    for both g1 and g2.  The 600 draws of seed 46 hold 229 P, 112 A and
    273 M signatures; 300 pairs are drawn within each class, and of these
    184, 140 and 201 compose to a nonzero signature.  With g2 drawn
    outside the class instead, 31, 67 and 8 of 300 compositions leave it,
    so the draws can tell a class that is kept from one that is not."""
    draws = palette_draws(46, 600)
    rng = random.Random(46)
    for c in CLOSED_UNDER_COMPOSITION:
        inside = [f for f in draws if c in classify(f).witnesses]
        outside = [f for f in draws if c not in classify(f).witnesses]
        assert len(inside) >= 100, (c, len(inside))
        nonzero = 0
        for _ in range(300):
            g1, g2 = rng.choice(inside), rng.choice(inside)
            h = compose_n(g1, g2)
            shared = classify(g1).witnesses & classify(g2).witnesses
            assert shared & set(CLOSED_UNDER_COMPOSITION) <= classify(h).witnesses, (g1, g2)
            nonzero += not h.is_zero()
        assert nonzero >= 100, (c, nonzero)
        left = sum(
            c not in classify(compose_n(rng.choice(inside), rng.choice(outside))).witnesses
            for _ in range(300)
        )
        assert left >= 5, (c, left)
