import dataclasses
import itertools
import random

import pytest

from sixvertex.scalar import I, ONE, W, ZERO, format_scalar, rational
from sixvertex.signature import (
    SixVertexSignature,
    Table,
    compose_n,
    format_signature,
    hadamard_image,
    parse_signature,
)


def sv(*vals):
    return SixVertexSignature.from_values(*vals)


def rand_six(rng, span=3):
    return sv(*(rng.randint(-span, span) for _ in range(6)))


SYMS = ["a", "b", "c", "x", "y", "z"]


class TestRotation:
    def test_quarter_turn(self):
        f = sv(1, 2, 3, 4, 5, 6)  # (a,b,c,x,y,z)
        r = f.rotate(1)
        assert r.tuple() == sv(5, 1, 6, 2, 4, 3).tuple()  # (y,a,z,b,x,c)

    def test_zero_turns(self):
        f = sv(1, 2, 3, 4, 5, 6)
        assert f.rotate(0) == f

    def test_half_turn(self):
        f = sv(1, 2, 3, 4, 5, 6)
        assert f.rotate(2) == sv(4, 5, 3, 1, 2, 6)  # (x,y,c,a,b,z)

    def test_four_turns_identity(self):
        rng = random.Random(2)
        for _ in range(20):
            f = rand_six(rng)
            assert f.rotate(4) == f

    def test_inner_pair_preserved(self):
        rng = random.Random(3)
        for _ in range(20):
            f = rand_six(rng)
            for k in range(4):
                r = f.rotate(k)
                assert {r.c, r.z} == {f.c, f.z} or (
                    r.c in (f.c, f.z) and r.z in (f.c, f.z)
                )

class TestComposeN:
    def test_inner_diagonal_chain(self):
        # (a,x)=(1,1), (b,y)=(b,b), (c,z)=(0,0): chain of 3 has inner diag b^3
        b = rational(5)
        f = SixVertexSignature(ONE, b, ZERO, ONE, b, ZERO)
        g = compose_n(compose_n(f, f), f)
        assert g.tuple() == (ONE, b ** 3, ZERO, ONE, b ** 3, ZERO)

    def test_chain_of_one(self):
        # a chain of one link is f itself: M(1,0,1,1,0,1) is the reversal N,
        # and N * N is the identity
        f = rand_six(random.Random(6))
        unit = sv(1, 0, 1, 1, 0, 1)
        assert compose_n(f, unit) == compose_n(unit, f) == f

    def test_chi1_composition_unit_entries(self):
        chi1 = sv(1, 1, 0, 1, 1, 0)
        # inner and outer swap roles; entries stay units
        assert compose_n(chi1, chi1) == sv(1, 0, 1, 1, 0, 1)

    def test_zero_absorbs(self):
        f = rand_six(random.Random(7))
        zero = sv(0, 0, 0, 0, 0, 0)
        assert compose_n(f, zero).is_zero() and compose_n(zero, f).is_zero()

    def test_chain_splits(self):
        # a chain of 5 splits as 2 + 3 or as 3 + 2
        rng = random.Random(8)
        f = rand_six(rng)
        two = compose_n(f, f)
        three = compose_n(two, f)
        assert compose_n(two, three) == compose_n(three, two)
        assert compose_n(two, three) == compose_n(compose_n(three, f), f)

    def test_matches_composition_written_out(self):
        # (f N g)(x1,x2,x3,x4) = sum over the joined pair (u,v) of
        # f(x1,x2,u,v) g(1-v,1-u,x3,x4): the columns of M(f) read x4x3 and
        # N joins f's x4 to g's x1 and f's x3 to g's x2 through Disequality
        rng = random.Random(14)
        pool = [ZERO, ZERO, ONE, -ONE, rational(2), rational(-1, 3)]
        pool += [W, I + ONE, W * W * W, rational(1, 2) - W]
        for _ in range(200):
            f = SixVertexSignature(*(rng.choice(pool) for _ in range(6)))
            g = SixVertexSignature(*(rng.choice(pool) for _ in range(6)))
            composed = compose_n(f, g)
            for x1, x2, x3, x4 in itertools.product((0, 1), repeat=4):
                expected = ZERO
                for u, v in itertools.product((0, 1), repeat=2):
                    expected = expected + f.value(x1, x2, u, v) * g.value(1 - v, 1 - u, x3, x4)
                assert composed.value(x1, x2, x3, x4) == expected


class TestHadamard:
    def test_diseq_lift(self):
        # arity-2 style check embedded at arity 4 is awkward; check the
        # stated 2-variable identity directly by a 4-term expansion
        vals = [ZERO, ONE, ONE, ZERO]
        image = []
        for y in range(4):
            acc = ZERO
            for x in range(4):
                sign = -ONE if bin(x & y).count("1") & 1 else ONE
                acc = acc + sign * vals[x]
            image.append(acc)
        assert image == [rational(2), ZERO, ZERO, rational(-2)]

    def test_zero(self):
        zero = sv(0, 0, 0, 0, 0, 0)
        assert all(e.is_zero() for e in hadamard_image(zero).entries)

    def test_symmetric_family_even_image(self):
        # a=x, b=y, c=z: all odd-weight entries of the image vanish
        rng = random.Random(11)
        for _ in range(10):
            a, b, c = (rational(rng.randint(-3, 3)) for _ in range(3))
            f = SixVertexSignature(a, b, c, a, b, c)
            img = hadamard_image(f)
            for idx in range(16):
                if bin(idx).count("1") & 1:
                    assert img.entries[idx].is_zero()

    def test_involution(self):
        rng = random.Random(12)
        for _ in range(10):
            f = rand_six(rng).to_table()
            twice = hadamard_image(hadamard_image(f))
            assert twice.entries == tuple(rational(16) * e for e in f.entries)


class TestDets:
    def test_ice(self):
        f = sv(1, 1, 1, 1, 1, 1)
        assert f.inner_outer_dets() == (ZERO, -ONE)

    def test_example(self):
        f = sv(1, 1, 2, 1, 1, 1)
        assert f.inner_outer_dets() == (-ONE, -ONE)

    def test_zero(self):
        f = sv(0, 0, 0, 0, 0, 0)
        assert f.inner_outer_dets() == (ZERO, ZERO)


class TestLiterals:
    def test_round_trip(self):
        f = sv(1, 2, 3, 4, 5, 6)
        assert parse_signature(format_signature(f)) == f

    def test_parse_constants(self):
        # the literal of the binary disequality is not a six-vertex label
        with pytest.raises(ValueError):
            parse_signature("0,1,1,0")

    def test_sixteen(self):
        # the 16 entries of a six-vertex label, written out, are refused
        f = rand_six(random.Random(13)).to_table()
        with pytest.raises(ValueError):
            parse_signature(",".join(format_scalar(v) for v in f.entries))

    def test_chi2(self):
        chi2 = parse_signature("1,1,0,-1,1,0")
        assert chi2.x == -ONE and chi2.a == ONE

    def test_bad_arity(self):
        # only six-vertex literals: unary, binary and 7-entry ones are refused
        for text in ("1,2,3", "0,1", "1,2,3,4,5,6,7"):
            with pytest.raises(ValueError):
                parse_signature(text)


class TestSlots:
    def test_frozen_without_instance_dict(self):
        f = sv(1, 2, 3, 4, 5, 6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.a = ONE
        assert not hasattr(f, "__dict__")

    def test_hash_and_equality(self):
        f, g = sv(1, 2, 3, 4, 5, 6), sv(1, 2, 3, 4, 5, 6)
        assert f == g and f is not g
        assert hash(f) == hash(g) == hash(f.tuple())
        assert f != sv(1, 2, 3, 4, 5, 7)
        assert len({f, g, f.rotate(4)}) == 1

    def test_scale_keeps_zero_shared(self):
        f = sv(1, 0, 2, 0, 3, 0).scale(W)
        assert f == SixVertexSignature(W, ZERO, rational(2) * W, ZERO, rational(3) * W, ZERO)
        assert f.b is ZERO and f.x is ZERO and f.z is ZERO


class TestTable:
    def test_arity_from_entry_count(self):
        for n in (1, 2, 4):
            table = Table((ONE,) * 2**n)
            assert table.arity == n

    @pytest.mark.parametrize("count", [0, 1, 3, 8, 15, 17, 32])
    def test_other_lengths_refused(self, count):
        with pytest.raises(ValueError):
            Table((ONE,) * count)

    def test_entries_are_a_tuple(self):
        with pytest.raises(TypeError):
            Table([ONE, ZERO])

    def test_frozen_hashable_and_equal_by_entries(self):
        t, u = Table((ONE, I, I, ONE)), Table((ONE, I, I, ONE))
        assert t == u and t is not u and hash(t) == hash(u)
        assert t != Table((ONE, I, I, -ONE))
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.entries = (ONE, ONE)
        assert not hasattr(t, "__dict__")

    def test_six_vertex_table_reads_each_pattern(self):
        f = sv(1, 2, 3, 4, 5, 6)
        entries = f.to_table().entries
        for idx in range(16):
            bits = tuple(idx >> (3 - t) & 1 for t in range(4))
            assert entries[idx] == f.value(*bits)
        assert [idx for idx in range(16) if entries[idx]] == [3, 5, 6, 9, 10, 12]
