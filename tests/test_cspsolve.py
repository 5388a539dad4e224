import random

import pytest

from sixvertex import cspsolve
from sixvertex.cspsolve import (
    NotAffine,
    NotProduct,
    affine_eval,
    product_eval,
)
from sixvertex.membership import is_affine, is_product
from sixvertex.oracle import OracleCapExceeded
from sixvertex.scalar import I, MU8, ONE, ZERO, Scalar, rational
from sixvertex.signature import Table
from test_membership import affine_value

CSP_CAP = 20  # variables


def csp_brute(n_vars, constraints):
    """Sum over {0,1}^n of constraint products, the ground truth the
    solvers are checked against.

    Constraints are (Table, variable tuple), each read at the index its
    variables' values spell; variables may repeat.
    """
    if n_vars > CSP_CAP:
        raise OracleCapExceeded(f"{n_vars} variables exceeds the #CSP cap {CSP_CAP}")
    for sig, _ in constraints:
        if not isinstance(sig, Table):
            raise TypeError(f"unsupported constraint {sig!r}")
    total = ZERO
    for mask in range(2 ** n_vars):
        assign = [(mask >> (n_vars - 1 - t)) & 1 for t in range(n_vars)]
        term = ONE
        for sig, var_tuple in constraints:
            idx = 0
            for v in var_tuple:
                idx = idx << 1 | assign[v]
            val = sig.entries[idx]
            if val.is_zero():
                term = ZERO
                break
            term = term * val
        total = total + term
    return total


def unary(a, b):
    return Table((Scalar.from_rational(a), Scalar.from_rational(b)))


def binary(a, b, c, d):
    return Table(tuple(Scalar.from_rational(v) for v in (a, b, c, d)))


EQ = binary(1, 0, 0, 1)
NEQ = binary(0, 1, 1, 0)


def random_affine_constraint(rng, n_vars):
    """A random affine unary or binary constraint on distinct random
    variables; with one variable, always a unary one."""
    kind = rng.random()
    lam = MU8[rng.randrange(8)] * rational(rng.randint(1, 2))
    if kind < 0.4 or n_vars < 2:
        v = rng.randrange(n_vars)
        style = rng.randrange(3)
        if style == 0:
            sig = Table((lam, lam * I ** rng.randrange(4)))
        elif style == 1:
            sig = Table((lam, ZERO))
        else:
            sig = Table((ZERO, lam))
        return (sig, (v,))
    u, v = rng.sample(range(n_vars), 2)
    style = rng.randrange(4)
    if style == 0:
        # full support: lambda i^Q with even cross
        a = rng.randrange(4)
        b = rng.randrange(4)
        cross = 2 * rng.randrange(2)
        sig = Table((
            lam,
            lam * I ** b,
            lam * I ** a,
            lam * I ** ((a + b + cross) % 4),
        ))
    elif style == 1:
        sig = Table((lam, ZERO, ZERO, lam * I ** rng.randrange(4)))
    elif style == 2:
        sig = Table((ZERO, lam, lam * I ** rng.randrange(4), ZERO))
    else:
        sig = Table((lam, ZERO, ZERO, ZERO))
    return (sig, (u, v))


def random_product_constraint(rng, n_vars):
    lam = rational(rng.randint(-2, 2))
    kind = rng.random()
    if kind < 0.35 or n_vars < 2:
        v = rng.randrange(n_vars)
        return (unary(rng.randint(-2, 2), rng.randint(-2, 2)), (v,))
    u, v = rng.sample(range(n_vars), 2)
    style = rng.randrange(3)
    if style == 0:
        # weighted equality
        sig = Table((rational(rng.randint(-2, 2)), ZERO, ZERO, rational(rng.randint(-2, 2))))
    elif style == 1:
        sig = Table((ZERO, rational(rng.randint(-2, 2)), rational(rng.randint(-2, 2)), ZERO))
    else:
        # degenerate rank-1
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        sig = Table((
            rational(a * c), rational(a * d), rational(b * c), rational(b * d)
        ))
    return (sig, (u, v))


def nonzero_affine_instance(seed, n_vars, n_cross, n_rows, weighted=False):
    """A seeded affine instance whose sum is mostly nonzero: i^{x_v} on
    every variable, n_cross cross terms (-1)^{x_u x_v} on random pairs and
    n_rows < n_vars weighted equalities or disequalities, row t joining
    variable t + 1 to a random lower one, so the rows form a forest and
    never contradict each other.  With `weighted`, every variable also
    gets a unary lam [1, i^k], lam a random eighth root of unity or 2 and
    k in {0, 2, 3}.

    Random affine constraints alone (random_affine_constraint) almost
    always sum to 0 past a few dozen variables, since pins, zero-support
    tables and even linear terms kill the sum; these do not.  Without cross
    terms every constraint is product-type as well, and each tree of rows
    sums to 1 + w for one phase w, which is 0 only when w = -1."""
    rng = random.Random(seed)
    constraints = [(Table((ONE, I)), (v,)) for v in range(n_vars)]
    if weighted:
        for v in range(n_vars):
            lam = rng.choice((*MU8, rational(2)))
            ramp = I ** rng.choice((0, 2, 3))
            constraints.append((Table((lam, lam * ramp)), (v,)))
    for _ in range(n_cross):
        constraints.append((binary(1, 1, 1, -1), tuple(rng.sample(range(n_vars), 2))))
    for t in range(n_rows):
        lam, ramp = MU8[rng.randrange(8)], I ** rng.randrange(4)
        sig = rng.choice([
            Table((lam, ZERO, ZERO, lam * ramp)),
            Table((ZERO, lam, lam * ramp, ZERO)),
        ])
        constraints.append((sig, (rng.randrange(t + 1), t + 1)))
    return constraints


class TestAffineBasics:
    def test_two_free_variables(self):
        assert affine_eval([], 2) == rational(4)

    def test_single_linear_term(self):
        # Q = x1: 1 + i
        sig = Table((ONE, I))
        assert affine_eval([(sig, (0,))], 1) == ONE + I

    def test_cross_term(self):
        # Q = 2 x1 x2: 1 + 1 + 1 + i^2 = 2
        sig = Table((ONE, ONE, ONE, -ONE))
        assert affine_eval([(sig, (0, 1))], 2) == rational(2)

    def test_inconsistent_system_gives_zero(self):
        pin0 = Table((ONE, ZERO))
        pin1 = Table((ZERO, ONE))
        assert affine_eval([(pin0, (0,)), (pin1, (0,))], 1) == ZERO

    def test_variable_freed_by_substitution_is_summed(self):
        # x0 = x1 replaces x0's cross terms with x2, x3 by x1's, which
        # cancel x1's own: x1 is left with no partners and must still be
        # summed (Q vanishes mod 4, so all 8 assignments count 1)
        constraints = [(EQ, (0, 1))] + [
            (binary(1, 1, 1, -1), pair) for pair in ((1, 2), (1, 3), (0, 2), (0, 3))
        ]
        assert affine_eval(constraints, 4) == rational(8) == csp_brute(4, constraints)

    def test_rejects_non_affine(self):
        bad = binary(1, 1, 1, 2)
        with pytest.raises(NotAffine):
            affine_eval([(bad, (0, 1))], 2)


class TestAffineAgainstBrute:
    def test_random_instances(self):
        rng = random.Random(50)
        for _ in range(120):
            n = rng.randint(1, 7)
            constraints = [
                random_affine_constraint(rng, n)
                for _ in range(rng.randint(0, 2 * n))
            ]
            fast = affine_eval(constraints, n)
            slow = csp_brute(n, constraints)
            assert fast == slow

    def test_variable_order_invariance(self):
        rng = random.Random(51)
        for _ in range(20):
            n = rng.randint(2, 6)
            constraints = [
                random_affine_constraint(rng, n) for _ in range(rng.randint(1, 8))
            ]
            base = affine_eval(constraints, n)
            for _ in range(5):
                perm = list(range(n))
                rng.shuffle(perm)
                permuted = [
                    (sig, tuple(perm[v] for v in vars_)) for sig, vars_ in constraints
                ]
                assert affine_eval(permuted, n) == base


class TestAffinePastTheCap:
    """Closed forms far beyond csp_brute's cap of 20 variables."""

    def test_star_with_odd_centre(self):
        # x0 carries i^{x0}; each leaf j carries i^{2 x0 xj} and i^{xj}.
        # Summing the leaves gives (1 + i)^200 at x0 = 0 and i (1 - i)^200
        # at x0 = 1, and (1 +- i)^200 = (+-2i)^100 = 2^100.
        leaves = 200
        ramp = Table((ONE, I))
        cross = Table((ONE, ONE, ONE, -ONE))
        constraints = [(ramp, (0,))]
        for j in range(1, leaves + 1):
            constraints += [(cross, (0, j)), (ramp, (j,))]
        assert affine_eval(constraints, leaves + 1) == rational(2**100) * (ONE + I)

    def test_long_chain_against_transfer_matrix(self):
        # sum over x of prod (-1)^{x_v x_{v+1}} is 1^T M^{n-1} 1 with
        # M = [[1, 1], [1, -1]]
        n = 10_000
        g = Table((ONE, ONE, ONE, -ONE))
        row = [1, 1]
        for _ in range(n - 1):
            row = [row[0] + row[1], row[0] - row[1]]
        expected = row[0] + row[1]
        assert expected == 2**5000
        constraints = [(g, (v, v + 1)) for v in range(n - 1)]
        assert affine_eval(constraints, n) == rational(expected)

    def test_variable_order_invariance_at_300(self):
        n = 300
        values = []
        for seed in (53, 54, 55):
            for n_cross, n_rows in ((300, 30), (600, 0)):
                rng = random.Random(seed)
                constraints = nonzero_affine_instance(seed, n, n_cross, n_rows)
                base = affine_eval(constraints, n)
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    permuted = [(sig, tuple(perm[v] for v in vs)) for sig, vs in constraints]
                    rng.shuffle(permuted)
                    assert affine_eval(permuted, n) == base
                values.append(base)
        assert sum(not v.is_zero() for v in values) >= 3

    def test_affine_against_product_past_300(self):
        """Without cross terms every constraint is product-type as well,
        so the Gauss sum and the product propagation must agree."""
        values = []
        for seed, n, n_trees in ((60, 300, 1), (61, 300, 2), (62, 400, 1), (63, 500, 3)):
            for weighted in (False, True):
                constraints = nonzero_affine_instance(seed, n, 0, n - n_trees, weighted=weighted)
                value = affine_eval(constraints, n)
                assert product_eval(constraints, n) == value, (seed, weighted)
                values.append(value)
        assert sum(not v.is_zero() for v in values) >= 6


class TestProductBasics:
    def test_equality_chain(self):
        # x0 = x1, unary [1,2] on x0: 1 + 2 = 3
        constraints = [(EQ, (0, 1)), (unary(1, 2), (0,))]
        assert product_eval(constraints, 2) == rational(3)


    def test_chain_with_diseq(self):
        constraints = [
            (EQ, (0, 1)),
            (NEQ, (1, 2)),
            (unary(1, 1), (0,)),
            (unary(1, 1), (1,)),
            (unary(1, 1), (2,)),
        ]
        assert product_eval(constraints, 3) == rational(2)

    def test_rejects_non_product(self):
        bad = binary(1, 1, 1, 2)
        with pytest.raises(NotProduct):
            product_eval([(bad, (0, 1))], 2)


class TestProductAgainstBrute:
    def test_random_instances(self):
        rng = random.Random(52)
        for _ in range(120):
            n = rng.randint(1, 7)
            constraints = [
                random_product_constraint(rng, n)
                for _ in range(rng.randint(0, 2 * n))
            ]
            fast = product_eval(constraints, n)
            slow = csp_brute(n, constraints)
            assert fast == slow


class TestNormalForm:
    def test_binary_with_cross(self):
        g = Table((ONE, I, I, ONE))
        w = is_affine(g)
        # d + a - b - c = -2, so one cross bit; reconstruct entrywise
        for x1 in range(2):
            for x2 in range(2):
                assert affine_value(w, (x1, x2)) == g.entries[2 * x1 + x2]

    def test_diseq(self):
        w = is_affine(NEQ)
        assert any(row[-1] == 1 for row in w.rows)  # x1 xor x2 = 1
        assert all(bit == 0 for (_, _, bit) in w.quad_cross)

    def test_unary_power(self):
        w = is_affine(Table((ONE, I ** 3)))
        assert w.quad_lin[0] == 3


class TestProductLongChain:
    # (v + 1, v) hangs the old root under each new variable, so the
    # union-find tree becomes one path as long as the chain
    @pytest.mark.parametrize(
        "link", [lambda v: (v, v + 1), lambda v: (v + 1, v)], ids=["forward", "backward"]
    )
    def test_equality_chain_beyond_recursion_limit(self, link):
        n = 3000
        constraints = [(EQ, link(v)) for v in range(n - 1)]
        assert product_eval(constraints, n) == rational(2)

    def test_disequality_chain_parity(self):
        # alternating x_v != x_{v+1}; a weight on both ends sees the parity
        n = 2001
        constraints = [(NEQ, (v + 1, v)) for v in range(n - 1)]
        constraints += [(unary(1, 3), (0,)), (unary(1, 5), (n - 1,))]
        # n - 1 is even, so x_{n-1} = x_0: 1*1 + 3*5
        assert product_eval(constraints, n) == rational(16)


class TestOneMembershipRunPerTable:
    """Given tables, each solver tests each distinct table once per call."""

    def counted(self, monkeypatch, name):
        seen = []
        real = getattr(cspsolve, name)

        def counting(table):
            seen.append(table)
            return real(table)

        monkeypatch.setattr(cspsolve, name, counting)
        return seen

    def test_affine_chain_of_one_table(self, monkeypatch):
        n = 1000
        g = Table((ONE, ONE, ONE, -ONE))
        constraints = [(g, (v, v + 1)) for v in range(n - 1)]
        seen = self.counted(monkeypatch, "is_affine")
        assert affine_eval(constraints, n) == rational(2**500)
        assert seen == [g]
        # a second call tests again: nothing is kept between calls
        affine_eval(constraints, n)
        assert len(seen) == 2

    def test_product_chain_of_two_tables(self, monkeypatch):
        n = 1000
        constraints = [(EQ if v % 2 else NEQ, (v, v + 1)) for v in range(n - 1)]
        constraints.append((unary(2, 3), (0,)))
        seen = self.counted(monkeypatch, "is_product")
        assert product_eval(constraints, n) == rational(5)
        assert sorted(map(repr, seen)) == sorted(map(repr, [EQ, NEQ, unary(2, 3)]))

    def test_each_table_object_hashed_once(self, monkeypatch):
        """A table is hashed by value only when its object is first seen,
        so the hashes do not grow with the chain; equal tables from
        different objects still share one membership run."""
        hashed = []

        class Counted(Table):
            def __hash__(self):
                hashed.append(self)
                return super().__hash__()

        g, h = Counted((ONE, ONE, ONE, -ONE)), Counted((ONE, ONE, ONE, -ONE))
        seen = self.counted(monkeypatch, "is_affine")
        counts = []
        for n in (10, 1000):
            hashed.clear()
            constraints = [(g if v % 2 else h, (v, v + 1)) for v in range(n - 1)]
            assert affine_eval(constraints, n) == rational(2 ** (n // 2))
            assert {id(t) for t in hashed} == {id(g), id(h)}
            counts.append(len(hashed))
        assert counts[0] == counts[1] <= 3
        assert seen == [h, h]  # once per call

    def test_each_new_table_object_hashed_exactly_once(self):
        """once_per_table hashes a table object once, when it is first seen
        (a miss and a hit on an equal value alike), and never again."""
        hashed = []

        class Counted(Table):
            def __hash__(self):
                hashed.append(id(self))
                return super().__hash__()

        runs = []

        def membership(table):
            runs.append(table)
            return is_affine(table)

        g, h, k = Counted((ONE, ONE, ONE, -ONE)), Counted((ONE, ONE, ONE, -ONE)), Counted((ONE, I, I, ONE))
        witness_of = cspsolve.once_per_table(membership)
        witnesses = [witness_of(t) for t in (g, h, k, g, h, k, g)]
        assert sorted(hashed) == sorted([id(g), id(h), id(k)])
        assert runs == [g, k]
        assert witnesses[0] is witnesses[1] is witnesses[3] is witnesses[6]
        assert witnesses[2] is witnesses[5] is not None

    def test_a_failed_membership_run_is_run_again(self):
        calls = []

        def membership(table):
            calls.append(table)
            if len(calls) == 1:
                raise RuntimeError("interrupted")
            return is_product(table)

        witness_of = cspsolve.once_per_table(membership)
        with pytest.raises(RuntimeError):
            witness_of(EQ)
        assert witness_of(EQ) is not None
        assert witness_of(EQ) is witness_of(Table(EQ.entries))
        assert len(calls) == 2


class TestWitnessConstraints:
    def test_product_witness_in_place_of_table(self):
        constraints = [(EQ, (0, 1)), (NEQ, (1, 2)), (unary(2, 3), (2,))]
        witnessed = [(is_product(sig), vars_) for sig, vars_ in constraints]
        assert product_eval(witnessed, 3) == product_eval(constraints, 3)

    def test_affine_witness_in_place_of_table(self):
        rng = random.Random(58)
        n = 5
        constraints = [random_affine_constraint(rng, n) for _ in range(6)]
        witnessed = [(is_affine(sig), vars_) for sig, vars_ in constraints]
        assert affine_eval(witnessed, n) == affine_eval(constraints, n)



def random_table4(rng, random_constraint):
    """A random arity-4 table in the class of `random_constraint`: the
    product of one to four of its constraints on the four slots, which
    product-type and affine functions are each closed under."""
    parts = [random_constraint(rng, 4) for _ in range(rng.randint(1, 4))]
    entries = []
    for idx in range(16):
        x = [(idx >> (3 - t)) & 1 for t in range(4)]
        term = ONE
        for sig, slots in parts:
            idx = 0
            for s in slots:
                idx = idx << 1 | x[s]
            term = term * sig.entries[idx]
        entries.append(term)
    return Table(tuple(entries))


def repeated_variable_instance(rng, random_constraint, n):
    """Random constraints of `random_constraint`'s class on n variables,
    then binary and arity-4 tables on variables drawn with replacement,
    the first of them naming one variable twice."""
    constraints = [random_constraint(rng, n) for _ in range(rng.randint(0, n))]
    for t in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            sig = random_constraint(rng, 2)[0]
            if sig.arity != 2:
                sig = random_table4(rng, random_constraint)
        else:
            sig = random_table4(rng, random_constraint)
        arity = sig.arity
        vars_ = [rng.randrange(n) for _ in range(arity)]
        if t == 0:
            vars_[rng.randrange(1, arity)] = vars_[0]
        constraints.append((sig, tuple(vars_)))
    return constraints


@pytest.mark.parametrize(
    "solve, membership, random_constraint",
    [
        (product_eval, is_product, random_product_constraint),
        (affine_eval, is_affine, random_affine_constraint),
    ],
    ids=["product", "affine"],
)
class TestRepeatedVariables:
    """A constraint may name one variable in several slots; both solvers,
    fed tables or witnesses, read it on its diagonal."""

    def test_named_cases(self, solve, membership, random_constraint):
        # x != x gives 0 and x = x gives 2; the other tables are both
        # product-type and affine, with diagonals (1, i) and (1, -1)
        cases = [
            ([(NEQ, (0, 0))], 1, ZERO),
            ([(NEQ, (0, 0)), (EQ, (1, 2))], 3, ZERO),
            ([(EQ, (0, 0))], 1, rational(2)),
            ([(Table((ONE, ZERO, ZERO, I)), (0, 0))], 1, ONE + I),
            ([(Table((ONE, ONE, I, I)), (1, 1)), (EQ, (0, 1))], 2, ONE + I),
            ([(Table((ONE, I, I, -ONE)), (1, 1)), (NEQ, (0, 1))], 2, ZERO),
        ]
        for constraints, n, expected in cases:
            witnessed = [(membership(sig), vars_) for sig, vars_ in constraints]
            assert csp_brute(n, constraints) == expected, constraints
            assert solve(constraints, n) == expected, constraints
            assert solve(witnessed, n) == expected, constraints

    def test_random_instances_against_brute(self, solve, membership, random_constraint):
        rng = random.Random(59)
        nonzero = 0
        for trial in range(150):
            n = rng.randint(1, 5)
            constraints = repeated_variable_instance(rng, random_constraint, n)
            assert any(len(set(vars_)) < len(vars_) for _, vars_ in constraints)
            witnessed = [(membership(sig), vars_) for sig, vars_ in constraints]
            expected = csp_brute(n, constraints)
            assert solve(constraints, n) == expected, trial
            assert solve(witnessed, n) == expected, trial
            nonzero += not expected.is_zero()
        assert nonzero >= 30


@pytest.mark.parametrize(
    "solve, membership",
    [(product_eval, is_product), (affine_eval, is_affine)],
    ids=["product", "affine"],
)
@pytest.mark.parametrize("var_tuple", [(0, 1, 2), (0,)], ids=["too many", "too few"])
def test_arity_mismatch_is_refused(solve, membership, var_tuple):
    """A binary constraint named with three variables or one is refused,
    not summed as if its missing or extra slot were free."""
    for sig in (EQ, membership(EQ)):
        with pytest.raises(ValueError, match="arity mismatch"):
            solve([(sig, var_tuple)], 3)


class TestCspBrute:
    def test_unary(self):
        assert csp_brute(1, [(Table((ONE, ONE)), (0,))]) == rational(2)

    def test_diseq(self):
        g = Table((ZERO, ONE, ONE, ZERO))
        assert csp_brute(2, [(g, (0, 1))]) == rational(2)

    def test_g1f_table(self):
        a, b, y, x = rational(2), rational(3), rational(5), rational(7)
        g = Table((a * a, b * y, b * y, x * x))
        assert csp_brute(2, [(g, (0, 1))]) == a * a + b * y + b * y + x * x

    def test_rejects_unsupported_constraint(self):
        # a membership witness is not a signature table
        witness = is_product(Table((ONE, ONE)))
        with pytest.raises(TypeError):
            csp_brute(1, [(Table((ONE, ONE)), (0,)), (witness, (0,))])
