import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from det_oracle import rows_of
from h1_oracle import (det, diagonal, kernel_basis, matmul, quadratic_doteq_normalize,
                       solve_integer)
from ring_oracle import (doteq_equal, element, from_ambient, group_add, identity, leibniz_det,
                         per_term_doteq_normalize, per_term_invert_exponents, ring_add, ring_mul,
                         ring_neg, ring_of, ring_one, ring_to_json, ring_translate,
                         tuple_doteq_normalize)
from sutured_kit.abelian import (FinAbGroup, GroupElement, GroupRingElem, IntMatrix, _perm_sign,
                                 cokernel, det_group_ring, doteq_normalize, group_to_json,
                                 ring_aug, ring_invert_exponents, smith_normal_form)
from sutured_kit.errors import DeterminantTooLarge


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
                     rows, cols)


def check_smith_form(a):
    """u*a*v = diag(d) with u, v unimodular and d a nonnegative divisibility chain."""
    u, d, v = smith_normal_form(a)
    assert len(d) == min(a.rows, a.cols)
    assert matmul(matmul(u, a), v).entries == diagonal(d, a.rows, a.cols)
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        assert (y % x == 0) if x != 0 else y == 0
    return d


class TestSmithNormalForm:
    def test_identity_fixed_point(self):
        _, d, _ = smith_normal_form(IntMatrix([[1, 0], [0, 1]]))
        assert d == (1, 1)

    def test_zero_matrix(self):
        _, d, _ = smith_normal_form(IntMatrix([[0]]))
        assert d == (0,)

    def test_worked_example(self):
        # det = -8 forces d1*d2 = 8 with d1 = gcd of the entries = 2
        assert check_smith_form(IntMatrix([[2, 4], [6, 8]])) == (2, 4)

    def test_randomized_contract(self):
        rng = random.Random(20240811)
        for _ in range(220):
            check_smith_form(rand_matrix(rng, rng.randint(0, 6), rng.randint(0, 6)))

    @pytest.mark.parametrize("rows,cols", [(0, 3), (2, 0), (0, 0), (1, 1), (1, 2), (1, 5)])
    def test_edge_shapes(self, rows, cols):
        rng = random.Random(rows * 10 + cols)
        for lo, hi in ((0, 0), (-9, 9), (-1, 1)):
            for _ in range(20):
                a = rand_matrix(rng, rows, cols, lo, hi)
                d = check_smith_form(a)
                if rows == 1:
                    assert d == (gcd(*a.entries[0]),)

    def test_what_the_benchmark_reads(self):
        # bench/baseline.py builds the matrix from lists with its shape, and
        # bench/tracing.py counts rows * cols of the Smith form's argument
        a = IntMatrix([[1, 2, 3], [4, 5, 6]], 2, 3)
        assert (a.rows, a.cols) == (2, 3)
        assert smith_normal_form(a)[1] == (1, 3)
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]], 2, 2)
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3, 4]], 2, 3)

    def test_kernel_and_solve(self):
        rng = random.Random(7)
        for _ in range(100):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -4, 4)
            for col in kernel_basis(a):
                assert all(x == 0 for x in a @ col)
            x = [rng.randint(-3, 3) for _ in range(a.cols)]
            b = a @ x
            sol = solve_integer(a, b)
            assert sol is not None
            assert list(a @ sol) == list(b)


class TestCokernel:
    def test_no_relations(self):
        g = cokernel(IntMatrix([[], []], rows=2, cols=0))
        assert g.free_rank == 2 and g.torsion == ()

    def test_single_torsion_relation(self):
        g = cokernel(IntMatrix([[2]]))
        assert g.free_rank == 0 and g.torsion == (2,)

    def test_primitive_column(self):
        # SNF of (1,1)^T is (1,0)^T
        g = cokernel(IntMatrix([[1], [1]]))
        assert g.free_rank == 1 and g.torsion == ()

    def test_projection_kills_relations(self):
        # and the torsion, which FinAbGroup takes as given, is a divisibility
        # chain of ints >= 2
        rng = random.Random(3)
        chains = 0
        for _ in range(60):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(0, 4), -5, 5)
            scale = rng.choice((1, 2, 6))       # a common factor gives a longer chain
            a = IntMatrix([[scale * x for x in row] for row in a.entries], a.rows, a.cols)
            g = cokernel(a)
            for j in range(a.cols):
                assert from_ambient(g, a.column(j)) == identity(g)
            assert type(g.free_rank) is int and type(g.torsion) is tuple
            assert all(type(t) is int and t >= 2 for t in g.torsion)
            assert all(b % t == 0 for t, b in zip(g.torsion, g.torsion[1:]))
            chains += len(g.torsion) > 1
        assert chains


class TestGroupRing:
    def setup_method(self):
        self.z = FinAbGroup(1)
        self.one = identity(self.z)
        self.h = element(self.z, (1,))

    def test_laurent_product(self):
        x = GroupRingElem({self.one: 1, self.h: 1})
        y = GroupRingElem({self.one: 1, self.h: -1})
        assert ring_mul(x, y, self.z) == GroupRingElem(
            {self.one: 1, element(self.z, (2,)): -1})

    def test_torsion_collapse(self):
        g = FinAbGroup(0, (2,))
        h = element(g, (), (1,))
        x = GroupRingElem({identity(g): 1, h: 1})
        y = GroupRingElem({identity(g): 1, h: -1})
        assert ring_mul(x, y, g).is_zero()

    def test_identity_neutral(self):
        rng = random.Random(5)
        g = FinAbGroup(1, (3,))
        for _ in range(50):
            x = random_ring_elem(rng, g)
            assert ring_mul(ring_one(g), x, g) == x

    def test_ring_axioms_randomized(self):
        rng = random.Random(11)
        for g in (FinAbGroup(1), FinAbGroup(2), FinAbGroup(1, (2,)), FinAbGroup(0, (2, 4))):
            for _ in range(40):
                x, y, z = (random_ring_elem(rng, g) for _ in range(3))
                assert ring_mul(x, y, g) == ring_mul(y, x, g)
                assert ring_mul(ring_mul(x, y, g), z, g) == ring_mul(x, ring_mul(y, z, g), g)
                assert ring_mul(x, ring_add(y, z), g) == \
                    ring_add(ring_mul(x, y, g), ring_mul(x, z, g))


def random_ring_elem(rng, g, max_terms=4, coeff=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        free = tuple(rng.randint(-3, 3) for _ in range(g.free_rank))
        tors = tuple(rng.randrange(d) for d in g.torsion)
        terms[element(g, free, tors)] = rng.randint(-coeff, coeff)
    return ring_of(terms.items())


class TestDeterminant:
    """The determinant has one result, its +-h normal form."""

    def test_small_cases(self):
        g = FinAbGroup(1)
        x = random_ring_elem(random.Random(1), g)
        assert det_group_ring(rows_of([[x]]), g) == tuple_doteq_normalize(x, g)
        assert det_group_ring(rows_of([]), g) == ring_one(g)
        rng = random.Random(2)
        a, b, c, d = (random_ring_elem(rng, g) for _ in range(4))
        expect = ring_add(ring_mul(a, d, g), ring_neg(ring_mul(b, c, g)))
        assert det_group_ring(rows_of([[a, b], [c, d]]), g) == tuple_doteq_normalize(expect, g)

    @pytest.mark.parametrize("group", [FinAbGroup(1), FinAbGroup(1, (2,))])
    def test_leibniz_oracle(self, group):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(0, 4)
            m = [[random_ring_elem(rng, group, 2, 2) for _ in range(n)]
                 for _ in range(n)]
            want = tuple_doteq_normalize(leibniz_det(m, group), group)
            assert det_group_ring(rows_of(m), group) == want

    def test_block_multiplicative(self):
        rng = random.Random(17)
        g = FinAbGroup(1)
        for _ in range(20):
            na, nb = rng.randint(1, 2), rng.randint(1, 2)
            A = [[random_ring_elem(rng, g, 2, 2) for _ in range(na)] for _ in range(na)]
            B = [[random_ring_elem(rng, g, 2, 2) for _ in range(nb)] for _ in range(nb)]
            zero = GroupRingElem({})
            M = [[A[i][j] if i < na and j < na else
                  B[i - na][j - na] if i >= na and j >= na else zero
                  for j in range(na + nb)] for i in range(na + nb)]
            assert det_group_ring(rows_of(M), g) == tuple_doteq_normalize(ring_mul(
                det_group_ring(rows_of(A), g), det_group_ring(rows_of(B), g), g), g)

    @pytest.mark.parametrize("group", [FinAbGroup(1), FinAbGroup(2), FinAbGroup(1, (2,))])
    def test_unit_invariance(self, group):
        """Permuting rows or columns, transposing, and multiplying a row by a
        unit +-h each change the determinant by a unit, so not the result."""
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = [[random_ring_elem(rng, group, 2, 2) for _ in range(n)] for _ in range(n)]
            want = det_group_ring(rows_of(m), group)
            rows = rng.sample(range(n), n)
            cols = rng.sample(range(n), n)
            h = element(group, [rng.randint(-2, 2) for _ in range(group.free_rank)],
                        [rng.randrange(d) for d in group.torsion])
            i, sign = rng.randrange(n), rng.choice((1, -1))
            scaled = list(m)
            scaled[i] = [ring_translate(e if sign > 0 else ring_neg(e), h, group) for e in m[i]]
            for variant in ([[m[r][c] for c in cols] for r in rows],
                            [list(col) for col in zip(*m)], scaled):
                assert det_group_ring(rows_of(variant), group) == want

    def test_residues_that_agree_mod_d_merge(self):
        # the normal form reduces the unreduced residue sums 0..3 mod 2 onto two elements
        g = FinAbGroup(1, (2,))
        x, xt, t = element(g, (1,), (0,)), element(g, (1,), (1,)), element(g, (0,), (1,))
        zero = GroupRingElem({})
        x_plus_xt = GroupRingElem({x: 1, xt: 1})
        diagonal = [[x_plus_xt if i == j else zero for j in range(3)] for i in range(3)]
        cube = det_group_ring(rows_of(diagonal), g)    # x^3 (1 + t)^3 = 4 x^3 + 4 x^3 t
        assert cube == GroupRingElem({identity(g): 4, element(g, (0,), (1,)): 4})
        assert all(type(e) is GroupElement for e in cube._terms)
        one = ring_one(g)
        cancel = [[one, GroupRingElem({t: 1})], [GroupRingElem({t: 1}), one]]
        assert det_group_ring(rows_of(cancel), g).is_zero()    # 1 - t^2 = 0

    def test_size_guard(self):
        g = FinAbGroup(1)
        big = [[ring_one(g)] * 17 for _ in range(17)]
        with pytest.raises(DeterminantTooLarge):
            det_group_ring(rows_of(big), g)


class TestDoteq:
    def setup_method(self):
        self.z = FinAbGroup(1)
        self.one = identity(self.z)
        self.h = element(self.z, (1,))

    def test_zero(self):
        assert doteq_normalize(GroupRingElem({}), self.z) == GroupRingElem({})

    def test_translate_to_identity(self):
        x = GroupRingElem({self.h: 1, element(self.z, (2,)): -1})
        assert doteq_normalize(x, self.z) == GroupRingElem({self.one: 1, self.h: -1})

    def test_sign_flip(self):
        x = GroupRingElem({self.one: -1, self.h: 1})
        assert doteq_normalize(x, self.z) == GroupRingElem({self.one: 1, self.h: -1})

    def test_spec_equalities(self):
        one_minus_h = GroupRingElem({self.one: 1, self.h: -1})
        h_minus_one = GroupRingElem({self.one: -1, self.h: 1})
        one_plus_h = GroupRingElem({self.one: 1, self.h: 1})
        assert doteq_equal(one_minus_h, h_minus_one, self.z)
        assert not doteq_equal(one_minus_h, one_plus_h, self.z)
        hinv = element(self.z, (-1,))
        assert doteq_equal(one_plus_h, GroupRingElem({self.one: 1, hinv: 1}),
                           self.z, allow_inversion=True)

    def test_inversion_needed_case(self):
        # 1 + 2h and 1 + 2h^-1 are related only by the inversion automorphism
        x = GroupRingElem({self.one: 1, self.h: 2})
        y = GroupRingElem({self.one: 1, element(self.z, (-1,)): 2})
        assert not doteq_equal(x, y, self.z)
        assert doteq_equal(x, y, self.z, allow_inversion=True)

    def test_idempotent_and_unit_invariance(self):
        rng = random.Random(23)
        for g in (FinAbGroup(1), FinAbGroup(2), FinAbGroup(1, (3,))):
            for _ in range(80):
                x = random_ring_elem(rng, g)
                n = doteq_normalize(x, g)
                assert doteq_normalize(n, g) == n
                h = element(g, tuple(rng.randint(-2, 2) for _ in range(g.free_rank)),
                            tuple(rng.randrange(d) for d in g.torsion))
                for unit_sign in (1, -1):
                    y = GroupRingElem({group_add(g, e, h): unit_sign * c for e, c in x.items()})
                    assert doteq_equal(x, y, g)

    def test_equivalence_relation(self):
        rng = random.Random(29)
        g = FinAbGroup(1, (2,))
        elems = [random_ring_elem(rng, g) for _ in range(8)]
        for x in elems:
            assert doteq_equal(x, x, g)
            for y in elems:
                assert doteq_equal(x, y, g) == doteq_equal(y, x, g)
                for z in elems:
                    if doteq_equal(x, y, g) and doteq_equal(y, z, g):
                        assert doteq_equal(x, z, g)


@st.composite
def ring_elems(draw):
    """x over Z^r + T, r = 0..2, with terms on at most three free parts, so
    several candidates tie on the lowest one; in a third of the cases x is a
    multiple of the sum over the subgroup generated by one torsion element,
    so whole forms tie too."""
    g = FinAbGroup(draw(st.integers(0, 2)),
                   draw(st.sampled_from(((), (2,), (3,), (2, 4), (2, 12)))))

    def draw_element(free_parts):
        return element(g, draw(st.sampled_from(free_parts)),
                       [draw(st.integers(0, d - 1)) for d in g.torsion])

    free_parts = [[draw(st.integers(-2, 2)) for _ in range(g.free_rank)]
                  for _ in range(draw(st.integers(1, 3)))]
    x = ring_of((draw_element(free_parts), draw(st.integers(-3, 3)))
                for _ in range(draw(st.integers(0, 8))))
    if g.torsion and draw(st.integers(0, 2)) == 0:
        t = draw_element([[0] * g.free_rank])
        orbit, h = [identity(g)], t
        while h != identity(g):
            orbit.append(h)
            h = group_add(g, h, t)
        x = ring_mul(x, GroupRingElem(dict.fromkeys(orbit, 1)), g)
    unit = draw_element([[draw(st.integers(-3, 3)) for _ in range(g.free_rank)]])
    return x, g, unit, draw(st.sampled_from((1, -1)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ring_elems())
def test_doteq_normal_form_is_the_quadratic_oracle(case):
    """The exact normal form, term for term, and its invariance under +-h."""
    x, g, h, sign = case
    n = doteq_normalize(x, g)
    assert n.items() == quadratic_doteq_normalize(x, g).items()
    y = GroupRingElem({group_add(g, e, h): sign * c for e, c in x.items()})
    assert doteq_normalize(y, g).items() == n.items()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ring_elems())
def test_tuple_arithmetic_is_the_per_term_oracle(case):
    """The normal form and the inversion, written with tuple arithmetic on
    the terms, equal the per-term ``g.add``/``g.neg`` versions: the same
    ``GroupElement`` keys and coefficients, none of them zero, also where
    torsion translates tie as candidates."""
    x, g, h, sign = case
    y = GroupRingElem({group_add(g, e, h): sign * c for e, c in x.items()})
    for z in (x, y):
        for got, want in ((doteq_normalize(z, g), per_term_doteq_normalize(z, g)),
                          (ring_invert_exponents(z, g), per_term_invert_exponents(z, g))):
            assert got._terms == want._terms
            assert all(type(e) is GroupElement for e in got._terms)
            assert all(got._terms.values())


class TestSerialization:
    def test_group_roundtrip(self):
        g = FinAbGroup(2, (2, 4))
        data = group_to_json(g)
        assert data == {"free_rank": 2, "torsion": [2, 4]}
        assert FinAbGroup(data["free_rank"], tuple(data["torsion"])) == g

    def test_ring_roundtrip_sorted(self):
        g = FinAbGroup(1, (2,))
        rng = random.Random(31)
        for _ in range(30):
            x = random_ring_elem(rng, g)
            data = ring_to_json(x)
            keys = [(tuple(t["exp_free"]), tuple(t["exp_torsion"])) for t in data]
            assert keys == sorted(keys)
            assert GroupRingElem({element(g, t["exp_free"], t["exp_torsion"]): t["coeff"]
                                  for t in data}) == x

    def test_aug(self):
        g = FinAbGroup(1)
        x = GroupRingElem({identity(g): 2, element(g, (1,)): -5})
        assert ring_aug(x) == -3
        assert ring_aug(GroupRingElem({element(g, (3,)): 4})) == 4


def inversion_sign(perm):
    """The sign by counting inversions, O(n^2)."""
    n = len(perm)
    return -1 if sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2 else 1


class TestPermSign:
    def test_every_permutation_up_to_seven(self):
        for n in range(8):
            for perm in itertools.permutations(range(n)):
                assert _perm_sign(perm) == inversion_sign(perm)

    def test_seeded_large_permutation(self):
        perm = list(range(400))
        random.Random(400).shuffle(perm)
        assert _perm_sign(perm) == inversion_sign(perm)
        perm[0], perm[1] = perm[1], perm[0]
        assert _perm_sign(perm) == inversion_sign(perm)
