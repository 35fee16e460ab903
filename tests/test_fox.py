import random

import pytest

from ring_oracle import doteq_equal, identity, ring_add, ring_mul, ring_neg, ring_one
from sutured_kit.abelian import GroupRingElem
from sutured_kit.errors import InvalidGenerator, NotGeometricallyBalanced
from sutured_kit.fox import (FreeWord, InclusionData, Presentation,
                             abelianization, combo_add, combo_mul,
                             fox_derivative, is_geometrically_balanced,
                             theta_matrix, torsion)

AB = ("a", "b")


def w(text, names=AB):
    return FreeWord.from_string(text, names)


def inverse(word):
    return FreeWord(tuple((g, -e) for g, e in reversed(word.letters)))


def rand_word(rng, m, max_len=12):
    return FreeWord([(rng.randrange(m), rng.choice((1, -1)))
                     for _ in range(rng.randint(0, max_len))])


class TestFreeWord:
    def test_free_reduction(self):
        assert w("a A").is_identity()
        assert w("a b B A").is_identity()
        assert (w("a b") * w("B a")).letters == ((0, 1), (0, 1))

    def test_parse_and_format(self):
        word = w("a b A B")
        assert word.to_string(AB) == "a b A B"
        assert inverse(word) == w("b a B A")
        with pytest.raises(InvalidGenerator):
            w("a c")

    def test_exponents(self):
        assert w("a b a B A B").exponents(2) == (1, -1)

    @pytest.mark.parametrize("names", [("x1", "ǆ"), ("a2b",), ("ab",)])
    def test_inverse_letter_round_trips(self, names):
        data = {"generators": list(names), "boundary_genus": 1,
                "relators": [" ".join(n + " " + n.upper() + " " + n.upper() for n in names)]}
        p = Presentation.from_json(data)
        assert Presentation.from_json(p.to_json()) == p
        assert p.relators[0].exponents(len(names)) == (-1,) * len(names)

    @pytest.mark.parametrize("token", ["aB", "Ab"])
    def test_mixed_case_letter_refused(self, token):
        # a letter is a name or its whole uppercase form, the inverse
        with pytest.raises(InvalidGenerator, match=repr(token)):
            FreeWord.from_string(f"ab {token}", ("ab",))

    @pytest.mark.parametrize("name", ["Ab", "A", "1", "ß", "ʰ", "ı"])
    def test_name_without_an_inverse_letter_refused(self, name):
        # name.upper() would not parse back as the inverse of name
        with pytest.raises(ValueError, match=r"generators\[1\]"):
            Presentation.from_json({"generators": ["a", name], "boundary_genus": 1})

    def test_inverse_cancels(self):
        rng = random.Random(0)
        for _ in range(100):
            word = rand_word(rng, 3)
            assert (word * inverse(word)).is_identity()


class TestFoxDerivative:
    def test_defining_cases(self):
        assert fox_derivative(w("a"), 0, 2) == {FreeWord(): 1}
        assert fox_derivative(w("a"), 1, 2) == {}
        assert fox_derivative(w("A"), 0, 2) == {w("A"): -1}

    def test_worked_example(self):
        assert fox_derivative(w("a b a"), 0, 2) == {FreeWord(): 1, w("a b"): 1}
        assert fox_derivative(w("a b a"), 1, 2) == {w("a"): 1}

    def test_invalid_index(self):
        with pytest.raises(InvalidGenerator):
            fox_derivative(w("a"), 2, 2)
        with pytest.raises(InvalidGenerator):
            fox_derivative(w("a"), -1, 2)

    def test_product_rule_randomized(self):
        # d(uv) = du * aug(v) + u * dv with aug(group word) = 1
        rng = random.Random(41)
        for _ in range(300):
            m = rng.randint(1, 4)
            u, v = rand_word(rng, m), rand_word(rng, m)
            for i in range(m):
                lhs = fox_derivative(u * v, i, m)
                rhs = combo_add(fox_derivative(u, i, m),
                                combo_mul({u: 1}, fox_derivative(v, i, m)))
                assert lhs == rhs

    def test_fundamental_identity_randomized(self):
        # w - 1 = sum_i dw/da_i (a_i - 1) in the free group ring
        rng = random.Random(43)
        for _ in range(300):
            m = rng.randint(1, 4)
            word = rand_word(rng, m)
            lhs = combo_add({word: 1}, {FreeWord(): -1})
            rhs = {}
            for i in range(m):
                gen = FreeWord(((i, 1),))
                factor = combo_add({gen: 1}, {FreeWord(): -1})
                rhs = combo_add(rhs, combo_mul(fox_derivative(word, i, m), factor))
            assert lhs == rhs


class TestAbelianization:
    def test_free_rank_one(self):
        p = Presentation(("a",), (), 1)
        g, phi = abelianization(p)
        assert g.free_rank == 1 and not g.torsion
        assert phi(w("a", ("a",))) == GroupRingElem({g.element((1,)): 1})

    def test_single_torsion(self):
        p = Presentation(("a",), (w("a a", ("a",)),), 0)
        g, _ = abelianization(p)
        assert g.free_rank == 0 and g.torsion == (2,)

    def test_trefoil(self):
        p = Presentation(AB, (w("a b a B A B"),), 1)
        g, phi = abelianization(p)
        assert g.free_rank == 1 and not g.torsion
        assert phi(w("a")) == phi(w("b"))

    def test_relator_column_identity(self):
        # sum_i phi(dr/da_i) (phi(a_i) - 1) = 0 in Z[H_1]
        rng = random.Random(47)
        for _ in range(60):
            m = rng.randint(1, 3)
            n = rng.randint(0, m)
            names = tuple(f"x{i}" for i in range(m))
            relators = tuple(rand_word(rng, m, 8) for _ in range(n))
            p = Presentation(names, relators, m - n)
            g, phi = abelianization(p)
            for r in relators:
                total = GroupRingElem()
                for i in range(m):
                    col = phi(fox_derivative(r, i, m))
                    gen = phi(FreeWord(((i, 1),)))
                    factor = ring_add(gen, ring_neg(ring_one(g)))
                    total = ring_add(total, ring_mul(col, factor, g))
                assert total.is_zero()


class TestBalanceAndTheta:
    def test_is_geometrically_balanced(self):
        p = Presentation(AB, (w("a b a B A B"),), 1)
        assert is_geometrically_balanced(p, InclusionData((w("a b"),)))
        assert not is_geometrically_balanced(p, InclusionData(()))
        p2 = Presentation(AB, (w("a"), w("b")), 1)
        assert not is_geometrically_balanced(p2, InclusionData((w("a"),)))
        p3 = Presentation(("a", "b", "c"), (w("a", ("a", "b", "c")),), 2)
        k3 = InclusionData((w("b", ("a", "b", "c")), w("c", ("a", "b", "c"))))
        assert is_geometrically_balanced(p3, k3)

    def test_theta_single_generator(self):
        p = Presentation(("a",), (), 1)
        theta, g = theta_matrix(p, InclusionData((w("a", ("a",)),)))
        assert theta == [[ring_one(g)]]

    def test_theta_identity(self):
        p = Presentation(AB, (), 2)
        theta, g = theta_matrix(p, InclusionData((w("a"), w("b"))))
        one, zero = ring_one(g), GroupRingElem()
        assert theta == [[one, zero], [zero, one]]

    def test_theta_trefoil_columns(self):
        p = Presentation(AB, (w("a b a B A B"),), 1)
        theta, g = theta_matrix(p, InclusionData((w("a b"),)))
        one = ring_one(g)
        t = g.element((1,))
        assert theta[0][0] == one                       # d(ab)/da = 1
        assert theta[1][0] == GroupRingElem({t: 1})     # d(ab)/db = a
        # relator derivatives: 1 + ab - abab^-1a^-1 and a - abab^-1 - ...
        t2 = g.element((2,))
        assert theta[0][1] == GroupRingElem({identity(g): 1, t: -1, t2: 1})

    def test_theta_merges_prefixes_that_agree_mod_d(self):
        # H_1 = Z<a> + Z<c> + Z/2<b>.  Along c b b b b C the prefixes c + k b,
        # k = 0..3, are two elements, each met twice, and the last letter adds
        # -h^(4b) = -1 to the row of c, where the first letter added +1
        names = ("a", "b", "c")
        relators = (w("b b", names), w("c b b b b C", names))
        inclusion = InclusionData((w("a", names),))
        theta, g = theta_matrix(Presentation(names, relators, 1), inclusion)
        assert g.free_rank == 2 and g.torsion == (2,)
        _, phi = abelianization(Presentation(names, relators, 1))
        for j, word in enumerate(inclusion.sigma_images + relators):
            for i in range(3):
                assert theta[i][j] == phi(fox_derivative(word, i, 3))
        c, b = g.from_ambient((0, 0, 1)), g.from_ambient((0, 1, 0))
        assert theta[1][2] == GroupRingElem({c: 2, g.add(c, b): 2})
        assert theta[2][2].is_zero()

    def test_theta_requires_balance(self):
        p = Presentation(AB, (), 1)
        with pytest.raises(NotGeometricallyBalanced):
            theta_matrix(p, InclusionData((w("a"),)))


class TestTorsion:
    def test_product_is_one(self):
        for ell in range(4):
            names = tuple(f"g{i}" for i in range(ell))
            p = Presentation(names, (), ell)
            k = InclusionData(tuple(FreeWord(((i, 1),)) for i in range(ell)))
            tau, g = torsion(p, k)
            assert tau == ring_one(g)

    def test_double_cover_word(self):
        p = Presentation(("a",), (), 1)
        tau, g = torsion(p, InclusionData((w("a a", ("a",)),)))
        assert tau == GroupRingElem({identity(g): 1, g.element((1,)): 1})

    def test_trefoil_alternating(self):
        p = Presentation(AB, (w("a b a B A B"),), 1)
        tau, g = torsion(p, InclusionData((w("b"),)))
        one, t, t2 = identity(g), g.element((1,)), g.element((2,))
        assert tau == GroupRingElem({one: 1, t: -1, t2: 1})

    def test_bundled_solid_torus_has_two_support_points(self):
        from sutured_kit import fixtures
        p, k = fixtures.load_presentation("t212_pres")
        tau, g = torsion(p, k)
        assert len(tau.support()) == 2
        assert all(abs(c) == 1 for _, c in tau.items())

    def test_invariance_under_relator_moves(self):
        # conjugating, inverting or swapping relators changes det Theta by a unit
        rng = random.Random(53)
        names = ("a", "b", "c")
        r1 = FreeWord.from_string("a b a B A B", names)
        r2 = FreeWord.from_string("c A", names)
        k = InclusionData((FreeWord.from_string("b", names),))
        base = Presentation(names, (r1, r2), 1)
        tau0, g0 = torsion(base, k)
        assert not tau0.is_zero()
        for _ in range(25):
            conj = rand_word(rng, 3, 5)
            variants = [
                Presentation(names, (conj * r1 * inverse(conj), r2), 1),
                Presentation(names, (inverse(r1), r2), 1),
                Presentation(names, (r2, r1), 1),
                Presentation(names, (r1, conj * r2 * inverse(conj)), 1),
            ]
            for p in variants:
                tau, g = torsion(p, k)
                assert g == g0
                assert doteq_equal(tau, tau0, g)

    def test_json_roundtrip(self):
        p = Presentation(AB, (w("a b a B A B"),), 1)
        k = InclusionData((w("b"),))
        data = p.to_json()
        data.update(k.to_json(p))
        from sutured_kit.fox import load_presentation_json
        p2, k2 = load_presentation_json(data)
        assert p2 == p and k2 == k
