import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_json
from fox_oracle import combo_add, combo_mul, concat, fox_derivative, phi, random_word
from ring_oracle import (doteq_equal, element, from_ambient, group_add, identity, ring_add,
                         ring_mul, ring_neg, ring_one)
from sutured_kit.abelian import GroupRingElem
from sutured_kit.errors import InvalidGenerator, NotGeometricallyBalanced
from sutured_kit.fox import (FreeWord, InclusionData, Presentation, abelianization,
                             is_geometrically_balanced, load_presentation_json,
                             theta_matrix, torsion)

AB = ("a", "b")
ABCD = ("a", "b", "c", "d")


def w(text, names=AB):
    return FreeWord.from_string(text, names)


def inverse(word):
    return FreeWord(tuple((g, -e) for g, e in reversed(word.letters)))


@st.composite
def names_and_words(draw):
    """Distinct lowercase generator names and words of (index, inverted) draws."""
    names = draw(st.lists(st.text(string.ascii_lowercase + string.digits, min_size=1,
                                  max_size=3).filter(lambda s: not s.isdigit()),
                          min_size=1, max_size=6, unique=True))
    words = draw(st.lists(st.lists(st.tuples(st.integers(0, len(names) - 1), st.booleans()),
                                   max_size=10), max_size=len(names)))
    return names, words


class TestFreeWord:
    def test_free_reduction(self):
        assert w("a A").letters == w("a b B A").letters == ()
        assert concat(w("a b"), w("B a")).letters == ((0, 1), (0, 1))

    def test_parse_and_format(self):
        word = w("a b A B")
        assert word.letters == ((0, 1), (1, 1), (0, -1), (1, -1))
        assert inverse(word).letters == w("b a B A").letters
        with pytest.raises(InvalidGenerator):
            w("a c")

    def test_exponents(self):
        assert w("a b a B A B").exponents(2) == (1, -1)

    @pytest.mark.parametrize("names", [("x1", "ǆ"), ("a2b",), ("ab",)])
    def test_inverse_letter_round_trips(self, names):
        data = {"generators": list(names), "boundary_genus": 1,
                "relators": [" ".join(n + " " + n.upper() + " " + n.upper() for n in names)]}
        p = Presentation.from_json(data)
        assert p.generator_names == names
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

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(names_and_words())
    def test_parsed_letters_are_in_range(self, case):
        # nothing after the parser checks a letter: each is (index < m, +-1),
        # freely reduced, in relators and inclusion words alike
        names, words = case
        texts = [" ".join(names[i].upper() if inv else names[i] for i, inv in word)
                 for word in words]
        p, k = load_presentation_json({"generators": names, "relators": texts,
                                       "boundary_genus": 0, "sigma_images": texts})
        for word, parsed in zip(words * 2, p.relators + k.sigma_images):
            reduced = []
            for i, inv in word:
                letter = (i, -1 if inv else 1)
                if reduced and reduced[-1] == (i, -letter[1]):
                    reduced.pop()
                else:
                    reduced.append(letter)
            assert parsed.letters == tuple(reduced)
            assert all(type(g) is int and 0 <= g < len(names) and e in (1, -1)
                       for g, e in parsed.letters)

    def test_inverse_cancels(self):
        rng = random.Random(0)
        for _ in range(100):
            word = random_word(rng, ABCD[:3])
            assert concat(word, inverse(word)).letters == ()


class TestFoxDerivative:
    def test_defining_cases(self):
        assert fox_derivative(w("a"), 0, 2) == {(): 1}
        assert fox_derivative(w("a"), 1, 2) == {}
        assert fox_derivative(w("A"), 0, 2) == {w("A").letters: -1}

    def test_worked_example(self):
        assert fox_derivative(w("a b a"), 0, 2) == {(): 1, w("a b").letters: 1}
        assert fox_derivative(w("a b a"), 1, 2) == {w("a").letters: 1}

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
            u, v = random_word(rng, ABCD[:m]), random_word(rng, ABCD[:m])
            for i in range(m):
                lhs = fox_derivative(concat(u, v), i, m)
                rhs = combo_add(fox_derivative(u, i, m),
                                combo_mul({u.letters: 1}, fox_derivative(v, i, m)))
                assert lhs == rhs

    def test_fundamental_identity_randomized(self):
        # w - 1 = sum_i dw/da_i (a_i - 1) in the free group ring
        rng = random.Random(43)
        for _ in range(300):
            m = rng.randint(1, 4)
            word = random_word(rng, ABCD[:m])
            lhs = combo_add({word.letters: 1}, {(): -1})
            rhs = {}
            for i in range(m):
                factor = combo_add({((i, 1),): 1}, {(): -1})
                rhs = combo_add(rhs, combo_mul(fox_derivative(word, i, m), factor))
            assert lhs == rhs


class TestPresentation:
    def test_more_relators_than_generators_refused(self):
        with pytest.raises(ValueError) as exc:
            Presentation(("a",), (w("a", ("a",)), w("a a", ("a",))), 0)
        assert str(exc.value) == "presentation needs at least as many generators as relators"


class TestAbelianization:
    def test_free_rank_one(self):
        p = Presentation(("a",), (), 1)
        g = abelianization(p)
        assert g.free_rank == 1 and not g.torsion
        assert phi(g, w("a", ("a",))) == GroupRingElem({element(g, (1,)): 1})

    def test_single_torsion(self):
        p = Presentation(("a",), (w("a a", ("a",)),), 0)
        g = abelianization(p)
        assert g.free_rank == 0 and g.torsion == (2,)

    def test_trefoil(self):
        p = Presentation(AB, (w("a b a B A B"),), 1)
        g = abelianization(p)
        assert g.free_rank == 1 and not g.torsion
        assert phi(g, w("a")) == phi(g, w("b"))

    def test_relator_column_identity(self):
        # sum_i phi(dr/da_i) (phi(a_i) - 1) = 0 in Z[H_1]
        rng = random.Random(47)
        for _ in range(60):
            m = rng.randint(1, 3)
            n = rng.randint(0, m)
            names = tuple(f"x{i}" for i in range(m))
            relators = tuple(random_word(rng, names, 8) for _ in range(n))
            p = Presentation(names, relators, m - n)
            g = abelianization(p)
            for r in relators:
                total = GroupRingElem()
                for i in range(m):
                    col = phi(g, fox_derivative(r, i, m))
                    gen = phi(g, w(names[i], names))
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
        t = element(g, (1,))
        assert theta[0][0] == one                       # d(ab)/da = 1
        assert theta[1][0] == GroupRingElem({t: 1})     # d(ab)/db = a
        # relator derivatives: 1 + ab - abab^-1a^-1 and a - abab^-1 - ...
        t2 = element(g, (2,))
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
        for j, word in enumerate(inclusion.sigma_images + relators):
            for i in range(3):
                assert theta[i][j] == phi(g, fox_derivative(word, i, 3))
        c, b = from_ambient(g, (0, 0, 1)), from_ambient(g, (0, 1, 0))
        assert theta[1][2] == GroupRingElem({c: 2, group_add(g, c, b): 2})
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
            k = InclusionData(tuple(w(name, names) for name in names))
            tau, g = torsion(p, k)
            assert tau == ring_one(g)

    def test_double_cover_word(self):
        p = Presentation(("a",), (), 1)
        tau, g = torsion(p, InclusionData((w("a a", ("a",)),)))
        assert tau == GroupRingElem({identity(g): 1, element(g, (1,)): 1})

    def test_trefoil_alternating(self):
        p = Presentation(AB, (w("a b a B A B"),), 1)
        tau, g = torsion(p, InclusionData((w("b"),)))
        one, t, t2 = identity(g), element(g, (1,)), element(g, (2,))
        assert tau == GroupRingElem({one: 1, t: -1, t2: 1})

    def test_bundled_solid_torus_has_two_support_points(self):
        from sutured_kit import fixtures
        p, k = load_presentation_json(fixture_json("t212_pres"))
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
            conj = random_word(rng, names, 5)
            variants = [
                Presentation(names, (concat(concat(conj, r1), inverse(conj)), r2), 1),
                Presentation(names, (inverse(r1), r2), 1),
                Presentation(names, (r2, r1), 1),
                Presentation(names, (r1, concat(concat(conj, r2), inverse(conj))), 1),
            ]
            for p in variants:
                tau, g = torsion(p, k)
                assert g == g0
                assert doteq_equal(tau, tau0, g)

    def test_json_roundtrip(self):
        data = {"generators": ["a", "b"], "relators": ["a b a B A B"], "boundary_genus": 1,
                "sigma_images": ["b"]}
        p, k = load_presentation_json(data)
        assert (p.generator_names, p.boundary_genus) == (AB, 1)
        assert [r.letters for r in p.relators] == [w("a b a B A B").letters]
        assert [x.letters for x in k.sigma_images] == [w("b").letters]
