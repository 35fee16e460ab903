"""The Euler polynomial as the determinant of the alpha x beta potential
matrix, against the generator enumeration of h1_oracle, and the memo-key
bound of det_group_ring that replaced its fixed size limit."""

import json
import random

import pytest

from det_oracle import Unreadable
from h1_oracle import (chain_diagram, enumerated_euler_polynomial,
                       lens_diagram, torus_diagram)
from ring_oracle import ring_mul, ring_one
from sutured_kit import cli, diagram, fixtures
from sutured_kit.abelian import FinAbGroup, GroupRingElem, det_group_ring
from sutured_kit.diagram import SuturedDiagram, euler_polynomial
from sutured_kit.errors import DeterminantTooLarge
from sutured_kit.oracle import solid_torus_sfh

ALL_DIAGRAMS = fixtures.diagram_names()
BUILDERS = {"torus": torus_diagram, "chain": chain_diagram, "lens": lens_diagram}
FAMILY_CASES = ([("torus", p) for p in range(2, 31)] + [("chain", k) for k in range(1, 9)]
                + [("lens", p) for p in range(2, 8)])


def family(kind, n):
    return SuturedDiagram.from_json(BUILDERS[kind](n))


class TestAgainstEnumeration:
    @pytest.mark.parametrize("name", ALL_DIAGRAMS)
    def test_bundled(self, name):
        d = fixtures.load_diagram(name)
        assert euler_polynomial(d) == enumerated_euler_polynomial(d)

    @pytest.mark.parametrize("kind,n", FAMILY_CASES)
    def test_family(self, kind, n):
        d = family(kind, n)
        assert euler_polynomial(d) == enumerated_euler_polynomial(d)

    @pytest.mark.parametrize("p", range(2, 8))
    def test_lens_space_is_the_norm_element(self, p):
        poly, group = euler_polynomial(family("lens", p))
        assert group == FinAbGroup(0, (p,))
        assert poly == GroupRingElem({group.element((), (i,)): 1 for i in range(p)})


class TestNoEnumeration:
    def test_generators_never_called(self, monkeypatch):
        diagrams = ([fixtures.load_diagram(name) for name in ALL_DIAGRAMS]
                    + [family("chain", k) for k in range(1, 11)])
        expected = [enumerated_euler_polynomial(d) for d in diagrams]

        def refuse(d):
            raise AssertionError("generators enumerated")

        monkeypatch.setattr(diagram, "generators", refuse)
        for d, want in zip(diagrams, expected):
            fresh = SuturedDiagram.from_json(d.to_json())
            assert euler_polynomial(fresh) == want

    def test_chain_beyond_the_old_size_limit(self, tmp_path, capsys):
        # 17 alpha curves: 131072 generators, a 17 x 17 bidiagonal matrix
        path = tmp_path / "chain17.json"
        path.write_text(json.dumps(chain_diagram(17)))
        assert cli.main(["euler", str(path)]) == 0
        terms = json.loads(capsys.readouterr().out)["polynomial"]
        got = [abs(t["coeff"]) for t in sorted(terms, key=lambda t: t["exp_free"])]
        assert got == solid_torus_sfh(1, 0, 36).values_in_order()


def poly(g, coeffs):
    """sum c_i h^i in Z[g], g of free rank 1."""
    return GroupRingElem({g.element((i,)): c for i, c in enumerate(coeffs)})


class TestMemoKeyBound:
    def test_sparse_matrix_over_sixteen_is_accepted(self):
        g = FinAbGroup(1)
        zero = GroupRingElem()
        n = 24
        # lower bidiagonal: the determinant is the product of the diagonal
        m = [[poly(g, [1, 1]) if i == j else poly(g, [i, -1]) if i == j + 1 else zero
              for j in range(n)] for i in range(n)]
        want = ring_one(g)
        for i in range(n):
            want = ring_mul(want, m[i][i], g)
        assert det_group_ring(m, g) == want

    def test_block_diagonal_seventeen(self):
        rng = random.Random(41)
        g = FinAbGroup(1, (2,))
        zero = GroupRingElem()

        def entry():
            return GroupRingElem({g.element((rng.randint(-1, 1),), (rng.randint(0, 1),)):
                                  rng.choice((-1, 1)) for _ in range(2)})

        blocks = [(0, 8), (8, 17)]
        m = [[entry() if any(a <= i < b and a <= j < b for a, b in blocks) else zero
              for j in range(17)] for i in range(17)]
        want = ring_one(g)
        for a, b in blocks:
            want = ring_mul(want, det_group_ring([row[a:b] for row in m[a:b]], g), g)
        assert not want.is_zero()
        assert det_group_ring(m, g) == want

    def test_refused_before_any_ring_product(self):
        dense = [[Unreadable()] * 17 for _ in range(17)]
        with pytest.raises(DeterminantTooLarge):
            det_group_ring(dense, FinAbGroup(1))
