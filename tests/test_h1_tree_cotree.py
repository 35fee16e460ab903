"""The tree-cotree H_1(M), the point potentials and the linear-time unit
normal form, checked against the Smith-normal-form oracles of h1_oracle."""

import json
import random

import pytest

from conftest import s1xs2_minus_ball
from h1_oracle import (SnfH1, chain_diagram, eps_chain,
                       quadratic_doteq_normalize, snf_spinc_classes,
                       torus_diagram)
from ring_oracle import identity, ring_to_json
from sutured_kit import abelian, cli, fixtures
from sutured_kit.abelian import FinAbGroup, GroupRingElem
from sutured_kit.diagram import (SuturedDiagram, _eps_chain, connecting_domains,
                                 epsilon, euler_polynomial, generator_sign,
                                 generators, h1_of_M, is_admissible,
                                 spinc_partition)
from sutured_kit.errors import InvalidDiagram

ALL_DIAGRAMS = fixtures.diagram_names()
TORUS_P = list(range(2, 31)) + [60]
CHAIN_K = list(range(1, 6))


def family(kind, n):
    return SuturedDiagram.from_json(torus_diagram(n) if kind == "torus" else chain_diagram(n))


FAMILY_CASES = ([("torus", p) for p in TORUS_P] + [("chain", k) for k in CHAIN_K])


def oracle_euler_document(d):
    """The `euler` CLI document computed along the SNF path."""
    h1 = SnfH1(d)
    gens = generators(d)
    terms = {}
    for x in gens:
        cls = h1.class_of_arcs(eps_chain(d, gens[0], x))
        terms[cls] = terms.get(cls, 0) + generator_sign(d, x)
    poly = quadratic_doteq_normalize(GroupRingElem(terms), h1.group)
    payload = {"h1": abelian.group_to_json(h1.group),
               "polynomial": ring_to_json(poly)}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestAgainstSnfOracle:
    @pytest.mark.parametrize("name", ALL_DIAGRAMS)
    def test_bundled_group_and_classes(self, name):
        d = fixtures.load_diagram(name)
        group, classes = snf_spinc_classes(d)
        part = spinc_partition(d)
        assert part.group == group
        assert part.classes == classes

    @pytest.mark.parametrize("kind,n", FAMILY_CASES)
    def test_family_group_and_classes(self, kind, n):
        d = family(kind, n)
        group, classes = snf_spinc_classes(d)
        part = spinc_partition(d)
        assert part.group == group == FinAbGroup(1)
        assert part.classes == classes

    @pytest.mark.parametrize("name", ALL_DIAGRAMS)
    def test_bundled_euler_bytes(self, name, capsys):
        path = fixtures.fixtures_dir() / fixtures.fixture_info(name).file
        assert cli.main(["euler", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == oracle_euler_document(fixtures.load_diagram(name))

    @pytest.mark.parametrize("kind,n", [("torus", 7), ("torus", 30), ("chain", 4)])
    def test_family_euler_bytes(self, kind, n, tmp_path, capsys):
        data = torus_diagram(n) if kind == "torus" else chain_diagram(n)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(data))
        assert cli.main(["euler", str(path)]) == 0
        assert capsys.readouterr().out == oracle_euler_document(SuturedDiagram.from_json(data))


class TestPotentials:
    @pytest.mark.parametrize("name", ALL_DIAGRAMS)
    def test_epsilon_is_class_of_explicit_chain(self, name):
        d = fixtures.load_diagram(name)
        _, class_of = h1_of_M(d)
        gens = generators(d)
        for x in gens:
            for y in gens:
                e = epsilon(d, x, y)
                assert class_of(_eps_chain(d, x, y)) == e
                assert class_of(eps_chain(d, x, y, backward=True)) == e

    @pytest.mark.parametrize("kind,n", [("torus", 9), ("chain", 3)])
    def test_family_epsilon_is_class_of_explicit_chain(self, kind, n):
        d = family(kind, n)
        _, class_of = h1_of_M(d)
        gens = generators(d)
        for y in gens:
            e = epsilon(d, gens[0], y)
            assert class_of(_eps_chain(d, gens[0], y)) == e
            assert class_of(eps_chain(d, gens[0], y, backward=True)) == e

    def test_class_of_rejects_non_cycles(self):
        d = fixtures.load_diagram("t312")
        _, class_of = h1_of_M(d)
        with pytest.raises(InvalidDiagram):
            class_of({("a", 0, 0): 1})
        # a full curve is a cycle and is killed in H_1(M)
        grp, _ = h1_of_M(d)
        assert class_of({("a", 0, k): 1 for k in range(3)}) == identity(grp)


@pytest.fixture
def snf_shapes(monkeypatch):
    """(rows, cols) of every Smith normal form computed during the test."""
    shapes = []
    real = abelian.smith_normal_form

    def recording(a):
        shapes.append((a.rows, a.cols))
        return real(a)

    monkeypatch.setattr(abelian, "smith_normal_form", recording)
    return shapes


class TestStructure:
    def test_euler_needs_no_large_snf(self, snf_shapes):
        d = family("torus", 60)
        poly, _ = euler_polynomial(d)
        assert len(poly.support()) == 60
        bound = 2 * d.genus + d.boundary_circles - 1
        assert snf_shapes and max(rows for rows, _ in snf_shapes) <= bound

    @pytest.mark.parametrize("build", [lambda: family("torus", 60), s1xs2_minus_ball],
                             ids=["torus-60", "s1xs2"])
    def test_domains_need_no_large_snf(self, snf_shapes, build):
        d = build()
        gens = generators(d)
        assert is_admissible(d)
        assert connecting_domains(d, gens[0], gens[0]) is not None
        connecting_domains(d, gens[0], gens[-1])
        bound = 2 * d.genus + d.boundary_circles - 1
        assert snf_shapes and max(rows for rows, _ in snf_shapes) <= bound


def random_element(rng, g, terms):
    out = {}
    for _ in range(terms):
        free = tuple(rng.randint(-4, 4) for _ in range(g.free_rank))
        tors = tuple(rng.randrange(t) for t in g.torsion)
        out[g.element(free, tors)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return GroupRingElem(out)


@pytest.mark.parametrize("group", [FinAbGroup(1), FinAbGroup(1, (2,)), FinAbGroup(1, (6,)),
                                   FinAbGroup(2, (4,)), FinAbGroup(0, (6,))],
                         ids=repr)
def test_doteq_normalize_matches_quadratic_oracle(group):
    rng = random.Random(7 + group.free_rank * 31 + sum(group.torsion))
    for _ in range(150):
        x = random_element(rng, group, rng.randint(1, 9))
        assert abelian.doteq_normalize(x, group) == quadratic_doteq_normalize(x, group)
