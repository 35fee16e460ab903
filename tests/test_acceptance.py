"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are exact except where a wall-clock budget is stated.
"""

import random
import time
from math import comb, gcd

import numpy as np

from conftest import (brute_force_admissible, diagram_names, fixture_json, lagrangian_loop,
                      paired_names, random_symmetric, tensor_rank_identity, total_rank,
                      two_circles_disk, unitary_group_loop)
from det_oracle import rows_of
from fox_oracle import combo_add, combo_mul, concat, fox_derivative, random_word
from h1_oracle import det, diagonal, matmul, partition_differences
from ring_oracle import (doteq_equal, element, group_add, identity, leibniz_det, ring_of,
                         ring_one, tuple_doteq_normalize)
from sutured_kit import diagram, fox
from sutured_kit.abelian import FinAbGroup, IntMatrix, det_group_ring, smith_normal_form
from sutured_kit.diagram import SuturedDiagram, admissible_lattice
from sutured_kit.fox import load_presentation_json
from sutured_kit.maslov import (SymmetricPath, UnitaryLoop, maslov_loop_index,
                                spectral_flow, symplectic_loop_index)
from sutured_kit.oracle import solid_torus_sfh
from sutured_kit.polytope import (SupportData, depth_bound, hull, is_centrally_symmetric,
                                  seifert_surface_bound)
from test_polytope import support_function


def report(n, text):
    print(f"ACCEPTANCE {n}: {text}: PASS")


def test_criterion_1_solid_torus_table():
    """Prop-9.1 table on the full grid, with the tensor gluing identity."""
    start = time.monotonic()
    for p in range(1, 5):
        for q in range(-5, 6):
            if gcd(p, q) != 1:
                continue
            for n in (2, 4, 6, 8):
                k = (n - 2) // 2
                table = solid_torus_sfh(p, q, n)
                assert table.ranks == {i: comb(k, i // p)
                                       for i in range(p * (k + 1))}
                # each binomial row value occupies p consecutive gradings;
                # the row sum 2^((n-2)/2) therefore repeats p times
                assert total_rank(table) == p * 2 ** k
                if p == 1:
                    assert total_rank(table) == 2 ** ((n - 2) // 2)
                for m in (2, 4, 6, 8):
                    assert tensor_rank_identity(p, q, n, m)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, f"solid-torus table and tensor identity on the grid ({elapsed:.2f}s)")


def test_criterion_2_product_detection():
    """Annulus and disk: one generator, Euler polynomial and torsion both 1."""
    for name in ("annulus", "disk"):
        d = SuturedDiagram.from_json(fixture_json(name))
        gens = diagram.generators(d)
        assert len(gens) == 1
        poly, grp = diagram.euler_polynomial(d)
        assert doteq_equal(poly, ring_one(grp), grp)
        p, k = load_presentation_json(fixture_json(dict(paired_names())[name]))
        tau, pgrp = fox.torsion(p, k)
        assert pgrp == grp
        assert doteq_equal(tau, ring_one(pgrp), pgrp)
    report(2, "product fixtures have one generator and Euler polynomial 1")


def test_criterion_3_cross_module_oracle():
    """Euler polynomial of each paired diagram equals the presentation torsion."""
    start = time.monotonic()
    pairs = paired_names()
    assert pairs
    modes = {}
    for dname, pname in pairs:
        d = SuturedDiagram.from_json(fixture_json(dname))
        poly, dgrp = diagram.euler_polynomial(d)
        p, k = load_presentation_json(fixture_json(pname))
        tau, pgrp = fox.torsion(p, k)
        assert dgrp == pgrp, (dname, pname)
        if doteq_equal(poly, tau, dgrp):
            modes[dname] = "plain"
        else:
            assert doteq_equal(poly, tau, dgrp, allow_inversion=True), (dname, pname)
            modes[dname] = "inverted"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.2f}s"
    report(3, f"cross-module oracle on pairs {modes} ({elapsed:.2f}s)")


def test_criterion_4_fox_calculus_algebra():
    """Product rule and fundamental identity on >= 500 random words."""
    rng = random.Random(20240813)
    one = ()
    for _ in range(520):
        m = rng.randint(1, 4)
        names = ("a", "b", "c", "d")[:m]
        u, w = random_word(rng, names), random_word(rng, names)
        for i in range(m):
            assert fox_derivative(concat(u, w), i, m) == combo_add(
                fox_derivative(u, i, m),
                combo_mul({u.letters: 1}, fox_derivative(w, i, m)))
        lhs = combo_add({w.letters: 1}, {one: -1})
        rhs = {}
        for i in range(m):
            rhs = combo_add(rhs, combo_mul(
                fox_derivative(w, i, m), combo_add({((i, 1),): 1}, {one: -1})))
        assert lhs == rhs
    report(4, "product rule and fundamental identity on 520 random words")


def test_criterion_5_snf_suite():
    """U*A*V = D, unimodularity, divisibility on >= 200 random matrices."""
    rng = random.Random(20240814)
    for _ in range(220):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        a = IntMatrix(tuple(tuple(rng.randint(-9, 9) for _ in range(cols))
                            for _ in range(rows)), rows, cols)
        u, d, v = smith_normal_form(a)
        assert matmul(matmul(u, a), v).entries == diagonal(d, rows, cols)
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        assert all(x >= 0 for x in d)
        for x, y in zip(d, d[1:]):
            assert (y % x == 0) if x else y == 0
    report(5, "Smith normal form contract on 220 random matrices")


def test_criterion_6_determinant_oracle():
    """Cofactor determinant is the +-h normal form of the Leibniz sum over Z[Z] and Z[Z + Z/2]."""
    rng = random.Random(20240815)
    for g in (FinAbGroup(1), FinAbGroup(1, (2,))):
        for _ in range(60):
            n = rng.randint(0, 4)
            m = [[ring_of([(element(g, (rng.randint(-2, 2),),
                                    tuple(rng.randrange(d) for d in g.torsion)),
                            rng.randint(-2, 2))])
                  for _ in range(n)] for _ in range(n)]
            assert det_group_ring(rows_of(m), g) == tuple_doteq_normalize(leibniz_det(m, g), g)
    report(6, "determinant matches the Leibniz expansion (120 random matrices)")


def test_criterion_7_admissibility_oracle():
    """Exact feasibility agrees with brute force on fixtures and random lattices."""
    for name in diagram_names():
        d = SuturedDiagram.from_json(fixture_json(name))
        basis = diagram.periodic_lattice(d)
        assert diagram.is_admissible(d) == brute_force_admissible(basis)
    extra = SuturedDiagram.from_json(two_circles_disk())
    basis = diagram.periodic_lattice(extra)
    assert diagram.is_admissible(extra) == brute_force_admissible(basis) == False  # noqa: E712
    rng = random.Random(20240812)
    checked = 0
    while checked < 60:
        dim = rng.randint(2, 4)
        rank = rng.randint(1, 2)
        vectors = [tuple(rng.randint(-2, 2) for _ in range(dim))
                   for _ in range(rank)]
        if all(not any(v) for v in vectors):
            continue
        assert admissible_lattice(vectors) == brute_force_admissible(vectors), vectors
        checked += 1
    report(7, "admissibility agrees with brute force (fixtures + 60 lattices)")


def test_criterion_8_eps_spinc_suite():
    """eps additivity, domain existence iff eps = 0, and the T(1,0;4) split."""
    for name in diagram_names():
        d = SuturedDiagram.from_json(fixture_json(name))
        gens = diagram.generators(d)
        assert len(gens) <= 50
        grp, _ = diagram.h1_of_M(d)
        for x in gens:
            for y in gens:
                e = diagram.epsilon(d, x, y)
                assert (diagram.connecting_domains(d, x, y) is not None) == \
                    (e == identity(grp))
                for z in gens:
                    assert diagram.epsilon(d, x, z) == \
                        group_add(grp, e, diagram.epsilon(d, y, z))
    d = SuturedDiagram.from_json(fixture_json("t104"))
    part = diagram.spinc_partition(d)
    assert len(diagram.generators(d)) == 2
    assert len(part.classes) == 2
    grp = part.group
    assert grp.free_rank == 1 and not grp.torsion
    diff = partition_differences(part)[(0, 1)]
    assert diff in (element(grp, (1,)), element(grp, (-1,)))
    report(8, "eps additivity, domains iff eps=0, T(1,0;4) splits 2 classes")


def test_criterion_9_polytope():
    """Pretzel triangle asymmetry plus exact support-function properties."""
    s = SupportData.from_json(fixture_json("pretzel222"))
    h = hull(s)
    assert h.dim == 2
    assert len(h.vertices) == 3
    assert not is_centrally_symmetric(h)

    rng = random.Random(20240816)
    done = 0
    while done < 520:
        dim = rng.randint(1, 3)
        pts = set()
        while len(pts) < rng.randint(2, 6):
            pts.add(tuple(rng.randint(-4, 4) for _ in range(dim)))
        hh = hull(SupportData(dim, tuple(sorted(pts))))
        for _ in range(6):
            alpha = tuple(rng.randint(-5, 5) for _ in range(dim))
            beta = tuple(rng.randint(-5, 5) for _ in range(dim))
            m = rng.randint(0, 4)
            assert support_function(hh, tuple(m * a for a in alpha)) == \
                m * support_function(hh, alpha)
            assert support_function(hh, tuple(a + b for a, b in zip(alpha, beta))) \
                <= support_function(hh, alpha) + support_function(hh, beta)
            done += 1
    report(9, "pretzel triangle asymmetric; y_t properties on 520 cases")


def test_criterion_10_rank_bounds():
    assert depth_bound(1) == 0
    assert depth_bound(3) == 2
    assert seifert_surface_bound(3) == 1
    report(10, "depth_bound(1)=0, depth_bound(3)=2, seifert_surface_bound(3)=1")


def test_criterion_11_maslov_and_spectral_flow():
    """Composition law on >= 100 loops at N=512; flow equals the Morse index
    drop on >= 100 interpolation paths; both at integer exactness."""
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        ints_l = [int(x) for x in rng.integers(-2, 3, size=n)]
        ints_t = [int(x) for x in rng.integers(-2, 3, size=n)]
        lam, deg_l = lagrangian_loop(rng, n, 512, ints_l)
        tau, deg_t = unitary_group_loop(rng, n, 512, ints_t)
        prod_loop = [t @ l for t, l in zip(tau, lam)]
        mu_l = maslov_loop_index(UnitaryLoop(lam))
        mu_s = symplectic_loop_index(UnitaryLoop(tau))
        assert mu_l == deg_l and mu_s == deg_t
        assert maslov_loop_index(UnitaryLoop(prod_loop)) == mu_l + 2 * mu_s

    for _ in range(100):
        n = int(rng.integers(1, 5))
        e0 = rng.choice([-2.0, -1.0, 1.0, 2.0], size=n) + rng.normal(scale=0.1, size=n)
        e1 = rng.choice([-2.0, -1.0, 1.0, 2.0], size=n) + rng.normal(scale=0.1, size=n)
        a, b = random_symmetric(rng, n, e0), random_symmetric(rng, n, e1)
        samples = [(1 - s) * a + s * b for s in np.linspace(0, 1, 129)]
        nu = lambda m: int(np.sum(np.linalg.eigvalsh(m) < 0))  # noqa: E731
        assert spectral_flow(SymmetricPath(samples)) == nu(a) - nu(b)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 11 took {elapsed:.2f}s"
    report(11, f"composition law on 100 loops, flow on 100 paths ({elapsed:.1f}s)")
