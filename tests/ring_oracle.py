"""Test-side arithmetic in Z[G]: the library forms only determinants and
+-h normal forms, the oracles also sums, products, translates, equality up
to units and the Leibniz expansion of a determinant."""

from itertools import permutations

from sutured_kit.abelian import GroupRingElem, doteq_normalize, ring_invert_exponents


def ring_one(g):
    return GroupRingElem({g.identity(): 1})


def ring_add(x, y):
    terms = dict(x._terms)
    for g, c in y._terms.items():
        terms[g] = terms.get(g, 0) + c
    return GroupRingElem(terms)


def ring_neg(x):
    return GroupRingElem({g: -c for g, c in x._terms.items()})


def ring_mul(x, y, g):
    """Convolution product in Z[g]; exponents add, torsion residues mod d_i."""
    terms = {}
    for a, ca in x._terms.items():
        for b, cb in y._terms.items():
            s = g.add(a, b)
            terms[s] = terms.get(s, 0) + ca * cb
    return GroupRingElem(terms)


def ring_translate(x, h, g):
    """Multiply by the single group element h."""
    return GroupRingElem({g.add(a, h): c for a, c in x._terms.items()})


def leibniz_det(m, g):
    """Determinant over Z[g] as the signed sum over all permutations."""
    n = len(m)
    total = GroupRingElem()
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ring_one(g)
        for i in range(n):
            term = ring_mul(term, m[i][perm[i]], g)
        total = ring_add(total, ring_neg(term) if inversions % 2 else term)
    return total


def doteq_equal(x, y, g, allow_inversion=False):
    """Equality up to +-h, optionally also up to the inversion h -> h^{-1}."""
    nx = doteq_normalize(x, g)
    return nx == doteq_normalize(y, g) or (
        allow_inversion and nx == doteq_normalize(ring_invert_exponents(y, g), g))
