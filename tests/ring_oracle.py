"""Test-side arithmetic in Z[G]: the library forms only determinants and
+-h normal forms, the oracles also sums, products, translates, equality up
to units and the Leibniz expansion of a determinant.  Also kept here as
references: the normal form and the inversion written with one
``g.add``/``g.neg`` per term, and the JSON term list of a ring element,
whose indented dump the CLI's writer must reproduce byte for byte."""

from itertools import permutations

from sutured_kit.abelian import GroupElement, GroupRingElem, doteq_normalize, ring_invert_exponents


def identity(g):
    return GroupElement((0,) * g.free_rank, (0,) * len(g.torsion))


def ring_one(g):
    return GroupRingElem({identity(g): 1})


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


def per_term_doteq_normalize(x, g):
    """``doteq_normalize`` with one ``g.add`` per term and the merging constructor."""
    if x.is_zero():
        return x
    low = min(x._terms).free
    forms = []
    for s, c in x._terms.items():
        if s.free == low:
            inv, sign = g.neg(s), (1 if c > 0 else -1)
            forms.append(GroupRingElem({g.add(a, inv): sign * b for a, b in x._terms.items()}))
    return forms[0] if len(forms) == 1 else min(forms, key=GroupRingElem.items)


def per_term_invert_exponents(x, g):
    """``ring_invert_exponents`` with one ``g.neg`` per term."""
    return GroupRingElem({g.neg(a): c for a, c in x._terms.items()})


def ring_to_json(x):
    """The JSON term list of x, the value whose indented dump ``cli`` writes."""
    return [{"exp_free": list(g.free), "exp_torsion": list(g.torsion), "coeff": c}
            for g, c in x.items()]
