"""Test-side arithmetic in G and Z[G]: the library forms only +-h normal
forms, of determinants among others, the oracles also the group law on
single elements (``group_add``, ``group_neg``, ``group_sub``), the
mat-vec ``matvec``, the class of an ambient vector (``from_ambient``),
the shape of an element as the library hands one out (``is_element``),
sums, products, translates, equality up to units and the Leibniz
expansion of a determinant.  Also
kept here as references: the normal form on ``(free, torsion)`` pairs that
the library ran before it worked on packed ints, the normal form and the
inversion written with one ``group_add``/``group_neg`` per term, and the
JSON term list of a ring element, whose indented dump the CLI's writer
must reproduce byte for byte."""

from itertools import chain, permutations
from operator import mod, mul, sub

from sutured_kit.abelian import GroupRingElem, doteq_normalize, ring_invert_exponents


def element(g, free=(), torsion=()):
    """The element of g with these free exponents and torsion residues."""
    free, torsion = tuple(map(int, free)), tuple(map(int, torsion))
    if len(free) != g.free_rank or len(torsion) != len(g.torsion):
        raise ValueError("component count mismatch")
    return g.from_coords(free + torsion)


def matvec(a, vec):
    """The IntMatrix a applied to a dense vector of length a.cols."""
    if a.cols != len(vec):
        raise ValueError("dimension mismatch")
    return tuple(sum(map(mul, row, vec)) for row in a.entries)


def is_element(g, h):
    """h is an element of g as the library hands one out: a plain pair of
    int tuples, the free exponents and the residues, each in [0, d)."""
    if type(h) is not tuple or len(h) != 2:
        return False
    free, res = h
    return (type(free) is tuple and type(res) is tuple and len(free) == g.free_rank
            and len(res) == len(g.torsion) and all(type(x) is int for x in free + res)
            and all(0 <= x < d for x, d in zip(res, g.torsion)))


def from_ambient(g, vec):
    """The class in g of a vector in the coordinates g was presented in."""
    if g.projection is None:
        raise ValueError("group carries no ambient projection")
    return g.from_coords(matvec(g.projection, tuple(vec)))


def group_add(g, x, y):
    (xf, xt), (yf, yt) = x, y
    free = tuple(a + b for a, b in zip(xf, yf))
    tors = tuple((a + b) % d for a, b, d in zip(xt, yt, g.torsion))
    return free, tors


def group_neg(g, x):
    xf, xt = x
    free = tuple(-a for a in xf)
    tors = tuple((-a) % d for a, d in zip(xt, g.torsion))
    return free, tors


def group_sub(g, x, y):
    return group_add(g, x, group_neg(g, y))


def identity(g):
    return (0,) * g.free_rank, (0,) * len(g.torsion)


def ring_one(g):
    return GroupRingElem({identity(g): 1})


def ring_of(pairs):
    """The element on the pairs (h, c): equal elements merged, zero coefficients dropped."""
    terms = {}
    for h, c in pairs:
        terms[h] = terms.get(h, 0) + c
    return GroupRingElem({h: c for h, c in terms.items() if c})


def ring_add(x, y):
    return ring_of(chain(x._terms.items(), y._terms.items()))


def ring_neg(x):
    return GroupRingElem({g: -c for g, c in x._terms.items()})


def ring_mul(x, y, g):
    """Convolution product in Z[g]; exponents add, torsion residues mod d_i."""
    return ring_of((group_add(g, a, b), ca * cb)
                   for a, ca in x._terms.items() for b, cb in y._terms.items())


def ring_translate(x, h, g):
    """Multiply by the single group element h."""
    return GroupRingElem({group_add(g, a, h): c for a, c in x._terms.items()})


def leibniz_det(m, g):
    """Determinant over Z[g] as the signed sum over all permutations."""
    n = len(m)
    total = GroupRingElem({})
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


def tuple_doteq_normalize(x, g):
    """``doteq_normalize`` on tuples: every candidate's form built as a
    ``GroupRingElem``, translated by tuple arithmetic, compared by ``items()``."""
    if x.is_zero():
        return x
    terms = x._terms
    low = min(terms)[0]
    tors = g.torsion
    forms = []
    for (sf, st), c in terms.items():
        if sf == low:
            sign = 1 if c > 0 else -1
            forms.append(GroupRingElem({
                (tuple(map(sub, free, sf)), tuple(map(mod, map(sub, res, st), tors))): sign * b
                for (free, res), b in terms.items()}))
    return forms[0] if len(forms) == 1 else min(forms, key=GroupRingElem.items)


def per_term_doteq_normalize(x, g):
    """``doteq_normalize`` with one ``group_add`` per term."""
    if x.is_zero():
        return x
    low = min(x._terms)[0]
    forms = []
    for s, c in x._terms.items():
        if s[0] == low:
            inv, sign = group_neg(g, s), (1 if c > 0 else -1)
            forms.append(GroupRingElem({group_add(g, a, inv): sign * b
                                        for a, b in x._terms.items()}))
    return forms[0] if len(forms) == 1 else min(forms, key=GroupRingElem.items)


def per_term_invert_exponents(x, g):
    """``ring_invert_exponents`` with one ``group_neg`` per term."""
    return GroupRingElem({group_neg(g, a): c for a, c in x._terms.items()})


def ring_to_json(x):
    """The JSON term list of x, the value whose indented dump ``cli`` writes."""
    return [{"exp_free": list(free), "exp_torsion": list(res), "coeff": c}
            for (free, res), c in x.items()]
