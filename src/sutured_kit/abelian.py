"""Exact integer linear algebra and determinants over integral group rings.

Smith normal form over Z on ``IntMatrix`` (its diagonal comes back as a
tuple), worked on one matrix that holds a with u beside it and v below
it, so each elementary operation is written once; one fraction-free
Gauss-Jordan elimination (``echelon``: ranks, pivot columns, null spaces
and determinants), finitely generated abelian groups in invariant factor
form, and of their integral group rings only what the invariants need:
``det_group_ring``, the normal form up to units ``doteq_normalize`` and
the inversion h -> h^{-1}; sums and products are left to the tests'
oracles, and the CLI writes ring elements as JSON itself.
Everything is exact: entries are Python ints, there is no floating point
and no modular shortcut, because all downstream comparisons are exact
equalities of torsion polynomials up to units.

A group element of ``FinAbGroup(free_rank=r, torsion=(d_1,..,d_k))`` is a
named tuple of tuples ``(free, torsion)``, residues reduced mod d_i,
ordered by (free, torsion) as a tuple and built from a coordinate vector
by ``FinAbGroup.from_coords``.  The routines that make one element per
term (that constructor, the determinant's decode, the normal form and the
inversion) build it with ``tuple.__new__``, which skips the Python-level
``__new__`` of the named tuple.  The group is written multiplicatively
when it acts on group-ring elements, so "multiply by h" means "add h to
every exponent".
"""

from collections import namedtuple
from itertools import repeat
from math import comb
from operator import mod, mul, neg, sub

from .errors import DeterminantTooLarge

TOO_LARGE_DET = comb(16, 8)    # most minors kept at one row: dense 16 x 16, row 8


class IntMatrix:
    """Integer matrix, row major: the Smith form's argument and its transforms."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, rows=None, cols=None):
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        if rows is None:
            rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("ragged or mis-sized matrix")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _of(cls, entries, rows, cols):
        """The matrix on ``entries``, a rows x cols tuple of int tuples."""
        a = object.__new__(cls)
        a.rows, a.cols, a.entries = rows, cols, entries
        return a

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.entries))!r})"

    def __matmul__(self, vec):
        if self.cols != len(vec):
            raise ValueError("dimension mismatch")
        return tuple(sum(map(mul, row, vec)) for row in self.entries)

    def column(self, j):
        return tuple(row[j] for row in self.entries)


def echelon(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss).

    Returns ``(pivots, m, sign)``: the pivot columns, so their number is
    the rank; the rows, row k below the rank being D times row k of the
    reduced row echelon form over Q (D the last pivot, which is sign * det
    for a square matrix of full rank) and every later row zero; and the
    sign of the row swaps.  A step clears the pivot column with
    ``(p*x - f*y) // prev``, exact by Sylvester's identity.
    """
    m = [list(r) for r in rows]
    pivots = []
    sign = prev = 1
    for c in range(len(m[0]) if m else 0):
        k = len(pivots)
        piv = next((i for i in range(k, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top = m[k]
        p = top[c]
        for i, row in enumerate(m):
            if i != k:
                f = row[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
    return pivots, m, sign


def smith_normal_form(a):
    """Return (u, d, v) with u*a*v = diag(d) in Smith normal form.

    u and v are unimodular; d is the tuple of the min(rows, cols) diagonal
    entries, nonnegative with d_1 | d_2 | ... .  One working matrix w holds
    all three: row i < rows is row i of a followed by row i of u, and the
    rows of v sit below, u and v starting as identities.  A row operation
    on the top rows then acts on a and u at once, and a column operation on
    the first cols columns on a and v (H. Cohen, A Course in Computational
    Algebraic Number Theory, 2.4.4).  The pivot is the smallest nonzero
    |entry| of the trailing block, first in row-major order; its row and
    column are cleared by floor division, a remainder left makes a new
    pivot, and a later row with an entry the pivot does not divide is added
    to the pivot row before the step starts over.
    """
    nrows, ncols = a.rows, a.cols
    w = [[*row, *[0] * i, 1, *[0] * (nrows - 1 - i)] for i, row in enumerate(a.entries)]
    w += ([*[0] * j, 1, *[0] * (ncols - 1 - j)] for j in range(ncols))

    def row_sub(i, k, q):
        # row_i -= q * row_k, on a and u
        w[i] = [x - q * y for x, y in zip(w[i], w[k])]

    def col_sub(j, k, q):
        # col_j -= q * col_k, on a and v
        for row in w:
            row[j] -= q * row[k]

    t = 0
    while True:
        pivot = min(((abs(e), i, j) for i in range(t, nrows)
                     for j, e in enumerate(w[i][t:ncols], t) if e), default=None)
        if pivot is None:
            break
        _, pi, pj = pivot
        w[t], w[pi] = w[pi], w[t]
        if pj != t:
            for row in w:
                row[t], row[pj] = row[pj], row[t]
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
        p = w[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            if w[i][t]:
                row_sub(i, t, w[i][t] // p)
                dirty = dirty or w[i][t] != 0
        for j in range(t + 1, ncols):
            if w[t][j]:
                col_sub(j, t, w[t][j] // p)
                dirty = dirty or w[t][j] != 0
        if dirty:
            continue  # a smaller remainder is left: pivot again
        rows = range(t + 1, nrows) if p > 1 else ()  # 1 divides every entry
        viol = next((i for i in rows if any(map(mod, w[i][t + 1:ncols], repeat(p)))), None)
        if viol is None:
            t += 1
        else:
            row_sub(t, viol, -1)  # row_t += row_viol
    return (IntMatrix._of(tuple(tuple(row[ncols:]) for row in w[:nrows]), nrows, nrows),
            tuple(w[i][i] for i in range(min(nrows, ncols))),
            IntMatrix._of(tuple(map(tuple, w[nrows:])), ncols, ncols))


def cokernel(a):
    """The quotient Z^rows / column-span(a) as a FinAbGroup in Smith form.

    The returned group remembers the projection from ambient coordinates,
    so classes of ambient vectors can be computed with ``from_ambient``.
    """
    u, d, _ = smith_normal_form(a)
    return smith_cokernel(u, d)


def smith_cokernel(u, d):
    """``cokernel(a)`` from the u and the diagonal tuple d of ``smith_normal_form(a)``."""
    n = u.rows
    rank = sum(1 for x in d if x != 0)
    tors_idx = [i for i in range(rank) if d[i] >= 2]
    # free coordinates: the rows of u past the rank; torsion ones: those with d_i >= 2
    proj_rows = u.entries[rank:] + tuple(u.entries[i] for i in tors_idx)
    projection = IntMatrix._of(proj_rows, len(proj_rows), n)
    return FinAbGroup(n - rank, tuple(d[i] for i in tors_idx), projection=projection)


class GroupElement(namedtuple("GroupElement", "free torsion")):
    """Element of a FinAbGroup: free exponents plus reduced torsion residues."""

    __slots__ = ()

    def is_identity(self):
        return not any(self.free) and not any(self.torsion)


class FinAbGroup:
    """Finitely generated abelian group Z^r + Z/d_1 + ... + Z/d_k, d_i | d_{i+1}."""

    def __init__(self, free_rank, torsion=(), projection=None):
        torsion = tuple(int(t) for t in torsion)
        if any(t < 2 for t in torsion):
            raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisibility chain")
        self.free_rank = int(free_rank)
        self.torsion = torsion
        self.projection = projection

    def __repr__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return "FinAbGroup(" + (" + ".join(parts) if parts else "0") + ")"

    def __eq__(self, other):
        # identity of the abstract group; projections are bookkeeping
        return (isinstance(other, FinAbGroup) and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def from_coords(self, coords):
        """The element with coordinates ``coords``: free exponents, then residues mod d_i."""
        r = self.free_rank
        return tuple.__new__(GroupElement,
                             (tuple(coords[:r]), tuple(map(mod, coords[r:], self.torsion))))

    def from_ambient(self, vec):
        if self.projection is None:
            raise ValueError("group carries no ambient projection")
        return self.from_coords(self.projection @ tuple(vec))

    def add(self, x, y):
        free = tuple(a + b for a, b in zip(x.free, y.free))
        tors = tuple((a + b) % d for a, b, d in zip(x.torsion, y.torsion, self.torsion))
        return GroupElement(free, tors)

    def neg(self, x):
        free = tuple(-a for a in x.free)
        tors = tuple((-a) % d for a, d in zip(x.torsion, self.torsion))
        return GroupElement(free, tors)

    def sub(self, x, y):
        return self.add(x, self.neg(y))


class GroupRingElem:
    """Element of Z[G]: a finite map from group elements to nonzero ints."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for g, c in items:
            c = int(c)
            if c:
                c += clean.get(g, 0)
                if c:
                    clean[g] = c
                else:
                    del clean[g]
        self._terms = clean

    @classmethod
    def _of(cls, terms):
        """The element on ``terms``, a dict already merged and free of zero coefficients."""
        x = object.__new__(cls)
        x._terms = terms
        return x

    def items(self):
        return sorted(self._terms.items())

    def support(self):
        return sorted(self._terms)

    def is_zero(self):
        return not self._terms

    def __eq__(self, other):
        return isinstance(other, GroupRingElem) and self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        if self.is_zero():
            return "GroupRingElem(0)"
        bits = [f"{c}*{g.free}{g.torsion}" for g, c in self.items()]
        return "GroupRingElem(" + " + ".join(bits) + ")"


def ring_invert_exponents(x, g):
    """Apply the automorphism h -> h^{-1} to every exponent."""
    tors = g.torsion
    return GroupRingElem._of({
        tuple.__new__(GroupElement, (tuple(map(neg, free)),
                                     tuple(map(mod, map(neg, res), tors)))): c
        for (free, res), c in x._terms.items()})


def ring_aug(x):
    """Augmentation: sum of coefficients."""
    return sum(x._terms.values())


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _footprint_order(masks):
    """Greedy row order by column footprint, and its bound on the memo keys.

    The next row is the one whose nonzero columns add the fewest new columns
    to the union of the rows already taken; ties go to fewer nonzeros, then
    to the lower index.  After r rows every memo key lacks r columns of that
    union, so sum_r C(|union|, r) bounds the keys of the whole expansion.
    """
    left = list(range(len(masks)))
    order, union, cost = [], 0, 0
    while left:
        i = min(left, key=lambda i: ((masks[i] & ~union).bit_count(), masks[i].bit_count(), i))
        left.remove(i)
        order.append(i)
        union |= masks[i]
        cost += comb(union.bit_count(), len(order))
    return cost, order


def _memo_levels(masks):
    """The memo keys of each row, the column sets left by nonzero picks in
    the rows above; refuses more than TOO_LARGE_DET at one row."""
    n = len(masks)
    levels = [{(1 << n) - 1}]
    for r, row in enumerate(masks):
        nonzero = [1 << j for j in range(n) if row >> j & 1]
        level = {mask ^ bit for mask in levels[-1] for bit in nonzero if mask & bit}
        if len(level) > TOO_LARGE_DET:
            raise DeterminantTooLarge(f"{len(level)} minors after row {r + 1} > {TOO_LARGE_DET}")
        levels.append(level)
    return levels


def det_group_ring(m, g):
    """Determinant of a square matrix over Z[g].

    Cofactor expansion with memoization on the set of unused columns; the
    ring has zero divisors whenever g has torsion, so fraction-free
    elimination is not available.  The expansion order is read from the
    zero pattern alone: rows in ``_footprint_order``, of m or of its
    transpose (g is abelian, so both have the same determinant), whichever
    bounds fewer memo keys, and the result times the sign of that row
    permutation.  Before any ring product a bitmask pass counts the memo
    keys of each row of the order expanded and refuses more than
    TOO_LARGE_DET at one row; if the chosen order is refused, the caller's
    order is counted instead, and only its refusal is raised.  The minors
    are then filled in for those keys, last row first.

    Inside, a group element is one int in mixed radix.  A free coordinate
    is shifted by its minimum lo over all entries and gets the digit base
    n*(hi - lo) + 1; a torsion residue is left unreduced in base
    n*(d - 1) + 1.  A minor sums at most n keys, so no digit carries and
    the group-ring product is addition of keys on plain dicts.  One decode
    at the end undoes the shift n*lo and reduces the residues mod d.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    masks = [sum(1 << j for j, e in enumerate(row) if not e.is_zero()) for row in m]
    cols = [sum((mask >> j & 1) << i for i, mask in enumerate(masks)) for j in range(n)]
    row_cost, row_order = _footprint_order(masks)
    col_cost, col_order = _footprint_order(cols)
    flip = col_cost < row_cost
    order = col_order if flip else row_order
    expanded = [(cols if flip else masks)[i] for i in order]
    try:
        levels = _memo_levels(expanded)
    except DeterminantTooLarge:
        if expanded == masks:
            raise
        flip, order, levels = False, list(range(n)), _memo_levels(masks)
    if flip:
        m = list(zip(*m))
    m = [m[i] for i in order]
    parity = _perm_sign(order)

    elements = [h for row in m for e in row for h in e._terms]
    lows, bases = [], []
    for c in range(g.free_rank):
        lo = min((h.free[c] for h in elements), default=0)
        lows.append(lo)
        bases.append(n * (max((h.free[c] for h in elements), default=0) - lo) + 1)
    bases += [n * (d - 1) + 1 for d in g.torsion]
    weights = [1]
    for b in bases[:-1]:
        weights.append(weights[-1] * b)
    offset = sum(lo * w for lo, w in zip(lows, weights))

    def pack(h):
        return sum(map(mul, h.free + h.torsion, weights)) - offset

    # memo: column mask -> [(key, coeff)] of the minor on the rows below
    memo = {0: [(0, 1)]}
    for r in range(n - 1, -1, -1):
        row = [[(pack(h), c) for h, c in e._terms.items()] for e in m[r]]
        above = {}
        for mask in levels[r]:
            total = {}
            get = total.get
            sign = 1
            rest = mask
            while rest:
                j_bit = rest & (-rest)
                rest ^= j_bit
                entry = row[j_bit.bit_length() - 1]
                if entry:
                    minor = memo[mask ^ j_bit]
                    for ka, ca in entry:
                        ca *= sign
                        for kb, cb in minor:
                            k = ka + kb
                            total[k] = get(k, 0) + ca * cb
                sign = -sign
            above[mask] = [kc for kc in total.items() if kc[1]]
        memo = above

    # one decode, digit by digit over all keys: the lowest digit is key mod
    # bases[0], and the last is what the other bases leave
    items = memo[(1 << n) - 1]
    keys, coeffs = zip(*items) if items else ((), ())
    digits = []
    for b in bases[:-1]:
        pairs = list(map(divmod, keys, repeat(b)))
        keys = [q for q, _ in pairs]
        digits.append([d for _, d in pairs])
    digits.append(keys)
    r = g.free_rank
    free = [[d + s for d in col] for col, s in zip(digits, [n * lo for lo in lows])]
    res = [[d % t for d in col] for col, t in zip(digits[r:], g.torsion)]
    count = len(coeffs)
    coords = zip(zip(*free) if free else repeat((), count), zip(*res) if res else repeat((), count))
    if parity < 0:
        coeffs = [-c for c in coeffs]
    if res:
        # residues that agree mod d now land on one element: merge them first
        merged = {}
        for fr, c in zip(coords, coeffs):
            merged[fr] = merged.get(fr, 0) + c
        coords, coeffs = merged.keys(), merged.values()
    return GroupRingElem._of({tuple.__new__(GroupElement, fr): c
                              for fr, c in zip(coords, coeffs) if c})


def doteq_normalize(x, g):
    """Canonical representative of the class of x up to units +-h.

    Translate by the inverse of a support element so that the identity
    becomes the lex-minimal exponent, flip the global sign to make its
    coefficient positive, and among all support elements achieving this
    take the lexicographically smallest result.  Torsion residues are
    never negative, so translating by -s makes the identity lex-minimal
    exactly when s has the lex-minimal free part: one pass finds the
    candidates, each signed by the coefficient of s.  For torsion-free
    groups there is exactly one; with torsion, the residue translates tied
    on the free part are compared, which keeps the form invariant under
    multiplication by units.
    """
    if x.is_zero():
        return x
    terms = x._terms
    low = min(terms).free
    tors = g.torsion
    forms = []
    for (sf, st), c in terms.items():
        if sf == low:
            sign = 1 if c > 0 else -1
            forms.append(GroupRingElem._of({
                tuple.__new__(GroupElement, (tuple(map(sub, free, sf)),
                                             tuple(map(mod, map(sub, res, st), tors)))): sign * b
                for (free, res), b in terms.items()}))
    return forms[0] if len(forms) == 1 else min(forms, key=GroupRingElem.items)


# -- serialization ------------------------------------------------------------

def group_to_json(g):
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}
