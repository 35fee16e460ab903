"""Exact integer linear algebra and determinants over integral group rings.

Smith normal form over Z on ``IntMatrix`` (its diagonal comes back as a
tuple), worked on one matrix that holds a with u beside it and v below
it, so each elementary operation is written once; one fraction-free
Gauss-Jordan elimination (``echelon``: ranks, pivot columns, null spaces
and determinants), finitely generated abelian groups in invariant factor
form, and of their integral group rings only what the invariants need:
``det_group_ring``, which returns its determinant in the normal form up
to units of ``doteq_normalize``, that normal form itself and the
inversion h -> h^{-1}; sums and products are left to the tests' oracles,
and the CLI writes ring elements as JSON itself.
Everything is exact: entries are Python ints, there is no floating point
and no modular shortcut, because all downstream comparisons are exact
equalities of torsion polynomials up to units.

A ``FinAbGroup`` comes from ``smith_cokernel``: its torsion, the Smith
diagonal entries >= 2, is a divisibility chain, and is taken as given.
A group element of ``FinAbGroup(free_rank=r, torsion=(d_1,..,d_k))`` is a
named tuple of tuples ``(free, torsion)``, residues reduced mod d_i,
ordered by (free, torsion) as a tuple and built from a coordinate vector
by ``FinAbGroup.from_coords``; ``_key_codec`` packs one into an int,
first coordinate most significant, for the sums of n elements that
``det_group_ring`` and the Spin^c partition add, and reduced elements
pack in their own order, so the normal form up to units works on ints.
The routines that make one element per term (that constructor, the
codec's decode, the normal form and the inversion) build it with
``tuple.__new__``, which skips the Python-level ``__new__`` of the named
tuple.  The group is written multiplicatively when it acts on group-ring
elements, so "multiply by h" means "add h to every exponent".
"""

from collections import namedtuple
from itertools import accumulate, repeat
from math import comb, prod
from operator import mod, mul, neg

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


def smith_normal_form(a, with_v=True):
    """Return (u, d, v) with u*a*v = diag(d) in Smith normal form.

    u and v are unimodular; d is the tuple of the min(rows, cols) diagonal
    entries, nonnegative with d_1 | d_2 | ... .  One working matrix w holds
    all three: row i < rows is row i of a followed by row i of u, and the
    rows of v sit below, u and v starting as identities.  A row operation
    on the top rows then acts on a and u at once, and a column operation on
    the first cols columns on a and v (H. Cohen, A Course in Computational
    Algebraic Number Theory, 2.4.4).  No step reads the rows of v, so with
    ``with_v`` false they are left out, and v comes back as None; u and d
    are the same.  The pivot is the smallest nonzero
    |entry| m of the trailing block, first in row-major order: one ``min``
    per row, a scan that stops at the first row where m is 1, and the
    first column of that row holding +m or -m.  Its row and column are
    cleared by floor division, a remainder left makes a new pivot, and a
    later row with an entry the pivot does not divide is added to the
    pivot row before the step starts over.
    """
    nrows, ncols = a.rows, a.cols
    w = [[*row, *[0] * i, 1, *[0] * (nrows - 1 - i)] for i, row in enumerate(a.entries)]
    if with_v:
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
        best = 0
        for i in range(t, nrows):
            m = min(map(abs, filter(None, w[i][t:ncols])), default=0)
            if m and (not best or m < best):
                best, pi = m, i
                if m == 1:
                    break
        if not best:
            break
        seg = w[pi][t:ncols]
        pj = t + min(seg.index(e) for e in (best, -best) if e in seg)
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
            IntMatrix._of(tuple(map(tuple, w[nrows:])), ncols, ncols) if with_v else None)


def cokernel(a):
    """The quotient Z^rows / column-span(a) as a FinAbGroup in Smith form.

    The returned group remembers the projection from ambient coordinates,
    whose rows give the coordinates of the class of an ambient vector.
    """
    u, d, _ = smith_normal_form(a, with_v=False)
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
        self.free_rank = free_rank
        self.torsion = torsion
        self.projection = projection

    def __eq__(self, other):
        # identity of the abstract group; projections are bookkeeping
        return (isinstance(other, FinAbGroup) and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def from_coords(self, coords):
        """The element with coordinates ``coords``: free exponents, then residues mod d_i."""
        r = self.free_rank
        return tuple.__new__(GroupElement,
                             (tuple(coords[:r]), tuple(map(mod, coords[r:], self.torsion))))


class GroupRingElem:
    """Element of Z[G]: a finite map from group elements to nonzero ints."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for g, c in items:
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
    """Sign of a permutation of range(n): (-1)^(n - number of cycles)."""
    seen = [False] * len(perm)
    parity = len(perm)
    for i in range(len(perm)):
        if not seen[i]:
            parity -= 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return -1 if parity & 1 else 1


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
        nonzero = []
        while row:
            bit = row & -row
            nonzero.append(bit)
            row ^= bit
        level = {mask ^ bit for mask in levels[-1] for bit in nonzero if mask & bit}
        if len(level) > TOO_LARGE_DET:
            raise DeterminantTooLarge(f"{len(level)} minors after row {r + 1} > {TOO_LARGE_DET}")
        levels.append(level)
    return levels


def _digits(keys, radix):
    """The digit columns of ints in a mixed radix whose lower bases are
    ``radix``: first the quotient left above them, then one column per
    base, the last the least significant."""
    cols = []
    for b in reversed(radix):
        pairs = list(map(divmod, keys, repeat(b)))
        keys = [q for q, _ in pairs]
        cols.append([d for _, d in pairs])
    cols.append(keys)
    cols.reverse()
    return cols


def _key_codec(vectors, n, g):
    """(pack, decode, normal_form): sums of n coordinate vectors of g as mixed-radix ints.

    The vectors are laid out as ``FinAbGroup.from_coords`` reads them,
    residues reduced or not; the coordinate count is read from g, so with
    no vectors a key decodes to the identity.  Coordinate c is shifted by
    its minimum lo over the vectors and gets the base n*(hi - lo) + 1, so a
    sum of n digits carries into no other.  The first coordinate is the
    most significant digit, so keys order as their coordinate sums do
    lexicographically, and packed elements as the elements do.  ``pack(v)``
    is one int.  Keys that are sums of exactly n packed vectors are read
    through one reduced int each: the free digits as packed, then the
    residues, n*lo added back and reduced mod d, in the radix (d_1, .., d_k).
    Keys naming one element reduce to one int, and reduced ints order as
    the elements do.  ``decode(keys)`` lists the elements of keys, digit by
    digit over all of them, n*lo added back to the free digits.

    ``normal_form(keys, coeffs)`` is the +-h normal form (see
    ``doteq_normalize``) of the ring element with these terms, keys
    distinct, coefficients nonzero, worked on the reduced ints, whose
    terms merge.  The candidates are those sharing the free digits of the
    least; each form translates only the torsion digits, the free shift
    being the same for all, and the forms are compared as sorted
    (int, coefficient) lists.  Only the least is decoded, in order.
    """
    r = g.free_rank
    tors = g.torsion
    columns = list(zip(*vectors)) or [()] * (r + len(tors))
    lows = [min(col, default=0) for col in columns]
    bases = [n * (max(col, default=0) - lo) + 1 for col, lo in zip(columns, lows)]
    weights = list(accumulate(reversed(bases[1:]), mul, initial=1))[::-1]
    offset = sum(map(mul, lows, weights))
    shifts = [n * lo for lo in lows]
    span = prod(bases[r:])        # the torsion digits of a key, read as one int
    size = prod(tors)             # the reduced residues in the radix (d_1, .., d_k), as one int
    rweights = list(accumulate(reversed(tors[1:]), mul, initial=1))[::-1]    # of that radix

    def pack(v):
        return sum(map(mul, v, weights)) - offset

    def reduce(keys):
        """One int per key: its free digits as packed, then its residues
        mod d in the radix (d_1, .., d_k)."""
        keys = list(keys)
        if not tors:
            return keys
        b, s, d = bases[-1], shifts[-1], tors[-1]
        out = [k // span * size + (k % b + s) % d for k in keys]
        for kw, b, s, d, w in zip(weights[r:-1], bases[r:-1], shifts[r:-1], tors[:-1], rweights):
            out = [x + (k // kw % b + s) % d * w for x, k in zip(out, keys)]
        return out

    def elements(reduced, free_shifts):
        """The elements of reduced ints, free_shifts added to their free digits."""
        cols = _digits(reduced, [*bases[1:r], *tors])
        free = [[d + s for d in col] if s else col for col, s in zip(cols[:r], free_shifts)]
        res = cols[len(cols) - len(tors):]
        count = len(reduced)
        return [tuple.__new__(GroupElement, fr) for fr in
                zip(zip(*free) if free else repeat((), count),
                    zip(*res) if res else repeat((), count))]

    def decode(keys):
        return elements(reduce(keys), shifts)

    def normal_form(keys, coeffs):
        if tors:
            reduced = reduce(keys)
            terms = dict.fromkeys(reduced, 0)
            for k, c in zip(reduced, coeffs):
                terms[k] += c
            terms = {k: c for k, c in terms.items() if c}
        else:
            terms = dict(zip(keys, coeffs))
        if not terms:
            return GroupRingElem._of({})
        keys, coeffs = list(terms), list(terms.values())
        res = [[k // w % d for k in keys] for d, w in zip(tors, rweights)]
        block = [k - k % size for k in keys] if tors else keys      # residues set to 0
        low = min(keys)
        top = low - low % size + size     # the keys below top share the free digits of low

        def form(i):
            """The terms less the residues of candidate i, signed by its coefficient, sorted."""
            shifted = block
            for col, d, w in zip(res, tors, rweights):
                a = col[i]
                shifted = [k + (t - a) % d * w for k, t in zip(shifted, col)]
            return sorted(zip(shifted, coeffs if coeffs[i] > 0 else map(neg, coeffs)))

        keys, coeffs = zip(*min(map(form, [i for i, k in enumerate(keys) if k < top])))
        # the first key is the candidate's own: the free digits of low, residues 0
        first = _digits([keys[0] // size], bases[1:r])
        return GroupRingElem._of(dict(zip(elements(keys, [-col[0] for col in first]), coeffs)))

    return pack, decode, normal_form


def det_group_ring(m, g):
    """The +-h normal form of the determinant of a square matrix over Z[g],
    given by its nonzero cells.

    m is a list of n rows, row i a dict {column j: M_ij} holding only the
    nonzero elements, 0 <= j < n; a missing cell is zero.  Cofactor
    expansion with memoization on the set of unused columns; the ring has
    zero divisors whenever g has torsion, so fraction-free elimination is
    not available.  The expansion order is read from the zero pattern
    alone: rows in ``_footprint_order``, of m or of its transpose (g is
    abelian, so both have the same determinant), whichever bounds fewer
    memo keys; reordering the rows changes only the sign, which the normal
    form absorbs.  Before any ring product a bitmask pass counts the memo
    keys of each row of the order expanded and refuses more than
    TOO_LARGE_DET at one row; if the chosen order is refused, the caller's
    order is counted instead, and only its refusal is raised.  The minors
    are then filled in for those keys, last row first, each from the
    nonzero cells of its row alone: the cofactor sign of column j is the
    parity of the unused columns below j.  The masks and the transpose read
    each nonzero cell once.

    Inside, a group element is one int packed by ``_key_codec``.  A minor
    sums at most n keys, so no digit carries and the group-ring product is
    addition of keys on plain dicts.  The torsion that the determinant
    computes is defined only up to units +-h, so the result is the normal
    form that ``doteq_normalize`` would give, reached from the keys by the
    codec's ``normal_form`` without decoding the determinant itself.
    """
    n = len(m)
    masks = [sum(1 << j for j in row) for row in m]
    cols = [0] * n
    for i, row in enumerate(m):
        for j in row:
            cols[j] |= 1 << i
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
        flip, order, levels = False, range(n), _memo_levels(masks)
    if flip:
        t = [{} for _ in range(n)]
        for i, row in enumerate(m):
            for j, e in row.items():
                t[j][i] = e
        m = t
    m = [m[i] for i in order]

    pack, _, normal_form = _key_codec(
        [h.free + h.torsion for row in m for e in row.values() for h in e._terms], n, g)

    # memo: column mask -> [(key, coeff)] of the minor on the rows below
    memo = {0: [(0, 1)]}
    for r in range(n - 1, -1, -1):
        row = [(1 << j, [(pack(h.free + h.torsion), c) for h, c in m[r][j]._terms.items()])
               for j in sorted(m[r])]
        above = {}
        for mask in levels[r]:
            total = {}
            get = total.get
            for j_bit, entry in row:
                if mask & j_bit:
                    minor = memo[mask ^ j_bit]
                    sign = -1 if (mask & (j_bit - 1)).bit_count() & 1 else 1
                    for ka, ca in entry:
                        ca *= sign
                        for kb, cb in minor:
                            k = ka + kb
                            total[k] = get(k, 0) + ca * cb
            above[mask] = [kc for kc in total.items() if kc[1]]
        memo = above

    items = memo[(1 << n) - 1]
    keys, coeffs = zip(*items) if items else ((), ())
    return normal_form(keys, coeffs)


def doteq_normalize(x, g):
    """Canonical representative of the class of x up to units +-h.

    Translate by the inverse of a support element so that the identity
    becomes the lex-minimal exponent, flip the global sign to make its
    coefficient positive, and among all support elements achieving this
    take the lexicographically smallest result.  Torsion residues are
    never negative, so translating by -s makes the identity lex-minimal
    exactly when s has the lex-minimal free part: those are the
    candidates, each signed by the coefficient of s.  For torsion-free
    groups there is exactly one; with torsion, the residue translates tied
    on the free part are compared, which keeps the form invariant under
    multiplication by units.  The terms are packed one by one and the
    codec's ``normal_form`` does the rest on ints; the result's terms are
    stored in ``items()`` order.
    """
    vectors = [h.free + h.torsion for h in x._terms]
    pack, _, normal_form = _key_codec(vectors, 1, g)
    return normal_form(list(map(pack, vectors)), list(x._terms.values()))


# -- serialization ------------------------------------------------------------

def group_to_json(g):
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}
