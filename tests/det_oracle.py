"""Test-side oracle for the determinant over Z[H_1].

The cofactor expansion the library ran before its packed keys, kept here
as an independent check: the same bitmask pass and memo over column
sets, but every product goes through ``ring_mul`` on ``(free, torsion)``
keys, with torsion residues reduced at each step.  ``oracle_det()``
swaps it in for ``det_group_ring`` in every library module that binds
that name, so whole CLI commands can be run on it; the library hands it
the nonzero cells of each row, which ``dense_of`` fills out with zeros,
and the tuple normal form of ``ring_oracle`` is then taken, the one
result the library's ``det_group_ring`` has.  ``normal_det`` is that
form of the oracle's determinant of a dense matrix, which the tests hold
the library's to.
``rows_of`` goes the other way, from a dense matrix to the dict rows that
the library's ``det_group_ring`` reads.  ``Unreadable`` is the entry that
shows a size bound is checked before any product.
"""

from contextlib import contextmanager

from ring_oracle import ring_add, ring_mul, ring_neg, ring_one, tuple_doteq_normalize
from sutured_kit import abelian, diagram, fox
from sutured_kit.abelian import TOO_LARGE_DET, GroupRingElem
from sutured_kit.errors import DeterminantTooLarge


def rows_of(dense):
    """The nonzero cells of a dense square matrix, one dict {column: entry} per row."""
    return [{j: e for j, e in enumerate(row) if not e.is_zero()} for row in dense]


def dense_of(rows):
    """The n x n matrix, n = len(rows), with the cells of rows[i] in row i and 0 elsewhere."""
    zero = GroupRingElem({})
    return [[row.get(j, zero) for j in range(len(rows))] for row in rows]


def det_group_ring(m, g):
    """Determinant of a dense square matrix over Z[g].

    Cofactor expansion with memoization on the set of unused columns; the
    ring has zero divisors whenever g has torsion, so fraction-free
    elimination is not available.  Before any ring product a bitmask pass
    counts the memo keys of each row, the column sets left by nonzero picks
    in the rows above, and refuses more than TOO_LARGE_DET at one row.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    level = {(1 << n) - 1}
    for r, row in enumerate(m):
        nonzero = [1 << j for j, e in enumerate(row) if not e.is_zero()]
        level = {mask ^ bit for mask in level for bit in nonzero if mask & bit}
        if len(level) > TOO_LARGE_DET:
            raise DeterminantTooLarge(f"{len(level)} minors after row {r + 1} > {TOO_LARGE_DET}")
    memo = {}

    def minor(mask):
        # mask: bitmask of still-available columns; row index = n - popcount
        if mask == 0:
            return ring_one(g)
        got = memo.get(mask)
        if got is not None:
            return got
        row = n - bin(mask).count("1")
        total = GroupRingElem({})
        sign = 1
        rest = mask
        while rest:
            j_bit = rest & (-rest)
            rest ^= j_bit
            j = j_bit.bit_length() - 1
            entry = m[row][j]
            if not entry.is_zero():
                sub = minor(mask ^ j_bit)
                term = ring_mul(entry, sub, g)
                total = ring_add(total, term if sign > 0 else ring_neg(term))
            sign = -sign
        memo[mask] = total
        return total

    return minor((1 << n) - 1)


class Unreadable:
    """Nonzero to the bitmask pass, with no terms for anything after it to read."""

    def is_zero(self):
        return False


def normal_det(m, g):
    """The +-h normal form, by the tuple oracle, of the determinant of a dense matrix."""
    return tuple_doteq_normalize(det_group_ring(m, g), g)


def det_of_rows(rows, g):
    """``normal_det`` on the library's input form."""
    return normal_det(dense_of(rows), g)


@contextmanager
def oracle_det():
    """Run the library on this module's ``det_group_ring`` inside the block."""
    modules = (abelian, fox, diagram)
    saved = [mod.det_group_ring for mod in modules]
    for mod in modules:
        mod.det_group_ring = det_of_rows
    try:
        yield
    finally:
        for mod, fn in zip(modules, saved):
            mod.det_group_ring = fn
