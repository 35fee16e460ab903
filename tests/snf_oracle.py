"""Test-side oracle for the Smith normal form.

``smith_normal_form`` as the library ran it before it worked on one
matrix: a, u and v are three arrays, and every row operation, column
operation, swap and sign flip is written once on a and again on the
transform it touches.  The pivot sequence is the library's, so both must
return the same (u, d, v) entry for entry.
"""

from sutured_kit.abelian import IntMatrix


def smith_normal_form(a):
    """Return (u, d, v) with u*a*v = diag(d) in Smith normal form.

    u and v are unimodular; d is the tuple of the min(rows, cols) diagonal
    entries, nonnegative with d_1 | d_2 | ... .  Pivoting always picks the
    smallest nonzero entry in absolute value (the matrices showing up here
    stay small).
    """
    nrows, ncols = a.rows, a.cols
    m = [list(row) for row in a.entries]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_sub(i, k, q):
        # row_i -= q * row_k
        mi, mk = m[i], m[k]
        for j in range(ncols):
            mi[j] -= q * mk[j]
        ui, uk = u[i], u[k]
        for j in range(nrows):
            ui[j] -= q * uk[j]

    def col_sub(j, k, q):
        # col_j -= q * col_k
        for row in m:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    t = 0
    while True:
        # locate the smallest-magnitude nonzero pivot in the trailing block
        pi = pj = -1
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                e = m[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    pi, pj = i, j
        if best is None:
            break
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        if m[t][t] < 0:
            for j in range(ncols):
                m[t][j] = -m[t][j]
            for j in range(nrows):
                u[t][j] = -u[t][j]

        dirty = False
        for i in range(t + 1, nrows):
            if m[i][t] != 0:
                row_sub(i, t, m[i][t] // m[t][t])
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, ncols):
            if m[t][j] != 0:
                col_sub(j, t, m[t][j] // m[t][t])
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # a strictly smaller remainder appeared; re-pivot

        # divisibility: fold any non-multiple into row t and restart the block
        pivot = m[t][t]
        viol = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % pivot != 0:
                    viol = i
                    break
            if viol is not None:
                break
        if viol is not None:
            row_sub(t, viol, -1)  # row_t += row_viol
            continue
        t += 1

    return (IntMatrix._of(tuple(map(tuple, u)), nrows, nrows),
            tuple(m[i][i] for i in range(min(nrows, ncols))),
            IntMatrix._of(tuple(map(tuple, v)), ncols, ncols))
