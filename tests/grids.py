"""Grid diagrams: knots on the diagram side, with known answers.

A grid of size n marks one O and one X in each row and each column of an
n x n grid, ``o[i]`` and ``x[i]`` the columns of the marks in row i, no O
and X in one square.  Drawn on the torus, its n horizontal circles are the
alpha curves and its n vertical circles the beta curves, and a boundary
circle in each of the 2n marked squares makes it a sutured Heegaard
diagram of the knot complement with 2n meridional sutures (Manolescu,
Ozsvath and Sarkar, *A combinatorial description of knot Floer homology*,
Ann. of Math. 2009).  Its SFH is HFK-hat (x) V^(n-1), V of rank 2, so its
Euler polynomial is Delta_K(t) (1 - t)^(n-1) up to +-t^k, when the grid is
a knot: the rows visited by i -> the row of the X in column o[i] form one
n-cycle.

- ``grid_diagram(o, x)``: the diagram document.  p_ij = alpha_i meets
  beta_j; alpha_i lists p_i0..p_i,n-1, beta_j lists p_0j..p_n-1,j; every
  crossing sign is +1; square (i, j) is one region bounded by
  ``a{i+1}.{j}``, ``b{j'+1}.{i}``, ``-a{i'+1}.{j}``, ``-b{j+1}.{i}``,
  i' = i + 1 and j' = j + 1 mod n.
- ``torus_grid(n, k)``: O at (i, i) and X at (i, i + k mod n), gcd(k, n) =
  1, the torus knot T(k, n - k).
- ``random_knot_grid(rng, n)``: o a random permutation and x = o after a
  random n-cycle, so o^-1 x is one n-cycle.
- ``wirtinger(o, x)``: the Wirtinger presentation of the knot the grid
  draws, vertical strands over horizontal ones, as ``fox.load_presentation_json``
  reads it, with the meridian ``x0`` as inclusion word.
- ``cyclic_rows``, ``cyclic_columns`` and ``stabilize``: the grid moves
  (Cromwell, *Embedding knots and links in an open book I*, Topology Appl.
  1995).  The first two keep the knot and n; a stabilization keeps the
  knot and adds one to n, so it multiplies the Euler polynomial by 1 - t.
"""

from knots import _letter


def grid_diagram(o, x):
    """The sutured diagram document of the grid with marks o and x."""
    n = len(o)
    marked = {(i, o[i]) for i in range(n)} | {(i, x[i]) for i in range(n)}
    regions = [{"cycles": [[f"a{i + 1}.{j}", f"b{(j + 1) % n + 1}.{i}",
                            f"-a{(i + 1) % n + 1}.{j}", f"-b{j + 1}.{i}"]],
                "boundary_circles": int((i, j) in marked), "genus": 0}
               for i in range(n) for j in range(n)]
    return {"genus": 1, "boundary_circles": 2 * n,
            "alpha": [[f"p{i}_{j}" for j in range(n)] for i in range(n)],
            "beta": [[f"p{i}_{j}" for i in range(n)] for j in range(n)],
            "crossing_sign": {f"p{i}_{j}": 1 for i in range(n) for j in range(n)},
            "regions": regions}


def torus_grid(n, k):
    """The grid of T(k, n - k): O at (i, i), X at (i, i + k mod n)."""
    return list(range(n)), [(i + k) % n for i in range(n)]


def random_knot_grid(rng, n):
    """A knot grid of size n >= 2, drawn with ``rng``."""
    o = rng.sample(range(n), n)
    rows = rng.sample(range(n), n)
    cycle = {a: b for a, b in zip(rows, rows[1:] + rows[:1])}
    return o, [o[cycle[i]] for i in range(n)]


def _sign(v):
    return (v > 0) - (v < 0)


def wirtinger(o, x):
    """The Wirtinger presentation of the knot grid (o, x).

    The knot runs from X to O along each row and from O to X along each
    column; the vertical strands pass over.  Arcs break at each
    undercrossing in traversal order, arc 0 running into the first.  At a
    crossing of sign e, under arc ``a`` running into over arc ``v`` and
    out as ``b``, the relator is b v^e a^-1 v^-e; the last one is dropped.
    """
    n = len(o)
    o_row = {c: i for i, c in enumerate(o)}
    x_row = {c: i for i, c in enumerate(x)}
    walk, row = [], 0
    for _ in range(n):      # the row's horizontal strand, then the column of its O
        step = _sign(o[row] - x[row])
        cols = [c for c in range(x[row] + step, o[row], step)
                if min(o_row[c], x_row[c]) < row < max(o_row[c], x_row[c])]
        walk.append((row, cols))
        row = x_row[o[row]]
    over, crossings, arc = {}, [], 0
    for row, cols in walk:
        for c in cols:
            # under strand along the row, over strand down or up column c
            e = _sign(o[row] - x[row]) * _sign(x_row[c] - o_row[c])
            crossings.append((arc, c, e))
            arc += 1
        over[o[row]] = arc
    count = max(arc, 1)
    names = [f"x{a}" for a in range(count)]
    relators = []
    for a, c, e in crossings[:-1]:
        v = names[over[c] % count]
        relators.append(" ".join([names[(a + 1) % count], _letter(v, e),
                                  _letter(names[a], -1), _letter(v, -e)]))
    return {"generators": names, "relators": relators, "boundary_genus": 1,
            "sigma_images": [names[0]]}


def cyclic_rows(o, x):
    """The grid with its first row moved to the bottom."""
    return o[1:] + o[:1], x[1:] + x[:1]


def cyclic_columns(o, x):
    """The grid with its last column moved to the front."""
    n = len(o)
    return [(c + 1) % n for c in o], [(c + 1) % n for c in x]


def stabilize(o, x, i):
    """The stabilization at the X of row i, column c: a row inserted after i
    and a column after c.  Row i keeps its O and takes its X to column
    c + 1; the new row has its X at c and its O at c + 1."""
    c = x[i]

    def col(j):
        return j + (j > c)

    o2, x2 = [col(j) for j in o], [col(j) for j in x]
    x2[i] = c + 1
    return o2[:i + 1] + [c + 1] + o2[i + 1:], x2[:i + 1] + [c] + x2[i + 1:]
