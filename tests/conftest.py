"""Shared test helpers: independent oracles and handmade diagram variants.

Everything here is deliberately independent of the library's own code
paths: convex-hull membership is decided by a small exact simplex,
admissibility by the same simplex and by brute-force enumeration of
lattice combinations, and the Maslov loops are built with a known
winding so the library's answer can be checked against ground truth.
"""

import itertools
import json
from fractions import Fraction

import numpy as np

from sutured_kit.diagram import SuturedDiagram
from sutured_kit.errors import CrossingCountMismatch
from sutured_kit.maslov import CROSSING_SHIFT
from sutured_kit.oracle import solid_torus_sfh


# -- exact linear programming (test-side oracle) --------------------------------

def lp_feasible_eq(A, b):
    """Feasibility of {A x = b, x >= 0} by exact phase-1 simplex (Bland's rule)."""
    m, n = len(A), len(A[0]) if A else 0
    rows = []
    rhs = []
    for i in range(m):
        r = [Fraction(x) for x in A[i]]
        v = Fraction(b[i])
        if v < 0:
            r = [-x for x in r]
            v = -v
        rows.append(r)
        rhs.append(v)
    # tableau with artificial basis; minimize the sum of artificials
    total = n + m
    T = [rows[i] + [Fraction(int(j == i)) for j in range(m)] + [rhs[i]]
         for i in range(m)]
    # reduced costs: original columns get -sum of their entries, the basic
    # artificials start at zero, and the objective cell tracks -sum(rhs)
    cost = [Fraction(0)] * (total + 1)
    for i in range(m):
        for j in range(n):
            cost[j] -= T[i][j]
        cost[total] -= T[i][total]
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][total] / T[i][enter]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            break  # unbounded cannot happen in phase 1
        _, piv = best
        pv = T[piv][enter]
        T[piv] = [x / pv for x in T[piv]]
        for i in range(m):
            if i != piv and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * c for a, c in zip(T[i], T[piv])]
        f = cost[enter]
        cost = [a - f * c for a, c in zip(cost, T[piv])]
        basis[piv] = enter
    return -cost[total] == 0


def in_convex_hull(p, points):
    """Exact membership of p in conv(points)."""
    if not points:
        return False
    d = len(p)
    A = [[q[i] for q in points] for i in range(d)] + [[1] * len(points)]
    b = list(p) + [1]
    return lp_feasible_eq(A, b)


def brute_force_hull_vertices(points):
    """A point is a vertex iff it is not in the hull of the others."""
    out = []
    for i, p in enumerate(points):
        others = [q for j, q in enumerate(points) if j != i]
        if not in_convex_hull(p, others):
            out.append(tuple(p))
    return sorted(out)


# -- admissibility oracle ---------------------------------------------------------

def brute_force_admissible(vectors, bound=5):
    """No nonzero combination with coefficients in [-bound, bound] is >= 0."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return True
    dim = len(vectors[0])
    span = range(-bound, bound + 1)
    for coeffs in itertools.product(span, repeat=len(vectors)):
        if all(c == 0 for c in coeffs):
            continue
        x = [sum(c * v[r] for c, v in zip(coeffs, vectors)) for r in range(dim)]
        if any(x) and all(e >= 0 for e in x):
            return False
    return True


def lp_admissible(vectors):
    """Admissibility by exact LP: the lattice spanned by the columns of B is
    inadmissible iff {B lam+ - B lam- - s = 0, sum(s) = 1, lam+-, s >= 0}
    is feasible, i.e. some B lam is >= 0 and nonzero."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return True
    n = len(vectors[0])
    A = [[v[r] for v in vectors] + [-v[r] for v in vectors] + [-int(i == r) for i in range(n)]
         for r in range(n)]
    A.append([0] * (2 * len(vectors)) + [1] * n)
    return not lp_feasible_eq(A, [0] * n + [1])


# -- rank tables ------------------------------------------------------------------

def total_rank(table):
    """The sum of the ranks of a ``RankTable``."""
    return sum(table.ranks.values())


def tensor_rank_identity(p, q, n, m):
    """total(T(p,q; n+m-2)) == total(T(1,0; n)) * total(T(p,q; m))."""
    lhs = total_rank(solid_torus_sfh(p, q, n + m - 2))
    rhs = total_rank(solid_torus_sfh(1, 0, n)) * total_rank(solid_torus_sfh(p, q, m))
    return lhs == rhs


def equivalent_up_to_affine(a, b):
    """Rank tables equal up to index translation and reflection (the
    identification of Spin^c with Z is only fixed up to an affine map)."""
    def shape(ranks):
        lo = min(ranks, default=0)
        return sorted((i - lo, r) for i, r in ranks.items())

    return shape(b.ranks) in (shape(a.ranks), shape({-i: r for i, r in a.ranks.items()}))


# -- maslov loop builders with known winding ---------------------------------------

def rand_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def lagrangian_loop(rng, n, steps, ints):
    """Loop A(t) = A0 Q^T diag(e^{i pi t m}) Q; closes as Lagrangians.

    Its det^2 winds exactly sum(ints) times.
    """
    Q = rand_orthogonal(rng, n)
    A0 = rand_unitary(rng, n)
    mats = []
    for k in range(steps + 1):
        t = k / steps
        D = np.diag(np.exp(1j * np.pi * t * np.asarray(ints, dtype=float)))
        mats.append(A0 @ Q.T @ D @ Q)
    return mats, sum(ints)


def unitary_group_loop(rng, n, steps, ints):
    """Loop closing in U(n) itself; det winds exactly sum(ints) times."""
    Q = rand_orthogonal(rng, n)
    U0 = rand_unitary(rng, n)
    mats = []
    for k in range(steps + 1):
        t = k / steps
        D = np.diag(np.exp(2j * np.pi * t * np.asarray(ints, dtype=float)))
        mats.append(Q.T @ D @ Q @ U0)
    return mats, sum(ints)


def random_symmetric(rng, n, eigs):
    Q = rand_orthogonal(rng, n)
    return Q.T @ np.diag(np.asarray(eigs, dtype=float)) @ Q


def stepwise_spectral_flow(path):
    """Spectral flow with the shifted count summed step by step along the
    path, as the library computed it before the sum was telescoped."""
    def negatives(a, s=0.0):
        return int(np.sum(np.linalg.eigvalsh(a) + s < 0.0))

    endpoint = negatives(path.samples[0]) - negatives(path.samples[-1])
    crossing = sum(negatives(a, CROSSING_SHIFT) - negatives(b, CROSSING_SHIFT)
                   for a, b in zip(path.samples, path.samples[1:]))
    if crossing != endpoint:
        raise CrossingCountMismatch(f"endpoint count {endpoint} vs crossing count {crossing}")
    return endpoint


# -- handmade diagram variants -------------------------------------------------------

def circle_pairs_disk(k):
    """k disjoint pairs of crossing circles inside a disk, each pair bounding
    three internal regions: valid but unbalanced (each alpha curve bounds),
    with a rank-2k periodic lattice, hence inadmissible."""
    alpha, crossing_sign, regions, outer = [], {}, [], []
    for m in range(k):
        p, q, a, b = f"Q{2 * m}", f"Q{2 * m + 1}", f"a{m + 1}", f"b{m + 1}"
        alpha.append([p, q])
        crossing_sign.update({p: 1, q: -1})
        regions += [{"cycles": [[f"{a}.1", f"{b}.0"]], "boundary_circles": 0},
                    {"cycles": [[f"{a}.0", f"-{b}.0"]], "boundary_circles": 0},
                    {"cycles": [[f"{b}.1", f"-{a}.1"]], "boundary_circles": 0}]
        outer.append([f"-{a}.0", f"-{b}.1"])
    return SuturedDiagram.from_json({
        "genus": 0,
        "boundary_circles": 1,
        "alpha": alpha,
        "beta": [list(c) for c in alpha],
        "crossing_sign": crossing_sign,
        "regions": regions + [{"cycles": outer, "boundary_circles": 1}],
    })


def two_circles_disk():
    """Two crossing circles inside a disk: valid but unbalanced (the alpha
    curve bounds), with a rank-2 periodic lattice, hence inadmissible."""
    return circle_pairs_disk(1)


def annulus_with_core_alpha():
    """Annulus with one embedded alpha circle parallel to the core: valid,
    curve counts 1 vs 0, so unbalanced."""
    return SuturedDiagram.from_json({
        "genus": 0,
        "boundary_circles": 2,
        "alpha": [[]],
        "beta": [],
        "crossing_sign": {},
        "regions": [
            {"cycles": [["a1.0"]], "boundary_circles": 1},
            {"cycles": [["-a1.0"]], "boundary_circles": 1},
        ],
    })


def nested_circles_annulus():
    """Annulus with a beta circle nested inside an alpha circle; both curve
    complements have a component missing the boundary."""
    return SuturedDiagram.from_json({
        "genus": 0,
        "boundary_circles": 2,
        "alpha": [[]],
        "beta": [[]],
        "crossing_sign": {},
        "regions": [
            {"cycles": [["b1.0"]], "boundary_circles": 0},
            {"cycles": [["-b1.0"], ["a1.0"]], "boundary_circles": 0},
            {"cycles": [["-a1.0"]], "boundary_circles": 2},
        ],
    })


def s1xs2_minus_ball():
    """S^1 x S^2 minus a ball on the genus-1 surface with one boundary circle:
    alpha and beta meet twice with opposite signs, so alpha - beta bounds
    and the periodic lattice has rank 1, with H_1(M) = Z; admissible."""
    return SuturedDiagram.from_json({
        "genus": 1,
        "boundary_circles": 1,
        "alpha": [["P0", "P1"]],
        "beta": [["P0", "P1"]],
        "crossing_sign": {"P0": 1, "P1": -1},
        "regions": [
            {"cycles": [["a1.0", "-b1.0"]], "boundary_circles": 0},
            {"cycles": [["b1.1", "-a1.1"]], "boundary_circles": 0},
            {"cycles": [["a1.1", "b1.0"], ["-a1.0", "-b1.1"]], "boundary_circles": 1},
        ],
    })


def t312_json():
    return {
        "genus": 1,
        "boundary_circles": 2,
        "alpha": [["P0", "P1", "P2"]],
        "beta": [["P0", "P1", "P2"]],
        "crossing_sign": {"P0": 1, "P1": 1, "P2": 1},
        "regions": [
            {"cycles": [["b1.0", "a1.1", "-b1.1", "-a1.0"]], "boundary_circles": 1},
            {"cycles": [["b1.1", "a1.2", "-b1.2", "-a1.1"]], "boundary_circles": 1},
            {"cycles": [["b1.2", "a1.0", "-b1.0", "-a1.2"]], "boundary_circles": 0},
        ],
    }


def t312_sign_variant():
    """Three intersection points with signs alternating along the Spin^c
    order (the difference classes of P2, P0, P1 are consecutive), giving
    the alternating polynomial 1 - h + h^2."""
    data = t312_json()
    data["crossing_sign"] = {"P0": -1, "P1": 1, "P2": 1}
    return SuturedDiagram.from_json(data)


def rename_points(data, mapping):
    """Rename intersection points in a diagram JSON dict."""
    out = json.loads(json.dumps(data))
    out["alpha"] = [[mapping.get(p, p) for p in c] for c in out["alpha"]]
    out["beta"] = [[mapping.get(p, p) for p in c] for c in out["beta"]]
    out["crossing_sign"] = {mapping.get(p, p): s
                            for p, s in out["crossing_sign"].items()}
    return out


def _remap_arc_refs(data, remap):
    """Copy of a diagram JSON dict with remap(name, arc) -> (name, arc)
    applied to every arc reference of the region cycles."""
    out = json.loads(json.dumps(data))

    def ref(text):
        sign = ""
        if text.startswith("-"):
            sign, text = "-", text[1:]
        name, _, arc = text.partition(".")
        name, arc = remap(name, int(arc))
        return f"{sign}{name}.{arc}"

    for region in out["regions"]:
        region["cycles"] = [[ref(r) for r in cyc] for cyc in region["cycles"]]
    return out


def _swap_curves(data, family, i, j):
    names = {f"{family[0]}{i + 1}": f"{family[0]}{j + 1}",
             f"{family[0]}{j + 1}": f"{family[0]}{i + 1}"}
    out = _remap_arc_refs(data, lambda name, arc: (names.get(name, name), arc))
    out[family][i], out[family][j] = out[family][j], out[family][i]
    return out


def swap_alpha_curves(data, i=0, j=1):
    """Swap alpha curves i and j (0-based) of a diagram JSON dict, fixing arc refs."""
    return _swap_curves(data, "alpha", i, j)


def swap_beta_curves(data, i=0, j=1):
    """Swap beta curves i and j (0-based) of a diagram JSON dict, fixing arc refs."""
    return _swap_curves(data, "beta", i, j)


def reverse_region(data, r):
    """Reverse every boundary cycle of region r, as if seen from the other side."""
    out = json.loads(json.dumps(data))
    out["regions"][r]["cycles"] = [[ref[1:] if ref.startswith("-") else "-" + ref
                                    for ref in reversed(cyc)]
                                   for cyc in out["regions"][r]["cycles"]]
    return out


def rotate_curve(data, family, i, shift):
    """Start curve i of ``family`` ("alpha" or "beta") at its point ``shift``.

    Arc k of the rotated curve is arc k + shift of the old one, so region
    cycles re-index that curve's arcs by -shift (mod the point count).  A
    curve without points has a single loop arc and is left as it is.
    """
    pts = data[family][i]
    if not pts:
        return json.loads(json.dumps(data))
    shift %= len(pts)
    name = f"{family[0]}{i + 1}"
    out = _remap_arc_refs(data, lambda n, arc: (n, (arc - shift) % len(pts) if n == name else arc))
    out[family][i] = pts[shift:] + pts[:shift]
    return out
