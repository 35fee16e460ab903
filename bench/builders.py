"""Seeded input builders for the benchmark.

Builders return plain JSON data and, for the random families, what the
benchmark knows about it by construction, so outputs can be checked
without trusting the code under test.  Randomness comes from a
``random.Random`` (a ``numpy.random.Generator`` for the Maslov samples)
passed in by the caller.

Diagram families:

- ``torus_diagram(p)``: T(p,1;2), one alpha and one beta curve on the
  torus meeting in p points, one square region per consecutive pair of
  points, as in the bundled ``t212``/``t312``.
- ``chain_diagram(k)``: the longitudinal chain T(1,0;2k+2) on the sphere.
  Curves c_1..c_2k alternate alpha and beta; c_j meets c_{j+1} at X_j and
  Y_j; a middle curve c_j runs [X_j, X_{j-1}, Y_{j-1}, Y_j]; the regions
  are one bigon per link, two end bigons, one square per middle curve and
  one outer region; crossing signs alternate by link.  ``t104`` is k = 1
  and ``t106`` is k = 2.

``scramble`` renames points, rotates and reorders curves and regions, so
different seeds give different files for the same manifold.  The other
families are the presentations ⟨a | ⟩ with a^p and random deficiency-one
presentations (with ``rewrite_presentation``), lattice point sets with a
known vertex set, and Maslov loops and paths with a known index.
"""

import numpy as np

# -- diagrams -----------------------------------------------------------------


def torus_diagram(p):
    """T(p,1;2): Euler polynomial 1 + h + ... + h^(p-1) over H_1 = Z."""
    if p < 2:
        raise ValueError("T(p,1;2) needs p >= 2")
    pts = [f"P{i}" for i in range(p)]
    regions = []
    for i in range(p):
        j = (i + 1) % p
        regions.append({
            "cycles": [[f"b1.{i}", f"a1.{j}", f"-b1.{j}", f"-a1.{i}"]],
            "boundary_circles": 1 if i < 2 else 0,
            "genus": 0,
        })
    return {
        "genus": 1,
        "boundary_circles": 2,
        "alpha": [pts],
        "beta": [list(pts)],
        "crossing_sign": {q: 1 for q in pts},
        "regions": regions,
    }


def chain_diagram(k):
    """T(1,0;2k+2): 2^k generators, Euler polynomial (1 - h)^k over H_1 = Z."""
    if k < 1:
        raise ValueError("the chain needs k >= 1")
    n = 2 * k                      # curves c_1..c_n, c_1 is alpha
    X = {j: f"X{j}" for j in range(1, n)}
    Y = {j: f"Y{j}" for j in range(1, n)}

    def points(j):
        if j == 1:
            return [X[1], Y[1]]
        if j == n:
            return [X[n - 1], Y[n - 1]]
        return [X[j], X[j - 1], Y[j - 1], Y[j]]

    def ref(j, arc, sign=1):
        fam = "a" if j % 2 == 1 else "b"
        return f"{'-' if sign < 0 else ''}{fam}{(j + 1) // 2}.{arc}"

    def yx_next(j):                # arc of c_j from Y_j to X_j
        return 1 if j == 1 else 3

    def xy_prev(j):                # arc of c_j from X_{j-1} to Y_{j-1}
        return 0 if j == n else 1

    def yx_prev(j):                # arc of c_j from Y_{j-1} to X_{j-1}
        return 1 if j == n else None

    regions = []

    def region(refs, circles):
        regions.append({"cycles": [refs], "boundary_circles": circles, "genus": 0})

    for j in range(1, n):          # one bigon per link
        region([ref(j, yx_next(j)), ref(j + 1, xy_prev(j + 1))], 1)
    region([ref(1, 0), ref(2, xy_prev(2), -1)], 1)            # end bigons
    region([ref(n, yx_prev(n)), ref(n - 1, yx_next(n - 1), -1)], 1)
    for j in range(2, n):          # one square per middle curve
        region([ref(j - 1, yx_next(j - 1), -1), ref(j, 2),
                ref(j + 1, xy_prev(j + 1), -1), ref(j, 0)], 0)
    outer = ([ref(j, 0, -1) for j in range(2, n)] + [ref(n, yx_prev(n), -1)]
             + [ref(j, 2, -1) for j in range(n - 1, 1, -1)] + [ref(1, 0, -1)])
    region(outer, 1)

    signs = {}
    for j in range(1, n):
        s = 1 if j % 2 == 1 else -1
        signs[X[j]], signs[Y[j]] = s, -s
    return {
        "genus": 0,
        "boundary_circles": n + 2,
        "alpha": [points(j) for j in range(1, n + 1, 2)],
        "beta": [points(j) for j in range(2, n + 1, 2)],
        "crossing_sign": signs,
        "regions": regions,
    }


def scramble(data, rng):
    """The same diagram with renamed points and reordered curves and regions."""
    names = sorted({q for c in data["alpha"] for q in c})
    fresh = [f"p{v}" for v in rng.sample(range(10 * len(names) + 10), len(names))]
    rename = dict(zip(names, fresh))
    arc_map = {}                   # (fam, old curve, old arc) -> new reference
    curves = {}
    for fam in ("a", "b"):
        old = data["alpha" if fam == "a" else "beta"]
        order = list(range(len(old)))
        rng.shuffle(order)         # order[new index] = old index
        out = []
        for new_i, old_i in enumerate(order):
            pts = old[old_i]
            r = rng.randrange(len(pts)) if pts else 0
            out.append([rename[q] for q in pts[r:] + pts[:r]])
            n = max(1, len(pts))
            for arc in range(n):
                arc_map[(fam, old_i, arc)] = f"{fam}{new_i + 1}.{(arc - r) % n}"
        curves[fam] = out

    def remap(text):
        sign = "-" if text.startswith("-") else ""
        body = text.lstrip("-")
        curve, arc = body[1:].split(".")
        return sign + arc_map[(body[0], int(curve) - 1, int(arc))]

    regions = []
    for reg in data["regions"]:
        cycles = []
        for cyc in reg["cycles"]:
            r = rng.randrange(len(cyc)) if cyc else 0
            cycles.append([remap(t) for t in cyc[r:] + cyc[:r]])
        regions.append({"cycles": cycles,
                        "boundary_circles": reg["boundary_circles"],
                        "genus": reg.get("genus", 0)})
    rng.shuffle(regions)
    return {
        "genus": data["genus"],
        "boundary_circles": data["boundary_circles"],
        "alpha": curves["a"],
        "beta": curves["b"],
        "crossing_sign": {rename[q]: s for q, s in data["crossing_sign"].items()},
        "regions": regions,
    }


def require_balanced(data, sutured_kit):
    """Raise unless the library accepts the diagram as valid and balanced."""
    d = sutured_kit.diagram.SuturedDiagram.from_json(data)
    report = d.validate()
    if not report.ok:
        raise ValueError(f"generated diagram is invalid: {report.violations}")
    if not d.is_balanced():
        raise ValueError("generated diagram is not balanced")


# -- presentations -------------------------------------------------------------


def power_presentation(p, letter="a"):
    """<a | > with inclusion word a^p: torsion 1 + h + ... + h^(p-1)."""
    return {"generators": [letter], "relators": [], "boundary_genus": 1,
            "sigma_images": [" ".join([letter] * p)]}


def _random_word(rng, names, length):
    """Freely and cyclically reduced word of exactly ``length`` letters."""
    while True:
        letters = []
        while len(letters) < length:
            g = rng.randrange(len(names))
            e = rng.choice((1, -1))
            if letters and letters[-1] == (g, -e):
                continue
            letters.append((g, e))
        if length < 2 or letters[0] != (letters[-1][0], -letters[-1][1]):
            return " ".join(names[g] if e > 0 else names[g].upper()
                            for g, e in letters)


def random_presentation(rng, m, relator_length, sigma_length=1):
    """Deficiency-one presentation: m generators, m - 1 relators, one inclusion word."""
    names = [chr(ord("a") + i) for i in range(m)]
    return {
        "generators": names,
        "relators": [_random_word(rng, names, relator_length) for _ in range(m - 1)],
        "boundary_genus": 1,
        "sigma_images": [_random_word(rng, names, sigma_length)],
    }


def rewrite_presentation(pres, rng):
    """The same presentation under new names: generators renamed in place,
    each relator cyclically rotated and possibly inverted.  Each column of
    the Fox matrix changes by a unit, so the torsion and the cost of
    computing it stay the same."""
    old = pres["generators"]
    rename = dict(zip(old, rng.sample([chr(ord("a") + i) for i in range(26)], len(old))))

    def letters(word):
        out = []
        for tok in word.split():
            name = rename[tok.lower()]
            out.append(name if tok == tok.lower() else name.upper())
        return out

    relators = []
    for word in pres["relators"]:
        toks = letters(word)
        r = rng.randrange(len(toks)) if toks else 0
        toks = toks[r:] + toks[:r]
        if rng.random() < 0.5:
            toks = [t.swapcase() for t in reversed(toks)]
        relators.append(" ".join(toks))
    return {"generators": [rename[g] for g in old], "relators": relators,
            "boundary_genus": pres["boundary_genus"],
            "sigma_images": [" ".join(letters(w)) for w in pres["sigma_images"]]}


def exponent_matrix(pres):
    """Columns: exponent sums of the inclusion word, then of each relator."""
    index = {g: i for i, g in enumerate(pres["generators"])}
    cols = []
    for word in list(pres["sigma_images"]) + list(pres["relators"]):
        col = [0] * len(index)
        for tok in word.split():
            if tok in index:
                col[index[tok]] += 1
            else:
                col[index[tok.lower()]] -= 1
        cols.append(col)
    return [[col[i] for col in cols] for i in range(len(index))]


def bareiss_det(rows):
    """Exact determinant of a square integer matrix, fraction-free."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


# -- support point sets ----------------------------------------------------------


def _cross_polytope(d, s):
    out = []
    for i in range(d):
        for v in (s, -s):
            out.append(tuple(v if t == i else 0 for t in range(d)))
    return out


def _cube(d, s):
    out = [()]
    for _ in range(d):
        out = [c + (v,) for c in out for v in (-s, s)]
    return out


def _simplex(d, s):
    return [tuple(0 for _ in range(d))] + [tuple(s if t == i else 0 for t in range(d))
                                           for i in range(d)]


def _strictly_inside(kind, pt, s):
    if kind == "cross":
        return sum(abs(x) for x in pt) < s
    if kind == "cube":
        return all(abs(x) < s for x in pt)
    return all(x > 0 for x in pt) and sum(pt) < s


VERTEX_SETS = {"cross": (_cross_polytope, True), "cube": (_cube, True),
               "simplex": (_simplex, False)}


def support_set(rng, d, n_points, kind, scale=60):
    """A known vertex set plus random strictly interior lattice points.

    The scale is large against the point count, so few subsets of the
    points are affinely degenerate and the hull's cost depends on the
    shape (d, n_points), not on the draw.  Returns (support JSON, vertex
    set, centrally symmetric?).
    """
    make, symmetric = VERTEX_SETS[kind]
    verts = make(d, scale)
    if n_points < len(verts):
        raise ValueError(f"{kind} in dimension {d} has more than {n_points} vertices")
    lo, hi = (0, scale) if kind == "simplex" else (-scale, scale)
    chosen = set(verts)
    pts = list(verts)
    while len(pts) < n_points:
        pt = tuple(rng.randint(lo, hi) for _ in range(d))
        if pt not in chosen and _strictly_inside(kind, pt, scale):
            chosen.add(pt)
            pts.append(pt)
    rng.shuffle(pts)
    shift = tuple(rng.randint(-5, 5) for _ in range(d))
    pts = [tuple(x + t for x, t in zip(pt, shift)) for pt in pts]
    verts = sorted(tuple(x + t for x, t in zip(v, shift)) for v in verts)
    data = {"dimension": d, "points": [list(pt) for pt in pts],
            "multiplicities": [rng.randint(1, 3) for _ in pts]}
    return data, verts, symmetric


# -- Maslov loops and paths ---------------------------------------------------------


def _orthogonal(gen, n):
    q, r = np.linalg.qr(gen.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _unitary(gen, n):
    q, r = np.linalg.qr(gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _complex_json(stack):
    """(steps, n, n) complex array as rows of {"re": x, "im": y} objects."""
    return [[[{"re": x, "im": y} for x, y in zip(rr, ri)] for rr, ri in zip(mr, mi)]
            for mr, mi in zip(stack.real.tolist(), stack.imag.tolist())]


def _phases(steps, ints, turns):
    t = np.arange(steps + 1) / steps
    return np.exp(1j * np.pi * turns * t[:, None] * np.asarray(ints, dtype=float)[None, :])


def lagrangian_loop(gen, n, steps, ints):
    """A(t) = A0 Q^T diag(e^{i pi t m}) Q; det^2 winds sum(ints) times."""
    q, a0 = _orthogonal(gen, n), _unitary(gen, n)
    stack = ((a0 @ q.T)[None] * _phases(steps, ints, 1)[:, None, :]) @ q
    return {"kind": "lagrangian_loop", "samples": _complex_json(stack)}, "index", int(sum(ints))


def unitary_loop(gen, n, steps, ints):
    """Q^T diag(e^{2 i pi t m}) Q U0 closes in U(n); det winds sum(ints) times."""
    q, u0 = _orthogonal(gen, n), _unitary(gen, n)
    stack = (q.T[None] * _phases(steps, ints, 2)[:, None, :]) @ (q @ u0)
    return {"kind": "symplectic_loop", "samples": _complex_json(stack)}, "index", int(sum(ints))


def symmetric_path(gen, n, steps):
    """Q(t)^T diag(lambda(t)) Q(t) with eigenvalues moving linearly.

    Q(t) turns Q(0) in one coordinate plane.  Endpoint eigenvalues are at
    least 0.5 away from zero, so the flow is exactly n_-(start) - n_-(end).
    """
    start = gen.choice((-1.0, 1.0), size=n) * gen.uniform(0.5, 2.0, size=n)
    end = gen.choice((-1.0, 1.0), size=n) * gen.uniform(0.5, 2.0, size=n)
    q0 = _orthogonal(gen, n)
    t = np.arange(steps + 1) / steps
    angle = gen.uniform(0.5, 2.0) * t
    rot = np.broadcast_to(np.eye(n), (steps + 1, n, n)).copy()
    rot[:, 0, 0], rot[:, 0, 1] = np.cos(angle), -np.sin(angle)
    rot[:, 1, 0], rot[:, 1, 1] = np.sin(angle), np.cos(angle)
    q = q0[None] @ rot
    lam = (1 - t)[:, None] * start[None, :] + t[:, None] * end[None, :]
    stack = (q.transpose(0, 2, 1) * lam[:, None, :]) @ q
    stack = (stack + stack.transpose(0, 2, 1)) / 2
    flow = int(np.sum(start < 0)) - int(np.sum(end < 0))
    return {"kind": "spectral_flow", "samples": stack.tolist()}, "flow", flow
