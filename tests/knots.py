"""Knot groups on the Fox side: presentations whose torsion has a closed form.

For a knot K in S^3, the complement with two meridional sutures has SFH
equal to knot Floer homology (Juhasz, *Holomorphic discs and sutured
manifolds*, 2006, Prop. 9.2), whose Euler characteristic is the
Alexander polynomial of K (Ozsvath and Szabo, *Holomorphic disks and knot
invariants*, 2004).  With a meridian as the inclusion word, the torsion
of a deficiency-one presentation of the knot group is that polynomial up
to units +-t^k (Friedl, Juhasz and Rasmussen, *The decategorification of
sutured Floer homology*, 2011).  Each builder returns a presentation
document, as ``fox.load_presentation_json`` reads it, and the Alexander
polynomial as a coefficient list, lowest degree first:

- ``wirtinger_torus(n)``: the Wirtinger presentation of the torus knot
  T(2, n), n odd (Crowell and Fox, *Introduction to Knot Theory*, ch.
  VI), with inclusion word ``x0``; 1 - t + t^2 - ... + t^(n-1);
- ``torus_knot(p, q)``: <x, y | x^p y^-q> with inclusion word x^c y^d,
  cq + dp = 1; (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), by exact
  polynomial division;
- ``knot_sum(a, b)``: the union of two presentations, generators renamed
  apart, plus one relator that identifies their inclusion words; the
  product of the two polynomials.

``scramble`` renames and reorders the generators, permutes the relators
and rotates each relator cyclically: rows and columns of the Fox matrix
are permuted and each relator's column is multiplied by a unit, so the
torsion's +-h normal form does not change.
"""


def poly_mul(a, b):
    """The product of two integer polynomials given as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_div(a, b):
    """The quotient a / b of integer polynomials, b's leading coefficient +-1;
    raises ValueError when the division leaves a remainder."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = a[k + len(b) - 1] * b[-1]
        for j, y in enumerate(b):
            a[k + j] -= c * y
    if any(a):
        raise ValueError("the division leaves a remainder")
    return q


def _t_power_minus_one(k):
    return [-1] + [0] * (k - 1) + [1]


def torus_alexander(p, q):
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))."""
    return poly_div(poly_mul(_t_power_minus_one(p * q), [-1, 1]),
                    poly_mul(_t_power_minus_one(p), _t_power_minus_one(q)))


def _letter(name, e):
    return name if e > 0 else name.upper()


def _inverse(word):
    return " ".join(tok.swapcase() for tok in reversed(word.split()))


def wirtinger_torus(n):
    """T(2, n), n odd: generators x_0..x_{n-1} and, for i = 0..n-2, the
    crossing relator x_{i+2} x_{i+1} x_i^-1 x_{i+1}^-1, indices mod n."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"T(2, n) needs an odd n >= 1, got {n}")
    names = [f"x{i}" for i in range(n)]

    def x(i, e=1):
        return _letter(names[i % n], e)

    relators = [f"{x(i + 2)} {x(i + 1)} {x(i, -1)} {x(i + 1, -1)}" for i in range(n - 1)]
    data = {"generators": names, "relators": relators, "boundary_genus": 1,
            "sigma_images": [names[0]]}
    return data, [(-1) ** i for i in range(n)]


def torus_knot(p, q):
    """T(p, q), p, q >= 2 coprime: <x, y | x^p y^-q>, inclusion word x^c y^d
    with c q + d p = 1, 0 < c < p."""
    c = pow(q, -1, p)
    d = (1 - c * q) // p
    word = " ".join(["x"] * c + [_letter("y", d)] * abs(d))
    data = {"generators": ["x", "y"], "relators": [" ".join(["x"] * p + ["Y"] * q)],
            "boundary_genus": 1, "sigma_images": [word]}
    return data, torus_alexander(p, q)


def _respell(word, rename):
    """The word with each generator renamed, inverse letters kept inverse."""
    return " ".join(rename[tok] if tok in rename else rename[tok.lower()].upper()
                    for tok in word.split())


def _renamed(data, rename):
    return {"generators": [rename[g] for g in data["generators"]],
            "relators": [_respell(r, rename) for r in data["relators"]],
            "boundary_genus": data["boundary_genus"],
            "sigma_images": [_respell(w, rename) for w in data["sigma_images"]]}


def knot_sum(a, b):
    """The connected sum of two knots given as (document, polynomial) pairs."""
    (da, pa), (db, pb) = a, b
    da = _renamed(da, {g: "a" + g for g in da["generators"]})
    db = _renamed(db, {g: "b" + g for g in db["generators"]})
    (wa,), (wb,) = da["sigma_images"], db["sigma_images"]
    data = {"generators": da["generators"] + db["generators"],
            "relators": da["relators"] + db["relators"] + [f"{wa} {_inverse(wb)}"],
            "boundary_genus": 1, "sigma_images": [wa]}
    return data, poly_mul(pa, pb)


def scramble(data, rng):
    """The document with its generators renamed and reordered, its relators
    permuted and each relator rotated by a drawn number of letters."""
    names = data["generators"]
    labels = rng.sample(range(len(names)), len(names))
    rename = {g: f"g{k}" for g, k in zip(names, labels)}
    out = _renamed(data, rename)
    rng.shuffle(out["generators"])
    relators = []
    for r in out["relators"]:
        letters = r.split()
        k = rng.randrange(len(letters)) if letters else 0
        relators.append(" ".join(letters[k:] + letters[:k]))
    rng.shuffle(relators)
    out["relators"] = relators
    return out
