"""Free-group words and the torsion determinant of a geometrically
balanced presentation with inclusion data.

Words are stored freely reduced as tuples of (generator index, +-1); free
reduction is the only normalization performed.  A presentation with m
generators, n relators and declared boundary genus l is *geometrically
balanced* when m - n = l and there are exactly l inclusion words; the
torsion matrix is then square of size m, its first l columns coming from
the inclusion words and its last n from the relators, and the torsion is
the class of its determinant in Z[H_1] up to +-h.

The entries of the torsion matrix are Fox derivatives, computed left to
right,

    d(uw)/dx = du/dx * aug(w) + u * dw/dx,      aug(group word) = 1,

so d(a)/da = 1 and d(a^-1)/da = -a^-1, and pushed to Z[H_1].
``theta_matrix`` does not form them in the free group ring: it builds
each column in one walk over its word, carrying the image in H_1 of the
prefix, so every letter adds one term to the row of its generator.  The
Fox derivative in the free group ring is kept in ``tests/fox_oracle.py``
as the definition that the tests hold ``theta_matrix`` to.
"""

from operator import add, sub

from .abelian import GroupRingElem, IntMatrix, cokernel, det_group_ring, doteq_normalize
from .errors import InvalidGenerator, NotGeometricallyBalanced, expect, expect_items


class FreeWord:
    """Freely reduced word in an ambient free group."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        reduced = []
        for g, e in letters:
            g = int(g)
            e = int(e)
            if e not in (1, -1):
                raise ValueError("letter exponents must be +1 or -1")
            if reduced and reduced[-1] == (g, -e):
                reduced.pop()
            else:
                reduced.append((g, e))
        self.letters = tuple(reduced)

    @classmethod
    def from_string(cls, text, generator_names):
        """Parse whitespace-separated letters; a name in uppercase is its inverse."""
        table = {}
        for i, name in enumerate(generator_names):
            table[name], table[name.upper()] = (i, 1), (i, -1)
        letters = []
        for tok in text.split():
            if tok not in table:
                raise InvalidGenerator(f"unknown letter {tok!r}")
            letters.append(table[tok])
        return cls(letters)

    def exponents(self, num_generators):
        """Total exponent of each generator (the abelianized image)."""
        vec = [0] * num_generators
        for g, e in self.letters:
            if not 0 <= g < num_generators:
                raise InvalidGenerator(f"letter index {g} out of range")
            vec[g] += e
        return tuple(vec)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"FreeWord({self.letters!r})"


class Presentation:
    """Finite presentation <a_1..a_m | r_1..r_n> plus the declared boundary genus."""

    __slots__ = ("generator_names", "relators", "boundary_genus")

    def __init__(self, generator_names, relators, boundary_genus):
        m = len(generator_names)
        if len(relators) > m:
            raise ValueError("presentation needs at least as many generators as relators")
        for r in relators:
            r.exponents(m)  # validates letter indices
        self.generator_names = generator_names
        self.relators = relators
        self.boundary_genus = boundary_genus

    def _key(self):
        return self.generator_names, self.relators, self.boundary_genus

    def __eq__(self, other):
        return isinstance(other, Presentation) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def num_generators(self):
        return len(self.generator_names)

    @property
    def num_relators(self):
        return len(self.relators)

    @classmethod
    def from_json(cls, data):
        expect(data, dict, "presentation JSON")
        names = tuple(expect_items(data.get("generators"), str, "generators"))
        for i, name in enumerate(names):
            # the inverse letter name.upper() must differ from name and lower back to it
            if (name.split() != [name] or name.upper() == name
                    or name.upper().lower() != name or name in names[:i]):
                raise ValueError(f"generators[{i}] must be lowercase, without whitespace and "
                                 f"distinct, got {name!r}")
        relators = tuple(FreeWord.from_string(r, names)
                         for r in expect_items(data.get("relators", []), str, "relators"))
        return cls(names, relators, expect(data.get("boundary_genus"), int, "boundary_genus"))


class InclusionData:
    """Images under the inclusion-induced map of the bottom-surface generators."""

    __slots__ = ("sigma_images",)

    def __init__(self, sigma_images):
        self.sigma_images = sigma_images

    def __eq__(self, other):
        return isinstance(other, InclusionData) and self.sigma_images == other.sigma_images

    def __hash__(self):
        return hash(self.sigma_images)

    @classmethod
    def from_json(cls, data, presentation):
        images = expect_items(data.get("sigma_images", []), str, "sigma_images")
        return cls(tuple(FreeWord.from_string(w, presentation.generator_names)
                         for w in images))


def load_presentation_json(data):
    p = Presentation.from_json(data)
    k = InclusionData.from_json(data, p)
    return p, k


def abelianization(p):
    """First homology of the presented group.

    The cokernel of the relator exponent matrix; it carries the projection
    from Z^m that ``theta_matrix`` reads the images of the letters from.
    """
    m = p.num_generators
    cols = [r.exponents(m) for r in p.relators]
    return cokernel(IntMatrix._of(tuple(tuple(col[i] for col in cols) for i in range(m)),
                                  m, len(cols)))


def is_geometrically_balanced(p, k):
    """Deficiency m - n equals the boundary genus, with one inclusion word per handle."""
    genus = p.boundary_genus
    return (p.num_generators - p.num_relators == genus
            and len(k.sigma_images) == genus)


def theta_matrix(p, k):
    """The m x m torsion matrix over Z[H_1] and the homology group it lives in.

    Rows are indexed by generators; the first l columns are the Fox
    derivatives of the inclusion words, the last n those of the relators,
    all pushed through the abelianization.  Each column is built in one
    walk over its word, carrying the image in H_1 of the prefix read so
    far: a letter a_i adds +h^prefix to row i, a letter a_i^-1 adds
    -h^(prefix - a_i).
    """
    if not is_geometrically_balanced(p, k):
        raise NotGeometricallyBalanced(
            f"m={p.num_generators}, n={p.num_relators}, genus={p.boundary_genus}, "
            f"l={len(k.sigma_images)}")
    g = abelianization(p)
    m = p.num_generators
    images = [g.projection.column(i) for i in range(m)]
    columns = list(k.sigma_images) + list(p.relators)
    zero = GroupRingElem()
    entries = [[zero] * len(columns) for _ in range(m)]
    for col, w in enumerate(columns):
        rows = {}
        prefix = (0,) * g.projection.rows
        for i, e in w.letters:
            if not 0 <= i < m:
                raise InvalidGenerator(f"letter index {i} out of range")
            if e == 1:
                key = prefix
                prefix = tuple(map(add, prefix, images[i]))
            else:
                prefix = key = tuple(map(sub, prefix, images[i]))
            terms = rows.setdefault(i, {})
            terms[key] = terms.get(key, 0) + e
        for i, terms in rows.items():
            # prefixes that differ but agree mod d reduce to one element: the constructor
            # merges them and drops a zero sum
            entries[i][col] = GroupRingElem((g.from_coords(key), c) for key, c in terms.items())
    return entries, g


def torsion(p, k):
    """The torsion polynomial det Theta, normalized up to +-h.

    ``det_group_ring`` reads the nonzero cells of each row of Theta.
    Returns (element of Z[H_1], H_1).  The determinant formula assumes the
    presented manifold is irreducible with connected top and bottom
    boundary surfaces; that is a contract on the input data, not something
    checkable here.
    """
    theta, g = theta_matrix(p, k)
    rows = [{j: e for j, e in enumerate(row) if e._terms} for row in theta]
    return doteq_normalize(det_group_ring(rows, g), g), g
