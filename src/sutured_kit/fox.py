"""Free-group words and the torsion determinant of a geometrically
balanced presentation with inclusion data.

Words are stored freely reduced as tuples of (generator index, +-1).
They come only from ``FreeWord.from_string``, which looks each letter up
among the generator names, so every letter is valid by construction and
nothing downstream checks one again.  A presentation with m generators,
n relators and declared boundary genus l is *geometrically balanced*
when m - n = l and there are exactly l inclusion words; the torsion
matrix is then square of size m, its first l columns coming from the
inclusion words and its last n from the relators, and the torsion is the
class of its determinant in Z[H_1] up to +-h.

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

from functools import lru_cache
from operator import add, mod, neg

from .abelian import GroupElement, GroupRingElem, IntMatrix, cokernel, det_group_ring
from .errors import InvalidGenerator, NotGeometricallyBalanced, expect, expect_items


@lru_cache(maxsize=16)
def _letter_table(generator_names):
    """Letter -> (generator index, +-1); kept for the last few name tuples,
    so the relators and inclusion words of a presentation share one."""
    table = {}
    for i, name in enumerate(generator_names):
        table[name], table[name.upper()] = (i, 1), (i, -1)
    return table


class FreeWord:
    """Freely reduced word in an ambient free group."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        reduced = []
        for g, e in letters:
            if reduced and reduced[-1] == (g, -e):
                reduced.pop()
            else:
                reduced.append((g, e))
        self.letters = tuple(reduced)

    @classmethod
    def from_string(cls, text, generator_names):
        """Parse whitespace-separated letters; a name in uppercase is its inverse."""
        table = _letter_table(tuple(generator_names))
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
            vec[g] += e
        return tuple(vec)


class Presentation:
    """Finite presentation <a_1..a_m | r_1..r_n> plus the declared boundary genus."""

    __slots__ = ("generator_names", "relators", "boundary_genus")

    def __init__(self, generator_names, relators, boundary_genus):
        if len(relators) > len(generator_names):
            raise ValueError("presentation needs at least as many generators as relators")
        self.generator_names = generator_names
        self.relators = relators
        self.boundary_genus = boundary_genus

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
    -h^(prefix - a_i).  The prefix's residues are reduced at each letter,
    so the terms of a cell merge in the walk, and each cell is built once,
    without its zero sums.
    """
    if not is_geometrically_balanced(p, k):
        raise NotGeometricallyBalanced(
            f"m={p.num_generators}, n={p.num_relators}, genus={p.boundary_genus}, "
            f"l={len(k.sigma_images)}")
    g = abelianization(p)
    r, tors = g.free_rank, g.torsion
    # letter (i, +-1) -> +-(the coordinates of the image of a_i)
    steps = {}
    for i in range(p.num_generators):
        image = g.projection.column(i)
        steps[i, 1], steps[i, -1] = image, tuple(map(neg, image))
    columns = list(k.sigma_images) + list(p.relators)
    zero = GroupRingElem()
    entries = [[zero] * len(columns) for _ in range(p.num_generators)]
    for col, w in enumerate(columns):
        rows = {}
        prefix = (0,) * g.projection.rows
        for letter in w.letters:
            after = tuple(map(add, prefix, steps[letter]))
            if tors:
                after = after[:r] + tuple(map(mod, after[r:], tors))
            i, e = letter
            key = prefix if e > 0 else after       # +h^prefix or -h^(prefix - a_i)
            terms = rows.setdefault(i, {})
            terms[key] = terms.get(key, 0) + e
            prefix = after
        for i, terms in rows.items():
            cell = {}
            for key, c in terms.items():
                if c:
                    cell[tuple.__new__(GroupElement, (key[:r], key[r:]))] = c
            if cell:
                entries[i][col] = GroupRingElem._of(cell)
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
    rows = [{j: e for j, e in enumerate(row) if not e.is_zero()} for row in theta]
    return det_group_ring(rows, g), g
