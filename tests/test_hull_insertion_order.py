"""The support hull's insertion order and its vertex test.

``polytope.hull`` inserts the points farthest from their centroid first
and finds the vertices with point masks: a point is a vertex when no
other point lies on every facet hyperplane through it.  Its JSON must not
depend on the order of the input points, and its vertices must be those
of ``hull_oracle.rank_vertices``, the rank test it replaced, on
full- and lower-dimensional sets and on lattice points of cube and
cross-polytope boundaries, where many points lie on a facet or an edge
without being vertices.
"""

from hypothesis import given, settings, strategies as st

from hull_oracle import rank_vertices
from sutured_kit.polytope import SupportData, hull
from test_hull_pencil import cube_and_cross_sets, document, full_sets, lower_dimensional_sets

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def support_sets():
    return st.one_of(full_sets(), lower_dimensional_sets(), cube_and_cross_sets())


@PROPERTY
@given(support_sets())
def test_mask_vertices_are_the_rank_vertices(s):
    p = hull(s)
    if p.dim:
        assert list(p.vertices) == rank_vertices(s.points, p.facets, p.dim)
    else:
        assert p.vertices == s.points


@PROPERTY
@given(st.data())
def test_json_does_not_depend_on_the_point_order(data):
    s = data.draw(support_sets())
    shuffled = SupportData(s.dimension, data.draw(st.permutations(s.points)), s.multiplicity)
    assert document(hull(shuffled)) == document(hull(s))
    assert document(hull(shuffled).canonical_translate()) == \
        document(hull(s).canonical_translate())
