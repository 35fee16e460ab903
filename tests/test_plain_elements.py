"""Every element of H_1 that the library hands out is a plain pair
``(free, torsion)`` of int tuples, residues in [0, d): the results of
``FinAbGroup.from_coords``, the terms of ``det_group_ring``,
``doteq_normalize`` and ``ring_invert_exponents``, the cells of
``fox.theta_matrix`` and the class values of ``spinc_partition``.  A
subclass of tuple (a named tuple, say) fails ``ring_oracle.is_element``."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import diagram_names, fixture_json
from det_oracle import rows_of
from h1_oracle import chain_diagram, lens_diagram, torus_diagram
from ring_oracle import is_element, ring_of
from sutured_kit.abelian import FinAbGroup, det_group_ring, doteq_normalize, ring_invert_exponents
from sutured_kit.diagram import SuturedDiagram, spinc_partition
from sutured_kit.fox import theta_matrix
from test_det_packed import presentations

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
GROUPS = [FinAbGroup(r, t) for r in range(3) for t in ((), (2,), (3, 6))]


def all_elements(g, x):
    return all(is_element(g, h) for h in x._terms)


@st.composite
def group_matrices(draw):
    """(g, coords, m): a group, coordinate vectors with unreduced residues,
    and an n x n matrix over Z[g], n = 0..3, of elements built from them."""
    g = draw(st.sampled_from(GROUPS))
    coord = st.tuples(*[st.integers(-9, 9)] * (g.free_rank + len(g.torsion)))
    coords = draw(st.lists(coord, min_size=1, max_size=6))
    n = draw(st.integers(0, 3))
    cell = st.lists(st.tuples(st.sampled_from(coords), st.integers(-2, 2)), max_size=3)
    m = [[ring_of((g.from_coords(c), k) for c, k in draw(cell)) for _ in range(n)]
         for _ in range(n)]
    return g, coords, m


@PROPERTY
@given(group_matrices())
def test_group_side_hands_out_plain_pairs(case):
    g, coords, m = case
    assert all(is_element(g, g.from_coords(c)) for c in coords)
    det = det_group_ring(rows_of(m), g)
    assert all_elements(g, det)
    for row in m:
        for x in row:
            assert all_elements(g, doteq_normalize(x, g))
            assert all_elements(g, ring_invert_exponents(x, g))
    assert all_elements(g, ring_invert_exponents(det, g))


@PROPERTY
@given(presentations())
def test_theta_cells_are_plain_pairs(case):
    theta, g = theta_matrix(*case)
    assert all(all_elements(g, x) for row in theta for x in row)


DIAGRAMS = ([pytest.param(fixture_json(name), id=name) for name in diagram_names()]
            + [pytest.param(torus_diagram(3), id="T(3,1;2)"),
               pytest.param(lens_diagram(4), id="L(4,1)"),
               pytest.param(chain_diagram(2), id="T(1,0;6)")])


@pytest.mark.parametrize("data", DIAGRAMS)
def test_spinc_values_are_plain_pairs(data):
    part = spinc_partition(SuturedDiagram.from_json(data))
    assert part.values and all(is_element(part.group, h) for h in part.values)
