"""The diagram pipeline on sparse data.

``det_group_ring`` reads a matrix as its nonzero cells, one dict
{column: element} per row: on random such matrices, with empty rows and
columns and the cells of each row in a shuffled order, it must equal the
normal form of the dense cofactor expansion of ``det_oracle`` on the
densified matrix.
``euler_polynomial`` must hand it only nonzero cells, which densify to
the alpha x beta matrix of the definition, also where the two points of
a finger move are the only ones of a cell and cancel.  The edge images and the
point vectors phi(p) of T(1,0;2k+2) hold a number of nonzero entries
linear in the edges, where their dense tuples would hold L = 2k + 1
entries per edge.
"""

import pytest
from hypothesis import given, settings, strategies as st

import det_oracle
from conftest import diagram_names, finger_move, fixture_json
from det_oracle import dense_of
from h1_oracle import chain_diagram, torus_diagram
from ring_oracle import element, ring_of
from sutured_kit import diagram
from sutured_kit.abelian import FinAbGroup, det_group_ring
from sutured_kit.diagram import SuturedDiagram, euler_polynomial, h1_of_M

TORSIONS = ((), (2,), (2, 6))


@st.composite
def dict_row_matrices(draw):
    """n x n over Z^r + T, n = 0..7, r = 0..2, as dict rows of nonzero cells:
    up to two rows and two columns left empty, a density drawn per matrix,
    and each row's cells inserted in a drawn column order."""
    g = FinAbGroup(draw(st.integers(0, 2)), draw(st.sampled_from(TORSIONS)))
    n = draw(st.integers(0, 7))
    index = st.integers(0, max(n - 1, 0))
    empty_rows = set(draw(st.lists(index, max_size=2))) if n else set()
    empty_cols = set(draw(st.lists(index, max_size=2))) if n else set()
    density = draw(st.integers(1, 10))

    def entry():
        return ring_of(
            (element(g, [draw(st.integers(-3, 3)) for _ in range(g.free_rank)],
                     [draw(st.integers(-13, 13)) for _ in g.torsion]),
             draw(st.integers(-3, 3)))
            for _ in range(draw(st.integers(1, 3))))

    rows = []
    for i in range(n):
        row = {}
        for j in draw(st.permutations(range(n))):
            if i not in empty_rows and j not in empty_cols and draw(st.integers(1, 10)) <= density:
                e = entry()
                if not e.is_zero():
                    row[j] = e
        rows.append(row)
    return rows, g


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dict_row_matrices())
def test_dict_rows_equal_the_dense_oracle(case):
    rows, g = case
    assert det_group_ring(rows, g) == det_oracle.det_of_rows(rows, g)


def definition_matrix(d):
    """M_ij = sum of sign(p) h^phi(p) over the points p of alpha_i and beta_j, dense."""
    group, _ = h1_of_M(d)
    data = d._h1
    _, bpos = d._curve_of
    cells = [[{} for _ in d.beta] for _ in d.alpha]
    for i, curve in enumerate(d.alpha):
        for p in curve:
            h = group.from_coords(data.potential[p])
            cell = cells[i][bpos[p]]
            cell[h] = cell.get(h, 0) + d.crossing_sign[p]
    return [[ring_of(cell.items()) for cell in row] for row in cells]


def cancelled_cell_chain():
    """T(1,0;6) with beta_2 pushed across alpha_1 in the outer region: the cell
    (alpha_1, beta_2) holds two points of opposite sign and one potential."""
    data = chain_diagram(2)
    return finger_move(data, len(data["regions"]) - 1, 2, 5)


EULER_CASES = ([(name, fixture_json(name)) for name in diagram_names()]
               + [(f"torus-{p}", torus_diagram(p)) for p in (2, 5)]
               + [(f"chain-{k}", chain_diagram(k)) for k in (1, 4, 9)]
               + [("chain-2-cancelled-cell", cancelled_cell_chain())])


@pytest.mark.parametrize("label,data", EULER_CASES, ids=[label for label, _ in EULER_CASES])
def test_euler_matrix_is_its_nonzero_cells(label, data, monkeypatch):
    d = SuturedDiagram.from_json(data)
    seen = []

    def record(rows, g):
        seen.append(rows)
        return det_group_ring(rows, g)

    monkeypatch.setattr(diagram, "det_group_ring", record)
    euler_polynomial(d)
    (rows,) = seen
    assert all(not e.is_zero() for row in rows for e in row.values())
    assert all(len(row) <= len(curve) for row, curve in zip(rows, d.alpha))
    assert dense_of(rows) == definition_matrix(d)
    if label == "chain-2-cancelled-cell":
        assert list(rows[0]) == [0]


@pytest.mark.parametrize("k", [50, 200])
def test_chain_vectors_are_linear_in_the_edges(k):
    d = SuturedDiagram.from_json(chain_diagram(k))
    h1_of_M(d)
    data = d._h1
    edges = len(data.skeleton.edges)
    assert data.rank == 2 * k + 1                 # a dense image would hold 2k + 1 entries
    assert sum(map(len, data.images)) <= 2 * edges
    assert sum(map(len, data.phi.values())) <= 2 * edges
