"""``SuturedDiagram.from_json`` reads regions in one walk; the bulk check
and named walk it replaced, kept in ``tests/region_oracle.py``, must read
every region list to the same regions or refuse it with the same error.

The lists are those of chain T(1,0;8) (k = 3), T(5,1;2) and the grid of
size 4 with X at (i, i + 1), each with 1-3 mutations from
``tests/mutations.py``, half the time anywhere in the list (the list
itself included) and half the time in several fields of one region:
equal cycles, circle counts and genera, or a ValueError with equal text.
"""

import pytest
from hypothesis import given, settings, strategies as st

from grids import grid_diagram, torus_grid
from h1_oracle import chain_diagram, torus_diagram
from mutations import mutated
from region_oracle import oracle_regions
from sutured_kit.diagram import SuturedDiagram, _arc_table

BASES = {"chain-3": chain_diagram(3), "torus-5": torus_diagram(5),
         "grid-4": grid_diagram(*torus_grid(4, 1))}


def outcome(read):
    """The regions' fields, or the text of the ValueError that refuses them."""
    try:
        return [(r.cycles, r.boundary_circles, r.genus) for r in read()]
    except ValueError as exc:
        return str(exc)


@st.composite
def mutated_regions(draw):
    """A base whose region list has 1-3 mutations, or one region with its
    defaults written out and 1-3 mutations in each field of a random
    subset, so that faults meet in one region and the order in which its
    fields are read matters."""
    data = dict(BASES[draw(st.sampled_from(sorted(BASES)))])
    regions = list(data["regions"])
    if draw(st.booleans()):
        i = draw(st.integers(0, len(regions) - 1))
        regions[i] = region = {"genus": 0, "boundary_circles": 0, **regions[i]}
        for key in ("cycles", "boundary_circles", "genus"):
            if draw(st.booleans()):
                region[key] = draw(mutated(region[key]))
    else:
        regions = draw(mutated(regions))
    data["regions"] = regions
    return data


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_regions())
def test_reader_matches_the_bulk_check_and_named_walk(data):
    table = _arc_table(data["alpha"], data["beta"])
    if type(data["regions"]) is not list:
        with pytest.raises(ValueError, match=r"^regions must be a list, got "):
            SuturedDiagram.from_json(data)
        return
    assert outcome(lambda: SuturedDiagram.from_json(data).regions) == \
        outcome(lambda: oracle_regions(data["regions"], table))


@pytest.mark.parametrize("name", sorted(BASES))
def test_unmutated_bases_read_equal(name):
    data = BASES[name]
    table = _arc_table(data["alpha"], data["beta"])
    got = outcome(lambda: SuturedDiagram.from_json(data).regions)
    assert isinstance(got, list) and got == outcome(lambda: oracle_regions(data["regions"], table))
