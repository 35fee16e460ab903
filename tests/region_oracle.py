"""The two region readers that ``SuturedDiagram.from_json`` ran before it
read regions in one walk, kept as the oracle the walk is held to.

``bulk_regions`` checks the types of a whole region list at once and
reads every reference through the arc table, or gives None on any doubt:
an item of a wrong type or a reference the table misses.  The list is
then read again by ``walk_regions``, which names each field as it goes
and parses each reference that the table misses.  ``oracle_regions`` is
the pair as the reader ran them.
"""

from itertools import chain

from sutured_kit.diagram import Region, parse_arc_ref
from sutured_kit.errors import expect, expect_items


def bulk_regions(items, table):
    """The regions of a JSON list, their references read through ``table``,
    or None when an item has a wrong type or a reference that ``table``
    misses.  No field name is built."""
    rows = [(r.get("cycles", []), r.get("boundary_circles", 0), r.get("genus", 0))
            for r in items if type(r) is dict]
    if len(rows) < len(items) or not {
            (type(c), type(b), type(g)) for c, b, g in rows} <= {(list, int, int)}:
        return None
    cycles = list(chain.from_iterable([c for c, _, _ in rows]))
    if not set(map(type, cycles)) <= {list}:
        return None
    refs = list(chain.from_iterable(cycles))
    if not (set(map(type, refs)) <= {str} and set(refs) <= table.keys()):
        return None
    get = table.__getitem__
    return [Region(tuple([tuple(map(get, cyc)) for cyc in c]), b, g) for c, b, g in rows]


def arc_refs(refs, field, table):
    """A list of arc references read through ``table``; a reference it
    misses is parsed, so a malformed one is named by its index."""
    return tuple(table.get(ref) or parse_arc_ref(ref, f"{field}[{j}]")
                 for j, ref in enumerate(expect_items(refs, str, field)))


def region_from_json(data, field, table):
    """The region of ``data``, each field named as it is read."""
    expect(data, dict, field)
    cycles = tuple(
        arc_refs(cyc, f"{field}.cycles[{i}]", table)
        for i, cyc in enumerate(expect(data.get("cycles", []), list, f"{field}.cycles")))
    return Region(cycles,
                  expect(data.get("boundary_circles", 0), int, f"{field}.boundary_circles"),
                  expect(data.get("genus", 0), int, f"{field}.genus"))


def walk_regions(items, table):
    return [region_from_json(r, f"regions[{i}]", table) for i, r in enumerate(items)]


def oracle_regions(items, table):
    """The bulk check, and the named walk when it has a doubt."""
    regions = bulk_regions(items, table)
    return walk_regions(items, table) if regions is None else regions
