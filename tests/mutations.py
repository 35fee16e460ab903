"""Seeded JSON mutations for the reader and CLI-contract properties.

``mutated(base)`` is a Hypothesis strategy: a deep copy of the JSON value
``base`` with 1-3 mutations, each at a node drawn from the value as it
stands after the mutations before it.  A list item may be deleted,
duplicated or swapped with another item of its list; a dict value may be
deleted; any node may be replaced by one of ``REPLACEMENTS``; a character
of a string may be changed; an integer may gain +-1 or 10^6.  The root is
a node too, so the document itself may become ``null`` or ``[]``.
"""

import copy

from hypothesis import strategies as st

REPLACEMENTS = (None, True, 0, 1, -1, 7, 2 ** 70, 1.5, float("nan"), "", "a99.0", [], {})
# characters a mutated string may take: arc reference syntax, a case change, a space
CHARACTERS = "ab019-. AZ"


def nodes(value, parent=None, key=None):
    """(parent, key) of every node of value, the root as (None, None), in document order."""
    out = [(parent, key)]
    if isinstance(value, list):
        for i, item in enumerate(value):
            out += nodes(item, value, i)
    elif isinstance(value, dict):
        for k, item in value.items():
            out += nodes(item, value, k)
    return out


def _mutate_once(draw, doc):
    """doc with one mutation; the root may be replaced, so the new root is returned."""
    # the root last: Hypothesis draws the first items of a sample most often
    places = nodes(doc)
    parent, key = draw(st.sampled_from(places[1:] + places[:1]))
    value = doc if parent is None else parent[key]
    ops = ["replace"]
    if isinstance(parent, list):
        ops += ["delete", "duplicate", "swap"]
    elif isinstance(parent, dict):
        ops.append("delete")
    if type(value) is str and value:
        ops.append("character")
    if type(value) is int:
        ops.append("add")
    op = draw(st.sampled_from(ops))
    if op == "replace":
        value = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    elif op == "character":
        i = draw(st.integers(0, len(value) - 1))
        value = value[:i] + draw(st.sampled_from(CHARACTERS)) + value[i + 1:]
    elif op == "add":
        value += draw(st.sampled_from((1, -1, 10 ** 6)))
    elif op == "delete":
        del parent[key]
        return doc
    elif op == "duplicate":
        parent.insert(key, copy.deepcopy(value))
        return doc
    else:
        other = draw(st.integers(0, len(parent) - 1))
        parent[key], parent[other] = parent[other], parent[key]
        return doc
    if parent is None:
        return value
    parent[key] = value
    return doc


@st.composite
def mutated(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        doc = _mutate_once(draw, doc)
    return doc
