"""Property tests of the diagram invariants.

The Euler polynomial, H_1(M) and the Spin^c partition must not depend on
the names of the intersection points, on the order of the alpha or of
the beta curves, or on the point each curve starts at, and the Euler
polynomial of T(p,1;2) must match the torsion of <a | > with inclusion
word a^p.  Generators are compared by their point sets, since renaming
points or reordering curves reorders the generator list.  Reordering
curves or re-indexing a curve's arcs changes the tree-cotree basis of
H_1(M), so there the polynomial is compared up to h -> h^-1 and the
Spin^c differences up to one global sign.  Reversing the cycles of a
region that shares an arc with another region must never validate.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import assume, given, settings, strategies as st

from conftest import (diagram_names, fixture_json, rename_points, reverse_region, rotate_curve,
                      swap_alpha_curves, swap_beta_curves)
from h1_oracle import chain_diagram, lens_diagram, partition_differences, torus_diagram
from ring_oracle import doteq_equal, group_neg
from sutured_kit import cli
from sutured_kit.diagram import (SuturedDiagram, euler_polynomial, generators,
                                 spinc_partition)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def diagrams(draw):
    kind = draw(st.sampled_from(("bundled", "torus", "chain", "lens")))
    if kind == "bundled":
        return fixture_json(draw(st.sampled_from(diagram_names())))
    if kind == "torus":
        return torus_diagram(draw(st.integers(2, 12)))
    if kind == "chain":
        return chain_diagram(draw(st.integers(1, 5)))
    return lens_diagram(draw(st.integers(2, 6)))


def point_names(data):
    return sorted({p for curve in data["alpha"] + data["beta"] for p in curve})


def invariants(data, back=None):
    """(polynomial, H_1, Spin^c classes, differences) with generators named
    by their point sets, read back through the renaming ``back``."""
    back = back or {}
    d = SuturedDiagram.from_json(data)
    poly, group = euler_polynomial(d)
    part = spinc_partition(d)
    gens = generators(d)
    keys = [frozenset(frozenset(back.get(p, p) for _, p in gens[i]) for i in cls)
            for cls in part.classes]
    diffs = {(keys[a], keys[b]): e for (a, b), e in partition_differences(part).items()}
    return poly, group, part.group, set(keys), diffs


@PROPERTY
@given(diagrams(), st.data())
def test_invariant_under_renaming_points(data, draw):
    names = point_names(data)
    image = draw.draw(st.permutations(names + [f"R{i}" for i in range(len(names))]))
    mapping = dict(zip(names, image))
    back = {v: k for k, v in mapping.items()}
    assert invariants(rename_points(data, mapping), back) == invariants(data)


@PROPERTY
@given(diagrams(), st.data())
def test_reversed_region_never_validates(data, draw):
    # an arc shared with another region then runs the same way on both sides,
    # so the glued surface is not oriented
    arcs = [{ref.lstrip("-") for cyc in r["cycles"] for ref in cyc} for r in data["regions"]]
    shared = [r for r, own in enumerate(arcs)
              if any(own & other for s, other in enumerate(arcs) if s != r)]
    assume(shared)
    r = draw.draw(st.sampled_from(shared))
    assert not SuturedDiagram.from_json(reverse_region(data, r)).validate().ok


def assert_same_up_to_sign(data, other):
    """Invariants equal, the polynomial up to h -> h^-1 and the Spin^c
    differences up to one global sign."""
    poly, group, h1, classes, diffs = invariants(data)
    poly2, group2, h1_2, classes2, diffs2 = invariants(other)
    assert group2 == group and h1_2 == h1
    assert doteq_equal(poly2, poly, group, allow_inversion=True)
    assert classes2 == classes
    assert diffs2 == diffs or diffs2 == {key: group_neg(group, e) for key, e in diffs.items()}


@PROPERTY
@given(st.integers(2, 5), st.data())
def test_invariant_under_swapping_alpha_curves(k, draw):
    data = chain_diagram(k)
    i, j = draw.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
    assert_same_up_to_sign(data, swap_alpha_curves(data, i, j))


@PROPERTY
@given(st.integers(2, 5), st.data())
def test_invariant_under_swapping_beta_curves(k, draw):
    data = chain_diagram(k)
    i, j = draw.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
    assert_same_up_to_sign(data, swap_beta_curves(data, i, j))


@PROPERTY
@given(diagrams(), st.data())
def test_invariant_under_rotating_a_curve(data, draw):
    curves = [(fam, i) for fam in ("alpha", "beta") for i, c in enumerate(data[fam]) if c]
    if not curves:
        return
    fam, i = draw.draw(st.sampled_from(curves))
    shift = draw.draw(st.integers(1, len(data[fam][i])))
    rotated = rotate_curve(data, fam, i, shift)
    assert rotated[fam][i][0] == data[fam][i][shift % len(data[fam][i])]
    assert_same_up_to_sign(data, rotated)


def test_swapped_t106_keeps_its_invariants():
    data = fixture_json("t106")
    poly, group, h1, classes, _ = invariants(data)
    poly2, group2, h1_2, classes2, _ = invariants(swap_alpha_curves(data))
    assert (group2, h1_2, classes2) == (group, h1, classes)
    assert doteq_equal(poly2, poly, group, allow_inversion=True)


def test_beta_swapped_t106_keeps_its_invariants():
    data = fixture_json("t106")
    assert_same_up_to_sign(data, swap_beta_curves(data))


def crosscheck(diagram_data, p):
    """`crosscheck` stdout against <a | > with inclusion word a^p, parsed."""
    with tempfile.TemporaryDirectory() as tmp:
        d, q = os.path.join(tmp, "d.json"), os.path.join(tmp, "q.json")
        with open(d, "w", encoding="utf-8") as fh:
            json.dump(diagram_data, fh)
        with open(q, "w", encoding="utf-8") as fh:
            json.dump({"generators": ["a"], "relators": [], "boundary_genus": 1,
                       "sigma_images": [" ".join(["a"] * p)]}, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["crosscheck", d, q]) == 0
    return json.loads(out.getvalue())


def test_torus_crosscheck_every_p():
    for p in range(2, 41):
        out = crosscheck(torus_diagram(p), p)
        assert (out["match"], out["mode"]) == (True, "plain"), p
        assert sorted(t["exp_free"][0] for t in out["euler"]) == list(range(p))


@PROPERTY
@given(st.integers(2, 40), st.data())
def test_torus_crosscheck_renamed(p, draw):
    data = torus_diagram(p)
    names = point_names(data)
    mapping = dict(zip(names, draw.draw(st.permutations(names))))
    out = crosscheck(rename_points(data, mapping), p)
    assert (out["match"], out["mode"]) == (True, "plain")
