"""Bundled fixtures: the contract between the diagram and torsion sides.

Every diagram/presentation pair registered here must satisfy the
cross-check (Euler polynomial of the diagram equals the torsion of the
presentation up to units) and is exercised by the acceptance suite.

The T(1,0;4) diagram is bundled without a paired presentation, on
purpose.  Its Euler polynomial is 1 - h up to units, whose coefficients
sum to zero; the torsion determinant of any geometrically balanced
presentation has coefficient sum equal to plus or minus the index of the
subgroup generated by the inclusion-word classes, which cannot vanish
unless the determinant itself vanishes.  The obstruction is topological:
the determinant formula needs connected top and bottom boundary
subsurfaces, and with four longitudinal sutures the bottom subsurface is
two annuli.  The solid torus therefore also ships as T(2,1;2), where both
subsurfaces are single annuli and the pairing works.
"""

import os
from collections import namedtuple

ENV_VAR = "SUTURED_KIT_FIXTURES"


# kind is "diagram", "presentation" or "support"; pair is the paired fixture's name, or ""
FixtureInfo = namedtuple("FixtureInfo", "name kind file pair description")


FIXTURES = (
    FixtureInfo("disk", "diagram", "disk.json", "disk_pres",
                "product over the disk: no curves, one generator"),
    FixtureInfo("disk_pres", "presentation", "disk_pres.json", "disk",
                "empty presentation of the trivial group, genus-0 boundary"),
    FixtureInfo("annulus", "diagram", "annulus.json", "annulus_pres",
                "product over the annulus: no curves, one generator"),
    FixtureInfo("annulus_pres", "presentation", "annulus_pres.json", "annulus",
                "free rank-1 presentation with the core circle as inclusion word"),
    FixtureInfo("t104", "diagram", "t104.json", "",
                "solid torus with 4 longitudinal sutures: four-holed sphere, "
                "one curve of each family, 2 generators in 2 classes; no "
                "presentation can match its Euler polynomial 1 - h (its "
                "coefficient sum vanishes, a torsion determinant's cannot)"),
    FixtureInfo("t106", "diagram", "t106.json", "",
                "solid torus with 6 longitudinal sutures: chain of two curves "
                "of each family on a six-holed sphere, 4 generators in classes "
                "of sizes 1, 2, 1; unpaired for the same reason as t104"),
    FixtureInfo("t212", "diagram", "t212.json", "t212_pres",
                "solid torus with two (2,1) sutures: genus-1 surface with two "
                "holes, 2 generators, Euler polynomial 1 + h"),
    FixtureInfo("t212_pres", "presentation", "t212_pres.json", "t212",
                "free rank-1 presentation; inclusion word a^2 (annulus core "
                "doubles around the solid torus)"),
    FixtureInfo("t312", "diagram", "t312.json", "t312_pres",
                "solid torus with two (3,1) sutures: one curve of each family "
                "meeting in 3 points, all difference classes distinct"),
    FixtureInfo("t312_pres", "presentation", "t312_pres.json", "t312",
                "free rank-1 presentation; inclusion word a^3"),
    FixtureInfo("trefoil_pres", "presentation", "trefoil_pres.json", "",
                "trefoil knot group with a meridian as inclusion word; "
                "torsion 1 - t + t^2"),
    FixtureInfo("pretzel222", "support", "pretzel222.json", "",
                "support points of the (2,2,2) pretzel link complement: a "
                "triangle, hence a centrally asymmetric polytope"),
)


def fixtures_dir():
    from pathlib import Path    # only the callers that want the directory load pathlib
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"

