"""Each module's public top-level names and the public methods of its
public classes are pinned, so a helper that only the tests call cannot
come back into the package unnoticed (the tests keep theirs in
``ring_oracle``, ``h1_oracle``, ``det_oracle``, ``fox_oracle``,
``conftest`` and the test modules); and the Fox oracle's docstring
examples run, which pytest does not collect by itself.  Dunders are not
pinned here: ``test_census`` finds any function the CLI does not reach."""

import ast
import doctest
import importlib
import inspect
import pkgutil

import pytest

import fox_oracle
import sutured_kit

PUBLIC = {
    "abelian": "FinAbGroup GroupElement GroupRingElem IntMatrix TOO_LARGE_DET cokernel "
               "det_group_ring doteq_normalize echelon group_to_json ring_aug "
               "ring_invert_exponents smith_cokernel smith_normal_form",
    "cli": "UsageError build_parser cmd_check cmd_crosscheck cmd_euler cmd_fixtures "
           "cmd_generators cmd_maslov cmd_oracle cmd_polytope cmd_spinc cmd_torsion main",
    "diagram": "BalanceReport Region SpincPartition SuturedDiagram ValidationReport "
               "admissible_lattice connecting_domains "
               "epsilon euler_polynomial format_arc_ref generator_sign generators h1_of_M "
               "internal_regions is_admissible parse_arc_ref periodic_lattice spinc_partition",
    "errors": "BadDimension CrossingCountMismatch DeterminantTooLarge DimensionTooLarge "
              "EmptySupport EndpointSingular InvalidDiagram InvalidGenerator LoopNotClosed "
              "LoopNotClosedInGroup NonCoprime NonPositiveRank NotAGenerator NotBalanced "
              "NotGeometricallyBalanced NotSymmetric NotUnitary OddSutureCount ResultTooLarge "
              "SamplingTooCoarse SuturedKitError expect expect_items",
    "fixtures": "ENV_VAR FIXTURES FixtureInfo fixtures_dir",
    "fox": "FreeWord InclusionData Presentation abelianization is_geometrically_balanced "
           "load_presentation_json theta_matrix torsion",
    "maslov": "CROSSING_SHIFT ENDPOINT_TOL MAX_PHASE_STEP SYMMETRY_TOL SymmetricPath "
              "UNITARY_TOL UnitaryLoop maslov_loop_index matrix_from_json samples_from_json "
              "spectral_flow symplectic_loop_index",
    "oracle": "MAX_RANK_BITS MAX_TABLE_BITS RankTable closed_manifold_rank connected_sum_rank "
              "solid_torus_sfh",
    "polytope": "MAX_DIMENSION SupportData SupportPolytope depth_bound hull "
                "is_centrally_symmetric seifert_surface_bound support_from_euler_polynomial",
}

# the public methods (functions, properties, class methods) of each public
# class; a public class that is not listed has none
METHODS = {
    "abelian.FinAbGroup": "from_coords",
    "abelian.GroupElement": "is_identity",
    "abelian.GroupRingElem": "is_zero items support",
    "abelian.IntMatrix": "column",
    "diagram.Region": "from_json",
    "diagram.SuturedDiagram": "arcs from_json is_balanced require_balanced require_valid "
                              "validate",
    "diagram.ValidationReport": "ok",
    "fox.FreeWord": "exponents from_string",
    "fox.InclusionData": "from_json",
    "fox.Presentation": "from_json num_generators num_relators",
    "maslov.UnitaryLoop": "closes_in_group",
    "oracle.RankTable": "support to_json values_in_order",
    "polytope.SupportData": "from_json",
    "polytope.SupportPolytope": "canonical_translate to_json",
}


def public_names(module):
    """Names defined or assigned at the top level, without a leading underscore."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("name", sorted(m.name for m in
                                        pkgutil.iter_modules(sutured_kit.__path__)))
def test_public_top_level_names(name):
    module = importlib.import_module(f"sutured_kit.{name}")
    assert sorted(public_names(module)) == sorted(PUBLIC[name].split())


def public_methods(module):
    """For each public class defined at the top level, its public methods."""
    return {node.name: {n.name for n in node.body if isinstance(n, ast.FunctionDef)
                        and not n.name.startswith("_")}
            for node in ast.parse(inspect.getsource(module)).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")}


@pytest.mark.parametrize("name", sorted(m.name for m in
                                        pkgutil.iter_modules(sutured_kit.__path__)))
def test_public_methods(name):
    module = importlib.import_module(f"sutured_kit.{name}")
    for cls, methods in public_methods(module).items():
        assert sorted(methods) == sorted(METHODS.get(f"{name}.{cls}", "").split()), cls
    assert {key for key in METHODS if key.startswith(f"{name}.")} <= {
        f"{name}.{cls}" for cls in public_methods(module)}


def test_fox_docstring_examples_run():
    result = doctest.testmod(fox_oracle)
    assert (result.attempted, result.failed) == (3, 0)
