"""Each module's public top-level names are pinned, so a helper that only
the tests call cannot come back into the package unnoticed (the tests keep
theirs in ``ring_oracle``, ``h1_oracle``, ``det_oracle`` and ``conftest``);
and the docstring examples run, which ``testpaths`` would not reach."""

import ast
import doctest
import importlib
import inspect
import pkgutil

import pytest

import sutured_kit
from sutured_kit import fox

PUBLIC = {
    "abelian": "FinAbGroup GroupElement GroupRingElem IntMatrix TOO_LARGE_DET cokernel "
               "det_group_ring doteq_normalize echelon group_to_json ring_aug "
               "ring_invert_exponents ring_to_json smith_cokernel smith_normal_form",
    "cli": "UsageError build_parser cmd_check cmd_crosscheck cmd_euler cmd_fixtures "
           "cmd_generators cmd_maslov cmd_oracle cmd_polytope cmd_spinc cmd_torsion main",
    "diagram": "BalanceReport DomainVector GeneratorMatching Region SpincPartition "
               "SuturedDiagram ValidationReport admissible_lattice connecting_domains "
               "epsilon euler_polynomial format_arc_ref generator_sign generators h1_of_M "
               "internal_regions is_admissible parse_arc_ref periodic_lattice spinc_partition",
    "errors": "BadDimension CrossingCountMismatch DeterminantTooLarge DimensionTooLarge "
              "EmptySupport EndpointSingular InvalidDiagram InvalidGenerator LoopNotClosed "
              "LoopNotClosedInGroup NonCoprime NonPositiveRank NotAGenerator NotBalanced "
              "NotGeometricallyBalanced NotSymmetric NotUnitary OddSutureCount ResultTooLarge "
              "SamplingTooCoarse SuturedKitError expect expect_items",
    "fixtures": "ENV_VAR FIXTURES FixtureInfo diagram_names fixture_info fixture_list "
                "fixtures_dir load_diagram load_presentation load_support paired_names",
    "fox": "FreeWord InclusionData Presentation abelianization combo_add combo_mul "
           "fox_derivative is_geometrically_balanced load_presentation_json theta_matrix torsion",
    "maslov": "CROSSING_SHIFT ENDPOINT_TOL MAX_PHASE_STEP SYMMETRY_TOL SymmetricPath "
              "UNITARY_TOL UnitaryLoop maslov_loop_index matrix_from_json samples_from_json "
              "spectral_flow symplectic_loop_index",
    "oracle": "MAX_RANK_BITS MAX_TABLE_BITS RankTable closed_manifold_rank connected_sum_rank "
              "solid_torus_sfh",
    "polytope": "MAX_DIMENSION SupportData SupportPolytope depth_bound face hull "
                "is_centrally_symmetric seifert_surface_bound support_from_euler_polynomial "
                "support_function surface_c",
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


def test_fox_docstring_examples_run():
    result = doctest.testmod(fox)
    assert (result.attempted, result.failed) == (3, 0)
