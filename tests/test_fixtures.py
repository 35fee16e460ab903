from conftest import fixture_json, paired_names
from sutured_kit import fixtures
from sutured_kit.diagram import SuturedDiagram
from sutured_kit.fox import load_presentation_json
from sutured_kit.polytope import SupportData


class TestRegistry:
    def test_minimum_contents(self):
        names = {f.name for f in fixtures.FIXTURES}
        assert "annulus" in names
        assert "disk" in names
        assert "t104" in names
        assert "pretzel222" in names
        assert "trefoil_pres" in names

    def test_pairs_are_symmetric(self):
        by_name = {f.name: f for f in fixtures.FIXTURES}
        for f in fixtures.FIXTURES:
            if f.pair:
                assert by_name[f.pair].pair == f.name

    def test_pairs_join_diagram_to_presentation(self):
        by_name = {f.name: f for f in fixtures.FIXTURES}
        pairs = paired_names()
        assert pairs, "at least one diagram/presentation pair must ship"
        for dname, pname in pairs:
            assert by_name[dname].kind == "diagram"
            assert by_name[pname].kind == "presentation"

    def test_loaders(self):
        d = SuturedDiagram.from_json(fixture_json("annulus"))
        assert d.validate().ok
        p, k = load_presentation_json(fixture_json("annulus_pres"))
        assert p.boundary_genus == 1 and len(k.sigma_images) == 1
        s = SupportData.from_json(fixture_json("pretzel222"))
        assert len(s.points) == 3

    def test_all_files_load(self):
        for f in fixtures.FIXTURES:
            if f.kind == "diagram":
                assert SuturedDiagram.from_json(fixture_json(f.name)).validate().ok
            elif f.kind == "presentation":
                load_presentation_json(fixture_json(f.name))
            else:
                SupportData.from_json(fixture_json(f.name))

    def test_pretzel_has_three_points(self):
        s = SupportData.from_json(fixture_json("pretzel222"))
        assert len(s.points) == 3
        assert s.dimension == 2
