import pytest

from conftest import load_support, paired_names
from sutured_kit import fixtures


class TestRegistry:
    def test_minimum_contents(self):
        names = {f.name for f in fixtures.fixture_list()}
        assert "annulus" in names
        assert "disk" in names
        assert "t104" in names
        assert "pretzel222" in names
        assert "trefoil_pres" in names

    def test_pairs_are_symmetric(self):
        by_name = {f.name: f for f in fixtures.fixture_list()}
        for f in fixtures.fixture_list():
            if f.pair:
                assert by_name[f.pair].pair == f.name

    def test_pairs_join_diagram_to_presentation(self):
        by_name = {f.name: f for f in fixtures.fixture_list()}
        pairs = paired_names()
        assert pairs, "at least one diagram/presentation pair must ship"
        for dname, pname in pairs:
            assert by_name[dname].kind == "diagram"
            assert by_name[pname].kind == "presentation"

    def test_unknown_fixture(self):
        with pytest.raises(KeyError):
            fixtures.fixture_info("nope")
        with pytest.raises(KeyError):
            fixtures.load_diagram("trefoil_pres")

    def test_loaders(self):
        d = fixtures.load_diagram("annulus")
        assert d.validate().ok
        p, k = fixtures.load_presentation("annulus_pres")
        assert p.boundary_genus == 1 and len(k.sigma_images) == 1
        s = load_support("pretzel222")
        assert len(s.points) == 3

    def test_all_files_load(self):
        for f in fixtures.fixture_list():
            if f.kind == "diagram":
                assert fixtures.load_diagram(f.name).validate().ok
            elif f.kind == "presentation":
                fixtures.load_presentation(f.name)
            else:
                load_support(f.name)

    def test_pretzel_has_three_points(self):
        s = load_support("pretzel222")
        assert len(s.points) == 3
        assert s.dimension == 2
