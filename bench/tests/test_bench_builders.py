"""The input builders reproduce the bundled fixtures and their checks hold.

Run from the root of the repository: python3 -m pytest -q bench/tests
"""

import contextlib
import io
import itertools
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import builders  # noqa: E402
import sutured_kit  # noqa: E402
import workloads  # noqa: E402
from sutured_kit import cli, fox, maslov, polytope  # noqa: E402

DATA = ROOT / "src" / "sutured_kit" / "data"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0, buf.getvalue()
    return json.loads(buf.getvalue())


def run_on(tmp_path, cmd, data, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return run_cli([cmd, str(path)])


@pytest.mark.parametrize("fixture, data", [
    ("t212", builders.torus_diagram(2)),
    ("t312", builders.torus_diagram(3)),
    ("t104", builders.chain_diagram(1)),
    ("t106", builders.chain_diagram(2)),
])
def test_smallest_diagrams_match_fixtures(tmp_path, fixture, data):
    builders.require_balanced(data, sutured_kit)
    bundled = str(DATA / f"{fixture}.json")
    for cmd in ("check", "euler", "spinc"):
        assert run_on(tmp_path, cmd, data) == run_cli([cmd, bundled])
    assert (run_on(tmp_path, "generators", data)["count"]
            == run_cli(["generators", bundled])["count"])


@pytest.mark.parametrize("seed", range(4))
def test_scramble_keeps_the_invariants(tmp_path, seed):
    for data in (builders.torus_diagram(7), builders.chain_diagram(3)):
        mixed = builders.scramble(data, random.Random(seed))
        builders.require_balanced(mixed, sutured_kit)
        assert mixed != data
        for cmd in ("check", "euler"):
            assert run_on(tmp_path, cmd, mixed) == run_on(tmp_path, cmd, data)
        sizes = [sorted(len(c) for c in run_on(tmp_path, "spinc", d)["classes"])
                 for d in (mixed, data)]
        assert sizes[0] == sizes[1]


def test_require_balanced_rejects_a_broken_diagram():
    data = builders.chain_diagram(2)
    data["regions"] = data["regions"][1:]
    with pytest.raises(ValueError):
        builders.require_balanced(data, sutured_kit)


@pytest.mark.parametrize("p", [2, 3])
def test_power_presentation_matches_fixture(tmp_path, p):
    bundled = run_cli(["torsion", str(DATA / f"t{p}12_pres.json")])
    assert run_on(tmp_path, "torsion", builders.power_presentation(p)) == bundled


def test_bareiss_det():
    assert builders.bareiss_det([]) == 1
    assert builders.bareiss_det([[2, 1], [1, 3]]) == 5
    assert builders.bareiss_det([[0, 1], [1, 0]]) == -1
    assert builders.bareiss_det([[1, 2], [2, 4]]) == 0
    rng = random.Random(0)
    for n in range(1, 6):
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert builders.bareiss_det(m) == leibniz_det(m)


def leibniz_det(m):
    total = 0
    for perm in itertools.permutations(range(len(m))):
        sign = (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        total += sign * math.prod(m[i][j] for i, j in enumerate(perm))
    return total


@pytest.mark.parametrize("seed", range(3))
def test_rewritten_presentation_keeps_the_group(seed):
    base = builders.random_presentation(random.Random(seed), 6, 4)
    tau, group = fox.torsion(*fox.load_presentation_json(base))
    data = builders.rewrite_presentation(base, random.Random(seed + 10))
    tau2, group2 = fox.torsion(*fox.load_presentation_json(data))
    assert group2 == group
    assert len(tau2.support()) == len(tau.support())
    aug = abs(builders.bareiss_det(builders.exponent_matrix(data)))
    assert abs(sutured_kit.abelian.ring_aug(tau2)) == aug


@pytest.mark.parametrize("d, n, kind", [(2, 9, "cross"), (2, 7, "simplex"),
                                        (3, 12, "cube"), (4, 9, "cross")])
def test_support_set_has_the_constructed_vertices(d, n, kind):
    data, verts, symmetric = builders.support_set(random.Random(1), d, n, kind)
    assert len(data["points"]) == n
    hull = polytope.hull(polytope.SupportData.from_json(data))
    assert sorted(hull.vertices) == verts
    assert polytope.is_centrally_symmetric(hull) == symmetric


def test_maslov_builders_have_the_known_index():
    gen = np.random.default_rng(5)
    data, _, want = builders.lagrangian_loop(gen, 3, 300, [2, -1, 1])
    loop = maslov.UnitaryLoop(maslov.samples_from_json(data["samples"]))
    assert want == 2 and maslov.maslov_loop_index(loop) == want
    data, _, want = builders.unitary_loop(gen, 2, 300, [1, 1])
    loop = maslov.UnitaryLoop(maslov.samples_from_json(data["samples"]))
    assert want == 2 and maslov.symplectic_loop_index(loop) == want
    data, _, want = builders.symmetric_path(gen, 4, 300)
    path = maslov.SymmetricPath([s.real for s in maslov.samples_from_json(data["samples"])])
    assert maslov.spectral_flow(path) == want


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, name):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ops_a = workloads.build(name, 7, str(a), sutured_kit)
    ops_b = workloads.build(name, 7, str(b), sutured_kit)
    assert [op["check"] for op in ops_a] == [op["check"] for op in ops_b]
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)


def test_checks_reject_wrong_outputs():
    check = workloads.check_output
    assert check({"kind": "torsion", "aug": 3},
                 {"torsion": [{"coeff": 1}, {"coeff": 1}]}, sutured_kit)
    assert check({"kind": "chain_spinc", "k": 2}, {"classes": [[0, 1], [2, 3]]},
                 sutured_kit)
    assert check({"kind": "maslov", "key": "index", "want": 2}, {"index": 1},
                 sutured_kit)
    assert check({"kind": "chain_euler", "k": 1},
                 {"polynomial": [{"exp_free": [0], "coeff": 1}]}, sutured_kit)
