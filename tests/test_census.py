"""Which library functions the CLI reaches: ROADMAP direction 7's census.

``cli.main`` runs under ``sys.settrace`` with ``call`` events only (the
trace function returns None, so no line is traced) on every bundled
fixture through each subcommand that fits it, ``crosscheck`` with and
without ``--allow-inversion``, ``polytope`` with and without
``--canonical``, the three ``oracle`` calculators, ``fixtures``, one tiny
``maslov`` input of each kind, and the diagrams with periodic domains
through ``check``.  The code objects that got a call are matched to the
``def``s of ``sutured_kit`` by (file, first line), the first line being
that of the first decorator, as ``co_firstlineno`` counts it.

Every function is reached or named in ``UNREACHED`` under the reason it
stays, and no function named there is reached: a function that only the
tests call fails the first check, and one that gains a caller in the CLI
fails the second, so the list has to follow the library either way.

A second, static census finds the fields that nothing in the library
reads.  Every attribute stored in ``sutured_kit`` (``self.x = ...``, or
``x.y = ...`` on any object) is keyed by the class whose body holds the
store, or by its module outside a class.  A load ``self.x`` inside a class
reads that class's ``x`` only; a load ``obj.x`` on any other object reads
every stored ``x``.  A stored field that no load reads is named in
``WRITE_ONLY`` under the reason it stays, and the list holds nothing else.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time

import numpy as np

from conftest import (circle_pairs_disk, fixture_path, lagrangian_loop, paired_names,
                      random_symmetric, s1xs2_minus_ball, unitary_group_loop)
import sutured_kit
from sutured_kit import cli, fixtures

UNREACHED = {
    "paper maps that ROADMAP direction 4 gives a caller": """
        abelian.GroupElement.is_identity abelian.IntMatrix.__matmul__
        diagram._H1Data.class_of diagram._H1Data.difference diagram._H1Data.image
        diagram._H1Data.potential_sum diagram._check_generator diagram._eps_chain
        diagram.connecting_domains diagram.epsilon diagram.h1_of_M
        polytope.depth_bound polytope.seifert_surface_bound""",
    "called by the benchmark, which keeps them until ROADMAP direction 1 moves it": """
        abelian.GroupRingElem.support abelian.IntMatrix.__init__ abelian._perm_sign
        abelian.ring_aug cli.build_parser diagram.generator_sign
        oracle.RankTable.values_in_order""",
    "reached by the CLI only where the census cannot go: a crosscheck that matches "
    "only after the inversion (no bundled pair), and the first import of maslov, "
    "which conftest has made": """
        __init__.__getattr__ abelian.doteq_normalize abelian.ring_invert_exponents""",
    "input validation and error paths, which no input here takes": """
        cli._is_negative_number cli._takes cli._usage diagram.format_arc_ref
        diagram.parse_arc_ref
        errors.SuturedKitError.__init__ maslov._first_overflow maslov.matrix_from_json""",
}


WRITE_ONLY = {
    "pinned by tests/test_sparse_cells.py, which bounds its nonzero entries": """
        diagram._H1Data.phi""",
}


def modules():
    """(name, module) of each module of the package, its own named ``__init__``."""
    return [("__init__", sutured_kit)] + [
        (info.name, importlib.import_module(f"sutured_kit.{info.name}"))
        for info in pkgutil.iter_modules(sutured_kit.__path__)]


def definitions():
    """{(file, first line): dotted name} of every def in the package."""
    out = {}
    for prefix, module in modules():
        path = inspect.getsourcefile(module)
        stack = [(ast.parse(inspect.getsource(module)), prefix)]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    first = min(d.lineno for d in child.decorator_list + [child])
                    out[(path, first)] = name
                stack.append((child, name))
    return out


def maslov_rows(mats):
    return [[[{"re": z.real, "im": z.imag} for z in row] for row in m.tolist()] for m in mats]


def census_argv(tmp_path):
    runs = []
    for f in fixtures.FIXTURES:
        path = fixture_path(f.name)
        if f.kind == "diagram":
            runs += [[command, path] for command in ("check", "generators", "spinc", "euler")]
            runs += [["polytope", "--diagram", path] + extra for extra in ([], ["--canonical"])]
        elif f.kind == "presentation":
            runs.append(["torsion", path])
        else:
            runs += [["polytope", "--support", path] + extra for extra in ([], ["--canonical"])]
    for dname, pname in paired_names():
        runs += [["crosscheck", fixture_path(dname), fixture_path(pname)] + extra
                 for extra in ([], ["--allow-inversion"])]
    runs += [["oracle", "--solid-torus", "2", "1", "2"], ["oracle", "--closed", "3", "2"],
             ["oracle", "--connected-sum", "2", "3"], ["fixtures"]]
    rng = np.random.default_rng(0)
    a, b = random_symmetric(rng, 2, (-1, 1)), random_symmetric(rng, 2, (1, 2))
    inputs = [("maslov", {"kind": kind, "samples": maslov_rows(samples)}) for kind, samples in (
        ("lagrangian_loop", lagrangian_loop(rng, 1, 48, [1])[0]),
        ("symplectic_loop", unitary_group_loop(rng, 1, 48, [1])[0]),
        ("spectral_flow", [(1 - t) * a + t * b for t in np.linspace(0, 1, 9)]))]
    inputs += [("check", data) for data in [s1xs2_minus_ball()] + [circle_pairs_disk(k)
                                                                    for k in (1, 2, 3)]]
    for i, (command, data) in enumerate(inputs):
        path = tmp_path / f"input{i}.json"
        path.write_text(json.dumps(data))
        runs.append([command, str(path)])
    return runs


def test_every_function_is_reached_or_listed(tmp_path):
    runs = census_argv(tmp_path)
    seen = set()

    def on_call(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    start = time.perf_counter()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        codes = []
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
    finally:
        sys.settrace(previous)
    assert time.perf_counter() - start < 2.0
    assert codes == [0] * len(runs)

    names = definitions()
    assert len(set(names.values())) == len(names)
    reached = {name for key, name in names.items() if key in seen}
    listed = {name for text in UNREACHED.values() for name in text.split()}
    assert sorted(listed - set(names.values())) == []
    assert sorted(set(names.values()) - reached - listed) == []
    assert sorted(listed & reached) == []
    assert "diagram._H1Data.lift" in reached


def write_only_fields():
    """Sorted dotted names of the fields stored in the package that no load reads."""
    stores, loads = set(), set()
    for name, module in modules():
        stack = [(ast.parse(inspect.getsource(module)), name)]
        while stack:
            node, scope = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Attribute):
                    if isinstance(child.ctx, ast.Store):
                        stores.add((scope, child.attr))
                    elif isinstance(child.value, ast.Name) and child.value.id == "self":
                        loads.add((scope, child.attr))
                    else:
                        loads.add((None, child.attr))
                inner = f"{scope}.{child.name}" if isinstance(child, ast.ClassDef) else scope
                stack.append((child, inner))
    return sorted(f"{scope}.{attr}" for scope, attr in stores
                  if (scope, attr) not in loads and (None, attr) not in loads)


def test_every_stored_field_is_read_or_listed():
    listed = sorted(name for text in WRITE_ONLY.values() for name in text.split())
    assert write_only_fields() == listed
