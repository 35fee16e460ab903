"""Line census: the statements of each function in ``src/sutured_kit`` that
no run of a wide set of inputs executes.

The inputs are the argv of ``test_census.census_argv`` (every bundled
fixture through each subcommand that fits it, both ``crosscheck`` and
``polytope`` variants, the ``oracle`` calculators, ``fixtures``, one tiny
``maslov`` input of each kind and the diagrams with periodic domains)
followed by every op of the five benchmark workloads at seed 11.  Each
runs through ``cli.main`` under ``sys.settrace`` with line events, traced
only in the package's own frames.  A simple statement counts as run when
any of its lines ran, a compound one when its header did (``try`` and
bare ``else`` have no header and are judged by what they hold), and a
docstring is not a statement.  The output is one line with the number of
argv, the number that exited non-zero and the wall time, then each
function with a statement that never ran: ``(not called)`` when none of
its body did, else each such statement's line number and first line.

Run from the root of the repository; it takes a few seconds and writes
its inputs to a temporary directory:

    PYTHONPATH=src:tests:bench python tests/line_census.py
"""

import ast
import contextlib
import inspect
import io
import sys
import tempfile
import time
from pathlib import Path

import sutured_kit
from sutured_kit import cli, fox
from test_census import census_argv, modules
import workloads

SEED = 11


def all_argv(tmp):
    runs = census_argv(tmp)
    for name in workloads.WORKLOADS:
        workdir = tmp / name
        workdir.mkdir()
        runs += [op["argv"] for op in workloads.build(name, SEED, str(workdir), sutured_kit)]
    return runs


def run_traced(runs):
    """The (file, line) pairs that ran in the package, and the exit codes."""
    package = str(Path(sutured_kit.__file__).parent)
    ran = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(package) else None

    fox._letter_table.cache_clear()     # a cached table would hide its lines
    codes = []
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv))
    finally:
        sys.settrace(previous)
    return ran, codes


def statements(body):
    """(node, lines) of each statement in body and in the bodies it holds,
    lines being those whose line event counts as running the node."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            # the def (from its first decorator) runs; its body is its own function
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            yield node, set(range(first, node.lineno + 1))
            continue
        inner = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
        inner += [h.body for h in getattr(node, "handlers", [])]
        if not any(inner):
            yield node, set(range(node.lineno, node.end_lineno + 1))
            continue
        if not isinstance(node, ast.Try):
            yield node, set(range(node.lineno, node.body[0].lineno))
        for handler in getattr(node, "handlers", []):
            yield handler, {handler.lineno}
        for block in inner:
            yield from statements(block)


def functions(tree, prefix):
    """(dotted name, def node) of every function in tree, methods and nested ones too."""
    stack = [(tree, prefix)]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    yield name, child
            stack.append((child, name))


def unrun(ran):
    """{dotted function name: None if not called, else [(line, text)] not run}."""
    out = {}
    for prefix, module in modules():
        path = inspect.getsourcefile(module)
        source = inspect.getsource(module)
        lines = source.splitlines()
        for name, fn in functions(ast.parse(source), prefix):
            body = fn.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            stmts = list(statements(body))
            missed = sorted((node.lineno, lines[node.lineno - 1].strip()) for node, span in stmts
                            if not any((path, n) in ran for n in span))
            if len(missed) == len(stmts) and stmts:
                out[name] = None
            elif missed:
                out[name] = missed
    return out


def main():
    with tempfile.TemporaryDirectory() as tmp:
        runs = all_argv(Path(tmp))
        start = time.perf_counter()
        ran, codes = run_traced(runs)
        wall = time.perf_counter() - start
    print(f"{len(runs)} argv, {sum(1 for c in codes if c)} failed, {wall:.1f} s traced")
    for name, missed in sorted(unrun(ran).items()):
        if missed is None:
            print(f"{name} (not called)")
            continue
        print(name)
        for line, text in missed:
            print(f"  {line:5d}  {text}")


if __name__ == "__main__":
    main()
