"""Every name imported in the library and in the tests is used.

No linter ships with the project, so this is pyflakes' F401 on the AST:
an import binds its names in the innermost enclosing function (or the
module), and each bound name must appear as a ``Name`` somewhere in that
scope.  ``import a.b`` binds ``a``.  An import statement whose lines
carry ``# noqa: F401`` is skipped, as for ``__init__.py``'s re-exports
of the submodules."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "sutured_kit").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(source):
    """(line, name) of each imported name that its scope never reads."""
    lines = source.splitlines()
    unused = []

    def visit(scope):
        names = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            if isinstance(node, SCOPES):
                visit(node)
                continue
            todo.extend(ast.iter_child_nodes(node))
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in names:
                    unused.append((node.lineno, bound))

    visit(ast.parse(source))
    return sorted(unused)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_each_scope():
    source = ("import os\nimport a.b\nfrom x import y as z  # noqa: F401\n"
              "def f():\n    from q import r\n    return a\n"
              "def g():\n    r = 1\n    return os, r\n")
    assert unused_imports(source) == [(5, "r")]
