"""The README's table of error codes names every code the CLI can print,
and no other: the ``code`` of each subclass of ``SuturedKitError`` plus
the four that ``cli.main`` writes itself, with exit 2 for ``usage`` and
1 for every other code."""

from pathlib import Path

from sutured_kit import errors

README = Path(__file__).resolve().parent.parent / "README.md"
HEADER = "| code | exit | subcommands | when |"
CLI_CODES = {"usage", "bad_input", "file_not_found", "file_unreadable"}


def table_rows():
    """(code, exit, subcommands) of each row of the README's error table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER) + 2          # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        code, exit_code, subcommands, _ = (cell.strip() for cell in line.strip("|").split(" | "))
        rows.append((code.strip("`"), int(exit_code), subcommands))
    return rows


def library_codes():
    todo, codes = [errors.SuturedKitError], set()
    while todo:
        for cls in todo.pop().__subclasses__():
            codes.add(cls.code)
            todo.append(cls)
    return codes


def test_the_table_names_every_code_once():
    codes = [code for code, _, _ in table_rows()]
    assert len(codes) == len(set(codes))
    assert set(codes) == library_codes() | CLI_CODES


def test_usage_alone_exits_2():
    exits = {code: exit_code for code, exit_code, _ in table_rows()}
    assert {code: e for code, e in exits.items() if e != 1} == {"usage": 2}


def test_not_a_generator_is_marked_library_only():
    (subcommands,) = (s for code, _, s in table_rows() if code == "not_a_generator")
    assert subcommands.startswith("none: reached only by library calls")
