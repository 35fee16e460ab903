"""Command-line front end.

Every subcommand is a function from the parsed arguments to its JSON
payload; ``main`` is the one writer of stdout and prints exactly one JSON
document (sorted keys, so the bytes are reproducible across runs).  Exit
codes: 0 on success, 1 on a domain error (reported as {"error": code,
"detail": text}), 2 on a usage error.  A result that cannot be encoded,
such as an integer past the interpreter's int-to-str digit limit, is a
``bad_input`` error document.  ``--help`` is the one exception: ``main``
prints the usage text, not JSON, and returns 0.

The argv grammar is one table, ``_COMMANDS``, read by ``_parse`` the way
argparse would read it, but no option may be abbreviated or given twice.
The rules that span options (one ``polytope`` source, one ``oracle``
calculator, ``--with-closed`` only with ``--connected-sum``) are checked by
the subcommands, before they read any input.
"""

import gc
import json
import sys
from operator import mod, sub
from types import SimpleNamespace

from . import abelian, diagram, fixtures, fox, oracle, polytope
from .abelian import GroupRingElem
from .errors import SuturedKitError, expect


class UsageError(Exception):
    pass


_quote = json.encoder.encode_basestring_ascii    # TypeError on anything but a str


def _encode(x, indent):
    """``json.dumps(x, sort_keys=True, indent=2)`` nested at ``indent``.

    The standard library runs its pure-Python encoder whenever ``indent``
    is set; this walk builds the same bytes from the C string quoting.  It
    writes what the subcommands return and nothing else: dicts with str
    keys, lists and tuples, str, int, bool and None, a ``GroupRingElem`` as
    its list of terms, see ``_encode_ring``, and a ``SpincPartition`` as
    the differences of its class values, every ordered pair, see
    ``_encode_differences``.  Any other type raises TypeError.
    """
    kind = type(x)
    if kind is int:
        return int.__repr__(x)
    if kind is str:
        return _quote(x)
    if kind is list or kind is tuple:
        if not x:
            return "[]"
        inner = indent + "  "
        items = (map(int.__repr__, x) if {*map(type, x)} == {int}    # plain ints, no bools
                 else [_encode(v, inner) for v in x])
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict:
        if not x:
            return "{}"
        inner = indent + "  "
        items = [_quote(k) + ": " + _encode(x[k], inner) for k in sorted(x)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if kind is GroupRingElem:
        return _encode_ring(x, indent)
    if kind is diagram.SpincPartition:
        return _encode_differences(x, indent)
    if kind is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    raise TypeError(f"a payload holds no {kind.__name__}")


def _int_list(indent):
    """The writer of a tuple of ints as ``_encode`` writes it at ``indent``."""
    sep, head, tail = ",\n" + indent + "  ", "[\n" + indent + "  ", "\n" + indent + "]"

    def ints(t):
        return head + sep.join(map(str, t)) + tail if t else "[]"
    return ints


def _encode_ring(x, indent):
    """The terms of x in order, each as ``{"coeff": c, "exp_free": [...],
    "exp_torsion": [...]}``, written with one f-string per term."""
    if x.is_zero():
        return "[]"
    inner = indent + "  "
    field = inner + "  "
    ints = _int_list(field)
    terms = [f'{{\n{field}"coeff": {c},\n{field}"exp_free": {ints(free)},\n'
             f'{field}"exp_torsion": {ints(res)}\n{inner}}}' for (free, res), c in x.items()]
    return "[\n" + inner + (",\n" + inner).join(terms) + "\n" + indent + "]"


def _encode_differences(part, indent):
    """The differences of a Spin^c partition by (from, to), each as
    ``{"element": {"free": [...], "torsion": [...]}, "from": a, "to": b}``,
    written with one f-string per entry.  The element is ``values[b] -
    values[a]``, residues mod d; looping a, then b, is the sorted order."""
    values, tors = part.values, part.group.torsion
    if not values:
        return "[]"
    inner = indent + "  "
    field = inner + "  "
    deep = field + "  "
    ints = _int_list(deep)
    entries = [f'{{\n{field}"element": {{\n{deep}"free": {ints(tuple(map(sub, fb, fa)))},\n'
               f'{deep}"torsion": {ints(tuple(map(mod, map(sub, tb, ta), tors)))}\n{field}}},\n'
               f'{field}"from": {a},\n{field}"to": {b}\n{inner}}}'
               for a, (fa, ta) in enumerate(values) for b, (fb, tb) in enumerate(values)]
    return "[\n" + inner + (",\n" + inner).join(entries) + "\n" + indent + "]"


def _emit(payload):
    sys.stdout.write(_encode(payload, "") + "\n")


def _load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        # a parsed JSON document holds no reference cycles, so a collection
        # during the parse could free nothing and only walks the new objects
        enabled = gc.isenabled()
        gc.disable()
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None
        finally:
            if enabled:
                gc.enable()


def _load_diagram(path):
    return diagram.SuturedDiagram.from_json(_load_json_file(path))


def _load_presentation(path):
    return fox.load_presentation_json(_load_json_file(path))


# -- subcommands ---------------------------------------------------------------

def cmd_check(args):
    d = _load_diagram(args.diagram)
    report = d.validate()
    out = {"valid": report.ok}
    if not report.ok:
        out["violations"] = sorted(report.violations)
        out["balanced"] = None
        out["admissible"] = None
        return out
    balance = d.is_balanced()
    out["balanced"] = balance.balanced
    if not balance.balanced:
        out["reasons"] = sorted(balance.reasons)
    out["admissible"] = diagram.is_admissible(d)
    return out


def cmd_generators(args):
    d = _load_diagram(args.diagram)
    gens = diagram.generators(d)
    return {"count": len(gens),
            "generators": [[{"alpha": i, "beta": j, "point": p} for i, (j, p) in enumerate(g)]
                           for g in gens]}


def cmd_spinc(args):
    d = _load_diagram(args.diagram)
    part = diagram.spinc_partition(d)
    return {
        "h1": abelian.group_to_json(part.group),
        "classes": [list(c) for c in part.classes],
        "base_class": 0,
        "differences": part,     # written by _encode_differences
    }


def cmd_euler(args):
    d = _load_diagram(args.diagram)
    poly, group = diagram.euler_polynomial(d)
    return {"h1": abelian.group_to_json(group), "polynomial": poly}


def cmd_torsion(args):
    p, k = _load_presentation(args.presentation)
    tau, group = fox.torsion(p, k)
    return {"h1": abelian.group_to_json(group), "torsion": tau}


def cmd_crosscheck(args):
    d = _load_diagram(args.diagram)
    p, k = _load_presentation(args.presentation)
    poly, dgroup = diagram.euler_polynomial(d)
    tau, pgroup = fox.torsion(p, k)
    out = {
        "euler": poly,
        "torsion": tau,
        "h1_diagram": abelian.group_to_json(dgroup),
        "h1_presentation": abelian.group_to_json(pgroup),
    }
    if dgroup != pgroup:
        out["match"] = False
        out["mode"] = None
        out["detail"] = "homology groups differ"
        return out
    # both are already normal forms up to +-h, so equality up to units is ==
    if poly == tau:
        out["match"], out["mode"] = True, "plain"
    elif args.allow_inversion and poly == abelian.doteq_normalize(
            abelian.ring_invert_exponents(tau, dgroup), dgroup):
        out["match"], out["mode"] = True, "inverted"
    else:
        out["match"], out["mode"] = False, None
    return out


def cmd_polytope(args):
    if (args.support is None) == (args.diagram is None):
        raise UsageError("choose one of --support / --diagram")
    if args.support is not None:
        data = polytope.SupportData.from_json(_load_json_file(args.support))
    else:
        d = _load_diagram(args.diagram)
        poly, group = diagram.euler_polynomial(d)
        data = polytope.support_from_euler_polynomial(poly, group)
    hull = polytope.hull(data)
    if args.canonical:
        hull = hull.canonical_translate()
    return hull.to_json()


def cmd_oracle(args):
    calculators = (args.solid_torus, args.closed, args.connected_sum)
    if sum(c is not None for c in calculators) > 1:
        raise UsageError("choose one of --solid-torus / --closed / --connected-sum")
    if args.with_closed and not args.connected_sum:
        raise UsageError("--with-closed applies only to --connected-sum")
    if args.solid_torus:
        return oracle.solid_torus_sfh(*args.solid_torus).to_json()
    if args.closed:
        return {"rank": oracle.closed_manifold_rank(*args.closed)}
    if args.connected_sum:
        return {"rank": oracle.connected_sum_rank(*args.connected_sum,
                                                  with_closed=args.with_closed)}
    raise UsageError("choose one of --solid-torus / --closed / --connected-sum")


_MASLOV_KINDS = ("lagrangian_loop", "symplectic_loop", "spectral_flow")


def cmd_maslov(args):
    from . import maslov     # the one subcommand that needs numpy
    data = expect(_load_json_file(args.input), dict, "maslov JSON")
    kind = args.kind or expect(data.get("kind"), str, "kind")
    if kind not in _MASLOV_KINDS:
        raise ValueError(f"kind must be one of {', '.join(_MASLOV_KINDS)}, got {kind!r}")
    samples = maslov.samples_from_json(data.get("samples"))
    if args.samples is not None and len(samples) - 1 != args.samples:
        raise UsageError(f"input provides {len(samples) - 1} steps, "
                         f"--samples asked for {args.samples}")
    if kind == "lagrangian_loop":
        return {"kind": kind, "index": maslov.maslov_loop_index(maslov.UnitaryLoop(samples))}
    if kind == "symplectic_loop":
        return {"kind": kind, "index": maslov.symplectic_loop_index(maslov.UnitaryLoop(samples))}
    return {"kind": kind, "flow": maslov.spectral_flow(maslov.SymmetricPath(samples))}


def cmd_fixtures(args):
    return {"fixtures": [f._asdict() for f in fixtures.FIXTURES],
            "directory": str(fixtures.fixtures_dir())}


# -- argv ----------------------------------------------------------------------

_HELP = ("-h", "--help")

# subcommand: (function, help, positionals, options).  An option is (flag,
# metavars, type, help): with no metavar it is a flag, False unless given;
# with one it takes one value of its type (str, int, or a tuple of the
# choices); with several, that many ints as a list.  A value not given is None.
_COMMANDS = {
    "check": (cmd_check, "validate a diagram; report balance and admissibility",
              ("diagram",), ()),
    "generators": (cmd_generators, "enumerate the generators of a diagram", ("diagram",), ()),
    "spinc": (cmd_spinc, "partition generators into Spin^c classes", ("diagram",), ()),
    "euler": (cmd_euler, "signed Euler polynomial of a diagram", ("diagram",), ()),
    "torsion": (cmd_torsion, "torsion determinant of a presentation", ("presentation",), ()),
    "crosscheck": (cmd_crosscheck, "compare a diagram's Euler polynomial with a "
                   "presentation's torsion up to units", ("diagram", "presentation"), (
                       ("--allow-inversion", (), None,
                        "also try the exponent inversion h -> h^-1"),)),
    "polytope": (cmd_polytope, "hull, facets and symmetry of support data "
                 "(exactly one of --support, --diagram)", (), (
                     ("--support", ("SUPPORT",), str, "explicit support JSON file"),
                     ("--diagram", ("DIAGRAM",), str,
                      "take support from a diagram's Euler polynomial"),
                     ("--canonical", (), None, "translate the lex-min vertex to the origin"))),
    "oracle": (cmd_oracle, "closed-form rank calculators (exactly one of "
               "--solid-torus, --closed, --connected-sum)", (), (
                   ("--solid-torus", ("P", "Q", "N"), int,
                    "solid torus with N parallel (P, Q) sutures"),
                   ("--closed", ("HF_RANK", "N"), int, "closed manifold minus N balls"),
                   ("--connected-sum", ("A", "B"), int, "connected sum of pieces of ranks A, B"),
                   ("--with-closed", (), None, "second summand is a closed manifold"))),
    "maslov": (cmd_maslov, "loop indices and spectral flow from sampled matrix data",
               ("input",), (
                   ("--kind", ("KIND",), _MASLOV_KINDS, "overrides the input's kind"),
                   ("--samples", ("N",), int, "expected number of steps (guard)"))),
    "fixtures": (cmd_fixtures, "list bundled fixtures", (), ()),
}


class _Help(Exception):
    """``-h`` or ``--help`` was read; the argument is the usage text."""


def _usage(command=None):
    """The ``--help`` text of the top level or of one subcommand."""
    if command is None:
        head = ["usage: sutured-kit [-h] command ...", "",
                "Combinatorial invariants of balanced sutured 3-manifolds", "", "commands:"]
        rows = [(name, entry[1]) for name, entry in _COMMANDS.items()]
    else:
        _, text, positionals, options = _COMMANDS[command]
        rows = [(" ".join([flag, "{" + ",".join(kind) + "}"] if type(kind) is tuple
                          else [flag, *metavars]), note)
                for flag, metavars, kind, note in options]
        head = [" ".join([f"usage: sutured-kit {command} [-h]", *(f"[{r}]" for r, _ in rows),
                          *positionals]), "", text] + (["", "options:"] if rows else [])
    width = max((len(r) for r, _ in rows), default=0)
    return "\n".join(head + [f"  {r:{width}}  {note}" for r, note in rows]) + "\n"


def _is_negative_number(token):
    """argparse's ``-\\d+|-\\d*\\.\\d+``: the token is a value, not an option."""
    whole, dot, frac = token[1:].partition(".")
    if dot:
        return (not whole or whole.isdecimal()) and frac.isdecimal()
    return whole.isdecimal()


def _is_option(token, known):
    """Whether argparse reads ``token`` as an option, known or not."""
    return (token.partition("=")[0] in known
            or len(token) > 1 and token[0] == "-" and " " not in token
            and not _is_negative_number(token))


def _takes(flag, arity):
    return f"{flag} takes {arity} value{'' if arity == 1 else 's'}"


def _parse(argv=None):
    """``argv`` (default ``sys.argv[1:]``) read against ``_COMMANDS`` the way
    argparse reads it, except that no option may be abbreviated or given
    twice.  Returns a ``SimpleNamespace`` of ``command``, ``func`` and one
    attribute per positional and option; raises ``UsageError`` on a bad
    argv and ``_Help`` when ``-h``/``--help`` is read.

    Tokens are read left to right, and ``--`` makes every later one a
    positional.  A malformed option is refused where it stands, before a
    later ``--help``; an unknown option or a missing or surplus positional
    is refused at the end, after it."""
    tokens = sys.argv[1:] if argv is None else list(argv)
    unknown = []
    for start, token in enumerate(tokens):
        if token == "--":
            raise UsageError("-- before the subcommand")
        if not _is_option(token, _HELP):
            break
        flag, eq, _ = token.partition("=")
        if flag not in _HELP:
            unknown.append(token)
        elif eq:
            raise UsageError(_takes(flag, 0) + ", not one after =")
        else:
            raise _Help(_usage())
    else:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}" if unknown
                         else "missing subcommand")
    command = token
    if command not in _COMMANDS:
        raise UsageError(f"invalid choice: {command!r} (choose from {', '.join(_COMMANDS)})")
    func, _, positionals, options = _COMMANDS[command]
    values = {"command": command, "func": func}
    known = dict.fromkeys(_HELP, (None, 0, None))
    for flag, metavars, kind, _ in options:
        dest = flag[2:].replace("-", "_")
        known[flag] = (dest, len(metavars), kind)
        values[dest] = None if metavars else False
    free, given = [], set()
    literal = dangling = follows_free = False
    rest = iter(tokens[start + 1:])
    for token in rest:
        if literal or token != "--" and not _is_option(token, known):
            free.append(token)
            dangling, follows_free = False, True
            continue
        if token == "--":
            # argparse takes "--" only beside a positional, before or after it
            literal, dangling = True, not follows_free
            continue
        follows_free = False
        flag, eq, value = token.partition("=")
        if flag not in known:
            unknown.append(token)
            continue
        dest, arity, kind = known[flag]
        if eq and arity != 1:
            raise UsageError(_takes(flag, arity) + ", not one after =")
        if dest is None:
            raise _Help(_usage(command))
        if flag in given:
            raise UsageError(f"{flag} given more than once")
        given.add(flag)
        if not arity:
            values[dest] = True
            continue
        got = [value] if eq else [next(rest, None) for _ in range(arity)]
        if not eq and (None in got or any(_is_option(v, known) for v in got)):
            raise UsageError(_takes(flag, arity))
        if type(kind) is tuple and got[0] not in kind:
            raise UsageError(f"{flag}: invalid choice {got[0]!r} (choose from {', '.join(kind)})")
        if kind is int:
            try:
                got = [int(v) for v in got]
            except ValueError as exc:
                raise UsageError(f"{flag}: {exc}") from None
        values[dest] = got if arity > 1 else got[0]
    if len(free) < len(positionals):
        raise UsageError("the following arguments are required: "
                         + ", ".join(positionals[len(free):]))
    unknown += free[len(positionals):] + ["--"] * dangling
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    values.update(zip(positionals, free))
    return SimpleNamespace(**values)


_PARSER = SimpleNamespace(parse_args=_parse)


def build_parser():
    """The argv parser of ``main``: ``build_parser().parse_args(argv)`` is the
    namespace ``main`` runs.  Its grammar is the ``_COMMANDS`` table, so this
    builds nothing."""
    return _PARSER


def main(argv=None):
    try:
        args = _parse(argv)
        _emit(args.func(args))
        return 0
    except _Help as exc:
        sys.stdout.write(exc.args[0])
        return 0
    except UsageError as exc:
        _emit({"error": "usage", "detail": str(exc)})
        return 2
    except SuturedKitError as exc:
        _emit({"error": exc.code, "detail": exc.detail})
        return 1
    except FileNotFoundError as exc:
        _emit({"error": "file_not_found", "detail": str(exc)})
        return 1
    except OSError as exc:        # a directory, no read permission, ...
        _emit({"error": "file_unreadable", "detail": str(exc)})
        return 1
    except ValueError as exc:     # json.JSONDecodeError, an int past the digit limit, ...
        _emit({"error": "bad_input", "detail": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
