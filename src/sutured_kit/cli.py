"""Command-line front end.

Every subcommand prints one JSON document on stdout (sorted keys, so the
bytes are reproducible across runs).  Exit codes: 0 on success, 1 on a
domain error (reported as {"error": code, "detail": text}), 2 on a usage
error.
"""

import argparse
import functools
import json
import sys

from . import abelian, diagram, fixtures, fox, oracle, polytope
from .abelian import GroupRingElem
from .errors import SuturedKitError, expect


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would print to stderr and exit(2); route it through JSON instead
    def error(self, message):
        raise UsageError(message)


class _Once(argparse.Action):
    # argparse would keep the last of a repeated option; refuse the repeat instead
    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise UsageError(f"{option_string} given more than once")
        setattr(namespace, self.dest, values)


_scalar = json.JSONEncoder(sort_keys=True).encode
_quote = json.encoder.encode_basestring_ascii


def _encode(x, indent):
    """``json.dumps(x, sort_keys=True, indent=2)`` nested at ``indent``.

    The standard library runs its pure-Python encoder whenever ``indent``
    is set; this walk builds the same bytes from the C string quoting.  A
    ``GroupRingElem`` is written as its list of terms, see ``_encode_ring``.
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
        items = [_encode(v, inner) for v in x]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict:
        if not x:
            return "{}"
        inner = indent + "  "
        if all(type(k) is str for k in x):
            items = [_quote(k) + ": " + _encode(x[k], inner) for k in sorted(x)]
        else:   # sorted as they are, then written as strings
            items = [_quote(_key(k)) + ": " + _encode(v, inner) for k, v in sorted(x.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if kind is GroupRingElem:
        return _encode_ring(x, indent)
    if kind is float or kind is bool or x is None:
        return _scalar(x)
    return json.dumps(x, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _key(k):
    """A dict key as ``json.dumps`` writes it."""
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        return _scalar(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _encode_ring(x, indent):
    """The terms of x in order, each as ``{"coeff": c, "exp_free": [...],
    "exp_torsion": [...]}``, written with one f-string per term."""
    if x.is_zero():
        return "[]"
    inner = indent + "  "
    field = inner + "  "
    sep, head, tail = ",\n" + field + "  ", "[\n" + field + "  ", "\n" + field + "]"

    def ints(t):
        return head + sep.join(map(str, t)) + tail if t else "[]"

    terms = [f'{{\n{field}"coeff": {c},\n{field}"exp_free": {ints(free)},\n'
             f'{field}"exp_torsion": {ints(res)}\n{inner}}}' for (free, res), c in x.items()]
    return "[\n" + inner + (",\n" + inner).join(terms) + "\n" + indent + "]"


def _emit(payload):
    sys.stdout.write(_encode(payload, "") + "\n")


def _load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


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
        _emit(out)
        return 0
    balance = d.is_balanced()
    out["balanced"] = balance.balanced
    if not balance.balanced:
        out["reasons"] = sorted(balance.reasons)
    out["admissible"] = diagram.is_admissible(d)
    _emit(out)
    return 0


def cmd_generators(args):
    d = _load_diagram(args.diagram)
    gens = diagram.generators(d)
    _emit({"count": len(gens), "generators": [g.to_json() for g in gens]})
    return 0


def cmd_spinc(args):
    d = _load_diagram(args.diagram)
    part = diagram.spinc_partition(d)
    diffs = [{"from": a, "to": b,
              "element": {"free": list(e.free), "torsion": list(e.torsion)}}
             for (a, b), e in sorted(part.difference.items())]
    _emit({
        "h1": abelian.group_to_json(part.group),
        "classes": [list(c) for c in part.classes],
        "base_class": 0,
        "differences": diffs,
    })
    return 0


def cmd_euler(args):
    d = _load_diagram(args.diagram)
    poly, group = diagram.euler_polynomial(d)
    _emit({"h1": abelian.group_to_json(group),
           "polynomial": poly})
    return 0


def cmd_torsion(args):
    p, k = _load_presentation(args.presentation)
    tau, group = fox.torsion(p, k)
    _emit({"h1": abelian.group_to_json(group),
           "torsion": tau})
    return 0


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
        _emit(out)
        return 0
    # both are already normal forms up to +-h, so equality up to units is ==
    if poly == tau:
        out["match"], out["mode"] = True, "plain"
    elif args.allow_inversion and poly == abelian.doteq_normalize(
            abelian.ring_invert_exponents(tau, dgroup), dgroup):
        out["match"], out["mode"] = True, "inverted"
    else:
        out["match"], out["mode"] = False, None
    _emit(out)
    return 0


def cmd_polytope(args):
    if args.support:
        data = polytope.SupportData.from_json(_load_json_file(args.support))
    else:
        d = _load_diagram(args.diagram)
        poly, group = diagram.euler_polynomial(d)
        data = polytope.support_from_euler_polynomial(poly, group)
    hull = polytope.hull(data)
    if args.canonical:
        hull = hull.canonical_translate()
    _emit(hull.to_json())
    return 0


def cmd_oracle(args):
    if args.with_closed and not args.connected_sum:
        raise UsageError("--with-closed applies only to --connected-sum")
    if args.solid_torus:
        p, q, n = args.solid_torus
        _emit(oracle.solid_torus_sfh(p, q, n).to_json())
    elif args.closed:
        hf, n = args.closed
        _emit({"rank": oracle.closed_manifold_rank(hf, n)})
    elif args.connected_sum:
        a, b = args.connected_sum
        _emit({"rank": oracle.connected_sum_rank(a, b, with_closed=args.with_closed)})
    else:
        raise UsageError("choose one of --solid-torus / --closed / --connected-sum")
    return 0


def cmd_maslov(args):
    from . import maslov     # the one subcommand that needs numpy
    data = expect(_load_json_file(args.input), dict, "maslov JSON")
    kind = args.kind or expect(data.get("kind"), str, "kind")
    samples = maslov.samples_from_json(data.get("samples"))
    if args.samples is not None and len(samples) - 1 != args.samples:
        raise UsageError(f"input provides {len(samples) - 1} steps, "
                         f"--samples asked for {args.samples}")
    if kind == "lagrangian_loop":
        _emit({"kind": kind, "index": maslov.maslov_loop_index(maslov.UnitaryLoop(samples))})
    elif kind == "symplectic_loop":
        _emit({"kind": kind, "index": maslov.symplectic_loop_index(maslov.UnitaryLoop(samples))})
    elif kind == "spectral_flow":
        _emit({"kind": kind, "flow": maslov.spectral_flow(maslov.SymmetricPath(samples))})
    else:
        raise UsageError(f"unknown maslov input kind {kind!r}")
    return 0


def cmd_fixtures(args):
    _emit({"fixtures": [f.to_json() for f in fixtures.fixture_list()],
           "directory": str(fixtures.fixtures_dir())})
    return 0


# -- wiring ---------------------------------------------------------------------

@functools.cache
def build_parser():
    """The one parser of the process; ``parse_args`` keeps no state in it."""
    parser = _Parser(prog="sutured-kit",
                     description="Combinatorial invariants of balanced sutured "
                                 "3-manifolds")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("check", help="validate a diagram; report balance "
                       "and admissibility")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generators", help="enumerate the generators of a diagram")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("spinc", help="partition generators into Spin^c classes")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_spinc)

    p = sub.add_parser("euler", help="signed Euler polynomial of a diagram")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("torsion", help="torsion determinant of a presentation")
    p.add_argument("presentation")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("crosscheck", help="compare a diagram's Euler polynomial "
                       "with a presentation's torsion up to units")
    p.add_argument("diagram")
    p.add_argument("presentation")
    p.add_argument("--allow-inversion", action="store_true",
                   help="also try the exponent inversion h -> h^-1")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("polytope", help="hull, facets and symmetry of support data")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--support", help="explicit support JSON file")
    group.add_argument("--diagram", help="take support from a diagram's Euler polynomial")
    p.add_argument("--canonical", action="store_true",
                   help="translate the lex-min vertex to the origin")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("oracle", help="closed-form rank calculators")
    calculator = p.add_mutually_exclusive_group()
    calculator.add_argument("--solid-torus", nargs=3, type=int, action=_Once,
                            metavar=("P", "Q", "N"))
    calculator.add_argument("--closed", nargs=2, type=int, action=_Once, metavar=("HF_RANK", "N"))
    calculator.add_argument("--connected-sum", nargs=2, type=int, action=_Once, metavar=("A", "B"))
    p.add_argument("--with-closed", action="store_true",
                   help="second summand is a closed manifold")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("maslov", help="loop indices and spectral flow from "
                       "sampled matrix data")
    p.add_argument("input", help="JSON file with kind and samples")
    p.add_argument("--kind", choices=["lagrangian_loop", "symplectic_loop",
                                      "spectral_flow"])
    p.add_argument("--samples", type=int, help="expected number of steps (guard)")
    p.set_defaults(func=cmd_maslov)

    p = sub.add_parser("fixtures", help="list bundled fixtures")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            raise UsageError("missing subcommand")
        return args.func(args)
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
    except ValueError as exc:     # json.JSONDecodeError included
        _emit({"error": "bad_input", "detail": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
