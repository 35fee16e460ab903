"""The argparse parser the CLI used before its table parser, kept as the
tests' oracle for ``cli.build_parser().parse_args``.

``build_parser()`` returns the argparse parser; its ``parse_args`` raises
``cli.UsageError`` where argparse would print an error and exit 2, and
``_Exit(0)`` after printing the usage text for ``-h``/``--help``.  The
table parser departs from it on purpose in two ways: it reads no prefix
abbreviation of an option (``--canon`` for ``--canonical``), and it refuses
any option given twice, where argparse keeps the last (only the ``oracle``
calculators refuse a repeat here).  The two rules that span options,
exactly one ``polytope`` source and at most one ``oracle`` calculator, are
checked here while parsing and by the subcommands themselves there.
"""

import argparse
import functools

from sutured_kit.cli import (UsageError, cmd_check, cmd_crosscheck, cmd_euler, cmd_fixtures,
                             cmd_generators, cmd_maslov, cmd_oracle, cmd_polytope, cmd_spinc,
                             cmd_torsion)


class _Exit(Exception):
    def __init__(self, status):
        super().__init__(status)
        self.status = status


class _Parser(argparse.ArgumentParser):
    # argparse would print to stderr and exit(2); route it through JSON instead
    def error(self, message):
        raise UsageError(message)

    # --help has printed its usage text and would exit(0); main returns the status instead
    def exit(self, status=0, message=None):
        raise _Exit(status)


class _Once(argparse.Action):
    # argparse would keep the last of a repeated option; refuse the repeat instead
    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise UsageError(f"{option_string} given more than once")
        setattr(namespace, self.dest, values)


# the subcommands that read one input file: (name, function, argument, help)
_ONE_FILE = (
    ("check", cmd_check, "diagram", "validate a diagram; report balance and admissibility"),
    ("generators", cmd_generators, "diagram", "enumerate the generators of a diagram"),
    ("spinc", cmd_spinc, "diagram", "partition generators into Spin^c classes"),
    ("euler", cmd_euler, "diagram", "signed Euler polynomial of a diagram"),
    ("torsion", cmd_torsion, "presentation", "torsion determinant of a presentation"),
)


@functools.cache
def build_parser():
    """The one parser of the process; ``parse_args`` keeps no state in it."""
    parser = _Parser(prog="sutured-kit",
                     description="Combinatorial invariants of balanced sutured "
                                 "3-manifolds")
    sub = parser.add_subparsers(dest="command", metavar="command")

    for name, func, arg, text in _ONE_FILE:
        p = sub.add_parser(name, help=text)
        p.add_argument(arg)
        p.set_defaults(func=func)

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
