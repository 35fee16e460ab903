"""Exception hierarchy shared by all modules.

Every domain error carries a short machine-readable ``code`` so the CLI can
emit ``{"error": code, "detail": text}`` uniformly.  Malformed input JSON
raises ValueError naming the field (see ``expect``), which the CLI reports
as ``bad_input``.
"""


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def expect(value, kind, field):
    """Return ``value`` if its type is exactly the JSON type ``kind``.

    Otherwise raise ValueError naming the input field, e.g. ``points[1][0]``.
    A boolean is not an integer and a float is not truncated to one.
    """
    if type(value) is not kind:
        raise ValueError(f"{field} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def expect_items(value, kind, field):
    """Return ``value`` if it is a list whose items all have JSON type ``kind``."""
    if not set(map(type, expect(value, list, field))) <= {kind}:
        for i, x in enumerate(value):
            expect(x, kind, f"{field}[{i}]")
    return value


def expect_rows(value, kind, field):
    """Return ``value`` if it is a list of lists whose items all have JSON
    type ``kind``; the name ``field[i]`` of a row is built only to raise."""
    for i, row in enumerate(expect(value, list, field)):
        if type(row) is not list or not set(map(type, row)) <= {kind}:
            expect_items(row, kind, f"{field}[{i}]")
    return value


class SuturedKitError(Exception):
    code = "error"

    def __init__(self, detail):
        super().__init__(detail)
        self.detail = detail


# -- abelian ----------------------------------------------------------------

class DeterminantTooLarge(SuturedKitError):
    code = "determinant_too_large"


# -- fox --------------------------------------------------------------------

class InvalidGenerator(SuturedKitError):
    code = "invalid_generator"


class NotGeometricallyBalanced(SuturedKitError):
    code = "not_geometrically_balanced"


# -- diagram ----------------------------------------------------------------

class InvalidDiagram(SuturedKitError):
    code = "invalid_diagram"


class NotBalanced(SuturedKitError):
    code = "not_balanced"


class NotAGenerator(SuturedKitError):
    code = "not_a_generator"


class TooManyBoundaryCircles(SuturedKitError):
    code = "too_many_boundary_circles"


# -- polytope ---------------------------------------------------------------

class DimensionTooLarge(SuturedKitError):
    code = "dimension_too_large"


class BadDimension(SuturedKitError):
    code = "bad_dimension"


class EmptySupport(SuturedKitError):
    code = "empty_support"


class NonPositiveRank(SuturedKitError):
    code = "non_positive_rank"


# -- maslov -----------------------------------------------------------------

class NotUnitary(SuturedKitError):
    code = "not_unitary"


class LoopNotClosed(SuturedKitError):
    code = "loop_not_closed"


class LoopNotClosedInGroup(SuturedKitError):
    code = "loop_not_closed_in_group"


class SamplingTooCoarse(SuturedKitError):
    code = "sampling_too_coarse"


class NotSymmetric(SuturedKitError):
    code = "not_symmetric"


class EndpointSingular(SuturedKitError):
    code = "endpoint_singular"


class CrossingCountMismatch(SuturedKitError):
    code = "crossing_count_mismatch"


# -- oracle -----------------------------------------------------------------

class OddSutureCount(SuturedKitError):
    code = "odd_suture_count"


class NonCoprime(SuturedKitError):
    code = "non_coprime"


class ResultTooLarge(SuturedKitError):
    code = "result_too_large"
