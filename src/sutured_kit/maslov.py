"""Matrix-level Maslov indices and spectral flow.

A loop of Lagrangian subspaces is represented by a sampled loop of
unitary frames A(t_k): the subspace is A(t)R^n, and the loop index is the
degree of det^2 along the loop.  A loop in the unitary group itself has
index the degree of det.  Both are computed by accumulating principal
phase increments, with a pi/2 step guard that makes the rounded integer
provably correct for admitted inputs instead of best effort.

Spectral flow of a path of real symmetric matrices with invertible
endpoints is the net number of eigenvalues moving from negative to
positive, which equals the Morse index of the start minus that of the
end.  The same drop after a small positive spectral shift must agree, or
an endpoint eigenvalue lies too close to zero to count.  A sample with a
nonzero imaginary part is refused, not cast to its real part.
"""

from itertools import chain, repeat

import numpy as np

from .errors import (CrossingCountMismatch, EndpointSingular, LoopNotClosed,
                     LoopNotClosedInGroup, NotSymmetric, NotUnitary,
                     SamplingTooCoarse, expect, expect_items)

UNITARY_TOL = 1e-9
SYMMETRY_TOL = 1e-12
ENDPOINT_TOL = 1e-9
CROSSING_SHIFT = 1e-8
MAX_PHASE_STEP = np.pi / 2


def _as_stack(samples, dtype):
    """The samples as one (N, n, n) array of ``dtype``, N >= 1, every entry finite.

    A NaN would pass every tolerance test below, since it compares false.
    """
    if len(samples) == 0:
        raise ValueError("empty sample list")
    try:
        stack = np.asarray(samples, dtype=dtype)
    except ValueError:      # ragged: fails the shape test below
        stack = np.empty(0)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("samples must be square matrices of equal size")
    _refuse_non_finite(stack)
    return stack


def _refuse_non_finite(stack):
    finite = np.isfinite(stack)
    if not finite.all():
        raise ValueError(f"samples[{np.argwhere(~finite)[0][0]}] has a non-finite entry")


def _first(flags):
    """Index of the first True in a boolean array, or None."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else None


class UnitaryLoop:
    """Sampled loop A(t_k), t_k = k/N, of unitary matrices.

    The loop must close at least as Lagrangian subspaces: A(t_N)^-1 A(t_0)
    has to be (numerically) real orthogonal.
    """

    def __init__(self, samples):
        stack = _as_stack(samples, complex)
        if len(stack) < 2:
            raise ValueError("a loop needs at least two samples")
        n = stack.shape[1]
        defect = stack.conj().transpose(0, 2, 1) @ stack - np.eye(n)
        k = _first(np.linalg.norm(defect, axis=(1, 2)) > UNITARY_TOL * max(1.0, n))
        if k is not None:
            raise NotUnitary(f"sample {k} is not unitary within {UNITARY_TOL}")
        closure = np.linalg.solve(stack[-1], stack[0])
        if np.linalg.norm(closure.imag) > UNITARY_TOL * max(1.0, n):
            raise LoopNotClosed("A(1)^-1 A(0) is not real orthogonal; the loop "
                                "does not close as Lagrangian subspaces")
        self.samples = stack
        self.n = n

    def closes_in_group(self):
        return bool(np.linalg.norm(self.samples[-1] - self.samples[0])
                    <= UNITARY_TOL * max(1.0, self.n))


class SymmetricPath:
    """Sampled path of real symmetric matrices with invertible endpoints."""

    def __init__(self, samples):
        stack = _as_stack(samples, complex)
        if len(stack) < 2:
            raise ValueError("a path needs at least two samples")
        k = _first(np.any(stack.imag != 0, axis=(1, 2)))
        if k is not None:
            raise NotSymmetric(f"sample {k} has a nonzero imaginary part; "
                               "spectral flow needs real symmetric matrices")
        stack = stack.real
        n = stack.shape[1]
        asym = np.linalg.norm(stack - stack.transpose(0, 2, 1), axis=(1, 2))
        k = _first(asym > SYMMETRY_TOL * max(1.0, n))
        if k is not None:
            raise NotSymmetric(f"sample {k} is not symmetric within {SYMMETRY_TOL}")
        for which, a in (("start", stack[0]), ("end", stack[-1])):
            if np.min(np.abs(np.linalg.eigvalsh(a))) <= ENDPOINT_TOL:
                raise EndpointSingular(f"{which} matrix has an eigenvalue within "
                                       f"{ENDPOINT_TOL} of zero")
        self.samples = stack
        self.n = n


def _winding(dets, power):
    powered = dets ** power
    steps = np.angle(powered[1:] / powered[:-1])
    k = _first(np.abs(steps) >= MAX_PHASE_STEP)
    if k is not None:
        raise SamplingTooCoarse(
            f"phase increment {steps[k]:.3f} exceeds pi/2; refine the sampling")
    turns = float(steps.sum()) / (2 * np.pi)
    nearest = round(turns)
    if abs(turns - nearest) > 0.25:
        raise SamplingTooCoarse("accumulated phase is far from an integer turn count")
    return int(nearest)


def maslov_loop_index(loop):
    """Degree of det^2 along a loop of Lagrangian frames."""
    return _winding(np.linalg.det(loop.samples), 2)


def symplectic_loop_index(loop):
    """Degree of det along a loop in the unitary group itself."""
    if not loop.closes_in_group():
        raise LoopNotClosedInGroup("loop does not close in U(n)")
    return _winding(np.linalg.det(loop.samples), 1)


def _negative_count(a, shift=0.0):
    return int(np.sum(np.linalg.eigvalsh(a) + shift < 0.0))


def spectral_flow(path):
    """Morse-index drop along the path: n_-(start) - n_-(end).

    Positive when eigenvalues move from negative to positive.  Recounted
    with the spectrum shifted up by CROSSING_SHIFT, the drop changes only
    if an endpoint eigenvalue lies in [-CROSSING_SHIFT, 0); that raises.
    Interior samples cannot change either count, so none is read here.
    """
    first, last = path.samples[0], path.samples[-1]
    endpoint = _negative_count(first) - _negative_count(last)
    crossing = _negative_count(first, CROSSING_SHIFT) - _negative_count(last, CROSSING_SHIFT)
    if crossing != endpoint:
        raise CrossingCountMismatch(
            f"endpoint count {endpoint} vs crossing count {crossing}")
    return endpoint


# -- JSON ingestion -----------------------------------------------------------

def matrix_from_json(rows, field="matrix"):
    """Rows of equal length of numbers or of {"re": x, "im": y} objects.

    A JSON string or boolean is not a number: ``complex()`` with two
    arguments refuses a string, and a boolean is refused by type.
    """
    out = []
    try:
        for row in rows:
            if type(row) is not list:
                raise TypeError
            conv = []
            for x in row:
                if type(x) is dict:
                    re, im = x.get("re", 0.0), x.get("im", 0.0)
                    if type(re) is bool or type(im) is bool:
                        raise TypeError
                    conv.append(complex(re, im))
                elif type(x) is float or type(x) is int:
                    conv.append(x)
                else:
                    raise TypeError
            out.append(conv)
        return np.asarray(out, dtype=complex)
    except OverflowError:
        i, j = _first_overflow(rows)
        raise ValueError(f"{field}[{i}][{j}] does not fit a float") from None
    except (TypeError, ValueError):
        expect_items(rows, list, field)     # names a row that is not a list
        raise ValueError(f"{field} must be rows of equal length of numbers or "
                         '{"re": x, "im": y} objects') from None


def _first_overflow(rows):
    """(i, j) of the first entry holding an integer too large for a float."""
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            parts = (x.get("re", 0.0), x.get("im", 0.0)) if type(x) is dict else (x,)
            try:
                complex(*parts)
            except OverflowError:
                return i, j


def samples_from_json(data):
    """The sample matrices stacked in one complex array; every entry finite.

    One bulk pass reads the usual input, N matrices of one shape whose
    entries are all {"re": x, "im": y} objects or all numbers: type and
    size checks over whole lists, then one array fill.  Any other input,
    a faulty one included, is read again matrix by matrix
    (``matrix_from_json``), and that walk names the field at fault.  Both
    give the same array, entry for entry.
    """
    samples = expect(data, list, "samples")
    if not samples:
        raise ValueError("empty sample list")
    try:
        stack = _bulk_samples(samples)
    except OverflowError:       # an integer beyond a float: the walk names it
        stack = None
    if stack is None:
        mats = [matrix_from_json(m, f"samples[{k}]") for k, m in enumerate(samples)]
        try:
            stack = np.array(mats, dtype=complex)
        except ValueError:
            raise ValueError("samples must be matrices of equal size") from None
    _refuse_non_finite(stack)
    return stack


def _one(sizes):
    """The one value of ``sizes``, or None if it has none or several."""
    sizes = set(sizes)
    return sizes.pop() if len(sizes) == 1 else None


def _bulk_samples(samples):
    """The (N, r, c) stack, read with a few passes over whole lists, or None
    where the samples are not N lists of r >= 1 lists of c entries that are
    all {"re": x, "im": y} objects with number parts or all numbers."""
    if not set(map(type, samples)) <= {list}:
        return None
    r = _one(map(len, samples))
    rows = list(chain.from_iterable(samples))
    if r is None or not set(map(type, rows)) <= {list}:
        return None
    c = _one(map(len, rows))
    if c is None:
        return None
    entries = list(chain.from_iterable(rows))
    kinds = set(map(type, entries))
    if kinds <= {float, int}:
        flat = np.array(entries, dtype=float).astype(complex)
    elif kinds == {dict}:
        re = list(map(dict.get, entries, repeat("re"), repeat(0.0)))
        im = list(map(dict.get, entries, repeat("im"), repeat(0.0)))
        if not set(map(type, re)) | set(map(type, im)) <= {float, int}:
            return None
        flat = np.empty(len(entries), dtype=complex)
        flat.real = re
        flat.imag = im
    else:
        return None
    return flat.reshape(len(samples), r, c)
