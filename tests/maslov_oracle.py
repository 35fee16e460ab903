"""Test-side oracle for reading Maslov samples from JSON.

The per-entry loop the library ran before its bulk pass, kept here as
the reference: every matrix is converted entry by entry, with a type test
and ``complex(re, im)`` on each, then the matrices are stacked.  A fault
raises ValueError naming the field.  It does not refuse an empty sample
list; the library does that before reading.
"""

import numpy as np

from sutured_kit.errors import expect, expect_items


def matrix_from_json(rows, field="matrix"):
    """Rows of equal length of numbers or of {"re": x, "im": y} objects."""
    out = []
    try:
        for row in expect(rows, list, field):
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
        expect_items(rows, list, field)
        raise ValueError(f"{field} must be rows of equal length of numbers or "
                         '{"re": x, "im": y} objects') from None


def _first_overflow(rows):
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            parts = (x.get("re", 0.0), x.get("im", 0.0)) if type(x) is dict else (x,)
            try:
                complex(*parts)
            except OverflowError:
                return i, j


def samples_from_json(data):
    """The sample matrices stacked in one complex array; every entry finite."""
    mats = [matrix_from_json(m, f"samples[{k}]")
            for k, m in enumerate(expect(data, list, "samples"))]
    try:
        stack = np.array(mats, dtype=complex)
    except ValueError:
        raise ValueError("samples must be matrices of equal size") from None
    finite = np.isfinite(stack)
    if not finite.all():
        raise ValueError(f"samples[{np.argwhere(~finite)[0][0]}] has a non-finite entry")
    return stack
