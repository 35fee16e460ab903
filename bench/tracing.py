"""Spans and counters around the library's public functions, from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``sutured_kit`` module namespace that holds it (a function imported by
name into another module is wrapped there too, each wrapper built from
the saved original), and each traced method on its class.  A wrapper
records a span (name, op, start, end, parent) in memory and updates the
counters named in ``TARGETS``.  ``Tracer.remove`` puts the originals
back.  Self time is a span's duration minus that of its child spans.
"""

import time
from collections import Counter
from math import comb

# A counter function gets (counts, args, result) of a traced call and
# adds to counts.


def _snf(counts, args, result):
    counts["abelian.smith_normal_form.cells"] += args[0].rows * args[0].cols


def _generators(counts, args, result):
    counts["diagram.generators.count"] += len(result)


def _from_json(counts, args, result):
    counts["diagram.arcs.count"] += sum(1 for _ in result.arcs())


def _doteq(counts, args, result):
    counts["abelian.doteq_normalize.terms"] += len(args[0].support())


def _det(counts, args, result):
    counts["abelian.det_group_ring.n"] += len(args[0])
    counts["abelian.det_group_ring.terms_out"] += len(result.support())


def _theta(counts, args, result):
    counts["fox.theta_matrix.nonzero"] += sum(not e.is_zero() for row in result[0] for e in row)


def _hull(counts, args, result):
    n = len(args[0].points)
    counts["polytope.hull.points"] += n
    counts["polytope.hull.facets"] += len(result.facets)
    counts["polytope.hull.subsets"] += comb(n, result.dim)


def _samples(counts, args, result):
    counts["maslov.samples.count"] += len(result)


# (span name, module, class or None, attribute, counter function or None)
TARGETS = (
    ("cli.main", "cli", None, "main", None),
    ("diagram.from_json", "diagram", "SuturedDiagram", "from_json", _from_json),
    ("diagram.validate", "diagram", "SuturedDiagram", "validate", None),
    ("diagram.is_balanced", "diagram", "SuturedDiagram", "is_balanced", None),
    ("diagram.is_admissible", "diagram", None, "is_admissible", None),
    ("diagram.generators", "diagram", None, "generators", _generators),
    ("diagram.h1_of_M", "diagram", None, "h1_of_M", None),
    ("diagram.epsilon", "diagram", None, "epsilon", None),
    ("diagram.generator_sign", "diagram", None, "generator_sign", None),
    ("diagram.spinc_partition", "diagram", None, "spinc_partition", None),
    ("diagram.euler_polynomial", "diagram", None, "euler_polynomial", None),
    ("abelian.smith_normal_form", "abelian", None, "smith_normal_form", _snf),
    ("abelian.doteq_normalize", "abelian", None, "doteq_normalize", _doteq),
    ("abelian.det_group_ring", "abelian", None, "det_group_ring", _det),
    ("fox.load_presentation_json", "fox", None, "load_presentation_json", None),
    ("fox.abelianization", "fox", None, "abelianization", None),
    ("fox.theta_matrix", "fox", None, "theta_matrix", _theta),
    ("polytope.from_json", "polytope", "SupportData", "from_json", None),
    ("polytope.hull", "polytope", None, "hull", _hull),
    ("polytope.is_centrally_symmetric", "polytope", None, "is_centrally_symmetric", None),
    ("maslov.samples_from_json", "maslov", None, "samples_from_json", _samples),
    ("maslov.UnitaryLoop.init", "maslov", "UnitaryLoop", "__init__", None),
    ("maslov.SymmetricPath.init", "maslov", "SymmetricPath", "__init__", None),
    ("maslov.maslov_loop_index", "maslov", None, "maslov_loop_index", None),
    ("maslov.symplectic_loop_index", "maslov", None, "symplectic_loop_index", None),
    ("maslov.spectral_flow", "maslov", None, "spectral_flow", None),
)
LAYERS = ("cli", "diagram", "abelian", "fox", "polytope", "maslov")
COUNTERS = ("abelian.smith_normal_form.cells", "diagram.generators.count",
            "diagram.arcs.count", "abelian.doteq_normalize.terms",
            "abelian.det_group_ring.n", "abelian.det_group_ring.terms_out",
            "fox.theta_matrix.nonzero", "polytope.hull.points",
            "polytope.hull.facets", "polytope.hull.subsets", "maslov.samples.count",
            "cli.stdout_bytes")


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self, sk):
        self.sk = sk
        self.spans = []            # [name, op, start, end, parent index]
        self.counts = {name: 0 for name in COUNTERS}
        self.errors = {layer: 0 for layer in LAYERS}
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, counter):
        layer = name.split(".")[0]
        error_type = self.sk.errors.SuturedKitError

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, self.op, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except error_type:
                if parent is None or self.spans[parent][0].split(".")[0] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [getattr(self.sk, m) for m in
                   ("abelian", "cli", "diagram", "fixtures", "fox", "maslov",
                    "oracle", "polytope")]
        for name, mod, cls, attr, counter in TARGETS:
            owner = getattr(self.sk, mod)
            if cls is not None:
                klass = getattr(owner, cls)
                raw = klass.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    new = self._wrap(name, raw, counter)
                self._undo.append((klass, attr, raw))
                setattr(klass, attr, new)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, value))
                        setattr(m, key, wrapper)

    def remove(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def self_times(self):
        """Span name -> total self time in seconds."""
        out = {name: 0.0 for name, *_ in TARGETS}
        for name, _, start, end, parent in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def metrics(self):
        """The per-layer metrics of the traced pass, by name."""
        self_s = self.self_times()
        out = {}
        for name, *_ in TARGETS:
            suffix = ".init_s" if name.endswith(".init") else ".self_s"
            out[name.removesuffix(".init") + suffix] = (self_s[name], "s")
        calls = Counter(span[0] for span in self.spans)
        for name in ("abelian.smith_normal_form", "diagram.epsilon"):
            out[name + ".calls"] = (calls[name], "count")
        for name in COUNTERS:
            if name != "polytope.hull.subsets":
                out[name] = (self.counts[name], "count")
        subsets = self.counts["polytope.hull.subsets"]
        out["polytope.hull.facet_yield"] = (
            self.counts["polytope.hull.facets"] / subsets if subsets else 0.0, "ratio")
        for layer in LAYERS:
            out[layer + ".errors"] = (self.errors[layer], "count")
        return out

    def spans_json(self):
        return [{"name": n, "op": op, "start": s, "end": e, "parent": p}
                for n, op, s, e, p in self.spans]
