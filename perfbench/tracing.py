"""Spans and exact counts for the traced benchmark run.

Tracing lives entirely in the benchmark: `install` rebinds each listed public
function in every `weilres.*` module namespace that holds it (modules import
with `from .x import f`, so patching the defining module alone would miss
callers) and wraps the counted operators on their classes.  `uninstall` puts
every original back.  Spans are kept in memory as
`[name, start, end, parent, request]` and written out once, at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Span name -> (module, function names).  verify.suite covers every suite.
SPANS = {
    "cli.main": ("weilres.cli", ("main",)),
    "documents.load": ("weilres.documents", ("load_document_text",)),
    "documents.emit": ("weilres.documents", ("canonical_json",)),
    "restriction.restrict": ("weilres.restriction", ("restrict",)),
    "restriction.expand_element": ("weilres.restriction", ("expand_element",)),
    "restriction.disc_generators": ("weilres.restriction", ("disc_generators",)),
    "restriction.points_over": ("weilres.restriction", ("points_over",)),
    "extensions.charpoly": ("weilres.extensions", ("charpoly",)),
    "linalg.berkowitz_charpoly": ("weilres.linalg", ("berkowitz_charpoly",)),
    "galois.verify_descent": ("weilres.galois", ("verify_descent",)),
    "galois.fixed_points": ("weilres.galois", ("fixed_points",)),
    "spectral.spectral_radius": ("weilres.spectral", ("spectral_radius",)),
    "spectral.non_quasicompact_witness": ("weilres.spectral",
                                          ("non_quasicompact_witness",)),
    "verify.suite": ("weilres.verify", (
        "suite_adjunction", "suite_products", "suite_descent",
        "suite_example26", "suite_sigma", "suite_rho")),
}

FIELD_KINDS = ("prime", "galois", "rationals", "function")

COUNTS = tuple(
    ["fields.%s.%s" % (kind, op) for kind in FIELD_KINDS for op in ("mul", "add")]
    + ["fields.zero_calls", "fields.inverse",
       "poly.mul", "poly.add", "poly.terms_out", "poly.evaluate",
       "extensions.algebra_mul.poly", "extensions.algebra_mul.scalar",
       "restriction.assignments", "restriction.points_found",
       "restriction.generators_out", "restriction.terms_out",
       "documents.bytes_out"])


def self_times(spans):
    """Per span, its duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Total self time and call count per span name."""
    totals = {name: [0.0, 0] for name in SPANS}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], [0.0, 0])
        entry[0] += own
        entry[1] += 1
    return totals


class Tracer:
    """Holds the spans and counts of one traced run and the patches that
    feed them."""

    def __init__(self):
        self.spans = []
        self.counts = Counter({name: 0 for name in COUNTS})
        self.request = None
        self._stack = []
        self._patches = []
        self._outer_assignments = False

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      self.request]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper):
        """Point every weilres module attribute that holds fn at wrapper."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "weilres" and not mod_name.startswith("weilres."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _wrap_method(self, cls, names, make):
        original = cls.__dict__[names[0]]
        wrapper = make(original)
        for name in names:
            if cls.__dict__.get(name) is original:
                self._set(cls, name, wrapper)

    def install(self):
        modules = sys.modules
        for name, (mod_name, functions) in SPANS.items():
            for fn_name in functions:
                fn = getattr(modules[mod_name], fn_name)
                self._rebind(fn, self._wrap_result(name, self._span(name, fn)))
        self._install_counts()

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- counts --------------------------------------------------------------

    def _wrap_result(self, name, traced):
        """Add the counts read off a span's arguments and result."""
        counts = self.counts
        if name == "documents.emit":
            def emit(obj):
                text = traced(obj)
                counts["documents.bytes_out"] += len(text.encode("utf-8"))
                return text
            return emit
        if name == "restriction.restrict":
            def restrict(*args, **kwargs):
                result = traced(*args, **kwargs)
                gens = result.presentation.generators
                counts["restriction.generators_out"] += len(gens)
                counts["restriction.terms_out"] += sum(len(g.terms) for g in gens)
                return result
            return restrict
        if name == "restriction.points_over":
            def points_over(*args, **kwargs):
                self._outer_assignments = True
                points = traced(*args, **kwargs)
                counts["restriction.points_found"] += len(points)
                return points
            return points_over
        return traced

    def _install_counts(self):
        from weilres import fields, poly, extensions, restriction

        counts = self.counts
        kinds = {fields.PrimeField: "prime", fields.GaloisField: "galois",
                 fields.RationalField: "rationals",
                 fields.FunctionField: "function"}
        mul_keys = {cls: "fields.%s.mul" % k for cls, k in kinds.items()}
        add_keys = {cls: "fields.%s.add" % k for cls, k in kinds.items()}

        def field_op(keys):
            def make(op):
                def counted(a, b):
                    counts[keys[type(a.field)]] += 1
                    return op(a, b)
                return counted
            return make

        def plain(key):
            def make(op):
                def counted(*args, **kwargs):
                    counts[key] += 1
                    return op(*args, **kwargs)
                return counted
            return make

        def poly_op(key):
            def make(op):
                def counted(a, b):
                    out = op(a, b)
                    if out is not NotImplemented:
                        counts[key] += 1
                        counts["poly.terms_out"] += len(out.terms)
                    return out
                return counted
            return make

        Poly = poly.Poly

        def algebra_mul(op):
            def counted(a, b):
                coords = a.coords + getattr(b, "coords", ())
                if any(isinstance(c, Poly) for c in coords):
                    counts["extensions.algebra_mul.poly"] += 1
                else:
                    counts["extensions.algebra_mul.scalar"] += 1
                return op(a, b)
            return counted

        element = fields.FieldElement
        self._wrap_method(element, ("__mul__", "__rmul__"), field_op(mul_keys))
        self._wrap_method(element, ("__add__", "__radd__"), field_op(add_keys))
        self._wrap_method(element, ("inverse",), plain("fields.inverse"))
        self._wrap_method(fields.Field, ("zero",), plain("fields.zero_calls"))
        self._wrap_method(Poly, ("__mul__", "__rmul__"), poly_op("poly.mul"))
        self._wrap_method(Poly, ("__add__", "__radd__"), poly_op("poly.add"))
        self._wrap_method(Poly, ("evaluate",), plain("poly.evaluate"))
        self._wrap_method(extensions.AlgebraElement, ("__mul__", "__rmul__"),
                          algebra_mul)

        # Exhaustive search enumerates through a recursive generator; count
        # the assignments the outermost call yields.
        enumerate_ = restriction._assignments

        def assignments(variables, elems):
            if not self._outer_assignments:
                return enumerate_(variables, elems)
            self._outer_assignments = False
            return _counted(enumerate_(variables, elems), counts,
                            "restriction.assignments")

        self._set(restriction, "_assignments", assignments)

    # -- results -------------------------------------------------------------

    def metrics(self, passes):
        """Per-pass span self time and calls, and exact per-pass counts."""
        out = {}
        for name, (own, calls) in sorted(summarize(self.spans).items()):
            out[name + ".self_s"] = (own / passes, "s")
            out[name + ".calls"] = (calls / passes, "count")
        for name in COUNTS:
            out[name] = (self.counts[name] / passes, "count")
        found = self.counts["restriction.points_found"]
        tried = self.counts["restriction.assignments"]
        out["restriction.point_yield"] = (found / tried if tried else 0.0,
                                          "ratio")
        return out

    def write(self, path):
        """Write every span once, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _counted(iterator, counts, key):
    for item in iterator:
        counts[key] += 1
        yield item
