"""Per-layer tracing of diffalg from outside the package.

``Tracer.install`` wraps the public functions of each module (and the
``DiffPoly`` arithmetic methods) at every binding site: the defining
module, every diffalg module that imported the name, and the package
namespace.  Each call records a span (item, parent span, name, start, end)
in memory; ``Tracer.report`` derives self times and counters from the
spans at the end.

Self time is a span's duration minus the wrapper-to-wrapper intervals of
its child spans, so the tracer's own bookkeeping, including the counters
taken at each boundary, is charged to no layer.  ``Monomial.__mul__`` is
deliberately not wrapped: it runs hundreds of thousands of times per run
and wrapping it would swamp the numbers.
"""

from __future__ import annotations

import sys
import time
from array import array

from diffalg import polynomials

# (layer, span name, module, attribute); "Class.method" attributes are
# wrapped on the class.
TARGETS = [
    ("cli", "cli.run", "diffalg.cli", "run"),
    ("syntax", "syntax.parse_poly", "diffalg.syntax", "parse_poly"),
    ("syntax", "syntax.format_poly", "diffalg.syntax", "format_poly"),
    ("documents", "documents.parse_certificate", "diffalg.documents", "parse_certificate"),
    ("documents", "documents.serialize_certificate", "diffalg.documents", "serialize_certificate"),
    ("documents", "documents.serialize_witness", "diffalg.documents", "serialize_witness"),
    ("reduction", "reduction.ritt_reduce", "diffalg.reduction", "ritt_reduce"),
    ("reduction", "reduction.verify_certificate", "diffalg.reduction", "verify_certificate"),
    ("elimination", "elimination.resultant", "diffalg.elimination", "resultant"),
    ("elimination", "elimination.discriminant", "diffalg.elimination", "discriminant"),
    ("elimination", "elimination.det_bareiss", "diffalg.elimination", "det_bareiss"),
    ("elimination", "elimination.sylvester_matrix", "diffalg.elimination", "sylvester_matrix"),
    ("elimination", "elimination.as_leader_poly", "diffalg.elimination", "as_leader_poly"),
    ("polynomials", "polynomials.mul", "diffalg.polynomials", "DiffPoly.__mul__"),
    ("polynomials", "polynomials.exact_div", "diffalg.polynomials", "exact_div"),
    ("polynomials", "polynomials.delta", "diffalg.polynomials", "DiffPoly.delta"),
    ("ranking", "ranking.rank_profile", "diffalg.ranking", "rank_profile"),
    ("ranking", "ranking.initial", "diffalg.ranking", "initial"),
    ("ranking", "ranking.separant", "diffalg.ranking", "separant"),
    ("ranking", "ranking.rank_compare", "diffalg.ranking", "rank_compare"),
    ("witness", "witness.chevalley_witness", "diffalg.witness", "chevalley_witness"),
]

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if "items_per_s" in metric:
        return "1/s"
    for suffix, name in (("_s", "s"), ("bits", "bits"), ("bytes", "bytes"), ("overhead", "ratio")):
        if metric.endswith(suffix):
            return name
    return "count"


def _coeff_bits(p) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.terms.values()),
        default=0,
    )


class Tracer:
    """Span recorder; ``item`` is set by the caller before each item."""

    def __init__(self):
        self.names = [name for _, name, _, _ in TARGETS]
        self.item = 0
        # One row per span: item, parent span (-1 at the top), name index,
        # wrapper entry, call start, call end, wrapper exit.
        self.span_item = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.times = array("d")
        self.stack: list[int] = []
        self.counters = {
            "syntax.parse_poly.chars": 0,
            "documents.bytes": 0,
            "reduction.steps": 0,
            "elimination.sylvester_dim_max": 0,
            "polynomials.mul.term_products": 0,
            "polynomials.max_terms": 0,
            "polynomials.max_coeff_bits": 0,
        }
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------

    def _count(self, name: str, args, result) -> None:
        c = self.counters
        if name == "syntax.parse_poly":
            c["syntax.parse_poly.chars"] += len(args[0])
        elif name.startswith("documents.serialize"):
            c["documents.bytes"] += len(result)
        elif name == "reduction.ritt_reduce":
            c["reduction.steps"] += result.m + result.n
        elif name == "elimination.sylvester_matrix":
            c["elimination.sylvester_dim_max"] = max(c["elimination.sylvester_dim_max"], len(result))
        elif name.startswith("polynomials."):
            if name == "polynomials.mul":
                other = args[1]
                c["polynomials.mul.term_products"] += len(args[0]) * (
                    len(other) if isinstance(other, polynomials.DiffPoly) else 1
                )
            if isinstance(result, polynomials.DiffPoly):
                c["polynomials.max_terms"] = max(c["polynomials.max_terms"], len(result))
                if name != "polynomials.delta":
                    c["polynomials.max_coeff_bits"] = max(
                        c["polynomials.max_coeff_bits"], _coeff_bits(result)
                    )

    def _wrap(self, index: int, fn):
        name = self.names[index]
        clock = time.perf_counter
        stack = self.stack
        span_item, span_parent, span_name, times = (
            self.span_item, self.span_parent, self.span_name, self.times,
        )

        def traced(*args, **kwargs):
            enter = clock()
            span = len(span_name)
            span_item.append(self.item)
            span_parent.append(stack[-1] if stack else -1)
            span_name.append(index)
            times.extend((enter, 0.0, 0.0, 0.0))
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                times[4 * span + 1] = start
                times[4 * span + 2] = end
                times[4 * span + 3] = end
            self._count(name, args, result)
            times[4 * span + 3] = clock()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Replace every binding of each target with its traced wrapper."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "diffalg"]
        for index, (_, _, module_name, attr) in enumerate(TARGETS):
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[method]
                wrapper = self._wrap(index, original)
                for key, value in list(vars(cls).items()):
                    if value is original:  # e.g. __rmul__ = __mul__
                        self._saved.append((cls, key, value))
                        setattr(cls, key, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    # ------------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Per-layer metrics derived from the recorded spans.

        Besides the named metrics it returns, per layer, ``share.<layer>``
        (the layer's self time over all traced time) and ``incl.<layer>``
        (time inside the layer's outermost spans, children included, over
        all traced time); both exclude the tracer's own bookkeeping."""
        n = len(self.span_name)
        times, parents, names = self.times, self.span_parent, self.span_name
        layer_of = [LAYERS.index(layer) for layer, *_ in TARGETS]
        # Spans are recorded on entry, so a parent precedes its children.
        child = [0.0] * n  # wrapper-to-wrapper time of direct children
        hidden = [0.0] * n  # tracer bookkeeping inside the span
        for span in range(n - 1, -1, -1):
            parent = parents[span]
            if parent >= 0:
                t = 4 * span
                outer = times[t + 3] - times[t]
                child[parent] += outer
                hidden[parent] += hidden[span] + outer - (times[t + 2] - times[t + 1])
        self_time = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        layer_incl = [0.0] * len(LAYERS)
        enclosing = [0] * n  # bit mask of the layers of all ancestors
        for span in range(n):
            index = names[span]
            t = 4 * span
            self_time[index] += times[t + 2] - times[t + 1] - child[span]
            calls[index] += 1
            bit = 1 << layer_of[index]
            parent = parents[span]
            if parent >= 0:
                enclosing[span] = enclosing[parent] | (1 << layer_of[names[parent]])
            if not enclosing[span] & bit:
                layer_incl[layer_of[index]] += times[t + 2] - times[t + 1] - hidden[span]
        by_name = {name: (self_time[i], calls[i]) for i, name in enumerate(self.names)}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for (layer, name, _, _), (seconds, _) in zip(TARGETS, by_name.values()):
            layer_self[layer] += seconds
        total = sum(layer_self.values()) or 1.0

        m: dict[str, float] = {
            "cli.run.self_s": by_name["cli.run"][0],
            "cli.run.calls": by_name["cli.run"][1],
            "syntax.parse_poly.self_s": by_name["syntax.parse_poly"][0],
            "syntax.parse_poly.calls": by_name["syntax.parse_poly"][1],
            "syntax.format_poly.self_s": by_name["syntax.format_poly"][0],
            "syntax.format_poly.calls": by_name["syntax.format_poly"][1],
            "documents.parse_certificate.self_s": by_name["documents.parse_certificate"][0],
            "documents.serialize.self_s": by_name["documents.serialize_certificate"][0]
            + by_name["documents.serialize_witness"][0],
            "reduction.ritt_reduce.self_s": by_name["reduction.ritt_reduce"][0],
            "reduction.ritt_reduce.calls": by_name["reduction.ritt_reduce"][1],
            "reduction.verify_certificate.self_s": by_name["reduction.verify_certificate"][0],
            "elimination.resultant.self_s": by_name["elimination.resultant"][0],
            "elimination.discriminant.calls": by_name["elimination.discriminant"][1],
            "elimination.det_bareiss.self_s": by_name["elimination.det_bareiss"][0],
            "polynomials.mul.self_s": by_name["polynomials.mul"][0],
            "polynomials.mul.calls": by_name["polynomials.mul"][1],
            "polynomials.exact_div.self_s": by_name["polynomials.exact_div"][0],
            "polynomials.exact_div.calls": by_name["polynomials.exact_div"][1],
            "polynomials.delta.self_s": by_name["polynomials.delta"][0],
            "ranking.self_s": layer_self["ranking"],
            "witness.chevalley_witness.self_s": by_name["witness.chevalley_witness"][0],
            "witness.chevalley_witness.calls": by_name["witness.chevalley_witness"][1],
            "trace.spans": n,
        }
        m.update(self.counters)
        for i, layer in enumerate(LAYERS):
            m[f"share.{layer}"] = layer_self[layer] / total
            m[f"incl.{layer}"] = layer_incl[i] / total
        return m

    def write_spans(self, path) -> None:
        """Tab-separated span table: item, span, parent, name, start, end."""
        with open(path, "w") as out:
            out.write("item\tspan\tparent\tname\tstart_s\tend_s\n")
            for span in range(len(self.span_name)):
                out.write(
                    f"{self.span_item[span]}\t{span}\t{self.span_parent[span]}\t"
                    f"{self.names[self.span_name[span]]}\t"
                    f"{self.times[4 * span + 1]:.9f}\t{self.times[4 * span + 2]:.9f}\n"
                )
