"""Spans around calls into linpole's layers, recorded from outside the program.

install() replaces each listed function at every linpole module attribute
that holds it (so linpole.germs.find_circuit is wrapped as well as
linpole.exactlin.find_circuit) and the listed methods on their classes.
Each call records a span (name, start, end, parent span, item id) in
in-memory arrays; constructors are only counted.  Nothing in linpole changes
on disk, and uninstall() puts every original back.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (layer, module, attribute or Class.method, short name, what is recorded)
# "span" records spans; "count" only counts calls; "distinct" also counts
# distinct arguments.
TARGETS = (
    ("parser", "parser", "parse_germ", "parse", "span"),
    ("parser", "parser", "parse_spec", "parse", "span"),
    ("parser", "parser", "parse_word", "parse", "span"),
    ("poly", "poly", "Polynomial.__init__", "Polynomial", "count"),
    ("poly", "poly", "Polynomial.__mul__", "mul", "span"),
    ("poly", "poly", "Polynomial.__add__", "add", "span"),
    ("poly", "poly", "Polynomial.substitute", "substitute", "span"),
    ("poly", "poly", "Polynomial.divide_by_form", "divide_by_form", "span"),
    ("poly", "poly", "Polynomial.dependence_space", "dependence_space", "span"),
    ("exactlin", "exactlin", "find_circuit", "find_circuit", "span"),
    ("exactlin", "exactlin", "span", "span", "span"),
    ("exactlin", "exactlin", "orth_decompose", "orth_decompose", "span"),
    ("germs", "germs", "decompose", "decompose", "distinct"),
    ("germs", "germs", "RationalGerm.__init__", "RationalGerm", "count"),
    ("words", "words", "shuffle", "shuffle", "span"),
    ("words", "words", "cfl", "cfl", "distinct"),
    ("words", "words", "lyndon_rewrite", "lyndon_rewrite", "span"),
    ("words", "words", "LyndonPolynomial.__add__", "lyndon_poly_add", "span"),
    ("fracspec", "fracspec", "expand_product", "expand_product", "span"),
    ("fracspec", "fracspec", "lyndon_decompose", "lyndon_decompose", "span"),
    ("fracspec", "fracspec", "flatten_forest", "flatten_forest", "span"),
    ("evaluators", "evaluators", "mzv_numeric", "mzv_numeric", "span"),
    ("evaluators", "evaluators", "iter_eval", "iter_eval", "span"),
    ("evaluators", "evaluators", "ev_reg_single", "ev_reg_single", "span"),
    ("evaluators", "evaluators", "zeta_eval", "zeta_eval", "span"),
    ("evaluators", "evaluators", "apply_transform", "apply_transform", "span"),
    ("evaluators", "evaluators", "check_factorization", "check_factorization", "span"),
)

# Per-layer metrics: (metric name, span name, statistic, unit).
#   calls: number of spans or counted calls; distinct: distinct arguments;
#   ms: time inside outermost spans of that name; self_ms: span time minus
#   time in child spans.  Times are scaled like the end-to-end ones.
METRICS = (
    ("parser.parse.ms", "parser.parse", "ms", "ms"),
    ("poly.Polynomial.built", "poly.Polynomial", "calls", "count"),
    ("poly.mul.self_ms", "poly.mul", "self_ms", "ms"),
    ("poly.add.self_ms", "poly.add", "self_ms", "ms"),
    ("poly.substitute.self_ms", "poly.substitute", "self_ms", "ms"),
    ("poly.divide_by_form.self_ms", "poly.divide_by_form", "self_ms", "ms"),
    ("poly.dependence_space.self_ms", "poly.dependence_space", "self_ms", "ms"),
    ("exactlin.find_circuit.calls", "exactlin.find_circuit", "calls", "count"),
    ("exactlin.find_circuit.self_ms", "exactlin.find_circuit", "self_ms", "ms"),
    ("exactlin.span.calls", "exactlin.span", "calls", "count"),
    ("exactlin.span.self_ms", "exactlin.span", "self_ms", "ms"),
    ("exactlin.orth_decompose.calls", "exactlin.orth_decompose", "calls", "count"),
    ("exactlin.orth_decompose.self_ms", "exactlin.orth_decompose", "self_ms", "ms"),
    ("germs.decompose.calls", "germs.decompose", "calls", "count"),
    ("germs.decompose.distinct", "germs.decompose", "distinct", "count"),
    ("germs.decompose.ms", "germs.decompose", "ms", "ms"),
    ("germs.decompose.self_ms", "germs.decompose", "self_ms", "ms"),
    ("germs.RationalGerm.built", "germs.RationalGerm", "calls", "count"),
    ("words.shuffle.calls", "words.shuffle", "calls", "count"),
    ("words.shuffle.self_ms", "words.shuffle", "self_ms", "ms"),
    ("words.cfl.calls", "words.cfl", "calls", "count"),
    ("words.cfl.distinct", "words.cfl", "distinct", "count"),
    ("words.lyndon_rewrite.ms", "words.lyndon_rewrite", "ms", "ms"),
    ("words.lyndon_poly_add.self_ms", "words.lyndon_poly_add", "self_ms", "ms"),
    ("fracspec.expand_product.ms", "fracspec.expand_product", "ms", "ms"),
    ("fracspec.lyndon_decompose.ms", "fracspec.lyndon_decompose", "ms", "ms"),
    ("fracspec.flatten_forest.ms", "fracspec.flatten_forest", "ms", "ms"),
    ("evaluators.mzv_numeric.calls", "evaluators.mzv_numeric", "calls", "count"),
    ("evaluators.mzv_numeric.ms", "evaluators.mzv_numeric", "ms", "ms"),
    ("evaluators.iter_eval.ms", "evaluators.iter_eval", "ms", "ms"),
    ("evaluators.ev_reg_single.calls", "evaluators.ev_reg_single", "calls", "count"),
    ("evaluators.ev_reg_single.self_ms", "evaluators.ev_reg_single", "self_ms", "ms"),
    ("evaluators.zeta_eval.self_ms", "evaluators.zeta_eval", "self_ms", "ms"),
    ("evaluators.apply_transform.self_ms", "evaluators.apply_transform", "self_ms", "ms"),
    ("evaluators.check_factorization.ms", "evaluators.check_factorization", "ms", "ms"),
)


def _distinct_key(short, args):
    if short == "decompose":
        q = args[1] if len(args) > 1 else None
        return args[0], getattr(q, "gram", ())
    return args[0], getattr(args[1], "name", None) if len(args) > 1 else None


def layer_probe(lp):
    """A few small calls that reach every traced function once.  A traced
    run makes them after its timed pass (item id -2), so that no per-layer
    time reads 0 on a workload that never enters that layer; on such a
    workload the metric is the probe's own cost, a few milliseconds."""
    germ = lp.parse_germ("(z1+z3)/((z1+z2)*z1*z2)")
    q = lp.InnerProduct([[2, 1], [1, 2]])
    lp.dependence(germ, q)
    a, b = lp.parse_spec("f[2;1]"), lp.parse_spec("f[1,1;2,3]")
    lp.lyndon_decompose(lp.expand_product(a, b))
    lp.cfl(lp.parse_word("x2x1"), lp.integer_alphabet())
    lp.flatten_forest(lp.Forest.from_json({"nodes": [{"set": [1, 2], "children": [{"set": [1]}]},
                                                      {"set": [3]}]}))
    combo = lp.GermCombo([(lp.Polynomial.constant(1), (a,))])
    lp.zeta_eval(combo, 3)
    shift = lp.GaloisTransform({a: 1})
    lp.apply_transform(shift, combo)
    lp.check_factorization(lp.ms_evaluator(), shift, [combo], 1)
    lp.iter_eval(lp.parse_germ("((z1-z2)/(z1+z2))^2"))


class Tracer:
    """In-memory span store.  `item` is the id stamped on new spans."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.item_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.seen: dict[str, set] = {}
        self.stack: list[int] = []
        self.item = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, name, mode, orig):
        counts = self.counts
        counts.setdefault(name, 0)
        if mode == "count":
            def counted(*args, **kw):
                counts[name] += 1
                return orig(*args, **kw)
            return counted
        sid_name = self._id(name)
        seen = self.seen.setdefault(name, set()) if mode == "distinct" else None
        short = name.split(".", 1)[1]
        perf = time.perf_counter
        stack = self.stack
        span_name, parent, item_id = self.span_name, self.parent, self.item_id
        start, end = self.start, self.end

        def spanned(*args, **kw):
            if seen is not None:
                seen.add(_distinct_key(short, args))
            sid = len(start)
            span_name.append(sid_name)
            parent.append(stack[-1] if stack else -1)
            item_id.append(self.item)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf()
            try:
                return orig(*args, **kw)
            finally:
                end[sid] = perf()
                start[sid] = t0
                stack.pop()
        return spanned

    def install(self, package):
        modules = [m for n, m in sys.modules.items()
                   if (n == package.__name__ or n.startswith(package.__name__ + "."))
                   and m is not None]
        for layer, modname, attr, short, mode in TARGETS:
            name = f"{layer}.{short}"
            module = sys.modules[f"{package.__name__}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._wrap(name, mode, orig)
                for key, val in list(cls.__dict__.items()):
                    if val is orig:   # aliases such as __rmul__ = __mul__
                        self._undo.append((cls, key, val))
                        setattr(cls, key, wrapped)
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, mode, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, val))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for obj, key, val in reversed(self._undo):
            setattr(obj, key, val)
        self._undo.clear()

    # -- statistics ---------------------------------------------------------

    def stats(self, scale):
        """{span name: {"calls", "distinct", "ms", "self_ms"}}, times scaled."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": c, "distinct": 0, "ms": 0.0, "self_ms": 0.0}
               for name, c in self.counts.items()}
        for i in range(n):
            name = self.names[self.span_name[i]]
            row = out[name]
            row["calls"] += 1
            row["self_ms"] += (dur[i] - child[i]) * 1e3 * scale
            if not self._inside_same(i):
                row["ms"] += dur[i] * 1e3 * scale
        for name, seen in self.seen.items():
            out[name]["distinct"] = len(seen)
        return out

    def _inside_same(self, i):
        """True if span i runs inside another span of the same name."""
        me = self.span_name[i]
        p = self.parent[i]
        while p >= 0:
            if self.span_name[p] == me:
                return True
            p = self.parent[p]
        return False

    def metrics(self, scale):
        stats = self.stats(scale)
        return {metric: {"value": stats[span][stat], "unit": unit}
                for metric, span, stat, unit in METRICS}

    def write(self, path):
        """Spans as JSON: names, then one [name, start, end, parent, item] row
        per span (seconds, perf_counter clock)."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "spans": [[self.span_name[i], round(self.start[i], 7),
                                  round(self.end[i], 7), self.parent[i], self.item_id[i]]
                                 for i in range(len(self.start))]},
                      fh, separators=(",", ":"))
