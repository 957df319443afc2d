"""Span recorder for the traced run.

Each public function of a measured layer is wrapped where its caller
looks the name up (a module attribute), so cudfkit itself is unchanged.
A span is [name, start, end, parent span index, operation id]; spans stay
in memory and are written out when the run ends.  The two type-library
functions run once per property value, so their calls are aggregated per
(parent span, name) into a call count and a total time instead.

Layer self time is a span's duration minus the time its child spans
(aggregated calls included) cover.  Semantics spans opened inside
solver.solve are the solver's re-verification and are named
solver.reverify*, so they count toward the solver layer.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("types", "model", "textio", "semantics", "solver", "cli")

# (module, attribute, span name); dudf is left unmeasured on purpose.
SPANS = (
    ("cudfkit.textio", "parse_cudf", "textio.parse"),
    ("cudfkit.textio", "serialize_cudf", "textio.serialize"),
    ("cudfkit.textio", "serialize_solution", "textio.serialize"),
    ("cudfkit.textio", "parse_solution", "textio.solution"),
    ("cudfkit.textio", "apply_solution", "textio.solution"),
    ("cudfkit.cli", "validate_document", "model.validate"),
    ("cudfkit.textio", "validate_document", "model.validate"),
    ("cudfkit.semantics", "satisfies_request", "semantics.request"),
    ("cudfkit.semantics", "is_consistent", "semantics.consistent"),
    ("cudfkit.semantics", "is_successor", "semantics.successor"),
    ("cudfkit.solver", "preset_costs", "solver.costs"),
    ("cudfkit.solver", "solve", "solver.solve"),
    ("cudfkit.solver", "compile_problem", "solver.compile"),
    ("cudfkit.solver._kernel_py", "search", "solver.search"),
    ("cudfkit.solver._kernel", "search", "solver.search"),
)
LEAVES = (
    ("cudfkit.types", "parse_value", "types.parse_value"),
    ("cudfkit.types", "serialize_value", "types.serialize_value"),
)


class Recorder:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, seconds]
        self.counts = defaultdict(float)
        self.free_bits = []  # per compiled problem
        self.op = None
        self._stack = []
        self._in_solve = 0
        self._patched = []

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            label = name
            if self._in_solve and name.startswith("semantics."):
                label = ("solver.reverify" if name == "semantics.request"
                         else "solver.reverify." + name.split(".", 1)[1])
            index = len(self.spans)
            record = [label, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
            self.spans.append(record)
            self._stack.append(index)
            self._in_solve += name == "solver.solve"
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._in_solve -= name == "solver.solve"
                self._stack.pop()
            self._count(label, args, result)
            return result

        return wrapper

    def leaf(self, name, fn):
        leaves = self.leaves

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = leaves[(self._stack[-1] if self._stack else None, name)]
                entry[0] += 1
                entry[1] += perf_counter() - start

        return wrapper

    def _count(self, label, args, result):
        c = self.counts
        if label == "textio.parse":
            c["parse_bytes"] += len(args[0])
            c["stanzas_parsed"] += len(result.document.packages)
            c["recovered_errors"] += len(result.recovered_errors)
        elif label == "model.validate":
            c["model_violations"] += len(result)
        elif label == "semantics.request":
            c["semantics_violations"] += (len(result.successor.violations)
                                          + len(result.consistency.violations)
                                          + len(result.violations))
        elif label == "solver.compile":
            self.free_bits.append(len(result.free_bits))
        elif label == "solver.search":
            c["candidates"] += result[3]
        elif label == "solver.solve":
            c["solve_calls"] += 1
            c["budget_exceeded"] += result.status == "budget_exceeded"
            c["solver_decided"] += result.status in ("solution", "no_solution")

    def install(self):
        """Patch every measured name; undone by uninstall()."""
        for table, wrap in ((SPANS, self.span), (LEAVES, self.leaf)):
            for module, attr, name in table:
                try:
                    mod = importlib.import_module(module)
                except ImportError:  # the compiled kernel is optional
                    continue
                original = getattr(mod, attr)
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrap(name, original))

    def uninstall(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Seconds of self time per span name."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for (parent, _), (_, seconds) in self.leaves.items():
            if parent is not None:
                covered[parent] += seconds
        out = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[index]
        for (_, name), (_, seconds) in self.leaves.items():
            out[name] += seconds
        return out

    def metrics(self, ops):
        """Per-layer metrics over `ops` traced operations, as name ->
        (value, unit).  Times and work counts are means per operation;
        self-time shares are of the cli.main time."""
        ops = max(ops, 1)
        total = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
        calls = defaultdict(int)
        for (_, name), (n, seconds) in self.leaves.items():
            calls[name] += n
            total[name] += seconds
        own = self.self_times()
        c = self.counts
        bits = self.free_bits

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "textio.parse_s": (total["textio.parse"] / ops, "s/op"),
            "textio.parse_mb_per_s": (ratio(c["parse_bytes"] / 1e6, total["textio.parse"]),
                                      "MB/s"),
            "textio.stanzas_parsed": (c["stanzas_parsed"] / ops, "count/op"),
            "textio.recovered_errors": (c["recovered_errors"] / ops, "count/op"),
            "textio.serialize_s": (total["textio.serialize"] / ops, "s/op"),
            "textio.solution_s": (total["textio.solution"] / ops, "s/op"),
            "types.parse_value_calls": (calls["types.parse_value"] / ops, "calls/op"),
            "types.parse_value_s": (total["types.parse_value"] / ops, "s/op"),
            "types.serialize_value_calls": (calls["types.serialize_value"] / ops, "calls/op"),
            "types.serialize_value_s": (total["types.serialize_value"] / ops, "s/op"),
            "model.validate_s": (total["model.validate"] / ops, "s/op"),
            "model.violations": (c["model_violations"] / ops, "count/op"),
            "semantics.consistent_s": (total["semantics.consistent"] / ops, "s/op"),
            "semantics.successor_s": (total["semantics.successor"] / ops, "s/op"),
            "semantics.request_self_s": (own["semantics.request"] / ops, "s/op"),
            "semantics.violations": (c["semantics_violations"] / ops, "count/op"),
            "solver.costs_s": (total["solver.costs"] / ops, "s/op"),
            "solver.compile_s": (total["solver.compile"] / ops, "s/op"),
            "solver.search_s": (total["solver.search"] / ops, "s/op"),
            "solver.candidates_explored": (c["candidates"] / ops, "count/op"),
            "solver.candidates_per_s": (ratio(c["candidates"], total["solver.search"]), "1/s"),
            "solver.free_bits_median": (statistics.median(bits) if bits else 0, "bits"),
            "solver.free_bits_max": (max(bits) if bits else 0, "bits"),
            "solver.reverify_s": (total["solver.reverify"] / ops, "s/op"),
            "solver.budget_exceeded": (c["budget_exceeded"], "count"),
            "solver.solve_calls": (c["solve_calls"], "count"),
            "solver.decided_over_attempted": (ratio(c["solver_decided"], c["solve_calls"]),
                                              "ratio"),
            "cli.self_s": (own["cli.main"] / ops, "s/op"),
        }
        layer_self = self.layer_self_times(own)
        for layer in LAYERS:
            m[f"{layer}.self_share"] = (ratio(layer_self[layer], total["cli.main"]), "ratio")
        return m

    @staticmethod
    def layer_self_times(own):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in own.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def dump(self):
        """JSON-ready record of every span and aggregated call."""
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                      for n, s, e, p, o in self.spans],
            "aggregated_calls": [{"parent": p, "name": n, "calls": k, "seconds": t}
                                 for (p, n), (k, t) in self.leaves.items()],
            "counts": dict(self.counts),
            "free_bits": self.free_bits,
        }
