"""Per-layer tracing from outside the program.

Every public function of the layers `syntax`, `proof_system`,
`semantics`, `saturation` and `cli` is wrapped at every module binding
that callers go through (so `jlogic.cli.check_proof` and
`jlogic.saturation.bounded_derive` are wrapped too), together with the
methods `DerivabilityOracle.query`, `ConstantSpecification.covers` and
`BasicEvaluation.closure`.  A call made while another wrapped call is
running becomes its child span.  Self time is a span's duration minus
the time of its child spans.

Hot helpers are only aggregated, by (name, parent), never kept as spans.
Work in private functions (`_close`, `_quick_false_world`, `_match`,
`_canonical_posets`, `_Searcher.derive`, `_truth`, `_one_step_closed`)
cannot be seen from here; it is charged to the public caller's self
time.  Closing that gap needs spans inside the program.
"""

from __future__ import annotations

import functools
import time
import types

LAYERS = ("syntax", "proof_system", "semantics", "saturation", "cli")
METHODS = (
    ("saturation", "DerivabilityOracle", "query"),
    ("proof_system", "ConstantSpecification", "covers"),
    ("semantics", "BasicEvaluation", "closure"),
)
HOT = frozenset({
    "syntax.formula_key", "syntax.term_key", "syntax.print_formula",
    "syntax.print_term", "syntax.parse_formula", "syntax.parse_term",
    "proof_system.match_schema", "proof_system.ConstantSpecification.covers",
    "semantics.evaluate_truth",
})
INVISIBLE = ("semantics._close", "semantics._quick_false_world",
             "semantics._truth", "semantics._canonical_posets",
             "proof_system._match", "proof_system._Searcher.derive",
             "saturation._one_step_closed")
SPAN_CAP = 20000


def _outcome(name, result):
    """A label for results whose kind a per-layer ratio counts."""
    if name == "proof_system.bounded_derive":
        return type(result).__name__
    if name == "semantics.find_countermodel":
        return "found" if result is not None else "none"
    if name == "saturation.DerivabilityOracle.query":
        return type(result).__name__
    if name == "saturation.check_prime":
        return result.status
    return None


class Tracer:
    def __init__(self):
        self.on = False
        self.stack = []  # frames: [name, child seconds, direct child names]
        self.agg = {}  # (name, parent) -> [calls, seconds, self seconds]
        self.outcomes = {}  # (name, parent, label) -> count
        self.spans = []  # (op, name, parent, start, end) of non-hot calls
        self.op = 0
        self.searched = 0  # oracle queries with a bounded_derive child
        self._bindings = []  # (owner, attribute, original, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        hot = name in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[2].add(name)
            frame = [name, 0.0, set()]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spent = end - start
                pname = parent[0] if parent is not None else None
                if parent is not None:
                    parent[1] += spent
                row = tracer.agg.get((name, pname))
                if row is None:
                    row = tracer.agg[(name, pname)] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += spent
                row[2] += spent - frame[1]
                if not hot and len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((tracer.op, name, pname, start, end))
            label = _outcome(name, result)
            if label is not None:
                key = (name, pname, label)
                tracer.outcomes[key] = tracer.outcomes.get(key, 0) + 1
            if name == "saturation.DerivabilityOracle.query" \
                    and "proof_system.bounded_derive" in frame[2]:
                tracer.searched += 1
            return result

        return wrapper

    def install(self, package, modules):
        """Wrap the public functions of the layer modules at every binding
        in the package and its modules, and the traced methods."""
        wrappers = {}
        for layer in LAYERS:
            for attr, obj in vars(modules[layer]).items():
                if isinstance(obj, types.FunctionType) and not attr.startswith("_") \
                        and obj.__module__ == modules[layer].__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for owner in [package] + [modules[layer] for layer in LAYERS]:
            for attr, obj in list(vars(owner).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._bind(owner, attr, obj, wrappers[obj])
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = vars(cls)[attr]
            self._bind(cls, attr, original,
                       self._wrap(f"{layer}.{cls_name}.{attr}", original))

    def _bind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._bindings.append((owner, attr, original, wrapper))

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # ------------------------------------------------------------------
    # Reading the aggregates

    def calls(self, *names):
        return sum(row[0] for (n, _), row in self.agg.items() if n in names)

    def self_s(self, *names):
        return sum(row[2] for (n, _), row in self.agg.items() if n in names)

    def count(self, name, label=None, parent=None):
        return sum(c for (n, p, lab), c in self.outcomes.items()
                   if n == name and (label is None or lab == label)
                   and (parent is None or p == parent))

    def table(self):
        """The call tree by (name, parent), heaviest self time first."""
        rows = [
            {"name": n, "parent": p, "calls": r[0], "seconds": r[1],
             "self_s": r[2]}
            for (n, p), r in self.agg.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])


def layer_metrics(tr: Tracer, ops: int) -> dict:
    """The per-layer metrics: counts and self times per operation, and
    ratios over their own bases."""

    def per_op(x):
        return x / ops if ops else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    s, ps, se, sa = "syntax.", "proof_system.", "semantics.", "saturation."
    derive = ps + "bounded_derive"
    fcm = se + "find_countermodel"
    query = sa + "DerivabilityOracle.query"
    canon = sa + "bounded_canonical_model"
    queries = tr.calls(query)
    canon_checks = tr.count(sa + "check_prime", parent=canon)
    m = {
        "syntax.parse.calls": per_op(tr.calls(s + "parse_formula", s + "parse_term")),
        "syntax.parse.self_s": per_op(tr.self_s(s + "parse_formula", s + "parse_term")),
        "syntax.print.calls": per_op(tr.calls(s + "print_formula", s + "print_term")),
        "syntax.print.self_s": per_op(tr.self_s(s + "print_formula", s + "print_term")),
        "syntax.key.calls": per_op(tr.calls(s + "formula_key", s + "term_key")),
        "proof_system.check_proof.calls": per_op(tr.calls(ps + "check_proof")),
        "proof_system.check_proof.self_s": per_op(tr.self_s(ps + "check_proof")),
        "proof_system.deduce.self_s": per_op(tr.self_s(ps + "deduce")),
        "proof_system.internalize.self_s": per_op(tr.self_s(ps + "internalize")),
        "proof_system.match_schema.calls": per_op(tr.calls(ps + "match_schema")),
        "proof_system.covers.calls": per_op(tr.calls(ps + "ConstantSpecification.covers")),
        "proof_system.bounded_derive.calls": per_op(tr.calls(derive)),
        "proof_system.bounded_derive.self_s": per_op(tr.self_s(derive)),
        "proof_system.bounded_derive.derivable_share": share(
            tr.count(derive, "Derivable"), tr.calls(derive)),
        "semantics.find_countermodel.calls": per_op(tr.calls(fcm)),
        "semantics.find_countermodel.self_s": per_op(tr.self_s(fcm)),
        "semantics.find_countermodel.found_share": share(
            tr.count(fcm, "found"), tr.calls(fcm)),
        "semantics.validate_model.calls": per_op(tr.calls(se + "validate_model")),
        "semantics.validate_model.self_s": per_op(tr.self_s(se + "validate_model")),
        "semantics.evaluate_truth.calls": per_op(tr.calls(se + "evaluate_truth")),
        "semantics.evaluate_truth.self_s": per_op(tr.self_s(se + "evaluate_truth")),
        "semantics.closure.calls": per_op(tr.calls(se + "BasicEvaluation.closure")),
        "semantics.closure.self_s": per_op(tr.self_s(se + "BasicEvaluation.closure")),
        "semantics.model_io.self_s": per_op(tr.self_s(se + "parse_model", se + "print_model")),
        "saturation.oracle.queries": per_op(queries),
        "saturation.oracle.self_s": per_op(tr.self_s(query)),
        "saturation.oracle.searched_share": share(tr.searched, queries),
        "saturation.oracle.refuted_share": share(
            tr.count(query, "RefutedBySemantics"), queries),
        "saturation.oracle.unknown_share": share(tr.count(query, "Unknown"), queries),
        "saturation.check_prime.calls": per_op(tr.calls(sa + "check_prime")),
        "saturation.check_prime.self_s": per_op(tr.self_s(sa + "check_prime")),
        "saturation.prime_saturate.self_s": per_op(tr.self_s(sa + "prime_saturate")),
        "saturation.bounded_canonical_model.self_s": per_op(tr.self_s(canon)),
        "saturation.canonical.prime_share": share(
            tr.count(sa + "check_prime", "prime", parent=canon), canon_checks),
        "cli.main.calls": per_op(tr.calls("cli.main")),
        "cli.main.self_s": per_op(tr.self_s("cli.main")),
    }
    return m
