"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules, and
the public methods listed in ``METHODS``, with a wrapper that records a span
(name, start, end, parent) while the tracer is active. The package's modules
import functions from each other by name (``from .automaton import validate``),
so each module holds its own reference: the wrapper is installed on every
module attribute and module-level dict entry that holds the original.
``_kernels`` functions are always called as ``K.<name>``, so rebinding the
module attribute covers them.

A span's self time is its duration minus the time covered by its child spans.
Spans stay in memory and are written out by ``write`` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("cli", "single", "multi", "automaton", "oracles", "_kernels")

METHODS = (
    ("automaton", "Alphabet", "codes"),
    ("oracles", "GreedySubsequenceOracle", "transition_table"),
    ("oracles", "CommonSubsequenceOracle", "transition_table"),
    ("oracles", "AnySubsequenceOracle", "transition_table"),
)

MIB = 2**20


def _layer(module: str) -> str:
    return module.lstrip("_")


def _count_table(counts, args, table):
    counts["table_bytes"] += table.nbytes


def _count_resolved(counts, args, tables):
    counts["resolved_bytes"] += sum(t.nbytes for t in tables)


def _count_document(counts, args, doc):
    # documents are ASCII JSON (json.dumps escapes every non-ASCII symbol)
    counts["doc_bytes"] += len(doc)


def _count_run(counts, args, outcome):
    hops = outcome.defaults_per_char
    pattern = args[1]
    counts["run_chars"] += len(pattern) if outcome.reject_position is None else outcome.reject_position + 1
    counts["run_consumed"] += len(hops)
    counts["run_hops"] += sum(hops)
    if hops:
        counts["run_hops_max"] = max(counts["run_hops_max"], max(hops))


def _count_patterns(counts, args, report):
    counts["patterns_checked"] += report.patterns_checked


# Counts taken from a traced call's arguments and result, after its span ends.
HOOKS = {
    "kernels.next_occurrence_table": _count_table,
    "kernels.resolved_tables": _count_resolved,
    "automaton.serialize": _count_document,
    "automaton.run": _count_run,
    "oracles.equivalence_check": _count_patterns,
    "oracles.trace_equivalence": _count_patterns,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans = self.spans
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self, package) -> int:
        """Wrap the traced functions on every binding; returns the number of
        bindings replaced."""
        pkg = package.__name__
        modules = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"{pkg}.{short}"]
            for name, value in vars(module).items():
                if (
                    not name.startswith("_")
                    and callable(value)
                    and not inspect.isclass(value)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    wrappers[id(value)] = self._wrap(f"{_layer(short)}.{name}", value)
        replaced = 0
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, name, wrappers[id(value)])
                    replaced += 1
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in wrappers:
                            value[key] = wrappers[id(entry)]
                            replaced += 1
        for short, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"{pkg}.{short}"], cls_name)
            setattr(cls, attr, self._wrap(f"{_layer(short)}.{cls_name}.{attr}", getattr(cls, attr)))
            replaced += 1
        return replaced

    def totals(self):
        """Inclusive and self seconds per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        inclusive: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            inclusive[name] += end - start
            own[name] += end - start - child
        return inclusive, own

    def per_layer(self, rounds: int, workload_counts: dict, overhead: float) -> dict:
        """The per-layer metrics, per traced round, as name -> (value, unit).

        A layer the workload does not call reports 0.
        """
        inclusive, own = self.totals()
        c = self.counts

        def incl(*names):
            return sum(inclusive[n] for n in names) / rounds

        def self_of(*names):
            return sum(own[n] for n in names) / rounds

        def layer_self(layer):
            return sum(v for n, v in own.items() if n.startswith(layer + ".")) / rounds

        built = workload_counts.get("multi.states_built", 0)
        reachable = workload_counts.get("multi.states_reachable", 0)
        consumed = c["run_consumed"]
        return {
            "kernels.next_occurrence_table_s": (incl("kernels.next_occurrence_table"), "s"),
            "kernels.csr_from_table_s": (incl("kernels.csr_from_table"), "s"),
            "kernels.table_mib": (c["table_bytes"] / MIB / rounds, "MiB"),
            "kernels.ruler_bar_s": (incl("kernels.ruler_levels", "kernels.bar_targets"), "s"),
            "kernels.longest_chain_lengths_s": (incl("kernels.longest_chain_lengths"), "s"),
            "kernels.run_codes_s": (incl("kernels.run_codes"), "s"),
            "kernels.resolved_tables_s": (incl("kernels.resolved_tables"), "s"),
            "kernels.resolved_tables_mib": (c["resolved_bytes"] / MIB / rounds, "MiB"),
            "automaton.alphabet_codes_s": (incl("automaton.Alphabet.codes"), "s"),
            "automaton.run_self_s": (self_of("automaton.run"), "s"),
            "automaton.run_chars": (c["run_chars"] / rounds, "count"),
            "automaton.hops_per_char_mean": (c["run_hops"] / consumed if consumed else 0.0, "hops"),
            "automaton.hops_per_char_max": (c["run_hops_max"], "hops"),
            "automaton.serialize_s": (incl("automaton.serialize"), "s"),
            "automaton.doc_mib": (c["doc_bytes"] / MIB / rounds, "MiB"),
            "automaton.deserialize_self_s": (self_of("automaton.deserialize"), "s"),
            "automaton.validate_s": (incl("automaton.validate"), "s"),
            "single.build_chain_s": (incl("single.build_chain"), "s"),
            "single.build_level_s": (incl("single.build_level"), "s"),
            "single.build_k_level_s": (incl("single.build_k_level"), "s"),
            "single.self_s": (layer_self("single"), "s"),
            "multi.build_common_level_s": (incl("multi.build_common_level"), "s"),
            "multi.build_any_level_s": (incl("multi.build_any_level"), "s"),
            "multi.build_naive_common_s": (incl("multi.build_naive_common"), "s"),
            "multi.states_built": (built, "count"),
            "multi.states_reachable": (reachable, "count"),
            "multi.reachable_ratio": (reachable / built if built else 0.0, "ratio"),
            "oracles.greedy_table_s": (incl("oracles.GreedySubsequenceOracle.transition_table"), "s"),
            "oracles.product_table_s": (
                incl(
                    "oracles.CommonSubsequenceOracle.transition_table",
                    "oracles.AnySubsequenceOracle.transition_table",
                ),
                "s",
            ),
            "oracles.equivalence_check_self_s": (self_of("oracles.equivalence_check"), "s"),
            "oracles.trace_equivalence_self_s": (self_of("oracles.trace_equivalence"), "s"),
            "oracles.patterns_checked": (c["patterns_checked"] / rounds, "count"),
            "cli.verify_self_s": (layer_self("cli"), "s"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f, separators=(",", ":"))
