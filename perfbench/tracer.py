"""Per-layer spans recorded from outside the package.

The package itself is not edited.  While a Tracer is installed, each traced
public function is replaced, in every package module whose namespace refers
to it, by a wrapper that records one span: name, duration and the span that
was open when it started.  Spans are aggregated as they close, so memory
stays flat however many calls a pass makes.  A span's self time is its
duration minus the durations of its child spans; functions that are not
traced (private helpers, element_order, ...) count towards the self time of
the traced function that called them.

`cli` only dispatches and gets no span.  Everything runs in one thread with
no queue, so no layer waits on another and there are no wait metrics.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import primecoprime
from primecoprime import cli, closedforms, groups, numtheory, oracles, pcgraph, verification

MODULES = (primecoprime, numtheory, groups, pcgraph, closedforms, oracles, verification, cli)
LAYERS = ("numtheory", "groups", "pcgraph", "closedforms", "oracles", "verification")

_element_order = groups.element_order


def _factorize_key(n, *_args, **_kwargs):
    return n


def _theta_degree_key(group, x, *_args, **_kwargs):
    # degrees depend only on the order class, so that is the distinct unit
    return group.family, group.n, _element_order(group, x)


def _graph_size(counts: Counter, graph) -> None:
    counts["pcgraph.build_theta.vertices"] += graph.vertex_count
    counts["pcgraph.build_theta.edges"] += graph.edge_count()


def _export_bytes(counts: Counter, text: str) -> None:
    counts["pcgraph.export.bytes"] += len(text)  # ASCII text: characters are bytes


# span name -> (owner, attribute, distinct-key function, result counter)
TRACED = {
    "numtheory.factorize": (numtheory, "factorize", _factorize_key, None),
    "numtheory.is_prime": (numtheory, "is_prime", None, None),
    "numtheory.euler_phi": (numtheory, "euler_phi", None, None),
    "numtheory.divisors": (numtheory, "divisors", None, None),
    "groups.elements": (groups, "elements", None, None),
    "groups.element_orders": (groups, "element_orders", None, None),
    "pcgraph.build_theta": (pcgraph, "build_theta", None, _graph_size),
    "pcgraph.verify_hjoin_structure": (pcgraph, "verify_hjoin_structure", None, None),
    "pcgraph.SimpleGraph.neighbor_sets": (pcgraph.SimpleGraph, "neighbor_sets", None, None),
    "pcgraph.join": (pcgraph, "join", None, None),
    "pcgraph.graph_to_json": (pcgraph, "graph_to_json", None, _export_bytes),
    "pcgraph.graph_to_dot": (pcgraph, "graph_to_dot", None, _export_bytes),
    "closedforms.theta_degree": (closedforms, "theta_degree", _theta_degree_key, None),
    "closedforms.decomposition_catalog": (closedforms, "decomposition_catalog", None, None),
    "closedforms.catalog_partition": (closedforms, "catalog_partition", None, None),
    "oracles.max_clique": (oracles, "max_clique", None, None),
    "oracles.hamiltonian_search": (oracles, "hamiltonian_search", None, None),
    "oracles.kl_partition_check": (oracles, "kl_partition_check", None, None),
    "oracles.dominating_vertices": (oracles, "dominating_vertices", None, None),
    "oracles.cut_witness_check": (oracles, "cut_witness_check", None, None),
    "oracles.dirac_check": (oracles, "dirac_check", None, None),
    "verification.sort_records": (verification, "sort_records", None, None),
    "verification.jsonl": (verification, "jsonl", None, None),
}
# every run_* sweep shares one span name: their self time is record building
TRACED.update(
    (f"verification.run:{attr}", (verification, attr, None, None))
    for attr in verification.__all__
    if attr.startswith("run_")
)

# per-function metrics of the traced run: (name, unit, better)
FUNCTION_METRICS = (
    ("numtheory.factorize.calls", "count", "lower"),
    ("numtheory.factorize.self_s", "s", "lower"),
    ("numtheory.factorize.distinct_share", "share", "higher"),
    ("numtheory.is_prime.calls", "count", "lower"),
    ("numtheory.is_prime.self_s", "s", "lower"),
    ("numtheory.euler_phi.self_s", "s", "lower"),
    ("numtheory.divisors.self_s", "s", "lower"),
    ("groups.elements.self_s", "s", "lower"),
    ("groups.element_orders.calls", "count", "lower"),
    ("groups.element_orders.self_s", "s", "lower"),
    ("pcgraph.build_theta.calls", "count", "lower"),
    ("pcgraph.build_theta.self_s", "s", "lower"),
    ("pcgraph.build_theta.vertices", "count", "lower"),
    ("pcgraph.build_theta.edges", "count", "lower"),
    ("pcgraph.verify_hjoin_structure.self_s", "s", "lower"),
    ("pcgraph.SimpleGraph.neighbor_sets.self_s", "s", "lower"),
    ("pcgraph.join.self_s", "s", "lower"),
    ("pcgraph.graph_to_json.self_s", "s", "lower"),
    ("pcgraph.graph_to_dot.self_s", "s", "lower"),
    ("pcgraph.export.bytes", "count", "lower"),
    ("closedforms.theta_degree.calls", "count", "lower"),
    ("closedforms.theta_degree.self_s", "s", "lower"),
    ("closedforms.theta_degree.distinct_share", "share", "higher"),
    ("closedforms.decomposition_catalog.self_s", "s", "lower"),
    ("closedforms.catalog_partition.self_s", "s", "lower"),
    ("oracles.max_clique.calls", "count", "lower"),
    ("oracles.max_clique.self_s", "s", "lower"),
    ("oracles.hamiltonian_search.calls", "count", "lower"),
    ("oracles.hamiltonian_search.self_s", "s", "lower"),
    ("oracles.kl_partition_check.self_s", "s", "lower"),
    ("oracles.dominating_vertices.self_s", "s", "lower"),
    ("oracles.cut_witness_check.self_s", "s", "lower"),
    ("oracles.dirac_check.self_s", "s", "lower"),
    ("verification.run.self_s", "s", "lower"),
    ("verification.sort_records.self_s", "s", "lower"),
    ("verification.jsonl.self_s", "s", "lower"),
)
# every per-layer metric: the functions, each layer's summed self time, the
# time outside any span, and the traced-versus-untraced comparison
PER_LAYER = (
    FUNCTION_METRICS
    + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS)
    + (
        ("benchmark.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.dominant_share", "share", "higher"),
    )
)


class Tracer:
    """Aggregated spans of one traced pass."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.parents: Counter = Counter()  # (parent span or None, span) -> calls
        self.keys: defaultdict = defaultdict(set)
        self.counts: Counter = Counter()
        self.top_level_s = 0.0  # summed durations of spans with no parent
        self._stack: list[list] = []

    def _wrap(self, name: str, fn, key, count):
        stack = self._stack
        label = name.split(":")[0]

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [label, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[label] += 1
                self.self_time[label] += elapsed - frame[1]
                self.parents[parent[0] if parent else None, label] += 1
                if parent is None:
                    self.top_level_s += elapsed
                else:
                    parent[1] += elapsed
            done = perf_counter()
            if key is not None:
                self.keys[label].add(key(*args, **kwargs))
            if count is not None:
                count(self.counts, result)
            if parent is not None:
                # this bookkeeping is tracing cost, not the parent's work
                parent[1] += perf_counter() - done
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        undo = []
        try:
            for name, (owner, attr, key, count) in TRACED.items():
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original, key, count)
                holders = [owner] + [
                    m for m in MODULES if m is not owner and vars(m).get(attr) is original
                ]
                for holder in holders:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer values of this pass, all but the trace.* entries."""
        out: dict[str, float] = {}
        for name, _, _ in FUNCTION_METRICS:
            span, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[span]
            elif field == "self_s":
                out[name] = self.self_time[span]
            elif field == "distinct_share":
                calls = self.calls[span]
                out[name] = len(self.keys[span]) / calls if calls else 0.0
            else:
                out[name] = self.counts[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for span, t in self.self_time.items() if span.startswith(layer + ".")
            )
        out["benchmark.self_s"] = wall_s - self.top_level_s
        return out
