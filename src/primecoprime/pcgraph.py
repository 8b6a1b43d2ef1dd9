"""Simple undirected graphs and the prime coprime graph construction.

A SimpleGraph stores sorted neighbor tuples per vertex.  Adjacency in the
prime coprime graph depends only on element orders, so build_theta assembles
one neighbor tuple per order class and shares it across the class; only
classes adjacent to themselves (order 1 or prime) need a per-vertex copy with
the vertex itself removed.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .groups import GroupSpec, element_labels, element_orders
from .numtheory import is_prime

__all__ = [
    "DEFAULT_VERTEX_CAP",
    "CapacityError",
    "SimpleGraph",
    "empty_graph",
    "complete",
    "from_edges",
    "cycle_graph",
    "join",
    "PartKind",
    "HJoinPart",
    "HJoinSpec",
    "h_join",
    "build_theta",
    "induced_subgraph",
    "delete_vertices",
    "component_count",
    "is_complete",
    "validate_partition",
    "HJoinCheck",
    "verify_hjoin_structure",
    "graph_to_dot",
    "graph_to_json",
]

DEFAULT_VERTEX_CAP = 20000


class CapacityError(Exception):
    """Raised when a requested graph exceeds the vertex budget."""


class SimpleGraph:
    """Undirected simple graph on vertices 0..vertex_count-1.

    adjacency[v] is a sorted tuple of neighbors.  Instances are treated as
    immutable; constructors in this module produce canonical data.  Equality
    compares structure (vertex count and adjacency), not labels.
    """

    __slots__ = ("vertex_count", "adjacency", "labels", "_neighbor_sets")

    def __init__(
        self,
        adjacency: tuple[tuple[int, ...], ...],
        labels: tuple[str, ...] | None = None,
    ) -> None:
        self.vertex_count = len(adjacency)
        self.adjacency = adjacency
        if labels is not None and len(labels) != len(adjacency):
            raise ValueError("labels must align with the vertex list")
        self.labels = labels
        self._neighbor_sets: tuple[frozenset[int], ...] | None = None

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def min_degree(self) -> int:
        if self.vertex_count == 0:
            raise ValueError("minimum degree of an empty graph is undefined")
        return min(len(nbrs) for nbrs in self.adjacency)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adjacency[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        if self._neighbor_sets is None:
            self._neighbor_sets = tuple(frozenset(nbrs) for nbrs in self.adjacency)
        return self._neighbor_sets

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.adjacency == other.adjacency
        )

    def __hash__(self) -> int:
        return hash(self.adjacency)

    def __repr__(self) -> str:
        return f"SimpleGraph(vertices={self.vertex_count}, edges={self.edge_count()})"


def empty_graph(m: int, labels: tuple[str, ...] | None = None) -> SimpleGraph:
    """Edgeless graph on m vertices."""
    if m < 0:
        raise ValueError("vertex count must be >= 0")
    return SimpleGraph(((),) * m, labels)


def complete(m: int, labels: tuple[str, ...] | None = None) -> SimpleGraph:
    """Complete graph on m vertices."""
    if m < 0:
        raise ValueError("vertex count must be >= 0")
    base = tuple(range(m))
    return SimpleGraph(
        tuple(base[:v] + base[v + 1 :] for v in range(m)),
        labels,
    )


def from_edges(
    m: int,
    edges: list[tuple[int, int]] | tuple[tuple[int, int], ...],
    labels: tuple[str, ...] | None = None,
) -> SimpleGraph:
    """Graph on m vertices with the given edges (validated, deduplicated)."""
    if m < 0:
        raise ValueError("vertex count must be >= 0")
    nbrs: list[set[int]] = [set() for _ in range(m)]
    for u, v in edges:
        if not (0 <= u < m and 0 <= v < m):
            raise ValueError(f"edge ({u},{v}) out of range for {m} vertices")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return SimpleGraph(tuple(tuple(sorted(s)) for s in nbrs), labels)


def cycle_graph(m: int) -> SimpleGraph:
    """Cycle on m >= 3 vertices."""
    if m < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def join(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    """Join of two graphs: disjoint union plus all cross edges."""
    na, nb = a.vertex_count, b.vertex_count
    cross_b = tuple(range(na, na + nb))
    cross_a = tuple(range(na))
    adjacency = tuple(row + cross_b for row in a.adjacency) + tuple(
        cross_a + tuple(v + na for v in row) for row in b.adjacency
    )
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = a.labels + b.labels
    return SimpleGraph(adjacency, labels)


class PartKind(Enum):
    COMPLETE = "K"
    EMPTY = "E"


@dataclass(frozen=True)
class HJoinPart:
    kind: PartKind
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("parts must be nonempty")

    def describe(self) -> str:
        return f"{self.kind.value}{self.size}"


@dataclass(frozen=True)
class HJoinSpec:
    """Pattern graph H plus one complete/empty part per pattern vertex."""

    pattern: SimpleGraph
    parts: tuple[HJoinPart, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 1:
            raise ValueError("an H-join needs at least one part")
        if self.pattern.vertex_count != len(self.parts):
            raise ValueError("pattern order must match the number of parts")

    @property
    def total_size(self) -> int:
        return sum(p.size for p in self.parts)

    def describe(self) -> str:
        return ",".join(p.describe() for p in self.parts)


def h_join(spec: HJoinSpec) -> SimpleGraph:
    """Expand an HJoinSpec: parts become blocks of consecutive vertices, all
    cross edges appear exactly for pattern edges."""
    sizes = [p.size for p in spec.parts]
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + size)
    blocks = [tuple(range(offsets[i], offsets[i + 1])) for i in range(len(sizes))]
    adjacency: list[tuple[int, ...]] = [()] * offsets[-1]
    for i, part in enumerate(spec.parts):
        nbr_parts = spec.pattern.adjacency[i]
        pre: list[int] = []
        post: list[int] = []
        for j in nbr_parts:
            (pre if j < i else post).extend(blocks[j])
        if part.kind is PartKind.COMPLETE:
            own = blocks[i]
            for at, v in enumerate(own):
                adjacency[v] = tuple(pre) + own[:at] + own[at + 1 :] + tuple(post)
        else:
            shared = tuple(pre) + tuple(post)
            for v in blocks[i]:
                adjacency[v] = shared
    return SimpleGraph(tuple(adjacency))


def _adjacent_orders(d1: int, d2: int) -> bool:
    # edge rule of the prime coprime graph, applied to order classes
    g = math.gcd(d1, d2)
    return g == 1 or is_prime(g)


def build_theta(group: GroupSpec, vertex_cap: int = DEFAULT_VERTEX_CAP) -> SimpleGraph:
    """Prime coprime graph of the group: vertices are the elements in
    canonical order, an edge joins u != v iff gcd(|u|, |v|) is 1 or prime."""
    if group.order > vertex_cap:
        raise CapacityError(
            f"{group} has {group.order} elements, above the cap of {vertex_cap}"
        )
    orders = element_orders(group)
    labels = tuple(element_labels(group))
    classes: dict[int, list[int]] = {}
    for v, d in enumerate(orders):
        classes.setdefault(d, []).append(v)
    distinct = sorted(classes)
    adjacency: list[tuple[int, ...]] = [()] * group.order
    for d in distinct:
        linked = [d2 for d2 in distinct if _adjacent_orders(d, d2)]
        base = tuple(sorted(chain.from_iterable(classes[d2] for d2 in linked)))
        if d in linked:
            # class adjacent to itself: drop each vertex from its own row
            for v in classes[d]:
                at = bisect_left(base, v)
                adjacency[v] = base[:at] + base[at + 1 :]
        else:
            for v in classes[d]:
                adjacency[v] = base
    return SimpleGraph(tuple(adjacency), labels)


def induced_subgraph(graph: SimpleGraph, vertices) -> SimpleGraph:
    """Subgraph induced by the given vertices, order inherited from the graph."""
    keep = sorted(set(vertices))
    if not keep:
        raise ValueError("induced subgraph needs a nonempty vertex set")
    if keep[0] < 0 or keep[-1] >= graph.vertex_count:
        raise ValueError("vertex out of range")
    position = {v: i for i, v in enumerate(keep)}
    adjacency = tuple(
        tuple(position[u] for u in graph.adjacency[v] if u in position) for v in keep
    )
    labels = None
    if graph.labels is not None:
        labels = tuple(graph.labels[v] for v in keep)
    return SimpleGraph(adjacency, labels)


def delete_vertices(graph: SimpleGraph, drop) -> SimpleGraph:
    """Graph with the given vertices removed (complement may be empty)."""
    gone = set(drop)
    for v in gone:
        if not (0 <= v < graph.vertex_count):
            raise ValueError("vertex out of range")
    keep = [v for v in range(graph.vertex_count) if v not in gone]
    if not keep:
        return empty_graph(0)
    return induced_subgraph(graph, keep)


def component_count(graph: SimpleGraph) -> int:
    """Number of connected components."""
    seen = bytearray(graph.vertex_count)
    count = 0
    for root in range(graph.vertex_count):
        if seen[root]:
            continue
        count += 1
        seen[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for u in graph.adjacency[v]:
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
    return count


def is_complete(graph: SimpleGraph) -> bool:
    n = graph.vertex_count
    return graph.edge_count() == n * (n - 1) // 2


def validate_partition(parts, vertex_count: int) -> tuple[tuple[int, ...], ...]:
    """Check that parts are nonempty, disjoint and cover 0..vertex_count-1."""
    normalized = tuple(tuple(sorted(part)) for part in parts)
    seen: set[int] = set()
    total = 0
    for part in normalized:
        if not part:
            raise ValueError("partition parts must be nonempty")
        for v in part:
            if not (0 <= v < vertex_count):
                raise ValueError(f"vertex {v} out of range")
        total += len(part)
        seen.update(part)
        if len(seen) != total:
            raise ValueError("partition parts must be disjoint")
    if len(seen) != vertex_count:
        raise ValueError("partition must cover every vertex")
    return normalized


@dataclass(frozen=True)
class HJoinCheck:
    """Outcome of verify_hjoin_structure; on failure the clause and the first
    offending vertex pair are recorded."""

    ok: bool
    clause: str | None = None  # part-complete | part-empty | cross-missing | cross-extra
    parts: tuple[int, ...] | None = None
    vertex_pair: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_hjoin_structure(graph: SimpleGraph, partition, spec: HJoinSpec) -> HJoinCheck:
    """Decide whether graph equals the H-join of spec under the partition.

    The partition parts must align one to one with spec.parts (same sizes,
    same order); a shape mismatch is an error, a structural mismatch is a
    False result with a witness.
    """
    parts = validate_partition(partition, graph.vertex_count)
    if len(parts) != len(spec.parts):
        raise ValueError("partition and spec have different part counts")
    for i, (part, pspec) in enumerate(zip(parts, spec.parts)):
        if len(part) != pspec.size:
            raise ValueError(
                f"part {i} has {len(part)} vertices, spec says {pspec.size}"
            )
    nbrs = graph.neighbor_sets()
    for i, (part, pspec) in enumerate(zip(parts, spec.parts)):
        members = frozenset(part)
        for u in part:
            if pspec.kind is PartKind.COMPLETE:
                missing = members - nbrs[u] - {u}
                if missing:
                    return HJoinCheck(False, "part-complete", (i,), (u, min(missing)))
            else:
                inside = nbrs[u] & members
                if inside:
                    return HJoinCheck(False, "part-empty", (i,), (u, min(inside)))
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            expected = spec.pattern.has_edge(i, j)
            other = frozenset(parts[j])
            for u in parts[i]:
                if expected:
                    missing = other - nbrs[u]
                    if missing:
                        return HJoinCheck(False, "cross-missing", (i, j), (u, min(missing)))
                else:
                    extra = other & nbrs[u]
                    if extra:
                        return HJoinCheck(False, "cross-extra", (i, j), (u, min(extra)))
    return HJoinCheck(True)


def _vertex_names(graph: SimpleGraph) -> tuple[str, ...]:
    if graph.labels is not None:
        return graph.labels
    return tuple(f"v{i}" for i in range(graph.vertex_count))


def graph_to_dot(graph: SimpleGraph) -> str:
    """DOT text: vertices first, then one edge per line, both in vertex order."""
    names = _vertex_names(graph)
    lines = ["graph theta {"]
    for name in names:
        lines.append(f'  "{name}";')
    for u in range(graph.vertex_count):
        for v in graph.adjacency[u]:
            if v > u:
                lines.append(f'  "{names[u]}" -- "{names[v]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: SimpleGraph, family: str, parameter: int) -> str:
    """JSON text with family, parameter, vertex labels and the sorted edge list."""
    edges = [
        [u, v]
        for u in range(graph.vertex_count)
        for v in graph.adjacency[u]
        if v > u
    ]
    payload = {
        "family": family,
        "parameter": parameter,
        "vertex_labels": list(_vertex_names(graph)),
        "edges": edges,
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"
