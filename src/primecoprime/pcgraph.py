"""Simple undirected graphs and the prime coprime graph construction.

A SimpleGraph is its quotient: twin classes, each its members and the
classes fully joined to it.  Degrees and the edge count are read off the
class sizes; the class masks (class_table) and the per-vertex rows cut from
them are built on first read, so a graph that is only counted or exported
builds no mask.  Prime coprime adjacency depends only on element orders:
build_theta makes each order class (groups.order_classes) one twin class,
linked to the gcd-adjacent classes, with labels built on first read.

dot_chunks and json_chunks yield the export one vertex row at a time, each
row the upper tail of its class's base (the linked classes' members), so a
caller that writes the pieces as they come never holds the whole text;
graph_to_dot and graph_to_json join the pieces into one string.

verify_hjoin_structure checks the layout the graph forces: part 0 a clique
(the identity and the prime-order elements), every other part an independent
set of composite order classes, joined along the given pattern edges.  It
decides this between order classes by the same gcd rule, _adjacent_orders,
without building the graph.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, combinations

from .groups import GroupSpec, element_labels, element_orders, order_classes
from .numtheory import is_prime

__all__ = [
    "DEFAULT_VERTEX_CAP",
    "CapacityError",
    "SimpleGraph",
    "empty_graph",
    "complete",
    "join",
    "check_vertex_cap",
    "build_theta",
    "component_count",
    "validate_partition",
    "HJoinCheck",
    "verify_hjoin_structure",
    "dot_chunks",
    "json_chunks",
    "graph_to_dot",
    "graph_to_json",
]

DEFAULT_VERTEX_CAP = 20000


class CapacityError(Exception):
    """Raised when a requested graph exceeds the vertex budget."""


class SimpleGraph:
    """Undirected simple graph on vertices 0..vertex_count-1, held as twin
    classes: one (members, linked) pair per class.  The ascending members of
    all classes partition the vertices; linked holds the indices of the
    classes fully joined to this one, its own when it is a clique.  labels
    is None or a function returning the vertex names, called on first read.
    Instances are treated as immutable.  Equality compares structure (vertex
    count and rows), not classes or labels.
    """

    __slots__ = ("vertex_count", "classes", "_labels", "_table", "_rows")

    def __init__(self, classes: Iterable[tuple[Sequence[int], Sequence[int]]],
                 labels: Callable[[], Iterable[str]] | None = None) -> None:
        self.classes = tuple(classes)
        self.vertex_count = sum(len(members) for members, _ in self.classes)
        self._labels = labels
        self._table = None
        self._rows = None

    @property
    def labels(self) -> tuple[str, ...] | None:
        """The vertex names, built on first read; None for an unlabelled graph."""
        if callable(self._labels):
            labels = tuple(self._labels())
            if len(labels) != self.vertex_count:
                raise ValueError("labels must align with the vertex list")
            self._labels = labels
        return self._labels

    def twin_degrees(self) -> Iterator[tuple[Sequence[int], int]]:
        """(members, degree) per nonempty class: the linked classes' sizes,
        less one when the class is linked to itself."""
        sizes = [len(members) for members, _ in self.classes]
        return ((members, sum(map(sizes.__getitem__, linked)) - (i in linked))
                for i, (members, linked) in enumerate(self.classes) if members)

    def class_table(self) -> tuple[list[int], list[tuple[int, int, int]]]:
        """(each vertex's class index, one (member mask, class mask, 1 if
        self-adjacent else 0) per class), built on first use and kept; a
        class mask is the OR of the linked classes' member masks."""
        if self._table is None:
            class_of, owns = [0] * self.vertex_count, []
            for i, (members, _) in enumerate(self.classes):
                for v in members:
                    class_of[v] = i
                owns.append(_mask(members, self.vertex_count))
            self._table = class_of, [(owns[i], sum(owns[j] for j in linked), int(i in linked))
                                     for i, (_, linked) in enumerate(self.classes)]  # sum is OR
        return self._table

    @property
    def rows(self) -> list[int]:
        """rows[v] is v's neighbour mask: its class mask from class_table,
        less v's own bit in a self-adjacent class; built on first read."""
        if self._rows is None:
            rows = [0] * self.vertex_count
            for (members, _), (_, mask, clique) in zip(self.classes, self.class_table()[1]):
                for v in members:
                    rows[v] = mask ^ (1 << v) if clique else mask
            self._rows = rows
        return self._rows

    def min_degree(self) -> int:
        if self.vertex_count == 0:
            raise ValueError("minimum degree of an empty graph is undefined")
        return min(degree for _, degree in self.twin_degrees())

    def edge_count(self) -> int:
        return sum(len(members) * degree for members, degree in self.twin_degrees()) // 2

    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(_bits(row)) for row in self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.rows == other.rows

    def __repr__(self) -> str:
        return f"SimpleGraph(vertices={self.vertex_count}, edges={self.edge_count()})"


def _mask(vertices, n: int) -> int:
    """Mask with bit v set for each v in vertices, all below n."""
    bits = bytearray((n + 7) >> 3)
    for v in vertices:
        bits[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(bits, "little")


def _bits(mask: int) -> list[int]:
    """The vertices whose bits are set in mask, ascending."""
    return [v for v, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def empty_graph(m: int) -> SimpleGraph:
    """Edgeless graph on m vertices: one class linked to nothing."""
    if m < 0:
        raise ValueError("vertex count must be >= 0")
    return SimpleGraph([(range(m), ())])


def complete(m: int) -> SimpleGraph:
    """Complete graph on m vertices: one class linked to itself."""
    if m < 0:
        raise ValueError("vertex count must be >= 0")
    return SimpleGraph([(range(m), (0,))])


def join(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    """Join of two graphs: disjoint union plus all cross edges.  b's classes
    follow a's, their members shifted past a's vertices; each class of a
    gains a link to every class of b, and each class of b to every class of a."""
    na, ka = a.vertex_count, len(a.classes)
    of_a, of_b = range(ka), range(ka, ka + len(b.classes))
    return SimpleGraph(
        [(members, (*linked, *of_b)) for members, linked in a.classes]
        + [([v + na for v in members], (*of_a, *(j + ka for j in linked)))
           for members, linked in b.classes])


def _adjacent_orders(d1: int, d2: int) -> bool:
    # edge rule of the prime coprime graph, applied to order classes
    g = math.gcd(d1, d2)
    return g == 1 or is_prime(g)


def check_vertex_cap(group: GroupSpec, vertex_cap: int) -> None:
    """Raise CapacityError when the group has more elements than vertex_cap."""
    if group.order > vertex_cap:
        raise CapacityError(
            f"{group} has {group.order} elements, above the cap of {vertex_cap}"
        )


def build_theta(group: GroupSpec, vertex_cap: int = DEFAULT_VERTEX_CAP) -> SimpleGraph:
    """Prime coprime graph of the group: vertices are the elements in
    canonical order, an edge joins u != v iff gcd(|u|, |v|) is 1 or prime.
    Each order class is one twin class, linked to the gcd-adjacent classes
    (itself included when its order is 1 or prime)."""
    check_vertex_cap(group, vertex_cap)
    classes = order_classes(group)
    orders = list(classes)
    linked: list[list[int]] = [[] for _ in orders]
    for i, d in enumerate(orders):  # the rule is symmetric: each pair once, lists ascending
        for j in range(i + 1):
            if _adjacent_orders(d, orders[j]):
                linked[i].append(j)
                if j < i:
                    linked[j].append(i)
    return SimpleGraph(zip(classes.values(), linked), lambda: element_labels(group))


def _spread(graph: SimpleGraph, seed: int, region: int) -> int:
    """Vertices of region reachable from seed inside region: a mask BFS whose
    levels OR one class mask per class the frontier meets (twins share a row)."""
    class_of, table = graph.class_table()
    reach = seed & region
    frontier = reach
    while frontier:
        grown = 0
        while frontier:
            members, mask, _ = table[class_of[(frontier & -frontier).bit_length() - 1]]
            grown |= mask
            frontier &= ~members
        frontier = grown & region & ~reach
        reach |= frontier
    return reach


def component_count(graph: SimpleGraph, removed=()) -> int:
    """Number of connected components once the removed vertices (and their
    edges) are deleted; 0 when every vertex is removed.  A class with no
    neighbour left adds each member left as a component of its own."""
    n = graph.vertex_count
    removed = list(removed)
    for v in removed:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
    left = ((1 << n) - 1) & ~_mask(removed, n)
    class_of, table = graph.class_table()
    count = 0
    while left:
        low = left & -left
        members, mask, _ = table[class_of[low.bit_length() - 1]]
        if mask & left:
            left &= ~_spread(graph, low, left)
            count += 1
        else:
            count += (members & left).bit_count()
            left &= ~members
    return count


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


def verify_hjoin_structure(group: GroupSpec, partition, pattern_edges) -> HJoinCheck:
    """Decide whether the group's prime coprime graph is the H-join of the
    partition's parts: part 0 a clique, every other part an independent set,
    and parts i < j fully joined when (i, j) is a pattern edge and with no
    edges between them otherwise.

    Adjacency depends only on the two orders, so the graph is never built:
    each part keeps each order's two least members (the second stands for a
    pair inside the class), and their pairs are decided by _adjacent_orders.
    The witness is the pair a vertex-by-vertex scan in ascending order would
    report first.

    A pattern edge that does not join two parts is an error; a structural
    mismatch is a False result with a witness.
    """
    parts = validate_partition(partition, group.order)
    joined = set(pattern_edges)
    if not all(0 <= i < j < len(parts) for i, j in joined):
        raise ValueError(f"pattern edges {sorted(joined)} do not fit {len(parts)} parts")
    orders = element_orders(group)
    kept = []  # per part: the two least members of each order, ascending
    for part in parts:
        by_order: dict[int, list[int]] = {}
        for v in part:
            by_order.setdefault(orders[v], []).append(v)
        kept.append(sorted(v for members in by_order.values() for v in members[:2]))

    def mismatch(us: list[int], vs: list[int], adjacent: bool) -> tuple[int, int] | None:
        return next(((u, v) for u in us for v in vs
                     if u != v and _adjacent_orders(orders[u], orders[v]) != adjacent), None)

    for i, members in enumerate(kept):
        if pair := mismatch(members, members, i == 0):
            return HJoinCheck(False, "part-empty" if i else "part-complete", (i,), pair)
    for i, j in combinations(range(len(parts)), 2):
        expected = (i, j) in joined
        if pair := mismatch(kept[i], kept[j], expected):
            clause = "cross-missing" if expected else "cross-extra"
            return HJoinCheck(False, clause, (i, j), pair)
    return HJoinCheck(True)


def _vertex_names(graph: SimpleGraph) -> tuple[str, ...]:
    if graph.labels is not None:
        return graph.labels
    return tuple(f"v{i}" for i in range(graph.vertex_count))


def _upper_rows(graph: SimpleGraph) -> Iterator[tuple[int, Sequence[int]]]:
    """(u, the neighbours of u above u) for each vertex u that has one, in
    vertex order: every edge once, as its lower end's row.  It is cut from
    u's class base, which holds u only when the class is self-adjacent."""
    classes = graph.classes
    base_of: list[Sequence[int]] = [()] * graph.vertex_count
    for members, linked in classes:
        base = sorted(chain.from_iterable(classes[j][0] for j in linked))
        for v in members:
            base_of[v] = base
    for u, base in enumerate(base_of):
        tail = base[bisect_right(base, u):]
        if tail:
            yield u, tail


def dot_chunks(graph: SimpleGraph) -> Iterator[str]:
    """DOT text in pieces: the header and vertex lines, then one piece per
    vertex holding its edges to higher vertices, then the closing brace.
    Each row is one str.join over the vertex names, so no per-edge object
    is made and no piece holds more than one vertex's edges."""
    names = _vertex_names(graph)
    yield "graph theta {\n" + "".join(f'  "{name}";\n' for name in names)
    for u, tail in _upper_rows(graph):
        head = f'  "{names[u]}" -- "'
        yield head + f'";\n{head}'.join(map(names.__getitem__, tail)) + '";\n'
    yield "}\n"


def json_chunks(graph: SimpleGraph, family: str, parameter: int) -> Iterator[str]:
    """Compact JSON text in pieces: family, parameter, vertex labels and the
    sorted edge list, one piece per vertex row of edges as in dot_chunks."""
    header = json.dumps(
        {"family": family, "parameter": parameter, "vertex_labels": list(_vertex_names(graph))},
        separators=(",", ":"),
    )
    yield header[:-1] + ',"edges":['
    numbers = [str(v) for v in range(graph.vertex_count)]
    comma = ""
    for u, tail in _upper_rows(graph):
        yield f"{comma}[{u}," + f"],[{u},".join(map(numbers.__getitem__, tail)) + "]"
        comma = ","
    yield "]}\n"


def graph_to_dot(graph: SimpleGraph) -> str:
    """DOT text: vertices first, then one edge per line, both in vertex order."""
    return "".join(dot_chunks(graph))


def graph_to_json(graph: SimpleGraph, family: str, parameter: int) -> str:
    """JSON text with family, parameter, vertex labels and the sorted edge list."""
    return "".join(json_chunks(graph, family, parameter))
