"""Shared brute-force helpers for the tests.

These deliberately avoid the library's closed forms: element orders come from
repeated multiplication in an explicit presentation, graphs are rebuilt by
double loops, and the clique/Hamiltonicity brute forcers enumerate
combinations and permutations outright.
"""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import combinations, permutations

from hypothesis import strategies as st

from primecoprime.groups import Family, GroupSpec, elements
from primecoprime.pcgraph import SimpleGraph


def naive_is_prime(k: int) -> bool:
    return k >= 2 and all(k % d != 0 for d in range(2, k))


def naive_element_order(group: GroupSpec, element) -> int:
    """Order by repeated multiplication.

    Rotations/powers are pairs (i, 0), the other coset is (i, 1); the
    presentation rules are b a = a^-1 b together with b^2 = identity for
    dihedral groups and b^2 = a^n for dicyclic ones (a of order 2n).
    """
    n = group.n
    if group.family is Family.CYCLIC:
        value = element.index % n
        acc, k = value, 1
        while acc % n != 0:
            acc += value
            k += 1
        return k

    if group.family is Family.DIHEDRAL:
        modulus = n

        def mul(x, y):
            (i1, j1), (i2, j2) = x, y
            if j1 == 0:
                return ((i1 + i2) % modulus, j2)
            return ((i1 - i2) % modulus, 1 - j2)

    else:
        modulus = 2 * n

        def mul(x, y):
            (i1, j1), (i2, j2) = x, y
            if j1 == 0:
                return ((i1 + i2) % modulus, j2)
            if j2 == 0:
                return ((i1 - i2) % modulus, 1)
            return ((i1 - i2 + n) % modulus, 0)

    start = (element.index, 0 if element.kind in ("r", "a") else 1)
    acc, k = start, 1
    while acc != (0, 0):
        acc = mul(acc, start)
        k += 1
    return k


def from_edges(m: int, edges) -> SimpleGraph:
    """Graph on m vertices with the given edges (validated, deduplicated),
    one twin class per vertex: class v is linked to the vertex's neighbours."""
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
    return SimpleGraph(((v,), sorted(s)) for v, s in enumerate(nbrs))


def blow_up(parts, cliques, links) -> SimpleGraph:
    """Graph whose twin classes are the parts (vertex lists that together
    cover 0..N-1): part i is a clique when i is in cliques and independent
    otherwise, and parts i and j are fully joined when (i, j) is in links.
    Built with SimpleGraph(classes) directly, so a class has many members."""
    linked = {(i, i) for i in cliques} | set(links) | {(j, i) for i, j in links}
    return SimpleGraph((sorted(members), [j for j in range(len(parts)) if (i, j) in linked])
                       for i, members in enumerate(parts))


@st.composite
def blow_ups(draw):
    # 1-6 twin classes of 1-4 members, scattered over the vertices, each a
    # clique or independent, joined along a random quotient graph
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    order = draw(st.permutations(range(sum(sizes))))
    parts = [order[sum(sizes[:i]):sum(sizes[:i + 1])] for i in range(len(sizes))]
    cliques = [i for i in range(len(sizes)) if draw(st.booleans())]
    links = [pair for pair in combinations(range(len(sizes)), 2) if draw(st.booleans())]
    return blow_up(parts, cliques, links)


def has_edge(graph: SimpleGraph, u: int, v: int) -> bool:
    """Bit v of u's neighbour mask: what the reference exporters and the
    brute forcers read, so they never touch the class links."""
    return (graph.rows[u] >> v) & 1 == 1


def edge_list(graph: SimpleGraph) -> list[tuple[int, int]]:
    """Every edge (u, v) with u < v, in lexicographic order."""
    n = graph.vertex_count
    return [(u, v) for u in range(n) for v in range(u + 1, n) if has_edge(graph, u, v)]


def bfs_component_count(graph: SimpleGraph, removed=()) -> int:
    """Components left once the removed vertices go, by breadth-first search
    over the edge list."""
    gone = set(removed)
    nbrs: dict[int, list[int]] = {v: [] for v in range(graph.vertex_count) if v not in gone}
    for u, v in edge_list(graph):
        if u in nbrs and v in nbrs:
            nbrs[u].append(v)
            nbrs[v].append(u)
    seen: set[int] = set()
    count = 0
    for root in nbrs:
        if root in seen:
            continue
        count += 1
        seen.add(root)
        queue = deque([root])
        while queue:
            for u in nbrs[queue.popleft()]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    return count


def cycle_graph(m: int) -> SimpleGraph:
    """Cycle on m >= 3 vertices."""
    assert m >= 3, "a cycle needs at least 3 vertices"
    return from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def h_join(partition, pattern_edges) -> SimpleGraph:
    """Expand an H-join edge by edge over a vertex partition of 0..N-1:
    part 0 becomes a clique, the other parts stay independent, and two parts
    are fully joined exactly for pattern edges.  The expanded reference that
    verify_hjoin_structure's class-level check is compared against."""
    parts = [tuple(part) for part in partition]
    edges = list(combinations(parts[0], 2))
    for i, j in pattern_edges:
        edges += [(u, v) for u in parts[i] for v in parts[j]]
    return from_edges(sum(len(part) for part in parts), edges)


def naive_theta(group: GroupSpec) -> SimpleGraph:
    """Prime coprime graph rebuilt from multiplication-based orders."""
    elems = elements(group)
    orders = [naive_element_order(group, e) for e in elems]
    edge_gcd: dict[int, bool] = {}  # gcd -> edge, so each gcd is tested once
    edges = []
    for u in range(len(elems)):
        for v in range(u + 1, len(elems)):
            g = math.gcd(orders[u], orders[v])
            if g not in edge_gcd:
                edge_gcd[g] = g == 1 or naive_is_prime(g)
            if edge_gcd[g]:
                edges.append((u, v))
    return from_edges(len(elems), edges)


def is_complete(graph: SimpleGraph) -> bool:
    """True iff every pair of distinct vertices is an edge."""
    n = graph.vertex_count
    return graph.edge_count() == n * (n - 1) // 2


def _reference_names(graph: SimpleGraph) -> tuple[str, ...]:
    if graph.labels is not None:
        return graph.labels
    return tuple(f"v{i}" for i in range(graph.vertex_count))


def reference_graph_to_dot(graph: SimpleGraph) -> str:
    """DOT export written one line per vertex and per edge: the reference the
    row-joined graph_to_dot must match byte for byte."""
    names = _reference_names(graph)
    lines = ["graph theta {"]
    for name in names:
        lines.append(f'  "{name}";')
    for u, v in edge_list(graph):
        lines.append(f'  "{names[u]}" -- "{names[v]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_graph_to_json(graph: SimpleGraph, family: str, parameter: int) -> str:
    """JSON export as one json.dumps over a [u, v] list per edge: the
    reference the row-joined graph_to_json must match byte for byte."""
    edges = [[u, v] for u, v in edge_list(graph)]
    payload = {
        "family": family,
        "parameter": parameter,
        "vertex_labels": list(_reference_names(graph)),
        "edges": edges,
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def brute_max_clique(graph: SimpleGraph) -> tuple[int, tuple[int, ...]]:
    """Exhaustive maximum clique; returns size and the lexicographically
    least witness (combinations iterate in lexicographic order)."""
    n = graph.vertex_count
    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            if all(has_edge(graph, u, v) for u, v in combinations(combo, 2)):
                return size, combo
    return 0, ()


def brute_hamiltonian(graph: SimpleGraph) -> bool:
    """Exhaustive Hamiltonian cycle test for tiny graphs."""
    n = graph.vertex_count
    if n < 3:
        return False
    rest = list(range(1, n))
    for perm in permutations(rest):
        cycle = (0,) + perm
        if all(
            has_edge(graph, cycle[i], cycle[(i + 1) % n]) for i in range(n)
        ):
            return True
    return False


def assert_valid_cycle(graph: SimpleGraph, cycle: tuple[int, ...]) -> None:
    assert sorted(cycle) == list(range(graph.vertex_count))
    for i, u in enumerate(cycle):
        assert has_edge(graph, u, cycle[(i + 1) % len(cycle)])
