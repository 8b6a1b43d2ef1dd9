"""Brute-force verifiers, independent of the closed forms.

max_clique is an exact branch-and-bound with greedy colouring bounds; its
witness is the greedy lexicographic clique when that is maximum, and is
otherwise rebuilt by further runs of the same search, each given a floor
(prune what cannot beat it) and a goal (stop at the first clique that
large).  dirac_check takes the minimum degree and the vertex count, so a
caller can read them off the order classes.  hamiltonian_search is a
backtracking search whose pruning rules are all sound, so exhaustion proves
non-Hamiltonicity and every verdict carries checkable evidence (a cycle or
a disconnecting cut).  Nothing here is randomized; identical inputs always
produce identical outputs.

dominating_vertices reads SimpleGraph.twin_degrees, so it builds no mask;
max_clique reads SimpleGraph.rows as bitsets; hamiltonian_search also reads
class_table, so its checks and candidate lists take one step per twin class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .pcgraph import SimpleGraph, _bits, _mask, _spread, component_count, validate_partition

__all__ = [
    "DEFAULT_CLIQUE_BUDGET",
    "DEFAULT_HAM_BUDGET",
    "BudgetExceededError",
    "CliqueResult",
    "max_clique",
    "Verdict",
    "HamiltonicityEvidence",
    "hamiltonian_search",
    "cut_witness_check",
    "dirac_check",
    "dominating_vertices",
    "kl_partition_check",
]

DEFAULT_CLIQUE_BUDGET = 100_000_000
DEFAULT_HAM_BUDGET = 2_000_000


class BudgetExceededError(Exception):
    """Raised when the clique search exceeds its node budget."""


# ---------------------------------------------------------------------------
# maximum clique
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliqueResult:
    size: int
    witness: tuple[int, ...]  # lexicographically least maximum clique, sorted


class _Budget:
    __slots__ = ("left",)

    def __init__(self, amount: int) -> None:
        self.left = amount

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("clique search node budget exhausted")


def _greedy_color_order(cand: int, adj: list[int]) -> tuple[list[int], list[int]]:
    """Greedy colouring of the candidate set; returns the vertices grouped by
    colour class with nondecreasing colour numbers, which bound the largest
    clique reachable through each prefix."""
    order: list[int] = []
    bound: list[int] = []
    colour = 0
    rest = cand
    while rest:
        colour += 1
        avail = rest
        while avail:
            bit = avail & -avail
            v = bit.bit_length() - 1
            avail &= ~(adj[v] | bit)
            rest ^= bit
            order.append(v)
            bound.append(colour)
    return order, bound


def _max_size(
    adj: list[int], cand: int, budget: _Budget, best: int = 0, goal: int | None = None
) -> int:
    """Clique number of the subgraph on cand, or the floor best when no
    clique there is larger; with a goal, the search returns goal as soon as
    it reaches a clique of that size.  Depth-first over the colour order,
    highest colour first; the parent frames wait on an explicit stack, so
    the depth is not limited by the interpreter's recursion limit."""
    size = 0
    stack: list[tuple[list[int], list[int], int, int, int]] = []
    order, bound = _greedy_color_order(cand, adj)
    i = len(order) - 1
    while True:
        if i < 0 or size + bound[i] <= best:
            if not stack:
                return best
            order, bound, i, cand, size = stack.pop()
            continue
        budget.spend()
        if size + 1 == goal:
            return goal
        v = order[i]
        sub = cand & adj[v]
        i -= 1
        cand &= ~(1 << v)
        if sub:
            stack.append((order, bound, i, cand, size))
            order, bound = _greedy_color_order(sub, adj)
            i, cand, size = len(order) - 1, sub, size + 1
        elif size + 1 > best:
            best = size + 1


def _greedy_clique(adj: list[int], cand: int) -> list[int]:
    """Keep the lowest candidate and narrow to its neighbours until none is
    left: a maximal clique, the lexicographically least one."""
    clique: list[int] = []
    while cand:
        bit = cand & -cand
        v = bit.bit_length() - 1
        clique.append(v)
        cand &= adj[v]
    return clique


def max_clique(
    graph: SimpleGraph, node_budget: int = DEFAULT_CLIQUE_BUDGET
) -> CliqueResult:
    """Exact maximum clique with the lexicographically least witness.

    Phase one finds the clique number.  If the greedy lexicographic clique
    (lowest candidate first) reaches it, that clique is the witness: each of
    its vertices is the lowest one through which a maximum clique extends
    the prefix.  Otherwise phase two grows the witness, keeping a vertex
    exactly when a maximum clique through the current prefix still exists
    (the search on its remaining neighbours reaches the size still missing,
    its goal, with one less as its floor).
    Both phases share the node budget; the greedy clique spends none.
    """
    n = graph.vertex_count
    if n < 1:
        raise ValueError("clique search needs at least one vertex")
    adj = graph.rows
    budget = _Budget(node_budget)
    full = (1 << n) - 1
    best = _max_size(adj, full, budget)
    witness = _greedy_clique(adj, full)
    if len(witness) < best:
        witness = []
        cand = full
        need = best
        scan = 0
        while need > 0:
            for v in range(scan, n):
                if not (cand >> v) & 1:
                    continue
                sub = cand & adj[v]
                if need == 1 or _max_size(adj, sub, budget, need - 2, need - 1) == need - 1:
                    witness.append(v)
                    cand = sub
                    need -= 1
                    scan = v + 1
                    break
            else:
                raise AssertionError("witness reconstruction failed")
    for i, u in enumerate(witness):  # cheap self-check before reporting
        for v in witness[i + 1 :]:
            if not (adj[u] >> v) & 1:
                raise AssertionError("witness is not a clique")
    return CliqueResult(best, tuple(witness))


# ---------------------------------------------------------------------------
# Hamiltonicity
# ---------------------------------------------------------------------------


class Verdict(Enum):
    HAMILTONIAN = "hamiltonian"
    NON_HAMILTONIAN = "non-hamiltonian"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class HamiltonicityEvidence:
    """Search outcome: a cycle for yes, a disconnecting cut or an exhaustion
    note for no, a note only for inconclusive."""

    verdict: Verdict
    cycle: tuple[int, ...] | None = None
    cut_set: tuple[int, ...] | None = None
    note: str = ""


def dominating_vertices(graph: SimpleGraph) -> tuple[int, ...]:
    """Vertices adjacent to every other vertex, ascending."""
    n = graph.vertex_count
    return tuple(sorted(v for members, d in graph.twin_degrees() if d == n - 1 for v in members))


def _root_cut_witness(graph: SimpleGraph) -> tuple[tuple[int, ...], int] | None:
    """(S, components) for a set S whose removal leaves more than |S|
    components, or None; tries the dominating set and the neighborhoods of
    minimum-degree vertices."""
    n = graph.vertex_count
    candidates: list[tuple[int, ...]] = []
    seen: set[int] = set()  # the candidates' masks
    dom = dominating_vertices(graph)
    if 0 < len(dom) < n:
        candidates.append(dom)
        seen.add(_mask(dom, n))
    dmin = graph.min_degree()
    for row in graph.rows:
        if row.bit_count() != dmin:
            continue
        if 0 < dmin < n and row not in seen:
            seen.add(row)
            candidates.append(tuple(_bits(row)))
        if len(candidates) >= 17:
            break
    for cut in candidates:
        if (pieces := component_count(graph, cut)) > len(cut):
            return cut, pieces
    return None


def hamiltonian_search(
    graph: SimpleGraph, budget: int = DEFAULT_HAM_BUDGET
) -> HamiltonicityEvidence:
    """Backtracking Hamiltonian cycle search.

    The path starts at a minimum-degree vertex and extends toward neighbors
    with the fewest remaining continuations first.  Before descending, two
    sound feasibility rules run: every unvisited vertex still needs two
    usable connections, and the unvisited region must stay reachable.  A
    disconnecting cut found up front short-circuits to NonHamiltonian with
    the cut as certificate; otherwise NonHamiltonian is only reported on
    exhaustion.  Exceeding the step budget yields Inconclusive.
    """
    n = graph.vertex_count
    if n < 3:
        return HamiltonicityEvidence(
            Verdict.NON_HAMILTONIAN, note="a cycle needs at least three vertices"
        )
    if graph.min_degree() < 2:
        return HamiltonicityEvidence(
            Verdict.NON_HAMILTONIAN, note="a vertex of degree below two"
        )
    if component_count(graph) > 1:
        return HamiltonicityEvidence(Verdict.NON_HAMILTONIAN, note="disconnected")
    witness = _root_cut_witness(graph)
    if witness is not None:
        cut, pieces = witness
        return HamiltonicityEvidence(
            Verdict.NON_HAMILTONIAN,
            cut_set=cut,
            note=f"removing {len(cut)} vertices leaves {pieces} components",
        )

    adj = graph.rows
    class_of, table = graph.class_table()
    full = (1 << n) - 1
    start = min((degree, members[0]) for members, degree in graph.twin_degrees())[1]
    start_bit = 1 << start

    def feasible(endpoint: int, visited: int) -> bool:
        unvisited = full & ~visited
        if unvisited == 0:
            return True
        if adj[start] & unvisited == 0:
            return False  # nothing left that could close the cycle
        allowed = unvisited | (1 << endpoint) | start_bit
        u = unvisited
        while u:  # twins have the same usable connections: one check per class
            members, mask, self_loop = table[class_of[(u & -u).bit_length() - 1]]
            if (mask & allowed).bit_count() - self_loop < 2:
                return False
            u &= ~members
        region = unvisited | (1 << endpoint)
        return _spread(graph, 1 << endpoint, region) & unvisited == unvisited

    def ordered(endpoint: int, visited: int) -> list[int]:
        # one mask of candidates per remaining degree, in descending degree
        # order: the lowest bit of the last mask is the next to explore
        unvisited = full & ~visited
        cand = c = adj[endpoint] & unvisited
        by_degree: dict[int, int] = {}
        while c:
            members, mask, self_loop = table[class_of[(c & -c).bit_length() - 1]]
            degree = (mask & unvisited).bit_count() - self_loop
            by_degree[degree] = by_degree.get(degree, 0) | members & cand
            c &= ~members
        return [by_degree[d] for d in sorted(by_degree, reverse=True)]

    path = [start]
    visited = start_bit
    stack = [ordered(start, visited)]
    steps = 0
    while stack:
        frame = stack[-1]
        if not frame:
            stack.pop()
            if stack:
                visited ^= 1 << path.pop()
            continue
        v = (frame[-1] & -frame[-1]).bit_length() - 1
        frame[-1] &= frame[-1] - 1  # clears v's bit
        if not frame[-1]:
            frame.pop()
        steps += 1
        if steps > budget:
            return HamiltonicityEvidence(
                Verdict.INCONCLUSIVE, note=f"step budget {budget} exhausted"
            )
        path.append(v)
        visited |= 1 << v
        if len(path) == n:
            if (adj[v] >> start) & 1:
                return HamiltonicityEvidence(Verdict.HAMILTONIAN, cycle=tuple(path))
            visited ^= 1 << v
            path.pop()
            continue
        if feasible(v, visited):
            stack.append(ordered(v, visited))
        else:
            visited ^= 1 << v
            path.pop()
    return HamiltonicityEvidence(
        Verdict.NON_HAMILTONIAN, note="search exhausted without finding a cycle"
    )


# ---------------------------------------------------------------------------
# small checkers
# ---------------------------------------------------------------------------


def cut_witness_check(graph: SimpleGraph, cut) -> bool:
    """True iff removing the cut leaves more components than |cut|."""
    cut_set = sorted(set(cut))
    if not cut_set:
        raise ValueError("cut set must be nonempty")
    if len(cut_set) >= graph.vertex_count:
        raise ValueError("cut set must be a proper subset of the vertices")
    return component_count(graph, cut_set) > len(cut_set)


def dirac_check(min_degree: int, vertex_count: int) -> bool:
    """Dirac's bound: a graph on vertex_count >= 3 vertices whose minimum
    degree is at least half of them has a Hamiltonian cycle."""
    if vertex_count < 3:
        raise ValueError("the degree bound needs at least three vertices")
    return 2 * min_degree >= vertex_count


def kl_partition_check(graph: SimpleGraph, partition, k: int, l: int) -> bool:
    """True iff the first l parts induce cliques and the last k parts induce
    independent sets; part count must equal k + l."""
    parts = validate_partition(partition, graph.vertex_count)
    if len(parts) != k + l:
        raise ValueError(f"expected {k + l} parts, got {len(parts)}")
    rows = graph.rows
    for i, part in enumerate(parts):
        members = _mask(part, graph.vertex_count)
        # in a clique part u sees every member, in an independent part none
        if any((rows[u] | 1 << u) & members != (members if i < l else 1 << u) for u in part):
            return False
    return True
