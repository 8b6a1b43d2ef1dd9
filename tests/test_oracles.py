"""Exact searches and small checkers against exhaustive brute force."""

import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from primecoprime.groups import Family, cyclic, dicyclic, dihedral, s_indices
from primecoprime.oracles import (
    BudgetExceededError,
    CliqueResult,
    Verdict,
    cut_witness_check,
    dirac_check,
    dominating_vertices,
    hamiltonian_search,
    kl_partition_check,
    max_clique,
)
from primecoprime.pcgraph import (
    build_theta,
    complete,
    component_count,
    empty_graph,
    join,
)
from primecoprime.verification import run_clique, run_epo_complete
from conftest import (
    assert_valid_cycle,
    bfs_component_count,
    blow_up,
    blow_ups,
    brute_hamiltonian,
    brute_max_clique,
    cycle_graph,
    edge_list,
    from_edges,
    has_edge,
)


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, edges)


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


# ---------------------------------------------------------------------------
# maximum clique
# ---------------------------------------------------------------------------


def test_max_clique_fixed_graphs():
    assert max_clique(complete(7)) == CliqueResult(7, tuple(range(7)))
    assert max_clique(empty_graph(5)) == CliqueResult(1, (0,))
    assert max_clique(cycle_graph(5)) == CliqueResult(2, (0, 1))
    assert max_clique(petersen()) == CliqueResult(2, (0, 1))


def test_max_clique_theta_z12():
    result = max_clique(build_theta(cyclic(12)))
    assert result.size == 6
    assert result.witness == (0, 2, 3, 4, 6, 8)
    assert list(result.witness) == sorted(result.witness)


def test_max_clique_needs_a_vertex():
    with pytest.raises(ValueError):
        max_clique(empty_graph(0))


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_max_clique_depth_is_not_bounded_by_the_recursion_limit():
    # complete graphs make the search go one level deeper per clique vertex
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        result = max_clique(complete(200))
        (record,) = run_clique(Family.CYCLIC, 199, 199)
    finally:
        sys.setrecursionlimit(limit)
    assert result == CliqueResult(200, tuple(range(200)))
    assert (record.formula, record.oracle, record.verdict) == (199, 199, "pass")


def test_max_clique_budget():
    with pytest.raises(BudgetExceededError):
        max_clique(complete(10), node_budget=1)


@settings(max_examples=150)
@given(graphs())
def test_max_clique_matches_brute_force(g):
    size, witness = brute_max_clique(g)
    result = max_clique(g)
    assert result.size == size
    assert result.witness == witness


def test_max_clique_complete_graph_spends_one_node_per_vertex():
    # the greedy witness is maximum, so only phase one's n nodes are spent
    assert max_clique(complete(300), node_budget=300) == CliqueResult(300, tuple(range(300)))
    with pytest.raises(BudgetExceededError):
        max_clique(complete(300), node_budget=299)


def _greedy_clique(graph):
    # lowest candidate first, narrowed to its neighbours: what phase one offers
    clique, cand = [], set(range(graph.vertex_count))
    while cand:
        v = min(cand)
        clique.append(v)
        cand = {u for u in cand if has_edge(graph, v, u)}
    return clique


@pytest.mark.parametrize(
    "group, budget",
    [(cyclic(12), 21), (cyclic(30), 66), (cyclic(60), 79), (dihedral(30), 861),
     (dicyclic(15), 78)],
    ids=str,
)
def test_max_clique_least_budget_with_witness_rebuild(group, budget):
    # the greedy clique falls short here, so phase two rebuilds the witness;
    # budget is the least node count both phases together get through on
    theta = build_theta(group)
    result = max_clique(theta, budget)
    assert len(_greedy_clique(theta)) < result.size
    with pytest.raises(BudgetExceededError):
        max_clique(theta, budget - 1)


def test_max_clique_rebuilds_witness_when_greedy_is_not_maximum():
    # the greedy clique {0, 1} is maximal but smaller than the triangle
    g = from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
    assert max_clique(g) == CliqueResult(3, (2, 3, 4))


@st.composite
def dense_graphs(draw, max_n=12):
    # each graph keeps a pair with probability density/10, density 5..10
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    density = draw(st.integers(5, 10))
    draws = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [e for e, d in zip(pairs, draws) if d < density])


@settings(max_examples=150)
@given(dense_graphs())
def test_max_clique_matches_brute_force_on_dense_graphs(g):
    assert max_clique(g) == CliqueResult(*brute_max_clique(g))


# ---------------------------------------------------------------------------
# Hamiltonicity search
# ---------------------------------------------------------------------------


def test_search_finds_cycles():
    for g in (cycle_graph(6), complete(4), build_theta(cyclic(10))):
        evidence = hamiltonian_search(g)
        assert evidence.verdict is Verdict.HAMILTONIAN
        assert_valid_cycle(g, evidence.cycle)
        assert evidence.cut_set is None


def test_search_exhaustion_proves_absence():
    evidence = hamiltonian_search(petersen())
    assert evidence.verdict is Verdict.NON_HAMILTONIAN
    assert evidence.cycle is None
    assert evidence.cut_set is None
    assert "exhausted" in evidence.note


def test_search_cut_witness_bipartite():
    two_side = from_edges(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)])
    evidence = hamiltonian_search(two_side)
    assert evidence.verdict is Verdict.NON_HAMILTONIAN
    assert evidence.cut_set == (0, 1)
    assert cut_witness_check(two_side, evidence.cut_set)


def test_search_cut_witness_dicyclic():
    theta = build_theta(dicyclic(2))
    evidence = hamiltonian_search(theta)
    assert evidence.verdict is Verdict.NON_HAMILTONIAN
    assert evidence.cut_set == (0, 2)
    assert evidence.cut_set == s_indices(dicyclic(2))
    assert cut_witness_check(theta, evidence.cut_set)
    assert "6 components" in evidence.note


def test_search_small_and_degenerate_graphs():
    assert hamiltonian_search(complete(2)).verdict is Verdict.NON_HAMILTONIAN
    path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    evidence = hamiltonian_search(path)
    assert evidence.verdict is Verdict.NON_HAMILTONIAN
    assert "degree below two" in evidence.note
    triangles = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert "disconnected" in hamiltonian_search(triangles).note


def test_search_budget_inconclusive():
    evidence = hamiltonian_search(cycle_graph(6), budget=1)
    assert evidence.verdict is Verdict.INCONCLUSIVE
    assert "budget" in evidence.note


@settings(max_examples=120)
@given(graphs(min_n=3, max_n=7))
def test_search_matches_brute_force(g):
    evidence = hamiltonian_search(g)
    assert evidence.verdict is not Verdict.INCONCLUSIVE
    expected = brute_hamiltonian(g)
    assert (evidence.verdict is Verdict.HAMILTONIAN) == expected
    if evidence.cycle is not None:
        assert_valid_cycle(g, evidence.cycle)
    if evidence.cut_set is not None:
        assert cut_witness_check(g, evidence.cut_set)


@settings(max_examples=200)
@given(blow_ups())
def test_search_on_twin_class_blow_ups(g):
    assert g == from_edges(g.vertex_count, edge_list(g))  # symmetric rows, no loops
    small = g.vertex_count <= 8
    # past 8 vertices brute force is out of reach, so only evidence is checked
    evidence = hamiltonian_search(g) if small else hamiltonian_search(g, budget=5000)
    if small:
        assert evidence.verdict is not Verdict.INCONCLUSIVE
        assert (evidence.verdict is Verdict.HAMILTONIAN) == brute_hamiltonian(g)
    if evidence.cycle is not None:
        assert_valid_cycle(g, evidence.cycle)
    if evidence.cut_set is not None:
        assert cut_witness_check(g, evidence.cut_set)


@settings(max_examples=200)
@given(blow_ups(), st.data())
def test_component_count_on_twin_class_blow_ups(g, data):
    removed = data.draw(st.sets(st.integers(0, g.vertex_count - 1), max_size=g.vertex_count))
    assert component_count(g, removed) == bfs_component_count(g, removed)


# twin-class blow-ups on which the search backtracks: one before its cycle
# (a clique class {2, 9}, independent classes of two and three members), one
# to exhaustion, where every class is a clique, so the two-connections rule
# discounts a vertex's own bit
_BACKTRACKING = blow_up(
    [[1, 4, 10], [0, 7], [11], [8], [3, 5, 6], [2, 9]],
    [5],
    [(0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 5)],
)
_EXHAUSTED = blow_up(
    [[6], [1], [2, 5], [8], [0], [3, 4, 7]],
    range(6),
    [(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (3, 4), (4, 5)],
)


@pytest.mark.parametrize(
    "graph, verdict, budget",
    [(petersen(), Verdict.NON_HAMILTONIAN, 141),
     (build_theta(cyclic(113)), Verdict.HAMILTONIAN, 112),
     (build_theta(dicyclic(15)), Verdict.HAMILTONIAN, 60),
     (build_theta(dicyclic(59)), Verdict.HAMILTONIAN, 236),
     (_BACKTRACKING, Verdict.HAMILTONIAN, 476),
     (_EXHAUSTED, Verdict.NON_HAMILTONIAN, 243)],
    ids=["petersen", "theta-Z113", "theta-Q15", "theta-Q59", "blow-up", "blow-up-exhausted"],
)
def test_search_least_budget(graph, verdict, budget):
    # budget is the search's step count: the least budget that decides it,
    # which pins the order in which it explores
    evidence = hamiltonian_search(graph, budget)
    assert evidence.verdict is verdict
    if evidence.cycle is not None:
        assert_valid_cycle(graph, evidence.cycle)
    assert hamiltonian_search(graph, budget - 1).verdict is Verdict.INCONCLUSIVE


# toughness cuts the search finds at its root, before any step: the clique
# classes {2, 3, 11} and {1, 6, 8}, whose removal isolates the 8 vertices of
# the independent classes; the neighbourhood of the independent class
# {2, 4, 8}; that of the one-vertex clique class {0}, whose class mask holds
# its own bit; and, where the neighbourhoods of {3, 4} (degree 2) and
# {5, 6} (degree 3) are both cuts, the one of lower degree
@pytest.mark.parametrize(
    "graph, cut, pieces",
    [(blow_up([[0, 4, 9, 10], [7, 12, 13], [2, 3, 11], [1, 6, 8], [5]], [2, 3],
              [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]), (1, 2, 3, 6, 8, 11), 8),
     (blow_up([[3], [0], [5], [2, 4, 8], [1, 6, 7]], [0, 1, 4],
              [(0, 4), (1, 4), (2, 3), (2, 4), (3, 4)]), (1, 5, 6, 7), 5),
     (blow_up([[0], [1, 2], [3], [4, 5]], [0, 1, 2], [(0, 3), (1, 3), (2, 3)]), (4, 5), 3),
     (blow_up([[0, 1], [2], [3, 4], [5, 6]], [], [(0, 2), (0, 3), (1, 3)]), (0, 1), 3)],
    ids=["clique-classes", "neighbourhood", "clique-neighbourhood", "least-degree-first"],
)
def test_search_root_cut(graph, cut, pieces):
    evidence = hamiltonian_search(graph, 0)
    assert evidence.verdict is Verdict.NON_HAMILTONIAN
    assert evidence.cut_set == cut
    assert f"{pieces} components" in evidence.note
    assert cut_witness_check(graph, cut)


@settings(max_examples=300)
@given(blow_ups())
def test_search_finds_neighbourhood_cuts_at_the_root(g):
    # twins leave the same count, so one neighbourhood per class covers them all
    n = g.vertex_count
    cuts = [[u for u in range(n) if has_edge(g, v, u)] for v in range(n)]
    if any(bfs_component_count(g, cut) > len(cut) for cut in cuts):
        assert hamiltonian_search(g, 0).verdict is Verdict.NON_HAMILTONIAN


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def test_cut_witness_check():
    theta = build_theta(cyclic(9))
    assert cut_witness_check(theta, s_indices(cyclic(9)))
    assert not cut_witness_check(complete(5), (0, 1))
    with pytest.raises(ValueError):
        cut_witness_check(theta, ())
    with pytest.raises(ValueError):
        cut_witness_check(complete(3), (0, 1, 2))


def test_dirac_check():
    assert dirac_check(3, 4)  # K_4
    assert not dirac_check(2, 6)  # C_6
    assert dirac_check(2, 3)  # C_3
    with pytest.raises(ValueError):
        dirac_check(1, 2)  # K_2


def test_dominating_vertices():
    assert dominating_vertices(build_theta(cyclic(12))) == (0, 4, 6, 8)
    assert dominating_vertices(complete(4)) == (0, 1, 2, 3)
    assert dominating_vertices(cycle_graph(5)) == ()
    for group in (cyclic(30), dihedral(10), dicyclic(6)):
        assert dominating_vertices(build_theta(group)) == s_indices(group)


def test_kl_partition_check():
    g = join(complete(2), empty_graph(2))
    assert kl_partition_check(g, [(0, 1), (2, 3)], 1, 1)
    assert not kl_partition_check(g, [(2, 3), (0, 1)], 1, 1)
    assert kl_partition_check(g, [(0,), (1,), (2, 3)], 1, 2)
    with pytest.raises(ValueError):
        kl_partition_check(g, [(0, 1), (2, 3)], 2, 1)


def test_epo_equivalence_spot_checks():
    for group in (cyclic(6), cyclic(8), dihedral(4), dihedral(7), dicyclic(2)):
        (record,) = run_epo_complete(group.family, group.n, group.n)
        assert record.verdict == "pass"
