"""Graph layer: constructors, H-joins, theta construction, exports."""

import json
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from primecoprime import pcgraph
from primecoprime import verification as ver
from primecoprime.groups import Family, GroupSpec, cyclic, dicyclic, dihedral, s_indices
from primecoprime.oracles import dominating_vertices
from primecoprime.pcgraph import (
    CapacityError,
    HJoinCheck,
    SimpleGraph,
    build_theta,
    complete,
    component_count,
    dot_chunks,
    empty_graph,
    graph_to_dot,
    graph_to_json,
    join,
    json_chunks,
    validate_partition,
    verify_hjoin_structure,
)
from conftest import (
    bfs_component_count,
    blow_ups,
    cycle_graph,
    edge_list,
    from_edges,
    h_join,
    has_edge,
    is_complete,
    naive_theta,
    reference_graph_to_dot,
    reference_graph_to_json,
)


def test_from_edges_validation():
    g = from_edges(3, [(0, 1), (1, 2), (0, 1)])  # duplicates collapse
    assert g.edge_count() == 2
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])


def test_complete_and_empty():
    assert complete(5).edge_count() == 10
    assert is_complete(complete(5))
    assert empty_graph(4).edge_count() == 0
    assert not is_complete(cycle_graph(4))
    assert is_complete(complete(0)) and is_complete(complete(1))


def test_join_structure():
    g = join(complete(2), empty_graph(2))
    assert g.vertex_count == 4
    assert g.edge_count() == 1 + 4
    assert has_edge(g, 0, 1) and not has_edge(g, 2, 3)
    assert all(has_edge(g, u, v) for u in (0, 1) for v in (2, 3))


@given(st.integers(0, 6), st.integers(0, 6))
def test_join_edge_count(na, nb):
    a, b = cycle_graph(na) if na >= 3 else empty_graph(na), complete(nb)
    g = join(a, b)
    assert g.edge_count() == a.edge_count() + b.edge_count() + na * nb
    assert len(edge_list(g)) == g.edge_count()


def test_h_join_matches_plain_join():
    assert h_join([(0, 1), (2, 3)], [(0, 1)]) == join(complete(2), empty_graph(2))


def test_h_join_edge_count_formula():
    g = h_join([(0, 1, 2), (3, 4, 5, 6), (7, 8)], [(0, 1), (1, 2)])
    internal = 3 + 0 + 0
    cross = 3 * 4 + 4 * 2
    assert g.edge_count() == internal + cross
    # no edges between the non-adjacent outer parts
    assert not any(has_edge(g, u, v) for u in range(3) for v in (7, 8))


@pytest.mark.parametrize(
    "group",
    [cyclic(n) for n in range(1, 25)]
    + [dihedral(n) for n in range(3, 13)]
    + [dicyclic(n) for n in range(2, 11)],
    ids=str,
)
def test_build_theta_matches_naive(group):
    assert build_theta(group) == naive_theta(group)


def test_build_theta_labels_and_cap():
    g = build_theta(cyclic(4))
    assert g.labels == ("g0", "g1", "g2", "g3")
    assert build_theta(cyclic(1)) == complete(1)
    with pytest.raises(CapacityError):
        build_theta(cyclic(100), vertex_cap=99)


def test_build_theta_reads_labels_on_first_use(monkeypatch):
    # a claim that never exports never builds the labels
    calls = []
    monkeypatch.setattr(pcgraph, "element_labels", lambda group: calls.append(group) or ["x"])
    g = build_theta(cyclic(1))
    assert calls == [] and g.edge_count() == 0
    assert g.labels == ("x",) and g.labels == ("x",) and calls == [cyclic(1)]


def test_theta_z4_as_h_join():
    z4 = cyclic(4)
    # orders (1, 2) sit at g0 and g2; orders 4 at g1 and g3
    assert verify_hjoin_structure(z4, [(0, 2), (1, 3)], [(0, 1)]).ok


def test_verify_hjoin_witnesses():
    z4 = cyclic(4)
    # wrong split: part {g0, g1} is complete but {g2, g3} is not independent
    res = verify_hjoin_structure(z4, [(0, 1), (2, 3)], [(0, 1)])
    assert not res.ok and res.clause == "part-empty" and res.vertex_pair == (2, 3)
    # claiming no cross edges must fail immediately
    res = verify_hjoin_structure(z4, [(0, 2), (1, 3)], [])
    assert not res.ok and res.clause == "cross-extra"
    # putting an independent part first claims it is the clique
    res = verify_hjoin_structure(z4, [(1, 3), (0, 2)], [(0, 1)])
    assert not res.ok and res.clause == "part-complete" and res.parts == (0,)
    # claiming the two order-4 elements are joined: gcd(4, 4) = 4 is composite
    res = verify_hjoin_structure(z4, [(0, 2), (1,), (3,)], [(0, 1), (0, 2), (1, 2)])
    assert not res.ok and res.clause == "cross-missing" and res.vertex_pair == (1, 3)
    for edges in ([(0, 2)], [(1, 0)]):  # no part 2; an edge written backwards
        with pytest.raises(ValueError):
            verify_hjoin_structure(z4, [(0, 2), (1, 3)], edges)


def test_validate_partition():
    assert validate_partition([(2, 0), (1,)], 3) == ((0, 2), (1,))
    with pytest.raises(ValueError):
        validate_partition([(0,), (0, 1)], 2)  # overlap
    with pytest.raises(ValueError):
        validate_partition([(0,)], 2)  # does not cover
    with pytest.raises(ValueError):
        validate_partition([(0,), ()], 1)  # empty part


def test_induced_subgraph_composite_orders_z12():
    # orders 4 and 6 have gcd 2, so the composite-order elements of Z_12 are
    # not an independent set: they induce a 4-cycle (orders 4 vs 6) plus the
    # four isolated order-12 elements
    g = build_theta(cyclic(12))
    s = s_indices(cyclic(12))
    assert s == (0, 4, 6, 8)  # orders 1, 3, 2, 3
    assert component_count(g, removed=s) == 5
    for bad in ([99], [-1]):
        with pytest.raises(ValueError):
            component_count(g, removed=bad)


def test_delete_vertices_z9():
    # Z_9 without its order-1 and order-3 elements: six isolated order-9 elements
    g = build_theta(cyclic(9))
    assert component_count(g, removed=s_indices(cyclic(9))) == 6


def test_component_count():
    assert component_count(empty_graph(5)) == 5
    assert component_count(complete(4)) == 1
    assert component_count(empty_graph(0)) == 0
    two = from_edges(5, [(0, 1), (2, 3)])
    assert component_count(two) == 3
    assert component_count(two, removed=(1, 2)) == 3
    assert component_count(two, removed=range(5)) == 0
    assert component_count(cycle_graph(6), removed=(0, 3)) == 2


def test_theta_degrees_of_dominating_elements():
    for group in (cyclic(20), dihedral(9), dicyclic(6)):
        g = build_theta(group)
        for v in s_indices(group):
            assert g.rows[v].bit_count() == group.order - 1


# class degrees, read off the links, are the cheaper oracle of the degree,
# dominating-set and completeness claims, so they are held to the expanded
# rows over these ranges
CLASS_DEGREE_GROUPS = (
    [cyclic(n) for n in range(1, 401)]
    + [dihedral(n) for n in range(3, 201)]
    + [dicyclic(n) for n in range(2, 101)]
)


def _class_degree_list(graph):
    degrees = [0] * graph.vertex_count
    for members, degree in graph.twin_degrees():
        for v in members:
            degrees[v] = degree
    return degrees


def test_class_degrees_match_expanded_graph():
    for group in CLASS_DEGREE_GROUPS:
        theta = build_theta(group)
        assert _class_degree_list(theta) == [row.bit_count() for row in theta.rows], group


def test_class_degrees_match_naive_graph():
    for family in Family:
        for n in range(family.min_n, 200 // family.order_factor + 1):
            group = GroupSpec(family, n)
            naive = naive_theta(group)
            expected = [row.bit_count() for row in naive.rows]
            assert _class_degree_list(build_theta(group)) == expected, group


def test_class_level_verdicts_match_expanded_graph():
    # the dominating-set and epo-complete records, read off class degrees,
    # against the dominating vertices and completeness of the built graph
    for group in CLASS_DEGREE_GROUPS:
        theta = build_theta(group)
        dominating = dominating_vertices(theta)
        n = group.n
        [dom] = ver.run_dominating_set(group.family, n, n)
        assert dom.oracle == len(dominating), group
        assert dom.verdict == ("pass" if s_indices(group) == dominating else "fail"), group
        [epo] = ver.run_epo_complete(group.family, n, n)
        assert epo.oracle == is_complete(theta), group


def test_dihedral_join_identity():
    for n in (3, 4, 12, 30):
        left = build_theta(dihedral(n))
        right = join(build_theta(cyclic(n)), complete(n))
        assert left == right


def test_dicyclic_join_identity_odd():
    for n in (3, 5, 9, 15):
        left = build_theta(dicyclic(n))
        right = join(build_theta(cyclic(2 * n)), empty_graph(2 * n))
        assert left == right
    assert build_theta(dicyclic(4)) != join(
        build_theta(cyclic(8)), empty_graph(8)
    )


def test_dot_export_golden():
    assert graph_to_dot(build_theta(cyclic(4))) == (
        "graph theta {\n"
        '  "g0";\n'
        '  "g1";\n'
        '  "g2";\n'
        '  "g3";\n'
        '  "g0" -- "g1";\n'
        '  "g0" -- "g2";\n'
        '  "g0" -- "g3";\n'
        '  "g1" -- "g2";\n'
        '  "g2" -- "g3";\n'
        "}\n"
    )


def test_json_export():
    text = graph_to_json(build_theta(dicyclic(2)), "dicyclic", 2)
    payload = json.loads(text)
    assert list(payload) == ["family", "parameter", "vertex_labels", "edges"]
    assert payload["parameter"] == 2
    assert payload["vertex_labels"][4] == "a0b"
    edges = [tuple(e) for e in payload["edges"]]
    assert edges == sorted(edges)
    assert all(u < v for u, v in edges)
    # byte determinism
    assert text == graph_to_json(build_theta(dicyclic(2)), "dicyclic", 2)


def assert_exports_match_reference(graph, family="cyclic", parameter=0):
    dot = graph_to_dot(graph)
    assert dot == reference_graph_to_dot(graph)
    assert "".join(dot_chunks(graph)) == dot
    text = graph_to_json(graph, family, parameter)
    assert text == reference_graph_to_json(graph, family, parameter)
    assert "".join(json_chunks(graph, family, parameter)) == text


@pytest.mark.parametrize(
    "graph",
    [empty_graph(0), empty_graph(1), empty_graph(5), complete(6), cycle_graph(7),
     from_edges(4, [(3, 0), (1, 2)])],
    ids=["no-vertex", "one-vertex", "edgeless", "complete", "cycle", "unsorted-edges"],
)
def test_exports_match_reference_unlabelled(graph):
    assert graph.labels is None  # names are v0, v1, ...
    assert_exports_match_reference(graph)


@pytest.mark.parametrize(
    "group",
    [cyclic(n) for n in range(1, 61)]
    + [dihedral(n) for n in range(3, 31)]
    + [dicyclic(n) for n in range(2, 16)],
    ids=str,
)
def test_theta_exports_match_reference(group):
    assert_exports_match_reference(build_theta(group), group.family.value, group.n)


@st.composite
def labelled_graphs(draw):
    m = draw(st.integers(0, 12))
    pairs = st.tuples(st.integers(0, max(m - 1, 0)), st.integers(0, max(m - 1, 0)))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=40)) if u != v]
    graph = from_edges(m, edges)
    labels = draw(st.none() | st.lists(st.text(max_size=4), min_size=m, max_size=m))
    return graph if labels is None else SimpleGraph(graph.classes, lambda: labels)


@given(labelled_graphs(), st.text(max_size=6), st.integers(-5, 10**6))
def test_exports_match_reference_on_random_graphs(graph, family, parameter):
    # text labels and family names carry quotes, escapes and non-ASCII
    assert_exports_match_reference(graph, family, parameter)


# class-built graphs with their edges listed independently: complete and
# empty blocks, one-class-per-vertex graphs, theta (edges from naive_theta),
# and joins of these, which merge and shift the class bases
_blocks = st.one_of(
    st.integers(0, 6).map(lambda m: (complete(m), m, list(combinations(range(m), 2)))),
    st.integers(0, 6).map(lambda m: (empty_graph(m), m, [])),
    labelled_graphs().map(lambda g: (g, g.vertex_count, edge_list(g))),
    st.sampled_from([cyclic(n) for n in range(1, 25)] + [dihedral(n) for n in range(3, 7)]
                    + [dicyclic(n) for n in range(2, 6)]).map(
        lambda group: (build_theta(group), group.order, edge_list(naive_theta(group)))),
)


def _joined(pair):
    (a, na, ea), (b, nb, eb) = pair
    cross = [(u, na + v) for u in range(na) for v in range(nb)]
    return join(a, b), na + nb, ea + [(u + na, v + na) for u, v in eb] + cross


class_built_graphs = st.recursive(
    _blocks, lambda inner: st.tuples(inner, inner).map(_joined), max_leaves=4
)


@settings(max_examples=150)
@given(class_built_graphs)
def test_class_built_graphs_match_their_edge_expansions(built):
    graph, m, edges = built
    assert graph == from_edges(m, edges)
    assert_exports_match_reference(graph)


# graphs built from links alone: twin-class blow-ups, one class per vertex,
# complete and empty blocks (a block of no vertex keeps one empty class), and
# joins of these
_link_built_graphs = st.recursive(
    st.one_of(blow_ups(), labelled_graphs(), st.integers(0, 4).map(complete),
              st.integers(0, 4).map(empty_graph)),
    lambda inner: st.tuples(inner, inner).map(lambda pair: join(*pair)), max_leaves=4)


@settings(max_examples=150)
@given(_link_built_graphs)
def test_degrees_read_off_links_match_row_bit_counts(graph):
    # twin_degrees, min_degree and edge_count never build a mask; they must
    # agree with the rows that class_table builds from the same links
    degrees = [row.bit_count() for row in graph.rows]
    assert _class_degree_list(graph) == degrees
    assert graph.edge_count() * 2 == sum(degrees)
    if degrees:
        assert graph.min_degree() == min(degrees)


@settings(max_examples=150)
@given(class_built_graphs, st.data())
def test_component_count_matches_edge_list_bfs(built, data):
    graph = built[0]
    vertices = st.integers(0, graph.vertex_count - 1) if graph.vertex_count else st.nothing()
    removed = data.draw(st.sets(vertices, max_size=graph.vertex_count))
    assert component_count(graph, removed) == bfs_component_count(graph, removed)


def test_graph_equality_ignores_labels():
    assert build_theta(cyclic(3)) == complete(3)
    assert from_edges(2, [(0, 1)]) != empty_graph(2)


def test_hjoin_check_is_truthy():
    assert HJoinCheck(True)
    assert not HJoinCheck(False, "part-empty", (0,), (1, 2))
