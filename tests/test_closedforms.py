"""Closed forms against the graph itself and against the exact searches."""

import hashlib
from itertools import combinations
from math import gcd

import pytest

from primecoprime.closedforms import (
    DecompositionEntry,
    catalog_partition,
    clique_cyclic,
    clique_number,
    decomposition_catalog,
    is_hamiltonian_cyclic,
    is_hamiltonian_dicyclic,
    is_hamiltonian_dihedral,
    theta_degree,
    theta_degrees,
)
from primecoprime import closedforms
from primecoprime.groups import (
    Family,
    GroupSpec,
    cyclic,
    dicyclic,
    dihedral,
    element_order,
    elements,
    parse_element,
    s_indices,
)
from primecoprime.numtheory import divisors, factorize, is_prime
from primecoprime.oracles import (
    Verdict,
    dirac_check,
    hamiltonian_search,
    kl_partition_check,
    max_clique,
)
from primecoprime.pcgraph import build_theta, verify_hjoin_structure
from primecoprime.verification import run_degree
from conftest import h_join, has_edge, naive_theta


# ---------------------------------------------------------------------------
# clique numbers
# ---------------------------------------------------------------------------

CLIQUE_CYCLIC = {
    2: 2, 3: 3, 4: 3, 5: 5, 6: 5, 8: 3, 9: 4, 12: 6,
    16: 3, 30: 11, 60: 12, 105: 16, 210: 20,
}


@pytest.mark.parametrize("n,expected", sorted(CLIQUE_CYCLIC.items()))
def test_clique_cyclic_frozen(n, expected):
    assert clique_cyclic(n) == expected


def test_clique_dihedral_frozen():
    assert clique_number(dihedral(6)) == 11
    assert clique_number(dihedral(3)) == 6
    assert all(clique_number(dihedral(n)) == n + clique_cyclic(n) for n in range(3, 40))


def test_clique_dicyclic_frozen():
    assert clique_number(dicyclic(2)) == 3
    assert clique_number(dicyclic(3)) == 6
    assert clique_number(dicyclic(4)) == 3
    assert clique_number(dicyclic(5)) == 8


def test_clique_domain_errors():
    with pytest.raises(ValueError):
        clique_cyclic(1)
    with pytest.raises(ValueError):
        clique_number(cyclic(1))


@pytest.mark.parametrize(
    "group,expected",
    [(cyclic(n), clique_cyclic(n)) for n in range(2, 61)]
    + [(dihedral(n), clique_number(dihedral(n))) for n in range(3, 26)]
    + [(dicyclic(n), clique_number(dicyclic(n))) for n in range(2, 16)],
    ids=str,
)
def test_clique_matches_search(group, expected):
    result = max_clique(build_theta(group))
    assert result.size == expected


def test_clique_witness_z12():
    result = max_clique(build_theta(cyclic(12)))
    assert result.size == 6
    assert result.witness == (0, 2, 3, 4, 6, 8)


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------


def test_exponent_profile():
    # g6 in Z_72 = 2^3 3^2 has order 12 = 2^2 3: beta (2, 1), so gamma is
    # (1, 2) and the expansion is 1 + (2^1 - 1) + (3^2 - 1); the exponents
    # of 72 itself, (3, 2), would give 1 + 7 + 8
    g6 = parse_element("g6")
    assert theta_degree(cyclic(72), g6) == 10
    assert len(build_theta(cyclic(72)).adjacency[6]) == 10


def test_degree_frozen_examples():
    assert theta_degree(cyclic(12), parse_element("g1")) == 4
    assert theta_degree(cyclic(12), parse_element("g2")) == 6
    assert theta_degree(dihedral(12), parse_element("r1")) == 16
    assert theta_degree(dihedral(5), parse_element("s0")) == 9
    assert theta_degree(dicyclic(3), parse_element("a1")) == 10
    assert theta_degree(dicyclic(3), parse_element("a0b")) == 6
    assert theta_degree(dicyclic(4), parse_element("a0b")) == 2
    assert theta_degree(dicyclic(4), parse_element("a1")) == 2


def test_composite_degree_counts_adjacent_elements_of_zm():
    # the product form against a count over Z_m, for every d dividing m and
    # for d = 4, which in Q_n with n odd does not divide m = 2n
    for m in range(2, 121):
        fact = factorize(m)
        orders = [m // gcd(m, i) for i in range(m)]
        for d in {*divisors(m), 4}:
            count = sum(1 for e in orders if gcd(e, d) == 1 or is_prime(gcd(e, d)))
            assert closedforms._composite_degree(fact, d) == count, (m, d)


def test_dominating_orders_have_full_degree():
    for label in ("g0", "g6", "g4"):  # orders 1, 2, 3 in Z_12
        assert theta_degree(cyclic(12), parse_element(label)) == 11


def test_dicyclic_outside_degree_odd_n():
    # for odd n an element outside the cyclic part has order 4, which does
    # not divide 2n, so it sees exactly the 2n elements of the cyclic part
    a0b = parse_element("a0b")
    for n in range(3, 600, 2):
        assert theta_degree(dicyclic(n), a0b) == 2 * n


@pytest.mark.parametrize(
    "group",
    [cyclic(n) for n in range(1, 61)]
    + [dihedral(n) for n in range(3, 21)]
    + [dicyclic(n) for n in range(2, 16)],
    ids=str,
)
def test_theta_degree_matches_graph(group):
    theta = build_theta(group)
    for i, x in enumerate(elements(group)):
        assert theta_degree(group, x) == len(theta.adjacency[i]), x.text()
    assert theta_degrees(group) == [theta_degree(group, x) for x in elements(group)]


@pytest.mark.parametrize(
    "group",
    [cyclic(n) for n in range(1, 25)]
    + [dihedral(n) for n in range(3, 13)]
    + [dicyclic(n) for n in range(2, 9)],
    ids=str,
)
def test_theta_degrees_match_naive_graph(group):
    naive = naive_theta(group)
    assert theta_degrees(group) == [len(row) for row in naive.adjacency]


def test_wrong_class_degree_still_fails_per_element(monkeypatch):
    # a wrong degree for one order class reaches every element of the class
    real = closedforms.theta_degree

    def off_by_one_for_order_4(group, x):
        degree = real(group, x)
        return degree + 1 if element_order(group, x) == 4 else degree

    monkeypatch.setattr(closedforms, "theta_degree", off_by_one_for_order_4)
    (summary,) = run_degree(Family.CYCLIC, 12, 12, per_element=False)
    assert summary.verdict == "fail"
    assert summary.certificate == "first mismatch at g3: 7 != 6"
    assert summary.formula == summary.oracle + 2
    failing = [r.param for r in run_degree(Family.CYCLIC, 12, 12) if r.verdict == "fail"]
    assert failing == ["g3", "g9"]


def test_degree_handshake():
    for group in (cyclic(72), dihedral(36), dicyclic(18)):
        theta = build_theta(group)
        total = sum(theta_degree(group, x) for x in elements(group))
        assert total == 2 * theta.edge_count()


# ---------------------------------------------------------------------------
# Hamiltonicity
# ---------------------------------------------------------------------------

HAM_CYCLIC = {
    1: False, 2: False, 3: True, 4: True, 5: True, 6: True, 7: True,
    8: False, 9: False, 10: True, 12: False, 14: True, 15: False,
    22: True, 25: False, 49: False, 2 * 31: True,
}


@pytest.mark.parametrize("n,expected", sorted(HAM_CYCLIC.items()))
def test_hamiltonian_cyclic_frozen(n, expected):
    assert is_hamiltonian_cyclic(n) is expected


def test_hamiltonian_dihedral_and_dicyclic():
    assert all(is_hamiltonian_dihedral(n) for n in range(3, 50))
    assert [n for n in range(2, 20) if is_hamiltonian_dicyclic(n)] == [
        3, 5, 7, 9, 11, 13, 15, 17, 19
    ]


def test_hamiltonian_domain_errors():
    with pytest.raises(ValueError):
        is_hamiltonian_cyclic(0)
    with pytest.raises(ValueError):
        is_hamiltonian_dihedral(2)
    with pytest.raises(ValueError):
        is_hamiltonian_dicyclic(1)


@pytest.mark.parametrize("n", range(3, 21))
def test_hamiltonian_cyclic_matches_search(n):
    evidence = hamiltonian_search(build_theta(cyclic(n)))
    assert evidence.verdict is not Verdict.INCONCLUSIVE
    assert (evidence.verdict is Verdict.HAMILTONIAN) == is_hamiltonian_cyclic(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_hamiltonian_dicyclic_matches_search(n):
    evidence = hamiltonian_search(build_theta(dicyclic(n)))
    assert evidence.verdict is not Verdict.INCONCLUSIVE
    assert (evidence.verdict is Verdict.HAMILTONIAN) == is_hamiltonian_dicyclic(n)


def test_dihedral_degree_bound_applies():
    for n in range(3, 30):
        theta = build_theta(dihedral(n))
        assert dirac_check(theta.min_degree(), theta.vertex_count)


# ---------------------------------------------------------------------------
# decomposition catalog
# ---------------------------------------------------------------------------

CATALOG_CASES = [
    (Family.CYCLIC, 5, "p", "K5", (0, 1)),
    (Family.CYCLIC, 4, "p^m", "K2,E2", (1, 1)),
    (Family.CYCLIC, 9, "p^m", "K3,E6", (1, 1)),
    (Family.CYCLIC, 15, "pq", "K7,E8", (1, 1)),
    (Family.CYCLIC, 12, "pq^m", "K4,E2,E2,E4", (3, 1)),
    (Family.CYCLIC, 18, "pq^m", "K4,E6,E2,E6", (3, 1)),
    (Family.CYCLIC, 36, "p^lq^m", "K4,E2,E6,E2,E4,E6,E12", (6, 1)),
    (Family.CYCLIC, 72, "p^lq^m", "K4,E6,E6,E2,E12,E6,E36", (6, 1)),
    (Family.CYCLIC, 30, "pqr", "K8,E2,E8,E4,E8", (4, 1)),
    (Family.CYCLIC, 105, "pqr", "K13,E8,E24,E12,E48", (4, 1)),
    (Family.DIHEDRAL, 6, "pq", "K10,E2", (1, 1)),
    (Family.DIHEDRAL, 9, "p^m", "K12,E6", (1, 1)),
    (Family.DIHEDRAL, 15, "pq", "K22,E8", (1, 1)),
    (Family.DIHEDRAL, 12, "pq^m", "K16,E2,E2,E4", (3, 1)),
    (Family.DIHEDRAL, 18, "pq^m", "K22,E6,E2,E6", (3, 1)),
    (Family.DIHEDRAL, 36, "p^lq^m", "K40,E2,E6,E2,E4,E6,E12", (6, 1)),
    (Family.DIHEDRAL, 30, "pqr", "K38,E2,E8,E4,E8", (4, 1)),
    (Family.DICYCLIC, 3, "p", "K4,E2,E6", (2, 1)),
    (Family.DICYCLIC, 5, "p", "K6,E4,E10", (2, 1)),
    (Family.DICYCLIC, 7, "p", "K8,E6,E14", (2, 1)),
    (Family.DICYCLIC, 6, "2p", "K4,E2,E4,E14", (3, 1)),
    (Family.DICYCLIC, 10, "2p", "K6,E4,E8,E22", (3, 1)),
    (Family.DICYCLIC, 15, "pq", "K8,E2,E4,E8,E8,E30", (5, 1)),
    (Family.DICYCLIC, 21, "pq", "K10,E2,E6,E12,E12,E42", (5, 1)),
    (Family.DICYCLIC, 2, "2^m", "K2,E6", (1, 1)),
    (Family.DICYCLIC, 4, "2^m", "K2,E14", (1, 1)),
    (Family.DICYCLIC, 8, "2^m", "K2,E30", (1, 1)),
    (Family.DICYCLIC, 16, "2^m", "K2,E62", (1, 1)),
    (Family.DICYCLIC, 9, "p^m", "K4,E2,E6,E6,E18", (4, 1)),
    (Family.DICYCLIC, 25, "p^m", "K6,E4,E20,E20,E50", (4, 1)),
    (Family.DICYCLIC, 27, "p^m", "K4,E2,E24,E24,E54", (4, 1)),
]


@pytest.mark.parametrize(
    "family,n,pattern,parts,kl",
    CATALOG_CASES,
    ids=[f"{f.value}-{n}" for f, n, *_ in CATALOG_CASES],
)
def test_catalog_entry(family, n, pattern, parts, kl):
    entry = decomposition_catalog(family, n)
    assert isinstance(entry, DecompositionEntry)
    assert entry.pattern == pattern
    assert entry.describe() == parts
    assert entry.kl == kl
    assert sum(entry.sizes) == GroupSpec(family, n).order


@pytest.mark.parametrize(
    "family,n,pattern,parts,kl",
    CATALOG_CASES,
    ids=[f"{f.value}-{n}" for f, n, *_ in CATALOG_CASES],
)
def test_catalog_entry_matches_graph(family, n, pattern, parts, kl):
    entry = decomposition_catalog(family, n)
    group = GroupSpec(family, n)
    partition = catalog_partition(entry)
    assert partition[0] == s_indices(group)
    assert verify_hjoin_structure(group, partition, entry.pattern_edges).ok
    k, l = entry.kl
    assert kl_partition_check(build_theta(group), partition, k, l)


def covered_groups(max_order):
    """(group, catalog entry) for every covered group of order <= max_order,
    family by family in Family order, n ascending."""
    return [
        (GroupSpec(family, n), entry)
        for family in Family
        for n in range(family.min_n, max_order // family.order_factor + 1)
        if (entry := decomposition_catalog(family, n)) is not None
    ]


def test_class_check_agrees_with_the_expanded_h_join():
    # the catalog partition expands to the brute-force graph, and toggling
    # any one part pair of the pattern fails with a witness whose adjacency
    # in that graph contradicts the toggled pattern
    for group, entry in covered_groups(120):
        theta = naive_theta(group)
        partition = catalog_partition(entry)
        edges = set(entry.pattern_edges)
        assert h_join(partition, edges) == theta, group
        assert verify_hjoin_structure(group, partition, edges).ok, group
        part_of = {v: i for i, part in enumerate(partition) for v in part}
        for pair in combinations(range(len(partition)), 2):
            toggled = edges ^ {pair}
            result = verify_hjoin_structure(group, partition, toggled)
            assert not result.ok and result.parts == pair, (group, pair)
            u, v = result.vertex_pair
            i, j = sorted((part_of[u], part_of[v]))
            claimed = i == 0 if i == j else (i, j) in toggled
            assert has_edge(theta, u, v) != claimed, (group, pair)


# sha256 over one "family n partition" line per covered group of order
# <= 600, as catalog_partition gave them before the part tables replaced the
# per-family branch functions
PARTITIONS_SHA256 = "c033a132bcfbdc8248dd6169c8f05c13cf42435985ec1f68741917a9f1e95509"


def test_catalog_partitions_are_pinned():
    digest = hashlib.sha256()
    for group, entry in covered_groups(600):
        line = f"{group.family.value} {group.n} {catalog_partition(entry)}\n"
        digest.update(line.encode())
    assert digest.hexdigest() == PARTITIONS_SHA256


# sha256 over one line per group of order <= 20000, family by family in
# Family order, n ascending: the entry's fields for a covered group, "-" for
# an uncovered one; as the per-shape matchers gave them before the capped
# signature tables replaced them (22994 covered groups)
ENTRIES_SHA256 = "6f203d281f9d4852bd91d23c95657c8f7ea2c4740f6aa1b3bc39dc76f8d25328"


def test_catalog_entries_are_pinned():
    digest = hashlib.sha256()
    for family in Family:
        for n in range(family.min_n, 20000 // family.order_factor + 1):
            e = decomposition_catalog(family, n)
            if e is None:
                line = f"{family.value} {n} -\n"
            else:
                line = (f"{family.value} {n} {e.pattern} {e.primes} {e.exponents} "
                        f"{e.sizes} {e.pattern_edges}\n")
            digest.update(line.encode())
    assert digest.hexdigest() == ENTRIES_SHA256


@pytest.mark.parametrize(
    "family,n",
    [
        (Family.CYCLIC, 1),
        (Family.CYCLIC, 60),
        (Family.CYCLIC, 180),
        (Family.DIHEDRAL, 60),
        (Family.DICYCLIC, 12),
        (Family.DICYCLIC, 18),
        (Family.DICYCLIC, 45),
        (Family.DICYCLIC, 30),
    ],
)
def test_catalog_not_covered(family, n):
    assert decomposition_catalog(family, n) is None


def test_catalog_prime_roles():
    assert decomposition_catalog(Family.CYCLIC, 12).primes == (3, 2)
    assert decomposition_catalog(Family.CYCLIC, 18).primes == (2, 3)
    assert decomposition_catalog(Family.CYCLIC, 36).primes == (2, 3)
    assert decomposition_catalog(Family.DICYCLIC, 6).primes == (2, 3)
    entry = decomposition_catalog(Family.CYCLIC, 12)
    assert entry.exponents == (1, 2)


def test_catalog_rejects_bad_parameters():
    with pytest.raises(ValueError):
        decomposition_catalog(Family.DIHEDRAL, 2)
    with pytest.raises(ValueError):
        decomposition_catalog(Family.DICYCLIC, 1)
