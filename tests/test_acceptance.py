"""End-to-end acceptance sweep.

Each test covers one release criterion at full scale: the closed forms must
agree with the independent searches over the stated parameter ranges, inside
the stated time budgets, and the verification reports must be byte
deterministic.  One line per criterion is printed on success.  The criteria
run the claims of verification.CLAIMS over their default ranges, as
`pcg verify CLAIM` does, apart from criterion 5, whose per-group degree
totals over wider ranges no claim runs.
"""

import time

import pytest

from primecoprime import cli
from primecoprime import verification as ver
from primecoprime.groups import Family, GroupSpec, dihedral
from primecoprime.oracles import cut_witness_check
from primecoprime.pcgraph import build_theta, complete
from conftest import assert_valid_cycle

CYCLIC, DIHEDRAL, DICYCLIC = Family.CYCLIC, Family.DIHEDRAL, Family.DICYCLIC


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def run_claim(name):
    """Unsorted records of the claim over its default range."""
    claim = ver.CLAIMS[name]
    return claim.run(*claim.default)


def all_pass(records):
    bad = [r for r in records if r.verdict != "pass"]
    assert not bad, "\n" + ver.summary_table(bad)
    return len(records)


def report(number, detail, timer, budget):
    assert timer.elapsed < budget, (
        f"criterion {number} took {timer.elapsed:.1f}s, budget {budget}s"
    )
    print(f"PASS criterion {number}: {detail} ({timer.elapsed:.1f}s)")


def test_criterion_1_phi_sum_identity():
    with Timer() as t:
        checked = all_pass(run_claim("phi-sum"))
    assert checked == 99999
    report(1, f"totient divisor sums match for 2..100000, {checked} checks", t, 10)


def test_criterion_2_dominating_set():
    with Timer() as t:
        checked = all_pass(run_claim("dominating-set"))
    report(2, f"dominating vertices equal the prime-order set, {checked} groups", t, 30)


def test_criterion_3_epo_iff_complete():
    with Timer() as t:
        checked = all_pass(run_claim("epo-complete"))
        for p in (3, 5, 7, 11):
            assert build_theta(dihedral(p)) == complete(2 * p)
    report(3, f"prime-order groups are exactly the complete graphs, {checked} groups", t, 30)


def test_criterion_4_clique_numbers():
    with Timer() as t:
        checked = sum(all_pass(run_claim(name))
                      for name in ("clique-cyclic", "clique-dihedral", "clique-dicyclic"))
    report(4, f"clique formulas match exact search, {checked} graphs", t, 300)


def test_criterion_5_degree_formulas():
    with Timer() as t:
        checked = all_pass(ver.run_degree(CYCLIC, 1, 1000, per_element=False))
        checked += all_pass(ver.run_degree(DIHEDRAL, 3, 300, per_element=False))
        checked += all_pass(ver.run_degree(DICYCLIC, 2, 150, per_element=False))
    report(5, f"degree formulas match class degrees, {checked} groups", t, 300)


def _revalidate_ham_certificates(records):
    for r in records:
        theta = build_theta(GroupSpec(Family(r.family), r.n))
        kind, _, payload = r.certificate.partition(":")
        vertices = tuple(int(v) for v in payload.split(","))
        if kind == "cycle":
            assert_valid_cycle(theta, vertices)
        else:
            assert kind == "cut"
            assert cut_witness_check(theta, vertices)


def test_criterion_6_hamiltonicity():
    with Timer() as t:
        search = run_claim("ham-cyclic") + run_claim("ham-dicyclic")
        checked = all_pass(search)
        _revalidate_ham_certificates(search)
        checked += all_pass(run_claim("ham-cut-cyclic"))
        checked += all_pass(run_claim("ham-cut-dicyclic"))
        checked += all_pass(run_claim("ham-dihedral"))
    report(6, f"Hamiltonicity characterizations with certificates, {checked} checks", t, 300)


def test_criterion_7_decomposition_catalog():
    with Timer() as t:
        records = run_claim("decomp-all")
        checked = all_pass(records)
        covered = {(r.family, r.n) for r in records}
        wanted = (
            [("cyclic", n) for n in (4, 9, 12, 18, 36, 72, 30, 105)]
            + [("dihedral", n) for n in (6, 9, 15, 12, 18, 36, 30)]
            + [("dicyclic", n) for n in (3, 5, 7, 6, 10, 15, 21, 4, 8, 16, 9, 25, 27)]
        )
        missing = [pair for pair in wanted if pair not in covered]
        assert not missing, f"catalog is missing {missing}"
    report(7, f"H-join decompositions verified between order classes, {checked} entries", t, 120)


def test_criterion_8_join_identities():
    with Timer() as t:
        checked = all_pass(run_claim("dihedral-join"))
        records = run_claim("dicyclic-join")
        assert [r.n for r in records] == list(range(3, 100, 2))
        checked += all_pass(records)
    report(8, f"join identities hold as exact graph equalities, {checked} graphs", t, 60)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "clique-dicyclic", "2..25"),
        ("verify", "decomp-all", "1..240-by-group-order"),
    ],
    ids=lambda argv: argv[1],
)
def test_criterion_9_deterministic_reports(argv, tmp_path, capsys):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    with Timer() as t:
        assert cli.main([*argv, "--report", str(first)]) == 0
        assert cli.main([*argv, "--report", str(second)]) == 0
    capsys.readouterr()
    bytes_first, bytes_second = first.read_bytes(), second.read_bytes()
    assert bytes_first and bytes_first == bytes_second
    report(9, f"{argv[1]} report is byte-identical across runs", t, 60)
