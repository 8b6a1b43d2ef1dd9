"""Command line behavior: output formats, exit codes, report determinism."""

import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import primecoprime
from primecoprime import cli, closedforms, pcgraph
from primecoprime import verification as ver
from primecoprime.groups import Family

Z4_DOT = (
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


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def test_theta_dot_stdout(capsys):
    code, out, err = run(capsys, "theta", "cyclic", "4")
    assert code == 0 and err == ""
    assert out == Z4_DOT


def test_theta_json_stdout(capsys):
    code, out, err = run(capsys, "theta", "dicyclic", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "dicyclic"
    assert payload["parameter"] == 2
    assert len(payload["vertex_labels"]) == 8
    assert len(payload["edges"]) == 13


def test_theta_output_file(tmp_path, capsys):
    target = tmp_path / "z4.dot"
    code, out, err = run(capsys, "theta", "cyclic", "4", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == Z4_DOT


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = str(tmp_path / "missing" / "out")
    for argv in (("theta", "cyclic", "3", "-o", target),
                 ("verify", "phi-sum", "2..5", "--report", target)):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:") and "Traceback" not in err, argv


def test_theta_opens_the_output_before_the_build(tmp_path, capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("the graph was built before the output was opened")

    monkeypatch.setattr(cli, "build_theta", build)
    missing = tmp_path / "missing" / "x.dot"
    code, out, err = run(capsys, "theta", "cyclic", "12", "-o", str(missing))
    assert code == 2 and err.startswith("error:")


def test_theta_failed_file_write_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # only a closed stdout is forgiven; a broken -o target stays an error
    def chunks(*args):
        yield "{"
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "json_chunks", chunks)
    target = tmp_path / "x.json"
    code, out, err = run(capsys, "theta", "cyclic", "12", "--format", "json", "-o", str(target))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_theta_stops_quietly_when_stdout_closes(fmt):
    # `pcg theta cyclic 401 | head -c 100`: the text is far larger than a pipe
    # buffer, so the export is still writing when the reader leaves
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    argv = [sys.executable, "-m", "primecoprime", "theta", "cyclic", "401", "--format", fmt]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert len(head) == 100
    assert (code, err) == (0, "")


# sha256 of large exports: the cyclic ones pinned when the export still went
# through one json.dumps over per-edge lists; the D_1000 and Q_500 ones also
# pin the coset labels s<i> and a<i>b, which the reference test reads back
# from the graph itself; CI checks the p = 4001 pair under a memory limit
_PIN_LINES = Path(__file__).with_name("export.sha256").read_text().splitlines()
EXPORT_PINS = {name: digest for digest, name in map(str.split, _PIN_LINES)}


@pytest.mark.parametrize("name", ["theta-cyclic-2003.json", "theta-cyclic-2003.dot",
                                  "theta-dihedral-1000.json", "theta-dicyclic-500.dot"])
def test_large_export_matches_its_pin(name, tmp_path, capsys):
    _, family, rest = name.split("-")
    n, fmt = rest.split(".")
    target = tmp_path / name
    code, out, err = run(capsys, "theta", family, n, "--format", fmt, "-o", str(target))
    assert (code, out, err) == (0, "", "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == EXPORT_PINS[name]


def test_theta_capacity_exit(capsys):
    code, out, err = run(capsys, "theta", "cyclic", "50", "--vertex-cap", "10")
    assert code == 3
    assert err.startswith("error:")


def test_out_of_memory_is_a_capacity_exit(capsys, monkeypatch):
    def build(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_theta", build)
    code, out, err = run(capsys, "theta", "cyclic", "12")
    assert (code, out, err) == (3, "", "error: out of memory\n")


def test_failed_theta_leaves_no_output_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "x.dot"
    code, out, err = run(capsys, "theta", "cyclic", "5", "--vertex-cap", "3", "-o", str(target))
    assert (code, out) == (3, "") and err.startswith("error:")
    assert not target.exists()

    def build(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_theta", build)
    code, out, err = run(capsys, "theta", "cyclic", "12", "-o", str(target))
    assert (code, out, err) == (3, "", "error: out of memory\n")
    assert not target.exists()


@pytest.mark.parametrize(
    "argv,code",
    [
        (("verify", "clique-cyclic", "12..12", "--vertex-cap", "5"), 3),
        (("verify", "ham-cut-cyclic", "3..7"), 2),
    ],
    ids=["capacity", "checks-nothing"],
)
def test_failed_verify_leaves_no_report(argv, code, tmp_path, capsys):
    report = tmp_path / "r.jsonl"
    got, out, err = run(capsys, *argv, "--report", str(report))
    assert (got, out) == (code, "") and err.startswith("error:")
    assert not report.exists()


def test_failed_theta_keeps_a_symlinked_output(tmp_path, capsys):
    # only a regular file is removed: a link (say /dev/stdout) stays in place
    link = tmp_path / "link.dot"
    link.symlink_to(tmp_path / "target.dot")
    code, out, err = run(capsys, "theta", "cyclic", "5", "--vertex-cap", "3", "-o", str(link))
    assert code == 3
    assert link.is_symlink() and (tmp_path / "target.dot").exists()


def test_decomp_capacity_exit(capsys):
    # the class-level check builds no graph, but still honours the cap
    code, out, err = run(capsys, "verify", "decomp-cyclic", "12..12", "--vertex-cap", "5")
    assert (code, out) == (3, "")
    assert err == "error: cyclic(n=12) has 12 elements, above the cap of 5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "dominating-set", "12..12-by-group-order"),
        ("verify", "epo-complete", "12..12-by-group-order"),
        ("verify", "degree-cyclic", "12..12"),
    ],
    ids=["dominating-set", "epo-complete", "degree-cyclic"],
)
def test_degree_claims_capacity_exit(argv, capsys):
    # class degrees need no graph either, and the cap still applies
    code, out, err = run(capsys, *argv, "--vertex-cap", "5")
    assert (code, out) == (3, "")
    assert err == "error: cyclic(n=12) has 12 elements, above the cap of 5\n"


def test_ham_dihedral_capacity_exit(capsys):
    # the Dirac bound reads class degrees, under the same cap
    code, out, err = run(capsys, "verify", "ham-dihedral", "3..3", "--vertex-cap", "5")
    assert (code, out) == (3, "")
    assert err == "error: dihedral(n=3) has 6 elements, above the cap of 5\n"


_HUGE = "99999999999999999999999"


@pytest.mark.parametrize(
    "span,claim",
    [(f"1..{_HUGE}", "degree-cyclic"), (f"1..{_HUGE}-by-group-order", "decomp-all")],
    ids=["degree-cyclic", "decomp-all-by-group-order"],
)
def test_huge_range_stops_at_the_cap(span, claim, capsys):
    # a sweep walks its range lazily, so a span far past the cap neither
    # overflows nor stalls: the first group above the cap ends it
    code, out, err = run(capsys, "verify", claim, span, "--vertex-cap", "1")
    assert (code, out) == (3, "")
    assert err == "error: cyclic(n=2) has 2 elements, above the cap of 1\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_family_values_match_the_listed_definition(family):
    # the range a sweep walks holds exactly the n in range whose parameter
    # (or group order, by_order) lies in lo..hi
    for lo in range(70):
        for hi in range(lo, 70):
            assert list(ver._family_values(family, lo, hi, False)) == [
                n for n in range(family.min_n, hi + 1) if lo <= n
            ], (lo, hi)
            assert list(ver._family_values(family, lo, hi, True)) == [
                n for n in range(family.min_n, hi + 1) if lo <= family.order_factor * n <= hi
            ], (lo, hi)


def _refuse_expansion(*args, **kwargs):
    raise AssertionError("the claim expanded the graph")


def test_decomp_never_expands_the_graph(monkeypatch):
    monkeypatch.setattr(ver, "build_theta", _refuse_expansion)
    monkeypatch.setattr(pcgraph.SimpleGraph, "neighbor_sets", _refuse_expansion)
    records = ver.CLAIMS["decomp-all"].run(1, 120, by_order=True)
    assert records and all(r.verdict == "pass" for r in records)


@pytest.mark.parametrize(
    "name",
    ["degree-cyclic", "degree-dihedral", "degree-dicyclic", "dominating-set", "epo-complete",
     "ham-dihedral"],
)
def test_degree_claims_never_expand_the_graph(name, monkeypatch):
    monkeypatch.setattr(ver, "build_theta", _refuse_expansion)
    claim = ver.CLAIMS[name]
    lo, hi, by_order = claim.default
    records = claim.run(lo, hi, by_order)
    assert records and all(r.verdict == "pass" for r in records)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "clique-cyclic", "5..6", "--clique-budget", "-1"),
        ("verify", "ham-cyclic", "5..6", "--ham-budget", "-1"),
        ("verify", "clique-cyclic", "5..6", "--vertex-cap", "-1"),
        ("theta", "cyclic", "5", "--vertex-cap", "-1"),
    ],
    ids=["verify-clique-budget", "verify-ham-budget", "verify-vertex-cap", "theta-vertex-cap"],
)
def test_negative_budget_or_cap_is_a_usage_error(argv, capsys):
    # a negative budget or cap is a mistyped option, not an exhausted budget
    # (exit 4) or a graph over the cap (exit 3)
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    assert info.value.code == 2
    assert "must be >= 0, got -1" in capsys.readouterr().err


def test_theta_usage_exit(capsys):
    code, out, err = run(capsys, "theta", "cyclic", "0")
    assert code == 2
    assert "error:" in err


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def test_query_clique(capsys):
    assert run(capsys, "query", "clique", "dihedral", "6") == (0, "11\n", "")
    assert run(capsys, "query", "clique", "dicyclic", "3") == (0, "6\n", "")
    code, out, err = run(capsys, "query", "clique", "cyclic", "1")
    assert (code, out) == (2, "") and "error:" in err  # the clique form starts at Z_2


def test_query_degree(capsys):
    assert run(capsys, "query", "degree", "dicyclic", "3", "a1") == (0, "10\n", "")
    assert run(capsys, "query", "degree", "cyclic", "12", "g0") == (0, "11\n", "")
    code, out, err = run(capsys, "query", "degree", "cyclic", "12")
    assert code == 2 and "element" in err


def test_query_hamiltonian(capsys):
    assert run(capsys, "query", "hamiltonian", "cyclic", "9")[1] == "false\n"
    assert run(capsys, "query", "hamiltonian", "cyclic", "10")[1] == "true\n"
    assert run(capsys, "query", "hamiltonian", "dicyclic", "4")[1] == "false\n"


@pytest.mark.parametrize("argv", [
    ("clique", "cyclic", "12", "g1"),
    ("hamiltonian", "dihedral", "5", "zz"),
    ("decompose", "dicyclic", "3", "a1"),
], ids=lambda argv: argv[0])
def test_query_without_element_refuses_one(argv, capsys):
    # only degree queries read an element; any other query would ignore it
    code, out, err = run(capsys, "query", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} queries take no element label\n"


def test_query_decompose(capsys):
    code, out, err = run(capsys, "query", "decompose", "cyclic", "12")
    assert code == 0
    assert out.splitlines() == [
        "pattern: pq^m",
        "primes: 3,2",
        "exponents: 1,2",
        "parts: K4,E2,E2,E4",
        "pattern-edges: 0-1 0-2 0-3 1-2",
        "kl: 3,1",
    ]


def test_query_decompose_single_part(capsys):
    code, out, err = run(capsys, "query", "decompose", "cyclic", "5")
    assert code == 0
    assert "parts: K5" in out
    assert "pattern-edges: none" in out


# `query decompose` output for one n per catalog pattern
DECOMPOSE_OUTPUT = {
    ("cyclic", 5): "pattern: p\nprimes: 5\nexponents: 1\nparts: K5\n"
                   "pattern-edges: none\nkl: 0,1\n",
    ("cyclic", 15): "pattern: pq\nprimes: 3,5\nexponents: 1,1\nparts: K7,E8\n"
                    "pattern-edges: 0-1\nkl: 1,1\n",
    ("cyclic", 9): "pattern: p^m\nprimes: 3\nexponents: 2\nparts: K3,E6\n"
                   "pattern-edges: 0-1\nkl: 1,1\n",
    ("cyclic", 12): "pattern: pq^m\nprimes: 3,2\nexponents: 1,2\nparts: K4,E2,E2,E4\n"
                    "pattern-edges: 0-1 0-2 0-3 1-2\nkl: 3,1\n",
    ("cyclic", 36): "pattern: p^lq^m\nprimes: 2,3\nexponents: 2,2\n"
                    "parts: K4,E2,E6,E2,E4,E6,E12\n"
                    "pattern-edges: 0-1 0-2 0-3 0-4 0-5 0-6 1-2 1-3 1-5 2-3 2-4\nkl: 6,1\n",
    ("cyclic", 30): "pattern: pqr\nprimes: 2,3,5\nexponents: 1,1,1\nparts: K8,E2,E8,E4,E8\n"
                    "pattern-edges: 0-1 0-2 0-3 0-4 1-2 1-3 2-3\nkl: 4,1\n",
    ("dicyclic", 7): "pattern: p\nprimes: 7\nexponents: 1\nparts: K8,E6,E14\n"
                     "pattern-edges: 0-1 0-2 1-2\nkl: 2,1\n",
    ("dicyclic", 10): "pattern: 2p\nprimes: 2,5\nexponents: 1,1\nparts: K6,E4,E8,E22\n"
                      "pattern-edges: 0-1 0-2 0-3 1-3\nkl: 3,1\n",
    ("dicyclic", 15): "pattern: pq\nprimes: 3,5\nexponents: 1,1\n"
                      "parts: K8,E2,E4,E8,E8,E30\n"
                      "pattern-edges: 0-1 0-2 0-3 0-4 0-5 1-2 1-3 1-5 2-3 2-5 3-5 4-5\n"
                      "kl: 5,1\n",
    ("dicyclic", 8): "pattern: 2^m\nprimes: 2\nexponents: 3\nparts: K2,E30\n"
                     "pattern-edges: 0-1\nkl: 1,1\n",
    ("dicyclic", 9): "pattern: p^m\nprimes: 3\nexponents: 2\nparts: K4,E2,E6,E6,E18\n"
                     "pattern-edges: 0-1 0-2 0-3 0-4 1-2 1-4 2-4 3-4\nkl: 4,1\n",
}


@pytest.mark.parametrize("family,n", sorted(DECOMPOSE_OUTPUT), ids=lambda v: str(v))
def test_query_decompose_every_pattern(family, n, capsys):
    assert run(capsys, "query", "decompose", family, str(n)) == (
        0, DECOMPOSE_OUTPUT[family, n], "")


def test_query_decompose_not_covered(capsys):
    assert run(capsys, "query", "decompose", "cyclic", "60") == (0, "not covered\n", "")


def test_query_bad_element_label(capsys):
    # a label with a leading zero is not canonical: g01 is no name for g1
    for family, label in (("cyclic", "x9"), ("cyclic", "g01"), ("dicyclic", "a07b")):
        code, out, err = run(capsys, "query", "degree", family, "12", label)
        assert (code, out) == (2, "") and "error:" in err, label


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_phi_sum_range(capsys):
    code, out, err = run(capsys, "verify", "phi-sum", "2..500")
    assert code == 0
    assert "total: 499 checked, 0 failed, 0 inconclusive" in out


def test_verify_report_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert run(capsys, "verify", "clique-dicyclic", "2..12",
               "--report", str(first))[0] == 0
    assert run(capsys, "verify", "clique-dicyclic", "2..12",
               "--report", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert len(lines) == 11
    for line in lines:
        record = json.loads(line)
        assert record["verdict"] == "pass"
        assert record["ms"] == 0
        assert list(record)[:3] == ["claim", "family", "n"]
        assert record["certificate"].startswith("witness:")


def test_verify_by_group_order_range(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "dominating-set", "1..40-by-group-order")
    assert code == 0
    assert "dominating-set" in out
    report = tmp_path / "d.jsonl"
    code, out, err = run(capsys, "verify", "clique-dihedral", "3..10-by-group-order",
                         "--report", str(report))
    assert code == 0
    assert [json.loads(line)["n"] for line in report.read_text().splitlines()] == [3, 4, 5]


def test_verify_family_restriction(capsys):
    code, out, err = run(capsys, "verify", "epo-complete", "1..60-by-group-order",
                         "--family", "dicyclic")
    assert code == 0
    assert "cyclic" not in out.replace("dicyclic", "")


def test_verify_family_outside_claim(capsys):
    for claim, family in (("dihedral-join", "cyclic"), ("clique-cyclic", "dicyclic"),
                          ("phi-sum", "cyclic")):
        code, out, err = run(capsys, "verify", claim, "--family", family)
        assert code == 2, claim
        assert err.startswith("error:") and family in err, claim


def test_verify_ham_and_decomp(capsys):
    assert run(capsys, "verify", "ham-cyclic", "3..12")[0] == 0
    assert run(capsys, "verify", "decomp-dicyclic", "1..80-by-group-order")[0] == 0


def test_verify_unknown_claim(capsys):
    code, out, err = run(capsys, "verify", "nonsense")
    assert code == 2 and "unknown claim" in err


def test_verify_bad_ranges(capsys):
    assert run(capsys, "verify", "phi-sum", "5..x")[0] == 2
    assert run(capsys, "verify", "phi-sum", "9..3")[0] == 2
    code, out, err = run(capsys, "verify", "phi-sum", "2..10-by-group-order")
    assert code == 2 and err.startswith("error:")


def test_verify_inconclusive_exit(capsys):
    code, out, err = run(capsys, "verify", "clique-dicyclic", "2..6",
                         "--clique-budget", "1")
    assert code == 4
    assert "inconclusive" in out


def test_verify_failure_exit(capsys, monkeypatch):
    monkeypatch.setattr("primecoprime.closedforms.clique_cyclic", lambda n: 99)
    code, out, err = run(capsys, "verify", "clique-cyclic", "5..8")
    assert code == 1
    assert "FAIL:" in out


@pytest.mark.parametrize(
    "wrong,certificate",
    [
        ([5, 1, 2, 4], "part sizes 5,1,2,4 != element counts 4,2,2,4"),
        ([4, 3, 2, 4], "part sizes 4,3,2,4 != element counts 4,2,2,4"),
        ([6, 0, 2, 4], "part sizes 6,0,2,4 != element counts 4,2,2,4"),
    ],
    ids=["one-element-moved", "sum-off", "part-emptied"],
)
def test_verify_wrong_part_size_fails(wrong, certificate, tmp_path, capsys, monkeypatch):
    # Z_12 has the pq^m parts 4,2,2,4; the wrong formulas move one element
    # between parts, add one element, or move a whole part into the clique
    # part (an empty part forms no H-join, and is a fail record all the same)
    monkeypatch.setattr(closedforms, "_cd_part_sizes", lambda *shape: list(wrong))
    report = tmp_path / "r.jsonl"
    code, out, err = run(capsys, "verify", "decomp-cyclic", "12..12", "--report", str(report))
    assert (code, err) == (1, "")
    assert "FAIL:" in out
    (record,) = map(json.loads, report.read_text().splitlines())
    assert (record["n"], record["verdict"], record["certificate"]) == (12, "fail", certificate)


def test_verify_range_that_checks_nothing(capsys):
    for claim, span in (("clique-dihedral", "1..5-by-group-order"),
                        ("ham-cut-cyclic", "3..7")):
        code, out, err = run(capsys, "verify", claim, span)
        assert (code, out) == (2, ""), claim
        assert err == f"error: claim {claim} checks no group in {span}\n"


def test_verify_opens_the_report_before_the_sweep(tmp_path, capsys, monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the report was opened")

    monkeypatch.setattr(ver.Claim, "run", sweep)
    missing = tmp_path / "missing" / "r.jsonl"
    code, out, err = run(capsys, "verify", "phi-sum", "--report", str(missing))
    assert code == 2 and err.startswith("error:")


# sha256 of each claim's report over the first ten values of its default
# range; the report is the behavioural contract, so a change to any byte of
# it must come with a new digest here
FIRST_TEN_SHA256 = {
    "clique-cyclic": "70d8ee9f53e6ba12b3db48e445b04d556ada0c7b88f8d8b71f207b9936d16050",
    "clique-dicyclic": "9aa993a5f27a66691f19ffff95eb3cd594748b6db69695fb039bb687917b4f8f",
    "clique-dihedral": "f532baf87539d95b4520f37d85388c58dec72ca3bb1644b3e49740ac2718da27",
    "decomp-all": "aa3fa34c2d886d033a7dcac21a796013af485540b108b59da20ed6af3c0b39b9",
    "decomp-cyclic": "0f721d9937b9de73d6387d0b3fdabf3b15cb7616aa203e5e326afbeba4a88902",
    "decomp-dicyclic": "640276185d4f3436561a6adc9409ff216f624c452321fdc75902bacc65e3bad7",
    "decomp-dihedral": "0996128106379e8b001400cbb4c10ebd674c0b25c22a9c3b612fa271ecd41730",
    "degree-cyclic": "3aecf88ffb4a86c4ba3ac099759eda57703324291505f6f3ae54383bb722adc3",
    "degree-dicyclic": "5af551c171e4d88630ff5b7e4ee042119b40937d7321ddcd6d5001f72533148f",
    "degree-dihedral": "5a56f3f136bf8e41c642f137f4954c1468c27ce60a85768b1434d4bc66517681",
    "dicyclic-join": "681d7ef9571e1c7aa11953ac813de6045bcda3795db2e01dde89bfd52c7208c7",
    "dihedral-join": "8c1c624c4dcca5a7ddd7ce48041ae8078702728b9b9bace17206dfc2b2349d12",
    "dominating-set": "e589e2053b4e325b620d9e65ae0f9b01c1d5ba8db6b9fc527f3ab86d0dbcbb50",
    "epo-complete": "d5222a96c72143e9503ab2d146840ccdc7df9679f52b9c1c67df6b069fd83ff6",
    "ham-cut-cyclic": "3022cd618a2eeaa97ac7d17c9b1a6878115f89d02d49994811dda4c48551b3db",
    "ham-cut-dicyclic": "056935743d921e0fe284e83da57c9dffbb9d44f350600a9bc502837af26fd350",
    "ham-cyclic": "e84059f6932457e7413b3b6d62845dd1255281229c4610be23293e26a9e12165",
    "ham-dicyclic": "da66bc0aaf6ce58da2355dec879c0fcde9eb7dfcd4f2359631d4b5d2c4391ca0",
    "ham-dihedral": "c365e29bf22f4a445f62b6ff8c8e38afece46322cd6b9dd807dfab554e2818ba",
    "phi-sum": "c1a3970e7918263375459a62a00d94f9ee245652c4ff88f2dc9fa66a4e12528f",
}


def _mostly(good, bad):
    # one draw in six is malformed, so most argvs reach the sweep
    return st.integers(0, 5).flatmap(lambda k: bad if k == 0 else good)


_RANGES = _mostly(
    st.builds("{}..{}{}".format, st.integers(0, 12), st.integers(0, 12),
              st.sampled_from(["", "-by-group-order"])),  # reversed if the first is larger
    st.sampled_from(["", "5", "3..", "..3", "3-4", "1..2..3", "a..b", "-1..3",
                     "2..3-by-order", "1..12-by-group-order-"]),
)
_BUDGET = _mostly(st.integers(-2, 10**4), st.sampled_from(["x", "1e3", ""])).map(str)
_VERTEX_CAP = _mostly(st.integers(-1, 200), st.just("cap")).map(str)
_FAMILY = _mostly(st.sampled_from(["cyclic", "dihedral", "dicyclic"]), st.just("klein"))
# stands for a fresh temporary directory in an -o path
_TMP = "<tmp>"


@st.composite
def verify_argv(draw):
    claim = _mostly(st.sampled_from(sorted(ver.CLAIMS)), st.sampled_from(["clique", "no-such"]))
    argv = ["verify", draw(claim), draw(_RANGES)]
    options = {
        "--family": _mostly(st.sampled_from(["all", "cyclic", "dihedral", "dicyclic"]),
                            st.just("klein")),
        "--clique-budget": _BUDGET,
        "--ham-budget": _BUDGET,
        "--vertex-cap": _VERTEX_CAP,
    }
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@st.composite
def query_argv(draw):
    what = draw(st.sampled_from(["clique", "degree", "hamiltonian", "decompose"]))
    argv = ["query", what, draw(_FAMILY), str(draw(st.integers(-2, 10**4)))]
    if draw(st.booleans()):
        label = st.builds("{}{}{}".format, st.sampled_from(["g", "r", "s", "a", "b", "x", ""]),
                          st.integers(-1, 100), st.sampled_from(["", "b"]))
        argv.append(draw(label))
    return argv


@st.composite
def theta_argv(draw):
    # n stays at most 300 (1200 vertices for Q_300), so every build is small
    argv = ["theta", draw(_FAMILY), str(draw(st.integers(-2, 300)))]
    options = {
        "--format": _mostly(st.sampled_from(["dot", "json"]), st.just("svg")),
        "--vertex-cap": _VERTEX_CAP,
        "-o": st.sampled_from([f"{_TMP}/theta.out", f"{_TMP}/missing/theta.out"]),
    }
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=250, deadline=None)
@given(st.one_of(verify_argv(), query_argv(), theta_argv()))
def test_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([arg.replace(_TMP, tmp) for arg in argv])
        except SystemExit as exc:  # argparse rejects the option values
            code = exc.code
    assert code in range(5), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("name", sorted(ver.CLAIMS))
def test_every_claim_runs(name, tmp_path, capsys):
    lo, _, by_order = ver.CLAIMS[name].default
    span = f"{lo}..{lo + 9}" + ("-by-group-order" if by_order else "")
    report = tmp_path / "r.jsonl"
    code, out, err = run(capsys, "verify", name, span, "--report", str(report))
    assert (code, err) == (0, "")
    assert report.read_text()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == FIRST_TEN_SHA256[name]


def test_default_report_pins_cover_every_claim():
    # CI checks the default-range reports against these digests
    pins = Path(__file__).with_name("default_reports.sha256").read_text().split()
    assert sorted(pins[1::2]) == sorted(f"{name}.jsonl" for name in ver.CLAIMS)
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in pins[::2])


def test_verify_help_lists_every_claim(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # keep the claim list on one line
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "-h"])
    assert info.value.code == 0
    listed = re.search(r"one of: (.*)", capsys.readouterr().out).group(1)
    assert sorted(listed.split(", ")) == sorted(ver.CLAIMS)


# ---------------------------------------------------------------------------
# console script
# ---------------------------------------------------------------------------

PACKAGE_DIR = Path(primecoprime.__file__).resolve().parent


def _launchers():
    """Ways to start ``pcg`` in a fresh process, as ``(name, argv prefix)``.

    The declared ``[project.scripts]`` target is run the way the wrapper
    that pip generates runs it, so a broken declaration fails here without
    an install.  The ``-m`` launcher covers ``__main__.py``; an installed
    ``pcg`` on ``PATH`` is driven as well wherever one exists.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE_DIR.parents[1] / "pyproject.toml"
    if pyproject.is_file():
        with pyproject.open("rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["pcg"]
    else:  # imported from an install, not from the source tree
        (entry,) = metadata.entry_points(group="console_scripts", name="pcg")
        target = entry.value
    module, _, func = target.partition(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    launchers = [
        (f"entry point {target}", [sys.executable, "-c", wrapper]),
        ("python -m primecoprime", [sys.executable, "-m", "primecoprime"]),
    ]
    installed = shutil.which("pcg")
    if installed is not None:
        launchers.append((installed, [installed]))
    return launchers


def test_console_script_end_to_end(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    for index, (name, prefix) in enumerate(_launchers()):
        result = subprocess.run(
            [*prefix, "query", "clique", "cyclic", "12"],
            capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
        )
        assert result.returncode == 0, (name, result.stderr)
        assert result.stdout == "6\n", name
        report = tmp_path / f"r{index}.jsonl"
        result = subprocess.run(
            [*prefix, "verify", "ham-dicyclic", "2..8", "--report", str(report)],
            capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
        )
        assert result.returncode == 0, (name, result.stderr)
        assert report.exists(), name
        assert "total:" in result.stdout, name
