"""Command line behavior: output formats, exit codes, report determinism."""

import json
import os
import re
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import pytest

import primecoprime
from primecoprime import cli
from primecoprime import verification as ver

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


def test_theta_capacity_exit(capsys):
    code, out, err = run(capsys, "theta", "cyclic", "50", "--vertex-cap", "10")
    assert code == 3
    assert err.startswith("error:")


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


def test_query_degree(capsys):
    assert run(capsys, "query", "degree", "dicyclic", "3", "a1") == (0, "10\n", "")
    assert run(capsys, "query", "degree", "cyclic", "12", "g0") == (0, "11\n", "")
    code, out, err = run(capsys, "query", "degree", "cyclic", "12")
    assert code == 2 and "element" in err


def test_query_hamiltonian(capsys):
    assert run(capsys, "query", "hamiltonian", "cyclic", "9")[1] == "false\n"
    assert run(capsys, "query", "hamiltonian", "cyclic", "10")[1] == "true\n"
    assert run(capsys, "query", "hamiltonian", "dicyclic", "4")[1] == "false\n"


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


def test_query_decompose_not_covered(capsys):
    assert run(capsys, "query", "decompose", "cyclic", "60") == (0, "not covered\n", "")


def test_query_bad_element_label(capsys):
    code, out, err = run(capsys, "query", "degree", "cyclic", "12", "x9")
    assert code == 2 and "error:" in err


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


@pytest.mark.parametrize("name", sorted(ver.CLAIMS))
def test_every_claim_runs(name, tmp_path, capsys):
    lo, _, by_order = ver.CLAIMS[name].default
    span = f"{lo}..{lo + 9}" + ("-by-group-order" if by_order else "")
    report = tmp_path / "r.jsonl"
    code, out, err = run(capsys, "verify", name, span, "--report", str(report))
    assert (code, err) == (0, "")
    assert report.read_text()


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
