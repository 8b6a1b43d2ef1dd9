"""Command line interface.

  pcg theta FAMILY N [--format dot|json] [-o PATH]
  pcg query {clique|degree|hamiltonian|decompose} FAMILY N [ELEMENT]
  pcg verify CLAIM [A..B | A..B-by-group-order] [--report PATH] [...]

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error,
3 capacity exceeded: above the vertex cap, a query's cyclic part above
QUERY_ORDER_CAP, a phi-sum range above its cap, or out of memory, 4 a check
was inconclusive (budget ran out).
"""

from __future__ import annotations

import argparse
import os
import re
import stat
import sys
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from typing import TextIO

from . import verification as ver
from .closedforms import clique_number, decomposition_catalog, is_hamiltonian, theta_degree
from .groups import Family, GroupSpec, parse_element
from .oracles import DEFAULT_CLIQUE_BUDGET, DEFAULT_HAM_BUDGET
from .pcgraph import (
    DEFAULT_VERTEX_CAP,
    CapacityError,
    build_theta,
    dot_chunks,
    json_chunks,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INCONCLUSIVE = 4

_FAMILY_NAMES = sorted(f.value for f in Family)

# largest cyclic-part order a query takes: the closed forms factorize it by
# trial division, about 2 s for a prime just below 10^16
QUERY_ORDER_CAP = 10**16


def non_negative_int(text: str) -> int:
    """argparse type for budgets and caps: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcg",
        description="prime coprime graphs of cyclic, dihedral and dicyclic groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_theta = sub.add_parser("theta", help="export a prime coprime graph")
    p_theta.add_argument("family", choices=_FAMILY_NAMES)
    p_theta.add_argument("n", type=int)
    p_theta.add_argument("--format", choices=("dot", "json"), default="dot")
    p_theta.add_argument("-o", "--output", default=None, help="write here instead of stdout")
    p_theta.add_argument("--vertex-cap", type=non_negative_int, default=DEFAULT_VERTEX_CAP)

    p_query = sub.add_parser("query", help="closed-form queries")
    p_query.add_argument("what", choices=("clique", "degree", "hamiltonian", "decompose"))
    p_query.add_argument("family", choices=_FAMILY_NAMES)
    p_query.add_argument("n", type=int)
    p_query.add_argument("element", nargs="?", default=None,
                         help="element label (degree queries only), e.g. g6, r3, s0, a5, a2b")

    p_verify = sub.add_parser("verify", help="sweep a claim against its oracle")
    p_verify.add_argument("claim", help="one of: " + ", ".join(sorted(ver.CLAIMS)))
    p_verify.add_argument("range", nargs="?", default=None,
                          help="A..B over n, or A..B-by-group-order")
    p_verify.add_argument("--family", choices=("all", *_FAMILY_NAMES),
                          default="all", help="restrict family-spanning claims")
    p_verify.add_argument("--report", default=None, help="write a JSONL report here")
    p_verify.add_argument("--clique-budget", type=non_negative_int, default=DEFAULT_CLIQUE_BUDGET)
    p_verify.add_argument("--ham-budget", type=non_negative_int, default=DEFAULT_HAM_BUDGET)
    p_verify.add_argument("--vertex-cap", type=non_negative_int, default=DEFAULT_VERTEX_CAP)
    return parser


@contextmanager
def _output_file(path: str | None, default: TextIO | None = None) -> Iterator[TextIO | None]:
    """Yield path opened for writing, or default when there is no path.  The
    file opens before the work, so an unwritable path fails first; if the work
    raises, a regular file (not a device or a symlink) at path is removed, so
    a failed command leaves no partial output."""
    if path is None:
        yield default
        return
    out = open(path, "w")
    try:
        with out:
            yield out
    except BaseException:
        with suppress(OSError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        raise


def _cmd_theta(args: argparse.Namespace) -> int:
    group = GroupSpec(Family(args.family), args.n)
    with _output_file(args.output, sys.stdout) as out:
        graph = build_theta(group, args.vertex_cap)
        if args.format == "dot":
            chunks = dot_chunks(graph)
        else:
            chunks = json_chunks(graph, args.family, args.n)
        try:
            out.writelines(chunks)
            out.flush()
        except BrokenPipeError:
            if args.output is not None:
                raise
            # the reader of stdout left (e.g. `| head`): stop quietly, and send
            # what is still buffered to devnull so the exit flush cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    if args.element is not None and args.what != "degree":
        raise ValueError(f"{args.what} queries take no element label")
    group = GroupSpec(Family(args.family), args.n)
    if group.cyclic_order > QUERY_ORDER_CAP:
        raise CapacityError(
            f"{group} has a cyclic part of order {group.cyclic_order}, "
            f"above the query cap of {QUERY_ORDER_CAP}"
        )
    if args.what == "clique":
        print(clique_number(group))
        return EXIT_OK
    if args.what == "degree":
        if args.element is None:
            raise ValueError("degree queries need an element label")
        print(theta_degree(group, parse_element(args.element)))
        return EXIT_OK
    if args.what == "hamiltonian":
        print("true" if is_hamiltonian(group) else "false")
        return EXIT_OK
    entry = decomposition_catalog(group.family, args.n)
    if entry is None:
        print("not covered")
        return EXIT_OK
    print(f"pattern: {entry.pattern}")
    print("primes: " + ",".join(str(p) for p in entry.primes))
    print("exponents: " + ",".join(str(e) for e in entry.exponents))
    print("parts: " + entry.describe())
    edges = " ".join(f"{u}-{v}" for u, v in entry.pattern_edges)
    print("pattern-edges: " + (edges or "none"))
    print(f"kl: {entry.kl[0]},{entry.kl[1]}")
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int, bool]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)(-by-group-order)?", text)
    if m is None:
        raise ValueError(f"cannot parse range {text!r}; expected A..B")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi, m.group(3) is not None


def _cmd_verify(args: argparse.Namespace) -> int:
    claim = ver.CLAIMS.get(args.claim)
    if claim is None:
        raise ValueError(f"unknown claim {args.claim!r}")
    lo, hi, by_order = claim.default if args.range is None else _parse_range(args.range)
    families = None if args.family == "all" else [Family(args.family)]
    limits = ver.Limits(args.clique_budget, args.ham_budget, args.vertex_cap)
    with _output_file(args.report) as report:
        records = claim.run(lo, hi, by_order, families, limits)
        if not records:
            span = f"{lo}..{hi}" + ("-by-group-order" if by_order else "")
            raise ValueError(f"claim {claim.name} checks no group in {span}")
        ver.sort_records(records)
        if report is not None:
            report.write(ver.jsonl(records))
    sys.stdout.write(ver.summary_table(records))
    if any(r.verdict == "fail" for r in records):
        return EXIT_FAIL
    if any(r.verdict == "inconclusive" for r in records):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "theta":
            return _cmd_theta(args)
        if args.command == "query":
            return _cmd_query(args)
        return _cmd_verify(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
