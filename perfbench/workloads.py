"""Seeded operation lists for the four benchmark workloads.

The seed picks which parameters run; the program only ever sees the
resulting operation lists.  Draws are stratified: the candidates are
sorted by a cost key, cut into consecutive strata, and one is drawn from
each stratum.  Two seeds therefore run different parameters but the same
number of operations per claim and nearly the same amount of work, which
keeps the run-to-run spread of the timings small.  Where a few parameters
carry most of the cost (prime n in the clique search), all of them run.
"""

from __future__ import annotations

import functools
import math
import random
from typing import NamedTuple

from primecoprime import closedforms as cf
from primecoprime.groups import Family

WORKLOADS = ("closedform-sweep", "structure-sweep", "search-sweep", "export-large")

CYCLIC, DIHEDRAL, DICYCLIC = Family.CYCLIC, Family.DIHEDRAL, Family.DICYCLIC
_ORDER_FACTOR = {CYCLIC: 1, DIHEDRAL: 2, DICYCLIC: 4}
_FAMILY_MIN = {CYCLIC: 1, DIHEDRAL: 3, DICYCLIC: 2}

# phi-sum runs as consecutive blocks so that run_phi_sum's divisor cache
# works across a block as it does in `pcg verify phi-sum`.
PHI_BLOCK = 1000
PHI_BLOCKS = 5
# the block start is drawn from a narrow window because the cost per n grows
# with n; a window over all of 2..10^5 would move wall_s with the seed
PHI_START = (70001, 80001)

# export bands: (family, lo, hi, which n).  Within a band the edge count
# varies up to 400-fold with the factorization of n, so only the candidates
# whose edge count lies within EXPORT_EDGE_WINDOW of the band's median are
# drawn; every seed then exports graphs of nearly the same size.
EXPORT_BANDS = (
    (CYCLIC, 700, 800, "prime"),
    (DIHEDRAL, 350, 400, "any"),
    (DICYCLIC, 350, 400, "any"),
    (CYCLIC, 1200, 1600, "composite"),
)
EXPORT_EDGE_WINDOW = 0.03
EXPORT_FORMATS = ("json", "dot")


class Op(NamedTuple):
    """One operation: a claim checked on one group (lo == hi), one phi-sum
    block (family "-"), or one exported graph (claim "export-json|dot")."""

    claim: str
    family: str
    lo: int
    hi: int


@functools.cache
def is_prime(n: int) -> bool:
    """Trial division; the benchmark's own, used only to order strata."""
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def draw(rng: random.Random, candidates: list, per: int, key=None) -> list:
    """One candidate from each run of `per` consecutive candidates in key
    order, returned ascending as the CLI would run them."""
    ranked = sorted(candidates, key=key)
    chosen = [rng.choice(ranked[i : i + per]) for i in range(0, len(ranked), per)]
    return sorted(chosen)


def _by_n(family: Family, hi: int) -> list[int]:
    return list(range(_FAMILY_MIN[family], hi + 1))


def _by_order(family: Family, max_order: int) -> list[int]:
    return _by_n(family, max_order // _ORDER_FACTOR[family])


def _prime_then_n(n: int) -> tuple[bool, int]:
    return is_prime(n), n


def _group_ops(claim: str, family: Family, ns: list[int]) -> list[Op]:
    return [Op(claim, family.value, n, n) for n in ns]


def _closedform_sweep(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for family, hi in ((CYCLIC, 1000), (DIHEDRAL, 300), (DICYCLIC, 150)):
        chosen = draw(rng, _by_n(family, hi), 10, key=_prime_then_n)
        ops += _group_ops(f"degree-{family.value}", family, chosen)
    start = rng.randrange(*PHI_START)
    for k in range(PHI_BLOCKS):
        lo = start + k * PHI_BLOCK
        ops.append(Op("phi-sum", "-", lo, lo + PHI_BLOCK - 1))
    return ops


def _structure_sweep(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for family in (CYCLIC, DIHEDRAL, DICYCLIC):
        covered = [
            n for n in _by_order(family, 600)
            if cf.decomposition_catalog(family, n) is not None
        ]
        ops += _group_ops("decomp-all", family, draw(rng, covered, 6))
    for claim in ("dominating-set", "epo-complete"):
        for family in (CYCLIC, DIHEDRAL, DICYCLIC):
            ops += _group_ops(claim, family, draw(rng, _by_order(family, 400), 4))
    ops += _group_ops("dihedral-join", DIHEDRAL, draw(rng, list(range(3, 101)), 4))
    ops += _group_ops("dicyclic-join", DICYCLIC, draw(rng, list(range(3, 100, 2)), 4))
    return ops


_HAM_FORMULA = {
    CYCLIC: cf.is_hamiltonian_cyclic,
    DIHEDRAL: cf.is_hamiltonian_dihedral,
    DICYCLIC: cf.is_hamiltonian_dicyclic,
}


def _search_sweep(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    # the clique search spends nearly all its time on prime n, where the
    # graph is complete, and that cost climbs steeply with n.  Every prime
    # in range runs, so the search cost and op_tail_ms do not move with the
    # seed; the seed draws half of the composite n.
    for family, lo, hi in ((CYCLIC, 2, 120), (DIHEDRAL, 3, 50), (DICYCLIC, 2, 50)):
        ns = list(range(lo, hi + 1))
        composites = draw(rng, [n for n in ns if not is_prime(n)], 2)
        chosen = sorted(composites + [n for n in ns if is_prime(n)])
        ops += _group_ops(f"clique-{family.value}", family, chosen)
    for family, hi in ((CYCLIC, 120), (DICYCLIC, 60), (DIHEDRAL, 200)):
        ns = list(range(max(3, _FAMILY_MIN[family]), hi + 1))
        ops += _group_ops(f"ham-{family.value}", family, draw(rng, ns, 2, key=_prime_then_n))
    # run_ham_cut only checks parameters predicted non-Hamiltonian; drawing
    # from those alone makes every operation yield exactly one record
    for family, hi in ((CYCLIC, 120), (DICYCLIC, 60)):
        ns = [n for n in range(3, hi + 1) if not _HAM_FORMULA[family](n)]
        ops += _group_ops(f"ham-cut-{family.value}", family, draw(rng, ns, 2))
    return ops


def _class_sizes(family: Family, n: int) -> dict[int, int]:
    """Order -> number of elements of that order, from the cyclic part's
    divisors plus the elements outside it."""
    m = 2 * n if family is DICYCLIC else n
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    sizes = {d: _phi(d) for d in small + [m // d for d in small]}
    if family is DIHEDRAL:
        sizes[2] = sizes.get(2, 0) + n
    if family is DICYCLIC:
        sizes[4] = sizes.get(4, 0) + 2 * n
    return sizes


def _phi(d: int) -> int:
    result, rest, f = d, d, 2
    while f * f <= rest:
        if rest % f == 0:
            result -= result // f
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        result -= result // rest
    return result


def edge_estimate(family: Family, n: int) -> int:
    """Edge count of the graph, from order-class sizes; used only to keep
    the export draws at a steady size."""
    sizes = _class_sizes(family, n)
    twice = 0
    for d1, c1 in sizes.items():
        for d2, c2 in sizes.items():
            g = math.gcd(d1, d2)
            if g == 1 or is_prime(g):
                twice += c1 * (c2 - 1) if d1 == d2 else c1 * c2
    return twice // 2


def export_candidates(family: Family, lo: int, hi: int, which: str) -> list[int]:
    ns = [
        n for n in range(lo, hi + 1)
        if which == "any" or is_prime(n) == (which == "prime")
    ]
    edges = {n: edge_estimate(family, n) for n in ns}
    median = sorted(edges.values())[len(edges) // 2]
    return [n for n in ns if abs(edges[n] - median) <= EXPORT_EDGE_WINDOW * median]


def _export_large(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for band in EXPORT_BANDS:
        n = rng.choice(export_candidates(*band))
        ops += [Op(f"export-{fmt}", band[0].value, n, n) for fmt in EXPORT_FORMATS]
    return ops


_MAKERS = {
    "closedform-sweep": _closedform_sweep,
    "structure-sweep": _structure_sweep,
    "search-sweep": _search_sweep,
    "export-large": _export_large,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's operations for this seed, in the order they run."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))
