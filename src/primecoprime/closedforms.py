"""Closed forms for the prime coprime graph: clique numbers, vertex degrees,
Hamiltonicity tests, and the H-join decomposition catalog.

A vertex degree depends only on the element's order, so theta_degree is one
closed form for all three families, keyed by that order.

Catalog coverage, by the factorization shape of the parameter n:

  cyclic / dihedral   p, pq, p^m (m>=2), pq^m (m>=2), p^lq^m (l,m>=2), pqr
  dicyclic            2^m (m>=1), p, 2p, pq, p^m (m>=2) with p, q odd primes

Everything else is reported as not covered (None).  Every catalog entry is
a (k, 1)-partition laid out as an H-join, and the graph fixes each part's
kind: part 0 is the clique on the identity and prime-order elements, and
every other part is an independent set of composite order classes (two
elements of one composite order d share the composite gcd d).  An entry
holds only the part sizes and the pattern edges.

Each part is a union of order classes; catalog_partition places each class
by its family kind's part table, _CD_PARTS or _DIC_PARTS.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    Family,
    GroupElement,
    GroupSpec,
    _is_one_or_prime,
    element_at,
    element_order,
    order_classes,
)
from .numtheory import Factorization, factorize, is_prime

__all__ = [
    "clique_cyclic",
    "clique_number",
    "theta_degree",
    "theta_degrees",
    "is_hamiltonian_cyclic",
    "is_hamiltonian_dihedral",
    "is_hamiltonian_dicyclic",
    "is_hamiltonian",
    "DecompositionEntry",
    "decomposition_catalog",
    "catalog_partition",
]


# ---------------------------------------------------------------------------
# clique numbers
# ---------------------------------------------------------------------------


def clique_cyclic(n: int) -> int:
    """Clique number of the prime coprime graph of Z_n, n >= 2."""
    if n < 2:
        raise ValueError(f"clique_cyclic needs n >= 2, got {n}")
    f = factorize(n)
    k = f.prime_count
    return (
        1
        + sum(p - 1 for p in f.primes)
        + sum(1 for e in f.exponents if e >= 2)
        + k * (k - 1) // 2
    )


def clique_number(group: GroupSpec) -> int:
    """Clique number of the group's graph: clique_cyclic(m) of the cyclic
    part, plus the coset's share.  The n reflections of D_n (order 2, a
    prime) see every vertex and all join the clique; the coset of Q_n (order
    4) is an independent set, one of whose elements fits exactly when n is
    odd."""
    m = group.cyclic_order
    coset = group.n % 2 if group.family.coset_order == 4 else group.order - m
    return clique_cyclic(m) + coset


# ---------------------------------------------------------------------------
# vertex degrees
# ---------------------------------------------------------------------------


def _capped_exponents(d: int, primes: tuple[int, ...]) -> tuple[int, ...]:
    """Exponent of each prime in d, capped at 2: the degree expansion and the
    part tables tell only 0, 1 and "2 or more" apart."""
    return tuple(2 if d % (p * p) == 0 else 1 if d % p == 0 else 0 for p in primes)


def _composite_degree(fact: Factorization, d: int) -> int:
    """Number of elements of the cyclic group Z_m, m = fact.value, adjacent to
    an element of order d: those whose order meets d in a gcd of 1 or a
    prime.  d need not divide m.

    This is the admissible-subset expansion, sum over a in {0,1}^k with at
    most one a_i = 1 on the support of d of prod (p_i**gamma_i - 1)**a_i,
    in product form: each prime off the support contributes its whole
    p_i**alpha_i, and the support contributes 1 + sum (p_i**gamma_i - 1).
    With alpha_i the exponents of m and beta_i those of d, the effective
    exponent gamma_i is 1 where beta_i >= 2 and alpha_i otherwise.
    """
    off_support, on_support = 1, 1
    betas = _capped_exponents(d, fact.primes)
    for p, alpha, beta in zip(fact.primes, fact.exponents, betas):
        if beta == 0:
            off_support *= p**alpha
        else:
            on_support += p ** (1 if beta >= 2 else alpha) - 1
    return off_support * on_support


def theta_degree(group: GroupSpec, x: GroupElement) -> int:
    """Degree of any vertex, any family, read off the element's order d.

    Orders 1 and prime dominate: |G| - 1.  A composite order sees
    _composite_degree of the cyclic part Z_m, and the m elements of the
    coset too, unless their order is 4 (Q_n) and 4 divides d.
    """
    d = element_order(group, x)
    if _is_one_or_prime(d):
        return group.order - 1
    m = group.cyclic_order
    coset = 0 if group.family.coset_order == 4 and d % 4 == 0 else group.order - m
    return coset + _composite_degree(factorize(m), d)


def theta_degrees(group: GroupSpec) -> list[int]:
    """Degrees of all vertices, aligned with the canonical listing.

    A degree depends only on the element's order, so theta_degree runs once
    per order class, on the class's first element, and the class shares the
    result.
    """
    degrees = [0] * group.order
    for members in order_classes(group).values():
        degree = theta_degree(group, element_at(group, members[0]))
        for v in members:
            degrees[v] = degree
    return degrees


# ---------------------------------------------------------------------------
# Hamiltonicity
# ---------------------------------------------------------------------------


def is_hamiltonian_cyclic(n: int) -> bool:
    """True iff the prime coprime graph of Z_n has a Hamiltonian cycle:
    exactly n = 4, n an odd prime, or n twice an odd prime."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 4:
        return True
    if n % 2 == 1 and is_prime(n):
        return True
    half = n // 2
    return n % 2 == 0 and half % 2 == 1 and is_prime(half)


def is_hamiltonian_dihedral(n: int) -> bool:
    """Always true for n >= 3: minimum degree n + 1 beats half of 2n."""
    if n < 3:
        raise ValueError(f"dihedral groups need n >= 3, got {n}")
    return True


def is_hamiltonian_dicyclic(n: int) -> bool:
    """True iff n is odd."""
    if n < 2:
        raise ValueError(f"dicyclic groups need n >= 2, got {n}")
    return n % 2 == 1


def is_hamiltonian(group: GroupSpec) -> bool:
    """Whether the group's graph is Hamiltonian, by its family's closed form."""
    if group.family is Family.CYCLIC:
        return is_hamiltonian_cyclic(group.n)
    if group.family is Family.DIHEDRAL:
        return is_hamiltonian_dihedral(group.n)
    return is_hamiltonian_dicyclic(group.n)


# ---------------------------------------------------------------------------
# decomposition catalog
# ---------------------------------------------------------------------------

# pattern graphs, part 0 = the clique part; edges (i, j), i < j, in
# ascending order, say which parts see each other completely
_CD_PATTERNS: dict[str, tuple[tuple[int, int], ...]] = {
    "p": (),
    "pq": ((0, 1),),
    "p^m": ((0, 1),),
    "pq^m": ((0, 1), (0, 2), (0, 3), (1, 2)),
    "p^lq^m": ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
               (1, 2), (1, 3), (1, 5), (2, 3), (2, 4)),
    "pqr": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3)),
}

_DIC_PATTERNS: dict[str, tuple[tuple[int, int], ...]] = {
    "p": ((0, 1), (0, 2), (1, 2)),
    "2p": ((0, 1), (0, 2), (0, 3), (1, 3)),
    "pq": ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
           (1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)),
    "2^m": ((0, 1),),
    "p^m": ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)),
}

# part tables: a composite order's part, keyed by its exponents at the
# pattern's primes capped at 2 (dicyclic: at 2 first, then the odd primes);
# orders 1 and prime are part 0.  The 2n dicyclic elements outside the cyclic
# part all have order 4, key (2, 0, ...).
_CD_PARTS: dict[str, dict[tuple[int, ...], int]] = {
    "p": {},
    "pq": {(1, 1): 1},
    "p^m": {(2,): 1},
    "pq^m": {(0, 2): 1, (1, 1): 2, (1, 2): 3},
    "p^lq^m": {(2, 0): 1, (0, 2): 2, (1, 1): 3, (2, 1): 4, (1, 2): 5, (2, 2): 6},
    "pqr": {(1, 1, 0): 1, (0, 1, 1): 2, (1, 0, 1): 3, (1, 1, 1): 4},
}

_DIC_PARTS: dict[str, dict[tuple[int, ...], int]] = {
    "p": {(1, 1): 1, (2, 0): 2},
    "2p": {(1, 1): 1, (2, 1): 2, (2, 0): 3},
    "pq": {(1, 1, 0): 1, (1, 0, 1): 2, (0, 1, 1): 3, (1, 1, 1): 4, (2, 0, 0): 5},
    "2^m": {(2,): 1},
    "p^m": {(1, 1): 1, (0, 2): 2, (1, 2): 3, (2, 0): 4},
}


@dataclass(frozen=True)
class DecompositionEntry:
    """One catalog hit: the matched pattern, its primes and exponents in role
    order, and the closed-form part sizes (clique part first) and pattern
    edges of the H-join layout."""

    family: Family
    n: int
    pattern: str
    primes: tuple[int, ...]
    exponents: tuple[int, ...]
    sizes: tuple[int, ...]
    pattern_edges: tuple[tuple[int, int], ...]

    @property
    def kl(self) -> tuple[int, int]:
        """(k, l) of the (k, l)-partition: one clique part, the rest
        independent sets."""
        return len(self.sizes) - 1, 1

    def describe(self) -> str:
        """The parts as text, e.g. K4,E2,E2,E4: the clique part, then the
        independent ones."""
        return ",".join(f"{'E' if i else 'K'}{size}" for i, size in enumerate(self.sizes))


def _cd_part_sizes(
    pattern: str, primes: tuple[int, ...], exponents: tuple[int, ...]
) -> list[int]:
    """Independent-set part sizes for cyclic groups; the clique part comes
    first and dihedral groups add n reflections to it."""
    if pattern == "p":
        (p,) = primes
        return [p]
    if pattern == "pq":
        p, q = primes
        return [p + q - 1, (p - 1) * (q - 1)]
    if pattern == "p^m":
        (p,) = primes
        (m,) = exponents
        return [p, p**m - p]
    if pattern == "pq^m":
        p, q = primes
        m = exponents[1]
        return [
            p + q - 1,
            q**m - q,
            (p - 1) * (q - 1),
            (p - 1) * (q**m - q),
        ]
    if pattern == "p^lq^m":
        p, q = primes
        l, m = exponents
        pl, qm = p**l - p, q**m - q
        return [
            p + q - 1,
            pl,
            qm,
            (p - 1) * (q - 1),
            pl * (q - 1),
            qm * (p - 1),
            pl * qm,
        ]
    if pattern == "pqr":
        p, q, r = primes
        return [
            p + q + r - 2,
            (p - 1) * (q - 1),
            (q - 1) * (r - 1),
            (p - 1) * (r - 1),
            (p - 1) * (q - 1) * (r - 1),
        ]
    raise AssertionError(f"unknown pattern {pattern}")


def _dic_part_sizes(
    pattern: str, n: int, primes: tuple[int, ...], exponents: tuple[int, ...]
) -> list[int]:
    if pattern == "p":
        p = primes[0]
        return [p + 1, p - 1, 2 * p]
    if pattern == "2p":
        p = primes[1]
        return [p + 1, p - 1, 2 * p - 2, 4 * p + 2]
    if pattern == "pq":
        p, q = primes
        pq1 = (p - 1) * (q - 1)
        return [p + q, p - 1, q - 1, pq1, pq1, 2 * p * q]
    if pattern == "2^m":
        return [2, 4 * n - 2]
    if pattern == "p^m":
        p = primes[0]
        return [p + 1, p - 1, n - p, n - p, 2 * n]
    raise AssertionError(f"unknown pattern {pattern}")


def _match_squarefree_or_power(f: Factorization) -> tuple[str, tuple, tuple] | None:
    """Shape matching shared by cyclic and dihedral parameters."""
    k = f.prime_count
    if k == 1:
        p = f.primes[0]
        e = f.exponents[0]
        return ("p", (p,), (1,)) if e == 1 else ("p^m", (p,), (e,))
    if k == 2:
        (p1, p2), (e1, e2) = f.primes, f.exponents
        if e1 == 1 and e2 == 1:
            return "pq", (p1, p2), (1, 1)
        if e1 == 1 and e2 >= 2:
            return "pq^m", (p1, p2), (1, e2)
        if e2 == 1 and e1 >= 2:
            return "pq^m", (p2, p1), (1, e1)
        # both exponents >= 2; roles are symmetric, keep primes ascending
        return "p^lq^m", (p1, p2), (e1, e2)
    if k == 3 and all(e == 1 for e in f.exponents):
        return "pqr", f.primes, (1, 1, 1)
    return None


def _match_dicyclic(n: int) -> tuple[str, tuple, tuple] | None:
    f = factorize(n)
    k = f.prime_count
    if k == 1 and f.primes[0] == 2:
        return "2^m", (2,), (f.exponents[0],)
    if k == 1:
        p = f.primes[0]
        e = f.exponents[0]
        return ("p", (p,), (1,)) if e == 1 else ("p^m", (p,), (e,))
    if k == 2 and f.primes[0] == 2 and f.exponents[0] == 1 and f.exponents[1] == 1:
        return "2p", (2, f.primes[1]), (1, 1)
    if k == 2 and f.primes[0] != 2 and f.exponents == (1, 1):
        return "pq", f.primes, (1, 1)
    return None


def decomposition_catalog(family: Family, n: int) -> DecompositionEntry | None:
    """Catalog lookup; None means the parameter shape is not covered."""
    GroupSpec(family, n)  # validate the family range
    if family in (Family.CYCLIC, Family.DIHEDRAL):
        if n == 1:
            return None
        match = _match_squarefree_or_power(factorize(n))
        if match is None:
            return None
        pattern, primes, exponents = match
        sizes = _cd_part_sizes(pattern, primes, exponents)
        if family is Family.DIHEDRAL:
            sizes[0] += n
        edges = _CD_PATTERNS[pattern]
    else:
        match = _match_dicyclic(n)
        if match is None:
            return None
        pattern, primes, exponents = match
        sizes = _dic_part_sizes(pattern, n, primes, exponents)
        edges = _DIC_PATTERNS[pattern]
    return DecompositionEntry(family, n, pattern, primes, exponents, tuple(sizes), edges)


def catalog_partition(entry: DecompositionEntry) -> tuple[tuple[int, ...], ...]:
    """Vertex partition of the group's prime coprime graph that realizes the
    entry's H-join, parts aligned with entry.sizes, each ascending.  Each
    order class goes whole to the part its family's table names; whether the
    parts come out at entry.sizes is left to the caller (run_decomp checks
    it)."""
    if entry.family is Family.DICYCLIC:
        table, primes = _DIC_PARTS[entry.pattern], tuple(sorted({2, *entry.primes}))
    else:
        table, primes = _CD_PARTS[entry.pattern], entry.primes
    buckets: list[list[int]] = [[] for _ in entry.sizes]
    for d, members in order_classes(GroupSpec(entry.family, entry.n)).items():
        part = 0 if _is_one_or_prime(d) else table[_capped_exponents(d, primes)]
        buckets[part] += members
    return tuple(tuple(sorted(b)) for b in buckets)
