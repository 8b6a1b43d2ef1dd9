"""Verification sweeps: each claim pairs a closed form with an independent
oracle and yields one record per checked instance.

A family sweep is one loop, _sweep, over the family's parameters in a range;
it builds each group once and collects the records of the claim's per-group
check, which returns none for a group the claim does not speak about.  Every
one-family run_* sweep takes (family, lo, hi, by_order, limits), so CLAIMS
names it directly; run_decomp, over a list of families, goes through _decomp.

The degree, dominating-set and completeness oracles, and the dihedral
Hamiltonicity bound, read vertex degrees off the order classes
(pcgraph.class_degrees), and decomp-* checks its H-join between classes, so
none of them builds the graph.  The clique, cyclic and dicyclic
Hamiltonicity, ham-cut and join-identity oracles run on the graph that
build_theta expands.

Records are sorted and serialized in a fixed order with no timestamps or
randomness, so repeated runs of the same sweep produce byte-identical
reports; the ms field is kept at zero for that reason.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass

from . import closedforms as cf
from . import oracles
from .groups import (
    Family,
    GroupSpec,
    element_labels,
    is_epo,
    s_indices,
)
from .numtheory import _divisors_of, _factorizations, euler_phi, phi_sum_expansion
from .pcgraph import (
    DEFAULT_VERTEX_CAP,
    build_theta,
    check_vertex_cap,
    class_degrees,
    complete,
    component_count,
    empty_graph,
    join,
    verify_hjoin_structure,
)

__all__ = [
    "CLAIMS",
    "Claim",
    "Limits",
    "ClaimRecord",
    "sort_records",
    "jsonl",
    "summary_table",
    "run_phi_sum",
    "run_dominating_set",
    "run_epo_complete",
    "run_clique",
    "run_degree",
    "run_ham",
    "run_ham_cut",
    "run_decomp",
    "run_join_equality",
]

# names of the claims that are not one per family; the records use them too
_PHI_SUM = "phi-sum"
_DOMINATING_SET = "dominating-set"
_EPO_COMPLETE = "epo-complete"


@dataclass
class ClaimRecord:
    claim: str
    family: str
    n: int
    param: str | None = None
    formula: int | bool = 0
    oracle: int | bool | str = 0
    verdict: str = "pass"  # pass | fail | inconclusive
    certificate: str | None = None
    ms: int = 0

    def json_line(self) -> str:
        payload: dict = {"claim": self.claim, "family": self.family, "n": self.n}
        if self.param is not None:
            payload["param"] = self.param
        payload["formula"] = self.formula
        payload["oracle"] = self.oracle
        payload["verdict"] = self.verdict
        if self.certificate is not None:
            payload["certificate"] = self.certificate
        payload["ms"] = self.ms
        return json.dumps(payload, separators=(",", ":"))


def sort_records(records: list[ClaimRecord]) -> None:
    records.sort(key=lambda r: (r.claim, r.family, r.n, r.param or ""))


def jsonl(records: list[ClaimRecord]) -> str:
    return "".join(r.json_line() + "\n" for r in records)


def summary_table(records: list[ClaimRecord]) -> str:
    """Aggregate counts per claim/family plus one line per problem record."""
    buckets: dict[tuple[str, str], list[int]] = {}
    for r in records:
        counts = buckets.setdefault((r.claim, r.family), [0, 0, 0])
        if r.verdict == "pass":
            counts[0] += 1
        elif r.verdict == "fail":
            counts[1] += 1
        else:
            counts[2] += 1
    lines = [f"{'claim':<24} {'family':<10} {'pass':>6} {'fail':>6} {'inconcl':>8}"]
    for (claim, family), (p, f, i) in sorted(buckets.items()):
        lines.append(f"{claim:<24} {family:<10} {p:>6} {f:>6} {i:>8}")
    for r in records:
        if r.verdict != "pass":
            where = f"{r.claim} {r.family} n={r.n}"
            if r.param is not None:
                where += f" param={r.param}"
            detail = f" certificate={r.certificate}" if r.certificate else ""
            lines.append(
                f"{r.verdict.upper()}: {where} formula={r.formula} oracle={r.oracle}{detail}"
            )
    total = len(records)
    fails = sum(1 for r in records if r.verdict == "fail")
    inconcl = sum(1 for r in records if r.verdict == "inconclusive")
    lines.append(f"total: {total} checked, {fails} failed, {inconcl} inconclusive")
    return "\n".join(lines) + "\n"


def _family_values(family: Family, lo: int, hi: int, by_order: bool) -> range:
    """Parameter values to sweep, as a lazy range; by_order reads lo..hi as group orders."""
    if not by_order:
        return range(max(lo, family.min_n), hi + 1)
    factor = family.order_factor
    return range(max(family.min_n, -(-lo // factor)), hi // factor + 1)


def _sweep(check: Callable[[GroupSpec], list[ClaimRecord]], family: Family,
           lo: int, hi: int, by_order: bool) -> list[ClaimRecord]:
    """The records check(group) returns for each group of the family in
    lo..hi (group orders when by_order), in ascending n; a check returns no
    records for a group the claim does not speak about."""
    return [
        record
        for n in _family_values(family, lo, hi, by_order)
        for record in check(GroupSpec(family, n))
    ]


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _record(claim: str, group: GroupSpec, formula, oracle, verdict: str,
            certificate: str | None = None, param: str | None = None) -> ClaimRecord:
    return ClaimRecord(claim, group.family.value, group.n, param, formula, oracle,
                       verdict, certificate)


@dataclass(frozen=True)
class Limits:
    """Search budgets and vertex cap that a claim's sweep runs under."""

    clique_budget: int = oracles.DEFAULT_CLIQUE_BUDGET
    ham_budget: int = oracles.DEFAULT_HAM_BUDGET
    vertex_cap: int = DEFAULT_VERTEX_CAP


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


def run_phi_sum(lo: int = 2, hi: int = 100000) -> list[ClaimRecord]:
    """phi_sum_expansion(factorize(n)) == sum of euler_phi over divisors == n.

    The range is factorized by one segmented sieve; the divisors come from
    the same factorization, and each euler_phi(d) from trial division.
    """
    records = []
    cache: dict[int, int] = {}
    for f in _factorizations(max(lo, 2), hi):
        n = f.value
        formula = phi_sum_expansion(f)
        total = 0
        for d in _divisors_of(f):
            total += cache.get(d) or cache.setdefault(d, euler_phi(d))  # phi(d) >= 1
        ok = formula == total == n
        records.append(ClaimRecord(_PHI_SUM, "-", n, None, formula, total, _verdict(ok)))
    return records


def run_dominating_set(
    family: Family, lo: int, hi: int, by_order: bool = False, limits: Limits = Limits()
) -> list[ClaimRecord]:
    """Dominating vertices of the graph (degree |G| - 1, read off the order
    classes) == elements of order 1 or prime."""

    def check(group: GroupSpec) -> list[ClaimRecord]:
        want = s_indices(group)
        full = group.order - 1
        got = tuple(sorted(v for members, degree in class_degrees(group, limits.vertex_cap)
                           if degree == full for v in members))
        ok = want == got
        note = None if ok else f"expected {len(want)} dominating vertices, graph has {len(got)}"
        return [_record(_DOMINATING_SET, group, len(want), len(got), _verdict(ok), note)]

    return _sweep(check, family, lo, hi, by_order)


def run_epo_complete(
    family: Family, lo: int, hi: int, by_order: bool = False, limits: Limits = Limits()
) -> list[ClaimRecord]:
    """Only identity/prime orders <=> the graph is complete (every class
    degree is |G| - 1)."""

    def check(group: GroupSpec) -> list[ClaimRecord]:
        epo = is_epo(group)
        full = group.order - 1
        comp = all(degree == full for _, degree in class_degrees(group, limits.vertex_cap))
        return [_record(_EPO_COMPLETE, group, epo, comp, _verdict(epo == comp))]

    return _sweep(check, family, lo, hi, by_order)


def run_clique(
    family: Family, lo: int, hi: int, by_order: bool = False, limits: Limits = Limits()
) -> list[ClaimRecord]:
    """Closed-form clique number == exact search on the graph."""
    claim = f"clique-{family.value}"

    def check(group: GroupSpec) -> list[ClaimRecord]:
        if group.n < 2:
            return []  # the clique formula starts at Z_2
        formula = cf.clique_number(group)
        theta = build_theta(group, limits.vertex_cap)
        try:
            result = oracles.max_clique(theta, limits.clique_budget)
        except oracles.BudgetExceededError:
            note = f"node budget {limits.clique_budget} exhausted"
            return [_record(claim, group, formula, "budget-exhausted", "inconclusive", note)]
        ok = formula == result.size
        witness = "witness:" + _csv(result.witness)
        return [_record(claim, group, formula, result.size, _verdict(ok), witness)]

    return _sweep(check, family, lo, hi, by_order)


def run_degree(
    family: Family, lo: int, hi: int, per_element: bool = True,
    by_order: bool = False, limits: Limits = Limits(),
) -> list[ClaimRecord]:
    """Closed-form degree == neighbor count, for every element; the count is
    the class degree of pcgraph.class_degrees, so the graph is not built.

    With per_element=False one record per group is emitted whose formula and
    oracle fields are the degree totals; the verdict still requires every
    single element to match.
    """
    claim = f"degree-{family.value}"

    def check(group: GroupSpec) -> list[ClaimRecord]:
        oracle = [0] * group.order
        for members, degree in class_degrees(group, limits.vertex_cap):
            for v in members:
                oracle[v] = degree
        formulas = cf.theta_degrees(group)
        checked = zip(element_labels(group), formulas, oracle)
        if per_element:
            return [
                _record(claim, group, formula, got, _verdict(formula == got), param=label)
                for label, formula, got in checked
            ]
        first_bad = next((f"first mismatch at {label}: {formula} != {got}"
                          for label, formula, got in checked if formula != got), None)
        ok = first_bad is None
        return [_record(claim, group, sum(formulas), sum(oracle), _verdict(ok), first_bad)]

    return _sweep(check, family, lo, hi, by_order)


def run_ham(
    family: Family, lo: int, hi: int, by_order: bool = False, limits: Limits = Limits()
) -> list[ClaimRecord]:
    """Hamiltonicity characterization against search (cyclic, dicyclic) or
    the minimum-degree bound (dihedral, where it always applies; the minimum
    degree is read off the order classes, so the graph is not built)."""
    claim = f"ham-{family.value}"

    def check(group: GroupSpec) -> list[ClaimRecord]:
        formula = cf.is_hamiltonian(group)
        if family is Family.DIHEDRAL:
            low = min(degree for _, degree in class_degrees(group, limits.vertex_cap))
            found = oracles.dirac_check(low, group.order)
            certificate = f"min-degree={low},vertices={group.order}"
        else:
            theta = build_theta(group, limits.vertex_cap)
            evidence = oracles.hamiltonian_search(theta, limits.ham_budget)
            if evidence.verdict is oracles.Verdict.INCONCLUSIVE:
                return [
                    _record(claim, group, formula, "inconclusive", "inconclusive", evidence.note)
                ]
            found = evidence.verdict is oracles.Verdict.HAMILTONIAN
            if evidence.cycle is not None:
                certificate = "cycle:" + _csv(evidence.cycle)
            elif evidence.cut_set is not None:
                certificate = "cut:" + _csv(evidence.cut_set)
            else:
                certificate = evidence.note
        return [_record(claim, group, formula, found, _verdict(formula == found), certificate)]

    return _sweep(check, family, lo, hi, by_order)


def run_ham_cut(
    family: Family, lo: int, hi: int, by_order: bool = False, limits: Limits = Limits()
) -> list[ClaimRecord]:
    """For parameters predicted non-Hamiltonian, removing the dominating
    order-1-or-prime elements must leave more components than its size."""
    claim = f"ham-cut-{family.value}"

    def check(group: GroupSpec) -> list[ClaimRecord]:
        if cf.is_hamiltonian(group):
            return []
        cut = s_indices(group)
        if len(cut) == 0 or len(cut) >= group.order:
            return []  # no usable cut (tiny groups where every order is prime)
        theta = build_theta(group, limits.vertex_cap)
        pieces = component_count(theta, cut)
        ok = pieces > len(cut)
        certificate = f"cut-size={len(cut)},components={pieces}"
        return [_record(claim, group, True, ok, _verdict(ok), certificate)]

    return _sweep(check, family, lo, hi, by_order)


def run_decomp(
    families: list[Family], lo: int = 1, hi: int = 600,
    by_order: bool = True, limits: Limits = Limits(),
) -> list[ClaimRecord]:
    """Catalog entries must match the graph: the part sizes, then the H-join
    structure, which also checks the (k, 1) split (part 0 a clique, the
    other parts independent sets).  The structure is checked between order
    classes, so the graph is never expanded; the vertex cap still applies."""

    def check(group: GroupSpec) -> list[ClaimRecord]:
        entry = cf.decomposition_catalog(group.family, group.n)
        if entry is None:
            return []  # the catalog does not cover this parameter shape
        check_vertex_cap(group, limits.vertex_cap)
        partition = cf.catalog_partition(entry)
        counted = tuple(len(part) for part in partition)
        k, l = entry.kl
        ok = False
        if entry.sizes != counted:
            certificate = f"part sizes {_csv(entry.sizes)} != element counts {_csv(counted)}"
        elif not (structure := verify_hjoin_structure(group, partition, entry.pattern_edges)):
            certificate = (f"clause={structure.clause},parts={structure.parts},"
                           f"pair={structure.vertex_pair}")
        else:
            ok, certificate = True, f"parts={entry.describe()},kl=({k},{l})"
        claim = f"decomp-{group.family.letter}-{entry.pattern}"
        return [_record(claim, group, True, ok, _verdict(ok), certificate, entry.pattern)]

    return [r for family in families for r in _sweep(check, family, lo, hi, by_order)]


def run_join_equality(
    family: Family, lo: int, hi: int, by_order: bool = False, limits: Limits = Limits()
) -> list[ClaimRecord]:
    """Graph-level identities: the graph equals that of the cyclic part Z_m
    joined with a block for the coset, complete for the reflections of D_n
    (order 2, a prime) and independent for the coset of odd Q_n (order 4)."""
    if family.coset_kind is None:
        raise ValueError("join equality claims exist for dihedral and dicyclic only")
    block = complete if family.coset_order == 2 else empty_graph
    cap = limits.vertex_cap

    def check(group: GroupSpec) -> list[ClaimRecord]:
        if family is Family.DICYCLIC and group.n % 2 == 0:
            return []  # the identity is stated for odd n only
        left = build_theta(group, cap)
        m = group.cyclic_order
        ok = left == join(build_theta(GroupSpec(Family.CYCLIC, m), cap), block(m))
        return [_record(f"{family.value}-join", group, True, ok, _verdict(ok))]

    return _sweep(check, family, lo, hi, by_order)


# ---------------------------------------------------------------------------
# the claim table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One claim `pcg verify` can check: the families it covers (none when
    it concerns no group), its default range as (lo, hi, by_order), and
    sweep(family, lo, hi, by_order=..., limits=...), which checks one
    family, or runs once with family None when the claim covers none."""

    name: str
    families: tuple[Family, ...]
    default: tuple[int, int, bool]
    sweep: Callable[..., list[ClaimRecord]]

    def run(
        self, lo: int, hi: int, by_order: bool = False,
        families: list[Family] | None = None, limits: Limits = Limits(),
    ) -> list[ClaimRecord]:
        """Unsorted records over lo..hi (group orders when by_order) for the
        given families, by default every family the claim covers."""
        chosen = tuple(families or self.families)
        outside = [f.value for f in chosen if f not in self.families]
        if outside:
            raise ValueError(f"claim {self.name} does not cover the {outside[0]} family")
        return [r for f in chosen or (None,)
                for r in self.sweep(f, lo, hi, by_order=by_order, limits=limits)]


def _phi_sum(family, lo, hi, by_order, limits):
    if by_order:
        raise ValueError(f"claim {_PHI_SUM} ranges over n only; it has no group order")
    return run_phi_sum(lo, hi)


def _decomp(family, lo, hi, by_order, limits):
    return run_decomp([family], lo, hi, by_order=by_order, limits=limits)


_CYC, _DIH, _DIC = Family
_EVERY = (_CYC, _DIH, _DIC)

# claim name -> Claim, for every claim `pcg verify` checks
CLAIMS: dict[str, Claim] = {
    claim.name: claim
    for claim in (
        Claim(_PHI_SUM, (), (2, 100000, False), _phi_sum),
        Claim(_DOMINATING_SET, _EVERY, (1, 400, True), run_dominating_set),
        Claim(_EPO_COMPLETE, _EVERY, (1, 400, True), run_epo_complete),
        Claim("clique-cyclic", (_CYC,), (2, 100, False), run_clique),
        Claim("clique-dihedral", (_DIH,), (3, 50, False), run_clique),
        Claim("clique-dicyclic", (_DIC,), (2, 50, False), run_clique),
        Claim("degree-cyclic", (_CYC,), (2, 100, False), run_degree),
        Claim("degree-dihedral", (_DIH,), (3, 60, False), run_degree),
        Claim("degree-dicyclic", (_DIC,), (2, 50, False), run_degree),
        Claim("ham-cyclic", (_CYC,), (3, 60, False), run_ham),
        Claim("ham-dihedral", (_DIH,), (3, 200, False), run_ham),
        Claim("ham-dicyclic", (_DIC,), (2, 30, False), run_ham),
        Claim("ham-cut-cyclic", (_CYC,), (3, 200, False), run_ham_cut),
        Claim("ham-cut-dicyclic", (_DIC,), (2, 100, False), run_ham_cut),
        Claim("decomp-all", _EVERY, (1, 600, True), _decomp),
        Claim("decomp-cyclic", (_CYC,), (1, 600, True), _decomp),
        Claim("decomp-dihedral", (_DIH,), (1, 600, True), _decomp),
        Claim("decomp-dicyclic", (_DIC,), (1, 600, True), _decomp),
        Claim("dihedral-join", (_DIH,), (3, 100, False), run_join_equality),
        Claim("dicyclic-join", (_DIC,), (3, 99, False), run_join_equality),
    )
}
