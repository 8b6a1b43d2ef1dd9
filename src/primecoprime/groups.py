"""Cyclic, dihedral and dicyclic groups as labelled element families.

All three families share one layout, stated once on Family: a cyclic part of
order m (m = n for Z_n and D_n, m = 2n for Q_n), plus, for D_n and Q_n, one
coset of m elements that all have the same order (2 in D_n, 4 in Q_n).  The
cyclic part's element i has order m / gcd(m, i); no multiplication tables
are built here.  The canonical listing, cyclic part first, fixes the vertex
order used everywhere else:

  cyclic    Z_n  g0 .. g(n-1)
  dihedral  D_n  r0 .. r(n-1), s0 .. s(n-1)
  dicyclic  Q_n  a0 .. a(2n-1), a0b .. a(2n-1)b
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

from .numtheory import is_prime

__all__ = [
    "Family",
    "GroupElement",
    "GroupSpec",
    "cyclic",
    "dihedral",
    "dicyclic",
    "parse_element",
    "elements",
    "element_labels",
    "element_at",
    "element_order",
    "element_orders",
    "order_classes",
    "s_indices",
    "is_epo",
]


class Family(Enum):
    """A group family and its layout.  The value is the name as the CLI
    spells it, and min_n the least n the family is defined for.  The cyclic
    part has order m = cyclic_factor * n; the coset (None in Z_n) holds m
    elements of kind coset_kind and order coset_order.  kinds lists the
    label kinds in listing order, and order_factor is |G| / n."""

    CYCLIC = ("cyclic", 1, 1, "g", None, None)
    DIHEDRAL = ("dihedral", 3, 1, "r", "s", 2)
    DICYCLIC = ("dicyclic", 2, 2, "a", "ab", 4)

    def __new__(cls, value: str, min_n: int, cyclic_factor: int, cyclic_kind: str,
                coset_kind: str | None, coset_order: int | None) -> Family:
        member = object.__new__(cls)
        member._value_ = value
        member.min_n = min_n
        member.cyclic_factor = cyclic_factor
        member.coset_kind = coset_kind
        member.coset_order = coset_order
        member.kinds = (cyclic_kind,) if coset_kind is None else (cyclic_kind, coset_kind)
        member.order_factor = cyclic_factor * len(member.kinds)
        return member


# every label kind, each owned by one family
_KINDS = frozenset(kind for family in Family for kind in family.kinds)

# the index is written without leading zeros, so every element has one label
_ELEMENT_RE = re.compile(r"([grsa])(0|[1-9][0-9]*)(b?)")


@dataclass(frozen=True, order=True)
class GroupElement:
    """A labelled element: kind is one of g, r, s, a, ab."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if self.index < 0:
            raise ValueError(f"element index must be >= 0, got {self.index}")

    def text(self) -> str:
        """Canonical text form, e.g. g5, r2, s0, a7, a3b: the index goes
        after the kind's first letter."""
        return f"{self.kind[0]}{self.index}{self.kind[1:]}"

    def __str__(self) -> str:
        return self.text()


def parse_element(text: str) -> GroupElement:
    """Parse a canonical element label such as g5, r2, s0, a7 or a3b."""
    m = _ELEMENT_RE.fullmatch(text)
    kind = m.group(1) + m.group(3) if m else None
    if kind not in _KINDS:
        raise ValueError(f"cannot parse element label {text!r}")
    return GroupElement(kind, int(m.group(2)))


@dataclass(frozen=True)
class GroupSpec:
    """One finite group out of the three supported families."""

    family: Family
    n: int

    def __post_init__(self) -> None:
        if self.n < self.family.min_n:
            raise ValueError(
                f"{self.family.value} groups need n >= {self.family.min_n}, got {self.n}"
            )

    @property
    def order(self) -> int:
        return self.family.order_factor * self.n

    @property
    def cyclic_order(self) -> int:
        """m, the order of the cyclic part and the size of the coset."""
        return self.family.cyclic_factor * self.n

    def __str__(self) -> str:
        return f"{self.family.value}(n={self.n})"


def cyclic(n: int) -> GroupSpec:
    return GroupSpec(Family.CYCLIC, n)


def dihedral(n: int) -> GroupSpec:
    return GroupSpec(Family.DIHEDRAL, n)


def dicyclic(n: int) -> GroupSpec:
    return GroupSpec(Family.DICYCLIC, n)


def elements(group: GroupSpec) -> list[GroupElement]:
    """All elements in canonical order (see module docstring)."""
    return [element_at(group, i) for i in range(group.order)]


def element_labels(group: GroupSpec) -> list[str]:
    """Canonical text labels of all elements, in canonical order; the same
    as [e.text() for e in elements(group)] without building the elements."""
    m = group.cyclic_order
    affixes = [(kind[0], kind[1:]) for kind in group.family.kinds]  # as in GroupElement.text
    return [f"{head}{i}{tail}" for head, tail in affixes for i in range(m)]


def element_at(group: GroupSpec, index: int) -> GroupElement:
    """Element at this position of the canonical listing."""
    if not 0 <= index < group.order:
        raise ValueError(f"index {index} out of range for {group}")
    block, i = divmod(index, group.cyclic_order)
    return GroupElement(group.family.kinds[block], i)


def element_order(group: GroupSpec, element: GroupElement) -> int:
    """Order of the element, by closed form; ValueError when the group has
    no such element."""
    family = group.family
    if element.kind not in family.kinds:
        raise ValueError(f"element {element} does not belong to a {family.value} group")
    m = group.cyclic_order
    if element.index >= m:
        raise ValueError(f"element {element} out of range for {group}")
    if element.kind == family.coset_kind:
        return family.coset_order
    return m // math.gcd(m, element.index)


def element_orders(group: GroupSpec) -> list[int]:
    """Orders of all elements, aligned with the canonical listing.

    Same closed forms as element_order, evaluated over the index range: the
    cyclic part of order m holds i -> m / gcd(m, i), and every element of
    the coset has the coset's order.
    """
    m = group.cyclic_order
    coset = [group.family.coset_order] * (group.order - m)
    return [m // math.gcd(m, i) for i in range(m)] + coset


def order_classes(group: GroupSpec) -> dict[int, list[int]]:
    """Map each element order to the canonical indices of the elements of
    that order, ascending.

    Adjacency and degrees depend only on the order, so every grouping of
    elements by order goes through here.  Classes appear in the order of
    their first element.
    """
    classes: dict[int, list[int]] = {}
    for v, d in enumerate(element_orders(group)):
        classes.setdefault(d, []).append(v)
    return classes


def _is_one_or_prime(d: int) -> bool:
    return d == 1 or is_prime(d)


def s_indices(group: GroupSpec) -> tuple[int, ...]:
    """Canonical indices of the elements of order 1 or a prime, ascending."""
    return tuple(sorted(
        v
        for d, members in order_classes(group).items()
        if _is_one_or_prime(d)
        for v in members
    ))


def is_epo(group: GroupSpec) -> bool:
    """True iff every element has order 1 or prime."""
    return all(_is_one_or_prime(d) for d in order_classes(group))
