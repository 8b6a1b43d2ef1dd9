"""Cyclic, dihedral and dicyclic groups as labelled element families.

Element orders come from the standard closed forms (order of a power of a
generator, involutions outside the rotation part, and so on); no
multiplication tables are built here.  The canonical element listing fixes
the vertex order used everywhere else:

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
    """A group family: its name (the value, as the CLI spells it), the least
    n it is defined for, and the group order per unit of n."""

    CYCLIC = ("cyclic", 1, 1)
    DIHEDRAL = ("dihedral", 3, 2)
    DICYCLIC = ("dicyclic", 2, 4)

    def __new__(cls, value: str, min_n: int, order_factor: int) -> Family:
        member = object.__new__(cls)
        member._value_ = value
        member.min_n = min_n
        member.order_factor = order_factor
        return member


# kind -> family that owns it
_KIND_FAMILY = {
    "g": Family.CYCLIC,
    "r": Family.DIHEDRAL,
    "s": Family.DIHEDRAL,
    "a": Family.DICYCLIC,
    "ab": Family.DICYCLIC,
}

# the index is written without leading zeros, so every element has one label
_ELEMENT_RE = re.compile(r"([grs])(0|[1-9][0-9]*)|a(0|[1-9][0-9]*)(b?)")


@dataclass(frozen=True, order=True)
class GroupElement:
    """A labelled element: kind is one of g, r, s, a, ab."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in _KIND_FAMILY:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if self.index < 0:
            raise ValueError(f"element index must be >= 0, got {self.index}")

    def text(self) -> str:
        """Canonical text form, e.g. g5, r2, s0, a7, a3b."""
        if self.kind == "ab":
            return f"a{self.index}b"
        return f"{self.kind}{self.index}"

    def __str__(self) -> str:
        return self.text()


def parse_element(text: str) -> GroupElement:
    """Parse a canonical element label such as g5, r2, s0, a7 or a3b."""
    m = _ELEMENT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"cannot parse element label {text!r}")
    if m.group(1) is not None:
        return GroupElement(m.group(1), int(m.group(2)))
    kind = "ab" if m.group(4) else "a"
    return GroupElement(kind, int(m.group(3)))


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
    n = group.n
    if group.family is Family.CYCLIC:
        return [f"g{i}" for i in range(n)]
    if group.family is Family.DIHEDRAL:
        return [f"r{i}" for i in range(n)] + [f"s{i}" for i in range(n)]
    return [f"a{i}" for i in range(2 * n)] + [f"a{i}b" for i in range(2 * n)]


def _check_membership(group: GroupSpec, element: GroupElement) -> None:
    if _KIND_FAMILY[element.kind] is not group.family:
        raise ValueError(f"element {element} does not belong to a {group.family.value} group")
    limit = 2 * group.n if group.family is Family.DICYCLIC else group.n
    if element.index >= limit:
        raise ValueError(f"element {element} out of range for {group}")


def element_at(group: GroupSpec, index: int) -> GroupElement:
    """Element at this position of the canonical listing."""
    if not 0 <= index < group.order:
        raise ValueError(f"index {index} out of range for {group}")
    if group.family is Family.CYCLIC:
        return GroupElement("g", index)
    inner, outer = ("r", "s") if group.family is Family.DIHEDRAL else ("a", "ab")
    half = group.order // 2
    if index < half:
        return GroupElement(inner, index)
    return GroupElement(outer, index - half)


def element_order(group: GroupSpec, element: GroupElement) -> int:
    """Order of the element, by closed form."""
    _check_membership(group, element)
    n = group.n
    if element.kind in ("g", "r"):
        return n // math.gcd(n, element.index)
    if element.kind == "s":
        return 2
    if element.kind == "a":
        return 2 * n // math.gcd(2 * n, element.index)
    return 4  # every element outside the cyclic part of a dicyclic group


def element_orders(group: GroupSpec) -> list[int]:
    """Orders of all elements, aligned with the canonical listing.

    Same closed forms as element_order, evaluated over the index range: the
    cyclic part of order m holds i -> m / gcd(m, i), and every element
    outside it has order 2 (dihedral) or 4 (dicyclic).
    """
    m = 2 * group.n if group.family is Family.DICYCLIC else group.n
    orders = [m // math.gcd(m, i) for i in range(m)]
    if group.family is Family.DIHEDRAL:
        orders += [2] * m
    elif group.family is Family.DICYCLIC:
        orders += [4] * m
    return orders


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
