"""Group families: labelling, orders against multiplication, order classes."""

import pytest
from hypothesis import given, strategies as st

from primecoprime.groups import (
    Family,
    GroupElement,
    GroupSpec,
    cyclic,
    dicyclic,
    dihedral,
    element_at,
    element_labels,
    element_order,
    element_orders,
    elements,
    is_epo,
    order_classes,
    parse_element,
    s_indices,
)
from conftest import naive_element_order, naive_is_prime


def test_group_spec_validation():
    with pytest.raises(ValueError):
        cyclic(0)
    with pytest.raises(ValueError):
        dihedral(2)
    with pytest.raises(ValueError):
        dicyclic(1)
    assert cyclic(1).order == 1
    assert dihedral(3).order == 6
    assert dicyclic(2).order == 8


def test_element_parsing_round_trip():
    for text in ("g0", "g15", "r2", "s0", "a7", "a3b"):
        assert parse_element(text).text() == text
    for bad in ("", "g", "x3", "ab", "a3bb", "r-1", "3g", "g01", "a007b", "s00", "g1\n"):
        with pytest.raises(ValueError):
            parse_element(bad)


def test_canonical_listing():
    assert [e.text() for e in elements(cyclic(3))] == ["g0", "g1", "g2"]
    assert [e.text() for e in elements(dihedral(3))] == [
        "r0", "r1", "r2", "s0", "s1", "s2"
    ]
    labels = [e.text() for e in elements(dicyclic(2))]
    assert labels == ["a0", "a1", "a2", "a3", "a0b", "a1b", "a2b", "a3b"]


def test_element_index_matches_listing():
    for group in (cyclic(7), dihedral(5), dicyclic(4)):
        for i, label in enumerate(element_labels(group)):
            assert element_at(group, i) == parse_element(label)
        for bad in (-1, group.order):
            with pytest.raises(ValueError):
                element_at(group, bad)


# label kinds of each family, cyclic part first, and the cyclic part's order
_KINDS = {
    Family.CYCLIC: (("g",), 1),
    Family.DIHEDRAL: (("r", "s"), 1),
    Family.DICYCLIC: (("a", "ab"), 2),
}


def test_membership_validation():
    with pytest.raises(ValueError):
        element_order(cyclic(5), GroupElement("r", 0))
    with pytest.raises(ValueError):
        element_order(cyclic(5), GroupElement("g", 5))
    with pytest.raises(ValueError):
        element_order(dicyclic(3), GroupElement("a", 6))
    # both texts reach the CLI user
    with pytest.raises(ValueError, match="^element a1 does not belong to a dihedral group$"):
        element_order(dihedral(5), GroupElement("a", 1))
    with pytest.raises(ValueError, match=r"^element a6b out of range for dicyclic\(n=3\)$"):
        element_order(dicyclic(3), GroupElement("ab", 6))
    for family, (kinds, factor) in _KINDS.items():
        for n in (family.min_n, 6, 7):
            group = GroupSpec(family, n)
            m = factor * n
            for kind in kinds:
                # the last index of each block is a member, one further is not
                last = GroupElement(kind, m - 1)
                assert element_order(group, last) == naive_element_order(group, last)
                with pytest.raises(ValueError, match="out of range"):
                    element_order(group, GroupElement(kind, m))
            foreign = [k for other, (ks, _) in _KINDS.items() if other is not family for k in ks]
            for kind in foreign:
                with pytest.raises(ValueError, match="does not belong"):
                    element_order(group, GroupElement(kind, 0))


SMALL_GROUPS = (
    [cyclic(n) for n in range(1, 31)]
    + [dihedral(n) for n in range(3, 16)]
    + [dicyclic(n) for n in range(2, 13)]
)


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=str)
def test_orders_match_multiplication(group):
    naive = [naive_element_order(group, e) for e in elements(group)]
    assert [element_order(group, e) for e in elements(group)] == naive
    # element_orders evaluates the closed form over the index range without
    # going through element_order, so it is checked on its own
    assert element_orders(group) == naive


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=str)
def test_element_labels_match_listing(group):
    assert element_labels(group) == [e.text() for e in elements(group)]
    # the listing is the cyclic part, then the coset, m elements each
    kinds, factor = _KINDS[group.family]
    layout = [GroupElement(kind, i) for kind in kinds for i in range(factor * group.n)]
    assert [element_at(group, i) for i in range(group.order)] == layout
    assert elements(group) == layout


def test_every_label_parses_back_to_itself():
    for group in SMALL_GROUPS:
        for label in element_labels(group):
            assert parse_element(label).text() == label


def test_order_class_counts_z12():
    classes = order_classes(cyclic(12))
    counts = {d: len(members) for d, members in classes.items()}
    assert counts == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}
    # classes come in the order of their first element
    assert list(classes) == [1, 12, 6, 4, 3, 2]
    assert classes[12] == [1, 5, 7, 11]


def test_dihedral_reflections_all_order_two():
    # 9 is odd, so no rotation has order 2: the class is the reflections
    assert order_classes(dihedral(9))[2] == list(range(9, 18))
    # the rotation r5 of order 2 shares its class with the reflections
    assert order_classes(dihedral(10))[2] == [5, *range(10, 20)]


def test_dicyclic_order_four_is_one_class():
    # a1, a3 and every a<i>b of Q_2 have order 4
    assert order_classes(dicyclic(2))[4] == [1, 3, 4, 5, 6, 7]
    assert order_classes(dicyclic(4))[4] == [2, 6, *range(8, 16)]


def _groups_up_to(family, order):
    return [GroupSpec(family, n)
            for n in range(family.min_n, order // family.order_factor + 1)]


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_order_classes_against_multiplication(family):
    for group in _groups_up_to(family, 200):
        classes = order_classes(group)
        # the classes partition the canonical indices, each class ascending
        assert sorted(v for members in classes.values() for v in members) == list(
            range(group.order)
        )
        naive = [naive_element_order(group, e) for e in elements(group)]
        assert set(classes) == set(naive)  # one class per order
        for d, members in classes.items():
            assert members == sorted(members)
            for v in members:
                assert naive[v] == d, (group, v)
        one_or_prime = {d: d == 1 or naive_is_prime(d) for d in set(naive)}
        s = tuple(v for v, d in enumerate(naive) if one_or_prime[d])
        assert s_indices(group) == s, group
        assert is_epo(group) == all(one_or_prime.values()), group


def test_dicyclic_outside_elements():
    group = dicyclic(6)
    orders = element_orders(group)
    assert orders[12:] == [4] * 12  # everything outside the cyclic part
    # unique involution inside the cyclic part sits at a^n
    assert [i for i in range(12) if orders[i] == 2] == [6]


def test_s_set_examples():
    assert s_indices(cyclic(4)) == (0, 2)  # g0, g2
    # dicyclic: the s elements all live inside the cyclic part
    assert all(v < 10 for v in s_indices(dicyclic(5)))


def test_is_epo_examples():
    assert is_epo(cyclic(5))
    assert not is_epo(cyclic(6))  # an element of order 6
    assert is_epo(dihedral(7))
    assert not is_epo(dihedral(8))
    assert not is_epo(dicyclic(2))  # order 4 elements
    assert not is_epo(dicyclic(3))  # order 6 inside the cyclic part


@given(st.sampled_from([Family.CYCLIC, Family.DIHEDRAL, Family.DICYCLIC]),
       st.integers(min_value=3, max_value=40))
def test_lagrange(family, n):
    group = GroupSpec(family, n)
    for d in set(element_orders(group)):
        assert group.order % d == 0
