import math

import pytest

from oddchar.errors import DomainError, EnumerationCapError
from oddchar.characters import degree, is_odd_partition, mn_value, odd_partitions
from oddchar.partitions import Partition, partitions, two_adic
from oddchar.permgroups import (
    DEFAULT_CAP,
    PermutationGroup,
    compose,
    cycle_type,
    restriction_multiplicities,
    sylow2_subgroup,
)


def two_part_of_factorial(n):
    nu = 0
    p = 2
    while p <= n:
        nu += n // p
        p *= 2
    return 1 << nu


def test_cycle_type():
    assert cycle_type((1, 0, 2, 3)) == Partition((2, 1, 1))
    assert cycle_type((1, 2, 3, 0)) == Partition((4,))


def test_group_validation_and_cap():
    with pytest.raises(DomainError):
        PermutationGroup(3, [(0, 0, 1)])
    big = PermutationGroup(8, [tuple(range(1, 8)) + (0,), (1, 0) + tuple(range(2, 8))], cap=100)
    with pytest.raises(EnumerationCapError):
        big.elements


def test_sylow_orders_are_two_parts():
    for n in range(1, 13):
        group = sylow2_subgroup(n)
        assert group.order == two_part_of_factorial(n), n


def test_sylow_examples():
    assert sylow2_subgroup(2).order == 2
    d8 = sylow2_subgroup(4)
    assert d8.order == 8
    # dihedral: 2 four-cycles, 5 involutions, identity
    types = sorted(cycle_type(g).parts for g in d8.elements)
    assert types.count((4,)) == 2
    assert sylow2_subgroup(6).order == 16


def test_linear_character_counts():
    for n in range(1, 13):
        group = sylow2_subgroup(n)
        expected = 1 << sum(two_adic(n))
        assert group.abelianization_order() == expected
        assert len(group.linear_characters()) == expected


def relation_groups():
    """(group, number of +-1 characters) where the closure finds relations.

    S_3 and D_8 with a redundant generator have relations of odd word
    parity, so the relation span is not {0}; C_4 has an abelianization that
    is not elementary abelian.
    """
    r, s = (1, 2, 3, 0), (3, 2, 1, 0)
    return [
        (PermutationGroup(3, [(1, 0, 2), (1, 2, 0)]), 2),
        (PermutationGroup(4, [r]), 2),
        (PermutationGroup(4, [r, s, compose(r, s)]), 4),
    ]


def test_linear_characters_are_homomorphisms():
    groups = [sylow2_subgroup(n) for n in (4, 5, 6)] + [g for g, _ in relation_groups()]
    for group in groups:
        els = sorted(group.elements)
        characters = group.linear_characters()
        for phi in characters:
            for a in els:
                for b in els:
                    assert phi.value(compose(a, b)) == phi.value(a) * phi.value(b)
        labels = [phi.on_generators for phi in characters]
        assert len(set(labels)) == len(labels)


def inverse(p):
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def subgroup_closure(seed):
    """The subgroup generated by seed, closed by brute force."""
    seed = set(seed)
    closed = set(seed)
    frontier = list(seed)
    while frontier:
        new = []
        for c in seed:
            for x in frontier:
                y = compose(c, x)
                if y not in closed:
                    closed.add(y)
                    new.append(y)
        frontier = new
    return closed


def test_quotient_is_the_abelianization():
    for n in range(1, 9):
        group = sylow2_subgroup(n)
        els = group.elements
        derived = subgroup_closure(
            compose(compose(inverse(a), inverse(b)), compose(a, b)) for a in els for b in els
        )
        assert group.order // len(derived) == group.abelianization_order(), n
        for phi in group.linear_characters():
            assert all(phi.value(d) == 1 for d in derived), (n, phi)


def test_sign_characters_where_edges_carry_relations():
    for group, count in relation_groups():
        squares = subgroup_closure(compose(a, a) for a in group.elements)
        assert group.abelianization_order() == len(group.linear_characters()) == count
        assert group.order // len(squares) == count
        for phi in group.linear_characters():
            assert all(phi.value(a) == 1 for a in squares)


def test_restriction_s2_example():
    group = sylow2_subgroup(2)
    mults = dict(restriction_multiplicities(Partition((2,)), group))
    assert mults == {(1,): 1, (-1,): 0}
    mults = dict(restriction_multiplicities(Partition((1, 1)), group))
    assert mults == {(1,): 0, (-1,): 1}


def test_restriction_degree_bookkeeping():
    # linear multiplicities account for the degree minus even-dimensional parts
    group = sylow2_subgroup(4)
    mults = dict(restriction_multiplicities(Partition((2, 2)), group))
    assert sum(mults.values()) == 2
    for lam in odd_partitions(4):
        mults = dict(restriction_multiplicities(lam, group))
        odd_ones = [k for k, v in mults.items() if v % 2]
        assert len(odd_ones) == 1, lam


def test_restriction_exact_sum_rule():
    for n in (3, 4, 5, 6):
        group = sylow2_subgroup(n)
        for lam in (Partition((n,)), Partition((n - 1, 1))):
            mults = restriction_multiplicities(lam, group)
            linear_part = sum(m for _, m in mults)
            assert linear_part <= degree(lam)
            assert (degree(lam) - linear_part) % 2 == 0


def brute_force_multiplicities(lam, group):
    """The direct sum (1/|G|) sum_h chi(h) phi(h), one linear character at a time."""
    elements = sorted(group.elements)
    chi = [mn_value(lam, cycle_type(h)) for h in elements]
    out = []
    for phi in group.linear_characters():
        total = sum(c * phi.value(h) for c, h in zip(chi, elements))
        assert total % group.order == 0
        out.append((phi.on_generators, total // group.order))
    return out


def test_restriction_matches_brute_force_sum():
    for n in range(1, 9):
        group = sylow2_subgroup(n)
        for lam in partitions(n):
            expected = brute_force_multiplicities(lam, group)
            assert restriction_multiplicities(lam, group) == expected, (n, lam)


def test_sylow_order_checked_against_cap_before_enumeration():
    # the constructor raises: no group object, so no closure, ever exists
    assert 1 << (20 - 2) > DEFAULT_CAP
    with pytest.raises(EnumerationCapError):
        sylow2_subgroup(20)
    with pytest.raises(EnumerationCapError):
        sylow2_subgroup(8, cap=64)
    assert sylow2_subgroup(8, cap=128).order == 128
