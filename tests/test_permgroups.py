import json

import pytest

from oddchar import permgroups, sym, verify
from oddchar.errors import DomainError, EnumerationCapError, TheoremViolationError
from oddchar.characters import degree, mn_value, odd_partitions
from oddchar.partitions import Partition, partitions, two_adic
from oddchar.permgroups import DEFAULT_CAP, restriction_multiplicities, sylow2_subgroup
from oddchar.verify import run_suite


def two_part_of_factorial(n):
    nu = 0
    p = 2
    while p <= n:
        nu += n // p
        p *= 2
    return 1 << nu


def compose(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def cycle_type(p):
    """Cycle type of a permutation as a partition of its degree."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        lengths.append(length)
    return Partition(sorted(lengths, reverse=True))


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


def labels_of(group):
    """The linear characters the oracle reports, as values on the generators, in mask order."""
    return [vals for vals, _ in restriction_multiplicities(Partition((group.degree,)), group)]


def enumerate_characters(group, labels=()):
    """Every element of the group, mapped to its values under each label.

    One breadth-first closure of group.generators from the identity. An
    element's values are the products of the generator values along its
    closure path; every Cayley edge y = g x must agree, so each label is a
    homomorphism on the enumerated group.
    """
    identity = tuple(range(group.degree))
    values = {identity: (1,) * len(labels)}
    frontier = [identity]
    while frontier:
        new = []
        for i, g in enumerate(group.generators):
            step = [label[i] for label in labels]
            for x in frontier:
                y = compose(g, x)
                v = tuple(a * b for a, b in zip(step, values[x]))
                if y not in values:
                    values[y] = v
                    new.append(y)
                else:
                    assert values[y] == v, (group.degree, x, i)
        frontier = new
    return values


def test_sylow_orders_are_two_parts():
    for n in range(1, 13):
        group = sylow2_subgroup(n)
        assert group.order == two_part_of_factorial(n), n
        assert len(enumerate_characters(group)) == group.order, n


def test_sylow_examples():
    assert sylow2_subgroup(2).order == 2
    d8 = sylow2_subgroup(4)
    assert d8.order == 8
    # dihedral: 2 four-cycles, 5 involutions, identity
    types = sorted(cycle_type(g).parts for g in enumerate_characters(d8))
    assert types.count((4,)) == 2
    assert types.count((1, 1, 1, 1)) == 1
    assert sylow2_subgroup(6).order == 16


def test_linear_character_counts():
    for n in range(1, 13):
        labels = labels_of(sylow2_subgroup(n))
        assert len(labels) == 1 << sum(two_adic(n)), n
        assert len(set(labels)) == len(labels), n


def test_mask_order_puts_the_smallest_block_low():
    # blocks 4 + 2: the 4-block's two levels come first among the generators,
    # but the 2-block's level owns mask bit 0
    group = sylow2_subgroup(6)
    assert group.generators == ((1, 0, 2, 3, 4, 5), (2, 3, 0, 1, 4, 5), (0, 1, 2, 3, 5, 4))
    assert labels_of(group) == [
        (1, 1, 1), (1, 1, -1), (-1, 1, 1), (-1, 1, -1),
        (1, -1, 1), (1, -1, -1), (-1, -1, 1), (-1, -1, -1),
    ]


def test_linear_characters_are_homomorphisms():
    for n in (4, 5, 6):
        group = sylow2_subgroup(n)
        values = enumerate_characters(group, labels_of(group))
        for a, va in values.items():
            for b, vb in values.items():
                assert values[compose(a, b)] == tuple(x * y for x, y in zip(va, vb))


def test_quotient_is_the_abelianization():
    for n in range(1, 9):
        group = sylow2_subgroup(n)
        labels = labels_of(group)
        values = enumerate_characters(group, labels)
        derived = subgroup_closure(
            compose(compose(inverse(a), inverse(b)), compose(a, b)) for a in values for b in values
        )
        assert group.order // len(derived) == len(labels), n
        trivial = (1,) * len(labels)
        assert all(values[d] == trivial for d in derived), n


def test_class_sums_match_the_enumerated_group():
    # column w sums phi_w over the elements of each cycle type, so column 0
    # (the trivial character) counts them
    for n in range(1, 13):
        group = sylow2_subgroup(n)
        labels = labels_of(group)
        sums = {}
        for x, vals in enumerate_characters(group, labels).items():
            row = sums.setdefault(cycle_type(x), [0] * len(labels))
            for w, v in enumerate(vals):
                row[w] += v
        assert group.class_sums == sums, n


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
    """The direct sum (1/|G|) sum_h chi(h) phi(h) over the enumerated group, one phi at a time."""
    labels = labels_of(group)
    values = enumerate_characters(group, labels)
    chi = {h: mn_value(lam, cycle_type(h)) for h in values}
    out = []
    for k, label in enumerate(labels):
        total = sum(chi[h] * vals[k] for h, vals in values.items())
        assert total % group.order == 0
        out.append((label, total // group.order))
    return out


def test_restriction_matches_brute_force_sum():
    for n in range(1, 9):
        group = sylow2_subgroup(n)
        for lam in partitions(n):
            expected = brute_force_multiplicities(lam, group)
            assert restriction_multiplicities(lam, group) == expected, (n, lam)


def test_sylow_order_checked_against_cap_before_enumeration(monkeypatch):
    # the order is checked before any group object is built
    assert 1 << (20 - 2) > DEFAULT_CAP
    with pytest.raises(EnumerationCapError):
        sylow2_subgroup(20)
    monkeypatch.setattr(permgroups, "DEFAULT_CAP", 64)
    with pytest.raises(EnumerationCapError):
        sylow2_subgroup(8)
    monkeypatch.setattr(permgroups, "DEFAULT_CAP", 128)
    assert sylow2_subgroup(8).order == 128


def test_warm_sharp_oracle_pass_builds_no_group(monkeypatch):
    run_suite("sharp-oracle", max_n=12)
    built = []
    init = permgroups.Sylow2Subgroup.__init__

    def counting_init(self, n):
        built.append(n)
        init(self, n)

    monkeypatch.setattr(permgroups.Sylow2Subgroup, "__init__", counting_init)
    run_suite("sharp-oracle", max_n=12)
    assert built == []
    assert sylow2_subgroup(12) is sylow2_subgroup(12)


def test_warm_sharp_oracle_pass_reads_cached_walks_and_labels(monkeypatch):
    def report():
        text = json.dumps(run_suite("sharp-oracle", max_n=12).to_json(), sort_keys=True)
        return text.encode()

    first = report()

    def refuse(*args):
        raise AssertionError("a warm pass walked a generator or rebuilt a hook tuple")

    monkeypatch.setattr(verify, "_tower_parities", refuse)
    monkeypatch.setattr(sym, "alpha_sn", refuse)
    assert report() == first
    monkeypatch.undo()
    for n in range(1, 13):
        group = sylow2_subgroup(n)
        sizes = [1 << e for e in group.blocks]
        fresh = tuple(sym._tower_parities(g, sizes) for g in group.generators)
        assert verify._generator_walks(n) == fresh, n


def double_loop_multiplicities(lam, group):
    """The inner products from group.class_sums, one cycle type and one mask at a time."""
    totals = [0] * len(next(iter(group.class_sums.values())))
    for t, row in group.class_sums.items():
        chi = mn_value(lam, t)
        for w, v in enumerate(row):
            totals[w] += chi * v
    assert all(total % group.order == 0 for total in totals)
    return [total // group.order for total in totals]


def test_packed_inner_products_match_the_double_loop(monkeypatch):
    def packed(lam, group):
        return [mult for _, mult in restriction_multiplicities(lam, group)]

    for n in range(1, 15):
        group = sylow2_subgroup(n)
        for lam in partitions(n):
            assert packed(lam, group) == double_loop_multiplicities(lam, group), lam
    # 64 masks, and degrees up to the largest odd one at n = 20
    monkeypatch.setattr(permgroups, "DEFAULT_CAP", 1 << 18)
    group = sylow2_subgroup(20)
    for lam in odd_partitions(20):
        assert packed(lam, group) == double_loop_multiplicities(lam, group), lam


def test_packed_slots_keep_their_sign(monkeypatch):
    group = sylow2_subgroup(12)
    identity = (1,) * 12
    lam = Partition((12,))

    def row_at_identity(value):
        """A stand-in for the row kernel: value at the identity class, 0 elsewhere."""
        return lambda lam_parts, types: tuple(value if t == identity else 0 for t in types)

    # every slot holds -1: the lowest one must read -1, not 2**k - 1
    monkeypatch.setattr(permgroups, "_mn", row_at_identity(-1))
    with pytest.raises(DomainError, match=f"nonintegral inner product -1/{group.order}$"):
        restriction_multiplicities(lam, group)
    # every slot holds |P| * 2**k, too wide for its k bits: each reads as |P|
    # in the slot above, and the top slot's excess is left over
    big = group.order << group._packed_sums[0]
    monkeypatch.setattr(permgroups, "_mn", row_at_identity(big))
    with pytest.raises(TheoremViolationError):
        restriction_multiplicities(lam, group)
