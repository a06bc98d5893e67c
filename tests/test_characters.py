import gc
import importlib
import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oddchar import characters, permgroups, verify
from oddchar.errors import DomainError
from oddchar.characters import (
    branch_restrict,
    class_size,
    degree,
    is_odd_partition,
    lr_coefficient,
    mn_value,
    odd_partitions,
)
from oddchar.partitions import (
    HookPartition,
    Partition,
    partitions,
    rim_hooks_of_length,
    two_adic,
)


# ---------------------------------------------------------------- oracles

def count_syt(lam):
    """Standard Young tableaux by brute-force cell insertion; degree oracle."""
    cells = [(r, c) for r, p in enumerate(lam.parts) for c in range(p)]

    def place(k, heights, widths):
        if k == len(cells):
            return 1
        total = 0
        for r, p in enumerate(lam.parts):
            c = widths[r]
            if c < p and (r == 0 or widths[r - 1] > c):
                widths[r] += 1
                total += place(k + 1, heights, widths)
                widths[r] -= 1
        return total

    return place(0, None, [0] * len(lam.parts))


def parity_by_binary_hooks(lam):
    """Degree-parity oracle via greedy 2-power rim-hook stripping."""
    if lam.n == 0:
        return True
    m = 1 << (lam.n.bit_length() - 1)
    return any(
        parity_by_binary_hooks(rest) for _, rest in rim_hooks_of_length(lam, m)
    )


def branch_by_row_copy(lam):
    """Reference branching: copy the rows, lower one, filter out an empty row."""
    out = []
    parts = lam.parts
    for i in range(len(parts) - 1, -1, -1):
        if i + 1 == len(parts) or parts[i + 1] < parts[i]:
            row = list(parts)
            row[i] -= 1
            out.append(Partition(tuple(x for x in row if x > 0)))
    return out


def lr_by_recursion(alpha, beta, gamma):
    """Reference LR count: the recursive backtrack over a dict of filled cells."""
    if alpha.n + beta.n != gamma.n or not gamma.contains(alpha):
        return 0
    if beta.n == 0:
        return 1
    content = list(beta.parts)
    m = len(content)
    # cells in reverse reading order: rows top to bottom, right to left
    cells = [
        (r, c)
        for r in range(1, len(gamma.parts) + 1)
        for c in range(gamma.row(r), alpha.row(r), -1)
    ]
    filling = {}
    counts = [0] * (m + 1)

    def backtrack(pos):
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        right = filling.get((r, c + 1), m)  # row weakly increases to the right
        above = filling.get((r - 1, c), 0)  # column strictly increases downward
        total = 0
        for v in range(above + 1, right + 1):
            if counts[v] >= content[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            filling[(r, c)] = v
            total += backtrack(pos + 1)
            del filling[(r, c)]
            counts[v] -= 1
        return total

    return backtrack(0)


def valuation(d):
    """The exponent of 2 in the positive integer d."""
    return (d & -d).bit_length() - 1


def nu2_by_pairs(parts):
    """nu2(f^lam) from the hook-length formula, one pair of first-column hook lengths at a time."""
    length, n = len(parts), sum(parts)
    beta = [p + length - i for i, p in enumerate(parts, 1)]
    nu = n - n.bit_count() - sum(b - b.bit_count() for b in beta)
    for i, b in enumerate(beta):
        for c in beta[i + 1 :]:
            nu += valuation(b - c)
    return nu


# ---------------------------------------------------------------- degree

def test_degree_examples():
    assert degree(Partition()) == 1
    assert degree(Partition((5,))) == 1
    assert degree(Partition((2, 1))) == 2
    # hook lengths of (5,3,1) are {7,5,4,2,1; 4,2,1; 1}, product 2240,
    # and 9!/2240 = 162; frozen against the tableau count below
    assert degree(Partition((5, 3, 1))) == 162


def test_degree_matches_syt_oracle():
    for n in range(9):
        for lam in partitions(n):
            assert degree(lam) == count_syt(lam), lam
    assert count_syt(Partition((5, 3, 1))) == 162


def test_degree_sum_of_squares():
    for n in range(1, 9):
        assert sum(degree(lam) ** 2 for lam in partitions(n)) == math.factorial(n)


def test_is_odd_partition_examples():
    assert is_odd_partition(Partition((2, 2, 1)))
    assert degree(Partition((2, 2, 1))) == 5
    assert not is_odd_partition(Partition((2, 2)))
    for e in range(1, 5):
        n = 1 << e
        for leg in range(n):
            assert is_odd_partition(Partition((n - leg,) + (1,) * leg))


def test_parity_oracle_matches_degree_parity():
    for n in range(31):
        by_degree = []
        for lam in partitions(n):
            odd = degree(lam) % 2 == 1
            assert is_odd_partition(lam) == odd, lam
            if odd:
                by_degree.append(lam)
        assert odd_partitions(n) == by_degree, n  # the census keeps the listing order
    with pytest.raises(DomainError):
        odd_partitions(-1)


def test_parity_oracle_needs_no_rim_hooks(monkeypatch):
    expected = [lam for lam in partitions(12) if degree(lam) % 2 == 1]

    def refuse(lam, m):
        raise AssertionError("the parity oracle stripped a rim hook")

    # the package attribute oddchar.partitions is the function; this is the module
    partitions_module = importlib.import_module("oddchar.partitions")
    # both the public wrapper and the tuple core that it and _mn share
    for name in ("rim_hooks_of_length", "_rim_hooks"):
        monkeypatch.setattr(partitions_module, name, refuse)
        monkeypatch.setattr(characters, name, refuse, raising=False)
    # decide parity afresh, not from the valuations or censuses of earlier tests
    characters._nu2_degree.clear()
    characters._odd_census.cache_clear()
    assert is_odd_partition(Partition((2, 2, 1))) and not is_odd_partition(Partition((2, 2)))
    assert odd_partitions(12) == expected


def test_two_adic_degree_is_exact_on_both_paths(monkeypatch):
    lams = [lam for n in range(25) for lam in partitions(n)]
    expected = [valuation(degree(lam)) for lam in lams]

    def refuse(*args):
        raise AssertionError("the parity oracle took the other path")

    # Ascending n: every tail is decided first, so each partition takes the
    # first-row step; the closed form is the oracle's only caller of enumerate.
    characters._nu2_degree.clear()
    assert characters._two_adic_degree((), 0) == 0
    with monkeypatch.context() as patch:
        patch.setattr(characters, "enumerate", refuse, raising=False)
        got = [characters._two_adic_degree(lam.parts, lam.n) for lam in lams[1:]]
    assert got == expected[1:]
    # Descending n from an empty cache: no tail is known yet, so each partition
    # takes the closed form; the step is the oracle's only caller of sub.
    characters._nu2_degree.clear()
    with monkeypatch.context() as patch:
        patch.setattr(characters, "sub", refuse)
        got = [characters._two_adic_degree(lam.parts, lam.n) for lam in reversed(lams)]
    assert got[::-1] == expected


def test_parity_oracle_on_long_partitions():
    assert is_odd_partition(Partition((1,) * 20000))
    # each hook from an empty cache: no tail is known, so each takes the closed form
    n = 2000
    for leg in range(0, n, 10):
        characters._nu2_degree.clear()
        lam = HookPartition(n, leg).to_partition()
        assert is_odd_partition(lam) == (math.comb(n - 1, leg) % 2 == 1), leg
    for parts in (tuple(range(300, 0, -1)), (300,) * 3 + (1,) * 500, (7,) * 200 + (2,) * 90):
        characters._nu2_degree.clear()
        assert characters._two_adic_degree(parts, sum(parts)) == nu2_by_pairs(parts)


def test_ascending_fill_steps_on_each_partition_itself(monkeypatch):
    lams = [lam for n in range(25) for lam in partitions(n)]
    expected = [valuation(degree(lam)) for lam in lams]

    def refuse(*args):
        raise AssertionError("the parity oracle conjugated")

    # every tail is decided first, so each partition takes the first-row step
    # on its own parts; only the closed form may conjugate
    characters._nu2_degree.clear()
    with monkeypatch.context() as patch:
        patch.setattr(characters, "conjugate_parts", refuse)
        got = [characters._two_adic_degree(lam.parts, lam.n) for lam in lams]
    assert got == expected


@pytest.mark.parametrize(
    "parts, path",
    [
        ((1,) * 256, "step"),
        ((1,) * 257, "closed form"),
        ((1,) * 20000, "closed form"),
        ((2,) * 3 + (1,) * 200, "step"),
        ((2,) * 3 + (1,) * 500, "closed form"),
    ],
    ids=["column-256", "column-257", "column-20000", "tall-203", "tall-503"],
)
def test_tall_partition_after_its_tail(monkeypatch, parts, path):
    # The step's product of l - 1 gaps costs O(l^2), so past 256 rows a known
    # tail is passed over for the closed form on the conjugate.
    expected = 0 if parts[0] == 1 else nu2_by_pairs(parts)  # a column has degree 1
    characters._nu2_degree.clear()
    characters._two_adic_degree(parts[1:], sum(parts) - parts[0])

    def refuse(*args):
        raise AssertionError(f"the parity oracle did not take the {path}")

    with monkeypatch.context() as patch:
        # sub is the step's only call, enumerate the closed form's
        patch.setattr(characters, "enumerate" if path == "step" else "sub", refuse, raising=False)
        assert characters._two_adic_degree(parts, sum(parts)) == expected


def test_census_returns_a_fresh_list():
    census = odd_partitions(10)
    expected = list(census)
    census.pop()
    census.append(Partition((2, 2)))
    assert odd_partitions(10) == expected


def test_odd_census_matches_hook_strip_criterion():
    for n in range(1, 13):
        for lam in partitions(n):
            assert is_odd_partition(lam) == parity_by_binary_hooks(lam), lam
        assert len(odd_partitions(n)) == 1 << sum(two_adic(n))


# ---------------------------------------------------------------- MN values

def test_mn_examples():
    for mu in partitions(5):
        assert mn_value(Partition((5,)), mu) == 1
    # sign character: parity of n minus number of cycles
    for mu in partitions(6):
        expected = (-1) ** (6 - len(mu.parts))
        assert mn_value(Partition((1,) * 6), mu) == expected
    assert mn_value(Partition((2, 1)), Partition((3,))) == -1
    assert mn_value(Partition((3, 1)), Partition((1, 1, 1, 1))) == degree(Partition((3, 1)))
    with pytest.raises(DomainError):
        mn_value(Partition((2,)), Partition((3,)))


S4_CLASSES = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
S4_TABLE = {
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [3, 1, -1, 0, -1],
    (2, 2): [2, 0, 2, -1, 0],
    (2, 1, 1): [3, -1, -1, 0, 1],
    (1, 1, 1, 1): [1, -1, 1, 1, -1],
}


def test_mn_against_frozen_s4_table():
    for lam_parts, values in S4_TABLE.items():
        lam = Partition(lam_parts)
        for mu_parts, expected in zip(S4_CLASSES, values):
            assert mn_value(lam, Partition(mu_parts)) == expected


def test_class_sizes_sum_to_group_order():
    for n in range(1, 10):
        assert sum(class_size(mu) for mu in partitions(n)) == math.factorial(n)


def test_row_orthogonality():
    for n in range(1, 13):
        mus = partitions(n)
        sizes = [class_size(mu) for mu in mus]
        for lam in partitions(n):
            total = sum(s * mn_value(lam, mu) ** 2 for s, mu in zip(sizes, mus))
            assert total == math.factorial(n), lam


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_column_orthogonality(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    lams = partitions(n)
    mu = data.draw(st.sampled_from(lams))
    nu = data.draw(st.sampled_from(lams))
    total = sum(mn_value(lam, mu) * mn_value(lam, nu) for lam in lams)
    expected = math.factorial(n) // class_size(mu) if mu == nu else 0
    assert total == expected


def test_mn_row_matches_the_single_values():
    for n in range(11):
        mus = partitions(n)
        types = tuple(mu.parts for mu in mus)
        for lam in partitions(n):
            row = characters._mn(lam.parts, types)
            assert row == tuple(mn_value(lam, mu) for mu in mus), lam
            # any order: the row follows types, whose equal first parts need not be adjacent
            shuffled = types[1::2] + types[::2]
            assert characters._mn(lam.parts, shuffled) == row[1::2] + row[::2], lam


def test_mn_row_lists_rim_hooks_once_per_first_part(monkeypatch):
    listings = Counter()
    keys = set()
    list_hooks, row = characters._rim_hooks, characters._mn

    def counted_hooks(parts, m):
        listings[parts, m] += 1
        return list_hooks(parts, m)

    def seen_row(lam_parts, types):
        keys.add((lam_parts, types))
        return row(lam_parts, types)

    monkeypatch.setattr(characters, "_rim_hooks", counted_hooks)
    # the recursion and the oracle reach the row kernel through these names
    monkeypatch.setattr(characters, "_mn", seen_row)
    monkeypatch.setattr(permgroups, "_mn", seen_row)
    row.cache_clear()  # a cold fill: every key is computed once
    verify.run_suite("sharp-oracle", max_n=12)
    expected = Counter(
        (lam_parts, m) for lam_parts, types in keys if lam_parts for m in {t[0] for t in types}
    )
    assert listings == expected
    # against one listing per (shape, cycle type), as a memo keyed on single types makes
    assert sum(listings.values()) * 2 < sum(len(types) for lam_parts, types in keys if lam_parts)


# ---------------------------------------------------------------- branching

def test_branch_examples():
    assert branch_restrict(Partition((6,))) == [Partition((5,))]
    assert branch_restrict(Partition((2, 2, 1))) == [Partition((2, 2)), Partition((2, 1, 1))]
    assert branch_restrict(Partition((1,))) == [Partition()]


def test_branch_restrict_matches_row_copy():
    for n in range(1, 15):
        for lam in partitions(n):
            children = branch_restrict(lam)
            reference = branch_by_row_copy(lam)
            assert [mu.parts for mu in children] == [mu.parts for mu in reference], lam
            assert all(mu.n == n - 1 for mu in children), lam


def test_branching_degree_consistency():
    for n in range(1, 11):
        for lam in partitions(n):
            assert degree(lam) == sum(degree(mu) for mu in branch_restrict(lam))


# ---------------------------------------------------------------- LR rule

def test_lr_examples():
    assert lr_coefficient(Partition((1,)), Partition((1,)), Partition((2,))) == 1
    assert lr_coefficient(Partition((1,)), Partition((2, 1, 1)), Partition((2, 2, 1))) == 1
    assert lr_coefficient(Partition((1,)), Partition((1,)), Partition((3,))) == 0


def test_lr_pieri_row():
    # multiplying by a single row adds a horizontal strip
    for n in range(1, 8):
        for alpha in partitions(n):
            for k in range(1, 4):
                for gamma in partitions(n + k):
                    strips = gamma.contains(alpha) and all(
                        gamma.row(i + 2) <= alpha.row(i + 1)
                        for i in range(len(gamma.parts))
                    )
                    expected = 1 if strips else 0
                    assert lr_coefficient(alpha, Partition((k,)), gamma) == expected


def lr_by_inner_product(alpha, beta, gamma):
    """Independent LR oracle through Murnaghan-Nakayama and class sums."""
    a, b = alpha.n, beta.n
    total = 0
    for mu in partitions(a):
        for nu in partitions(b):
            joint = Partition(sorted(mu.parts + nu.parts, reverse=True))
            total += (
                class_size(mu)
                * class_size(nu)
                * mn_value(gamma, joint)
                * mn_value(alpha, mu)
                * mn_value(beta, nu)
            )
    q, r = divmod(total, math.factorial(a) * math.factorial(b))
    assert r == 0
    return q


def test_lr_matches_character_inner_product():
    for n in range(2, 8):
        for gamma in partitions(n):
            for a in range(1, n):
                for alpha in partitions(a):
                    for beta in partitions(n - a):
                        assert lr_coefficient(alpha, beta, gamma) == lr_by_inner_product(
                            alpha, beta, gamma
                        ), (alpha, beta, gamma)


def test_lr_degree_identity_per_split():
    for n in range(2, 11):
        for gamma in partitions(n):
            for a in range(0, n + 1):
                total = sum(
                    lr_coefficient(alpha, beta, gamma) * degree(alpha) * degree(beta)
                    for alpha in partitions(a)
                    for beta in partitions(n - a)
                )
                assert total == degree(gamma), (gamma, a)


def test_lr_matches_recursive_reference():
    triples = total = 0
    for n in range(9):
        for gamma in partitions(n):
            for a in range(n + 1):
                for alpha in partitions(a):
                    for beta in partitions(n - a):
                        c = lr_coefficient(alpha, beta, gamma)
                        assert c == lr_by_recursion(alpha, beta, gamma), (alpha, beta, gamma)
                        triples += 1
                        total += c
    assert (triples, total) == (6830, 1351)
    # incompatible sizes and diagrams give 0 on both
    for shapes in [((2,), (1,), (2, 1, 1)), ((3,), (1,), (2, 2)), ((1, 1, 1), (), (2, 1))]:
        args = tuple(Partition(parts) for parts in shapes)
        assert lr_coefficient(*args) == lr_by_recursion(*args) == 0, args


def test_lr_leaves_no_reference_cycles():
    shapes = [
        (alpha, beta.to_partition(), gamma)
        for n in range(1, 11)
        for gamma in partitions(n)
        for m in range(1, n + 1)
        for beta, alpha in rim_hooks_of_length(gamma, m)
    ][:1000]
    assert len(shapes) == 1000
    gc.collect()
    gc.disable()
    try:
        assert all(lr_coefficient(*shape) == 1 for shape in shapes)
        assert gc.collect() == 0
    finally:
        gc.enable()
