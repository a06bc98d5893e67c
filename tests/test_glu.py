import math
from itertools import combinations, product

import pytest

from oddchar.errors import DomainError
from oddchar.characters import degree, is_odd_partition, odd_partitions
from oddchar.partitions import Partition, nu2, odd_multinomial_order, partitions, two_adic
from oddchar.glu import (
    Q_LIMIT,
    GLabel,
    _odd_layout,
    _prime_base,
    canonical_order,
    count_odd_irr_gl,
    enumerate_odd_labels,
    is_odd_label,
    kappa_q,
    parabolic_star,
    sl_label_census,
)
from oddchar.omega import levi_star, sharp_glu, sharp_glu_inverse


def closed_form(n, q, kappa):
    mod = q - 1 if kappa == "+" else q + 1
    out = 1
    for e in two_adic(n):
        out *= mod << e
    return out


def test_prime_power_detection():
    assert [kappa_q("+", q).p for q in (3, 9, 27, 7)] == [3, 3, 3, 7]
    for q in (2, 8, 15, 1):
        with pytest.raises(DomainError, match=f"^q={q} is not an odd prime power$"):
            kappa_q("+", q)
    with pytest.raises(DomainError):
        GLabel("+", 15, ((0, Partition((1,))),))


def test_prime_power_test_matches_trial_division():
    def trial_base(q):
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)  # least prime factor
        while q % p == 0:
            q //= p
        return p if q == 1 else None

    for q in range(2, 10**5):
        assert _prime_base(q) == trial_base(q), q
    assert _prime_base(1) is None


def test_prime_power_test_at_large_q():
    big = 1000000000000000003  # prime
    assert kappa_q("+", big).p == big
    assert kappa_q("-", 3**45).p == 3
    assert kappa_q("+", 1000000007**2).p == 1000000007
    for q in (1000000007 * 998244353, 1000000007**2 * 3):
        with pytest.raises(DomainError, match="is not an odd prime power"):
            kappa_q("+", q)
    assert 3**52 > Q_LIMIT
    for q in (Q_LIMIT + 2, 3**52):  # beyond the exact range: refused
        with pytest.raises(DomainError, match="is too large"):
            kappa_q("+", q)


def test_glabel_validation():
    with pytest.raises(DomainError):
        GLabel("+", 3, ((0, Partition((1,))), (0, Partition((2,)))))  # repeated residue
    with pytest.raises(DomainError):
        GLabel("+", 3, ((5, Partition((1,))),))  # residue out of range
    with pytest.raises(DomainError, match="at least one pair"):
        GLabel("+", 3, ())
    label = GLabel("-", 3, ((3, Partition((2,))),))
    assert label.modulus == 4
    assert label.n == 2


def test_is_odd_label_examples():
    assert is_odd_label(GLabel("+", 3, ((1, Partition((2,))),)))
    two_lines = GLabel("+", 3, ((0, Partition((1,))), (1, Partition((1,)))))
    assert math.comb(2, 1) % 2 == 0
    assert not is_odd_label(two_lines)
    assert is_odd_label(GLabel("-", 3, ((0, Partition((1,))), (1, Partition((2,))))))
    # odd sizes but an even partition
    assert not is_odd_label(GLabel("+", 3, ((0, Partition((2, 2))),)))


def test_cached_is_odd_label_matches_the_direct_test():
    def direct(label):
        if not all(is_odd_partition(lam) for _, lam in label.pairs):
            return False
        return odd_multinomial_order([lam.n for _, lam in label.pairs]) is not None

    labels = [
        label
        for n in range(1, 6)
        for q in (3, 5)
        for kappa in ("+", "-")
        for label in enumerate_odd_labels(n, q, kappa)
    ]
    # every shape of at most two pairs of total size <= 6, odd or not
    shapes = [(lam,) for n in range(1, 7) for lam in partitions(n)]
    shapes += [
        (lam, mu)
        for a in range(1, 6)
        for b in range(1, 7 - a)
        for lam in partitions(a)
        for mu in partitions(b)
    ]
    labels += [GLabel("+", 5, tuple(enumerate(shape))) for shape in shapes]
    assert not all(map(direct, labels)) and any(map(direct, labels[-len(shapes) :]))
    for label in labels:
        odd = direct(label)
        assert is_odd_label(label) == odd, label
        if odd:  # sharp_glu reads the same layout: it refuses exactly the even labels
            assert sharp_glu_inverse(sharp_glu(label)) == label, label
        else:
            with pytest.raises(DomainError, match="is not an odd label"):
                sharp_glu(label)
    # residues do not enter the key: a residue translate is a cache hit
    assert is_odd_label(GLabel("+", 5, ((0, Partition((2, 1, 1))), (1, Partition((1,))))))
    hits = _odd_layout.cache_info().hits
    assert is_odd_label(GLabel("+", 5, ((2, Partition((2, 1, 1))), (3, Partition((1,))))))
    assert _odd_layout.cache_info().hits == hits + 1


def test_canonical_order():
    label = GLabel("+", 5, ((0, Partition((2,))), (1, Partition((1,)))))
    ordered = canonical_order(label)
    assert [lam.n for _, lam in ordered] == [1, 2]
    single = GLabel("+", 5, ((3, Partition((2, 2, 1))),))
    assert canonical_order(single) == single.pairs
    mixed = GLabel("+", 9, ((0, Partition((2, 2, 1))), (1, Partition((2,)))))
    assert [lam.n for _, lam in canonical_order(mixed)] == [5, 2]
    assert nu2(5) < nu2(2)


def test_parabolic_star_examples():
    line, rest = _star("+", 3, ((1, Partition((3,))),))
    assert line == (1, Partition((1,)))
    assert rest.pairs == ((1, Partition((2,))),)

    line, rest = _star("+", 3, ((0, Partition((1,))), (1, Partition((2,)))))
    assert line == (0, Partition((1,)))
    assert rest.pairs == ((1, Partition((2,))),)  # void rule at k_1 = 1

    line, rest = _star("+", 5, ((2, Partition((2, 2, 1))),))
    assert line == (2, Partition((1,)))
    assert rest.pairs == ((2, Partition((2, 1, 1))),)

    with pytest.raises(DomainError):
        parabolic_star(GLabel("-", 3, ((1, Partition((2,))),)))


def _star(kappa, q, pairs):
    corr = parabolic_star(GLabel(kappa, q, pairs))
    return corr.line, corr.rest


def test_count_examples():
    assert count_odd_irr_gl(2, 3, "+") == 4
    assert count_odd_irr_gl(2, 3, "-") == 8
    for q in (3, 5, 7, 9):
        assert count_odd_irr_gl(1, q, "+") == q - 1
        assert count_odd_irr_gl(1, q, "-") == q + 1


def test_counts_match_closed_form():
    for n in range(1, 9):
        for q in (3, 5, 7, 9):
            for kappa in ("+", "-"):
                assert count_odd_irr_gl(n, q, kappa) == closed_form(n, q, kappa)


def _all_labels(n, q, kappa):
    """Every label of rank n, through the validated constructor.

    Residues are chosen in increasing order and the sizes as a composition
    of n, so each multiset of (residue, partition) pairs is built once.
    """
    mod = kappa_q(kappa, q).modulus
    labels = []
    for m in range(1, n + 1):
        for cuts in combinations(range(1, n), m - 1):
            sizes = [b - a for a, b in zip((0,) + cuts, cuts + (n,))]
            for residues in combinations(range(mod), m):
                for lams in product(*(partitions(k) for k in sizes)):
                    labels.append(GLabel(kappa, q, tuple(zip(residues, lams))))
    return labels


def test_enumeration_is_the_odd_part_of_a_census_of_all_labels():
    for n in range(1, 6):
        for q in (3, 5):
            for kappa in ("+", "-"):
                expected = {label for label in _all_labels(n, q, kappa) if is_odd_label(label)}
                labels = enumerate_odd_labels(n, q, kappa)
                assert len(set(labels)) == len(labels)
                assert set(labels) == expected
                for label in labels:
                    residues = [s for s, _ in label.pairs]
                    assert residues == sorted(residues)
                    assert label == GLabel(label.kappa, label.q, label.pairs)


def test_parabolic_star_is_bijective_for_odd_n():
    for n in (3, 5, 7):
        for q in (3, 5, 7, 9):
            labels = enumerate_odd_labels(n, q, "+")
            outputs = {(c.line, c.rest) for c in map(parabolic_star, labels)}
            assert len(outputs) == len(labels) == count_odd_irr_gl(n, q, "+")
            assert len(outputs) == (q - 1) * count_odd_irr_gl(n - 1, q, "+")


def test_parabolic_star_iterates_to_rank_one():
    for q in (3, 5):
        for label in enumerate_odd_labels(5, q, "+"):
            cur = label
            while cur.n > 1:
                cur = parabolic_star(cur).rest
                assert is_odd_label(cur)
            assert cur.n == 1


def test_sl_census_identity():
    for n in (3, 5, 7):
        for q in (3, 5, 7, 9):
            total = count_odd_irr_gl(n, q, "+")
            assert total % (q - 1) == 0
            assert sl_label_census(n, q) == total // (q - 1)


@pytest.mark.parametrize("n", [2, 4])
def test_sl_census_refuses_even_rank(n):
    # the translation orbits undercount at even rank: 2 for n = 2 (q = 3, 5, 7), where 4 is true
    with pytest.raises(DomainError, match="^need odd rank n$"):
        sl_label_census(n, 3)


def test_parabolic_rest_has_distinct_pair_sizes():
    # the pair sizes of the rest own disjoint binary digits of n - 1
    for n in (3, 5, 7):
        for label in enumerate_odd_labels(n, 5, "+"):
            rest = parabolic_star(label).rest
            assert len({lam.n for _, lam in rest.pairs}) == len(rest.pairs)


def test_levi_star_examples():
    label = GLabel("+", 3, ((1, Partition((3,))),))
    assert levi_star(label, [3]) == [label]
    out = levi_star(label, [1, 2])
    assert [f.pairs for f in out] == [
        ((1, Partition((1,))),),
        ((1, Partition((2,))),),
    ]
    mixed = GLabel("+", 3, ((0, Partition((1,))), (1, Partition((2,)))))
    out = levi_star(mixed, [1, 2])
    assert [f.pairs for f in out] == [
        ((0, Partition((1,))),),
        ((1, Partition((2,))),),
    ]
    with pytest.raises(DomainError):
        levi_star(label, [2, 1, 0])
    with pytest.raises(DomainError):
        levi_star(GLabel("+", 5, ((0, Partition((2, 2))),)), [2, 2])


def test_levi_star_bijective_round_trip():
    from oddchar.omega import OmegaLabel, sharp_glu

    for n, blocks in [(3, [1, 2]), (5, [1, 4]), (6, [2, 4]), (7, [3, 4])]:
        for q, kappa in [(3, "+"), (3, "-"), (5, "+")]:
            images = set()
            for label in enumerate_odd_labels(n, q, kappa):
                factors = levi_star(label, blocks)
                for factor, k in zip(factors, blocks):
                    assert factor.n == k and is_odd_label(factor)
                # reassembling the factor coordinates recovers the label
                entries = []
                for factor in factors:
                    entries.extend(sharp_glu(factor).blocks)
                entries.sort(key=lambda b: -b[0])
                from oddchar.omega import sharp_glu_inverse

                assert sharp_glu_inverse(OmegaLabel(kappa, q, tuple(entries))) == label
                images.add(tuple(factors))
            expected = 1
            for k in blocks:
                expected *= count_odd_irr_gl(k, q, kappa)
            assert len(images) == expected == count_odd_irr_gl(n, q, kappa)
