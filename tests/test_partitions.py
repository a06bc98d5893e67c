import math

import pytest
from hypothesis import given, settings, strategies as st

from oddchar.characters import branch_restrict, odd_partitions
from oddchar.errors import DomainError
from oddchar.glu import GLabel, enumerate_odd_labels, kappa_q
from oddchar.omega import (
    OmegaLabel,
    enumerate_omega_labels,
    galois_act,
    outer_act,
    sharp_glu,
    sharp_glu_inverse,
)
from oddchar.partitions import (
    HookPartition,
    Partition,
    attach_unique_gamma,
    binom_is_odd,
    conjugate_parts,
    nu2,
    odd_multinomial_order,
    partitions,
    rim_hooks_of_length,
    two_adic,
)
from oddchar.sym import SylowLinearLabel, ThetaLabel, alpha_sn, sharp_sn


# ---------------------------------------------------------------- oracles

def pascal_parity(limit):
    """Pascal triangle mod 2, the independent binomial-parity oracle."""
    rows = [[1]]
    for n in range(1, limit + 1):
        prev = rows[-1]
        row = [1] + [(prev[i - 1] + prev[i]) % 2 for i in range(1, n)] + [1]
        rows.append(row)
    return rows


def border_strips(lam, m):
    """Independent rim-hook oracle: partitions mu with lam/mu a border strip.

    Checks the skew diagram is edgewise connected and contains no 2x2 block,
    without consulting hook lengths.
    """
    out = []
    for mu in partitions(lam.n - m):
        if not lam.contains(mu):
            continue
        cells = {
            (r, c)
            for r in range(1, len(lam.parts) + 1)
            for c in range(mu.row(r) + 1, lam.row(r) + 1)
        }
        if len(cells) != m:
            continue
        if any({(r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)} <= cells for r, c in cells):
            continue
        seen = set()
        stack = [next(iter(cells))]
        while stack:
            cell = stack.pop()
            if cell in seen:
                continue
            seen.add(cell)
            r, c = cell
            for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if nb in cells:
                    stack.append(nb)
        if seen == cells:
            out.append((mu, frozenset(cells)))
    return out


def rim_hooks_by_cell_scan(lam, m):
    """Reference rim hooks: one per cell of hook length m, in reading order."""
    out = []
    parts = lam.parts
    conj = conjugate_parts(parts)
    for i in range(1, len(parts) + 1):
        for j in range(1, parts[i - 1] + 1):
            arm = parts[i - 1] - j
            leg = conj[j - 1] - i
            if arm + leg + 1 != m:
                continue
            l = i + leg
            rest = list(parts)
            for t in range(i, l):
                rest[t - 1] = parts[t] - 1
            rest[l - 1] = j - 1
            rest = tuple(p for p in rest if p > 0)
            out.append((HookPartition._trusted(m, leg), Partition._trusted(rest, sum(rest))))
    return out


def attach_by_row_copy(alpha, beta):
    """Reference Lemma 4.2 attachment: copy rows for a first-row corner, else conjugate."""
    k, h = beta.arm_count, beta.leg + 1
    if h <= len(alpha.parts) or k > alpha.row(1):
        parts = [alpha.row(h) + k]
        parts.extend(alpha.row(t - 1) + 1 for t in range(2, h + 1))
        parts.extend(alpha.parts[h:])
        return Partition(parts)
    return attach_by_row_copy(alpha.conjugate(), HookPartition(beta.m, k - 1)).conjugate()


PASCAL = pascal_parity(64)


# ---------------------------------------------------------------- types

def test_partition_validation():
    assert Partition().n == 0
    assert Partition((3, 2, 2)).n == 7
    with pytest.raises(DomainError):
        Partition((2, 3))
    with pytest.raises(DomainError):
        Partition((1, 0))
    with pytest.raises(DomainError):
        Partition([1, 2])
    with pytest.raises(DomainError):
        Partition([0])
    with pytest.raises(DomainError):
        Partition.from_json([2, 3])


def test_internal_builders_yield_valid_partitions():
    """Outputs built by the unchecked internal path pass the validating constructor."""

    def assert_valid(x):
        assert Partition(list(x.parts)) == x
        assert x.n == sum(x.parts)

    for n in range(13):
        for lam in partitions(n):
            assert_valid(lam)
            assert_valid(lam.conjugate())
            for m in range(1, n + 1):
                for _, rest in rim_hooks_of_length(lam, m):
                    assert_valid(rest)
            if n:
                for mu in branch_restrict(lam):
                    assert_valid(mu)
                for leg in range(n):
                    assert_valid(HookPartition(n, leg).to_partition())


def test_internal_builders_yield_valid_labels():
    """Labels built by the unchecked internal path equal their validated rebuilds."""
    rebuild = {
        ThetaLabel: lambda x: ThetaLabel(x.hooks),
        SylowLinearLabel: lambda x: SylowLinearLabel(x.blocks),
        OmegaLabel: lambda x: OmegaLabel(x.kappa, x.q, x.blocks),
        GLabel: lambda x: GLabel(x.kappa, x.q, x.pairs),
    }

    def assert_valid(x):
        checked = rebuild[type(x)](x)
        assert checked == x and hash(checked) == hash(x)

    for n in range(1, 8):
        for lam in odd_partitions(n):
            assert_valid(alpha_sn(lam))
            assert_valid(sharp_sn(lam))
        for q in (3, 5, 9):
            for kappa in ("+", "-"):
                mod = kappa_q(kappa, q).modulus
                units = [i for i in range(1, mod) if math.gcd(i, mod) == 1]
                words = ["F"] + (["tau", "F tau"] if kappa == "+" else [])
                for label in enumerate_odd_labels(n, q, kappa):
                    image = sharp_glu(label)
                    for x in (label, image):
                        assert_valid(x)
                        for i in units:
                            assert_valid(galois_act(i, x))
                        for word in words:
                            assert_valid(outer_act(word, x))
                for omega in enumerate_omega_labels(n, q, kappa):
                    assert_valid(omega)
                    assert_valid(sharp_glu_inverse(omega))


def _hook_json(m):
    return {"m": m, "leg": 0}


# (label class, constructor call, JSON) with a wrong block layout, a residue
# out of range, a duplicate residue, an empty partition or no blocks at all.
# OmegaLabel blocks may share a residue, since one pair can own several
# blocks; its duplicate is a block size twice, a wrong layout.
BAD_LABELS = [
    (
        ThetaLabel,
        lambda: ThetaLabel((HookPartition(1, 0), HookPartition(2, 0))),
        [_hook_json(1), _hook_json(2)],
    ),
    (ThetaLabel, lambda: ThetaLabel((HookPartition(0, 0),)), [_hook_json(0)]),
    (
        SylowLinearLabel,
        lambda: SylowLinearLabel(((1, ()), (2, (0,)))),
        [{"size": 1, "bits": []}, {"size": 2, "bits": [0]}],
    ),
    (SylowLinearLabel, lambda: SylowLinearLabel(((0, ()),)), [{"size": 0, "bits": []}]),
    (
        OmegaLabel,
        lambda: OmegaLabel("+", 3, ((1, 0, HookPartition(1, 0)), (2, 0, HookPartition(2, 0)))),
        {"kappa": "+", "q": 3, "blocks": [
            {"size": 1, "s": 0, "hook": _hook_json(1)},
            {"size": 2, "s": 0, "hook": _hook_json(2)},
        ]},
    ),
    (
        OmegaLabel,
        lambda: OmegaLabel("+", 3, ((1, 0, HookPartition(1, 0)), (1, 1, HookPartition(1, 0)))),
        {"kappa": "+", "q": 3, "blocks": [
            {"size": 1, "s": 0, "hook": _hook_json(1)},
            {"size": 1, "s": 1, "hook": _hook_json(1)},
        ]},
    ),
    (
        OmegaLabel,
        lambda: OmegaLabel("+", 3, ((1, 2, HookPartition(1, 0)),)),
        {"kappa": "+", "q": 3, "blocks": [{"size": 1, "s": 2, "hook": _hook_json(1)}]},
    ),
    (
        OmegaLabel,
        lambda: OmegaLabel("-", 3, ((1, 0, HookPartition(0, 0)),)),
        {"kappa": "-", "q": 3, "blocks": [{"size": 1, "s": 0, "hook": _hook_json(0)}]},
    ),
    (
        GLabel,
        lambda: GLabel("+", 3, ((2, Partition((1,))),)),
        {"kappa": "+", "q": 3, "pairs": [{"s": 2, "lambda": [1]}]},
    ),
    (
        GLabel,
        lambda: GLabel("-", 3, ((0, Partition((1,))), (0, Partition((2,))))),
        {"kappa": "-", "q": 3, "pairs": [{"s": 0, "lambda": [1]}, {"s": 0, "lambda": [2]}]},
    ),
    (
        GLabel,
        lambda: GLabel("+", 5, ((1, Partition(())),)),
        {"kappa": "+", "q": 5, "pairs": [{"s": 1, "lambda": []}]},
    ),
    (OmegaLabel, lambda: OmegaLabel("+", 3, ()), {"kappa": "+", "q": 3, "blocks": []}),
]


@pytest.mark.parametrize("cls, construct, data", BAD_LABELS)
def test_label_entry_points_still_validate(cls, construct, data):
    with pytest.raises(DomainError):
        construct()
    with pytest.raises(DomainError):
        cls.from_json(data)


def test_partition_conjugate_involution():
    for n in range(9):
        for lam in partitions(n):
            assert lam.conjugate().conjugate() == lam


def test_hook_partition_roundtrip():
    assert HookPartition(4, 2).to_partition() == Partition((2, 1, 1))
    assert HookPartition.from_partition(Partition((2, 1, 1))) == HookPartition(4, 2)
    with pytest.raises(DomainError):
        HookPartition(3, 3)
    with pytest.raises(DomainError):
        HookPartition.from_partition(Partition((2, 2)))


def test_partition_json():
    lam = Partition((2, 2, 1))
    assert lam.to_json() == [2, 2, 1]
    assert Partition.from_json([2, 2, 1]) == lam


# ---------------------------------------------------------------- 2-adic ops

def test_two_adic_examples():
    assert two_adic(7) == (2, 1, 0)
    assert two_adic(1) == (0,)
    assert two_adic(20) == (4, 2)
    assert two_adic(0) == ()


@given(st.integers(min_value=0, max_value=10**9))
def test_two_adic_reconstructs(n):
    exps = two_adic(n)
    assert sum(1 << e for e in exps) == n
    assert list(exps) == sorted(exps, reverse=True)


def test_two_adic_of_a_300_bit_number_and_a_negative_one():
    assert two_adic((1 << 299) | (1 << 150) | 0b1011) == (299, 150, 3, 1, 0)
    assert two_adic((1 << 300) - 1) == tuple(range(299, -1, -1))
    with pytest.raises(DomainError):
        two_adic(-1)
    with pytest.raises(DomainError):
        two_adic(-(1 << 300))


def test_nu2_examples():
    assert nu2(12) == 4
    assert nu2(7) == 1
    assert nu2(0) == math.inf
    assert nu2(0) > nu2(10**12)


def test_binom_is_odd_examples():
    assert binom_is_odd(7, 3)
    assert not binom_is_odd(4, 2)
    assert all(binom_is_odd(n, 0) for n in range(20))
    with pytest.raises(DomainError):
        binom_is_odd(3, 4)


def test_binom_parity_matches_pascal():
    for n in range(65):
        for a in range(n + 1):
            assert binom_is_odd(n, a) == (PASCAL[n][a] == 1)


def test_odd_multinomial_order_examples():
    assert math.comb(6, 2) % 2 == 1  # oracle for the first example
    assert odd_multinomial_order([2, 4]) == [2, 4]
    assert odd_multinomial_order([1, 2]) == [1, 2]
    assert odd_multinomial_order([2, 2]) is None
    assert odd_multinomial_order([4, 2, 1]) == [1, 2, 4]


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5))
def test_odd_multinomial_order_matches_factorials(parts):
    n = sum(parts)
    multinomial = math.factorial(n)
    for a in parts:
        multinomial //= math.factorial(a)
    ordered = odd_multinomial_order(parts)
    if multinomial % 2 == 0:
        assert ordered is None
    else:
        assert ordered is not None and sorted(ordered) == sorted(parts)
        vals = [nu2(a) for a in ordered]
        assert vals[0] == nu2(n)
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


def test_odd_binomial_has_one_odd_descent():
    # C(n, a) odd with 0 < a < n: exactly one of C(n-1, a-1), C(n-1, a) is odd,
    # and it is C(n-1, a-1) when nu2(a) <= nu2(n-a)
    for n in range(2, 65):
        for a in range(1, n):
            if not binom_is_odd(n, a):
                continue
            odd = [c for c in (a - 1, a) if PASCAL[n - 1][c]]
            assert len(odd) == 1, (n, a)
            if nu2(a) <= nu2(n - a):
                assert odd == [a - 1]


# ---------------------------------------------------------------- rim hooks

def test_rim_hooks_examples():
    out = rim_hooks_of_length(Partition((2, 2, 1)), 4)
    assert len(out) == 1
    hook_type, rest = out[0]
    assert rest == Partition((1,))
    assert hook_type.to_partition() == Partition((2, 1, 1))

    out = rim_hooks_of_length(Partition((6,)), 6)
    assert len(out) == 1
    assert out[0][1] == Partition()
    assert out[0][0] == HookPartition(6, 0)

    # the 2x2 square has one rim 3-hook (the L around the corner cell),
    # confirmed by the independent border-strip oracle below
    out = rim_hooks_of_length(Partition((2, 2)), 3)
    assert len(out) == 1
    assert out[0][1] == Partition((1,))


def test_rim_hooks_match_border_strip_oracle():
    for n in range(1, 11):
        for lam in partitions(n):
            for m in range(1, n + 1):
                # equal remainders mean equal cells, the skew diagram lam/rest
                got = {(rest, hook) for hook, rest in rim_hooks_of_length(lam, m)}
                want = {
                    (mu, HookPartition(m, len({r for r, _ in cells}) - 1))
                    for mu, cells in border_strips(lam, m)
                }
                assert got == want, (lam, m)


def test_rim_hooks_match_cell_scan_in_order():
    for n in range(15):
        for lam in partitions(n):
            for m in range(1, n + 2):
                got = [(hook, rest.parts, rest.n) for hook, rest in rim_hooks_of_length(lam, m)]
                want = [
                    (hook, rest.parts, rest.n) for hook, rest in rim_hooks_by_cell_scan(lam, m)
                ]
                assert got == want, (lam, m)


def test_rim_hook_geometry_invariants():
    for n in range(1, 13):
        for lam in partitions(n):
            for m in range(1, n + 1):
                for hook, rest in rim_hooks_of_length(lam, m):
                    assert rest.n == n - m
                    assert hook.m == m


def test_rim_hook_removal_leaves_one_core():
    # removing rim m-hooks in any order until none is left ends at one m-core
    def cores(lam, m):
        hooks = rim_hooks_of_length(lam, m)
        if not hooks:
            return {lam}
        return set().union(*(cores(rest, m) for _, rest in hooks))

    assert cores(Partition((2, 2, 1)), 4) == {Partition((1,))}
    assert cores(Partition((5,)), 7) == {Partition((5,))}
    assert cores(Partition((2, 1)), 3) == {Partition()}
    for n in range(1, 11):
        for lam in partitions(n):
            for m in range(2, n + 1):
                assert len(cores(lam, m)) == 1, (lam, m)


# ---------------------------------------------------------------- attachment

def test_attach_examples():
    assert attach_unique_gamma(Partition((1,)), HookPartition(4, 2), 5) == Partition((2, 2, 1))
    assert attach_unique_gamma(Partition(), HookPartition(5, 3), 5) == Partition((2, 1, 1, 1))
    assert attach_unique_gamma(Partition((1,)), HookPartition(2, 0), 3) == Partition((3,))
    with pytest.raises(DomainError) as err:
        attach_unique_gamma(Partition((3,)), HookPartition(2, 0), 5)  # n > 2m-1
    assert str(err.value) == "need m <= n <= 2m-1, got m=2, n=5"
    with pytest.raises(DomainError) as err:
        attach_unique_gamma(Partition((2,)), HookPartition(4, 1), 5)
    assert str(err.value) == "alpha must have size n-m=1, got 2"


def test_attach_unique_by_census():
    for m in range(2, 9):
        for n in range(m, 2 * m):
            for alpha in partitions(n - m):
                for leg in range(m):
                    beta = HookPartition(m, leg)
                    gamma = attach_unique_gamma(alpha, beta, n)
                    matches = [
                        g
                        for g in partitions(n)
                        for pair in rim_hooks_of_length(g, m)
                        if pair == (beta, alpha)
                    ]
                    assert matches == [gamma]
                    back = [pair for pair in rim_hooks_of_length(gamma, m) if pair == (beta, alpha)]
                    assert len(back) == 1


def test_attach_matches_row_copy():
    for m in range(1, 17):
        for n in range(m, 2 * m):
            for alpha in partitions(n - m):
                for leg in range(m):
                    beta = HookPartition(m, leg)
                    gamma = attach_unique_gamma(alpha, beta, n)
                    reference = attach_by_row_copy(alpha, beta)
                    assert (gamma.parts, gamma.n) == (reference.parts, n), (alpha, beta, n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_attach_inverts_removal(data):
    n = data.draw(st.integers(min_value=2, max_value=14))
    lam = data.draw(st.sampled_from(partitions(n)))
    m = data.draw(st.integers(min_value=(n + 2) // 2, max_value=n))
    for beta, rest in rim_hooks_of_length(lam, m):
        assert attach_unique_gamma(rest, beta, n) == lam
