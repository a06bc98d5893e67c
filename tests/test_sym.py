import importlib
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from oddchar.errors import DomainError
from oddchar.characters import branch_restrict, is_odd_partition, odd_partitions
from oddchar import characters, cli, glu, omega, sym, verify
from oddchar.partitions import (
    HookPartition,
    Partition,
    attach_unique_gamma,
    conjugate_parts,
    partitions,
    rim_hooks_of_length,
    two_adic,
)
from oddchar.permgroups import restriction_multiplicities, sylow2_subgroup
from oddchar.sym import (
    SylowLinearLabel,
    ThetaLabel,
    alpha_sn,
    alpha_sn_inverse,
    bits_to_hook,
    count_odd_irr_sn,
    hook_to_bits,
    sharp_sn,
    sharp_sn_inverse,
    star_sn,
    theorem_d_star,
    wreath_index_is_odd,
    wreath_odd_labels,
    young_star,
)


# ---------------------------------------------------------------- star

def test_star_examples():
    assert star_sn(Partition((6,))) == Partition((5,))
    assert star_sn(Partition((2, 2, 1))) == Partition((2, 1, 1))
    assert star_sn(Partition((1, 1, 1))) == Partition((1, 1))
    with pytest.raises(DomainError):
        star_sn(Partition((2, 2)))


def test_star_uniqueness_sweep():
    rng = random.Random(0)
    large = []  # seeded random odd partitions, built from hook tuples
    for n in (100, 255, 256, 1000):
        for _ in range(5):
            hooks = tuple(HookPartition(1 << e, rng.randrange(1 << e)) for e in two_adic(n))
            large.append(alpha_sn_inverse(ThetaLabel(hooks)))
    for lam in [lam for n in range(2, 25) for lam in odd_partitions(n)] + large:
        odd = [mu for mu in branch_restrict(lam) if is_odd_partition(mu)]
        assert len(odd) == 1, lam
        assert star_sn(lam) == odd[0], lam


def test_star_bijective_for_odd_n():
    for n in (3, 5, 7, 9, 11):
        images = {star_sn(lam) for lam in odd_partitions(n)}
        assert images == set(odd_partitions(n - 1))


# ---------------------------------------------------------------- alpha

def test_alpha_examples():
    for e in range(1, 5):
        n = 1 << e
        for leg in range(n):
            lam = HookPartition(n, leg).to_partition()
            assert alpha_sn(lam) == ThetaLabel((HookPartition(n, leg),))
    assert alpha_sn(Partition((2, 2, 1))) == ThetaLabel(
        (HookPartition(4, 2), HookPartition(1, 0))
    )
    # (4,1) has degree 4, so the one-row partition is the n=5 case whose
    # top hook is the full row: stripping (5) leaves (1)
    assert not is_odd_partition(Partition((4, 1)))
    assert alpha_sn(Partition((5,))) == ThetaLabel(
        (HookPartition(4, 0), HookPartition(1, 0))
    )


def test_alpha_bijection_and_inverse():
    for n in range(1, 17):
        odd = odd_partitions(n)
        assert len(odd) == count_odd_irr_sn(n)
        images = set()
        for lam in odd:
            theta = alpha_sn(lam)
            assert alpha_sn_inverse(theta) == lam
            images.add(theta)
        assert len(images) == count_odd_irr_sn(n)
        # the image is the whole coordinate space
        sizes = [1 << e for e in two_adic(n)]
        assert images == {
            theta
            for theta in _all_thetas(sizes)
        }


def _all_thetas(sizes):
    if not sizes:
        return {ThetaLabel(())}
    out = set()
    for theta in _all_thetas(sizes[1:]):
        for leg in range(sizes[0]):
            out.add(ThetaLabel((HookPartition(sizes[0], leg),) + theta.hooks))
    return out


def alpha_by_rim_hooks(lam):
    """Reference alpha: strip the one rim hook of each 2-power block, largest first."""
    hooks = []
    for e in two_adic(lam.n):
        (hook, lam), = rim_hooks_of_length(lam, 1 << e)
        hooks.append(hook)
    assert lam.n == 0
    return ThetaLabel(tuple(hooks))


def test_alpha_matches_rim_hook_strip():
    for n in range(41):
        for lam in odd_partitions(n):
            theta = alpha_sn(lam)
            assert theta == alpha_by_rim_hooks(lam), lam
            assert alpha_sn_inverse(theta) == lam


def test_alpha_error_messages(monkeypatch):
    def message(parts):
        with pytest.raises(DomainError) as err:
            alpha_sn(Partition(parts))
        return str(err.value)

    def refuse(*args):
        raise AssertionError("alpha_sn called the parity oracle")

    assert message((2, 2)) == "Partition(2, 2) is not an odd partition"
    # the strip is the oddness test: the oracle is never asked
    monkeypatch.setattr(characters, "_two_adic_degree", refuse)
    for parts in [(2, 2), (3, 2, 1), (4, 3, 1)]:
        assert message(parts) == f"Partition{parts} is not an odd partition"


# Dropping the odd branch (3, 1) of (3, 2) leaves the oracle none; putting the odd
# (2, 1, 1) in its place fools sn-star unless star_sn is built apart from the oracle.
@pytest.mark.parametrize("swap", [(), (Partition((2, 1, 1)),)], ids=["drop", "swap"])
def test_sn_star_reports_a_planted_branch_fault(monkeypatch, capsys, swap):
    true_branch = branch_restrict

    def planted(lam):
        out = true_branch(lam)
        if lam == Partition((3, 2)):
            out = [mu for mu in out if mu != Partition((3, 1))] + list(swap)
        return out

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "oddchar" and "branch_restrict" in vars(module):
            monkeypatch.setattr(module, "branch_restrict", planted)
    assert verify.run_suite("sn-star", max_n=6).to_json()["failed"] == 1
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "sn-star", "--max-n", "6"])
    assert info.value.code == 1
    assert capsys.readouterr().err == ""


def test_sn_star_reports_a_planted_star_fault(monkeypatch):
    def planted(lam):  # the conjugate of the true branch at (3, 2)
        mu = star_sn(lam)
        return Partition(conjugate_parts(mu.parts)) if lam == Partition((3, 2)) else mu

    monkeypatch.setattr(verify, "star_sn", planted)
    report = verify.run_suite("sn-star", max_n=6).to_json()
    assert report["failed"] == 1
    assert report["counterexamples"][0]["input"] == [3, 2]


def test_alpha_bij_reports_a_refused_odd_partition(monkeypatch, capsys):
    def planted(lam):  # refuses the odd partition (3, 1)
        if lam == Partition((3, 1)):
            raise DomainError(f"{lam} is not an odd partition")
        return alpha_sn(lam)

    monkeypatch.setattr(verify, "alpha_sn", planted)
    report = verify.run_suite("alpha-bij", max_n=5).to_json()
    assert report["failed"] >= 1
    assert {"input": [3, 1], "expected": "hook tuple", "actual": "refused"} in report["counterexamples"]
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "alpha-bij", "--max-n", "5"])
    assert info.value.code == 1
    assert capsys.readouterr().err == ""


def test_alpha_strip_is_the_oddness_test():
    for n in range(21):
        for lam in partitions(n):
            try:
                alpha_sn(lam)
            except DomainError:
                assert not is_odd_partition(lam), lam
            else:
                assert is_odd_partition(lam), lam


def test_cached_strip_is_the_strip():
    strip = sym._strip.__wrapped__
    for n in range(19):
        for lam in partitions(n):
            steps = sym._strip(lam.parts)
            assert steps == strip(lam.parts), lam
            assert type(steps) is tuple if is_odd_partition(lam) else steps is None, lam


def test_a_pass_strips_each_partition_once():
    verify.run_suite("alpha-bij", max_n=12)
    misses = sym._strip.cache_info().misses
    verify.run_suite("sn-star", max_n=12)
    verify.run_suite("alpha-bij", max_n=12)
    verify.run_suite("sharp-oracle", max_n=12)
    verify.run_suite("sharp-oracle", max_n=12)
    assert sym._strip.cache_info().misses == misses


def test_hook_census_is_the_odd_partitions():
    for n in range(33):
        census = sym._hook_census(n)
        assert len(set(census)) == len(census), n
        assert set(census) == set(odd_partitions(n)), n


def test_hook_maps_need_no_rim_hooks(monkeypatch):
    census = odd_partitions(12)
    thetas = [alpha_by_rim_hooks(lam) for lam in census]
    sharps = [sharp_sn(lam) for lam in census]

    def refuse(lam, m):
        raise AssertionError("a hook map called rim_hooks_of_length")

    # the package attribute oddchar.partitions is the function; this is the module
    partitions_module = importlib.import_module("oddchar.partitions")
    # both the public wrapper and the tuple core that it and _mn share
    for name in ("rim_hooks_of_length", "_rim_hooks"):
        monkeypatch.setattr(partitions_module, name, refuse)
        monkeypatch.setattr(characters, name, refuse, raising=False)
        monkeypatch.setattr(sym, name, refuse, raising=False)
    assert [alpha_sn(lam) for lam in census] == thetas
    assert [alpha_sn_inverse(theta) for theta in thetas] == census
    assert [sharp_sn(lam) for lam in census] == sharps
    for lam, theta in zip(census, thetas):
        cur = Partition()
        for hook in reversed(theta.hooks):
            cur = attach_unique_gamma(cur, hook, cur.n + hook.m)
        assert cur == lam


def _fields(value):
    return tuple(getattr(value, name) for name in value.__slots__)


def test_hook_maps_need_no_parity_oracle(monkeypatch):
    census = odd_partitions(12)
    thetas = [alpha_sn(lam) for lam in census]
    sharps = [sharp_sn(lam) for lam in census]
    stars = [star_sn(lam) for lam in census]
    labels = glu.enumerate_odd_labels(6, 3, "-")
    images = [omega.sharp_glu(label) for label in labels]
    plus = glu.enumerate_odd_labels(6, 3, "+")
    parabolic = [glu.parabolic_star(label) for label in plus]
    ordered = [glu.canonical_order(label) for label in plus]
    gl_count = glu.count_odd_irr_gl(6, 3, "+")
    even = glu.GLabel("+", 3, ((1, Partition((2, 2))),))
    wreath = [theorem_d_star(lam, 4, 3) for lam in census]
    wreath_labels = sym.wreath_odd_labels(4, 3)

    def refuse(*args):
        raise AssertionError("a hook map called the parity oracle")

    monkeypatch.setattr(characters, "_two_adic_degree", refuse)
    for name, module in list(sys.modules.items()):
        for oracle in ("odd_partitions", "branch_restrict"):
            if name.partition(".")[0] == "oddchar" and oracle in vars(module):
                monkeypatch.setattr(module, oracle, refuse)
    sym._hook_census.cache_clear()
    sym._strip.cache_clear()
    glu._odd_layout.cache_clear()
    assert [star_sn(lam) for lam in census] == stars
    assert [glu.parabolic_star(label) for label in plus] == parabolic
    assert [glu.canonical_order(label) for label in plus] == ordered
    assert all(glu.is_odd_label(label) for label in plus)
    assert not glu.is_odd_label(even)
    with pytest.raises(DomainError):
        glu.canonical_order(even)
    assert glu.count_odd_irr_gl(6, 3, "+") == gl_count
    assert [sym.WreathOddLabel(*_fields(label)) for label in wreath] == wreath
    with pytest.raises(DomainError):
        sym.WreathOddLabel(4, 1, ((Partition((2, 2)), 1),), (Partition((1,)),))
    assert [theorem_d_star(lam, 4, 3) for lam in census] == wreath
    assert sym.wreath_odd_labels(4, 3) == wreath_labels
    assert [alpha_sn(lam) for lam in census] == thetas
    assert [alpha_sn_inverse(theta) for theta in thetas] == census
    assert [sharp_sn(lam) for lam in census] == sharps
    assert [sharp_sn_inverse(label) for label in sharps] == census
    assert set(sym._hook_census(12)) == set(census)
    assert glu.enumerate_odd_labels(6, 3, "-") == labels
    assert [omega.sharp_glu(label) for label in labels] == images


def test_alpha_inverse_enumeration_n6():
    labels = _all_thetas([4, 2])
    images = {alpha_sn_inverse(theta) for theta in labels}
    assert images == set(odd_partitions(6))
    assert len(images) == 8


# ---------------------------------------------------------------- sharp

def test_hook_bits_roundtrip():
    for e in range(0, 6):
        seen = set()
        for leg in range(1 << e):
            bits = hook_to_bits(e, leg)
            assert len(bits) == e
            assert bits_to_hook(bits) == HookPartition(1 << e, leg)
            seen.add(bits)
        assert len(seen) == 1 << e


def test_sharp_examples():
    assert sharp_sn(Partition((2,))) == SylowLinearLabel(((2, (0,)),))
    label = sharp_sn(Partition((3, 1)))
    group = sylow2_subgroup(4)
    named = tuple(label.value(g) for g in group.generators)
    mults = restriction_multiplicities(Partition((3, 1)), group)
    assert [v for v, m in mults if m % 2] == [named]


def _value_by_index_loop(label, perm):
    """SylowLinearLabel.value as first written, one index per point; the reference."""
    if len(perm) != label.n:
        raise DomainError(f"degree mismatch: {len(perm)} vs {label.n}")
    sign = 1
    offset = 0
    for size, bits in label.blocks:
        local = [perm[offset + i] - offset for i in range(size)]
        if any(not 0 <= x < size for x in local):
            raise DomainError("permutation does not preserve the 2-adic blocks")
        for level_bit in bits:
            reversals = 0
            nxt = []
            for i in range(len(local) // 2):
                a, b = local[2 * i], local[2 * i + 1]
                if a >> 1 != b >> 1:
                    raise DomainError("permutation does not preserve the pair tower")
                reversals ^= a & 1
                nxt.append(a >> 1)
            if level_bit and reversals:
                sign = -sign
            local = nxt
        offset += size
    return sign


def _outcome(value, label, perm):
    try:
        return value(label, perm)
    except DomainError as exc:
        return str(exc)


def _all_sylow_labels(n):
    blocks = [1 << e for e in two_adic(n)]
    levels = [size.bit_length() - 1 for size in blocks]
    for flat in itertools.product((0, 1), repeat=sum(levels)):
        bits, start = [], 0
        for count in levels:
            bits.append(flat[start : start + count])
            start += count
        yield SylowLinearLabel(tuple(zip(blocks, bits)))


def test_sylow_label_value_refusals():
    label = sharp_sn(Partition((5, 1)))  # blocks 4 and 2
    with pytest.raises(DomainError, match="^degree mismatch: 5 vs 6$"):
        label.value((0, 1, 2, 3, 4))
    # 3 and 4 trade places across the blocks {0..3} and {4, 5}
    with pytest.raises(DomainError, match="^permutation does not preserve the 2-adic blocks$"):
        label.value((0, 1, 2, 4, 3, 5))
    # the first block holds, the second reaches below its start
    with pytest.raises(DomainError, match="^permutation does not preserve the 2-adic blocks$"):
        label.value((0, 1, 2, 3, 1, 5))
    # the pair {0, 1} is split
    with pytest.raises(DomainError, match="^permutation does not preserve the pair tower$"):
        label.value((1, 2, 0, 3, 4, 5))
    # pairs kept, but the pairs of pairs {0..3} and {4..7} are not
    label = SylowLinearLabel(((8, (0, 0, 0)),))
    with pytest.raises(DomainError, match="^permutation does not preserve the pair tower$"):
        label.value((0, 1, 4, 5, 2, 3, 6, 7))
    # non-permutations: a repeated entry splits a pair at some level
    for label, perm in [
        (SylowLinearLabel(((2, (1,)),)), (0, 0)),
        (SylowLinearLabel(((2, (1,)),)), (1, 1)),
        (SylowLinearLabel(((4, (1, 1)),)), (0, 1, 1, 0)),
        (SylowLinearLabel(((4, (1, 1)),)), (0, 1, 2, 2)),
        (SylowLinearLabel(((4, (1, 1)),)), (0, 1, 0, 1)),
    ]:
        with pytest.raises(DomainError, match="^permutation does not preserve the pair tower$"):
            label.value(perm)


def test_sylow_label_value_matches_the_index_loop():
    rng = random.Random(12)
    for n in range(1, 13):
        labels = list(_all_sylow_labels(n))
        gens = sylow2_subgroup(n).generators
        products = []
        for _ in range(20):
            perm = tuple(range(n))
            for g in rng.choices(gens, k=rng.randint(1, 12)) if gens else ():
                perm = tuple(g[i] for i in perm)
            products.append(perm)
        # permutations outside the group take each refusal, in the same order
        strangers = [tuple(rng.sample(range(n), n)) for _ in range(20)]
        for label in labels:
            for perm in (*gens, *products, *strangers):
                old = _outcome(_value_by_index_loop, label, perm)
                assert _outcome(SylowLinearLabel.value, label, perm) == old, (label, perm)


def test_one_walk_then_the_sign_equals_value():
    # what _check_sharp does: walk each element once, then read every label's sign off it
    rng = random.Random(28)
    for n in range(1, 13):
        gens = sylow2_subgroup(n).generators
        perms = list(gens)
        for _ in range(20):
            perm = tuple(range(n))
            for g in rng.choices(gens, k=rng.randint(1, 12)) if gens else ():
                perm = tuple(g[i] for i in perm)
            perms.append(perm)
        sizes = [1 << e for e in two_adic(n)]
        walks = [sym._tower_parities(perm, sizes) for perm in perms]
        other = SylowLinearLabel(((1 << n.bit_length(), (0,) * n.bit_length()),))
        with pytest.raises(DomainError, match=f"^degree mismatch: {n} vs {other.n}$"):
            other._signs(walks)
        for label in _all_sylow_labels(n):
            assert label._signs(walks) == tuple(label.value(perm) for perm in perms), label


def _odd_constituents(lam, group):
    """The sharp label on the generators, and the odd-multiplicity linear labels."""
    named = tuple(sharp_sn(lam).value(g) for g in group.generators)
    return named, [v for v, m in restriction_multiplicities(lam, group) if m % 2]


def test_sharp_block_uniqueness_two_powers():
    """Defining property at 2-power degree: unique odd linear multiplicity."""
    for n in (2, 4, 8, 16):
        group = sylow2_subgroup(n)
        seen = set()
        for lam in odd_partitions(n):
            named, odd_at = _odd_constituents(lam, group)
            assert odd_at == [named], lam
            seen.add(named)
        assert len(seen) == n


# The 14 inputs on which criterion 6 (tests/test_acceptance.py) fails by
# design: off 2-power n the odd-multiplicity constituent need not be unique.
SHARP_ORACLE_EXCEPTIONS = {
    (5, (3, 2)), (5, (2, 2, 1)),
    (6, (5, 1)), (6, (4, 2)), (6, (3, 3)), (6, (2, 2, 2)), (6, (2, 2, 1, 1)),
    (6, (2, 1, 1, 1, 1)),
    (7, (5, 1, 1)), (7, (4, 2, 1)), (7, (3, 3, 1)), (7, (3, 2, 2)), (7, (3, 2, 1, 1)),
    (7, (3, 1, 1, 1, 1)),
}


# The rest of the 78 sharp-oracle counterexamples at n <= 12 (the pinned set
# of the sylow benchmark workload); none at the 2-power n = 8.
SHARP_ORACLE_EXCEPTIONS_TO_12 = SHARP_ORACLE_EXCEPTIONS | {
    (9, (7, 2)), (9, (6, 2, 1)), (9, (5, 2, 1, 1)), (9, (4, 2, 1, 1, 1)),
    (9, (3, 2, 1, 1, 1, 1)), (9, (2, 2, 1, 1, 1, 1, 1)),
    (10, (9, 1)), (10, (8, 2)), (10, (7, 3)), (10, (6, 3, 1)), (10, (6, 2, 2)),
    (10, (5, 3, 1, 1)), (10, (5, 2, 2, 1)), (10, (4, 3, 1, 1, 1)), (10, (4, 2, 2, 1, 1)),
    (10, (3, 3, 1, 1, 1, 1)), (10, (3, 2, 2, 1, 1, 1)), (10, (2, 2, 2, 1, 1, 1, 1)),
    (10, (2, 2, 1, 1, 1, 1, 1, 1)), (10, (2, 1, 1, 1, 1, 1, 1, 1, 1)),
    (11, (9, 1, 1)), (11, (8, 2, 1)), (11, (7, 4)), (11, (7, 2, 2)), (11, (6, 4, 1)),
    (11, (5, 4, 1, 1)), (11, (5, 2, 2, 2)), (11, (4, 4, 1, 1, 1)), (11, (4, 2, 2, 2, 1)),
    (11, (3, 3, 1, 1, 1, 1, 1)), (11, (3, 2, 2, 2, 1, 1)), (11, (3, 2, 1, 1, 1, 1, 1, 1)),
    (11, (3, 1, 1, 1, 1, 1, 1, 1, 1)), (11, (2, 2, 2, 2, 1, 1, 1)),
    (12, (11, 1)), (12, (10, 1, 1)), (12, (9, 1, 1, 1)), (12, (8, 4)), (12, (8, 3, 1)),
    (12, (8, 2, 1, 1)), (12, (7, 5)), (12, (7, 3, 2)), (12, (7, 2, 2, 1)), (12, (6, 5, 1)),
    (12, (6, 4, 2)), (12, (6, 2, 2, 2)), (12, (5, 5, 1, 1)), (12, (5, 4, 2, 1)),
    (12, (5, 3, 2, 2)), (12, (4, 4, 2, 1, 1)), (12, (4, 4, 1, 1, 1, 1)), (12, (4, 3, 2, 2, 1)),
    (12, (4, 3, 1, 1, 1, 1, 1)), (12, (4, 2, 2, 2, 2)), (12, (4, 2, 1, 1, 1, 1, 1, 1)),
    (12, (4, 1, 1, 1, 1, 1, 1, 1, 1)), (12, (3, 3, 2, 2, 1, 1)), (12, (3, 3, 2, 1, 1, 1, 1)),
    (12, (3, 2, 2, 2, 2, 1)), (12, (3, 2, 2, 1, 1, 1, 1, 1)),
    (12, (3, 1, 1, 1, 1, 1, 1, 1, 1, 1)), (12, (2, 2, 2, 2, 2, 1, 1)),
    (12, (2, 2, 2, 2, 1, 1, 1, 1)), (12, (2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
}


def test_sharp_oracle_exception_set_pinned():
    bad = set()
    for n in range(2, 13):
        group = sylow2_subgroup(n)
        for lam in odd_partitions(n):
            named, odd_at = _odd_constituents(lam, group)
            if odd_at != [named]:
                bad.add((n, lam.parts))
    assert len(SHARP_ORACLE_EXCEPTIONS_TO_12) == 78
    assert bad == SHARP_ORACLE_EXCEPTIONS_TO_12


def test_sharp_is_constituent_all_n():
    """The sharp label is a constituent of the restriction for every n <= 8.

    Its multiplicity need not be one (at n = 7 four labels occur twice), and
    uniqueness of odd linear multiplicity holds only at 2-power n; composite
    n genuinely have several odd-multiplicity linear constituents.
    """
    for n in range(2, 9):
        group = sylow2_subgroup(n)
        for lam in odd_partitions(n):
            label = sharp_sn(lam)
            named = tuple(label.value(g) for g in group.generators)
            mults = dict(restriction_multiplicities(lam, group))
            assert mults[named] >= 1, (n, lam)


def test_sharp_composite_counterexample_is_real():
    """n = 5, lambda = (3,2): the trivial character has multiplicity exactly 1."""
    group = sylow2_subgroup(5)
    mults = dict(restriction_multiplicities(Partition((3, 2)), group))
    trivial = tuple(1 for _ in group.generators)
    assert mults[trivial] == 1
    odd_count = sum(1 for m in mults.values() if m % 2)
    assert odd_count == 3


def test_sharp_bijective_and_inverse():
    for n in range(1, 13):
        odd = odd_partitions(n)
        labels = {sharp_sn(lam) for lam in odd}
        assert len(labels) == len(odd)
        for lam in odd:
            assert sharp_sn_inverse(sharp_sn(lam)) == lam


# ---------------------------------------------------------------- young star

def test_young_star_examples():
    lam = Partition((2, 2, 1))
    assert young_star(lam, [5]) == [lam]
    assert young_star(Partition((3,)), [1, 2]) == [Partition((1,)), Partition((2,))]
    assert young_star(lam, [1, 4]) == [Partition((1,)), Partition((2, 1, 1))]
    with pytest.raises(DomainError):
        young_star(Partition((2, 2)), [2, 2])  # even character
    with pytest.raises(DomainError):
        young_star(Partition((3, 1)), [2, 2])  # even-index Young subgroup


def test_young_star_bijective():
    for n, blocks in [(3, [1, 2]), (5, [1, 4]), (6, [2, 4]), (7, [1, 2, 4]), (7, [3, 4])]:
        images = set()
        for lam in odd_partitions(n):
            psis = tuple(young_star(lam, blocks))
            for psi, k in zip(psis, blocks):
                assert psi.n == k and is_odd_partition(psi)
            images.add(psis)
        expected = 1
        for k in blocks:
            expected *= count_odd_irr_sn(k)
        assert len(images) == expected == count_odd_irr_sn(n)


def test_young_star_consistent_with_alpha_on_two_power_blocks():
    # splitting along the 2-adic blocks themselves recovers the alpha hooks
    for n in (5, 6, 7, 12):
        blocks = [1 << e for e in two_adic(n)]
        for lam in odd_partitions(n):
            theta = alpha_sn(lam)
            psis = young_star(lam, blocks)
            assert [HookPartition.from_partition(p) for p in psis] == list(theta.hooks)


def test_s7_young_restriction_counterexample():
    """Both degree-35 characters of S_7 have three odd constituents on S_5 x S_2."""
    from oddchar.characters import degree, lr_coefficient

    for lam in (Partition((4, 2, 1)), Partition((3, 2, 1, 1))):
        assert degree(lam) == 35
        count = sum(
            1
            for mu in partitions(5)
            for nu in partitions(2)
            if lr_coefficient(mu, nu, lam) > 0 and degree(mu) * degree(nu) % 2 == 1
        )
        assert count == 3


# ---------------------------------------------------------------- theorem D

def wreath_index_is_odd_by_factorials(k, t):
    """Reference parity: divide (kt)! by k!^t t! exactly."""
    index, rem = divmod(math.factorial(k * t), math.factorial(k) ** t * math.factorial(t))
    assert rem == 0
    return index % 2 == 1


def test_wreath_index_parity():
    assert wreath_index_is_odd(2, 2)
    assert not wreath_index_is_odd(3, 2)
    assert wreath_index_is_odd(2, 3)
    assert wreath_index_is_odd(4, 2)
    assert wreath_index_is_odd(2, 4)
    for k in range(1, 65):
        for t in range(1, 64 // k + 1):
            assert wreath_index_is_odd(k, t) == wreath_index_is_odd_by_factorials(k, t), (k, t)


def test_theorem_d_examples():
    label = theorem_d_star(Partition((4,)), 2, 2)
    assert label.base == ((Partition((2,)), 2),)
    assert label.top == (Partition((2,)),)
    with pytest.raises(DomainError):
        theorem_d_star(Partition((4, 1, 1)), 3, 2)  # even index


def test_theorem_d_bijections():
    for k, t in [(2, 2), (2, 3), (4, 2), (2, 4), (1, 5), (8, 1)]:
        n = k * t
        odd = odd_partitions(n)
        images = [theorem_d_star(lam, k, t) for lam in odd]
        assert len(set(images)) == len(odd)
        target = wreath_odd_labels(k, t)
        assert len(target) == count_odd_irr_sn(n)
        assert set(images) == set(target)


def test_wreath_builders_pass_the_public_constructor():
    # both build WreathOddLabel._trusted; each output must survive every check
    for k in range(1, 17):
        for t in range(1, 16 // k + 1):
            if not wreath_index_is_odd(k, t):
                continue
            images = [theorem_d_star(lam, k, t) for lam in odd_partitions(k * t)]
            for label in wreath_odd_labels(k, t) + images:
                assert sym.WreathOddLabel(*_fields(label)) == label, (k, t, label)


def test_young_and_wreath_stars_build_valid_sylow_factor_labels(monkeypatch):
    # both build their factor labels trusted; each must survive the public constructor
    inverse = sym.sharp_sn_inverse
    seen = []

    def checked(label):
        assert SylowLinearLabel(label.blocks) == label, label
        seen.append(label)
        return inverse(label)

    monkeypatch.setattr(sym, "sharp_sn_inverse", checked)
    for n in range(2, 13):
        for lam in odd_partitions(n):
            for a in range(1, n):
                if a & (n - a) == 0:
                    young_star(lam, [a, n - a])
            for k in range(1, n + 1):
                if n % k == 0 and wreath_index_is_odd(k, n // k):
                    theorem_d_star(lam, k, n // k)
    assert len(seen) > 1000


@pytest.mark.parametrize(
    "k, t, base, top",
    [
        # 3 + 2 carries: C(5, 3) = 10 is even, though the 2-parts 1 < 2 increase
        (2, 5, ((Partition((2,)), 3), (Partition((1, 1)), 2)), (Partition((3,)), Partition((2,)))),
        # no carry, but the 2-parts decrease
        (2, 3, ((Partition((2,)), 2), (Partition((1, 1)), 1)), (Partition((2,)), Partition((1,)))),
    ],
    ids=["carrying", "decreasing"],
)
def test_wreath_label_refuses_multiplicities_of_even_index(k, t, base, top):
    assert all(label.base != base for label in wreath_odd_labels(k, t))
    with pytest.raises(DomainError, match="multiplicities must add without carry"):
        sym.WreathOddLabel(k, t, base, top)


def test_theorem_d_d8_identity():
    # S_2 wr S_2 is the Sylow 2-subgroup of S_4 itself: the correspondent
    # must agree with sharp (base bit from the base pair, top bit from the swap)
    group = sylow2_subgroup(4)
    for lam in odd_partitions(4):
        label = theorem_d_star(lam, 2, 2)
        psi, _ = label.base[0]
        alpha = label.top[0]
        sharp = sharp_sn(lam)
        bits = sharp.blocks[0][1]
        assert psi == sharp_sn_inverse(SylowLinearLabel(((2, bits[:1]),)))
        assert alpha == sharp_sn_inverse(SylowLinearLabel(((2, bits[1:]),)))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_theorem_d_label_wellformed(data):
    k, t = data.draw(st.sampled_from([(2, 2), (2, 3), (4, 2), (2, 4)]))
    lam = data.draw(st.sampled_from(odd_partitions(k * t)))
    label = theorem_d_star(lam, k, t)
    assert label.k == k and label.t == t
    assert sum(ti for _, ti in label.base) == t
