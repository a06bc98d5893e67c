import gc
import math

import pytest

from oddchar import cli, omega, verify
from oddchar.errors import DomainError
from oddchar.partitions import HookPartition, Partition, two_adic
from oddchar.glu import GLabel, enumerate_odd_labels
from oddchar.omega import (
    OmegaLabel,
    count_real_odd,
    enumerate_omega_labels,
    galois_act,
    outer_act,
    sharp_glu,
    sharp_glu_inverse,
)
from oddchar.sym import ThetaLabel, wreath_odd_labels


def test_sharp_glu_examples():
    om = sharp_glu(GLabel("+", 3, ((1, Partition((1,))),)))
    assert om.blocks == ((1, 1, HookPartition(1, 0)),)

    om = sharp_glu(GLabel("+", 3, ((1, Partition((2,))),)))
    assert om.blocks == ((2, 1, HookPartition(2, 0)),)

    om = sharp_glu(GLabel("+", 3, ((0, Partition((1,))), (1, Partition((2,))))))
    assert om.blocks == ((2, 1, HookPartition(2, 0)), (1, 0, HookPartition(1, 0)))


def test_sharp_glu_inverse_examples():
    om = OmegaLabel("+", 3, ((2, 1, HookPartition(2, 0)), (1, 1, HookPartition(1, 0))))
    label = sharp_glu_inverse(om)
    assert label.pairs == ((1, Partition((3,))),)

    om = OmegaLabel("+", 3, ((2, 1, HookPartition(2, 0)), (1, 0, HookPartition(1, 0))))
    label = sharp_glu_inverse(om)
    assert label.pairs == ((0, Partition((1,))), (1, Partition((2,))))


def test_sharp_glu_bijective():
    for n in range(1, 9):
        for q in (3, 5, 9):
            for kappa in ("+", "-"):
                labels = enumerate_odd_labels(n, q, kappa)
                images = {sharp_glu(label) for label in labels}
                space = enumerate_omega_labels(n, q, kappa)
                assert len(images) == len(labels) == len(space)
                assert images == set(space)
    for q, kappa in [(3, "+"), (5, "-")]:
        for n in range(1, 8):
            for label in enumerate_odd_labels(n, q, kappa):
                assert sharp_glu_inverse(sharp_glu(label)) == label


def test_galois_act_examples():
    label = GLabel("+", 9, ((3, Partition((2,))),))
    assert galois_act(1, label) == label
    conj = galois_act(-1, label)
    assert conj.pairs == ((5, Partition((2,))),)
    cubed = outer_act("F", label)
    assert cubed.pairs == ((1, Partition((2,))),)  # 3*3 = 9 = 1 mod 8
    with pytest.raises(DomainError):
        galois_act(2, label)


def test_outer_act_examples():
    label = GLabel("+", 3, ((1, Partition((2,))),))
    assert outer_act("F F", label).pairs == ((1, Partition((2,))),)  # s -> s^9 = s mod 2
    assert outer_act("tau tau", label) == label
    assert outer_act("tau F", label) == outer_act("F tau", label)
    gu = GLabel("-", 3, ((1, Partition((2,))),))
    with pytest.raises(DomainError):
        outer_act("tau", gu)


def test_actions_refuse_non_labels_before_reading_them():
    for act in (lambda x: galois_act(3, x), lambda x: outer_act("F", x)):
        for x in (5, Partition((1,)), ThetaLabel((HookPartition(1, 0),))):
            with pytest.raises(DomainError, match=f"cannot act on {type(x).__name__}"):
                act(x)


def _word_exponent(word, mod, p):
    e = 1
    for gen in word.split():
        e = e * (p if gen == "F" else -1) % mod
    return e


def test_actions_multiply_residues_by_the_unit():
    # pins the values, not only commutation: an identity action commutes too
    for q, p in [(3, 3), (5, 5), (9, 3)]:
        for kappa in ("+", "-"):
            mod = q - 1 if kappa == "+" else q + 1
            units = [i for i in range(-mod, 2 * mod) if math.gcd(i, mod) == 1]
            words = ["F", "F F"] + (["tau", "F tau"] if kappa == "+" else [])
            moves = [(galois_act, i, i) for i in units]
            moves += [(outer_act, w, _word_exponent(w, mod, p)) for w in words]
            for n in range(1, 6):
                for label in enumerate_odd_labels(n, q, kappa):
                    for act, arg, e in moves:
                        pairs = [((s * e) % mod, lam) for s, lam in label.pairs]
                        assert act(arg, label) == GLabel(kappa, q, pairs)
                for omega in enumerate_omega_labels(n, q, kappa):
                    for act, arg, e in moves:
                        blocks = tuple((size, (s * e) % mod, h) for size, s, h in omega.blocks)
                        assert act(arg, omega) == OmegaLabel(kappa, q, blocks)


def test_equivariance_sweep():
    for n in range(1, 7):
        for q, kappa in [(3, "+"), (3, "-"), (5, "+"), (5, "-"), (9, "+"), (9, "-")]:
            mod = q - 1 if kappa == "+" else q + 1
            sigmas = [i for i in range(1, mod) if math.gcd(i, mod) == 1]
            for label in enumerate_odd_labels(n, q, kappa):
                image = sharp_glu(label)
                for i in sigmas:
                    assert galois_act(i, image) == sharp_glu(galois_act(i, label))
                assert outer_act("F", image) == sharp_glu(outer_act("F", label))
                if kappa == "+":
                    assert outer_act("tau", image) == sharp_glu(outer_act("tau", label))


def test_sharp_glu_refuses_non_odd_labels_as_domain_errors():
    for pairs in [
        ((0, Partition((1,))), (1, Partition((1,)))),  # the sizes carry
        ((0, Partition((2, 2))),),  # an even partition
        ((0, Partition((2,))), (1, Partition((2,)))),
        ((0, Partition((3,))), (1, Partition((2, 1)))),  # odd partitions, sizes carry
        (),
    ]:
        # a TheoremViolationError is no DomainError, so it would escape and fail the test
        with pytest.raises(DomainError):
            sharp_glu(GLabel("+", 3, pairs))


def _leave_the_labels(act):
    """act, but a label's first partition is swapped for one of no enumerated label."""

    def patched(arg, x):
        moved = act(arg, x)
        if isinstance(moved, GLabel):
            (s, _), *rest = moved.pairs
            return GLabel(x.kappa, x.q, ((s, Partition((2, 2))), *rest))
        return moved

    return patched


def test_equivariance_reports_an_action_that_leaves_the_labels(monkeypatch):
    item = (3, 3, "+")  # 8 labels; units {1}; words F, tau
    assert verify._check_equivariance(item) == (24, [])
    monkeypatch.setattr(verify, "galois_act", _leave_the_labels(galois_act))
    checks, ces = verify._check_equivariance(item)
    assert checks == 24 and len(ces) == 8
    assert {ce["actual"] for ce in ces} == {"galois"}
    monkeypatch.setattr(verify, "galois_act", galois_act)
    monkeypatch.setattr(verify, "outer_act", _leave_the_labels(outer_act))
    checks, ces = verify._check_equivariance(item)
    assert checks == 24 and len(ces) == 16
    assert {ce["actual"] for ce in ces} == {"outer"}


def test_omega_bij_reports_an_inverse_that_leaves_the_labels(monkeypatch):
    item = (3, 3, "+")
    assert verify._check_omega_bij(item) == (16, [])

    def astray(omega):
        label = sharp_glu_inverse(omega)
        (s, _), *rest = label.pairs
        return GLabel(label.kappa, label.q, ((s, Partition((2, 2))), *rest))

    monkeypatch.setattr(verify, "sharp_glu_inverse", astray)
    checks, ces = verify._check_omega_bij(item)
    assert checks == 16 and len(ces) == 8
    assert {ce["expected"] for ce in ces} == {"round trip"}


def test_omega_bij_reports_a_failed_round_trip(monkeypatch, capsys):
    inverse = omega.alpha_sn_inverse

    def planted(theta):  # (1, 1, 1) comes back as (3)
        lam = inverse(theta)
        return Partition((3,)) if lam == Partition((1, 1, 1)) else lam

    monkeypatch.setattr(omega, "alpha_sn_inverse", planted)
    report = verify.run_suite("omega-bij", max_n=3, qs=(3,))
    assert report.failed > 0
    assert {ce["expected"] for ce in report.to_json()["counterexamples"]} == {"round trip"}
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "omega-bij", "--max-n", "3", "--q", "3"])
    assert info.value.code == 1
    assert capsys.readouterr().err == ""


def test_count_real_examples():
    assert count_real_odd(1, 3, "+") == 2
    assert count_real_odd(2, 3, "+") == 4
    assert count_real_odd(3, 3, "+") == 8
    assert count_real_odd(2, 3, "-") == 4  # Sylow-normalizer count 2^{m+1} at m=1


def test_count_real_closed_form():
    for n in range(1, 9):
        exps = two_adic(n)
        expected = 1 << (sum(exps) + len(exps))
        for q in (3, 5, 7, 9, 11):
            for kappa in ("+", "-"):
                assert count_real_odd(n, q, kappa) == expected


def test_conjugation_fixed_labels_are_galois_fixed():
    for q, kappa in [(5, "+"), (3, "-")]:
        mod = q - 1 if kappa == "+" else q + 1
        sigmas = [i for i in range(1, mod) if math.gcd(i, mod) == 1]
        for omega in enumerate_omega_labels(6, q, kappa):
            if galois_act(-1, omega) != omega:
                continue
            assert all((2 * s) % mod == 0 for _, s, _ in omega.blocks)
            for i in sigmas:
                assert galois_act(i, omega) == omega


def test_enumerations_leave_no_reference_cycles():
    # enumerated labels are freed by reference counting, so peak memory does
    # not wait on the cycle collector
    gc.collect()
    gc.disable()
    try:
        enumerate_odd_labels(3, 5, "+")
        enumerate_omega_labels(3, 5, "-")
        wreath_odd_labels(4, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
