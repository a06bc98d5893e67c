"""Acceptance gate: every numbered criterion at its stated exact bound.

Each test prints one PASS/FAIL line (run with -s to see them live). All
quantities are exact integers; there are no tolerances anywhere.

Criterion 6 states that restriction to a Sylow 2-subgroup has odd
multiplicity exactly at the sharp label for every n <= 8. That is a theorem
for 2-power n and provably false otherwise (at n = 5 the restriction of the
(3,2)-character contains the trivial character exactly once), so the test
reports the genuine failures instead of weakening the claim; see the
module-level tests for the properties that do hold at composite n.
"""

import math

import pytest

from oddchar.characters import (
    branch_restrict,
    degree,
    is_odd_partition,
    lr_coefficient,
    odd_partitions,
)
from oddchar.errors import DomainError
from oddchar.glu import count_odd_irr_gl, enumerate_odd_labels, parabolic_star, sl_label_census
from oddchar.partitions import (
    HookPartition,
    Partition,
    attach_unique_gamma,
    binom_is_odd,
    partitions,
    rim_hooks_of_length,
    two_adic,
)
from oddchar.permgroups import restriction_multiplicities, sylow2_subgroup
from oddchar.sym import (
    alpha_sn,
    alpha_sn_inverse,
    count_odd_irr_sn,
    sharp_sn,
    theorem_d_star,
    wreath_index_is_odd,
    wreath_odd_labels,
)
from oddchar.omega import (
    count_real_odd,
    enumerate_omega_labels,
    galois_act,
    outer_act,
    sharp_glu,
    sharp_glu_inverse,
)


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"{status}: criterion {number:2d} - {detail}")
    if not passed:
        pytest.fail(f"criterion {number}: {detail}")


def test_criterion_01_binomial_parity():
    rows = [[1]]
    for n in range(1, 65):
        prev = rows[-1]
        rows.append([1] + [(prev[i - 1] + prev[i]) % 2 for i in range(1, n)] + [1])
    bad = sum(
        1
        for n in range(65)
        for a in range(n + 1)
        if binom_is_odd(n, a) != (rows[n][a] == 1)
    )
    report(1, bad == 0, f"binom_is_odd vs Pascal mod 2 for all 0 <= a <= n <= 64, {bad} mismatches")


def test_criterion_02_unique_odd_branch():
    checked = 0
    bad = []
    for n in range(2, 13):
        for lam in odd_partitions(n):
            checked += 1
            odd = [mu for mu in branch_restrict(lam) if is_odd_partition(mu)]
            if len(odd) != 1:
                bad.append(lam)
    report(2, not bad, f"unique odd branch for {checked} odd partitions, 2 <= n <= 12; exceptions: {bad}")


def test_criterion_03_hook_constituent_multiplicity_one():
    checked = 0
    bad = []
    for n in range(1, 11):
        for gamma in partitions(n):
            for m in range(1, n + 1):
                for beta, alpha in rim_hooks_of_length(gamma, m):
                    checked += 1
                    if lr_coefficient(alpha, beta.to_partition(), gamma) != 1:
                        bad.append((gamma, m, beta))
    report(3, not bad, f"LR coefficient 1 for all {checked} rim-hook removals, n <= 10; exceptions: {bad}")


def test_criterion_04_unique_attachment():
    checked = 0
    bad = []
    for m in range(2, 9):
        for n in range(m, 2 * m):
            for alpha in partitions(n - m):
                for leg in range(m):
                    beta = HookPartition(m, leg)
                    checked += 1
                    census = [
                        gamma
                        for gamma in partitions(n)
                        for typ, rest in rim_hooks_of_length(gamma, m)
                        if typ == beta and rest == alpha
                    ]
                    if census != [attach_unique_gamma(alpha, beta, n)]:
                        bad.append((alpha, beta, n))
    report(4, not bad, f"unique hook attachment for {checked} (alpha, beta, n) with m <= 8; exceptions: {bad}")


def test_criterion_05_alpha_bijection():
    bad = []
    for n in range(1, 17):
        odd = odd_partitions(n)
        expected = count_odd_irr_sn(n)
        thetas = {alpha_sn(lam) for lam in odd}
        round_trips = all(alpha_sn_inverse(alpha_sn(lam)) == lam for lam in odd)
        if not (len(odd) == expected == len(thetas) and round_trips):
            bad.append(n)
    report(5, not bad, "alpha bijects odd partitions onto the hook tuples, census 2^(sum n_i), n <= 16"
           + (f"; exceptions: {bad}" if bad else ""))


def test_criterion_06_sharp_restriction_parity():
    checked = 0
    bad = []
    for n in range(2, 9):
        group = sylow2_subgroup(n)
        for lam in odd_partitions(n):
            checked += 1
            label = sharp_sn(lam)
            named = tuple(label.value(g) for g in group.generators)
            odd_at = [v for v, m in restriction_multiplicities(lam, group) if m % 2]
            if odd_at != [named]:
                bad.append((n, lam.parts, len(odd_at)))
    report(
        6,
        not bad,
        f"odd multiplicity exactly at the sharp label for {checked} odd partitions, n in 2..8; "
        f"{len(bad)} genuine exceptions (uniqueness holds only at 2-power n; "
        f"first few: {bad[:3]})",
    )


def test_criterion_07_s7_young_counterexample():
    bad = []
    for lam in (Partition((4, 2, 1)), Partition((3, 2, 1, 1))):
        count = sum(
            1
            for mu in partitions(5)
            for nu in partitions(2)
            if lr_coefficient(mu, nu, lam) > 0 and degree(mu) * degree(nu) % 2 == 1
        )
        if degree(lam) != 35 or count != 3:
            bad.append((lam, degree(lam), count))
    report(7, not bad, f"both degree-35 characters of S_7 have exactly 3 odd constituents on S_5 x S_2; exceptions: {bad}")


def test_criterion_08_wreath_correspondence():
    details = []
    ok = True
    for k, t in [(2, 2), (3, 2), (2, 3), (4, 2)]:
        n = k * t
        index, rem = divmod(math.factorial(n), math.factorial(k) ** t * math.factorial(t))
        assert rem == 0
        if index % 2 == 0:
            try:
                theorem_d_star(odd_partitions(n)[0], k, t)
                ok = False
                details.append(f"({k},{t}) even index accepted")
            except DomainError:
                details.append(f"({k},{t}) even index rejected")
            continue
        odd = odd_partitions(n)
        images = [theorem_d_star(lam, k, t) for lam in odd]
        target = wreath_odd_labels(k, t)
        expected = count_odd_irr_sn(n)
        if len(set(images)) == len(odd) == expected and set(images) == set(target):
            details.append(f"({k},{t}) bijective, census {expected}")
        else:
            ok = False
            details.append(f"({k},{t}) NOT bijective")
    report(8, ok, "; ".join(details))


def closed_form_gl(n, q, kappa):
    mod = q - 1 if kappa == "+" else q + 1
    out = 1
    for e in two_adic(n):
        out *= mod << e
    return out


def test_criterion_09_gl_counts():
    bad = []
    checked = 0
    for n in range(1, 9):
        for q in (3, 5, 7, 9):
            for kappa in ("+", "-"):
                checked += 1
                if count_odd_irr_gl(n, q, kappa) != closed_form_gl(n, q, kappa):
                    bad.append((n, q, kappa))
    report(9, not bad, f"label census equals prod (q-kappa1)2^(n_i) for {checked} cases, n <= 8; exceptions: {bad}")


def test_criterion_10_parabolic_bijection():
    bad = []
    for n in (3, 5, 7):
        for q in (3, 5, 7, 9):
            labels = enumerate_odd_labels(n, q, "+")
            outputs = {(c.line, c.rest) for c in map(parabolic_star, labels)}
            expected = (q - 1) * count_odd_irr_gl(n - 1, q, "+")
            if not (len(outputs) == len(labels) == count_odd_irr_gl(n, q, "+") == expected):
                bad.append((n, q))
    report(10, not bad, f"parabolic correspondent bijective with census (q-1)*|odd labels of rank n-1|, odd n <= 7, q <= 9; exceptions: {bad}")


def test_criterion_11_sl_census():
    bad = []
    for n in (3, 5, 7):
        for q in (3, 5, 7, 9):
            total = count_odd_irr_gl(n, q, "+")
            if total % (q - 1) != 0 or sl_label_census(n, q) != total // (q - 1):
                bad.append((n, q))
    report(11, not bad, f"SL census equals GL census / (q-1), odd n <= 7, q <= 9; exceptions: {bad}")


def test_criterion_12_normalizer_bijection_equivariance():
    bad = []
    for n in range(1, 7):
        for q in (3, 5, 9):
            for kappa in ("+", "-"):
                mod = q - 1 if kappa == "+" else q + 1
                labels = enumerate_odd_labels(n, q, kappa)
                images = {sharp_glu(label) for label in labels}
                space = enumerate_omega_labels(n, q, kappa)
                if not (len(images) == len(labels) == len(space) and images == set(space)):
                    bad.append((n, q, kappa, "bijection"))
                    continue
                if any(sharp_glu_inverse(sharp_glu(label)) != label for label in labels):
                    bad.append((n, q, kappa, "round trip"))
                sigmas = [i for i in range(1, mod) if math.gcd(i, mod) == 1]
                for label in labels:
                    image = sharp_glu(label)
                    if any(
                        galois_act(i, image) != sharp_glu(galois_act(i, label))
                        for i in sigmas
                    ):
                        bad.append((n, q, kappa, "galois"))
                        break
                    if outer_act("F", image) != sharp_glu(outer_act("F", label)):
                        bad.append((n, q, kappa, "frobenius"))
                        break
                    if kappa == "+" and outer_act("tau", image) != sharp_glu(
                        outer_act("tau", label)
                    ):
                        bad.append((n, q, kappa, "tau"))
                        break
    report(12, not bad, f"normalizer bijection + Galois/F_p/tau equivariance, n <= 6, q in (3,5,9); exceptions: {bad}")


def test_criterion_13_real_character_count():
    bad = []
    checked = 0
    for n in range(1, 9):
        exps = two_adic(n)
        expected = 1 << (sum(exps) + len(exps))
        for q in (3, 5, 7, 9, 11):
            for kappa in ("+", "-"):
                checked += 1
                if count_real_odd(n, q, kappa) != expected:
                    bad.append((n, q, kappa))
    report(13, not bad, f"conjugation-fixed label count equals 2^(n_1+...+n_r+r) for {checked} cases, n <= 8, q <= 11; exceptions: {bad}")
