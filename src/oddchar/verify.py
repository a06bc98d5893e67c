"""Named verification sweeps over desk-scale parameter ranges.

Each suite re-derives one of the library's guarantees from the independent
oracles and reports counterexamples; a correct build produces failed = 0 in
every suite except sharp-oracle, whose uniqueness clause is known to fail off
2-power degrees (see the sharp-oracle docstring).
"""

import math
import os
from functools import cache, partial

from .errors import DEFAULT_CAP, DomainError, EnumerationCapError, TheoremViolationError
from .partitions import (
    HookPartition,
    Partition,
    attach_unique_gamma,
    check_partition_count,
    partitions,
    rim_hooks_of_length,
)
from .characters import (
    branch_restrict,
    degree,
    is_odd_partition,
    lr_coefficient,
    odd_partitions,
)
from .permgroups import restriction_multiplicities, sylow2_subgroup
from .sym import (
    _tower_parities,
    alpha_sn,
    alpha_sn_inverse,
    count_odd_irr_sn,
    sharp_sn,
    star_sn,
    theorem_d_star,
    wreath_index_is_odd,
    wreath_odd_labels,
)
from .glu import (
    check_label_count,
    count_odd_irr_gl,
    enumerate_odd_labels,
    kappa_q,
    odd_label_count,
    real_label_count,
)
from .omega import (
    count_real_odd,
    enumerate_omega_labels,
    galois_act,
    outer_act,
    sharp_glu,
    sharp_glu_inverse,
)

__all__ = ["VerifyReport", "SUITES", "run_suite"]


class VerifyReport:
    def __init__(self, suite, params):
        self.suite = suite
        self.params = params
        self.checks = self.passed = self.failed = 0
        self.counterexamples = []

    def add(self, checks, counterexamples):
        self.checks += checks
        self.failed += len(counterexamples)
        self.passed += checks - len(counterexamples)
        self.counterexamples.extend(counterexamples)

    def to_json(self):
        return {
            "suite": self.suite,
            "params": self.params,
            "checks": self.checks,
            "passed": self.passed,
            "failed": self.failed,
            "counterexamples": self.counterexamples,
        }


def _sweep(suite, params, items, check, jobs, bound=None):
    """The report of check over items, run on up to jobs worker processes.

    bound(item) raises EnumerationCapError on an item whose work passes the
    cap. Items are bounded as they are listed, so the first one over the cap
    ends the listing, and every item is bounded before any of them runs.
    """
    listed = []
    for item in items:
        if bound is not None:
            bound(item)
        listed.append(item)
    report = VerifyReport(suite, params)
    workers = min(jobs, len(listed), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip this import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(check, listed))
    else:
        results = [check(item) for item in listed]
    for checks, ces in results:
        report.add(checks, ces)
    return report


def _label_sweep(suite, check, max_n, qs, kappas, jobs, bound=check_label_count):
    """A sweep over the (n, q, kappa) grid with n = 1..max_n; bound takes n, q, kappa."""
    items = ((n, q, k) for n in range(1, max_n + 1) for q in qs for k in kappas)
    params = {"max_n": max_n, "q": list(qs), "kappa": list(kappas)}
    return _sweep(suite, params, items, check, jobs, lambda item: bound(*item))


def _check_sn_star(n):
    ces = []
    checks = 0
    for lam in odd_partitions(n):
        checks += 1
        odd = [mu.to_json() for mu in branch_restrict(lam) if is_odd_partition(mu)]
        if len(odd) != 1 or star_sn(lam).to_json() != odd[0]:
            ces.append({"input": lam.to_json(), "expected": "one odd branch", "actual": odd})
    return checks, ces


def suite_sn_star(max_n=12, jobs=1):
    items = range(2, max_n + 1)
    return _sweep("sn-star", {"max_n": max_n}, items, _check_sn_star, jobs, check_partition_count)


def _check_alpha(n):
    ces = []
    odd = odd_partitions(n)
    labels = {}
    for lam in odd:
        try:
            theta = alpha_sn(lam)
        except DomainError:  # a refused oracle-odd partition is a failure, not bad input
            ces.append({"input": lam.to_json(), "expected": "hook tuple", "actual": "refused"})
            continue
        if theta in labels:
            ces.append({"input": lam.to_json(), "expected": "fresh label", "actual": theta.to_json()})
        labels[theta] = lam
        back = alpha_sn_inverse(theta)
        if back != lam:
            ces.append({"input": lam.to_json(), "expected": lam.to_json(), "actual": back.to_json()})
    expected = count_odd_irr_sn(n)
    if len(odd) != expected or len(labels) != expected:
        ces.append({"input": n, "expected": expected, "actual": [len(odd), len(labels)]})
    return len(odd) + 1, ces


def suite_alpha_bij(max_n=16, jobs=1):
    items = range(1, max_n + 1)
    return _sweep("alpha-bij", {"max_n": max_n}, items, _check_alpha, jobs, check_partition_count)


def _check_sharp(n):
    """Odd multiplicity exactly at the sharp label, even elsewhere.

    This is a theorem only for 2-power n; restriction alone does not single
    out the correspondence at composite n (the sharp label is then merely a
    constituent, sometimes of even multiplicity). The sweep states the strong
    claim and reports its genuine failures rather than weakening it.
    """
    ces = []
    checks = 0
    group = sylow2_subgroup(n)
    walks = _generator_walks(n)
    for lam in odd_partitions(n):
        checks += 1
        label = sharp_sn(lam)
        named = label._signs(walks)
        odd_at = [vals for vals, mult in restriction_multiplicities(lam, group) if mult % 2]
        if odd_at != [named]:
            ces.append(
                {
                    "input": lam.to_json(),
                    "expected": [list(named)],
                    "actual": [list(v) for v in odd_at],
                }
            )
    return checks, ces


@cache
def _generator_walks(n):
    """_tower_parities of each generator of sylow2_subgroup(n), in order.

    Made once per degree per process, beside the cached group, and shared by
    every label of every pass, so none may change them. Kept here, not on the
    group: permgroups does not import sym.
    """
    group = sylow2_subgroup(n)
    sizes = [1 << e for e in group.blocks]
    return tuple(_tower_parities(g, sizes) for g in group.generators)


def suite_sharp_oracle(max_n=8, jobs=1):
    items = range(2, max_n + 1)
    return _sweep("sharp-oracle", {"max_n": max_n}, items, _check_sharp, jobs, sylow2_subgroup)


def _check_lemma41(n):
    ces = []
    checks = 0
    for gamma in partitions(n):
        for m in range(1, n + 1):
            for beta, alpha in rim_hooks_of_length(gamma, m):
                checks += 1
                c = lr_coefficient(alpha, beta.to_partition(), gamma)
                if c != 1:
                    ces.append(
                        {
                            "input": [gamma.to_json(), m, alpha.to_json(), beta.to_json()],
                            "expected": 1,
                            "actual": c,
                        }
                    )
    return checks, ces


def suite_lemma41(max_n=10, jobs=1):
    items = range(1, max_n + 1)
    return _sweep("lemma41", {"max_n": max_n}, items, _check_lemma41, jobs, check_partition_count)


def _check_lemma42(m):
    ces = []
    checks = 0
    for n in range(m, 2 * m):
        # brute-force census: every gamma of n, by (hook type, remainder), in partitions(n) order
        found = {}
        for gamma in partitions(n):
            for pair in rim_hooks_of_length(gamma, m):
                found.setdefault(pair, []).append(gamma)
        for alpha in partitions(n - m):
            for leg in range(m):
                beta = HookPartition(m, leg)
                checks += 1
                census = found.get((beta, alpha), [])
                built = attach_unique_gamma(alpha, beta, n)
                if census != [built]:
                    ces.append(
                        {
                            "input": [alpha.to_json(), beta.to_json(), n],
                            "expected": built.to_json(),
                            "actual": [g.to_json() for g in census],
                        }
                    )
    return checks, ces


def suite_lemma42(max_n=8, jobs=1):
    bound = lambda m: check_partition_count(2 * m - 1)  # item m lists the partitions of m..2m-1
    return _sweep("lemma42", {"max_m": max_n}, range(2, max_n + 1), _check_lemma42, jobs, bound)


def _check_s7(lam_parts):
    lam = Partition(lam_parts)
    constituents = 0
    for mu in partitions(5):
        for nu in partitions(2):
            if lr_coefficient(mu, nu, lam) > 0 and degree(mu) * degree(nu) % 2 == 1:
                constituents += 1
    ces = []
    if degree(lam) != 35 or constituents != 3:
        ces.append(
            {"input": lam.to_json(), "expected": [35, 3], "actual": [degree(lam), constituents]}
        )
    return 1, ces


def suite_s7_counterexample(jobs=1):
    return _sweep("s7-counterexample", {}, [(4, 2, 1), (3, 2, 1, 1)], _check_s7, jobs)


def _check_theorem_d(pair):
    k, t = pair
    ces = []
    odd = odd_partitions(k * t)
    images = [theorem_d_star(lam, k, t) for lam in odd]
    target = wreath_odd_labels(k, t)
    if len(set(images)) != len(odd):
        ces.append({"input": [k, t], "expected": "injective", "actual": len(set(images))})
    if set(images) != set(target) or len(target) != count_odd_irr_sn(k * t):
        ces.append(
            {
                "input": [k, t],
                "expected": ["onto", count_odd_irr_sn(k * t)],
                "actual": [len(set(images) & set(target)), len(target)],
            }
        )
    return len(odd) + 1, ces


def suite_theorem_d(max_n=8, jobs=1):
    # each pair lists the partitions of k*t; the first over the cap ends the listing
    pairs = []
    for k in range(1, max_n + 1):
        for t in range(2, max_n // k + 1):
            if wreath_index_is_odd(k, t):
                check_partition_count(k * t)
                pairs.append((k, t))
    return _sweep("theoremD", {"max_n": max_n, "pairs": pairs}, pairs, _check_theorem_d, jobs)


def _check_count(count, closed_form, item):
    """An enumerated count against its closed form at one (n, q, kappa)."""
    actual, expected = count(*item), closed_form(*item)
    if actual != expected:
        return 1, [{"input": list(item), "expected": expected, "actual": actual}]
    return 1, []


def suite_gl_counts(max_n=8, qs=(3, 5, 7, 9), kappas=("+", "-"), jobs=1):
    # made per run, not at import, so that a wrapper set on either name is called
    check = partial(_check_count, count_odd_irr_gl, odd_label_count)
    return _label_sweep("gl-counts", check, max_n, qs, kappas, jobs)


def _check_omega_bij(item):
    n, q, kappa = item
    ces = []
    labels = enumerate_odd_labels(n, q, kappa)
    table = {label: sharp_glu(label) for label in labels}
    images = set(table.values())
    space = enumerate_omega_labels(n, q, kappa)
    if len(images) != len(labels) or images != set(space):
        ces.append(
            {
                "input": [n, q, kappa],
                "expected": ["bijective", len(space)],
                "actual": [len(images), len(labels)],
            }
        )
    for omega in space:
        try:
            inverse = sharp_glu_inverse(omega)
        except TheoremViolationError:  # the inverse checks its own round trip
            inverse = None
        if table.get(inverse) != omega:
            ces.append({"input": omega.to_json(), "expected": "round trip", "actual": "failed"})
    return len(labels) + len(space), ces


def suite_omega_bij(max_n=6, qs=(3, 5, 9), kappas=("+", "-"), jobs=1):
    return _label_sweep("omega-bij", _check_omega_bij, max_n, qs, kappas, jobs)


def _actions(q, kappa):
    """The units of Z/modulus and the outer words that the equivariance sweep applies."""
    mod = kappa_q(kappa, q).modulus
    sigmas = [i for i in range(1, mod) if math.gcd(i, mod) == 1]
    return sigmas, ["F"] + (["tau"] if kappa == "+" else [])


def _bound_equivariance(n, q, kappa):
    """Raise when the labels of an item times its actions pass the cap."""
    check_label_count(n, q, kappa)  # there are at least modulus labels: bounds the units listed
    sigmas, words = _actions(q, kappa)
    labels = odd_label_count(n, q, kappa)
    work = labels * (len(sigmas) + len(words))
    if work > DEFAULT_CAP:
        raise EnumerationCapError(
            f"{labels} labels of rank {n} x {len(sigmas) + len(words)} actions"
            f" = {work} checks > cap {DEFAULT_CAP}"
        )


def _check_equivariance(item):
    n, q, kappa = item
    ces = []
    checks = 0
    sigmas, words = _actions(q, kappa)
    # the actions permute the enumerated labels; a miss is a counterexample
    table = {label: sharp_glu(label) for label in enumerate_odd_labels(n, q, kappa)}
    for label, image in table.items():
        for i in sigmas:
            checks += 1
            if galois_act(i, image) != table.get(galois_act(i, label)):
                ces.append({"input": [label.to_json(), i], "expected": "commute", "actual": "galois"})
        for word in words:
            checks += 1
            if outer_act(word, image) != table.get(outer_act(word, label)):
                ces.append({"input": [label.to_json(), word], "expected": "commute", "actual": "outer"})
    return checks, ces


def suite_galois_equivariance(max_n=6, qs=(3, 5, 9), kappas=("+", "-"), jobs=1):
    return _label_sweep(
        "galois-equivariance", _check_equivariance, max_n, qs, kappas, jobs, _bound_equivariance
    )


def suite_corollary_f(max_n=8, qs=(3, 5, 7, 9, 11), kappas=("+", "-"), jobs=1):
    check = partial(_check_count, count_real_odd, real_label_count)
    return _label_sweep("corollaryF", check, max_n, qs, kappas, jobs)


SUITES = {
    "sn-star": suite_sn_star,
    "alpha-bij": suite_alpha_bij,
    "sharp-oracle": suite_sharp_oracle,
    "lemma41": suite_lemma41,
    "lemma42": suite_lemma42,
    "s7-counterexample": suite_s7_counterexample,
    "theoremD": suite_theorem_d,
    "gl-counts": suite_gl_counts,
    "omega-bij": suite_omega_bij,
    "galois-equivariance": suite_galois_equivariance,
    "corollaryF": suite_corollary_f,
}


# The CLI flag of each option that some suites do not take (every suite takes jobs).
_FLAGS = {"max_n": "--max-n", "qs": "--q", "kappas": "--kappa"}


def run_suite(name, **kwargs):
    """The report of one suite; an option it does not take raises DomainError."""
    suite = SUITES[name]
    takes = suite.__code__.co_varnames[: suite.__code__.co_argcount]
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    unread = [_FLAGS.get(k, k) for k in kwargs if k not in takes]
    if unread:
        raise DomainError(f"verify {name} takes no {', '.join(unread)}")
    return suite(**kwargs)
