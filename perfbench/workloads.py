"""Workload inputs: the fixed sweep grids and the seeded CLI query mix.

Input generation here is self-contained integer combinatorics and never calls
oddchar, so the program under test only ever receives the generated inputs.
"""

import random
from functools import cache

# Sweep workloads: (suite, run_suite keyword arguments) per pass, in order.
# A cold pass takes about 1-2 s here, so one run holds several fresh interpreters:
# host speed drifts by up to a quarter over seconds, and a median over several
# short passes is steadier than one or two long ones.
SWEEPS = {
    "sylow": [
        ("sharp-oracle", {"max_n": 12}),
    ],
    "substrate": [
        ("lemma42", {"max_n": 7}),
        ("alpha-bij", {"max_n": 28}),
        ("sn-star", {"max_n": 28}),
        ("lemma41", {"max_n": 13}),
    ],
    "labels": [
        ("galois-equivariance", {"max_n": 5, "qs": (3, 5, 9)}),
        ("omega-bij", {"max_n": 4, "qs": (3, 5, 9, 17)}),
        ("corollaryF", {"max_n": 6, "qs": (3, 5, 7, 9, 11)}),
        ("gl-counts", {"max_n": 7, "qs": (3, 5, 7, 9)}),
    ],
}
WORKLOADS = tuple(SWEEPS) + ("cli",)

# The CLI mix has a fixed composition at every seed; the seed only picks the
# parameters of point and malformed queries and the order of the whole mix.
POINT_KINDS = (
    "star", "alpha", "sharp", "young-star", "wreath-star",
    "parabolic-star", "sharp-glu", "levi-star", "count-sn",
)
POINTS_PER_KIND = 9
# Enumeration-bound counts: the tail of the latency distribution.
# None takes much over 0.2 s in-process, so no single query dominates a round
# (count real at n = 7 with q = 13 or 17 took 0.35-0.6 s, half of a round).
HEAVY = (
    ("real", 7, 7, "+"), ("real", 7, 5, "-"), ("real", 7, 11, "+"),
    ("real", 6, 17, "-"), ("real", 6, 13, "+"), ("real", 5, 25, "+"),
    ("real", 7, 9, "-"), ("gl", 7, 11, "-"), ("gl", 7, 9, "+"),
    ("gl", 6, 11, "+"), ("gl", 7, 7, "+"), ("gl", 6, 13, "-"),
    ("gl", 7, 9, "-"),
)
VERIFIES = (("sn-star", 10), ("theoremD", 8))
# Known CLI defect: these pair texts crash with a traceback and exit 1 instead
# of the documented usage exit 2. They stay in every mix so the defect shows.
DEFECT_PAIRS = ("s1", "s=a:l=1")
DEFECTS_PER_TEXT = 2
OTHER_MALFORMED = (
    "even-star", "increasing", "non-integer", "missing-q", "even-young",
    "even-wreath", "bad-q", "unknown-command", "zero-n", "unknown-suite",
)

QS = (3, 5, 7, 9, 11, 13, 17)


def two_adic(n):
    """Exponents of the set bits of n, descending."""
    return [e for e in range(n.bit_length() - 1, -1, -1) if (n >> e) & 1]


def nu2_factorial(n):
    return n - bin(n).count("1")


def partitions(n, max_part=None):
    max_part = n if max_part is None else max_part
    if n == 0:
        return [()]
    return [
        (head,) + tail
        for head in range(min(n, max_part), 0, -1)
        for tail in partitions(n - head, head)
    ]


def is_odd(parts):
    """Odd degree by 2-adic valuation of the hook-length formula."""
    n = sum(parts)
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    hooks = 0
    for i, p in enumerate(parts):
        for j in range(p):
            h = p - j + conj[j] - i - 1
            hooks += (h & -h).bit_length() - 1
    return hooks == nu2_factorial(n)


@cache
def odd_partitions(n):
    return tuple(p for p in partitions(n) if is_odd(p))


def digit_groupings(n):
    """Set partitions of the binary digits of n, as lists of group sizes."""
    out = [[]]
    for e in two_adic(n):
        nxt = []
        for groups in out:
            nxt.append(groups + [1 << e])
            for i in range(len(groups)):
                nxt.append(groups[:i] + [groups[i] + (1 << e)] + groups[i + 1:])
        out = nxt
    return out


def wreath_index_is_odd(k, t):
    return nu2_factorial(k * t) == t * nu2_factorial(k) + nu2_factorial(t)


WREATH_PAIRS = [
    (k, t)
    for k in range(1, 17)
    for t in range(2, 17)
    if k * t <= 16 and wreath_index_is_odd(k, t)
]


def modulus(q, kappa):
    return q - 1 if kappa == "+" else q + 1


def _parts_text(parts):
    return ",".join(map(str, parts))


def _pairs_text(pairs):
    return ";".join(f"s={s}:l={_parts_text(lam)}" for s, lam in pairs)


def _odd(rng, n):
    return rng.choice(odd_partitions(n))


def _label(rng, n, q, kappa):
    """A uniformly drawn digit grouping, distinct residues and odd parts."""
    mod = modulus(q, kappa)
    sizes = rng.choice([g for g in digit_groupings(n) if len(g) <= mod])
    residues = rng.sample(range(mod), len(sizes))
    return [(s, _odd(rng, k)) for s, k in zip(residues, sizes)]


def _split_blocks(rng, n):
    """Odd-index block sizes: at least two groups of the binary digits of n."""
    blocks = rng.choice([g for g in digit_groupings(n) if len(g) >= 2])
    rng.shuffle(blocks)
    return blocks


def _non_two_power(rng, lo, hi):
    return rng.choice([n for n in range(lo, hi + 1) if n & (n - 1)])


def _point(rng, kind):
    if kind in ("star", "alpha", "sharp"):
        n = rng.randint(2 if kind == "star" else 1, 20)
        lam = _odd(rng, n)
        return {"argv": [kind, _parts_text(lam)], "lam": lam}
    if kind == "young-star":
        n = _non_two_power(rng, 3, 20)
        lam, blocks = _odd(rng, n), _split_blocks(rng, n)
        return {"argv": [kind, _parts_text(lam), "--blocks", _parts_text(blocks)],
                "lam": lam, "blocks": blocks}
    if kind == "wreath-star":
        k, t = rng.choice(WREATH_PAIRS)
        lam = _odd(rng, k * t)
        return {"argv": [kind, _parts_text(lam), "--k", str(k), "--t", str(t)],
                "lam": lam, "k": k, "t": t}
    if kind in ("parabolic-star", "sharp-glu", "levi-star"):
        kappa = "+" if kind == "parabolic-star" else rng.choice("+-")
        q = rng.choice(QS)
        if kind == "levi-star":
            n = _non_two_power(rng, 3, 8)
        else:
            n = rng.randint(2 if kind == "parabolic-star" else 1, 8)
        pairs = _label(rng, n, q, kappa)
        query = {"argv": [kind, "--kappa", kappa, "--q", str(q), "--pairs", _pairs_text(pairs)],
                 "kappa": kappa, "q": q, "pairs": pairs}
        if kind == "levi-star":
            query["blocks"] = _split_blocks(rng, n)
            query["argv"] += ["--blocks", _parts_text(query["blocks"])]
        return query
    n = rng.randint(1, 5000)
    return {"argv": ["count", "sn", "--n", str(n)], "target": "sn", "n": n}


def _malformed(rng, kind):
    if kind == "even-star":
        n = rng.randint(3, 12)
        lam = rng.choice([p for p in partitions(n) if not is_odd(p)])
        return ["star", _parts_text(lam)]
    if kind == "increasing":
        a = rng.randint(1, 5)
        return ["alpha", f"{a},{a + rng.randint(1, 5)}"]
    if kind == "non-integer":
        return [rng.choice(("star", "sharp")), rng.choice(("x", "2,a", "3.5"))]
    if kind == "missing-q":
        return ["count", rng.choice(("gl", "real")), "--n", str(rng.randint(1, 8))]
    if kind == "even-young":
        n = rng.choice((4, 6, 8))
        return ["young-star", _parts_text(_odd(rng, n)), "--blocks", f"{n // 2},{n // 2}"]
    if kind == "even-wreath":
        return ["wreath-star", _parts_text(_odd(rng, 6)), "--k", "3", "--t", "2"]
    if kind == "bad-q":
        return ["sharp-glu", "--q", str(rng.choice((4, 6, 15, 21))), "--pairs", "s=0:l=1"]
    if kind == "unknown-command":
        return [rng.choice(("frobnicate", "stars", "count-sn"))]
    if kind == "zero-n":
        return ["count", "sn", "--n", str(-rng.randint(0, 3))]
    return ["verify", rng.choice(("nosuch", "lemma43", "sharp"))]


def _defect(rng, text):
    cmd = rng.choice(("parabolic-star", "sharp-glu", "levi-star"))
    argv = [cmd, "--q", str(rng.choice(QS)), "--pairs", text]
    return argv + (["--blocks", "1,2"] if cmd == "levi-star" else [])


def cli_mix(seed):
    """The seeded query mix: each entry has a kind, argv and expected exit code."""
    rng = random.Random(seed)
    mix = []
    for kind in POINT_KINDS:
        for _ in range(POINTS_PER_KIND):
            mix.append(dict(_point(rng, kind), kind=kind, expect=0))
    for target, n, q, kappa in HEAVY:
        argv = ["count", target, "--n", str(n), "--q", str(q), "--kappa", kappa]
        mix.append({"kind": "count-" + target, "argv": argv, "expect": 0,
                    "target": target, "n": n, "q": q, "kappa": kappa})
    for suite, max_n in VERIFIES:
        mix.append({"kind": "verify", "argv": ["verify", suite, "--max-n", str(max_n)],
                    "expect": 0})
    for text in DEFECT_PAIRS:
        for _ in range(DEFECTS_PER_TEXT):
            mix.append({"kind": "malformed", "argv": _defect(rng, text), "expect": 2})
    for kind in OTHER_MALFORMED:
        mix.append({"kind": "malformed", "argv": _malformed(rng, kind), "expect": 2})
    rng.shuffle(mix)
    return mix
