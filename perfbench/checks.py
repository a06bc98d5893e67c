"""Output checks for every operation the benchmark times.

An operation is one run_suite call or one CLI invocation. Its outcome is one
of OK, FAILED (it raised, exited with another code than the documented one,
wrote a traceback, or gave a wrong answer) or WRONG, the subset of FAILED
where the program reported success but its answer is not the expected one.
Sweeps compare against report digests recorded in expected.json; CLI answers
are checked for any seed by an oracle, an inverse map or a closed form.
"""

import hashlib
import json
from pathlib import Path

from oddchar.characters import branch_restrict, is_odd_partition
from oddchar.errors import OddcharError
from oddchar.glu import GLabel, is_odd_label
from oddchar.omega import OmegaLabel, sharp_glu, sharp_glu_inverse
from oddchar.partitions import Partition
from oddchar.sym import (
    SylowLinearLabel,
    ThetaLabel,
    WreathOddLabel,
    alpha_sn_inverse,
    sharp_sn,
    sharp_sn_inverse,
    wreath_odd_labels,
)

from workloads import modulus, two_adic

OK, FAILED, WRONG = "ok", "failed", "wrong"
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def report_text(report_json):
    """The exact bytes `oddchar verify` prints for a report."""
    return json.dumps(report_json, sort_keys=True, separators=(",", ":"))


def sharp_counterexamples(report_json):
    """The sharp-oracle counterexample set as sorted [n, parts] pairs."""
    return sorted([sum(ce["input"]), ce["input"]] for ce in report_json["counterexamples"])


def check_sweep_op(workload, op):
    """op: {"suite", "raised", "digest", "sharp_ces"} as a worker returns it."""
    if op["raised"]:
        return FAILED
    if op["digest"] != EXPECTED["sweeps"][workload][op["suite"]]:
        return WRONG
    if op["suite"] == "sharp-oracle" and op["sharp_ces"] != EXPECTED["sharp_oracle_counterexamples"]:
        return WRONG
    return OK


def _unique_odd_branch(lam):
    odd = [mu for mu in branch_restrict(lam) if is_odd_partition(mu)]
    return odd[0] if len(odd) == 1 else None


def _json_int(value):
    return value if abs(value) <= (1 << 53) else str(value)


def _closed_count(query):
    digits = two_adic(query["n"])
    if query["target"] == "sn":
        return 1 << sum(digits)
    if query["target"] == "real":
        return 1 << (sum(digits) + len(digits))
    count = 1
    for e in digits:
        count *= modulus(query["q"], query["kappa"]) << e
    return count


def _glabel(query):
    pairs = tuple((s, Partition(lam)) for s, lam in query["pairs"])
    return GLabel(query["kappa"], query["q"], pairs)


def _merge_blocks(labels):
    return tuple(sorted((b for label in labels for b in label.blocks), key=lambda b: -b[0]))


def _wreath_inverse(lam, out):
    """Rebuild the Sylow label of lam from a wreath-star answer (t >= 2)."""
    k = out["k"]
    c = k.bit_length() - 1
    blocks = []
    for entry, alpha in zip(out["base"], out["top"]):
        base_bits = sharp_sn(Partition(entry["psi"])).blocks[0][1] if c else ()
        for size, bits in sharp_sn(Partition(alpha)).blocks:
            blocks.append((k * size, base_bits + bits))
    return tuple(sorted(blocks, key=lambda b: -b[0])) == sharp_sn(lam).blocks


def _star(query, out):
    return out == {"result": list(_unique_odd_branch(Partition(query["lam"])).parts)}


def _alpha(query, out):
    return alpha_sn_inverse(ThetaLabel.from_json(out["theta"])).parts == tuple(query["lam"])


def _sharp(query, out):
    label = SylowLinearLabel.from_json(out["label"])
    return sharp_sn_inverse(label).parts == tuple(query["lam"])


def _young_star(query, out):
    factors = [Partition(f) for f in out["factors"]]
    return (
        [f.n for f in factors] == query["blocks"]
        and all(is_odd_partition(f) for f in factors)
        and _merge_blocks([sharp_sn(f) for f in factors])
        == sharp_sn(Partition(query["lam"])).blocks
    )


def _wreath_star(query, out):
    k, t = query["k"], query["t"]
    label = WreathOddLabel(
        k, t,
        tuple((Partition(b["psi"]), b["t"]) for b in out["base"]),
        tuple(Partition(a) for a in out["top"]),
    )
    return label in set(wreath_odd_labels(k, t)) and _wreath_inverse(Partition(query["lam"]), out)


def _parabolic_star(query, out):
    pairs = [(s, tuple(lam)) for s, lam in query["pairs"]]
    s1, lam1 = min(pairs, key=lambda p: sum(p[1]) & -sum(p[1]))
    rest = [p for p in pairs if p[0] != s1]
    if sum(lam1) > 1:
        rest.append((s1, _unique_odd_branch(Partition(lam1)).parts))
    return out == {
        "line": {"s": s1, "lambda": [1]},
        "rest": {"kappa": "+", "q": query["q"],
                 "pairs": [{"s": s, "lambda": list(lam)} for s, lam in sorted(rest)]},
    }


def _sharp_glu(query, out):
    return sharp_glu_inverse(OmegaLabel.from_json(out)) == _glabel(query)


def _levi_star(query, out):
    factors = [GLabel.from_json(f) for f in out["factors"]]
    return (
        [f.n for f in factors] == query["blocks"]
        and all(is_odd_label(f) for f in factors)
        and _merge_blocks([sharp_glu(f) for f in factors]) == sharp_glu(_glabel(query)).blocks
    )


def _count(query, out):
    return out == {"count": _json_int(_closed_count(query))}


ANSWER_CHECKS = {
    "star": _star,
    "alpha": _alpha,
    "sharp": _sharp,
    "young-star": _young_star,
    "wreath-star": _wreath_star,
    "parabolic-star": _parabolic_star,
    "sharp-glu": _sharp_glu,
    "levi-star": _levi_star,
    "count-sn": _count,
    "count-gl": _count,
    "count-real": _count,
}


def check_cli_op(query, code, stdout, stderr):
    """Outcome of one CLI invocation against its documented behaviour."""
    if code != query["expect"] or "Traceback" in stderr:
        return FAILED
    if query["expect"] != 0:
        return OK if stdout == "" else WRONG
    if query["kind"] == "verify":
        expected = EXPECTED["cli_verify"][" ".join(query["argv"])]
        return OK if digest(stdout.strip()) == expected else WRONG
    check = ANSWER_CHECKS[query["kind"]]
    try:
        right = check(query, json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, OddcharError):
        right = False  # unparseable or invalid answer
    return OK if right else WRONG


def self_check(mix):
    """Feed deliberately wrong outputs through the checkers; return the misses.

    Each case must come back FAILED or WRONG. An empty list means the checkers
    catch every planted error.
    """
    misses = []
    by_kind = {}
    for query in mix:
        by_kind.setdefault(query["kind"], query)
    planted = []
    star = by_kind["star"]
    right = _unique_odd_branch(Partition(star["lam"])).parts
    planted.append(("star gives a wrong branch", star, 0,
                    json.dumps({"result": [right[0] + 1, *right[1:]]}), ""))
    count = by_kind["count-gl"]
    planted.append(("count gl off by one", count, 0,
                    json.dumps({"count": _closed_count(count) + 1}), ""))
    glu = by_kind["sharp-glu"]
    other_q = dict(sharp_glu(_glabel(glu)).to_json(), q=glu["q"] + 2)
    planted.append(("sharp-glu answers for another q", glu, 0, json.dumps(other_q), ""))
    malformed = by_kind["malformed"]
    planted.append(("malformed input accepted", malformed, 0, "{}", ""))
    planted.append(("usage error raised as a crash", malformed, 1,
                    "", "Traceback (most recent call last):\n"))
    verify = by_kind["verify"]
    planted.append(("verify report altered", verify, 0, '{"checks":0}', ""))
    for name, query, code, stdout, stderr in planted:
        if check_cli_op(query, code, stdout, stderr) == OK:
            misses.append(name)
    for workload, suites in EXPECTED["sweeps"].items():
        suite = next(iter(suites))
        op = {"suite": suite, "raised": False, "digest": digest("{}"), "sharp_ces": []}
        if check_sweep_op(workload, op) == OK:
            misses.append(f"{workload} report altered")
    ces = [list(ce) for ce in EXPECTED["sharp_oracle_counterexamples"][1:]]
    op = {"suite": "sharp-oracle", "raised": False,
          "digest": EXPECTED["sweeps"]["sylow"]["sharp-oracle"], "sharp_ces": ces}
    if check_sweep_op("sylow", op) == OK:
        misses.append("sharp-oracle counterexample dropped")
    return misses
