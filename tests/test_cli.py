import ast
import concurrent.futures
import contextlib
import gc
import hashlib
import importlib
import io
import json
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import example, given, settings, strategies as st

from oddchar.cli import main, parse_pairs, parse_partition
import oddchar
from oddchar import cli, verify
from oddchar.errors import DomainError, EnumerationCapError
from oddchar.partitions import (
    HookPartition,
    Partition,
    attach_unique_gamma,
    partitions,
    rim_hooks_of_length,
)
from oddchar.verify import run_suite

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code


def run_cli_json(capsys, *argv):
    code = run_cli(*argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_partition():
    assert parse_partition("2,2,1") == Partition((2, 2, 1))
    assert parse_partition("5") == Partition((5,))
    with pytest.raises(DomainError):
        parse_partition("1,2")
    with pytest.raises(DomainError):
        parse_partition("x")


def test_parse_pairs():
    pairs = parse_pairs("s=1:l=2,2,1;s=0:l=1")
    assert pairs == ((1, Partition((2, 2, 1))), (0, Partition((1,))))
    with pytest.raises(DomainError):
        parse_pairs("s=1")
    for text in ("s1", "s=a:l=1", "s=1:s=2:l=1", "s=1:l=1:l=2"):
        with pytest.raises(DomainError):
            parse_pairs(text)


@pytest.mark.parametrize("text", ["s1", "s=a:l=1", "s=1:s=2:l=1", "s=1:l=1:l=2"])
def test_malformed_pairs_exit_usage(capsys, text):
    assert run_cli("sharp-glu", "--q", "3", "--pairs", text) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad pair") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["young-star", "3", "--blocks", "x"],
        ["levi-star", "--q", "3", "--pairs", "s=1:l=3", "--blocks", "x"],
        ["verify", "gl-counts", "--q", "x"],
        ["sharp-glu", "--q", "3", "--pairs", "s=0:l=1;s=0:l=2"],
    ],
    ids=" ".join,
)
def test_malformed_values_exit_usage(capsys, argv):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "pairs, label",
    [
        ("s=0:l=1;s=1:l=1", "((0, Partition(1,)), (1, Partition(1,)))"),  # the sizes carry
        ("s=0:l=2,2", "((0, Partition(2, 2)),)"),  # an even partition
        ("s=0:l=2;s=1:l=2", "((0, Partition(2,)), (1, Partition(2,)))"),
    ],
)
def test_sharp_glu_refuses_non_odd_labels(capsys, pairs, label):
    assert run_cli("sharp-glu", "--q", "3", "--pairs", pairs) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: GLabel(kappa='+', q=3, pairs={label}) is not an odd label\n"


def test_star_command(capsys):
    code, payload = run_cli_json(capsys, "star", "2,2,1")
    assert code == 0 and payload == {"result": [2, 1, 1]}
    code, payload = run_cli_json(capsys, "star", "5")
    assert code == 0 and payload == {"result": [4]}
    assert run_cli("star", "2,2") == 2


def test_alpha_and_sharp_commands(capsys):
    code, payload = run_cli_json(capsys, "alpha", "2,2,1")
    assert code == 0
    assert payload == {"theta": [{"leg": 2, "m": 4}, {"leg": 0, "m": 1}]}
    code, payload = run_cli_json(capsys, "sharp", "2,2,1")
    assert code == 0
    assert payload == {"label": [{"bits": [1, 1], "size": 4}, {"bits": [], "size": 1}]}


def test_counts(capsys):
    code, payload = run_cli_json(capsys, "count", "gl", "--n", "2", "--q", "3")
    assert code == 0 and payload == {"count": 4}
    code, payload = run_cli_json(capsys, "count", "sn", "--n", "6")
    assert code == 0 and payload == {"count": 8}
    code, payload = run_cli_json(
        capsys, "count", "real", "--n", "3", "--q", "5", "--kappa", "-"
    )
    assert code == 0 and payload == {"count": 8}
    assert run_cli("count", "gl", "--n", "2") == 2  # missing --q
    # q = 1 gives an empty residue group, not a census of 0
    assert run_cli("count", "real", "--n", "2", "--q", "1") == 2


def test_counts_agree_with_enumeration(capsys):
    from oddchar.characters import odd_partitions
    from oddchar.glu import count_odd_irr_gl
    from oddchar.omega import count_real_odd

    for n in range(1, 8):
        for q in (3, 5, 7, 9):
            for kappa in ("+", "-"):
                opts = ["--n", str(n), "--q", str(q), "--kappa", kappa]
                assert run_cli_json(capsys, "count", "gl", *opts) == (
                    0, {"count": count_odd_irr_gl(n, q, kappa)}
                )
                assert run_cli_json(capsys, "count", "real", *opts) == (
                    0, {"count": count_real_odd(n, q, kappa)}
                )
    for n in range(1, 21):
        assert run_cli_json(capsys, "count", "sn", "--n", str(n)) == (
            0, {"count": len(odd_partitions(n))}
        )


def test_count_too_large_to_print_is_usage_error(capsys):
    n = str(2**170 - 1)  # 2^(sum of the digit exponents) has more than 4300 decimal digits
    for argv in (["sn", "--n", n], ["gl", "--n", n, "--q", "3"]):
        assert run_cli("count", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "too many to print" in captured.err


def test_glu_commands(capsys):
    code, payload = run_cli_json(
        capsys, "sharp-glu", "--kappa", "+", "--q", "3", "--pairs", "s=1:l=2"
    )
    assert code == 0
    assert payload == {
        "blocks": [{"hook": {"leg": 0, "m": 2}, "s": 1, "size": 2}],
        "kappa": "+",
        "q": 3,
    }
    code, payload = run_cli_json(
        capsys, "parabolic-star", "--q", "3", "--pairs", "s=1:l=3"
    )
    assert code == 0
    assert payload["line"] == {"lambda": [1], "s": 1}
    code, payload = run_cli_json(
        capsys, "levi-star", "--q", "3", "--pairs", "s=1:l=3", "--blocks", "1,2"
    )
    assert code == 0 and len(payload["factors"]) == 2


def test_large_q_is_tested_exactly():
    big = "1000000000000000003"  # a prime; trial division up to its root never finished
    args = [sys.executable, "-m", "oddchar.cli"]
    out = subprocess.run(
        args + ["sharp-glu", "--q", big, "--pairs", "s=0:l=1"], capture_output=True, timeout=30
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["q"] == int(big)
    # q - 1 labels of rank 1: count answers from the closed form, past 2^53 as a string
    out = subprocess.run(args + ["count", "gl", "--n", "1", "--q", big], capture_output=True, timeout=30)
    assert out.returncode == 0 and out.stdout == b'{"count":"1000000000000000002"}\n'
    for suite in ("gl-counts", "corollaryF"):
        out = subprocess.run(
            args + ["verify", suite, "--max-n", "1", "--q", big], capture_output=True, timeout=30
        )
        assert out.returncode == cli.CAP_EXIT and out.stdout == b""
        assert b"1000000000000000002 labels" in out.stderr
    two_primes = str(1000000007 * 998244353)
    out = subprocess.run(
        args + ["count", "gl", "--n", "1", "--q", two_primes], capture_output=True, timeout=30
    )
    assert out.returncode == 2 and b"not an odd prime power" in out.stderr


def test_wreath_and_young(capsys):
    code, payload = run_cli_json(capsys, "wreath-star", "4", "--k", "2", "--t", "2")
    assert code == 0
    assert payload == {"base": [{"psi": [2], "t": 2}], "k": 2, "t": 2, "top": [[2]]}
    code, payload = run_cli_json(capsys, "young-star", "2,2,1", "--blocks", "1,4")
    assert code == 0 and payload == {"factors": [[1], [2, 1, 1]]}
    assert run_cli("wreath-star", "4,1,1", "--k", "3", "--t", "2") == 2


@pytest.mark.parametrize("k, t", [("0", "4"), ("-2", "-2")])
def test_wreath_star_names_a_nonpositive_k_or_t(capsys, k, t):
    # checked before the size of the partition, which k * t would misreport
    assert run_cli("wreath-star", "4", "--k", k, "--t", t) == 2
    assert capsys.readouterr().err == "error: k and t must be positive\n"


def test_wreath_star_refuses_a_huge_even_index():
    # the index (10^6)! / (1000!^1000 * 1000!) is decided without forming it
    argv = ["wreath-star", "--k", "1000", "--t", "1000", "1000000"]
    out = subprocess.run(
        [sys.executable, "-m", "oddchar.cli", *argv], capture_output=True, timeout=30
    )
    assert out.returncode == 2 and out.stdout == b""
    assert b"S_1000 wr S_1000 does not have odd index in S_1000000" in out.stderr


def test_sharp_answers_a_huge_one_row_partition():
    # each hook of the row is stripped by its bead alone, not cell by cell
    n = 99999999999999999999
    out = subprocess.run(
        [sys.executable, "-m", "oddchar.cli", "sharp", str(n)], capture_output=True, timeout=30
    )
    assert out.returncode == 0 and out.stderr == b""
    digits = [e for e in reversed(range(n.bit_length())) if n >> e & 1]
    expected = [{"bits": [0] * e, "size": 1 << e} for e in digits]
    assert json.loads(out.stdout) == {"label": expected}


def test_verify_command(capsys):
    code, payload = run_cli_json(capsys, "verify", "sn-star", "--max-n", "8")
    assert code == 0
    assert payload["failed"] == 0
    assert payload["passed"] == payload["checks"]
    assert run_cli("verify", "unknown-suite") == 2


def test_unknown_suite_names_the_choices(capsys):
    assert run_cli("verify", "nosuch") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown suite 'nosuch'" in captured.err
    assert all(name in captured.err for name in verify.SUITES)


UNREAD = [
    (["verify", "sn-star", "--max-n", "4", "--q", "3", "--kappa", "-"], "--q, --kappa"),
    (["verify", "s7-counterexample", "--max-n", "99"], "--max-n"),
]


@pytest.mark.parametrize("argv, flags", UNREAD, ids=[" ".join(a) for a, _ in UNREAD])
def test_verify_refuses_an_option_the_suite_does_not_take(capsys, argv, flags):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: verify {argv[1]} takes no {flags}\n"


def test_verify_without_checks_is_usage_error(capsys):
    assert run_cli("verify", "sharp-oracle", "--max-n", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "checked nothing" in captured.err


def test_enumeration_cap_has_own_exit_code(capsys, monkeypatch):
    def over_cap(suite, **kwargs):
        raise EnumerationCapError("element cap 200000 exceeded")

    with monkeypatch.context() as patch:
        patch.setattr(verify, "run_suite", over_cap)
        assert run_cli("verify", "sharp-oracle", "--max-n", "20") == cli.CAP_EXIT == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cap" in captured.err and "Traceback" not in captured.err
    # 1,000,002 labels each: count answers from the closed form, the sweeps
    # that enumerate them are refused before any label is built
    for family, suite, stdout in (
        ("gl", "gl-counts", '{"count":1000002}\n'),
        ("real", "corollaryF", '{"count":2}\n'),
    ):
        assert run_cli("count", family, "--n", "1", "--q", "1000003") == 0
        assert capsys.readouterr().out == stdout
        assert run_cli("verify", suite, "--max-n", "1", "--q", "1000003") == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1000002 labels" in captured.err


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a CLI call started a process pool")


@pytest.mark.parametrize(
    "suite, max_n, message",
    [
        ("gl-counts", "11", "221184 labels of rank 11 > cap 200000"),
        (
            "galois-equivariance",
            "8",
            "110592 labels of rank 7 x 10 actions = 1105920 checks > cap 200000",
        ),
        ("sharp-oracle", "20", "Sylow 2-subgroup of degree 20 has order 262144 > cap 200000"),
        ("alpha-bij", "50", "204226 partitions of 50 > cap 200000"),
        ("sn-star", "60", "204226 partitions of 50 > cap 200000"),
        ("lemma41", "50", "204226 partitions of 50 > cap 200000"),
        ("lemma42", "26", "239943 partitions of 51 > cap 200000"),
        ("theoremD", "50", "204226 partitions of 50 > cap 200000"),
    ],
)
def test_label_sweeps_bound_the_whole_grid_first(capsys, monkeypatch, suite, max_n, message):
    # only the grid's last items pass the cap, and none of the earlier ones may
    # run first, in this process or in a worker pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    qs = ["--q", "25"] if suite in ("gl-counts", "galois-equivariance") else []
    for jobs in ("1", "2"):
        start = time.perf_counter()
        assert run_cli("verify", suite, "--max-n", max_n, *qs, "--jobs", jobs) == 4
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"enumeration cap: {message}\n"


def test_label_sweeps_stop_listing_the_grid_at_the_first_item_over_the_cap():
    # a million-item grid: the items past rank 59 are never listed
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError) as info:
            run_suite("gl-counts", max_n=10**6, qs=(3,), kappas=("+",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == "262144 labels of rank 59 > cap 200000"
    assert peak < 1 << 20


def test_default_and_benchmark_label_grids_stay_under_the_cap(monkeypatch):
    # a stubbed _sweep runs only the bound
    def bound_only(suite, params, items, check, jobs, bound=None):
        for item in items:
            bound(item)

    monkeypatch.setattr(verify, "_sweep", bound_only)
    for suite in ("gl-counts", "omega-bij", "galois-equivariance", "corollaryF"):
        run_suite(suite)
    # the benchmark's labels grid
    run_suite("galois-equivariance", max_n=5, qs=(3, 5, 9))
    run_suite("omega-bij", max_n=4, qs=(3, 5, 9, 17))
    run_suite("corollaryF", max_n=6, qs=(3, 5, 7, 9, 11))
    run_suite("gl-counts", max_n=7, qs=(3, 5, 7, 9))


def test_verify_jobs_deterministic(capsys):
    _, serial = run_cli_json(capsys, "verify", "lemma41", "--max-n", "7")
    _, parallel = run_cli_json(
        capsys, "verify", "lemma41", "--max-n", "7", "--jobs", "2"
    )
    assert serial == parallel


def test_verify_jobs_clamped(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    serial = run_suite("sn-star", max_n=4).to_json()
    assert run_suite("sn-star", max_n=4, jobs=10**6).to_json() == serial  # 3 items
    run_suite("sn-star", max_n=9, jobs=10**6)  # 8 items, 4 CPUs
    run_suite("sn-star", max_n=9, jobs=3)
    run_suite("sn-star", max_n=2, jobs=8)  # 1 item: serial
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
    run_suite("sn-star", max_n=9, jobs=8)  # CPU count unknown: serial
    assert sizes == [3, 4, 3]


# The argv fuzz starts from each command's required arguments, drops at most
# one of them and appends junk, drawing values from the real vocabulary.
# --n, --max-n, --k and --t take small integers and no junk token is an
# integer above 4, so every example stays cheap.
_REQUIRED = {
    "star": ["PART"],
    "alpha": ["PART"],
    "sharp": ["PART"],
    "young-star": ["PART", "--blocks"],
    "wreath-star": ["PART", "--k", "--t"],
    "parabolic-star": ["--q", "--pairs"],
    "sharp-glu": ["--q", "--pairs"],
    "levi-star": ["--q", "--pairs", "--blocks"],
    "count": ["TARGET", "--n", "--q"],
    "verify": ["SUITE", "--max-n"],
    "x": [],
}
_JUNK = ["", "x", "-", "+", "+,-", "1,2", "3,,1", "-1", "0", "1", "4", "s1", "--", "-h"]
_JUNK_TOKEN = st.sampled_from(_JUNK)
_VALUES = {
    "PART": st.sampled_from(["3,1", "2,2,1", "4", "5", "3,2", "2,1,1", "6,1", "1", "1,2", "x"]),
    "TARGET": st.sampled_from(["sn", "gl", "real", "x"]),
    "SUITE": st.sampled_from(sorted(verify.SUITES) + ["no-suite"]),
    "--n": st.integers(-1, 8).map(str),
    "--max-n": st.integers(-1, 3).map(str),
    "--k": st.integers(-1, 8).map(str),
    "--t": st.integers(-1, 8).map(str),
    "--jobs": st.integers(-1, 4).map(str),
    "--q": st.sampled_from(["3", "5", "7", "9", "1", "4", "15", "3,5", "1000003", "x", ""]),
    "--kappa": st.sampled_from(["+", "-", "+,-", "x", ""]),
    "--pairs": st.sampled_from(
        ["s=1:l=2,2,1", "s=0:l=1;s=1:l=3,1", "s=1:l=3", "s=2:l=2;s=2:l=1", "s=9:l=1",
         "s=a:l=1", "s1", ";"]
    ),
    "--blocks": st.sampled_from(["1,4", "2,5", "3,4", "3,1", "4", "1,1", "0", "x", ""]),
}


def _argument(name):
    values = _VALUES[name] | _JUNK_TOKEN
    if name.startswith("--"):
        return values.map(lambda value: [name, value])
    return values.map(lambda value: [value])


_EXTRA = st.one_of(
    st.sampled_from([name for name in _VALUES if name.startswith("--")]).flatmap(_argument),
    _JUNK_TOKEN.map(lambda token: [token]),
)


def _command_argv(command):
    required = _REQUIRED[command]
    return st.builds(
        lambda args, drop, extra: [
            command, *sum(args[:drop] + args[drop + 1:], []), *sum(extra, [])
        ],
        st.tuples(*map(_argument, required)).map(list),
        st.integers(0, 2 * len(required)),  # past the end: drop nothing
        st.lists(_EXTRA, max_size=2),
    )


_ARGV = st.sampled_from(sorted(_REQUIRED)).flatmap(_command_argv)


def test_argv_fuzz_keeps_the_exit_code_contract(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 1)

    @settings(max_examples=200, deadline=3000, database=None)
    @given(argv=_ARGV)
    @example(argv=["young-star", "3", "--blocks", "x"])
    @example(argv=["levi-star", "--q", "3", "--pairs", "s=1:l=3", "--blocks", "x"])
    @example(argv=["verify", "gl-counts", "--max-n", "2", "--q", "x"])
    @example(argv=["sharp-glu", "--q", "3", "--pairs", "s=a:l=1"])
    @example(argv=["verify", "sharp-oracle"])  # the known counterexamples: exit 1
    def check(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as info:
                main(argv)
        code = info.value.code
        assert code in (0, 1, 2, 3, 4), (argv, code)
        assert code != 1 or argv[0] == "verify", argv
        assert "Traceback" not in err.getvalue(), argv

    check()


def _parsed(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, namespace = 0, vars(parser.parse_args(argv))
        except SystemExit as exc:
            code, namespace = exc.code, None
    return code, namespace, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, database=None)
@given(argv=_ARGV)
@example(argv=[])
@example(argv=["-h"])
@example(argv=["star", "-h"])
@example(argv=["x"])
@example(argv=["sta", "3"])  # a prefix of a command is not that command
@example(argv=["--q", "3", "star", "3"])  # an option before the command
@example(argv=["star", "3", "--extra"])  # the top-level parser reports it, with its usage line
@example(argv=["verify", "sn-star", "--max", "3"])  # an abbreviated option
def test_parser_filter_is_exact(argv):
    assert _parsed(cli.build_parser(argv), argv) == _parsed(cli.build_parser(), argv)


def test_parser_for_a_command_builds_only_that_command():
    code, _, _, err = _parsed(cli.build_parser(["star"]), ["alpha", "3"])
    assert code == 2 and "invalid choice: 'alpha'" in err


def test_build_parser_shares_one_parser_per_command():
    star = cli.build_parser(["star", "3"])
    assert star is cli.build_parser(["star", "2,1"])
    full = cli.build_parser([])
    assert full is cli.build_parser(["-h"]) is cli.build_parser(["x"])
    assert full is not star


def test_main_builds_each_parser_once(monkeypatch, capsys):
    progs = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(cli._Parser, "__init__", counted)
    for argv in [["-h"], *([name, "-h"] for name in cli.COMMANDS)] * 2:
        assert run_cli(*argv) == 0
    # the subparsers are _Parser instances too; only the top-level ones are named "oddchar"
    assert progs.count("oddchar") == len(cli.COMMANDS) + 1


_REPLAYED = [
    ["star", "3"],
    ["star", "2,2"],  # DomainError
    ["sharp", "5,1,1"],
    ["wreath-star", "4", "--k", "2", "--t", "2"],
    ["count", "gl", "--n", "3"],  # DomainError: no --q
    ["count", "gl", "--n", "3", "--q", "5"],
    ["parabolic-star", "--q", "3", "--pairs", "s=0:l=1", "--kappa", "x"],
    ["young-star", "3"],  # a required option missing
    ["verify", "lemma41", "--max-n", "4"],
    ["x"],
    ["-h"],
    ["star", "-h"],
    ["star", "3", "--extra"],
]


def _replay(fresh):
    results = []
    for argv in _REPLAYED:
        if fresh:
            cli._parser.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as info:
                main(argv)
        results.append((info.value.code, out.getvalue(), err.getvalue()))
    return results


def test_shared_parsers_keep_no_state_between_calls(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    first = _replay(fresh=False)
    assert {code for code, _, _ in first} == {0, 2}
    assert _replay(fresh=False) == first
    assert _replay(fresh=True) == first
    # usage and help are laid out when printed, so a shared parser follows COLUMNS
    monkeypatch.setenv("COLUMNS", "40")
    narrow = _replay(fresh=False)
    assert narrow != first and narrow == _replay(fresh=True)


def test_missing_command_is_named_command(capsys):
    assert run_cli() == 2
    assert capsys.readouterr().err.endswith("error: the following arguments are required: command\n")


def test_in_process_main_freezes_nothing(capsys):
    assert gc.get_freeze_count() == 0
    assert run_cli("star", "3") == 0
    assert run_cli("star", "2,2") == 2
    assert gc.get_freeze_count() == 0


LAUNCHES = [
    (["star", "3"], 0),
    (["verify", "sharp-oracle", "--max-n", "8"], 1),  # the known counterexamples
    (["star", "2,2"], 2),
    (["verify", "sharp-oracle", "--max-n", "20"], 4),
]


@pytest.mark.parametrize("argv, code", LAUNCHES, ids=[" ".join(a) for a, _ in LAUNCHES])
def test_launch_keeps_exit_codes_and_stdout(capsysbinary, argv, code):
    launched = subprocess.run([sys.executable, "-m", "oddchar.cli", *argv], capture_output=True)
    assert launched.returncode == code
    assert run_cli(*argv) == code
    captured = capsysbinary.readouterr()
    assert launched.stdout == captured.out  # read through a pipe, to the last byte
    assert launched.stderr == captured.err


def test_launch_freezes_after_main_and_still_runs_atexit():
    script = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "from oddchar.cli import launch\n"
        "sys.argv[1:] = ['star', '3']\n"
        "launch()\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout == '{"result":[2]}\nfrozen True\n'


def test_closed_stdout_exits_141_without_a_traceback():
    # 235 KB of theta, more than a pipe buffer: the reader closes after 150 bytes
    argv = [sys.executable, "-m", "oddchar.cli", "alpha", str(2**1200 - 1)]
    launched = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(launched.stdout.read(150)) == 150
    launched.stdout.close()
    err = launched.stderr.read()
    launched.stderr.close()
    assert launched.wait() == cli.PIPE_EXIT == 141
    assert err == b""


def test_runtime_imports_only_the_standard_library():
    outside = []
    for path in sorted(Path(oddchar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            top = {name.partition(".")[0] for name in names}
            outside += [(path.name, name) for name in top - sys.stdlib_module_names]
    assert outside == []


def test_library_modules_import_each_other_only_at_the_top():
    # cli imports inside run() on purpose: a launch loads only its command's modules
    nested = []
    for path in sorted(Path(oddchar.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    (path.name, func.name, node.module)
                    for node in ast.walk(func)
                    if isinstance(node, ast.ImportFrom) and node.level
                ]
    assert nested == []


def test_cli_import_leaves_process_pool_out():
    code = "import sys, oddchar.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


# Prints the oddchar modules, and the heavy standard modules of HEAVY, that a
# fresh interpreter holds after one cli.main(argv), or after a bare
# `import oddchar` when argv is empty.
FOOTPRINT = """
import contextlib, io, sys
import oddchar
if sys.argv[1:]:
    from oddchar import cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(sys.argv[1:])
        except SystemExit:
            pass
print(" ".join(sorted(m for m in sys.modules if m.startswith("oddchar") or m in HEAVY)))
"""
# dataclasses would bring in inspect, ast, dis and tokenize: about 6 ms per launch.
HEAVY = {"dataclasses", "inspect"}


def _loaded_after(*argv):
    script = f"HEAVY = {HEAVY!r}" + FOOTPRINT
    out = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_cli_loads_only_the_modules_a_command_runs():
    core = {"oddchar", "oddchar.errors", "oddchar.partitions"}
    assert _loaded_after() == core
    star = {"oddchar.sym", "oddchar.cli"}
    assert _loaded_after("star", "3,1") == core | star
    # the bead strip decides oddness: only verify loads the parity oracle
    for argv in ("wreath-star 4 --k 2 --t 2", "parabolic-star --q 3 --pairs s=1:l=3"):
        assert "oddchar.characters" not in _loaded_after(*argv.split()), argv
    loaded = _loaded_after("count", "gl", "--n", "5", "--q", "5")
    assert not loaded & {"oddchar.omega", "oddchar.verify", "oddchar.permgroups", *HEAVY}
    loaded = _loaded_after("sharp-glu", "--q", "3", "--pairs", "s=1:l=2,2,1")
    assert "oddchar.omega" in loaded and not loaded & HEAVY
    loaded = _loaded_after("verify", "s7-counterexample")  # verify imports every module
    assert "oddchar.verify" in loaded and not loaded & HEAVY


def test_lazy_namespace_keeps_every_export():
    code = """
import contextlib, importlib, io, json, sys
import oddchar
import oddchar.partitions
from oddchar import cli
function_after_import = oddchar.partitions is sys.modules["oddchar.partitions"].partitions
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["sharp-glu", "--q", "3", "--pairs", "s=1:l=2"])
    except SystemExit:
        pass
function_after_cli = oddchar.partitions is sys.modules["oddchar.partitions"].partitions
listed = dir(oddchar)
missing = [
    name
    for home in oddchar._HOMES
    for name in importlib.import_module("oddchar." + home).__all__
    if name not in listed
    or getattr(oddchar, name) is not getattr(importlib.import_module("oddchar." + home), name)
]
print(json.dumps([function_after_import, function_after_cli, missing]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [True, True, []]
    # each module's __all__ is its row of the table, and the package lists names only
    for home, names in oddchar._HOMES.items():
        assert importlib.import_module("oddchar." + home).__all__ is names, home
    assert oddchar.__all__ == sorted(oddchar._HOME_OF)
    assert not [name for name in oddchar.__all__ if isinstance(getattr(oddchar, name), ModuleType)]
    namespace = {}
    exec("from oddchar import *", namespace)
    assert set(oddchar._HOME_OF) <= namespace.keys()
    with pytest.raises(AttributeError):
        oddchar.no_such_name


def _lemma42_per_pair(max_m):
    """The lemma42 report with one brute-force census per (alpha, leg) pair."""
    report = {"suite": "lemma42", "params": {"max_m": max_m}, "checks": 0, "counterexamples": []}
    for m in range(2, max_m + 1):
        for n in range(m, 2 * m):
            for alpha in partitions(n - m):
                for leg in range(m):
                    beta = HookPartition(m, leg)
                    report["checks"] += 1
                    census = [
                        gamma
                        for gamma in partitions(n)
                        for typ, rest in rim_hooks_of_length(gamma, m)
                        if typ == beta and rest == alpha
                    ]
                    built = attach_unique_gamma(alpha, beta, n)
                    if census != [built]:
                        report["counterexamples"].append(
                            {
                                "input": [alpha.to_json(), beta.to_json(), n],
                                "expected": built.to_json(),
                                "actual": [g.to_json() for g in census],
                            }
                        )
    report["failed"] = len(report["counterexamples"])
    report["passed"] = report["checks"] - report["failed"]
    return report


def test_lemma42_census_matches_per_pair_census():
    assert run_suite("lemma42", max_n=6).to_json() == _lemma42_per_pair(6)


def test_lemma42_reports_a_planted_wrong_gamma(monkeypatch):
    alpha, beta, n = Partition((1,)), HookPartition(4, 2), 5
    assert attach_unique_gamma(alpha, beta, n) == Partition((2, 2, 1))

    def planted(a, b, k):
        if (a, b, k) == (alpha, beta, n):
            return Partition((3, 2))
        return attach_unique_gamma(a, b, k)

    monkeypatch.setattr(verify, "attach_unique_gamma", planted)
    report = run_suite("lemma42", max_n=6).to_json()
    assert report["failed"] == 1
    assert report["counterexamples"] == [
        {"input": [[1], {"m": 4, "leg": 2}, 5], "expected": [3, 2], "actual": [[2, 2, 1]]}
    ]


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
def test_demo_runs(demo):
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


# SHA-256 of each demo's stdout: a demo's narrative changes only on purpose.
DEMO_STDOUT_SHA256 = {
    "gl_gu_labels.py": "1b993c31b4e5e077cdb50b661281bea315bfbcd4f765233e9e9044675ece69e5",
    "normalizer_omega.py": "7b9af14242ca793171ac12e3fdb5a37e342a46a044154a8cc0d1c46b54de6183",
    "symmetric_correspondences.py": "307d47c8ef3d82f95ad314587044a1844d82ab88bf2b4ab1ce4351d843413359",
}


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
def test_demo_stdout_bytes(demo):
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, timeout=60, check=True)
    assert hashlib.sha256(out.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo.name]


def test_cli_byte_identical_runs():
    cmd = [sys.executable, "-m", "oddchar.cli", "alpha", "2,2,1"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout


# Exact stdout bytes and exit codes of the CLI; a refactor of the label core
# (glu, omega, sym, verify) must keep them byte for byte.
GOLDEN = [
    (["young-star", "2,2,1", "--blocks", "1,4"], 0, b'{"factors":[[1],[2,1,1]]}\n'),
    (["young-star", "3,2,1,1", "--blocks", "2,5"], 0, b'{"factors":[[2],[2,2,1]]}\n'),
    (
        ["wreath-star", "4", "--k", "2", "--t", "2"],
        0,
        b'{"base":[{"psi":[2],"t":2}],"k":2,"t":2,"top":[[2]]}\n',
    ),
    (
        ["parabolic-star", "--q", "3", "--pairs", "s=1:l=3"],
        0,
        b'{"line":{"lambda":[1],"s":1},"rest":{"kappa":"+","pairs":[{"lambda":[2],"s":1}],"q":3}}\n',
    ),
    (
        ["levi-star", "--q", "5", "--pairs", "s=1:l=3;s=3:l=4", "--blocks", "3,4"],
        0,
        b'{"factors":[{"kappa":"+","pairs":[{"lambda":[3],"s":1}],"q":5},'
        b'{"kappa":"+","pairs":[{"lambda":[4],"s":3}],"q":5}]}\n',
    ),
    (
        ["levi-star", "--kappa", "-", "--q", "3", "--pairs", "s=2:l=2,2,1;s=0:l=2", "--blocks", "2,5"],
        0,
        b'{"factors":[{"kappa":"-","pairs":[{"lambda":[2],"s":0}],"q":3},'
        b'{"kappa":"-","pairs":[{"lambda":[2,2,1],"s":2}],"q":3}]}\n',
    ),
    (
        ["sharp-glu", "--q", "3", "--pairs", "s=1:l=2,2,1"],
        0,
        b'{"blocks":[{"hook":{"leg":2,"m":4},"s":1,"size":4},'
        b'{"hook":{"leg":0,"m":1},"s":1,"size":1}],"kappa":"+","q":3}\n',
    ),
    (
        ["sharp-glu", "--kappa", "-", "--q", "5", "--pairs", "s=0:l=1;s=5:l=5,1"],
        0,
        b'{"blocks":[{"hook":{"leg":0,"m":4},"s":5,"size":4},'
        b'{"hook":{"leg":1,"m":2},"s":5,"size":2},'
        b'{"hook":{"leg":0,"m":1},"s":0,"size":1}],"kappa":"-","q":5}\n',
    ),
    (["count", "gl", "--n", "5", "--q", "5"], 0, b'{"count":64}\n'),
    (["count", "gl", "--n", "4", "--q", "3", "--kappa", "-"], 0, b'{"count":16}\n'),
    (["count", "real", "--n", "3", "--q", "7"], 0, b'{"count":8}\n'),
    (["count", "real", "--n", "4", "--q", "5", "--kappa", "-"], 0, b'{"count":8}\n'),
    (
        ["verify", "omega-bij", "--max-n", "3", "--q", "3,5"],
        0,
        b'{"checks":384,"counterexamples":[],"failed":0,"params":{"kappa":["+","-"],'
        b'"max_n":3,"q":[3,5]},"passed":384,"suite":"omega-bij"}\n',
    ),
    (
        ["verify", "galois-equivariance", "--max-n", "3", "--q", "3,5"],
        0,
        b'{"checks":620,"counterexamples":[],"failed":0,"params":{"kappa":["+","-"],'
        b'"max_n":3,"q":[3,5]},"passed":620,"suite":"galois-equivariance"}\n',
    ),
    (
        ["verify", "gl-counts", "--max-n", "4", "--q", "3,5"],
        0,
        b'{"checks":16,"counterexamples":[],"failed":0,"params":{"kappa":["+","-"],'
        b'"max_n":4,"q":[3,5]},"passed":16,"suite":"gl-counts"}\n',
    ),
    (
        ["verify", "corollaryF", "--max-n", "4", "--q", "3,5"],
        0,
        b'{"checks":16,"counterexamples":[],"failed":0,"params":{"kappa":["+","-"],'
        b'"max_n":4,"q":[3,5]},"passed":16,"suite":"corollaryF"}\n',
    ),
    (["sharp-glu", "--q", "15", "--pairs", "s=0:l=1"], 2, b""),
    (["sharp-glu", "--q", "3", "--pairs", "s=2:l=1"], 2, b""),
    (["levi-star", "--q", "3", "--pairs", "s=1:l=4", "--blocks", "2,2"], 2, b""),
    (["young-star", "4", "--blocks", "2,2"], 2, b""),
]


@pytest.mark.parametrize("argv, code, stdout", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_golden_cli_bytes(capsysbinary, argv, code, stdout):
    assert run_cli(*argv) == code
    captured = capsysbinary.readouterr()
    assert captured.out == stdout
    assert (code == 0) == (captured.err == b"")


# SHA-256 of the bytes `oddchar verify` prints for the four suites of the
# substrate benchmark workload, at its sizes. A change to the partition
# substrate or the parity oracle must leave every byte of these reports alone,
# and this pins that where the benchmark is not run.
SUBSTRATE_REPORTS = {
    ("alpha-bij", 28): "cdf77043e3e97bd6a1f8b2e0d222b669b857217ff6aeaf54f9eb7aa7ecb005c8",
    ("sn-star", 28): "3bc310d4b4f142e13b7be74f28e6786e8772a27bb8b96589c5a5f5de16fa2360",
    ("lemma41", 13): "4f844d556b4b7cea07061d2df4497cc21fbe9ea445c2ff3a07cfde4aed6665e3",
    ("lemma42", 7): "acd370a628273faf2da774a9ea68f3ae1efea4404de4b86bf2c4c18aea605fa2",
}


def test_substrate_reports_are_byte_identical():
    got = {}
    for name, max_n in SUBSTRATE_REPORTS:
        text = json.dumps(run_suite(name, max_n=max_n).to_json(), sort_keys=True, separators=(",", ":"))
        got[name, max_n] = hashlib.sha256(text.encode()).hexdigest()
    assert got == SUBSTRATE_REPORTS


# The same for the sylow workload's report, sharp-oracle at max_n = 12: a change
# to the restriction oracle or the MN values must leave every byte alone.
SHARP_ORACLE_REPORT = "d2b0f7be2058a679bfe13f67becbc27e3814245d6709ff4b23945aebb565b6e1"


def test_sharp_oracle_report_is_byte_identical():
    report = run_suite("sharp-oracle", max_n=12).to_json()
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SHARP_ORACLE_REPORT


def test_readme_examples_run(capsys):
    # each `oddchar ...` line of the README; a `# {...}` comment is its exact stdout
    examples = [line for line in README.read_text().splitlines() if line.startswith("oddchar ")]
    assert len(examples) >= 14
    for line in examples:
        command, _, comment = line.partition("#")
        assert run_cli(*shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        if comment.strip().startswith("{"):
            assert out == comment.strip() + "\n", line
