"""Batch command-line surface: JSON in, JSON out, deterministic.

Exit codes: 0 success (and every verify check passed), 1 verify sweep with
failures, 2 usage or domain error (including a verify sweep that checks
nothing or is given an option it does not take), 3 violated uniqueness or
existence guarantee (never happens on a correct build), 4 a verify sweep
would exceed the element cap: a label enumeration (e.g. verify gl-counts
--max-n 1 --q 1000003), a listing of partitions (verify alpha-bij or theoremD
--max-n 50; p(n) bounds the listing, not lemma41's LR work) or a Sylow
2-subgroup order (verify sharp-oracle --max-n 20), checked before any work,
141 stdout closed by its reader before all output was written. count answers
from closed forms, which gl-counts and corollaryF check against enumeration.
"""

import argparse
import gc
import json
import os
import sys
from functools import cache

# Only what every command needs loads here; each branch of run() imports the
# modules its command runs, so a launch pays for no other module.
from .errors import DomainError, EnumerationCapError, TheoremViolationError
from .partitions import Partition

USAGE_EXIT = 2
VIOLATION_EXIT = 3
CAP_EXIT = 4
PIPE_EXIT = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def parse_partition(text):
    try:
        parts = [int(x) for x in text.split(",") if x.strip() != ""]
        return Partition(parts)
    except (ValueError, DomainError) as exc:
        raise DomainError(f"bad partition {text!r}: {exc}") from exc


def parse_pairs(text):
    """Pairs syntax: 's=1:l=2,2,1;s=0:l=1'."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        items = [item.split("=", 1) for item in chunk.split(":")]
        if any(len(item) != 2 for item in items) or sorted(key for key, _ in items) != ["l", "s"]:
            raise DomainError(f"bad pair {chunk!r}: need s=INT:l=PARTS")
        fields = dict(items)
        try:
            s = int(fields["s"])
        except ValueError as exc:
            raise DomainError(f"bad pair {chunk!r}: s must be an integer") from exc
        pairs.append((s, parse_partition(fields["l"])))
    if not pairs:
        raise DomainError("no pairs given")
    return tuple(pairs)


def parse_int_list(text):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"bad integer list {text!r}: {exc}") from exc


def emit(payload):
    # flushed here, so a closed pipe raises inside run() and not at exit
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")), flush=True)


def _arg(*names, **options):
    return names, options


_PARTITION = _arg("partition")
_KAPPA = _arg("--kappa", default="+", choices=["+", "-"])
_LABEL = (
    _KAPPA,
    _arg("--q", type=int, required=True),
    _arg("--pairs", required=True, help="e.g. 's=1:l=2,2,1;s=0:l=1'"),
)

# Each command's help line and arguments, in the order -h lists them.
COMMANDS = {
    "star": ("unique odd branch of an odd partition", (_PARTITION,)),
    "alpha": ("hook coordinates of an odd partition", (_PARTITION,)),
    "sharp": ("Sylow linear-character label of an odd partition", (_PARTITION,)),
    "young-star": (
        "per-factor partitions for an odd-index Young subgroup",
        (_PARTITION, _arg("--blocks", required=True, help="comma list of factor sizes")),
    ),
    "wreath-star": (
        "wreath-product correspondent for an odd-index S_k wr S_t",
        (_PARTITION, _arg("--k", type=int, required=True), _arg("--t", type=int, required=True)),
    ),
    "parabolic-star": ("parabolic star on a GL/GU label", _LABEL),
    "sharp-glu": ("sharp glu on a GL/GU label", _LABEL),
    "levi-star": (
        "levi star on a GL/GU label",
        _LABEL + (_arg("--blocks", required=True, help="comma list of Levi block sizes"),),
    ),
    "count": (
        "exact census of odd-degree labels",
        (
            _arg("target", choices=["sn", "gl", "real"]),
            _arg("--n", type=int, required=True),
            _arg("--q", type=int),
            _KAPPA,
        ),
    ),
    "verify": (
        "run a named verification sweep",
        (
            _arg("suite", help="sweep name, e.g. sn-star; an unknown name lists them all"),
            _arg("--max-n", type=int, dest="max_n"),
            _arg("--q", help="comma list of prime powers"),
            _arg("--kappa", help="comma list drawn from +,-"),
            _arg("--jobs", type=int, default=1),
        ),
    ),
}


def build_parser(argv=()):
    """The parser for argv: only its command's subparser when argv starts with one.

    Anything else (no arguments, -h, an unknown command, an option first) gets
    every subparser, so its help and errors list them all. The explicit metavar
    keeps the top-level usage line of a one-command parser the same; the full
    parser has none, so a missing command is still reported as "command".

    Each parser is built once per process and shared by every later call that
    selects it, so a caller must not modify it. Sharing is safe for parsing:
    parse_args keeps its state in a fresh Namespace, and the help formatter
    (which reads COLUMNS) is built each time usage or help is printed.
    """
    only = argv[0] if argv and argv[0] in COMMANDS else None
    return _parser(only)


@cache
def _parser(only):
    parser = _Parser(prog="oddchar", description=__doc__.splitlines()[0])
    metavar = "{" + ",".join(COMMANDS) + "}" if only else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_line, arguments) in COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_line)
            for names, options in arguments:
                p.add_argument(*names, **options)
    return parser


def _json_int(value):
    if abs(value) <= (1 << 53):
        return value
    try:
        return str(value)
    except ValueError as exc:  # past the interpreter's limit on int-to-decimal conversion
        raise DomainError(f"the result has {value.bit_length()} bits, too many to print") from exc


def run(argv):
    args = build_parser(argv).parse_args(argv)
    cmd = args.command

    if cmd == "star":
        from .sym import star_sn

        lam = parse_partition(args.partition)
        emit({"result": star_sn(lam).to_json()})
    elif cmd == "alpha":
        from .sym import alpha_sn

        emit({"theta": alpha_sn(parse_partition(args.partition)).to_json()})
    elif cmd == "sharp":
        from .sym import sharp_sn

        emit({"label": sharp_sn(parse_partition(args.partition)).to_json()})
    elif cmd == "young-star":
        from .sym import young_star

        factors = young_star(parse_partition(args.partition), parse_int_list(args.blocks))
        emit({"factors": [f.to_json() for f in factors]})
    elif cmd == "wreath-star":
        from .sym import theorem_d_star

        label = theorem_d_star(parse_partition(args.partition), args.k, args.t)
        emit(label.to_json())
    elif cmd == "parabolic-star":
        from .glu import GLabel, parabolic_star

        label = GLabel(args.kappa, args.q, parse_pairs(args.pairs))
        emit(parabolic_star(label).to_json())
    elif cmd == "sharp-glu":
        from .glu import GLabel
        from .omega import sharp_glu

        label = GLabel(args.kappa, args.q, parse_pairs(args.pairs))
        emit(sharp_glu(label).to_json())
    elif cmd == "levi-star":
        from .glu import GLabel
        from .omega import levi_star

        label = GLabel(args.kappa, args.q, parse_pairs(args.pairs))
        factors = levi_star(label, parse_int_list(args.blocks))
        emit({"factors": [f.to_json() for f in factors]})
    elif cmd == "count":
        if args.target == "sn":
            from .sym import count_odd_irr_sn

            count = count_odd_irr_sn(args.n)
        else:
            if args.q is None:
                raise DomainError("--q is required for gl and real counts")
            from .glu import odd_label_count, real_label_count

            if args.target == "gl":
                count = odd_label_count(args.n, args.q, args.kappa)
            else:
                count = real_label_count(args.n, args.q, args.kappa)
        emit({"count": _json_int(count)})
    elif cmd == "verify":
        from .verify import SUITES, run_suite

        if args.suite not in SUITES:
            raise DomainError(
                f"unknown suite {args.suite!r}; known suites: {', '.join(sorted(SUITES))}"
            )
        qs = None if args.q is None else tuple(parse_int_list(args.q))
        kappas = None if args.kappa is None else tuple(k for k in args.kappa.split(",") if k)
        report = run_suite(args.suite, max_n=args.max_n, qs=qs, kappas=kappas, jobs=args.jobs)
        if report.checks == 0:
            raise DomainError(f"verify {args.suite} checked nothing with these parameters")
        emit(report.to_json())
        return 0 if report.failed == 0 else 1
    return 0


def main(argv=None):
    try:
        code = run(sys.argv[1:] if argv is None else argv)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = USAGE_EXIT
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        code = VIOLATION_EXIT
    except EnumerationCapError as exc:
        print(f"enumeration cap: {exc}", file=sys.stderr)
        code = CAP_EXIT
    sys.exit(code)


def launch():
    """Process entry point: main(), then an exit that skips the shutdown collection.

    Freezing moves every live object out of the collector's reach, so the
    interpreter does not walk the module cycles on its way out; atexit handlers
    and the flush of stdout and stderr still run. main() itself never freezes:
    in-process callers keep collecting their garbage.

    A reader that closes stdout early (oddchar ... | head -c 100) ends the
    process with PIPE_EXIT and no traceback. fd 1 then points at os.devnull,
    so the flush at exit cannot raise again.
    """
    try:
        main()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(PIPE_EXIT)
    finally:
        gc.freeze()


if __name__ == "__main__":
    launch()
