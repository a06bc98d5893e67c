"""Informational reach and ROADMAP-baseline table; never gated.

    python3 perfbench/reach.py

Run it from the root of a checkout. It prints, from public functions only:
the per-n time of restriction_multiplicities over the odd partitions of n,
and the reach, the largest n whose step finishes within REACH_BUDGET_S; then
the two hand measurements the ROADMAP quotes, odd_partitions(45) and the
default galois-equivariance sweep. Times are wall clock in one interpreter,
so caches carry over from one n to the next.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REACH_BUDGET_S = 10.0
# Hand measurements quoted in ROADMAP.md (item 1), on a shared 2-core machine.
ROADMAP_BASELINES = {"odd_partitions(45)": 2.5, "galois-equivariance (default)": 1.38}


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def main():
    from oddchar import odd_partitions, restriction_multiplicities, sylow2_subgroup
    from oddchar.verify import run_suite

    print(f"{'n':>3} {'|G|':>8} {'odd':>5} {'seconds':>9}  restriction_multiplicities over odd partitions of n")
    reach = None
    n = 2
    while True:
        def step():
            group = sylow2_subgroup(n)
            lams = odd_partitions(n)
            for lam in lams:
                restriction_multiplicities(lam, group)
            return group.order, len(lams)

        seconds, (order, odd) = timed(step)
        print(f"{n:>3} {order:>8} {odd:>5} {seconds:>9.3f}")
        if seconds > REACH_BUDGET_S:
            break
        reach = n
        n += 1
    print(f"reach: n = {reach}, the largest n whose step took at most {REACH_BUDGET_S} s")

    seconds, _ = timed(odd_partitions, 45)
    print(f"odd_partitions(45): {seconds:.3f} s "
          f"(ROADMAP: {ROADMAP_BASELINES['odd_partitions(45)']} s)")
    seconds, _ = timed(run_suite, "galois-equivariance")
    print(f"galois-equivariance (default): {seconds:.3f} s "
          f"(ROADMAP: {ROADMAP_BASELINES['galois-equivariance (default)']} s)")


if __name__ == "__main__":
    if not (SRC / "oddchar" / "__init__.py").is_file():
        print(f"reach: no oddchar sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    main()
