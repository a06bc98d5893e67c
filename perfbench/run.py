"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sylow --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; the program under test is src/oddchar.
Readable lines come first. The last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run.
Exits 2 without a result when the checkout holds no oddchar sources.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# setup_s probes are spread through the run, a few before each worker or
# chunk of invocations, so drift within the window reaches them all alike.
SETUP_PROBES_PER_STEP = 3
INVOCATIONS_PER_REFERENCE = 5  # cli invocations timed between two reference runs
CLI_PROBES = 5  # fresh interpreters per run for each of cli.interp_ms, cli.import_ms
MIN_SWEEP_WORKERS = 2  # cold/warm samples per run, even on a slow machine
# The cli invocations are split into chunks; after each chunk a fresh worker
# runs the whole mix in-process, so every query's warm rounds come from more
# than one interpreter. The last worker makes as many warm rounds as fit.
CLI_CHUNKS = 2
CLI_WARM_PASSES = 2  # least in-process rounds over the mix after the one that fills caches
CHILD_TIMEOUT = 150  # seconds; a run must end within 180


class Tally:
    """Operations attempted, failed, and failed with a wrong answer."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def add(self, outcome):
        self.attempted += 1
        self.failed += outcome != checks.OK
        self.wrong += outcome == checks.WRONG


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe(module=None):
    """Seconds from launching a fresh interpreter until `import module` returns."""
    imports = f"import {module}; " if module else ""
    code = imports + "import time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True,
    )
    return float(proc.stdout) - start


def run_worker(job):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def record(tally, workload, mix, result):
    for one_pass in result["passes"]:
        if workload == "cli":
            for query, op in zip(mix, one_pass["ops"]):
                tally.add(checks.check_cli_op(query, op["code"], op["stdout"], op["stderr"]))
        else:
            for op in one_pass["ops"]:
                tally.add(checks.check_sweep_op(workload, op))
                if op["raised"]:
                    print(op["error"], file=sys.stderr)


def scaled(one_pass):
    return one_pass["seconds"] * one_pass["speed"]


def setup_probes(module, speed):
    """setup_s samples, each scaled to a fixed host speed."""
    speed.start()
    times = [probe(module) for _ in range(SETUP_PROBES_PER_STEP)]
    factor = speed.factor()
    return [t * factor for t in times]


def measure_sweep(workload, seconds, tally):
    start = time.perf_counter()
    speed = HostSpeed()
    setup, cold, warm, rss = [], [], [], []
    while True:
        began = time.perf_counter()
        setup.extend(setup_probes("oddchar", speed))
        result = run_worker({"workload": workload, "passes": 2, "trace": False})
        record(tally, workload, None, result)
        cold.append(result["passes"][0])
        warm.append(result["passes"][1])
        rss.append(result["maxrss_kb"] / 1024)
        took = time.perf_counter() - began
        if len(cold) >= MIN_SWEEP_WORKERS and time.perf_counter() - start + took > seconds:
            break
    for name, passes in (("cold passes, each in a fresh interpreter", cold),
                         ("warm passes, each after a cold one", warm)):
        print(f"{name}: {[round(p['seconds'], 4) for p in passes]} s measured, "
              f"{[round(scaled(p), 4) for p in passes]} s at the fixed host speed")
    return {
        "setup_s": statistics.median(setup),
        "cold_s": statistics.median(map(scaled, cold)),
        "warm_s": statistics.median(map(scaled, warm)),
        "peak_rss_mb": statistics.median(rss),
    }


def invoke(query, tally):
    """One `python -m oddchar.cli` call, checked: (seconds from launch to exit, peak RSS in MB)."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "cli.stdout", "w+") as out, open(OUT / "cli.stderr", "w+") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "oddchar.cli", *query["argv"]],
            env=child_env(), cwd=ROOT, stdout=out, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        # wait4 rather than wait: it also gives this one child's resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - began
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        out.seek(0)
        err.seek(0)
        tally.add(checks.check_cli_op(query, proc.returncode, out.read(), err.read()))
    return seconds, usage.ru_maxrss / 1024


def measure_cli(mix, seconds, tally):
    start = time.perf_counter()
    speed = HostSpeed()
    setup, latencies, rss = [], [], []
    cold = 0.0  # the invocations' latencies, scaled to a fixed host speed
    warm = []  # warm in-process rounds over the mix, scaled to a fixed host speed
    size = -(-len(mix) // CLI_CHUNKS)
    chunks = [range(i, min(i + size, len(mix))) for i in range(0, len(mix), size)]
    round_s = 0.0  # a worker's wall time per in-process round
    for step, chunk in enumerate(chunks):
        speed.start()
        for group in range(0, len(chunk), INVOCATIONS_PER_REFERENCE):
            timed = [invoke(mix[i], tally)
                     for i in chunk[group:group + INVOCATIONS_PER_REFERENCE]]
            factor = speed.factor()
            for latency, peak in timed:
                latencies.append(latency)
                cold += latency * factor
                rss.append(peak)
        setup.extend(setup_probes("oddchar.cli", speed))
        # The first in-process round fills the caches; the rounds after it are warm.
        passes = 1 + CLI_WARM_PASSES
        if step == len(chunks) - 1 and round_s:
            passes = max(passes, int((seconds - (time.perf_counter() - start)) / round_s))
        began = time.perf_counter()
        result = run_worker({"workload": "cli", "mix": mix, "passes": passes, "trace": False})
        round_s = (time.perf_counter() - began) / passes
        record(tally, "cli", mix, result)
        warm.extend(map(scaled, result["passes"][1:]))
    print(f"warm in-process rounds over the mix: {len(warm)}, from {len(chunks)} workers")
    deciles = statistics.quantiles(latencies, n=10)
    beyond = sum(t > deciles[8] for t in latencies)
    print(f"cli_p50_ms {1000 * statistics.median(latencies):.4f} ms  "
          f"cli_p90_ms {1000 * deciles[8]:.4f} ms  "
          f"({len(latencies)} invocations, {beyond} beyond p90)")
    return {
        "setup_s": statistics.median(setup),
        "cold_s": cold,
        "warm_s": statistics.median(warm),
        "peak_rss_mb": max(rss),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def measure_trace(workload, mix, seconds, tally):
    start = time.perf_counter()
    floor = [probe() for _ in range(CLI_PROBES)]
    cli_import = [probe("oddchar.cli") for _ in range(CLI_PROBES)]
    job = {"workload": workload, "passes": 1, "mix": mix}
    untraced, traced = [], []
    while True:
        began = time.perf_counter()
        for runs, trace in ((untraced, False), (traced, True)):
            runs.append(run_worker(dict(job, trace=trace)))
            record(tally, workload, mix, runs[-1])
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            break
    print(f"traced passes: {len(traced)}, each beside an untraced one")

    def wall(result):
        return result["passes"][0]["seconds"]

    # Every per-pass figure comes from the traced pass of median wall time, so
    # its layer self times and unaccounted remainder add up to its wall time.
    chosen = sorted(traced, key=wall)[(len(traced) - 1) // 2]
    summary, counters = chosen["summary"], chosen["counters"]
    self_s, calls, stats = summary["self_s"], summary["calls"], counters["stats"]
    metrics = {
        f"{layer}.self_s": sum(s for fn, s in self_s.items() if fn.split(".")[0] == layer)
        for layer in tracer.LAYERS
    }
    for fn in ("partitions.rim_hooks_of_length", "permgroups.restriction_multiplicities"):
        metrics[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    for fn in ("partitions.rim_hooks_of_length", "partitions.two_adic",
               "characters.odd_partitions", "characters.mn_value",
               "permgroups.restriction_multiplicities", "sym.alpha_sn",
               "sym.alpha_sn_inverse", "sym.sharp_sn", "sym.star_sn", "omega.sharp_glu"):
        metrics[f"{fn}.calls"] = calls.get(fn, 0)
    for cache in tracer.CACHES:
        for key in ("hit_ratio", "entries"):
            metrics[f"{cache}.{key}"] = counters[f"{cache}.{key}"]
    untraced_wall = statistics.median(wall(r) for r in untraced)
    interp_s = statistics.median(floor)
    metrics.update({
        "characters.odd_yield": _ratio(stats["odd_returned"], stats["odd_examined"]),
        "permgroups.elements_enumerated": counters["elements_enumerated"],
        "permgroups.max_order_over_cap": counters["max_order_over_cap"],
        "glu.labels_enumerated": stats["glu_labels"],
        "omega.labels_enumerated": stats["omega_labels"],
        "omega.real_yield": _ratio(stats["real_found"], stats["real_enumerated"]),
        "verify.checks": stats["checks"],
        "verify.counterexamples": stats["counterexamples"],
        "cli.interp_ms": 1000 * interp_s,
        "cli.import_ms": 1000 * (statistics.median(cli_import) - interp_s),
        "cli.main_ms": 1000 * untraced_wall / len(mix) if workload == "cli" else 0.0,
        "trace.wall_s": wall(chosen),
        "trace.unaccounted_s": wall(chosen) - summary["roots_s"],
        "trace.overhead_ratio": wall(chosen) / untraced_wall,
    })
    print(f"spans in the reported traced pass: {summary['spans']}")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    mix = workloads.cli_mix(args.seed)
    misses = checks.self_check(mix)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("self-check: " + (f"MISSED {misses}" if misses else "every planted wrong output was caught"))
    tally = Tally()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values = measure_trace(args.workload, mix, args.seconds, tally)
    elif args.workload == "cli":
        values = measure_cli(mix, args.seconds, tally)
    else:
        values = measure_sweep(args.workload, args.seconds, tally)
    for name, unit in units.items():
        print(f"{name} {values[name]} {unit}")
    print(f"fail_frac {tally.failed / tally.attempted} ratio "
          f"({tally.failed} of {tally.attempted} operations; {tally.wrong} wrong answers)")
    print(json.dumps({
        "correct": not misses and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    if not (SRC / "oddchar" / "__init__.py").is_file():
        print(f"perfbench: no oddchar sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import checks
    import tracer
    import workloads
    from hostspeed import HostSpeed

    main()
