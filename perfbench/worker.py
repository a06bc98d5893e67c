"""One fresh interpreter's share of a benchmark run.

Reads a job from stdin as JSON and prints its result as one JSON line:

    {"workload": "sylow", "passes": 2, "trace": false}
    {"workload": "cli", "mix": [...], "passes": 2, "trace": false}

The first pass starts with empty caches (cold); later passes reuse them
(warm). Each untraced pass carries the host-speed factor measured around it.
A sweep pass calls run_suite once per suite of the workload; a cli pass calls
cli.main once per query of the mix, in this interpreter. With
"trace" the single pass runs under the span tracer. Outputs are digested or
captured outside the timed region and checked by the parent.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from checks import digest, report_text, sharp_counterexamples
from hostspeed import HostSpeed
from tracer import LAYERS, Tracer, cache_stats
from workloads import SWEEPS

SPAN_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


def sweep_pass(verify, workload):
    reports = []
    start = time.perf_counter()
    for suite, kwargs in SWEEPS[workload]:
        try:
            reports.append((suite, verify.run_suite(suite, **kwargs), ""))
        except Exception:  # a raising operation is a measured failure, not a crash
            reports.append((suite, None, traceback.format_exc()))
    seconds = time.perf_counter() - start
    ops = []
    for suite, report, error in reports:
        op = {"suite": suite, "raised": report is None, "error": error,
              "digest": None, "sharp_ces": None}
        if report is not None:
            report_json = report.to_json()
            op["digest"] = digest(report_text(report_json))
            if suite == "sharp-oracle":
                op["sharp_ces"] = sharp_counterexamples(report_json)
        ops.append(op)
    return {"seconds": seconds, "ops": ops}


def cli_pass(cli, mix):
    ops = []
    seconds = 0.0
    for query in mix:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(query["argv"])
                code = 0
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            except Exception:  # what the interpreter does with an uncaught error
                traceback.print_exc()
                code = 1
        elapsed = time.perf_counter() - start
        seconds += elapsed
        ops.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                    "seconds": elapsed})
    return {"seconds": seconds, "ops": ops}


def layer_counters(tracer, modules):
    """Counters read from outside the layers after the traced pass."""
    enumerated = [g for g in tracer.groups if "elements" in vars(g)]
    permgroups = modules["permgroups"]
    return dict(
        cache_stats(modules),
        stats=tracer.stats,
        elements_enumerated=sum(g.order for g in enumerated),
        max_order_over_cap=max((g.order for g in enumerated), default=0) / permgroups.DEFAULT_CAP,
    )


def main():
    job = json.load(sys.stdin)
    modules = {layer: importlib.import_module(f"oddchar.{layer}") for layer in LAYERS}
    workload = job["workload"]

    def one_pass():
        if workload == "cli":
            return cli_pass(modules["cli"], job["mix"])
        return sweep_pass(modules["verify"], workload)

    result = {}
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            passes = [one_pass()]
        finally:
            tracer.uninstall()
        result["summary"] = tracer.summary()
        result["counters"] = layer_counters(tracer, modules)
        tracer.dump(SPAN_DIR / f"spans-{workload}.bin")
    else:
        # Each untraced pass runs between two reference runs, which give the
        # factor that scales its times to a fixed host speed.
        speed = HostSpeed()
        speed.start()
        passes = []
        for _ in range(job["passes"]):
            passes.append(one_pass())
            passes[-1]["speed"] = speed.factor()
    result["passes"] = passes
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
