"""Span tracer that wraps oddchar's public functions from outside the package.

Each public function of a layer module is replaced, wherever another oddchar
module imported it, by a wrapper that records a span: function, start, end
and the id of the enclosing span. The defining module's own attribute is
replaced too for the roots (`verify.run_suite`, `cli.main`), for functions
that some module imports inside a function body (those read the defining
module at call time), and for the observed functions whose results feed
counters. There a call from inside the defining module passes through the
observer but gets no span and no count, so spans and `.calls` cover
cross-module calls only. Time spent in methods of a module's classes counts
toward the layer that called them.

Spans stay in memory in flat arrays and are written out by `dump`. A layer's
self time is the time its spans cover minus the time their child spans cover.
"""

import ast
import importlib
import inspect
import json
import sys
import time
from array import array

PACKAGE = "oddchar"
LAYERS = ("partitions", "characters", "permgroups", "sym", "glu", "omega", "verify", "cli")
ROOTS = {("verify", "run_suite"), ("cli", "main")}
# Helpers whose span would cost more than their work are counted, not spanned.
COUNTED = {("partitions", "two_adic"), ("partitions", "nu2")}
CACHES = {
    "partitions.tuples_cache": ("partitions", "_partition_tuples"),
    "characters.degree_cache": ("characters", "_degree"),
    "characters.mn_cache": ("characters", "_mn"),
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    return {
        name: obj
        for name in names
        if inspect.isfunction(obj := getattr(module, name))
        and obj.__module__ == module.__name__
    }


def _imported_in_functions(modules):
    """(layer, name) pairs that some function body imports from a layer module."""
    found = set()
    for module in modules.values():
        tree = ast.parse(inspect.getsource(module))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in LAYERS:
                    found.update((node.module, alias.name) for alias in node.names)
    return found


def _skip_own_calls(module_name, observed, wrapper):
    """Route calls from inside `module_name` past the span or count wrapper."""
    getframe = sys._getframe

    def dispatch(*args, **kwargs):
        if getframe(1).f_globals.get("__name__") == module_name:
            return observed(*args, **kwargs)
        return wrapper(*args, **kwargs)

    return dispatch


class Tracer:
    def __init__(self):
        self.fn_names = []
        self.parent = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counted = {}
        self.stats = {
            "odd_returned": 0, "odd_examined": 0, "glu_labels": 0, "omega_labels": 0,
            "real_found": 0, "real_enumerated": 0, "checks": 0, "counterexamples": 0,
        }
        self.groups = []
        self._patches = []

    # -- wrappers -------------------------------------------------------

    def _span(self, fn, qualname):
        nid = len(self.fn_names)
        self.fn_names.append(qualname)
        parent, name, start, end, stack = self.parent, self.name, self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(nid)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    def _count(self, fn, qualname):
        cell = self.counted.setdefault(qualname, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observers(self):
        stats, groups = self.stats, self.groups

        # Partitions examined by odd_partitions: those it tests with
        # is_odd_partition or lists with partitions, whichever is more.
        census = {"depth": 0, "tested": 0, "listed": 0}

        def odd_partitions(fn):
            def inner(n):
                census["depth"] += 1
                census["tested"] = census["listed"] = 0
                try:
                    result = fn(n)
                finally:
                    census["depth"] -= 1
                stats["odd_returned"] += len(result)
                stats["odd_examined"] += max(census["tested"], census["listed"], len(result))
                return result
            return inner

        def is_odd_partition(fn):
            def inner(lam):
                census["tested"] += census["depth"] > 0
                return fn(lam)
            return inner

        def partitions(fn):
            def inner(*args, **kwargs):
                result = fn(*args, **kwargs)
                if census["depth"]:
                    census["listed"] += len(result)
                return result
            return inner

        def counting(key):
            def observe(fn):
                def inner(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    stats[key] += len(result)
                    return result
                return inner
            return observe

        def count_real_odd(fn):
            def inner(*args, **kwargs):
                before = stats["omega_labels"]
                result = fn(*args, **kwargs)
                stats["real_enumerated"] += stats["omega_labels"] - before
                stats["real_found"] += result
                return result
            return inner

        def sylow2_subgroup(fn):
            def inner(*args, **kwargs):
                group = fn(*args, **kwargs)
                groups.append(group)
                return group
            return inner

        def run_suite(fn):
            def inner(*args, **kwargs):
                report = fn(*args, **kwargs)
                stats["checks"] += report.checks
                stats["counterexamples"] += len(report.counterexamples)
                return report
            return inner

        return {
            ("characters", "odd_partitions"): odd_partitions,
            ("characters", "is_odd_partition"): is_odd_partition,
            ("partitions", "partitions"): partitions,
            ("glu", "enumerate_odd_labels"): counting("glu_labels"),
            ("omega", "enumerate_omega_labels"): counting("omega_labels"),
            ("omega", "count_real_odd"): count_real_odd,
            ("permgroups", "sylow2_subgroup"): sylow2_subgroup,
            ("verify", "run_suite"): run_suite,
        }

    # -- installation ---------------------------------------------------

    def install(self):
        importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        everywhere = [sys.modules[PACKAGE]] + list(modules.values())
        observers = self._observers()
        own_module = ROOTS | _imported_in_functions(modules) | set(observers)
        for layer, module in modules.items():
            for fname, fn in _public_functions(module).items():
                key = (layer, fname)
                qualname = f"{layer}.{fname}"
                sites = [m for m in everywhere if m is not module and vars(m).get(fname) is fn]
                if key in own_module:
                    sites.append(module)
                if not sites:
                    continue
                observed = observers[key](fn) if key in observers else fn
                if key in COUNTED:
                    wrapper = self._count(observed, qualname)
                else:
                    wrapper = self._span(observed, qualname)
                for site in sites:
                    self._patches.append((site, fname, fn))
                    if site is module:
                        setattr(site, fname, _skip_own_calls(module.__name__, observed, wrapper))
                    else:
                        setattr(site, fname, wrapper)

    def uninstall(self):
        for site, fname, fn in reversed(self._patches):
            setattr(site, fname, fn)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def summary(self):
        """Per-function self time and call counts, and the time root spans cover."""
        parent, start, end = self.parent, self.start, self.end
        durations = [e - s for s, e in zip(start, end)]
        child = [0.0] * len(durations)
        roots = 0.0
        for p, d in zip(parent, durations):
            if p >= 0:
                child[p] += d
            else:
                roots += d
        self_s = dict.fromkeys(self.fn_names, 0.0)
        calls = dict.fromkeys(self.fn_names, 0)
        for nid, d, c in zip(self.name, durations, child):
            qualname = self.fn_names[nid]
            self_s[qualname] += d - c
            calls[qualname] += 1
        calls.update((qualname, cell[0]) for qualname, cell in self.counted.items())
        return {"self_s": self_s, "calls": calls, "roots_s": roots, "spans": len(durations)}

    def dump(self, path):
        """Write spans as four arrays (parent i32, name u16, start f64, end f64)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            for column in (self.parent, self.name, self.start, self.end):
                column.tofile(out)
        meta = {"spans": len(self.start), "names": self.fn_names,
                "columns": ["parent:i32", "name:u16", "start:f64", "end:f64"]}
        path.with_suffix(".json").write_text(json.dumps(meta))


def cache_stats(modules):
    """Hit ratio and entries of the functools caches the layers own."""
    out = {}
    for metric, (layer, attr) in CACHES.items():
        info = getattr(modules[layer], attr).cache_info()
        lookups = info.hits + info.misses
        out[f"{metric}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out[f"{metric}.entries"] = info.currsize
    return out
