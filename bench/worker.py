"""One pass of one workload in a fresh interpreter.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
The package is imported first, so the moment the import is done
(``imported_at``, on the system-wide monotonic clock) marks the end of
set-up.  A fresh interpreter also means the package's own caches start
empty: the benchmark never imports or clears them.

Prints one JSON object on stdout: timings, item outcomes, size counters,
and with ``--trace 1`` the spans and the per-layer summary.
"""

import time

import adefusion
import adefusion.cli

IMPORTED_AT = time.monotonic()

import argparse
import functools
import inspect
import json
import os
import platform
import random
import resource
import statistics
import sys

import numpy as np

import workloads

LAYERS = ("diagram", "fusion", "essential", "path_model", "ocneanu",
          "modular", "cli")
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


class Tracer:
    """Spans around every call into a layer's public functions, recorded
    from outside: the functions are rebound, in every ``adefusion`` module
    that holds them, to timing wrappers.  Spans stay in memory as
    [name, start, end, parent, item, unexpected-exception]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.on = True

    def wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = [layer + "." + name, 0.0, 0.0,
                    self.stack[-1] if self.stack else None, self.item, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
        return traced

    def install(self):
        """Wrap the public functions and constructors of every layer."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "adefusion" or n.startswith("adefusion.")]
        for layer in LAYERS:
            mod = sys.modules["adefusion." + layer]
            names = ["main"] if layer == "cli" else getattr(
                mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
            for name in names:
                obj = getattr(mod, name, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if "__init__" in vars(obj):
                        obj.__init__ = self.wrap(layer, name, obj.__init__)
                elif callable(obj):
                    wrapper = self.wrap(layer, name, obj)
                    for m in mods:
                        for attr, val in list(vars(m).items()):
                            if val is obj:
                                setattr(m, attr, wrapper)

    def summary(self, wall):
        """Per layer: inclusive busy time (outermost spans of the layer),
        self time (span minus its direct children), calls, share of the
        pass wall time and unexpected exceptions."""
        out = {}
        for layer in LAYERS:
            for key in ("busy_s", "self_s", "calls", "share", "errors"):
                out["%s.%s" % (layer, key)] = 0
        layer_of = [s[0].split(".", 1)[0] for s in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        for i, s in enumerate(self.spans):
            layer = layer_of[i]
            out[layer + ".calls"] += 1
            out[layer + ".self_s"] += (s[2] - s[1]) - child_time[i]
            outer = True
            p = s[3]
            while p is not None:
                if layer_of[p] == layer:
                    outer = False
                    break
                p = self.spans[p][3]
            if outer:
                out[layer + ".busy_s"] += s[2] - s[1]
                if s[5] is not None:
                    out[layer + ".errors"] += 1
        for layer in LAYERS:
            out[layer + ".share"] = out[layer + ".busy_s"] / wall
        return out


def run_pass(workload, seed, tracer, small, corrupt):
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh).get(workload, {})
    items = workloads.items(workload)
    if small:
        items = [i for i in items if i.id == workloads.SMALL[workload]]
    if corrupt:
        refs = dict(refs)
        refs[items[0].id] = {k: "0" * 64 for k in refs[items[0].id]}
    random.Random(seed).shuffle(items)
    passes = 1
    if workload == "cli-session" and not small:
        passes += workloads.CLI_WARM_PASSES

    res = {"attempted": 0, "failed": 0, "wrong": 0, "failures": {},
           "sizes": {}, "pass_s": [], "cpu_s": 0.0}
    sizes = res["sizes"]
    for n in range(passes):
        pass_wall = 0.0
        for item in items:
            if tracer:
                tracer.item = "%d %s" % (n, item.id)
                tracer.on = True
                first_span = len(tracer.spans)
            c0 = time.process_time()
            w0 = time.perf_counter()
            try:
                out, exc = item.run(), None
            except Exception as e:     # an item's crash is its outcome
                out, exc = None, e
            dt = time.perf_counter() - w0
            res["cpu_s"] += time.process_time() - c0
            pass_wall += dt
            if tracer:
                tracer.on = False
            verdict = item.judge(out, exc, refs.get(item.id))
            if tracer and not verdict.failed:
                # an exception on the way to the expected outcome (a
                # refusal) is not an error
                for span in tracer.spans[first_span:]:
                    span[5] = None
            res["attempted"] += 1
            if verdict.failed:
                res["failed"] += 1
                res["wrong"] += verdict.wrong
                res["failures"][item.id] = verdict.note
            elif n == 0:
                for k, v in item.sizes(out).items():
                    old = sizes.get(k, 0)
                    sizes[k] = max(old, v) if k.endswith("max_block") \
                        else old + v
            if isinstance(item, workloads.CliItem):
                key = "cli.%s_s" % item.kind
                sizes[key] = sizes.get(key, 0.0) + dt
                if n == 0 and out is not None:
                    sizes["cli.stdout_bytes"] = sizes.get(
                        "cli.stdout_bytes", 0) + len(out["stdout"].encode())
        res["pass_s"].append(pass_wall)
    res["wall_s"] = sum(res["pass_s"])
    if workload == "cli-session":
        sizes["cli.commands"] = res["attempted"]
        sizes["cli.cold_pass_s"] = res["pass_s"][0]
        sizes["cli.warm_pass_s"] = statistics.median(res["pass_s"][1:] or [0])
    return res


def record():
    """Digests of every value item and successful CLI call, for
    references.json.  Refusals and error exits are fixed by the spec in
    workloads.py, not recorded; nor is a call that does not exit as the
    spec says, so it stays failed until its output is recorded."""
    out = {}
    for workload in workloads.WORKLOADS:
        out[workload] = {}
        for item in workloads.items(workload):
            if item.refusal is not None or getattr(item, "status", 0):
                continue
            res = item.run()
            if res.get("status", 0) != getattr(item, "status", 0):
                print("not recorded: %s exited %r" % (item.id, res["status"]),
                      file=sys.stderr)
                continue
            out[workload][item.id] = {k: workloads.digest(v)
                                      for k, v in item.values(res).items()}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="one small item (self-test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt the first item's reference (self-test)")
    ap.add_argument("--probe", action="store_true",
                    help="only report when the import was done")
    ap.add_argument("--record", action="store_true",
                    help="print the digests for references.json")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(adefusion.__file__).startswith(src + os.sep):
        sys.exit("adefusion was not imported from %s" % src)
    result = {"imported_at": IMPORTED_AT}
    if args.record:
        result["record"] = record()
    elif not args.probe:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        result.update(run_pass(args.workload, args.seed, tracer,
                               args.small, args.corrupt))
        if tracer:
            result["layers"] = tracer.summary(result["wall_s"])
            result["spans"] = tracer.spans
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        }
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
