"""adefusion benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest
    python3 bench/run.py --record

Run from the root of a checkout.  BENCHMARK.json names the workloads, why
each was chosen, and every metric with its unit; this script reports
exactly those metrics.

A run first starts SETUP_PROBES interpreters that only import the package,
then runs passes of the workload, one at a time, each in a fresh worker
process (so the package's caches start empty), for as long as another pass
fits in ``--seconds``.  The seed only permutes the order of the items.
Every output is judged against references.json and against checks that
need no reference while the pass runs.

``--trace 0`` reports the end-to-end metrics, medians over the passes:

    setup_s      interpreter start to ``import adefusion, adefusion.cli``
                 done (probes and workers together)
    wall_s       one pass: the summed wall time of its calls into the package
    cpu_s        user+sys time of the worker over the same calls, all threads
    peak_rss_mb  the worker's max RSS
    ok_frac      item attempts whose outcome was the expected one, out of
                 all attempted (1 - failed_frac)

``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-layer metrics of the traced passes: for each module M, ``M.busy_s``
(inclusive time in M's public functions, outermost calls only), ``M.self_s``
(minus the calls into other layers they made), ``M.calls``, ``M.share``
(busy_s over the pass wall time) and ``M.errors`` (exceptions in item
attempts that failed); the size counters read from public values; and the
tracing overhead against the untraced pass.  The spans are written to
.bench_out/.

Which end-to-end metric each layer metric should move:

    ocneanu.*        wall_s, cpu_s on quantum-ladder (about 97% of it); about
                     10% of cli-session, in the cold pass; absent elsewhere
    fusion.*         wall_s on fusion-ladder; under 1% of quantum-ladder
    path_model.*     wall_s and peak_rss_mb on path-window
    cli.json_s, modular.busy_s, essential.busy_s
                     wall_s on the cli-session warm passes
    diagram.busy_s   power iteration; matters only at large rank
                     (fusion-ladder)
    setup_s moves with the import structure on every workload.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  ``correct`` is false when an output differed from its
reference or failed a check; ``failed`` counts every item attempt whose
outcome was not the expected one, a crash or a wrong exit status included.
The line before it records the environment.

``--selftest`` runs one small item per workload with the true references
and with a corrupted one, and exits 0 only if the first passes and the
second fails.  ``--record`` rewrites references.json from the current
source tree.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
REFERENCES = os.path.join(HERE, "references.json")
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0   # a run must end within 180 s
TRACE_DIR = ".bench_out"


class BenchError(Exception):
    pass


def worker_env():
    """Environment for the workers: the checkout's src first on the path,
    and one BLAS thread.  On a 2-core machine a second OpenBLAS thread made
    no pass faster, doubled cpu_s, made wall_s follow the load on the other
    core, and now and then stalled the first LAPACK call of a fresh process
    by about a second."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env, len(os.sched_getaffinity(0))


def spawn(flags, env, deadline):
    """Run one worker to completion; returns (result, start, end) on the
    monotonic clock the worker also stamps its import with."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER] + flags, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s timed out" % " ".join(flags))
    end = time.monotonic()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d"
                         % (" ".join(flags), proc.returncode))
    try:
        return json.loads(proc.stdout), start, end
    except ValueError:
        raise BenchError("worker %s printed no result" % " ".join(flags))


def measure(spec, workload, seed, seconds, trace, env, nproc):
    limit = time.monotonic() + RUN_LIMIT_S
    setup = []
    for _ in range(SETUP_PROBES):
        res, start, _ = spawn(["--probe"], env, limit)
        setup.append(res["imported_at"] - start)

    plain, traced, durations = [], [], []
    window_end = time.monotonic() + seconds
    while True:
        tracing = bool(trace and plain)
        res, start, end = spawn(
            ["--workload", workload, "--seed", str(seed),
             "--trace", "1" if tracing else "0"], env, limit)
        setup.append(res["imported_at"] - start)
        (traced if tracing else plain).append(res)
        durations.append(end - start)
        if trace and not traced:
            continue
        if end + statistics.median(durations) > window_end:
            break

    passes = plain + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    failures = {}
    for r in passes:
        failures.update(r["failures"])
    for item, note in sorted(failures.items()):
        print("failed: %s: %s" % (item, note), file=sys.stderr)

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    if trace:
        values = {
            "trace.overhead_frac": med(traced, "wall_s") / med(plain, "wall_s")
            - 1.0,
            "trace.spans": statistics.median(len(r["spans"]) for r in traced),
        }
        for m in spec["per_layer"]:
            name = m["name"]
            if name in traced[0]["layers"]:
                values[name] = statistics.median(r["layers"][name]
                                                 for r in traced)
            elif name not in values:
                # a size counter; zero where the workload has no such layer
                values[name] = statistics.median(r["sizes"].get(name, 0)
                                                 for r in traced)
        write_spans(workload, seed, traced)
        metrics = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": med(plain, "wall_s"),
            "cpu_s": med(plain, "cpu_s"),
            "peak_rss_mb": med(plain, "peak_rss_mb"),
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = spec["end_to_end"]
    env_line = dict(passes[0]["env"], nproc=nproc, passes=len(passes),
                    traced_passes=len(traced), setup_samples=len(setup))
    print(json.dumps({"env": env_line}))
    return {
        "correct": all(r["wrong"] == 0 for r in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }


def write_spans(workload, seed, traced):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "trace-%s-seed%d.json" % (workload, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "item",
                              "unexpected_exception"],
                   "passes": [r["spans"] for r in traced]}, fh)


def selftest(workloads, env):
    limit = time.monotonic() + RUN_LIMIT_S
    ok = True
    for workload in workloads:
        base = ["--workload", workload, "--small"]
        clean, _, _ = spawn(base, env, limit)
        bad, _, _ = spawn(base + ["--corrupt"], env, limit)
        passed = (clean["failed"] == 0 and bad["failed"] > 0
                  and bad["wrong"] > 0)
        ok = ok and passed
        print("%s %s: failed_frac %.3f with the references, %.3f with one "
              "corrupted" % ("PASS" if passed else "FAIL", workload,
                             clean["failed"] / clean["attempted"],
                             bad["failed"] / bad["attempted"]))
    return 0 if ok else 1


def record(env):
    res, _, _ = spawn(["--record"], env, time.monotonic() + RUN_LIMIT_S)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(res["record"], fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % REFERENCES)
    return 0


def main():
    # turn a termination request into an exception, so that
    # subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "adefusion", "__init__.py")):
        print("no src/adefusion here: run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(
        description="adefusion benchmark (see the module docstring)")
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.selftest or args.record):
        ap.error("--workload is required")
    env, nproc = worker_env()
    try:
        if args.record:
            return record(env)
        if args.selftest:
            return selftest(workloads, env)
        result = measure(spec, args.workload, args.seed, args.seconds,
                         args.trace, env, nproc)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
