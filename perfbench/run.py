"""finalg benchmark: one command, one workload, one JSON line of metrics.

    python3 perfbench/run.py --workload cert-replay|iso-classify|query-mix \\
        --seed N --seconds S --trace 0|1 [--smoke] [--repeat-check]

Run from the root of a checkout.  Every pass runs in a fresh single-threaded
interpreter (perfbench/worker.py) as a closed loop with one client, so the
catalog caches start empty as they do for one `alg` call.  The seed makes
the inputs; the same seed gives the same inputs.

Times are reference time (refclock.py): the worker's CPU time, rescaled
by a fixed calibration kernel run every 10 ms to a fixed core speed, so
that a shared machine's drifting speed cancels out.  The wall times go to
stderr and the items file.

--trace 0: five set-up-only interpreters, then round(--seconds / the
workload's PASS_SECONDS) passes, at least one (with --seconds 25: one of
cert-replay, one of iso-classify, two of query-mix).  Pass i draws its
inputs from pass_seed(seed, i), and every pass checks its verdicts.
Prints the end-to-end metrics: latency quantiles over the items of all
passes, time_ref_s the mean over passes.
--trace 1: one traced pass.  Prints the per-layer metrics, including
trace.time_ref_s, the traced pass's time_ref_s; the tracing overhead is
trace.time_ref_s minus the untraced time_ref_s of the same workload and seed.
--repeat-check (with --trace 1): a second traced pass, whose exact counts
must equal the first's.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  Every item record (latency, verdict, check) and, with
--trace 1, the trace details (spans, budget stops with caller chains,
inconclusive items) go to .perfbench_out/.  The exit code is 0 when every
checked verdict is right, 1 on a wrong verdict or error (named on stderr),
2 when the program cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cert-replay", "iso-classify", "query-mix")
# nominal seconds of one checked pass (set-up, timed region, checks) on the
# measuring host; a run makes round(--seconds / this) passes, at least one
PASS_SECONDS = {"cert-replay": 45.0, "iso-classify": 35.0, "query-mix": 12.5}
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170.0
OUT_DIR = ".perfbench_out"


class BenchError(Exception):
    pass


def spawn(workload, seed, *flags):
    """Run one worker; returns (setup_s, result dict).

    setup_s is the wall time from spawning the worker to its "ready",
    rescaled to reference seconds by the worker's own ratio of reference
    to wall time over its set-up."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    t0 = time.perf_counter()
    # unbuffered, so that readline() takes only the first line and
    # communicate() gets the rest
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            bufsize=0, env=env)
    try:
        first = proc.stdout.readline().decode()
        setup_s = time.perf_counter() - t0
        out, err = (b.decode() for b in proc.communicate(timeout=CHILD_TIMEOUT))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or first.strip() != "ready" or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    res = json.loads(lines[-1])
    return setup_s * res["setup_ref_s"] / res["setup_wall_s"], res


def pass_seed(seed, i):
    """The inputs' seed of pass i of a run: passes over different draws
    average out how much one draw of query-mix costs."""
    return seed if i == 0 else seed * 1000 + i


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A weighted average of all order statistics, with Beta((n+1)q, (n+1)(1-q))
    weights (midpoint rule).  Item latencies on a shared machine carry
    +-20% noise each, and the tail of these workloads is sparse (cert-replay's
    95th-percentile neighbours are 155, 249, 270, 358 and 434 ms), so a
    single order statistic jumps between runs; this estimator does not.
    """
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logw = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    w = [math.exp(v - top) for v in logw]
    return sum(wi * xi for wi, xi in zip(w, x)) / sum(w)


def tally(passes):
    """Pooled records, failed count, and the records that make a run incorrect.

    A pass that skipped the checks (the traced repeat) must repeat the first
    pass's verdicts."""
    first = passes[0]["records"]
    for p in passes[1:]:
        if not any(r["check"] == "skipped" for r in p["records"]):
            continue
        if len(p["records"]) != len(first):
            raise BenchError("passes over the same inputs returned different item counts")
        for r, ref in zip(p["records"], first):
            if r["digest"] != ref["digest"]:
                r["check"], r["note"] = "wrong", "verdict differs from the checked pass"
    records = [r for p in passes for r in p["records"]]
    failed = sum(1 for r in records
                 if r["outcome"] != "conclusive" or r["check"] == "wrong")
    bad = [r for r in records if r["outcome"] == "error" or r["check"] == "wrong"]
    return records, failed, bad


def report(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def name_bad(bad):
    for r in bad[:20]:
        print(f"WRONG {r['id']}: {r['outcome']} {r['note']}", file=sys.stderr)


def run_untraced(args, flags):
    setups = [spawn(args.workload, args.seed, "--setup-only", *flags)[0]
              for _ in range(SETUP_SAMPLES)]
    passes = []
    for i in range(max(1, round(args.seconds / PASS_SECONDS[args.workload]))):
        setup_s, res = spawn(args.workload, pass_seed(args.seed, i), *flags)
        setups.append(setup_s)
        passes.append(res)
    records, failed, bad = tally(passes)
    conclusive = sum(1 for r in records if r["outcome"] == "conclusive")
    latencies = [r["ms"] for r in records]

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "time_ref_s": (statistics.fmean(p["ref_s"] for p in passes), "s"),
        "latency_ref_p50_ms": (quantile(latencies, 0.50), "ms"),
        "latency_ref_p95_ms": (quantile(latencies, 0.95), "ms"),
        "conclusive_share": (conclusive / len(records), "share"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.items.json"), "w") as fh:
        json.dump({"setup_s": setups, "passes": passes}, fh)
    checks = {}
    for r in records:
        checks[r["check"]] = checks.get(r["check"], 0) + 1
    print(f"{args.workload} seed={args.seed}: {len(passes)} pass(es) of "
          f"{len(passes[0]['records'])} items, wall s "
          f"{[round(p['wall_s'], 3) for p in passes]}, reference s "
          f"{[round(p['ref_s'], 3) for p in passes]}, kernel ms "
          f"{[round(p['kernel_ms'], 4) for p in passes]}, checks {checks}, "
          f"inconclusive {len(records) - conclusive}", file=sys.stderr)
    return not bad, len(records), failed, metrics, bad


def run_traced(args, flags):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    _, traced = spawn(args.workload, args.seed, "--trace", "--spans", f"{stem}.spans.jsonl",
                      *flags)
    passes = [traced]
    if args.repeat_check:
        _, again = spawn(args.workload, args.seed, "--trace", "--skip-checks", *flags)
        passes.append(again)
        diff = {k: (traced["counts"].get(k), again["counts"].get(k))
                for k in set(traced["counts"]) | set(again["counts"])
                if traced["counts"].get(k) != again["counts"].get(k)}
        if diff:
            raise BenchError(f"two traced runs disagree on exact counts: {diff}")
        print(f"repeat check: {len(traced['counts'])} exact counts identical",
              file=sys.stderr)
    records, failed, bad = tally(passes)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.time_ref_s"] = (traced["ref_s"], "s")
    with open(f"{stem}.trace.json", "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "wall_s": traced["wall_s"], "ref_s": traced["ref_s"],
            "spans": traced["spans"], "counts": traced["counts"],
            "inconclusive": traced["inconclusive"], "budget_stops": traced["budget_stops"],
        }, fh, indent=1)
    print(f"trace written to {stem}.trace.json; {len(traced['inconclusive'])} inconclusive "
          f"items, {len(traced['budget_stops'])} budget stops", file=sys.stderr)
    return not bad, len(records), failed, metrics, bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="cut-down inputs")
    ap.add_argument("--repeat-check", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "finalg", "__init__.py")):
        print("run from the root of a finalg checkout (src/finalg not found)", file=sys.stderr)
        return 2
    flags = ["--smoke"] if args.smoke else []
    try:
        if args.trace:
            correct, attempted, failed, metrics, bad = run_traced(args, flags)
        else:
            correct, attempted, failed, metrics, bad = run_untraced(args, flags)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    name_bad(bad)
    report(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
