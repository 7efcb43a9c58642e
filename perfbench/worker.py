"""One fresh interpreter: set up finalg, optionally run one workload pass.

    python3 perfbench/worker.py --workload W --seed N [--setup-only] [--trace]
        [--skip-checks] [--smoke] [--spans FILE]

Run from the root of a checkout; finalg is imported from ./src.  The worker
prints "ready" once the 47 catalog entries are loaded and the shipped
certificates parsed (the end of set-up), then, unless --setup-only, runs
one pass of the workload.  Last it prints one JSON line: the set-up's wall
and reference seconds (refclock.py) as seen from inside the worker and,
for a pass, its time in both, one record per item, peak RSS and, with
--trace, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from refclock import RefClock

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


def import_finalg():
    sys.path.insert(0, SRC)
    import finalg

    where = os.path.dirname(os.path.abspath(finalg.__file__))
    if where != os.path.join(SRC, "finalg"):
        raise SystemExit(f"finalg imported from {where}, not from {SRC}")
    from finalg import catalog, certify, congruence, search, structure, subpower  # noqa: F401


def setup():
    from finalg import catalog, certify

    for name in catalog.names():
        catalog.get(name)
    return {"certs": certify.shipped_certificates()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--skip-checks", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this JSON-lines file")
    args = ap.parse_args(argv)

    wall0, clock = time.perf_counter(), RefClock().start()
    setup_t0 = clock.now()
    import_finalg()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(clock.now)
        tracer.install()
        tracer.item = "setup"
        tracer.active = True
    ctx = setup()
    if tracer is not None:
        tracer.active = False  # inputs are made untraced; the workload turns it on
    setup_wall, setup_t1 = time.perf_counter() - wall0, clock.now()
    print("ready", flush=True)
    result = {"setup_wall_s": setup_wall}
    if args.setup_only:
        clock.finish()
        result["setup_ref_s"] = clock.span(setup_t0, setup_t1)
        print(json.dumps(result), flush=True)
        return 0
    ctx["clock"] = clock

    import workloads

    if tracer is not None:
        tracer.guard()  # importing the benchmark's modules must not unwrap anything
    wall, ref, records = workloads.WORKLOADS[args.workload](ctx, args.seed, args.smoke, tracer,
                                                            not args.skip_checks)
    result.update(setup_ref_s=clock.span(setup_t0, setup_t1), wall_s=wall, ref_s=ref,
                  kernel_ms=clock.kernel_median() * 1000.0, records=records)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(clock)
        result["counts"] = tracer.exact_counts()
        result["spans"] = len(tracer.spans)
        result["budget_stops"] = tracer.budget_stops
        result["inconclusive"] = [
            {"id": r["id"], "stops": [s for s in tracer.budget_stops
                                      if s["item"] == r["id"]
                                      or r["id"].startswith(f"{s['item']}#")]}
            for r in records if r["outcome"] == "inconclusive"
        ]
        if args.spans:
            tracer.dump_spans(args.spans)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
