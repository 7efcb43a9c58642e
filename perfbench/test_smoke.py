"""Smoke test of the benchmark itself: cut-down inputs, about 15 seconds.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def check_schema(out, wanted):
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for v in out["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_end_to_end_schema(workload):
    code, out, err = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", "0", "--smoke")
    assert code == 0, err
    check_schema(out, BENCH["end_to_end"])
    assert out["correct"] is True
    for m in BENCH["end_to_end"]:
        assert out["metrics"][m["name"]]["value"] > 0


def test_traced_schema_and_repeat_check():
    code, out, err = bench("--workload", "query-mix", "--seed", "3", "--seconds", "1",
                           "--trace", "1", "--smoke", "--repeat-check")
    assert code == 0, err
    assert "exact counts identical" in err
    check_schema(out, BENCH["per_layer"])
    assert out["metrics"]["subpower.generate.calls"]["value"] > 0
    assert out["metrics"]["search.search_ops.calls"]["value"] > 0


def test_wrong_verdict_gate(monkeypatch):
    good = {"id": "q0:cong:S", "ms": 1.0, "outcome": "conclusive", "check": "ok", "note": "",
            "digest": "a"}
    wrong = {"id": "q1:sg:T4,13", "ms": 2.0, "outcome": "conclusive", "check": "wrong",
             "note": "witness does not replay", "digest": "b"}
    fake = {"wall_s": 0.5, "ref_s": 0.4, "kernel_ms": 0.3, "rss_mb": 20.0,
            "records": [good, wrong]}
    monkeypatch.setattr(run, "spawn", lambda *a: (0.1, fake))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run.main(["--workload", "query-mix", "--seed", "1", "--seconds", "0"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "q1:sg:T4,13" in err.getvalue()


def test_checks_flag_wrong_answers():
    import oracles
    from finalg import catalog, congruence

    alg = catalog.get("T4,10").algebra
    identity = congruence.Partition.identity(4)
    assert oracles.verify("cong", alg, {"pair": (0, 2)}, identity)[0] == "wrong"
    right = congruence.principal_congruence(alg, 0, 2)
    assert oracles.verify("cong", alg, {"pair": (0, 2)}, right)[0] == "ok"
    spec = {"domain": 3, "arity": 2, "sym": "commutative", "restrict": [],
            "partition": None, "values": []}
    assert oracles.brute_count(spec) == 27  # three free cells of a commutative idempotent table


def test_applications_and_guard_on_t413():
    from tracer import Tracer

    from finalg import catalog, structure, subpower

    tracer = Tracer()
    tracer.install()
    alg = catalog.get("T4,13").algebra
    tracer.active = True
    subpower.free_algebra(alg, 3)
    tracer.stop()
    counts = tracer.exact_counts()
    assert counts["subpower.generate.calls"] == 1
    assert counts["subpower.generate.elements"] == 128
    assert counts["subpower.generate.applications"] == 128**3
    assert counts["subpower.free_algebra.calls"] == 1

    wrapped = structure.generate
    structure.generate = wrapped.__wrapped__
    try:
        with pytest.raises(RuntimeError, match="finalg.structure.generate"):
            tracer.guard()
    finally:
        structure.generate = wrapped
    tracer.guard()


def test_refclock_leaves_out_kernels_and_rescales():
    import time

    import refclock

    clock = refclock.RefClock().start()
    t0, c0 = clock.now(), time.thread_time()
    while time.thread_time() - c0 < 0.3:
        sum(range(1000))
    t1, c1 = clock.now(), time.thread_time()
    clock.finish()
    assert clock.ticks > 10
    assert 0 < t1 - t0 < c1 - c0  # the kernels' CPU time is left out
    ratio = clock.span(t0, t1) / (t1 - t0)
    expected = refclock.REF_KERNEL_S / clock.kernel_median()
    assert 0.5 * expected < ratio < 2.0 * expected
