"""The three benchmark workloads: inputs from a seed, a timed pass, checks.

Each `run_<workload>(ctx, seed, smoke, tracer, check)` does one pass in the
current interpreter and returns (wall_s, ref_s, records): the pass's wall
time, its time in reference seconds (refclock.py; ctx["clock"] is the
running clock) and one record per item, whose "ms" is reference time too.
Only the calls into finalg that produce verdicts are timed.  A record is

    {"id", "ms", "outcome": conclusive|inconclusive|error,
     "check": ok|unchecked|wrong|skipped, "note", "digest"}

The checks run after the timed region, and only when `check` is true; the
digest (a hash of the verdict and its witness) lets a pass that skipped
them be compared with one that ran them.  `smoke=True` cuts each workload
down to a few seconds of work.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time

from finalg import catalog, certify, congruence, core, search, structure, subpower

import oracles
import refclock

THREE = [n for n in catalog.names() if n[0] == "T" and n.endswith(("N", "S", "P", "C"))]
FOUR = [f"T4,{i}" for i in range(1, 19)]

ISO_STEPS = 20_000_000  # per-closure budget of the pairwise-distinctness check
ISO_CONTROLS = ("T1N", "T3N", "T1C", "T2N", "T4,3", "T4,9", "T4,13", "T4,15")

QUERY_STEPS = 150_000  # one step budget for every query-mix closure


def digest(verdict):
    return hashlib.sha1(repr(verdict).encode()).hexdigest()[:16]


def _record(item_id, ms, verdict, outcome, check, note=""):
    return {"id": item_id, "ms": ms, "outcome": outcome, "check": check, "note": note,
            "digest": digest(verdict)}


def _timed(ctx, tracer, items):
    """Run (id, thunk) items back to back; returns wall_s, ref_s, [(id, ms, result|exc)].

    ms and ref_s are reference time (refclock.py), wall_s plain wall time.
    The pass's clock stops at the end of the timed region."""
    clock = ctx["clock"]
    now, perf = clock.now, time.perf_counter
    marks, results = [], []
    if tracer is not None:
        tracer.active = True
    w0, start = perf(), now()
    for item_id, thunk in items:
        if tracer is not None:
            tracer.item = item_id
        t0 = now()
        try:
            res = thunk()
        except Exception as exc:  # a crash fails this item; the report names it
            res = exc
        marks.append((t0, now()))
        results.append((item_id, res))
    end, wall = now(), perf() - w0
    if tracer is not None:
        tracer.stop()
    clock.finish()
    out = [(item_id, clock.span(*m) * 1000.0, res) for (item_id, res), m in zip(results, marks)]
    return wall, clock.span(start, end), out


def _records(timed, judge, check):
    """judge(index, result) -> (outcome, verify) with verify() -> (check, note)."""
    records = []
    for i, (item_id, ms, res) in enumerate(timed):
        if isinstance(res, Exception):
            records.append(_record(item_id, ms, repr(res), "error", "wrong", repr(res)))
            continue
        outcome, verify = judge(i, res)
        if outcome != "conclusive":
            records.append(_record(item_id, ms, res, outcome, "unchecked"))
        elif not check:
            records.append(_record(item_id, ms, res, outcome, "skipped"))
        else:
            records.append(_record(item_id, ms, res, outcome, *verify()))
    return records


# ---------------------------------------------------------------------------
# cert-replay: the shipped suite in catalog order, as `alg verify --suite paper`
# replays it.  Known answer: every assertion passes.  The input is fixed, so
# the seed changes nothing here.


def run_cert_replay(ctx, seed, smoke=False, tracer=None, check=True):
    certs = ctx["certs"]
    if smoke:
        certs = [c for c in certs if catalog.get(c.algebra_name).algebra.domain <= 2]
    # check_certificate times each assertion with time.perf_counter; the
    # stand-in keeps those readings, which map to reference time afterwards
    stand_in = refclock.ClockModule(ctx["clock"])
    readings = stand_in.readings
    thunks = [(c.algebra_name, lambda c=c: (len(readings), certify.check_certificate(c)))
              for c in certs]
    saved, certify.time = certify.time, stand_in
    try:
        wall, ref, timed = _timed(ctx, tracer, thunks)
    finally:
        certify.time = saved
    span = ctx["clock"].span
    records = []
    for name, ms, res in timed:
        if isinstance(res, Exception):
            records.append(_record(name, ms, repr(res), "error", "wrong", repr(res)))
            continue
        base, results = res
        for j, r in enumerate(results):
            item_id = f"{r.cert}#{r.index}"
            verdict = (r.status, r.detail)
            item_ms = span(readings[base + 2 * j], readings[base + 2 * j + 1]) * 1000.0
            if r.status == "inconclusive":
                records.append(_record(item_id, item_ms, verdict, "inconclusive", "unchecked"))
            elif r.detail.startswith("error:"):
                records.append(_record(item_id, item_ms, verdict, "error", "wrong", r.detail))
            else:
                ok = r.status == "pass"
                records.append(_record(item_id, item_ms, verdict, "conclusive",
                                       "ok" if ok else "wrong", "" if ok else r.detail))
    return wall, ref, records


# ---------------------------------------------------------------------------
# iso-classify: the 429 pairs of acceptance criterion 5 (known answer: none
# equivalent), then positive controls: each of ISO_CONTROLS against a seeded
# relabeling of itself (known answer: found).  The pairs come as a
# classifier meets them: each entry of a family against every earlier one
# as it is added, the two families interleaved in proportion.  So the
# first-seen entries, whose fingerprints cost seconds, are spread over the
# pass, and so are the sub-millisecond pairs between them that set the
# median; back to back, those took 0.2 s of a 30 s pass, and the median
# followed the machine's speed in that moment.  The seed picks the
# relabelings only, so the pairs' latency profile stays put.  A relabeling
# must change the tables: an automorphism would hit the fingerprint cache
# and make the control both trivial and 200x cheaper.


def _as_added(family):
    return [(a, b, None) for j, b in enumerate(family) for a in family[:j]]


def _interleave(xs, ys):
    """xs and ys merged, each spread evenly over the result."""
    out, i, j = [], 0, 0
    while i < len(xs) or j < len(ys):
        if j == len(ys) or (i < len(xs) and (i + 0.5) * len(ys) <= (j + 0.5) * len(xs)):
            out.append(xs[i])
            i += 1
        else:
            out.append(ys[j])
            j += 1
    return out


def iso_inputs(seed, smoke=False):
    rng = random.Random(seed)
    pairs = _interleave(_as_added(THREE), _as_added(FOUR))
    controls = []
    for name in ISO_CONTROLS:
        alg = catalog.get(name).algebra
        moving = [p for p in itertools.permutations(range(alg.domain))
                  if catalog.transport(alg, p).operations != alg.operations]
        controls.append((name, name, rng.choice(moving)))
    if smoke:
        pairs, controls = pairs[:6], controls[:1]
    return pairs + controls


def run_iso_classify(ctx, seed, smoke=False, tracer=None, check=True):
    inputs = []
    for a, b, perm in iso_inputs(seed, smoke):
        alg_a, alg_b = catalog.get(a).algebra, catalog.get(b).algebra
        if perm is None:
            item_id = f"pair:{a}~{b}"
        else:
            alg_b = catalog.transport(alg_b, perm)
            item_id = f"control:{a}@{''.join(map(str, perm))}"
        inputs.append((item_id, alg_a, alg_b, perm is not None))
    wall, ref, timed = _timed(ctx, tracer, [
        (item_id, lambda x=x, y=y: catalog.equivalent_up_to_iso(x, y, max_steps=ISO_STEPS))
        for item_id, x, y, _ in inputs])

    def judge(i, res):
        _, alg_a, alg_b, control = inputs[i]
        perm, conclusive = res
        if perm is None and not conclusive:
            return "inconclusive", None
        if not control:
            return "conclusive", lambda: (("ok", "") if perm is None
                                          else ("wrong", f"equivalent via {perm}"))
        if perm is None:
            return "conclusive", lambda: ("wrong", "relabeling not found")

        def verify():
            ok, note = oracles.check_bijection(alg_a, alg_b, perm)
            return ("ok" if ok else "wrong"), note
        return "conclusive", verify

    return wall, ref, _records(timed, judge, check)


# ---------------------------------------------------------------------------
# query-mix: a seeded stream of single CLI-style queries

PRODUCTS = {
    "p4": [("M", "Z2aff"), ("S", "S"), ("M", "M"), ("Z2aff", "Z2aff")],
    "p6": [("M", "T1N"), ("Z2aff", "T5N"), ("S", "T4N"), ("M", "T1C"),
           ("Z2aff", "T2P"), ("S", "T1S")],
    "p9": [("T1N", "T2N"), ("T5N", "T5N"), ("T1C", "T2C"), ("T4N", "T1S"),
           ("T1S", "T2S"), ("T2P", "T3N"), ("M", "T4,1")],
}
POOLS = {
    "d2": ["S", "M", "Z2aff"],
    "d3": THREE,
    "d4": FOUR + ["Z4aff", "Z2xZ2aff"],
    **{k: [f"{a}x{b}" for a, b in v] for k, v in PRODUCTS.items()},
}
# repetitions of each pool, per query kind.  clone and cyclic build free
# algebras in A^(n^k), which for the 6- to 9-element products do not fit the
# step budget, so they leave those pools out.
QUOTAS = {
    "sg":     {"d2": 2, "d3": 1, "d4": 1, "p4": 2, "p6": 2, "p9": 2},
    "cong":   {"d2": 2, "d3": 1, "d4": 1, "p4": 2, "p6": 2, "p9": 2},
    "absorb": {"d2": 4, "d3": 1, "d4": 1, "p4": 2, "p6": 1, "p9": 1},
    "edges":  {"d2": 2, "d3": 1, "d4": 1, "p4": 2, "p6": 1, "p9": 1},
    "clone":  {"d2": 4, "d3": 1, "d4": 1, "p4": 2},
    "cyclic": {"d2": 1, "d3": 1, "d4": 1, "p4": 1},
    "malcev": {"d2": 1, "d3": 1, "d4": 1, "p4": 1, "p6": 1, "p9": 1},
}
# classification-style searches: (domain, arity) -> number of specs
SEARCH_QUOTAS = {(2, 2): 4, (2, 3): 4, (3, 2): 16, (3, 3): 16, (4, 2): 8}


def query_algebras():
    algs = {n: catalog.get(n).algebra for pool in ("d2", "d3", "d4") for n in POOLS[pool]}
    for pairs in PRODUCTS.values():
        for a, b in pairs:
            algs[f"{a}x{b}"] = core.product(
                [catalog.get(a).algebra, catalog.get(b).algebra], label=f"{a}x{b}")
    return algs


def _random_term(rng, alg, k, depth):
    if depth == 0 or rng.random() < 0.25:
        return subpower.TermTree.variable(rng.randrange(k))
    op = rng.choice(alg.operations)
    return subpower.TermTree.node(op.name, [_random_term(rng, alg, k, depth - 1)
                                            for _ in range(op.arity)])


def _draw_query(rng, kind, alg, slot):
    """Parameters of one query.  The shape (arities, sizes, how many of
    each constraint) follows the query's slot in its (kind, pool) quota, so
    only the concrete elements vary with the seed."""
    n = alg.domain
    if kind == "sg":
        m = (2, 3)[slot % 2]
        gens = [tuple(rng.randrange(n) for _ in range(m)) for _ in range((2, 3)[slot // 2 % 2])]
        return {"gens": gens, "m": m, "target": tuple(rng.randrange(n) for _ in range(m))}
    if kind in ("cong", "edges"):
        return {"pair": tuple(rng.sample(range(n), 2))}
    if kind == "absorb":
        size = 1 + slot * 3 % (n - 1)
        return {"subset": tuple(sorted(rng.sample(range(n), size))), "arity": (2, 3)[slot % 2]}
    if kind == "clone":
        k = (2, 3)[slot // 2 % 2]
        if slot % 2 == 0:
            term = _random_term(rng, alg, k, 2)
            return {"table": oracles.term_table(term, alg, k), "arity": k, "from_term": True}
        vals = [rng.randrange(n) for _ in range(n**k)]
        for x in range(n):
            vals[oracles.cell_index((x,) * k, n)] = x
        return {"table": tuple(vals), "arity": k, "from_term": False}
    return {}


def query_inputs(seed, smoke=False):
    """The seeded query list: (id, kind, algebra name, params)."""
    rng = random.Random(seed)
    algs = query_algebras()
    queries = []
    for kind, quota in QUOTAS.items():
        for pool, reps in quota.items():
            names = POOLS[pool] * reps
            if smoke:
                names = names[:1]
            for slot, name in enumerate(names):
                queries.append((kind, name, _draw_query(rng, kind, algs[name], slot)))
    for (n, k), count in SEARCH_QUOTAS.items():
        for slot in range(1 if smoke else count):
            queries.append(("search", f"d{n}", oracles.random_search_spec(rng, n, k, slot)))
    rng.shuffle(queries)
    return [(f"q{i}:{kind}:{name}", kind, name, p)
            for i, (kind, name, p) in enumerate(queries)], algs


def _query_thunk(kind, alg, p):
    B = QUERY_STEPS
    if kind == "sg":
        def run():
            g = subpower.generate(alg, p["m"], p["gens"], targets=[p["target"]], max_steps=B)
            member = g.contains(p["target"])
            return member, (g.witness_term(p["target"]) if member else None)
        return run
    if kind == "cong":
        return lambda: congruence.principal_congruence(alg, *p["pair"])
    if kind == "absorb":
        return lambda: structure.absorbs(alg, p["subset"], p["arity"], max_steps=B)
    if kind == "edges":
        return lambda: structure.weak_edges(alg, *p["pair"], max_steps=B)
    if kind == "clone":
        op = core.OperationTable("f", p["arity"], alg.domain, p["table"])

        def run():
            reason = structure.clone_excluded(alg, op)
            if reason:
                return False, None, reason
            member, witness = subpower.clone_membership(alg, op, max_steps=B)
            return member, witness, None
        return run
    if kind == "cyclic":
        return lambda: subpower.has_cyclic_term(alg, 3, max_steps=B)
    if kind == "malcev":
        return lambda: structure.has_malcev_term(alg, max_steps=B)
    if kind == "search":
        text = oracles.spec_text(p)
        return lambda: search.search_ops(search.parse_constraint_file(text))
    raise ValueError(kind)


def run_query_mix(ctx, seed, smoke=False, tracer=None, check=True):
    queries, algs = query_inputs(seed, smoke)
    wall, ref, timed = _timed(ctx, tracer, [(qid, _query_thunk(kind, algs.get(name), p))
                                            for qid, kind, name, p in queries])

    def judge(i, res):
        _, kind, name, p = queries[i]
        if oracles.inconclusive(kind, res):
            return "inconclusive", None
        return "conclusive", lambda: oracles.verify(kind, algs.get(name), p, res)

    return wall, ref, _records(timed, judge, check)


WORKLOADS = {
    "cert-replay": run_cert_replay,
    "iso-classify": run_iso_classify,
    "query-mix": run_query_mix,
}
