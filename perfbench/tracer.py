"""Out-of-tree tracing of the finalg layers.

`install()` wraps every public module-level function of the traced modules
and rebinds each wrapped function under every name any `finalg` module
holds it by (`from .subpower import generate`, `import ... as _alias`), so
internal calls go through the wrapper too.  `guard()` then checks that no
`finalg` module still holds an unwrapped original.

A wrapper records one span per call: name, start, end, parent, as readings
of the tracer's clock (the worker passes its refclock.RefClock.now, and
the times are rescaled to reference seconds at the end).  Time the
tracer spends on its own bookkeeping inside a span is measured and taken
out, so self times are those of the program.  Counters are kept per
function name; `layer_metrics()` turns spans and counters into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED_MODULES = ("subpower", "congruence", "structure", "catalog", "search", "certify")

ASSERTION_KINDS = (
    "is-congruence", "quotient-equiv", "class-equiv", "absorbs", "edge",
    "sg-contains", "sg-excludes", "clone-contains", "clone-lacks", "unique-op",
    "two-generated", "simple", "term-equiv", "subdirect", "cyclic-count", "taylor",
)

# the per-layer metrics: (span or counter name, metrics of it)
LAYER_METRICS = (
    ("subpower.generate", ("calls", "distinct", "self_s", "elements", "applications",
                           "early_exits", "budget_stops", "slow_path_s")),
    *((f"subpower.{fn}", ("calls", "distinct", "total_s"))
      for fn in ("free_algebra", "clone_membership", "cyclic_terms", "has_cyclic_term")),
    *((f"congruence.{fn}", ("calls", "distinct", "self_s"))
      for fn in ("all_congruences", "principal_congruence", "is_congruence")),
    ("structure.all_subuniverses", ("calls", "distinct", "total_s")),
    ("structure.absorbs", ("total_s", "shortcut_no")),
    *((f"structure.{fn}", ("total_s",)) for fn in ("weak_edges", "is_taylor", "has_malcev_term")),
    ("structure.clone_excluded", ("calls", "hits")),
    ("catalog.invariant_fingerprint", ("computed", "total_s")),
    ("catalog.equivalent_up_to_iso", ("self_s",)),
    ("catalog.term_equivalent", ("calls",)),
    ("search.search_ops", ("calls", "self_s", "solutions")),
    *((f"certify.check_assertion.{kind}", ("total_s",)) for kind in ASSERTION_KINDS),
)

BUDGET_REASONS = ("cap", "steps")
EARLY_REASONS = ("targets", "region", "predicate")


def _freeze(obj, memo):
    """Hashable, label-free description of an argument (for distinct counts)."""
    if obj is None or isinstance(obj, (int, str, float, bool, bytes)):
        return obj
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(x, memo) for x in obj)
    if isinstance(obj, (set, frozenset)):
        return frozenset(_freeze(x, memo) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze(v, memo)) for k, v in obj.items()))
    key = id(obj)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    tname = type(obj).__name__
    if tname == "Algebra":
        frozen = ("alg", obj.domain, tuple((o.arity, o.values) for o in obj.operations))
    elif tname == "OperationTable":
        frozen = ("op", obj.arity, obj.domain, obj.values)
    elif tname == "Partition":
        frozen = ("part", obj.size, obj.blocks)
    elif callable(obj):
        frozen = ("callable",)
    else:
        frozen = (tname, repr(obj))
    memo[key] = (obj, frozen)  # the reference keeps id(obj) unique
    return frozen


def generate_applications(gset) -> int:
    """Operation applications of one `generate` call.

    The closure runs breadth-first rounds; round t applies each k-ary
    operation to the index tuples over the first S_t elements that use at
    least one element of round t, i.e. S_t**k - S_(t-1)**k of them.  An
    element's round is one more than the round of its latest parent, so the
    sizes S_t follow from the witness links.  For a closure that reached its
    fixpoint the sum telescopes to the final size to the k.  For a truncated
    closure only rounds that certainly completed are counted (a lower bound).
    """
    arities = [op.arity for op in gset.base.operations]
    size = len(gset.elements)
    if not gset.truncated:
        return sum(size**k for k in arities)
    rounds = []
    for w in gset.witnesses:
        rounds.append(0 if w is None else 1 + max(rounds[p] for p in w[1]))
    top = max(rounds, default=0)
    done = sum(1 for r in rounds if r <= top - 2) if top >= 2 else 0
    return sum(done**k for k in arities)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # span starts and ends are readings of this clock
        self.active = False
        self.spans = []  # [name, start, end, parent, excluded bookkeeping]
        self.stack = []
        self.bookkeeping = 0.0  # seconds of tracer work, running total
        self.counts = {}  # name -> {counter: number}
        self.distinct = {}  # name -> set of argument keys
        self.budget_stops = []  # one record per generate call stopped by a budget
        self.slow = []  # span ids of generate calls over a slow-path operation
        self.item = None  # id of the benchmark item being run
        self.originals = {}  # id(original function) -> (original, wrapper, name)
        self._memo = {}
        self._hooks = {
            "subpower.generate": self._after_generate,
            "structure.absorbs": self._after_absorbs,
            "structure.clone_excluded": self._after_clone_excluded,
            "search.search_ops": self._after_search_ops,
        }

    # -- installation -----------------------------------------------------

    def install(self):
        import importlib

        for short in TRACED_MODULES:
            mod = importlib.import_module(f"finalg.{short}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue  # re-exported from another module
                name = f"{short}.{attr}"
                self.originals[id(fn)] = (fn, self._wrap(name, fn), name)
        for mod in self._finalg_modules():
            for attr, val in list(vars(mod).items()):
                hit = self.originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        self.guard()

    @staticmethod
    def _finalg_modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "finalg" or n.startswith("finalg."))]

    def guard(self):
        """Raise if any finalg module still binds an unwrapped traced function."""
        leaks = []
        for mod in self._finalg_modules():
            for attr, val in vars(mod).items():
                hit = self.originals.get(id(val))
                if hit is not None and hit[0] is val:
                    leaks.append(f"{mod.__name__}.{attr} -> {hit[2]}")
        if leaks:
            raise RuntimeError("unwrapped traced functions: " + ", ".join(leaks))

    def _wrap(self, name, fn):
        tracer = self
        hook = self._hooks.get(name)
        per_kind = name == "certify.check_assertion"  # one span name per assertion kind
        perf = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            sid = len(spans)
            parent = stack[-1] if stack else -1
            label = f"{name}.{(args[1] if len(args) > 1 else kwargs['a']).kind}" if per_kind else name
            span = [label, 0.0, 0.0, parent, tracer.bookkeeping]
            spans.append(span)
            stack.append(sid)
            t0 = perf()
            span[1] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                span[2] = t1
                span[4] = tracer.bookkeeping - span[4]
            tracer._count(name, sid, args, kwargs, result, hook)
            tracer.bookkeeping += perf() - t1
            return result

        return wrapper

    # -- counting -----------------------------------------------------------

    def _count(self, name, sid, args, kwargs, result, hook):
        c = self.counts.setdefault(name, {})
        c["calls"] = c.get("calls", 0) + 1
        if name == "subpower.generate":
            # a distinct closure: same tables, exponent and generator list
            # (early-exit and budget arguments aside)
            key = (_freeze(result.base, self._memo), result.exponent, tuple(result.generators))
        else:
            key = (_freeze(args, self._memo), _freeze(kwargs, self._memo))
        self.distinct.setdefault(name, set()).add(key)
        if hook is not None:
            hook(c, sid, args, kwargs, result)

    def _after_generate(self, c, sid, args, kwargs, gset):
        c["elements"] = c.get("elements", 0) + len(gset.elements)
        c["applications"] = c.get("applications", 0) + generate_applications(gset)
        reason = gset.stop_reason
        if reason in EARLY_REASONS:
            c["early_exits"] = c.get("early_exits", 0) + 1
        if reason in BUDGET_REASONS:
            c["budget_stops"] = c.get("budget_stops", 0) + 1
            self.budget_stops.append({
                "item": self.item,
                "chain": [self.spans[s][0] for s in self.stack] + ["subpower.generate"],
                "exponent": gset.exponent,
                "domain": gset.base.domain,
                "stop_reason": reason,
                "max_steps": kwargs.get("max_steps", args[7] if len(args) > 7 else None),
                "elements": len(gset.elements),
            })
        if any(op.domain**op.arity > 256 for op in gset.base.operations):
            self.slow.append(sid)  # the byte-by-byte path of subpower._Applier

    def _after_absorbs(self, c, sid, args, kwargs, res):
        if res.holds is False and res.reason:
            c["shortcut_no"] = c.get("shortcut_no", 0) + 1

    def _after_clone_excluded(self, c, sid, args, kwargs, res):
        if res:
            c["hits"] = c.get("hits", 0) + 1

    def _after_search_ops(self, c, sid, args, kwargs, res):
        c["solutions"] = c.get("solutions", 0) + len(res.tables)

    def stop(self):
        """End of the timed region: stop tracing, read the fingerprint cache.

        The cache starts empty in a fresh interpreter, so its size is the
        number of fingerprints computed."""
        self.active = False
        fp_cache = sys.modules["finalg.catalog"]._fp_cache
        self.counts.setdefault("catalog.invariant_fingerprint", {})["computed"] = len(fp_cache)

    # -- reports ------------------------------------------------------------

    def span_times(self, ref=None):
        """name -> [total_s, self_s], with tracer bookkeeping taken out.

        With `ref` (a finished refclock.RefClock whose now() the tracer
        read), each span's time is rescaled to reference seconds."""
        net = [s[2] - s[1] - s[4] for s in self.spans]
        if ref is not None:
            net = [d * ref.span(s[1], s[2]) / (s[2] - s[1]) if s[2] > s[1] else d
                   for d, s in zip(net, self.spans)]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += net[i]
        out = {}
        for i, s in enumerate(self.spans):
            acc = out.setdefault(s[0], [0.0, 0.0])
            acc[0] += net[i]
            acc[1] += net[i] - child[i]
        slow = sum(net[i] for i in self.slow)
        return out, slow

    def exact_counts(self):
        """The deterministic counters, for comparing two traced runs."""
        out = {}
        for name, c in sorted(self.counts.items()):
            for k, v in sorted(c.items()):
                out[f"{name}.{k}"] = v
        for name, keys in sorted(self.distinct.items()):
            out[f"{name}.distinct"] = len(keys)
        return out

    def layer_metrics(self, ref=None):
        """name -> (value, unit) for every metric in LAYER_METRICS."""
        times, slow = self.span_times(ref)
        m = {}
        for name, keys in LAYER_METRICS:
            for key in keys:
                if key == "slow_path_s":
                    value = slow
                elif key.endswith("_s"):
                    value = times.get(name, (0.0, 0.0))[key == "self_s"]
                elif key == "distinct":
                    value = len(self.distinct.get(name, ()))
                else:
                    value = self.counts.get(name, {}).get(key, 0)
                m[f"{name}.{key}"] = (value, "s" if key.endswith("_s") else "count")
        return m

    def dump_spans(self, path):
        """Write the spans as JSON lines: name, start, end, parent."""
        import json

        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[0], round(s[1], 7), round(s[2], 7), s[3]]) + "\n")
