"""Machine-checkable certificates tying catalog algebras to verified claims.

A certificate is a list of assertions about one catalog algebra, shipped as
a line-oriented text file and replayed by this module.  Assertions only
verify checkable consequences (congruences, quotient types, absorption,
edges, subpower membership, uniqueness-under-constraints, simplicity);
results are pass / fail(counterexample) / inconclusive(budget).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from importlib import resources

from .core import Algebra, AlgebraError, OperationTable, ParseError
from .congruence import (
    Partition,
    class_algebra,
    is_congruence,
    is_simple,
    principal_congruence,
    quotient_algebra,
)
from .search import SearchSpec, parse_constraint_file, search_ops
from .subpower import cyclic_terms, clone_membership, generate
from . import catalog as _catalog
from . import structure as _structure

DEFAULT_ASSERTION_STEPS = 30_000_000


@dataclass(frozen=True)
class Assertion:
    kind: str
    args: tuple
    line: int = 0

    def render(self) -> str:
        return f"{self.kind}{self.args}"


@dataclass
class Certificate:
    algebra_name: str
    assertions: list
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if not self.assertions:
            raise AlgebraError(f"certificate for {self.algebra_name} has no assertions")


@dataclass
class AssertionResult:
    cert: str
    index: int
    line: int
    kind: str
    status: str  # pass | fail | inconclusive
    detail: str
    millis: float

    @property
    def record(self):
        return {
            "id": f"{self.cert}#{self.index}",
            "status": self.status,
            "detail": self.detail,
            "millis": round(self.millis, 3),
        }


def _parse_tuple(text):
    return tuple(int(t) for t in text.split(","))


def _parse_tuples(text):
    return [_parse_tuple(chunk) for chunk in text.split(";") if chunk.strip()]


def _parse_bool(text, line):
    if text == "true":
        return True
    if text == "false":
        return False
    raise AlgebraError(f"expected true/false, got {text!r} (line {line})")


def parse_certificate(text: str) -> Certificate:
    name = None
    assertions = []
    notes = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if raw.strip().startswith("# note:"):
            notes.append(raw.strip()[7:].strip())
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "algebra":
            name = rest
            continue
        if name is None:
            raise AlgebraError(f"assertion before algebra header (line {ln})")
        try:
            assertions.append(_parse_assertion(head, rest, ln))
        except (ValueError, IndexError) as exc:
            raise ParseError(f"malformed {head} assertion {rest!r}: {exc}", ln) from None
    if name is None:
        raise AlgebraError("certificate missing `algebra` header")
    return Certificate(name, assertions, notes)


def _parse_assertion(head, rest, ln) -> Assertion:
    if head == "is-congruence":
        return Assertion("is-congruence", (rest,), ln)
    if head == "quotient-equiv":
        p, nm = rest.split()
        return Assertion("quotient-equiv", (p, nm), ln)
    if head == "class-equiv":
        p, block, nm = rest.split()
        return Assertion("class-equiv", (p, _parse_tuple(block), nm), ln)
    if head == "absorbs":
        subset, arity, expect = rest.split()
        return Assertion(
            "absorbs", (_parse_tuple(subset), int(arity), _parse_bool(expect, ln)), ln
        )
    if head == "edge":
        parts = rest.split()
        pair = _parse_tuple(parts[0])
        kind = parts[1]
        witness = None
        for extra in parts[2:]:
            if extra.startswith("witness="):
                witness = extra[len("witness="):]
        return Assertion("edge", (pair, kind, witness), ln)
    if head in ("sg-contains", "sg-excludes"):
        spec, _, tup = rest.partition("::")
        m_text, gens_text = spec.split(None, 1)
        return Assertion(
            head,
            (int(m_text), tuple(_parse_tuples(gens_text)), _parse_tuple(tup.strip())),
            ln,
        )
    if head in ("clone-contains", "clone-lacks"):
        arity_text, _, vals_text = rest.partition(":")
        vals = tuple(int(t) for t in vals_text.split())
        return Assertion(head, (int(arity_text), vals), ln)
    if head == "unique-op":
        expect_text, _, cons_text = rest.partition("::")
        expect_text = expect_text.strip()
        if not expect_text.startswith("expect="):
            raise AlgebraError(f"unique-op needs expect= (line {ln})")
        expect = expect_text[len("expect="):]
        return Assertion("unique-op", (expect, cons_text.strip()), ln)
    if head == "two-generated":
        pair = _parse_tuple(rest) if rest else None
        return Assertion("two-generated", (pair,), ln)
    if head == "simple":
        return Assertion("simple", (_parse_bool(rest, ln),), ln)
    if head == "term-equiv":
        return Assertion("term-equiv", (rest,), ln)
    if head == "subdirect":
        p1, p2, n1, n2 = rest.split()
        return Assertion("subdirect", (p1, p2, n1, n2), ln)
    if head == "cyclic-count":
        arity, rel, num = rest.split()
        if rel not in ("==", ">="):
            raise AlgebraError(f"cyclic-count needs == or >= (line {ln})")
        return Assertion("cyclic-count", (int(arity), rel, int(num)), ln)
    if head == "taylor":
        return Assertion("taylor", (_parse_bool(rest, ln),), ln)
    raise AlgebraError(f"unknown assertion {head!r} (line {ln})")


def _unique_op_spec(alg, cons_text):
    """Build a SearchSpec from `; `-separated constraint directives."""
    lines = [f"domain {alg.domain}"]
    arity = None
    for chunk in cons_text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.startswith("arity"):
            arity = int(chunk.split()[1])
        lines.append(chunk)
    if arity is None:
        raise AlgebraError("unique-op constraints must declare arity")
    return parse_constraint_file("\n".join(lines))


def check_assertion(alg: Algebra, a: Assertion, cap=None,
                    max_steps=DEFAULT_ASSERTION_STEPS):
    """Evaluate one assertion; returns (status, detail)."""
    kind, args = a.kind, a.args
    n = alg.domain

    if kind == "is-congruence":
        p = Partition.parse(args[0], n)
        ok, violation = is_congruence(alg, p)
        return ("pass", str(p)) if ok else ("fail", f"violation {violation}")

    if kind == "quotient-equiv":
        p = Partition.parse(args[0], n)
        quo, _ = quotient_algebra(alg, p)
        want = _catalog.get(args[1]).algebra
        if quo.domain != want.domain:
            return "fail", "quotient size mismatch"
        perm, conclusive = _catalog.equivalent_up_to_iso(quo, want, cap=cap)
        if perm is not None:
            return "pass", f"bijection {perm}"
        return ("inconclusive", "budget") if not conclusive else ("fail", "no bijection")

    if kind == "class-equiv":
        p = Partition.parse(args[0], n)
        block = tuple(sorted(args[1]))
        sub = class_algebra(alg, p, block)
        want = _catalog.get(args[2]).algebra
        if sub.domain != want.domain:
            return "fail", "class size mismatch"
        perm, conclusive = _catalog.equivalent_up_to_iso(sub, want, cap=cap)
        if perm is not None:
            return "pass", f"bijection {perm}"
        return ("inconclusive", "budget") if not conclusive else ("fail", "no bijection")

    if kind == "absorbs":
        subset, arity, expect = args
        res = _structure.absorbs(alg, subset, arity, cap=cap, max_steps=max_steps)
        verdict = res.absorbs_as_subuniverse()
        if verdict is None:
            return "inconclusive", "budget"
        if verdict == expect:
            return "pass", res.reason or ("witnessed" if expect else "exhausted")
        return "fail", f"absorbs={verdict}, expected {expect}"

    if kind == "edge":
        (x, y), want_kind, witness = args
        recs, conclusive = _structure.weak_edges(alg, x, y, cap=cap,
                                                 max_steps=max_steps)
        for r in recs:
            if r.kind != want_kind:
                continue
            if witness is not None:
                got = "".join(
                    "{" + ",".join(map(str, bl)) + "}" for bl in r.witness_blocks
                )
                if got != witness:
                    continue
            return "pass", r.render()
        if not conclusive:
            return "inconclusive", "budget"
        return "fail", f"no {want_kind} edge on {(x, y)}"

    if kind in ("sg-contains", "sg-excludes"):
        m, gens, tup = args
        want = kind == "sg-contains"
        targets = [tup] if want else None
        gset = generate(alg, m, gens, cap=cap, targets=targets, max_steps=max_steps)
        member = gset.contains(tup)
        if member is None:
            return "inconclusive", "budget"
        if member == want:
            return "pass", f"|Sg|={len(gset)}"
        return "fail", f"membership={member}, expected {want}"

    if kind in ("clone-contains", "clone-lacks"):
        arity, vals = args
        op = OperationTable("f", arity, n, vals)
        want = kind == "clone-contains"
        if not want and _structure.clone_excluded(alg, op):
            return "pass", "excluded by invariant"
        member, witness = clone_membership(alg, op, cap=cap, max_steps=max_steps)
        if member is None:
            return "inconclusive", "budget"
        if member == want:
            from .subpower import render_term

            names = [f"x{i+1}" for i in range(arity)]
            return "pass", render_term(witness, names) if member else "exhausted"
        return "fail", f"membership={member}, expected {want}"

    if kind == "unique-op":
        expect_text, cons_text = args
        if expect_text == "@self":
            expected = alg.operations[0].values
        else:
            expected = tuple(int(t) for t in expect_text.split(","))
        spec = _unique_op_spec(alg, cons_text)
        spec.cap = 2
        res = search_ops(spec)
        if res.truncated or len(res.tables) > 1:
            return "fail", f"{len(res.tables)}+ solutions, not unique"
        if not res.tables:
            return "fail", "no solution"
        if res.tables[0].values != expected:
            return "fail", "unique solution differs from expected table"
        return "pass", "unique solution matches"

    if kind == "two-generated":
        got = _structure.two_generated(alg)
        want = args[0]
        if got is None:
            return "fail", "no generating pair"
        if want is not None and tuple(want) != got:
            return "fail", f"first generating pair {got}, expected {tuple(want)}"
        return "pass", f"generators {got}"

    if kind == "simple":
        got = is_simple(alg)
        if got == args[0]:
            if not got:
                wit = next(
                    p for p in (
                        principal_congruence(alg, x, y)
                        for x in range(n) for y in range(x + 1, n)
                    )
                    if not p.is_full()
                )
                return "pass", f"witness congruence {wit}"
            return "pass", "simple"
        return "fail", f"simple={got}, expected {args[0]}"

    if kind == "term-equiv":
        want = _catalog.get(args[0]).algebra
        r = _catalog.term_equivalent(alg, want, cap=cap, max_steps=max_steps)
        if r is None:
            return "inconclusive", "budget"
        return ("pass", args[0]) if r else ("fail", f"not term-equivalent to {args[0]}")

    if kind == "subdirect":
        p1 = Partition.parse(args[0], n)
        p2 = Partition.parse(args[1], n)
        r = _catalog.verify_subdirect(alg, p1, p2, args[2], args[3], cap=cap)
        if r is None:
            return "inconclusive", "budget"
        return ("pass", f"{p1} x {p2}") if r else ("fail", "presentation does not verify")

    if kind == "cyclic-count":
        arity, rel, num = args
        if rel == ">=":
            tables, complete = cyclic_terms(alg, arity, cap=cap, limit=num,
                                            max_steps=max_steps)
            if len(tables) >= num:
                return "pass", f"found {len(tables)}"
            if not complete:
                return "inconclusive", "budget"
            return "fail", f"only {len(tables)} cyclic terms"
        tables, complete = cyclic_terms(alg, arity, cap=cap, max_steps=max_steps)
        if not complete:
            return "inconclusive", "budget"
        if len(tables) == num:
            return "pass", f"exactly {num}"
        return "fail", f"{len(tables)} cyclic terms, expected {num}"

    if kind == "taylor":
        verdict, _reports = _structure.is_taylor(alg, cap=cap, max_steps=max_steps)
        if verdict is None:
            return "inconclusive", "budget"
        if verdict == args[0]:
            return "pass", f"taylor={verdict}"
        return "fail", f"taylor={verdict}, expected {args[0]}"

    raise AlgebraError(f"unknown assertion kind {kind!r}")


def check_certificate(cert: Certificate, cap=None,
                      max_steps=DEFAULT_ASSERTION_STEPS, alg=None):
    """Evaluate all assertions in order; returns a list of AssertionResult."""
    if alg is None:
        alg = _catalog.get(cert.algebra_name).algebra
    results = []
    for idx, a in enumerate(cert.assertions):
        t0 = time.perf_counter()
        try:
            status, detail = check_assertion(alg, a, cap=cap, max_steps=max_steps)
        except AlgebraError as exc:
            status, detail = "fail", f"error: {exc}"
        results.append(AssertionResult(
            cert.algebra_name, idx, a.line, a.kind, status, detail,
            (time.perf_counter() - t0) * 1000.0,
        ))
    return results


def shipped_certificates():
    """Certificates bundled with the package, in catalog order."""
    certs = []
    base = resources.files("finalg").joinpath("data").joinpath("certs")
    for name in _catalog.names():
        fname = name.lower().replace(",", "_") + ".cert"
        certs.append(parse_certificate(base.joinpath(fname).read_text()))
    return certs


def run_suite(certs=None, cap=None, max_steps=DEFAULT_ASSERTION_STEPS,
              strict=False):
    """Replay a certificate set; returns (all_ok, results).

    Inconclusive results only count as failures in strict mode.
    """
    if certs is None:
        certs = shipped_certificates()
    results = []
    ok = True
    for cert in certs:
        for r in check_certificate(cert, cap=cap, max_steps=max_steps):
            results.append(r)
            if r.status == "fail" or (strict and r.status == "inconclusive"):
                ok = False
    return ok, results


def format_report(results, json_mode=False):
    if json_mode:
        import json

        return json.dumps([r.record for r in results], indent=0)
    lines = []
    width = max((len(r.cert) for r in results), default=8)
    for r in results:
        lines.append(
            f"{r.cert:<{width}} #{r.index:<2d} {r.kind:<15s} {r.status:<12s} "
            f"{r.millis:9.1f}ms  {r.detail}"
        )
    counts = {}
    for r in results:
        counts[r.status] = counts.get(r.status, 0) + 1
    lines.append(
        "summary: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    return "\n".join(lines)
