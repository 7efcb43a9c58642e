"""Machine-checkable certificates tying catalog algebras to verified claims.

A certificate is a list of assertions about one catalog algebra, shipped as
a line-oriented text file and replayed by this module.  Assertions only
verify checkable consequences (congruences, quotient types, absorption,
edges, subpower membership, uniqueness-under-constraints, simplicity);
results are pass / fail(counterexample) / inconclusive(budget).

Each kind is one entry of `_KINDS`: a parse handler (text -> argument
tuple, ValueError if malformed) and a check handler (algebra, arguments,
max_steps -> status, detail, witnesses).  The witnesses are a list of
(term, cells, allowed): the term's value on `cells[j]` must lie in
`allowed[j]`.  Passes that rest on terms carry them (absorption, edges,
subpower and clone membership one each, the Taylor test one per edge of
its spanning forest, a cyclic term count one per counted table), and
`check_assertion` re-evaluates each on all its cells with one
`subpower.term_values` call, apart from the closure that found it: a pass
whose witness does not replay fails with "witness does not replay".  A
"not simple" answer is replayed in its check handler: its congruence must
pass `congruence.is_congruence` and be neither the identity nor full.
Term equivalence and the isomorphism kinds carry no witness yet: their
decision procedures do not return their terms.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from functools import partial
from importlib import resources

from .core import (Algebra, AlgebraError, OperationTable, ParseError, is_cyclic, label_blocks,
                   merge)
from .congruence import (
    Partition,
    class_algebra,
    is_congruence,
    parse_blocks,
    quotient_algebra,
    simplicity_witness,
)
from .search import DIRECTIVES, parse_constraint_file, solutions
from .subpower import cyclic_term_witnesses, generate, render_term, term_values
from . import catalog as _catalog
from . import structure as _structure

DEFAULT_ASSERTION_STEPS = 30_000_000


@dataclass(frozen=True)
class Assertion:
    kind: str
    args: tuple
    line: int = 0


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
            if name is not None:
                raise ParseError(f"second algebra header (the first names {name})", ln)
            if len(rest.split()) != 1:
                raise ParseError(f"algebra header needs one name, got {rest!r}", ln)
            name = rest
            continue
        if name is None:
            raise ParseError("assertion before algebra header", ln)
        if head not in _KINDS:
            raise ParseError(f"unknown assertion {head!r}", ln)
        try:
            args = _KINDS[head][0](rest)
        except (ValueError, IndexError, AlgebraError) as exc:
            raise ParseError(f"malformed {head} assertion {rest!r}: {exc}", ln) from None
        assertions.append(Assertion(head, args, ln))
    if name is None:
        raise AlgebraError("certificate missing `algebra` header")
    return Certificate(name, assertions, notes)


# -- parse handlers: the text after the kind name -> the argument tuple

def _parse_tuple(text, length=None):
    """Comma-separated integers, exactly `length` of them unless None."""
    tup = tuple(int(t) for t in text.split(","))
    if length is not None and len(tup) != length:
        raise ValueError(f"expected {length} integers, got {text!r}")
    return tup


def _parse_partition(text):
    """Partition text, kept as text; its domain is checked at replay."""
    parse_blocks(text)
    return text


def _choice(values: dict):
    """A field converter: one of the keys of `values`, read as its value."""
    def convert(word):
        if word not in values:
            raise ValueError(f"expected one of {' '.join(values)}, got {word!r}")
        return values[word]
    return convert


_parse_bool = _choice({"true": True, "false": False})


def _fields(*convert):
    """The parser of exactly len(convert) whitespace-separated fields."""
    def parse(rest):
        words = rest.split()
        if len(words) != len(convert):
            raise ValueError(f"expected {len(convert)} fields, got {len(words)}")
        return tuple(f(w) for f, w in zip(convert, words))
    return parse


def _parse_count(word):
    if int(word) < 0:
        raise ValueError(f"expected a count of at least 0, got {word}")
    return int(word)


def _parse_edge(rest):
    """`a,b KIND [witness={..}{..}]`; the witness blocks become a tuple.
    Their domain is checked at replay."""
    pair_text, kind, *extra = rest.split()
    pair = _parse_tuple(pair_text, 2)
    kind = _choice({k: k for k in _structure.EDGE_KINDS})(kind)
    blocks = None
    for text in extra:
        key, _, value = text.partition("=")
        if key != "witness":
            raise ValueError(f"expected witness={{..}}, got {text!r}")
        blocks = parse_blocks(value)
    return pair, kind, blocks


def _parse_sg(rest):
    """`m g1;g2;... :: tuple`."""
    spec, _, tup = rest.partition("::")
    m_text, gens_text = spec.split(None, 1)
    gens = tuple(_parse_tuple(g) for g in gens_text.split(";") if g.strip())
    return int(m_text), gens, _parse_tuple(tup.strip())


def _parse_clone(rest):
    """`arity : v0 v1 ...`, the table in row-major order."""
    arity_text, _, vals_text = rest.partition(":")
    return int(arity_text), tuple(int(t) for t in vals_text.split())


def _parse_unique_op(rest):
    """`expect=@self|v0,v1,... :: directive; directive; ...`; @self is None.
    The directives are a search spec's (`search.DIRECTIVES`) without
    `domain`, the algebra's; their heads are checked here, the rest once
    the domain is known."""
    expect_text, _, cons_text = rest.partition("::")
    key, _, expect = expect_text.strip().partition("=")
    if key != "expect":
        raise ValueError("needs expect=")
    directives = tuple(d.strip() for d in cons_text.split(";"))
    heads = [d.partition(" ")[0] for d in directives if d]
    for head in heads:
        if head not in DIRECTIVES:
            raise ValueError(f"unknown directive {head!r}")
        if head == "domain":
            raise ValueError("the domain is the algebra's, not a directive")
    if "arity" not in heads:
        raise ValueError("needs an arity directive")
    return None if expect == "@self" else _parse_tuple(expect), directives


def _parse_optional_pair(rest):
    return (_parse_tuple(rest, 2) if rest else None,)


# -- check handlers: (alg, args, max_steps) -> (status, detail, witnesses)

def _reading(verdict, expect, passed, failed, witnesses=()):
    """The tri-state reading: None is a budget stop, `expect` passes (with
    its witnesses), anything else fails."""
    if verdict is None:
        return "inconclusive", "budget", ()
    if verdict == expect:
        return "pass", passed, witnesses
    return "fail", failed, ()


def _settled(found, conclusive):
    """A search's verdict: True if found, else False when it was exhaustive."""
    return True if found else (False if conclusive else None)


def _iso_reading(got: Algebra, name, max_steps):
    """`got` against the catalog entry `name` up to isomorphism and term
    equivalence (`catalog.equivalent_to_entry`, as for a subdirect product)."""
    perm, conclusive = _catalog.equivalent_to_entry(got, name, max_steps=max_steps)
    return _reading(_settled(perm is not None, conclusive), True, f"bijection {perm}",
                    f"not {name} up to isomorphism")


def _check_congruence(alg, args, max_steps):
    p = Partition.parse(args[0], alg.domain)
    ok, violation = is_congruence(alg, p)
    return ("pass", str(p), ()) if ok else ("fail", f"violation {violation}", ())


def _check_quotient(alg, args, max_steps):
    quo, _ = quotient_algebra(alg, Partition.parse(args[0], alg.domain))
    return _iso_reading(quo, args[1], max_steps)


def _check_class(alg, args, max_steps):
    sub = class_algebra(alg, Partition.parse(args[0], alg.domain), args[1])
    return _iso_reading(sub, args[2], max_steps)


def _check_subdirect(alg, args, max_steps):
    p1, p2 = (Partition.parse(t, alg.domain) for t in args[:2])
    r = _catalog.verify_subdirect(alg, p1, p2, *args[2:], max_steps=max_steps)
    return _reading(r, True, f"{p1} x {p2}", "presentation does not verify")


def _check_absorbs(alg, args, max_steps):
    subset, arity, expect = args
    res = _structure.absorbs(alg, subset, arity, max_steps=max_steps)
    verdict = res.absorbs_as_subuniverse()
    witnesses = []
    if res.witness is not None and expect:
        cells = _structure.absorption_patterns(alg.domain, res.subset, arity)
        witnesses.append((res.witness, cells, [set(res.subset)] * len(cells)))
    return _reading(verdict, expect, res.reason or ("witnessed" if expect else "exhausted"),
                    f"absorbs={verdict}, expected {expect}", witnesses)


def _check_edge(alg, args, max_steps):
    (x, y), kind, blocks = args
    if blocks is not None:
        alg.check_elements(*(v for block in blocks for v in block))
    r, conclusive = _structure.first_edge(
        alg, x, y, max_steps=max_steps,
        accept=lambda r: r.kind == kind and blocks in (None, r.witness_blocks)
        and (not r.directed or (r.a, r.b) == (x, y)))
    return _reading(_settled(r, conclusive), True, r and r.render(),
                    f"no {kind} edge on {(x, y)}",
                    [(r.term, *r.term_condition())] if r else [])


def _check_sg(want, alg, args, max_steps):
    m, gens, tup = args
    gset = generate(alg, m, gens, targets=[tup] if want else None, max_steps=max_steps)
    member = gset.contains(tup)
    witnesses = [(gset.witness_term(tup), list(zip(*gens)), [{v} for v in tup])] if member else []
    return _reading(member, want, f"|Sg|={len(gset)}",
                    f"membership={member}, expected {want}", witnesses)


def _check_clone(want, alg, args, max_steps):
    arity, vals = args
    op = OperationTable("f", arity, alg.domain, vals)
    d = _structure.decide_clone_membership(alg, op, max_steps=max_steps)
    term = d.witness(vals)
    witnesses = [(term, list(op.all_args()), [{v} for v in vals])] if d.holds else []
    passed = (render_term(term, [f"x{i+1}" for i in range(arity)]) if d.holds
              else "excluded by invariant" if d.argument else "exhausted")
    return _reading(d.holds, want, passed, f"membership={d.holds}, expected {want}", witnesses)


def _check_unique_op(alg, args, max_steps):
    expected, directives = args
    try:
        spec = parse_constraint_file("\n".join(directives), domain=alg.domain)
    except ParseError as exc:  # its line is the directive's position after `::`
        raise AlgebraError(f"{exc.reason} (directive {exc.line} of the :: list)") from None
    found = list(itertools.islice(solutions(spec, max_steps), 2))
    if None in found:
        return "inconclusive", "budget", ()
    if len(found) > 1:
        return "fail", "2+ solutions, not unique", ()
    if not found:
        return "fail", "no solution", ()
    if found[0] != (expected or alg.operations[0].values):
        return "fail", "unique solution differs from expected table", ()
    return "pass", "unique solution matches", ()


def _check_two_generated(alg, args, max_steps):
    want = args[0]
    alg.check_elements(*(want or ()))
    got = _structure.two_generated(alg)
    if got is None:
        return "fail", "no generating pair", ()
    if want not in (None, got):
        return "fail", f"first generating pair {got}, expected {want}", ()
    return "pass", f"generators {got}", ()


def _check_simple(alg, args, max_steps):
    """A "not simple" answer carries its congruence, replayed by
    `is_congruence` (apart from `principal_congruence`, which found it) and
    checked to be neither the identity nor the full relation."""
    witness = simplicity_witness(alg)
    got = witness is None
    if not got and (witness.is_identity() or witness.is_full()
                    or not is_congruence(alg, witness)[0]):
        return "fail", "witness congruence does not replay", ()
    return _reading(got, args[0], "simple" if got else f"witness congruence {witness}",
                    f"simple={got}, expected {args[0]}")


def _check_term_equiv(alg, args, max_steps):
    want = _catalog.get(args[0]).algebra
    r = _catalog.term_equivalent(alg, want, max_steps=max_steps)
    return _reading(r, True, args[0], f"not term-equivalent to {args[0]}")


def _check_cyclic_count(alg, args, max_steps):
    """A pass carries one witness per counted table: its term on all n^k
    cells.  The tables must also be invariant under rotation and pairwise
    distinct, so the lower bound is replayed; the upper bound of `==` rests
    on the exhausted Clo_k or, for 0, on the named obstruction."""
    arity, rel, num = args
    found, complete = cyclic_term_witnesses(alg, arity, limit=num if rel == ">=" else None,
                                            max_steps=max_steps)
    tables = [t for t, _ in found]
    if not all(map(is_cyclic, tables)) or len({t.values for t in tables}) < len(tables):
        return "fail", "witness does not replay", ()
    witnesses = [(term, list(t.all_args()), [{v} for v in t.values]) for t, term in found]
    if rel == ">=":
        return _reading(_settled(len(tables) >= num, complete), True,
                        f"found {len(tables)}", f"only {len(tables)} cyclic terms", witnesses)
    return _reading(len(tables) if complete else None, num, f"exactly {num}",
                    f"{len(tables)} cyclic terms, expected {num}", witnesses)


def _check_taylor(alg, args, max_steps):
    """A `taylor true` pass carries the spanning forest's edge records, one
    witness each; here the forest's edges must join every subuniverse the
    test reports.  The subuniverse list itself and the theorem (connected
    edge graphs on every subuniverse mean Taylor) are not replayed."""
    verdict, reports = _structure.is_taylor(alg, max_steps=max_steps)
    forest = []
    if verdict and args[0]:
        for uni, _, edges in reports:
            joined = list(range(alg.domain))
            for r in edges:
                if {r.a, r.b} <= set(uni):
                    merge(joined, r.a, r.b)
            if len(label_blocks(joined, uni)) != 1:
                return "fail", "witness does not replay", ()
            forest += [(r.term, *r.term_condition()) for r in edges]
    return _reading(verdict, args[0], f"taylor={verdict}",
                    f"taylor={verdict}, expected {args[0]}", forest)


# kind -> (parse handler, check handler)
_KINDS = {
    "is-congruence": (_fields(_parse_partition), _check_congruence),
    "quotient-equiv": (_fields(_parse_partition, str), _check_quotient),
    "class-equiv": (_fields(_parse_partition, _parse_tuple, str), _check_class),
    "absorbs": (_fields(_parse_tuple, int, _parse_bool), _check_absorbs),
    "edge": (_parse_edge, _check_edge),
    "sg-contains": (_parse_sg, partial(_check_sg, True)),
    "sg-excludes": (_parse_sg, partial(_check_sg, False)),
    "clone-contains": (_parse_clone, partial(_check_clone, True)),
    "clone-lacks": (_parse_clone, partial(_check_clone, False)),
    "unique-op": (_parse_unique_op, _check_unique_op),
    "two-generated": (_parse_optional_pair, _check_two_generated),
    "simple": (_fields(_parse_bool), _check_simple),
    "term-equiv": (_fields(str), _check_term_equiv),
    "subdirect": (_fields(_parse_partition, _parse_partition, str, str), _check_subdirect),
    "cyclic-count": (_fields(int, _choice({"==": "==", ">=": ">="}), _parse_count),
                     _check_cyclic_count),
    "taylor": (_fields(_parse_bool), _check_taylor),
}


def check_assertion(alg: Algebra, a: Assertion, max_steps=DEFAULT_ASSERTION_STEPS):
    """Evaluate one assertion; returns (status, detail).

    The one place witnesses are replayed: a pass with a term that misses an
    allowed value on some cell becomes a failure."""
    if a.kind not in _KINDS:
        raise AlgebraError(f"unknown assertion kind {a.kind!r}")
    status, detail, witnesses = _KINDS[a.kind][1](alg, a.args, max_steps)
    for term, cells, allowed in witnesses:
        values = term_values(term, alg, cells)
        if any(v not in ok for v, ok in zip(values, allowed, strict=True)):
            return "fail", "witness does not replay"
    return status, detail


def check_certificate(cert: Certificate, max_steps=DEFAULT_ASSERTION_STEPS):
    """Evaluate all assertions in order; returns a list of AssertionResult."""
    alg = _catalog.get(cert.algebra_name).algebra
    results = []
    for idx, a in enumerate(cert.assertions):
        t0 = time.perf_counter()
        try:
            status, detail = check_assertion(alg, a, max_steps=max_steps)
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


def run_suite(certs=None, max_steps=DEFAULT_ASSERTION_STEPS, strict=False):
    """Replay a certificate set; returns (all_ok, results).

    Inconclusive results only count as failures in strict mode.
    """
    if certs is None:
        certs = shipped_certificates()
    results = []
    ok = True
    for cert in certs:
        for r in check_certificate(cert, max_steps=max_steps):
            results.append(r)
            if r.status == "fail" or (strict and r.status == "inconclusive"):
                ok = False
    return ok, results


def format_report(results, json_mode=False):
    if json_mode:
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
