"""Command-line front end.

Every capability is reachable through a verb; output is deterministic
(byte-identical across runs) and scriptable.  Exit codes: 0 success / pass,
1 assertion or property failure, 2 usage error, 3 inconclusive (a budget was
exhausted before the answer was certain).

Algebra arguments accept either a file path in the text format or `@NAME`
for a catalog entry.
"""

from __future__ import annotations

import argparse
import sys

from .core import (
    AlgebraError,
    NotClosedError,
    ParseError,
    TABLE_PROPERTIES,
    UnionFind,
    check_budget,
    parse_algebra,
    serialize_algebra,
)
from .catalog import CatalogIntegrityError
from .congruence import (
    NotACongruenceError,
    all_congruences,
    format_blocks,
    principal_congruence,
    simplicity_witness,
)
from .subpower import (
    cyclic_terms,
    free_algebra,
    generate,
    rab_analyze,
    render_term,
)
from .search import count_ops, parse_constraint_file, search_ops
from . import catalog, certify, structure

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


# Errors that report a failed property of well-formed input, or a file that
# cannot be read (exit 1); every other AlgebraError is an input error (exit 2)
_FAILURES = (CatalogIntegrityError, NotACongruenceError, NotClosedError, OSError)


def _read_ascii(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: non-ASCII byte 0x{data[exc.start]:02x}",
            data.count(b"\n", 0, exc.start) + 1,
        ) from None


def _load(spec: str):
    if spec.startswith("@"):
        return catalog.get(spec[1:]).algebra
    return parse_algebra(_read_ascii(spec), label=spec)


def _parse_ints(text: str, what: str, example: str) -> tuple:
    """Comma-separated integers; anything else is an AlgebraError."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise AlgebraError(f"bad {what} {text!r}: expected integers like {example}") from None


def _var_names(k: int):
    return [f"x{i + 1}" for i in range(k)] if k > 3 else ["x", "y", "z"][:k]


def cmd_info(args):
    alg = _load(args.file)
    print(f"domain {alg.domain}")
    for op in alg.operations:
        props = [label for label, holds in TABLE_PROPERTIES.items() if holds(op)]
        print(f"op {op.name} arity={op.arity} [{', '.join(props)}]")
    return EXIT_OK


def cmd_sg(args):
    alg = _load(args.file)
    gens = [_parse_ints(chunk, "generator list", "0,1;1,0")
            for chunk in args.gens.split(";") if chunk.strip()]
    gset = generate(alg, args.power, gens, max_steps=args.max_steps)
    sys.stdout.write(gset.export_text())
    return EXIT_INCONCLUSIVE if gset.truncated else EXIT_OK


def cmd_clone(args):
    alg = _load(args.file)
    if args.member:
        path, _, opname = args.member.partition(":")
        other = _load(path)
        op = other.op(opname) if opname else other.operations[0]
        d = structure.decide_clone_membership(alg, op, max_steps=args.max_steps)
        if d.holds is None:
            print("inconclusive")
            return EXIT_INCONCLUSIVE
        print("member" if d.holds else "not-member")
        if d.holds:
            print(render_term(d.witness(op.values), _var_names(op.arity)))
        return EXIT_OK
    gset = free_algebra(alg, args.arity, max_steps=args.max_steps)
    print(f"count {len(gset.elements)}{' (truncated)' if gset.truncated else ''}")
    if args.list:
        for e in gset.elements:
            print(" ".join(str(v) for v in e))
    return EXIT_INCONCLUSIVE if gset.truncated else EXIT_OK


def cmd_cyclic(args):
    alg = _load(args.file)
    tables, complete = cyclic_terms(alg, args.arity, limit=args.limit,
                                    max_steps=args.max_steps)
    if args.count:
        print(f"{len(tables)}{'' if complete else '+'}")
    else:
        for t in tables:
            print(" ".join(str(v) for v in t.values))
    return EXIT_OK if complete else EXIT_INCONCLUSIVE


def cmd_cong(args):
    alg = _load(args.file)
    if args.principal:
        a, b = args.principal
        print(str(principal_congruence(alg, a, b)))
    if args.all:
        for p in all_congruences(alg):
            print(str(p))
    if args.simple:
        witness = simplicity_witness(alg)
        print(f"simple={'true' if witness is None else 'false'}")
        if witness is not None:
            print(str(witness))
    return EXIT_OK


def cmd_absorb(args):
    alg = _load(args.file)
    subset = _parse_ints(args.subset, "subset", "0,2")
    res = structure.absorbs(alg, subset, args.arity, max_steps=args.max_steps)
    if res.holds is None:
        print("inconclusive")
        return EXIT_INCONCLUSIVE
    print(f"absorbs={'true' if res.holds else 'false'} "
          f"subuniverse={'true' if res.subuniverse else 'false'}")
    if res.witness is not None:
        print(render_term(res.witness, _var_names(args.arity)))
    if res.reason:
        print(res.reason)
    return EXIT_OK


def cmd_edges(args):
    alg = _load(args.file)
    pairs = (
        [tuple(args.pair)]
        if args.pair
        else [(a, b) for a in range(alg.domain) for b in range(a + 1, alg.domain)]
    )
    conclusive = True
    components = UnionFind(alg.domain)
    for a, b in pairs:
        recs, concl = structure.weak_edges(alg, a, b, max_steps=args.max_steps)
        conclusive = conclusive and concl
        for r in recs:
            term = render_term(r.term, _var_names(3 if r.kind != "semilattice" else 2)) \
                if r.term is not None else "-"
            print(f"{r.render()} term={term}")
        if recs:
            components.union(a, b)
    if args.graph:
        print("components " + " ".join(format_blocks([c]) for c in components.blocks()))
    return EXIT_OK if conclusive else EXIT_INCONCLUSIVE


def cmd_taylor(args):
    alg = _load(args.file)
    verdict, reports = structure.is_taylor(alg, max_steps=args.max_steps)
    for uni, connected, edges in reports:
        print(f"subuniverse {format_blocks([uni])} "
              f"connected={'true' if connected else 'false'} edges={len(edges)}")
    if verdict is None:
        print("taylor=inconclusive")
        return EXIT_INCONCLUSIVE
    print(f"taylor={'true' if verdict else 'false'}")
    return EXIT_OK


def cmd_rab(args):
    alg = _load(args.file)
    rep = rab_analyze(alg, args.a, args.b, max_steps=args.max_steps)
    print(f"kind={rep.kind or 'inconclusive'}")
    print(f"size={len(rep.relation.elements)}")
    for c, witness in rep.diagonal:
        print(f"loop {c} term={render_term(witness, ['x', 'y'])}")
    for i, blocks in enumerate(rep.link_congruences, start=1):
        print(f"link{i} {format_blocks(blocks)}")
    return EXIT_INCONCLUSIVE if rep.kind is None else EXIT_OK


def cmd_equiv(args):
    a = _load(args.file1)
    b = _load(args.file2)
    if args.iso:
        perm, conclusive = catalog.equivalent_up_to_iso(a, b, max_steps=args.max_steps)
        if perm is not None:
            print("equivalent-up-to-iso " + ",".join(map(str, perm)))
            return EXIT_OK
        if not conclusive:
            print("inconclusive")
            return EXIT_INCONCLUSIVE
        print("not-equivalent")
        return EXIT_OK
    r = catalog.term_equivalent(a, b, max_steps=args.max_steps)
    if r is None:
        print("inconclusive")
        return EXIT_INCONCLUSIVE
    print("term-equivalent" if r else "not-term-equivalent")
    return EXIT_OK


def cmd_catalog(args):
    if args.action == "list":
        for name in catalog.names():
            print(name)
        return EXIT_OK
    if args.name is None:
        raise AlgebraError("catalog show/export need a NAME")
    entry = catalog.get(args.name)
    if args.action == "export":
        sys.stdout.write(serialize_algebra(entry.algebra))
        return EXIT_OK
    print(f"name {entry.name}")
    print(f"source {entry.source}")
    if entry.letter_map:
        print("letters " + " ".join(f"{k}={v}" for k, v in sorted(entry.letter_map.items())))
    for fact in entry.facts:
        print("fact " + " ".join(str(x) for x in fact))
    sys.stdout.write(serialize_algebra(entry.algebra))
    return EXIT_OK


def cmd_search(args):
    spec = parse_constraint_file(_read_ascii(args.spec))
    if args.count:
        n, truncated = count_ops(spec, max_steps=args.max_steps)
        print(f"{n}{'+' if truncated else ''}")
        return EXIT_INCONCLUSIVE if truncated else EXIT_OK
    res = search_ops(spec, max_steps=args.max_steps)
    for t in res.tables:
        print(" ".join(str(v) for v in t.values))
    return EXIT_INCONCLUSIVE if res.truncated else EXIT_OK


def cmd_verify(args):
    steps = certify.DEFAULT_ASSERTION_STEPS if args.max_steps is None else args.max_steps
    ok, results = certify.run_suite(max_steps=steps, strict=args.strict)
    print(certify.format_report(results, json_mode=args.json))
    if ok:
        return EXIT_OK
    if any(r.status == "fail" for r in results):
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="alg",
        description="finite universal algebra workbench",
    )
    parser.add_argument("--max-steps", type=int, default=None,
                        help="work budget for closures: the operation applications "
                             "made, one per argument orbit of a symmetric or cyclic "
                             "ternary operation; for a table search, the values tried "
                             "at undecided cell orbits (at least 1)")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("info", help="operations and basic predicates")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("sg", help="generate a subpower")
    p.add_argument("file")
    p.add_argument("--power", type=int, required=True)
    p.add_argument("--gens", required=True,
                   help="semicolon-separated tuples, comma-separated entries")
    p.set_defaults(func=cmd_sg)

    p = sub.add_parser("clone", help="free algebra / clone membership")
    p.add_argument("file")
    p.add_argument("--arity", type=int, default=3)
    p.add_argument("--member", help="FILE2:OP to test membership")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_clone)

    p = sub.add_parser("cyclic", help="cyclic term operations")
    p.add_argument("file")
    p.add_argument("--arity", type=int, default=3)
    p.add_argument("--count", action="store_true")
    p.add_argument("--list", dest="count", action="store_false")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_cyclic, count=True)

    p = sub.add_parser("cong", help="congruences")
    p.add_argument("file")
    p.add_argument("--principal", type=int, nargs=2, metavar=("A", "B"))
    p.add_argument("--all", action="store_true")
    p.add_argument("--simple", action="store_true")
    p.set_defaults(func=cmd_cong)

    p = sub.add_parser("absorb", help="absorption test")
    p.add_argument("file")
    p.add_argument("--subset", required=True)
    p.add_argument("--arity", type=int, choices=(2, 3), required=True)
    p.set_defaults(func=cmd_absorb)

    p = sub.add_parser("edges", help="edge records")
    p.add_argument("file")
    p.add_argument("--pair", type=int, nargs=2, metavar=("A", "B"))
    p.add_argument("--graph", action="store_true")
    p.set_defaults(func=cmd_edges)

    p = sub.add_parser("taylor", help="Taylor test via weak-edge connectivity")
    p.add_argument("file")
    p.set_defaults(func=cmd_taylor)

    p = sub.add_parser("rab", help="analyze Sg{(a,b),(b,a)}")
    p.add_argument("file")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=cmd_rab)

    p = sub.add_parser("equiv", help="term equivalence of two algebras")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--iso", action="store_true",
                   help="allow a relabeling bijection")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("catalog", help="embedded catalog")
    p.add_argument("action", choices=("list", "show", "export"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("search", help="constrained operation-table search")
    p.add_argument("--spec", required=True)
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="replay the certificate suite")
    p.add_argument("--suite", default="paper", choices=("paper",))
    p.add_argument("--strict", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        check_budget(args.max_steps)
        return args.func(args)
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
