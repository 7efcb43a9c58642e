"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are exact (integer/combinatorial); work budgets are fixed
here, and anything that exceeds one is reported, never silently dropped.
"""

import itertools
import random

import pytest

from finalg.core import Algebra, OperationTable, compose, is_malcev, product, projection
from finalg.congruence import (Partition, all_congruences, principal_congruence,
                               simplicity_witness)
from finalg.search import search_ops
from finalg.subpower import cyclic_terms, free_algebra, generate, rab_analyze
from finalg import catalog, certify, structure

BUDGET = 40_000_000  # operation applications per closure

THREE_ELEMENT = (
    [f"T{i}N" for i in range(1, 6)]
    + ["T1S", "T2S", "T1P", "T2P"]
    + [f"T{i}C" for i in range(1, 16)]
)
FOUR_ELEMENT = [f"T4,{i}" for i in range(1, 19)]
TWO_ELEMENT = ["S", "M", "Z2aff"]


def report(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_catalog_integrity():
    failures = []
    for name in catalog.names():
        entry = catalog.get(name)  # golden comparison + unique completion
        if not entry.algebra.is_idempotent():
            failures.append(f"{name}: not idempotent")
        failures.extend(catalog.check_facts(entry))
    report(1, not failures,
           f"all 47 entries load, idempotent, declared restriction rows hold "
           f"({failures or 'no failures'})")


def test_criterion_2_unique_cyclic_terms():
    problems = []
    for i in (1, 2, 3):
        name = f"T{i}N"
        entry = catalog.get(name)
        tables, complete = cyclic_terms(entry.algebra, 3, max_steps=BUDGET)
        if not (complete and len(tables) == 1
                and tables[0].values == entry.op().values):
            problems.append(name)
    t4n = catalog.get("T4N").algebra
    t = t4n.op("t")
    p1, p2, p3 = (projection(3, i, 3) for i in range(3))
    meet3 = compose(t, [compose(t, [p1, p2]), p3])
    tables, complete = cyclic_terms(t4n, 3, max_steps=BUDGET)
    if not (complete and len(tables) == 1 and tables[0].values == meet3.values):
        problems.append("T4N")
    tables, complete = cyclic_terms(catalog.get("T5N").algebra, 3, max_steps=BUDGET)
    if not (complete and tables == []):
        problems.append("T5N")
    report(2, not problems,
           f"unique ternary cyclic term on T1N..T4N matching the catalog tables, "
           f"none on the affine Z3 algebra ({problems or 'exact'})")


def test_criterion_3_not_simple():
    named = {"T4,10": "{0,2}{1,3}", "T4,14": "{0,3}{1}{2}"}
    problems = []
    lines = []
    for name in FOUR_ELEMENT:
        a = catalog.get(name).algebra
        pair = structure.two_generated(a)
        if pair is None:
            problems.append(f"{name}: not 2-generated")
            continue
        if simplicity_witness(a) is None:
            problems.append(f"{name}: simple")
            continue
        witness = next(
            p
            for x in range(4) for y in range(x + 1, 4)
            for p in (principal_congruence(a, x, y),)
            if not p.is_full()
        )
        lines.append(f"{name}: generators {pair}, congruence {witness}")
        want = named.get(name)
        if want is not None and want not in {str(c) for c in all_congruences(a)}:
            problems.append(f"{name}: named congruence {want} missing")
    report(3, not problems,
           f"all 18 four-element entries 2-generated and not simple; "
           f"named congruences verified ({problems or len(lines)})")


def test_criterion_4_taylor_test():
    problems = []
    for name in catalog.names():
        verdict, _ = structure.is_taylor(catalog.get(name).algebra,
                                         max_steps=BUDGET)
        if verdict is not True:
            problems.append(f"{name}: {verdict}")
    for n in (2, 3):
        proj_alg = Algebra(n, [projection(2, 0, n, name="t")])
        verdict, _ = structure.is_taylor(proj_alg, max_steps=BUDGET)
        if verdict is not False:
            problems.append(f"projection-only domain {n}: {verdict}")
    report(4, not problems,
           f"weak-edge connectivity holds on all 47 entries and fails on the "
           f"projection-only controls ({problems or 'exact'})")


def test_criterion_5_pairwise_distinctness():
    problems = []
    inconclusive = []
    for family in (THREE_ELEMENT, FOUR_ELEMENT):
        algs = {nm: catalog.get(nm).algebra for nm in family}
        for a, b in itertools.combinations(family, 2):
            perm, conclusive = catalog.equivalent_up_to_iso(
                algs[a], algs[b], max_steps=20_000_000
            )
            if perm is not None:
                problems.append(f"{a} ~ {b} via {perm}")
            elif not conclusive:
                inconclusive.append((a, b))
    report(5, not problems and not inconclusive,
           f"24 three-element and 18 four-element entries pairwise inequivalent "
           f"up to isomorphism; inconclusive={inconclusive}")


def test_criterion_6_structural_spot_checks():
    problems = []

    if structure.absorbs(catalog.get("T2N").algebra, (0, 1), 2).absorbs_as_subuniverse() is not True:
        problems.append("{0,1} does not binary-absorb T2N")
    if structure.absorbs(catalog.get("T3N").algebra, (0, 2), 3).absorbs_as_subuniverse() is not True:
        problems.append("{0,2} does not ternary-absorb T3N")

    if catalog.term_equivalent(catalog.get("T4,12").algebra,
                               catalog.get("Z4aff").algebra,
                               max_steps=BUDGET) is not True:
        problems.append("T4,12 not term-equivalent to Z4aff")

    prod = product([catalog.get("M").algebra, catalog.get("Z2aff").algebra])
    perm, conclusive = catalog.equivalent_up_to_iso(
        catalog.get("T4,9").algebra, prod, max_steps=BUDGET
    )
    if not (conclusive and perm is not None):
        problems.append("T4,9 not equivalent to M x Z2aff")

    p = catalog.t413_malcev_table()
    if not is_malcev(p):
        problems.append("derived T4,13 operation not Mal'cev")
    for tag, perm2 in (("sigma", catalog.T413_SIGMA), ("tau", catalog.T413_TAU)):
        ok = all(
            p.eval(tuple(perm2[x] for x in args)) == perm2[p.eval(args)]
            for args in p.all_args()
        )
        if not ok:
            problems.append(f"T4,13 operation does not commute with {tag}")
    g = catalog.get("T4,13").op()
    derived_matches = all(
        g(g(x, y, y), g(y, z, z), g(z, x, x))
        == p(p(x, y, z), p(y, z, x), p(z, x, y))
        for x, y, z in itertools.product(range(4), repeat=3)
    )
    if not derived_matches:
        problems.append("T4,13 cyclic/Mal'cev derivations disagree")

    subdirect_cases = [
        ("T4,1", "{0,1,2}{3}", "{0}{1,3}{2}", "S", "T1N"),
        ("T4,2", "{0,1,2}{3}", "{0}{1,3}{2}", "S", "T2N"),
        ("T4,3", "{0,1,2}{3}", "{0}{1,3}{2}", "S", "T3N"),
        ("T4,4", "{0,1,2}{3}", "{0}{1}{2,3}", "S", "T3N"),
        ("T4,7", "{0,1,2}{3}", "{0,3}{1}{2}", "S", "Z3aff"),
    ]
    for name, p1, p2, n1, n2 in subdirect_cases:
        r = catalog.verify_subdirect(
            catalog.get(name).algebra,
            Partition.parse(p1, 4), Partition.parse(p2, 4), n1, n2,
        )
        if r is not True:
            problems.append(f"{name} subdirect presentation failed: {r}")

    report(6, not problems, f"structural spot checks ({problems or 'all hold'})")


def test_criterion_7_oracle_equivalence():
    problems = []
    oracles_skipped = []

    # semilattice-edge decisions vs naive Clo_2 scans
    for name in TWO_ELEMENT + THREE_ELEMENT:
        a = catalog.get(name).algebra
        for x in range(a.domain):
            for y in range(a.domain):
                if x == y:
                    continue
                naive = structure.naive_semilattice_edge(a, x, y, max_steps=BUDGET)
                direct = structure.semilattice_edge(a, x, y)[0]
                if naive is None:
                    oracles_skipped.append((name, "edge", x, y))
                elif naive != direct:
                    problems.append(f"{name}: edge ({x},{y}) naive={naive} direct={direct}")

    # absorption decisions vs naive free-algebra scans
    for name in TWO_ELEMENT + THREE_ELEMENT:
        a = catalog.get(name).algebra
        n = a.domain
        for arity in (2, 3):
            gset = free_algebra(a, arity, max_steps=5_000_000)
            if gset.truncated:
                oracles_skipped.append((name, f"free({arity})"))
                continue
            cells = list(itertools.product(range(n), repeat=arity))
            for r in range(1, n + 1):
                for subset in itertools.combinations(range(n), r):
                    pats = structure.absorption_patterns(n, subset, arity)
                    idx = [cells.index(t) for t in pats]
                    naive = any(
                        all(e[i] in set(subset) for i in idx) for e in gset.elements
                    )
                    direct = structure.absorbs(a, subset, arity,
                                               max_steps=BUDGET).holds
                    if direct is None:
                        problems.append(f"{name}: absorbs {subset} (arity {arity}) inconclusive")
                    elif naive != direct:
                        problems.append(
                            f"{name}: absorbs {subset} (arity {arity}) "
                            f"naive={naive} direct={direct}"
                        )

    # the naive oracle is expected to be out of reach exactly where the
    # ternary clone explodes
    blown = {name for name, *_ in oracles_skipped}
    if not blown <= {"T6C", "T9C", "T10C"}:
        problems.append(f"unexpected oracle skips: {sorted(blown)}")

    # constrained search vs brute-force filtering on randomized constraint sets
    from test_search import brute_force, _random_spec

    rnd = random.Random(20260808)
    rounds = ([(2, 2, False)] * 20 + [(2, 3, False)] * 15
              + [(3, 2, False)] * 10 + [(3, 3, True)] * 5)
    for n, k, force_cyclic in rounds:
        spec = _random_spec(rnd, n, k, force_cyclic=force_cyclic)
        got = sorted(t.values for t in search_ops(spec).tables)
        want = brute_force(spec)
        if got != want:
            problems.append(f"search/brute mismatch on {spec}")

    report(7, not problems,
           f"oracle agreement on 2-/3-element entries "
           f"(naive ternary scan out of budget for {sorted(blown) or 'none'} only, "
           f"per the stated cap-tuning flag) and 50 randomized search/brute rounds "
           f"({problems or 'agree'})")


def test_criterion_8_paper_property_suites():
    problems = []

    # dominant coordinates: no binary term of a 3-element entry is 'neither'
    for name in THREE_ELEMENT:
        a = catalog.get(name).algebra
        f2 = free_algebra(a, 2, max_steps=BUDGET)
        assert not f2.truncated
        for e in f2.elements:
            t = OperationTable("t", 2, 3, tuple(e))
            verdict = structure.dominant_coordinate(a, t, max_steps=BUDGET)
            if verdict in ("neither", None):
                problems.append(f"{name}: term {t.values} dominant={verdict}")

    # binary absorbing subuniverses give one-block congruences; and every
    # outside element sees a semilattice edge into the set
    for name in catalog.names():
        a = catalog.get(name).algebra
        n = a.domain
        for uni in structure.all_subuniverses(a):
            if len(uni) >= n:
                continue
            res = structure.absorbs(a, uni, 2, max_steps=BUDGET)
            if res.holds is None:
                problems.append(f"{name}: B2 test inconclusive on {uni}")
                continue
            if not (res.holds and res.subuniverse):
                continue
            blocks = [uni] + [(x,) for x in range(n) if x not in uni]
            theta = Partition.of(n, blocks)
            from finalg.congruence import is_congruence

            ok, violation = is_congruence(a, theta)
            if not ok:
                problems.append(f"{name}: theta_B not a congruence for B={uni}")
            for outside in range(n):
                if outside in uni:
                    continue
                if not any(
                    structure.semilattice_edge(a, outside, b)[0] is True
                    for b in uni
                ):
                    problems.append(
                        f"{name}: no semilattice edge from {outside} into {uni}"
                    )

    # ternary cyclic terms respect ternary absorbing subuniverses; entries
    # without a ternary cyclic term are named, and every search must decide
    no_cyclic = []
    for name in catalog.names():
        a = catalog.get(name).algebra
        tables, complete = cyclic_terms(a, 3, limit=1, max_steps=BUDGET)
        if not tables:
            if complete:
                no_cyclic.append(name)
            else:
                problems.append(f"{name}: ternary cyclic term search inconclusive")
            continue
        t = tables[0]
        fam, conclusive = structure.ternary_absorbing_subuniverses(a, max_steps=BUDGET)
        if not conclusive:
            problems.append(f"{name}: absorbing family inconclusive")
            continue
        for uni in fam:
            inside = set(uni)
            for args in structure.absorption_patterns(a.domain, uni, 3):
                if t.values[t.index(args)] not in inside:
                    problems.append(f"{name}: cyclic term leaves {uni} at {args}")
                    break

    # Mal'cev term iff no semilattice and no weak-majority edges; and every
    # linked pair relation contains a loop
    for name in catalog.names():
        a = catalog.get(name).algebra
        mal = structure.has_malcev_term(a, max_steps=BUDGET)[0]
        has_sl_or_wm = False
        for x in range(a.domain):
            for y in range(x + 1, a.domain):
                recs, conclusive = structure.weak_edges(a, x, y, max_steps=BUDGET)
                if not conclusive:
                    problems.append(f"{name}: edges inconclusive on ({x},{y})")
                if any(r.kind in ("semilattice", "weak-semilattice",
                                  "majority", "weak-majority") for r in recs):
                    has_sl_or_wm = True
                rep = rab_analyze(a, x, y)
                if rep.kind == "linked" and not rep.diagonal:
                    problems.append(f"{name}: linked relation without a loop ({x},{y})")
        if (mal is True) != (not has_sl_or_wm):
            problems.append(f"{name}: Mal'cev/edge equivalence fails")

    report(8, not problems,
           f"dominant coordinates, absorbing-set congruences and edges, cyclic "
           f"absorption, Mal'cev/edge equivalence, loop lemma ({problems or 'all hold'}); "
           f"cyclic absorption checked on {len(catalog.names()) - len(no_cyclic)} of "
           f"{len(catalog.names())} entries, the others having no ternary cyclic term: "
           f"{', '.join(no_cyclic) or 'none'}")


def test_criterion_9_uniqueness_certificates():
    problems = []
    targets = {"T4,1", "T4,2", "T4,3", "T4,4", "T4,7", "T4,11"}
    seen = set()
    for cert in certify.shipped_certificates():
        if cert.algebra_name not in targets:
            continue
        for idx, a in enumerate(cert.assertions):
            if a.kind != "unique-op":
                continue
            seen.add(cert.algebra_name)
            status, detail = certify.check_assertion(
                catalog.get(cert.algebra_name).algebra, a
            )
            if status != "pass":
                problems.append(f"{cert.algebra_name}: {status} ({detail})")
    if seen != targets:
        problems.append(f"missing uniqueness certificates: {targets - seen}")
    report(9, not problems,
           f"determination arguments reproduce the catalog tables uniquely "
           f"({problems or sorted(seen)})")
