import collections
import itertools

import pytest

from finalg.congruence import all_congruences
from finalg.core import Algebra, AlgebraError, OperationTable, product, projection, sg_closure
from finalg.subpower import eval_term, free_algebra, rab_analyze
from finalg.structure import (
    NotIdempotentError,
    absorbs,
    affine_xyz_tables,
    all_subuniverses,
    clone_excluded,
    compose_malcev_term,
    decide_clone_membership,
    dominant_coordinate,
    edge_records,
    has_malcev_term,
    is_taylor,
    naive_absorbs,
    naive_semilattice_edge,
    semilattice_edge,
    ternary_absorbing_subuniverses,
    two_generated,
    weak_edges,
)

from conftest import UnionFind


def test_absorbs_t2n_pair_binary(alg):
    res = absorbs(alg("T2N"), (0, 1), 2)
    assert res.holds is True and res.subuniverse


def test_absorbs_t3n_pair_ternary(alg):
    res = absorbs(alg("T3N"), (0, 2), 3)
    assert res.holds is True and res.subuniverse
    # replay the witness: it maps every almost-inside pattern into the set
    a = alg("T3N")
    from finalg.structure import absorption_patterns

    for args in absorption_patterns(3, (0, 2), 3):
        assert eval_term(res.witness, a, args) in (0, 2)


def test_absorbs_majority_singleton(alg):
    res = absorbs(alg("M"), (0,), 3)
    assert res.holds is True


def test_absorbs_negative(alg):
    res = absorbs(alg("M"), (0,), 2)
    assert res.holds is False


def test_absorbs_decomposition_shortcut(alg):
    res = absorbs(alg("T6C"), (0, 1), 3)
    assert res.holds is False
    assert res.reason is not None


def test_pair_elements_are_checked_first(alg):
    for call in (semilattice_edge, lambda *args: list(edge_records(*args)), rab_analyze):
        for x, y, bad in ((0, 9, 9), (9, 9, 9), (-1, 0, -1)):
            with pytest.raises(AlgebraError, match=f"^element {bad} out of range for domain 2$"):
                call(alg("S"), x, y)


def test_semilattice_edges_t4n(alg):
    a = alg("T4N")
    assert semilattice_edge(a, 1, 0)[0] is True
    assert semilattice_edge(a, 0, 1)[0] is False


def test_semilattice_edges_t1s(alg):
    a = alg("T1S")
    assert semilattice_edge(a, 1, 0)[0] is True
    assert semilattice_edge(a, 0, 1)[0] is False


def test_weak_edges_t3n_strong_affine(alg):
    recs, conclusive = weak_edges(alg("T3N"), 0, 2)
    assert conclusive
    assert any(r.kind == "strong-affine" for r in recs)


def test_weak_edges_t3n_weak_affine(alg):
    recs, conclusive = weak_edges(alg("T3N"), 1, 2)
    assert conclusive
    wa = [r for r in recs if r.kind == "weak-affine"]
    assert any(r.witness_blocks == ((0, 1), (2,)) for r in wa)


def test_weak_edges_t410_majority(alg):
    recs, conclusive = weak_edges(alg("T4,10"), 0, 1)
    assert conclusive
    maj = [r for r in recs if r.kind == "majority"]
    assert any(r.witness_blocks == ((0, 2), (1, 3)) for r in maj)


def test_edge_records_meet_their_term_conditions(alg):
    # in the original labels; an affine record's condition is its x-y+z
    # table modulo the witness on all of Sg{a, b}^3
    kinds = set()
    for name, a, b in (("T1S", 0, 1), ("T3N", 1, 2), ("T3N", 0, 2), ("T4,10", 0, 1)):
        algebra = alg(name)
        recs, conclusive = weak_edges(algebra, a, b)
        assert conclusive and recs
        for r in recs:
            kinds.add(r.kind)
            cells, allowed = r.term_condition()
            assert all(eval_term(r.term, algebra, c) in ok for c, ok in zip(cells, allowed))
            if r.xyz is not None:
                assert len(cells) == len(sg_closure(algebra, (a, b))) ** 3
    assert {"semilattice", "majority", "strong-affine", "weak-affine"} <= kinds


def test_weak_edges_requires_distinct(alg):
    with pytest.raises(AlgebraError):
        weak_edges(alg("S"), 0, 0)


def test_all_subuniverses_conservative(alg):
    subs = all_subuniverses(alg("T1S"))
    assert len(subs) == 7  # every nonempty subset


def test_all_subuniverses_t4n(alg):
    subs = all_subuniverses(alg("T4N"))
    assert subs == ((0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2))


def test_subuniverse_list_matches_every_subset(entries):
    # the one-element-at-a-time enumeration against Sg of every nonempty subset
    algs = [e.algebra for e in entries.values()]
    algs += [product([entries[a].algebra, entries[b].algebra])
             for a, b in (("T5N", "T5N"), ("T2P", "T3N"), ("M", "T4,1"))]
    for a in algs:
        brute = {sg_closure(a, s) for r in range(1, a.domain + 1)
                 for s in itertools.combinations(range(a.domain), r)}
        assert all_subuniverses.__wrapped__(a) == tuple(sorted(brute, key=lambda t: (len(t), t)))


def test_singletons_always_subuniverses(entries):
    for entry in entries.values():
        subs = set(all_subuniverses(entry.algebra))
        for x in range(entry.algebra.domain):
            assert (x,) in subs


def test_is_taylor_semilattice(alg):
    verdict, _ = is_taylor(alg("S"))
    assert verdict is True


def test_is_taylor_projection_only_false():
    for n in (2, 3):
        proj = projection(2, 0, n, name="t")
        verdict, _ = is_taylor(Algebra(n, [proj]))
        assert verdict is False


def _taylor_per_subuniverse(alg, max_steps=None):
    """Reference Taylor test: each subuniverse restricted and relabeled, and
    every pair of it decided there, in the subuniverse's own labels."""
    verdict = True
    reports = []
    for uni in all_subuniverses(alg):
        if len(uni) < 2:
            continue
        sub = alg.restrict(uni)
        components = UnionFind(len(uni))
        edges = []
        sub_conclusive = True
        for i, j in itertools.combinations(range(len(uni)), 2):
            recs, concl = weak_edges(sub, i, j, max_steps=max_steps)
            sub_conclusive = sub_conclusive and concl
            if recs:
                components.union(i, j)
                edges.extend(recs)
        connected = len(components.blocks()) == 1
        if not connected:
            verdict = False if sub_conclusive else None
        reports.append((uni, connected, edges))
        if verdict is False:
            break
    return verdict, reports


def _taylor_controls(entries):
    """The catalog, a projection-only algebra and two products."""
    algs = {name: e.algebra for name, e in entries.items()}
    algs["projection-3"] = Algebra(3, [projection(2, 0, 3, name="t")])
    for a, b in (("M", "Z2aff"), ("S", "S")):
        algs[f"{a}x{b}"] = product([entries[a].algebra, entries[b].algebra])
    return algs


def test_is_taylor_agrees_with_the_per_subuniverse_reference(entries):
    # same verdict, subuniverses and connectivity; each report's records form
    # a forest, a spanning tree when connected, and each of them is one of
    # the reference's records, relabeled into the algebra by the
    # subuniverse's elements
    def relabeled(uni, r):
        return (uni[r.a], uni[r.b], r.kind, r.directed,
                tuple(tuple(uni[x] for x in bl) for bl in r.witness_blocks), r.term)

    verdicts = collections.Counter()
    for name, a in _taylor_controls(entries).items():
        for steps in (None, 1, 20, 200, 1_000):
            verdict, reports = is_taylor(a, max_steps=steps)
            want_verdict, want_reports = _taylor_per_subuniverse(a, max_steps=steps)
            assert verdict == want_verdict, (name, steps)
            verdicts[verdict] += 1
            assert [(uni, connected) for uni, connected, _ in reports] == [
                (uni, connected) for uni, connected, _ in want_reports
            ], (name, steps)
            for (uni, connected, edges), (_, _, want) in zip(reports, want_reports):
                forest = UnionFind(a.domain)
                assert all(forest.union(r.a, r.b) for r in edges), (name, steps, uni)
                if connected:
                    assert len(edges) == len(uni) - 1, (name, steps, uni)
                    assert len(forest.blocks(uni)) == 1, (name, steps, uni)
                reference = {relabeled(uni, r) for r in want}
                assert all((r.a, r.b, r.kind, r.directed, r.witness_blocks, r.term) in reference
                           for r in edges), (name, steps, uni)
    # every verdict is met: Taylor, the projection-only control, and budget stops
    assert set(verdicts) == {True, False, None}


def test_taylor_records_lie_in_their_subuniverse_and_replay_on_the_algebra(entries):
    records = 0
    for name, a in _taylor_controls(entries).items():
        for uni, _, edges in is_taylor(a)[1]:
            for r in edges:
                assert {r.a, r.b} <= set(uni), (name, uni, r.render())
                assert all(set(bl) <= set(uni) for bl in r.witness_blocks), (name, uni, r.render())
                cells, allowed = r.term_condition()
                assert all(eval_term(r.term, a, c) in ok for c, ok in zip(cells, allowed)), \
                    (name, uni, r.render())
                records += 1
    assert records == 270 + 7 + 14  # the catalog's forests, then M x Z2aff and S x S


def test_is_taylor_decides_each_pair_once(entries, monkeypatch):
    # each pair is walked at most once per call, and only while its ends are
    # apart in a subuniverse that holds it
    from finalg import structure

    calls = []
    inner = structure.edge_records

    def spy(alg, a, b, max_steps=None):
        calls.append((a, b))
        return inner(alg, a, b, max_steps=max_steps)

    monkeypatch.setattr(structure, "edge_records", spy)
    total = 0
    for name, entry in entries.items():
        calls.clear()
        assert is_taylor(entry.algebra)[0] is True, name
        pairs = {pair for uni in all_subuniverses(entry.algebra)
                 for pair in itertools.combinations(uni, 2)}
        assert len(calls) == len(set(calls)) and set(calls) <= pairs, name
        total += len(calls)
    assert total == 158  # of the 195 pairs that lie in a subuniverse


def test_is_taylor_spends_few_kernel_applications(entries, monkeypatch):
    # the catalog's Taylor tests, closures counted by the kernel; a closure
    # served from the memo counts 0, so a warm memo only lowers the total
    from finalg import subpower

    spent = []
    inner = subpower.generate

    def spy(*args, **kwargs):
        gset = inner(*args, **kwargs)
        spent.append(gset.applications)
        return gset

    monkeypatch.setattr(subpower, "generate", spy)
    for name, entry in entries.items():
        assert is_taylor(entry.algebra)[0] is True, name
    assert sum(spent) <= 100_000


def test_is_taylor_rejects_non_idempotent():
    neg = OperationTable("f", 1, 2, (1, 0))
    with pytest.raises(NotIdempotentError):
        is_taylor(Algebra(2, [neg]))


def test_has_malcev(alg, monkeypatch):
    from finalg.core import is_malcev
    from finalg.subpower import eval_term_table

    assert has_malcev_term(alg("T5N"))[0] is True
    assert has_malcev_term(alg("T4N"))[0] is False
    member, witness = has_malcev_term(alg("Z4aff"))
    assert member is True
    # the global closure stops on this budget; a local obstruction decides
    assert has_malcev_term(alg("T4,16"), max_steps=150_000)[0] is False
    # every entry gets a conclusive answer at the query budget: the ten
    # "yes" answers carry a term that replays as a Mal'cev operation, and
    # T4,18's, which the global closure in A^24 does not find within the
    # budget, is composed from local terms in A^2
    _, decisions, _ = _malcev_spies(monkeypatch)
    yes, stages = set(), {}
    for name in catalog.names():
        a = alg(name)
        holds, term = has_malcev_term(a, max_steps=150_000)
        stages[name] = decisions[-1].stage
        assert holds is not None, name
        if holds:
            assert is_malcev(eval_term_table(term, a, 3)), name
            yes.add(name)
    assert len(decisions) == len(stages) == 47 and stages["T4,18"] == "compose"
    assert yes == {"Z2aff", "T5N", "T2P", "T13C", "T4,12", "T4,13", "T4,17", "T4,18",
                   "Z4aff", "Z2xZ2aff"}


def _malcev_spies(monkeypatch):
    """Records each Mal'cev decision's stage names and answer, and the
    (exponent, budget) of each closure run."""
    from finalg import structure, subpower

    stages, decisions, closures = [], [], []
    decide, generate = subpower.decide_term, subpower.generate

    def spy_decide(base, k, cells, listed, **kw):
        stages.append([name for name, _ in listed])
        decisions.append(decide(base, k, cells, listed, **kw))
        return decisions[-1]

    def spy_generate(base, m, generators, **kw):
        closures.append((m, kw.get("max_steps")))
        return generate(base, m, generators, **kw)

    monkeypatch.setattr(structure, "decide_term", spy_decide)
    monkeypatch.setattr(subpower, "generate", spy_generate)
    return stages, decisions, closures


def test_t418_malcev_term_is_composed_from_local_terms(alg, monkeypatch):
    # the global closure in A^24 stops on this budget; the "compose" stage
    # builds the term from closures in A^2, at most 4^2 * 3^2 of them
    from finalg.core import is_malcev
    from finalg.subpower import eval_term_table

    stages, decisions, closures = _malcev_spies(monkeypatch)
    a = alg("T4,18")
    holds, term = has_malcev_term(a, max_steps=150_000)
    assert holds is True and is_malcev(eval_term_table(term, a, 3))
    (d,) = decisions
    assert stages == [["compose", "probe", "malcev_obstruction"]]
    assert d.stage == "compose" and d.term is term and d.closure is None
    assert d.witness(d.argument) is term and d.witness(d.argument[::-1]) is None
    assert {m for m, _ in closures} == {2} and len(closures) <= 144


def test_a_non_idempotent_algebra_keeps_its_malcev_stages(monkeypatch):
    # "compose" needs t(y,y,y) = y, so it is not listed: the probe decides
    stages, decisions, _ = _malcev_spies(monkeypatch)
    minority = OperationTable("m", 3, 2, tuple(sum(c) % 2
                                               for c in itertools.product(range(2), repeat=3)))
    meet = OperationTable("f", 2, 2, (0, 0, 0, 1))
    for op, want in ((minority, True), (meet, False)):
        a = Algebra(2, [op, OperationTable("u", 1, 2, (1, 0) if want else (0, 0))])
        assert has_malcev_term(a, max_steps=150_000)[0] is want
        assert stages[-1] == ["probe", "malcev_obstruction"]
        assert decisions[-1].stage == "probe"
        with pytest.raises(NotIdempotentError):
            compose_malcev_term(a)


def test_a_budget_that_cuts_a_local_closure_falls_through_to_the_probe(alg, monkeypatch):
    # T4,7's first local closure does not finish in 7 steps: the probe in
    # A^24 runs next, under the same budget, then the local obstruction
    _, decisions, closures = _malcev_spies(monkeypatch)
    assert has_malcev_term(alg("T4,7"), max_steps=7)[0] is False
    assert closures[:2] == [(2, 7), (24, 7)]
    assert decisions[-1].stage == "malcev_obstruction"


def test_malcev_agrees_with_free_scan(alg):
    # dual route: exhaustive ternary term scan on the 3-element semilattice
    a = alg("T4N")
    f3 = free_algebra(a, 3)
    n = a.domain
    cells = list(itertools.product(range(n), repeat=3))

    def malcev_like(e):
        return all(
            e[cells.index((x, y, y))] == x and e[cells.index((y, y, x))] == x
            for x in range(n)
            for y in range(n)
        )

    assert not any(malcev_like(e) for e in f3.elements)


def test_affine_xyz_tables_are_cached_per_size():
    for n in (2, 3, 4, 5):
        tables = affine_xyz_tables(n)
        assert isinstance(tables, tuple) and affine_xyz_tables(n) is tables
        assert tables == affine_xyz_tables.__wrapped__(n)


def test_affine_xyz_tables_dedup():
    tables = affine_xyz_tables(4)
    names = [g for g, _, _ in tables]
    assert names.count("Z4") == 3 and names.count("Z2xZ2") == 1
    vals = [t.values for _, _, t in tables]
    assert len(set(vals)) == len(vals)


def test_two_generated(alg):
    assert two_generated(alg("S")) == (0, 1)
    assert two_generated(alg("T4N")) == (1, 2)
    assert two_generated(alg("T1S")) is None  # conservative
    # the published construction's generating pair for T4,3
    assert sg_closure(alg("T4,3"), (3, 2)) == (0, 1, 2, 3)


def test_dominant_coordinate_projection(alg):
    a = alg("S")
    p1 = projection(2, 0, 2)
    assert dominant_coordinate(a, p1) in ("first", "both")


def test_dominant_coordinate_meet_both(alg):
    a = alg("S")
    meet = a.op("t")
    assert dominant_coordinate(a, meet) == "both"


def test_dominant_coordinate_neither_exists():
    # a non-term table can have no dominant coordinate: on the majority
    # algebra both singletons 3-absorb, and x+y mod 2 escapes each
    a = Algebra(2, [OperationTable("g", 3, 2, (0, 0, 0, 1, 0, 1, 1, 1))])
    xor = OperationTable("f", 2, 2, (0, 1, 1, 0))
    assert dominant_coordinate(a, xor) == "neither"


def test_ternary_absorbing_families(alg):
    fam, conclusive = ternary_absorbing_subuniverses(alg("T3N"))
    assert conclusive and (0, 2) in fam
    fam, conclusive = ternary_absorbing_subuniverses(alg("T9C"))
    assert conclusive and fam == [(0,), (0, 1, 2)]


def test_clone_excluded_is_sound(alg):
    # anything it rejects really is outside the clone (cross-check on a
    # case small enough for the exhaustive answer)
    a = alg("T1N")
    xyz = OperationTable(
        "p", 3, 3,
        tuple((x - y + z) % 3 for x, y, z in itertools.product(range(3), repeat=3)),
    )
    assert clone_excluded(a, xyz) is not None
    from finalg import catalog
    from finalg.subpower import clone_membership

    assert clone_membership(a, xyz)[0] is False
    # every catalog entry against the x-y+z tables of its size and the
    # operation of every entry of its size
    reasons = collections.Counter()
    settled = 0
    for name in catalog.names():
        a = alg(name)
        tables = [t for _, _, t in affine_xyz_tables(a.domain)]
        tables += [alg(other).operations[0] for other in catalog.names()
                   if alg(other).domain == a.domain]
        for op in tables:
            reason = clone_excluded(a, op)
            reasons[reason and reason.split()[0]] += 1
            if reason:
                # a complete Clo_k never holds an excluded table; T4,17's Clo_3
                # alone takes minutes, so the search stops at 10,000 steps
                member, _ = clone_membership(a, op, max_steps=10_000)
                assert member is not True, (name, op.values, reason)
                settled += member is False
    assert reasons == {"breaks": 743, "restriction": 235, "induced": 12, None: 102}
    assert settled == 617


def test_each_no_names_the_stage_that_decided_it(alg, monkeypatch):
    # the stage of decide_term behind each "no", and what it failed on
    from finalg import structure, subpower

    decisions = []
    inner = subpower.decide_term

    def spy(*args, **kw):
        decisions.append(inner(*args, **kw))
        return decisions[-1]

    for module in (subpower, structure):
        monkeypatch.setattr(module, "decide_term", spy)

    def decided(result):  # the result, then the stage of the outermost decision
        d = decisions[-1]
        decisions.clear()
        return result, d.stage, d.argument

    res = absorbs(alg("T6C"), (0, 1), 3)
    assert decided(res.holds) == (False, "trace", (0, 2))
    assert res.reason == "trace on subuniverse (0, 2) does not absorb"
    res = absorbs(alg("T3N"), (1,), 3)
    assert decided(res.holds)[:2] == (False, "image")
    assert res.reason == "image under {0,1}{2} does not absorb the quotient"
    xyz = OperationTable("p", 3, 3, tuple((x - y + z) % 3
                                          for x, y, z in itertools.product(range(3), repeat=3)))
    d = decide_clone_membership(alg("T1N"), xyz)
    assert (d.holds, d.stage, d.argument) == (False, "clone_excluded", "breaks subuniverse (0, 1)")
    assert decided(subpower.cyclic_terms(alg("T4,16"), 3)) == (
        ([], True), "cyclic_obstruction", (0, 0, 1))
    assert decided(has_malcev_term(alg("T4,16"))) == (
        (False, None), "compose", (0, 3, 0, 3))
    # an exhausted global closure: the majority operation is not a term of
    # the semilattice, and no invariant shows it
    maj = OperationTable("m", 3, 2, (0, 0, 0, 1, 0, 1, 1, 1))
    d = decide_clone_membership(alg("S"), maj)
    assert (d.holds, d.stage, d.argument) == (False, "closure", None)
    assert not d.closure.truncated


def test_a_stage_no_is_the_same_cold_and_warm(alg, monkeypatch):
    # what a local stage says, and names, does not depend on what ran
    # earlier in the process: neither a complete Clo_3 built before nor a
    # stored lattice of the subuniverses
    from finalg import certify, subpower
    from finalg.certify import Assertion

    t45, table = alg("T4,5"), alg("T4,16").operations[0]
    t414 = alg("T4,14")
    lacks = Assertion("clone-lacks", (3, table.values))
    mt1c = product([alg("M"), alg("T1C")])
    decisions = []
    inner = subpower.decide_term
    monkeypatch.setattr(subpower, "decide_term",
                        lambda *args, **kw: decisions.append(inner(*args, **kw)) or decisions[-1])

    def cyclic_stage(a):
        decisions.clear()
        return subpower.has_cyclic_term(a, 3), decisions[-1].stage, decisions[-1].argument

    cases = [
        (lambda: certify.check_assertion(t45, lacks), ("pass", "excluded by invariant")),
        (lambda: clone_excluded(t45, table), "breaks subuniverse (0, 1)"),
        (lambda: absorbs(alg("T6C"), (0, 1), 3).reason,
         "trace on subuniverse (0, 2) does not absorb"),
        (lambda: absorbs(mt1c, (0, 1, 2, 3, 5), 3).reason,
         "trace on subuniverse (1, 4, 5) does not absorb"),
        (lambda: cyclic_stage(t414), (False, "cyclic_obstruction", (0, 0, 1))),
    ]
    all_subuniverses.memo.clear()
    structure._walk_order.memo.clear()  # the stored walk orders too, so the first runs are cold
    assert [run() for run, _ in cases] == [want for _, want in cases]
    for a in (t45, t414):
        assert not subpower.free_algebra(a, 3).truncated
    for a in (t45, alg("T6C"), mt1c):
        all_subuniverses(a)
    assert [run() for run, _ in cases] == [want for _, want in cases]


def test_absorption_makes_no_nested_absorbs_call(alg, monkeypatch):
    # the image stage is one flat pass over A's proper congruences, with no
    # absorption decision per quotient: one "yes" on S x T4N once called
    # absorbs 276 times for 12 distinct quotients
    from finalg import structure

    calls = []
    inner = structure.absorbs

    def spy(*args, **kw):
        calls.append(args)
        return inner(*args, **kw)

    monkeypatch.setattr(structure, "absorbs", spy)
    sxt4n = product([alg("S"), alg("T4N")])
    t5n2 = product([alg("T5N"), alg("T5N")])
    for a, subset, n, holds in ((sxt4n, (0, 3), 2, True), (sxt4n, (2, 4), 2, False),
                                (t5n2, (3, 6, 7, 8), 3, False), (t5n2, (0, 4, 8), 2, False)):
        assert len(all_congruences(a)) > 2  # there are quotients to visit
        calls.clear()
        assert structure.absorbs(a, subset, n).holds is holds
        assert len(calls) == 1, (subset, len(calls))


def test_clone_decision_rejects_a_table_of_another_domain(alg):
    # checked before any stage: clone_excluded alone used to index past the
    # end of a smaller table
    small, large = alg("T1N"), alg("T4,5")
    for a, b in ((large, small), (small, large)):
        with pytest.raises(AlgebraError, match="clone_membership: domain mismatch"):
            decide_clone_membership(a, b.operations[0])
        with pytest.raises(AlgebraError, match="domain mismatch"):
            clone_excluded(a, b.operations[0])


def test_max_steps_reaches_every_closure_in_a_power(alg, monkeypatch):
    # every closure in A^m, m >= 2, that a decision runs gets the caller's
    # budget, also those of the shortcuts (absorption traces and images,
    # clone exclusions) and of the semilattice tests of an edge
    from finalg import catalog, certify, subpower
    from finalg.certify import Assertion

    budgets = []
    inner = subpower._closure

    def spy(base, m, gen_list, cap, stop_for, max_steps):
        budgets.append((m, max_steps))
        return inner(base, m, gen_list, cap, stop_for, max_steps)

    monkeypatch.setattr(subpower, "_closure", spy)
    lacks = Assertion("clone-lacks", (3, alg("T4,12").operations[0].values))
    for decide in (
        lambda: weak_edges(alg("T4,10"), 0, 1, max_steps=1),
        lambda: absorbs(alg("T4,5"), (0,), 3, max_steps=1),
        lambda: catalog.term_equivalent(alg("T4,12"), alg("Z4aff"), max_steps=1),
        lambda: subpower.rab_analyze(alg("T4,10"), 0, 1, max_steps=1),
        lambda: certify.check_assertion(alg("T4,10"), lacks, max_steps=1),
    ):
        budgets.clear()
        decide()
        powers = [b for b in budgets if b[0] >= 2]
        assert powers and all(steps == 1 for _, steps in powers), budgets


def test_naive_oracles_match(alg):
    for name in ("S", "M", "T1N", "T2S"):
        a = alg(name)
        n = a.domain
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                assert naive_semilattice_edge(a, x, y) == semilattice_edge(a, x, y)[0]
        for r in range(1, n + 1):
            for subset in itertools.combinations(range(n), r):
                for arity in (2, 3):
                    naive = naive_absorbs(a, subset, arity)
                    direct = absorbs(a, subset, arity)
                    assert naive == direct.holds


def test_all_subuniverses_memo_returns_the_stored_tuple(alg):
    a = alg("T4N")
    first = all_subuniverses(a)
    assert type(first) is tuple and all_subuniverses(a) is first
    assert first == all_subuniverses.__wrapped__(a)


# ---------------------------------------------------------------------------
# the edge walk against the walk that decides each affine table on its own

from finalg import catalog, structure  # noqa: E402
from finalg.congruence import maximal_congruences, quotient_algebra  # noqa: E402
from finalg.subpower import render_term, term_closure  # noqa: E402

# the products of two entries that the query-mix benchmark asks about
QUERY_PRODUCTS = (
    ("M", "Z2aff"), ("S", "S"), ("M", "M"), ("Z2aff", "Z2aff"),
    ("M", "T1N"), ("Z2aff", "T5N"), ("S", "T4N"), ("M", "T1C"), ("Z2aff", "T2P"), ("S", "T1S"),
    ("T1N", "T2N"), ("T5N", "T5N"), ("T1C", "T2C"), ("T4N", "T1S"), ("T1S", "T2S"),
    ("T2P", "T3N"), ("M", "T4,1"),
)


def _term_read(quo, k, cells, target, max_steps):
    """(found, term) off one `term_closure` of the cells that stops on the
    target: True / False, or None when the budget cut it short first."""
    gset = term_closure(quo, k, cells, targets=[target], max_steps=max_steps)
    found = gset.contains(target)
    return found, gset.witness_term(target) if found else None


def reference_edge_records(alg, a, b, max_steps=None):
    """`edge_records` as it was written first: one closure per semilattice
    direction and one for the majority test, each read inline, and each
    x-y+z table decided by its own `decide_clone_membership`, which runs its
    own Clo_3."""
    universe = sg_closure(alg, (a, b))
    sub = alg.restrict(universe)
    loc = {x: i for i, x in enumerate(universe)}
    la, lb = loc[a], loc[b]
    maximal = maximal_congruences(sub)
    for theta in reversed(all_congruences(sub)):
        idx = theta.block_index()
        qa, qb = idx[la], idx[lb]
        if qa == qb:
            continue
        quo, _ = quotient_algebra(sub, theta)
        blocks = tuple(tuple(universe[x] for x in bl) for bl in theta.blocks)
        upgraded = structure._upgraded(alg, universe, theta, maximal, qa, qb)
        for u, v, x, y in ((qa, qb, a, b), (qb, qa, b, a)):
            found, term = _term_read(quo, 2, [(u, v), (v, u)], (v, v), max_steps)
            if found:
                kind = "semilattice" if theta.is_identity() else "weak-semilattice"
                yield structure.EdgeRecord(x, y, kind, True, blocks, term)
            elif found is None:
                yield None
        found, term = _term_read(quo, 3, structure._majority_on_pair_positions(qa, qb),
                                 (qa, qa, qa, qb, qb, qb), max_steps)
        if found:
            yield structure.EdgeRecord(a, b, "majority" if upgraded else "weak-majority",
                                       False, blocks, term)
        elif found is None:
            yield None
        if quo.domain > 5:
            yield None
            continue
        for _, _, table in affine_xyz_tables(quo.domain):
            d = decide_clone_membership(quo, table, max_steps=max_steps)
            if d.holds:
                kind = ("weak-affine" if not upgraded
                        else "strong-affine" if theta.is_identity() else "affine")
                yield structure.EdgeRecord(a, b, kind, False, blocks,
                                           d.closure.witness_term(table.values), xyz=table)
                break
            if d.holds is None:
                yield None


def _summary(r):
    if r is None:
        return None
    xyz = r.xyz.values if r.xyz is not None else None
    return (r.a, r.b, r.kind, r.directed, r.witness_blocks, xyz,
            render_term(r.term, ["x", "y", "z"]))


def _grouped(walk):
    """`weak_edges` read off a walk: the records by witnessing congruence,
    finest first, and whether no test hit its budget."""
    by_theta = {}
    for r in walk:
        if r is not None:
            by_theta.setdefault(r[4], []).append(r)
    return [r for recs in reversed(by_theta.values()) for r in recs], None not in walk


def test_weak_edges_match_the_per_table_affine_reference(entries):
    # the whole walk is compared, each budget stop (None) in its place: a
    # "no" turned into a budget stop hides in weak_edges behind the budget
    # stops of the other tests of the same pair.  Budgets of 1, 5 and 40 cut
    # short the closures in A^2, which both semilattice directions share, so
    # each direction's budget stop is compared too
    algebras = {name: e.algebra for name, e in entries.items()}
    for x, y in QUERY_PRODUCTS:
        algebras[f"{x}x{y}"] = product([entries[x].algebra, entries[y].algebra])
    cases = affine = 0
    for name, a in algebras.items():
        budgets = (1, 5, 40, 1_000, 150_000) + ((None,) if a.domain <= 4 else ())
        for p, q in itertools.combinations(range(a.domain), 2):
            for max_steps in budgets:
                want = [_summary(r) for r in reference_edge_records(a, p, q, max_steps)]
                assert [_summary(r) for r in edge_records(a, p, q, max_steps=max_steps)] \
                    == want, (name, p, q, max_steps)
                records, conclusive = weak_edges(a, p, q, max_steps=max_steps)
                assert ([_summary(r) for r in records], conclusive) == _grouped(want)
                cases += 1
                affine += any(r is not None and r[2].endswith("affine") for r in want)
    assert cases == 2984 and affine > 100


def test_one_pair_closure_per_separating_congruence(entries, monkeypatch):
    # both semilattice directions of a quotient are read off one closure in
    # A^2, so an edge walk runs one exponent-2 closure per congruence of
    # Sg{a, b} that separates a and b (no other test of the walk closes in A^2)
    from finalg import subpower

    exponents = []
    inner = subpower.generate

    def spy(base, m, generators, **kw):
        exponents.append(m)
        return inner(base, m, generators, **kw)

    monkeypatch.setattr(subpower, "generate", spy)
    algebras = [entries[name].algebra for name in ("T4,1", "T4,10", "T4,13", "T6C")]
    algebras.append(product([entries["S"].algebra, entries["S"].algebra]))
    pairs = separating = 0
    for a in algebras:
        for x, y in itertools.combinations(range(a.domain), 2):
            universe = sg_closure(a, (x, y))
            lx, ly = universe.index(x), universe.index(y)
            want = sum(theta.block_index()[lx] != theta.block_index()[ly]
                       for theta in all_congruences(a.restrict(universe)))
            exponents.clear()
            list(edge_records(a, x, y))
            assert exponents.count(2) == want, (x, y)
            pairs += 1
            separating += want
    assert separating > pairs  # some pairs are separated by several congruences


def clear_walks():
    """Forget every stored walk and lattice, so the next walk runs cold."""
    structure._walk_order.memo.clear()
    all_subuniverses.memo.clear()


def test_a_finished_walk_is_replayed_without_a_closure(entries, monkeypatch):
    # a walk that stops stores nothing; a finished walk stores its order,
    # and a warm walk yields that order with no sg_closure call
    calls = []
    monkeypatch.setattr(structure, "sg_closure",
                        lambda *args: calls.append(args) or sg_closure(*args))
    algebras = [e.algebra for e in entries.values()]
    algebras += [product([entries[x].algebra, entries[y].algebra]) for x, y in QUERY_PRODUCTS]
    for a in algebras:
        clear_walks()
        walk = structure.walk_subuniverses(a)
        next(walk)
        walk.close()
        assert len(structure._walk_order.memo) == len(all_subuniverses.memo) == 0
        cold = list(structure.walk_subuniverses(a))
        assert calls and all_subuniverses(a) == tuple(sorted(cold, key=lambda u: (len(u), u)))
        calls.clear()
        assert list(structure.walk_subuniverses(a)) == cold and calls == []
        clear_walks()
        all_subuniverses(a)  # a lattice computed alone stores the walk too
        calls.clear()
        assert list(structure.walk_subuniverses(a)) == cold and calls == []


def test_clone_excluded_gives_the_cold_walks_reasons_on_a_warm_walk(entries):
    # every entry's operation, and its reversal, against every entry of its
    # size: the reason read on a replayed walk is the one a cold walk gives
    cases = reasons = 0
    for e in entries.values():
        a = e.algebra
        tables = [x.algebra.operations[0] for x in entries.values() if x.algebra.domain == a.domain]
        tables += [catalog.transport(Algebra(a.domain, [t]), tuple(reversed(range(a.domain))))
                   .operations[0] for t in tables]
        cold = []
        for t in tables:
            clear_walks()
            cold.append(clone_excluded(a, t))
        list(structure.walk_subuniverses(a))
        assert [clone_excluded(a, t) for t in tables] == cold, e.name
        cases += len(tables)
        reasons += sum(r is not None for r in cold)
    assert reasons > cases // 2
