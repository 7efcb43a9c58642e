import itertools

import pytest

from finalg.core import Algebra, AlgebraError, OperationTable
from finalg.subpower import (
    clone_membership,
    cyclic_terms,
    eval_term,
    eval_term_table,
    find_term,
    free_algebra,
    generate,
    has_cyclic_term,
    rab_analyze,
    render_term,
    sg_closure,
    term_closure,
)
from finalg.structure import _majority_on_pair_positions, absorption_patterns
from conftest import naive_clone


def test_generate_t4n_pair(alg):
    assert sg_closure(alg("T4N"), (1, 2)) == (0, 1, 2)


def test_generate_full_domain_fixed(entries):
    for entry in entries.values():
        n = entry.algebra.domain
        assert sg_closure(entry.algebra, range(n)) == tuple(range(n))


def test_generate_t47_pair(alg):
    assert sg_closure(alg("T4,7"), (3, 1)) == (0, 1, 2, 3)
    t = alg("T4,7").op("t")
    assert t(3, 1) == 2 and t(3, 2) == 1 and t(1, 2) == 0


def test_contains_generator(alg):
    g = generate(alg("T4N"), 1, [(1,), (2,)])
    assert g.contains((1,)) is True


def test_contains_rab_t47(alg):
    r = generate(alg("T4,7"), 2, [(3, 1), (1, 3)])
    assert r.contains((2, 2)) is True
    assert r.contains((1, 1)) is False


def test_contains_length_mismatch(alg):
    g = generate(alg("T4N"), 1, [(1,)])
    with pytest.raises(AlgebraError):
        g.contains((1, 2))


def test_witness_of_generator_is_variable(alg):
    g = generate(alg("T4N"), 2, [(0, 1), (1, 0)])
    t = g.witness_term((0, 1))
    assert t.is_variable() and t.var == 0
    assert render_term(t, ["x", "y"]) == "x"


def test_witness_reevaluation_rab_t47(alg):
    a = alg("T4,7")
    r = generate(a, 2, [(3, 1), (1, 3)])
    tree = r.witness_term((2, 2))
    assert eval_term(tree, a, (3, 1)) == 2
    assert eval_term(tree, a, (1, 3)) == 2


def test_witness_reevaluation_t4n(alg):
    a = alg("T4N")
    g = generate(a, 1, [(1,), (2,)])
    tree = g.witness_term((0,))
    assert not tree.is_variable()
    assert eval_term(tree, a, (1, 2)) == 0


def test_free_algebra_semilattice_binary(alg):
    s = alg("S")
    f2 = free_algebra(s, 2)
    got = {tuple(e) for e in f2.elements}
    assert got == set(naive_clone(s, 2))
    assert len(got) == 3  # the two projections and the meet


def test_free_algebra_unary_identity(entries):
    for entry in entries.values():
        f1 = free_algebra(entry.algebra, 1)
        assert [tuple(e) for e in f1.elements] == [tuple(range(entry.algebra.domain))]


def test_free_algebra_z3aff_binary(alg):
    f2 = free_algebra(alg("T5N"), 2)
    got = {tuple(e) for e in f2.elements}
    # idempotent binary affine terms over Z3: a*x + (1-a)*y
    want = {
        tuple((a * x + (1 - a) * y) % 3 for x in range(3) for y in range(3))
        for a in range(3)
    }
    assert got == want
    assert got == set(naive_clone(alg("T5N"), 2))


def test_free_algebra_matches_naive_oracle(alg):
    for name in ("T1N", "T2N", "T1S", "T2P", "T4,1"):
        a = alg(name)
        got = {tuple(e) for e in free_algebra(a, 3).elements}
        assert got == set(naive_clone(a, 3)), name


def test_clone_membership_basic_op(entries):
    for name in ("S", "T1N", "T4,10"):
        a = entries[name].algebra
        member, witness = clone_membership(a, a.operations[0])
        assert member is True
        assert witness.op == a.operations[0].name


def test_clone_membership_minority_in_t412(alg):
    xyz = OperationTable(
        "p", 3, 4,
        tuple((x - y + z) % 4 for x, y, z in itertools.product(range(4), repeat=3)),
    )
    member, witness = clone_membership(alg("T4,12"), xyz)
    assert member is True
    assert eval_term_table(witness, alg("T4,12"), 3).values == xyz.values


def test_clone_membership_maj_not_in_semilattice(alg):
    maj = OperationTable("m", 3, 2, (0, 0, 0, 1, 0, 1, 1, 1))
    member, witness = clone_membership(alg("S"), maj)
    assert member is False and witness is None


def test_clone_membership_inconclusive_flagged(alg):
    xyz = OperationTable(
        "p", 3, 4,
        tuple((x - y + z) % 4 for x, y, z in itertools.product(range(4), repeat=3)),
    )
    member, _ = clone_membership(alg("T4,16"), xyz, max_steps=1000)
    assert member is None


def _term_condition_cases(alg):
    """(k, cells, target) of the term conditions the library decides:
    semilattice pairs, majority on a pair, Mal'cev, absorption of {0}, and
    membership of each basic operation (cells not symmetric under reversal,
    so a witness must keep its variables in order)."""
    n = alg.domain
    for a, b in itertools.permutations(range(n), 2):
        yield 2, [(a, b), (b, a)], (b, b)
    for a, b in itertools.combinations(range(n), 2):
        yield 3, _majority_on_pair_positions(a, b), (a, a, a, b, b, b)
    pats = sorted({(x, y, y) for x in range(n) for y in range(n) if x != y}
                  | {(y, y, x) for x in range(n) for y in range(n) if x != y})
    yield 3, pats, tuple(t[0] if t[1] == t[2] else t[2] for t in pats)
    cells = absorption_patterns(n, (0,), 3)
    yield 3, cells, (0,) * len(cells)
    for op in alg.operations:
        yield op.arity, list(op.all_args()), op.values


def test_find_term_matches_free_algebra_scan(entries):
    """find_term against a scan of Clo_k for an element with the target
    values on the cells.  Clo_3 of T6C, T9C and T10C does not complete in
    the budget; there a hit of the scan must still be found."""
    budget = 2_000_000
    decided = 0
    for entry in entries.values():
        a = entry.algebra
        n = a.domain
        if n > 3:
            continue
        clo = {}
        for k, cells, target in _term_condition_cases(a):
            if k not in clo:
                clo[k] = free_algebra(a, k, max_steps=budget)
            index = {c: i for i, c in enumerate(itertools.product(range(n), repeat=k))}
            at = [index[c] for c in cells]
            scan = any(all(e[i] == v for i, v in zip(at, target))
                       for e in clo[k].elements)
            found, witness = find_term(a, k, cells, target, max_steps=budget)
            if clo[k].truncated:
                assert found is True or not scan, (entry.name, cells)
            else:
                assert found is scan, (entry.name, cells)
                decided += 1
            if found:
                assert [eval_term(witness, a, c) for c in cells] == list(target)
            else:
                assert witness is None
    assert decided > 280


def test_term_closure_of_no_cells(alg):
    g = term_closure(alg("T1N"), 3, [])
    assert g.elements == [b""] and not g.truncated


def test_cyclic_terms_t1n_unique(alg):
    tables, complete = cyclic_terms(alg("T1N"), 3)
    assert complete and len(tables) == 1
    assert tables[0].values == alg("T1N").op("g").values


def test_cyclic_terms_z3aff_empty(alg):
    tables, complete = cyclic_terms(alg("T5N"), 3)
    assert complete and tables == []


def test_cyclic_terms_majority(alg):
    tables, complete = cyclic_terms(alg("M"), 3)
    assert complete
    assert alg("M").op("g").values in [t.values for t in tables]


def test_cyclic_terms_flag_lower_bound(alg):
    tables, complete = cyclic_terms(alg("T4,10"), 3, limit=1)
    assert len(tables) == 1 and not complete


def test_has_cyclic_term(alg):
    assert has_cyclic_term(alg("T1N"), 3) is True
    assert has_cyclic_term(alg("T5N"), 3) is False
    assert has_cyclic_term(alg("T5N"), 5) is True  # 2(x1+...+x5) mod 3
    assert has_cyclic_term(alg("T4,16"), 3, max_steps=100) is None
    with pytest.raises(AlgebraError):
        has_cyclic_term(alg("T1N"), 1)


def test_cyclic_terms_are_cyclic_and_idempotent(alg):
    from finalg.core import is_cyclic, is_idempotent

    for name in ("T1N", "T4,9", "M"):
        tables, complete = cyclic_terms(alg(name), 3)
        assert complete
        for t in tables:
            assert is_cyclic(t) and is_idempotent(t)


def test_rab_semilattice_diagonal(alg):
    rep = rab_analyze(alg("S"), 0, 1)
    assert [c for c, _ in rep.diagonal] == [0]
    assert rep.kind == "linked"


def test_rab_t47_diagonal(alg):
    rep = rab_analyze(alg("T4,7"), 3, 1)
    assert 2 in [c for c, _ in rep.diagonal]


def test_rab_automorphism_graph(alg):
    rep = rab_analyze(alg("Z2aff"), 0, 1)
    assert rep.kind == "automorphism-graph"
    assert rep.diagonal == []


def test_rab_requires_distinct(alg):
    with pytest.raises(AlgebraError):
        rab_analyze(alg("S"), 1, 1)


def test_determinism(alg):
    a = alg("T4,10")
    g1 = generate(a, 2, [(0, 1), (1, 0)])
    g2 = generate(a, 2, [(0, 1), (1, 0)])
    assert g1.elements == g2.elements
    assert g1.witnesses == g2.witnesses
    f1 = free_algebra(a, 2)
    f2 = free_algebra(a, 2)
    assert f1.elements == f2.elements


def test_compose_of_found_terms_is_found(alg):
    # spot-check: composing elements of the free algebra stays inside it
    import random

    rnd = random.Random(7)
    for name in ("T1N", "T1S", "T4,9"):
        a = alg(name)
        f = free_algebra(a, 2)
        tables = [OperationTable("t", 2, a.domain, tuple(e)) for e in f.elements]
        op = a.operations[0]
        for _ in range(10):
            combo = [rnd.choice(tables) for _ in range(op.arity)]
            from finalg.core import compose

            t = compose(op, combo)
            assert bytes(t.values) in f.position, name


def test_export_text_format(alg):
    g = generate(alg("S"), 2, [(0, 1), (1, 0)])
    lines = g.export_text().splitlines()
    assert lines[0] == "exponent 2"
    assert lines[1] == f"count {len(g.elements)}"
    assert lines[2] == "0 1"


def test_cap_truncation_reported(alg):
    g = free_algebra(alg("T4,10"), 2, cap=5)
    assert g.truncated and g.stop_reason == "cap"
    assert g.contains(tuple(0 for _ in range(16))) is None


def test_domain_five_affine():
    z5 = Algebra(5, [OperationTable(
        "g", 3, 5,
        tuple((x - y + z) % 5 for x, y, z in itertools.product(range(5), repeat=3)),
    )])
    f2 = free_algebra(z5, 2)
    assert len(f2.elements) == 5  # idempotent binary affine terms over Z5
    tables, complete = cyclic_terms(z5, 3)
    assert complete and len(tables) == 1  # 2x+2y+2z


def test_domain_six_uses_slow_path():
    # 6**3 > 256 forces the generic applier; a meet chain still closes fine
    meet = OperationTable(
        "t", 2, 6, tuple(min(x, y) for x in range(6) for y in range(6))
    )
    chain = Algebra(6, [meet])
    assert sg_closure(chain, (5, 3)) == (3, 5)
    g = generate(chain, 2, [(0, 5), (5, 0)])
    assert g.contains((0, 0)) is True


def test_unary_fast_path_stops_on_steps():
    # x -> x+1 mod 3 closes {0} in three rounds of one application each
    succ = OperationTable("s", 1, 3, (1, 2, 0))
    a = Algebra(3, [succ])
    g = generate(a, 1, [(0,)], max_steps=3)
    assert g.truncated and g.stop_reason == "steps"
    g = generate(a, 1, [(0,)], max_steps=4)
    assert not g.truncated and len(g) == 3
    # a unary operation beside a binary one: each path spends the same budget
    b = Algebra(3, [succ, OperationTable("t", 2, 3, (0,) * 9)])
    g = generate(b, 1, [(1,)], max_steps=2)
    assert g.truncated and g.stop_reason == "steps"


# -- the closure memo -------------------------------------------------------

from finalg import subpower  # noqa: E402
from finalg.subpower import DEFAULT_CAP  # noqa: E402

_uncached_closure = subpower._closure


def projection_tuples(n, k):
    """The k coordinate projections of A^(n^k), which generate Clo_k."""
    cells = list(itertools.product(range(n), repeat=k))
    return [tuple(c[j] for c in cells) for j in range(k)]


@pytest.fixture
def runs(monkeypatch):
    """Empty closure memo; counts the closures actually run."""
    subpower._closures.clear()
    counter = {"n": 0}
    inner = subpower._closure

    def counting(*args):
        counter["n"] += 1
        return inner(*args)

    monkeypatch.setattr(subpower, "_closure", counting)
    yield counter
    subpower._closures.clear()


def fresh(base, m, gens, cap=None, targets=None, region=None,
          stop_predicate=None, max_steps=None):
    """The same closure computed without the memo."""
    return _uncached_closure(
        base, m, subpower._generator_bytes(base, m, gens),
        DEFAULT_CAP if cap is None else cap,
        subpower._stop_test(targets, region, stop_predicate), max_steps,
    )


def assert_same(got, want):
    assert got.elements == want.elements
    assert got.witnesses == want.witnesses
    assert got.position == want.position
    assert got.generators == want.generators
    assert got.truncated == want.truncated
    assert got.stop_reason == want.stop_reason
    names = ["x", "y", "z", "w"][: len(want.generators)]
    for e in want.elements:
        assert render_term(got.witness_term(e), names) == \
            render_term(want.witness_term(e), names)


def _clo3(a):
    return a.domain**3, projection_tuples(a.domain, 3)


def test_memo_serves_complete_closure(alg, runs):
    a = alg("T3C")
    m, gens = _clo3(a)
    first = generate(a, m, gens)
    assert runs["n"] == 1 and not first.truncated
    assert subpower._closure_steps(a, len(first)) >= subpower._MEMO_MIN_STEPS
    second = generate(a, m, gens)
    assert runs["n"] == 1
    assert second is not first and second.elements is not first.elements
    assert_same(second, fresh(a, m, gens))


def test_memo_skips_small_closures(alg, runs):
    a = alg("T4,10")
    generate(a, 2, [(0, 1), (1, 0)])
    generate(a, 2, [(0, 1), (1, 0)])
    assert runs["n"] == 2 and len(subpower._closures) == 0


def test_memo_early_exits_replay_the_stored_order(alg, runs):
    a = alg("T3C")
    m, gens = _clo3(a)
    full = generate(a, m, gens)
    middle, last = tuple(full.elements[10]), tuple(full.elements[-1])
    absent = tuple(0 for _ in range(m))
    for targets in ([middle], [middle, last], [gens[1]], [gens[2], gens[0]],
                    [absent], []):
        got = generate(a, m, gens, targets=targets)
        assert_same(got, fresh(a, m, gens, targets=targets))
    assert runs["n"] == 1

    # a region met by a later element (T3N) and by none (T3C)
    for name, subset in (("T3N", (0, 2)), ("T3C", (0, 2))):
        b = alg(name)
        pats = absorption_patterns(b.domain, subset, 3)
        pgens = [tuple(t[j] for t in pats) for j in range(3)]
        generate(b, len(pats), pgens)
        n_runs = runs["n"]
        got = generate(b, len(pats), pgens, region=set(subset))
        assert runs["n"] == n_runs
        assert_same(got, fresh(b, len(pats), pgens, region=set(subset)))
    assert got.stop_reason is None

    seen_served, seen_fresh = [], []
    got = generate(a, m, gens, stop_predicate=lambda e: seen_served.append(e) or e == last)
    want = fresh(a, m, gens, stop_predicate=lambda e: seen_fresh.append(e) or e == last)
    assert_same(got, want)
    assert seen_served == seen_fresh


def test_memo_predicate_side_effects_match(alg, runs):
    a = alg("T3C")
    want = {}
    for limit in (1, 2, 3, None):
        subpower._closures.clear()
        want[limit] = cyclic_terms(a, 3, limit=limit)
    generate(a, *_clo3(a))
    n_runs = runs["n"]
    for limit in (1, 2, 3, None):
        tables, complete = cyclic_terms(a, 3, limit=limit)
        assert [t.values for t in tables] == [t.values for t in want[limit][0]]
        assert complete == want[limit][1]
    assert runs["n"] == n_runs
    assert [len(want[k][0]) for k in (1, 2, 3)] == [1, 2, 2]


def test_memo_serves_only_within_budgets(alg, runs):
    a = alg("T3C")
    m, gens = _clo3(a)
    size = len(generate(a, m, gens))
    steps = subpower._closure_steps(a, size)
    for cap, served in ((size - 1, False), (size, True), (size + 1, True)):
        n_runs = runs["n"]
        got = generate(a, m, gens, cap=cap)
        assert (runs["n"] == n_runs) == served
        want = fresh(a, m, gens, cap=cap)
        assert_same(got, want)
        # a fresh run stops on "cap" exactly when the memo declines to serve
        assert len(want) == min(cap, size)
        assert want.stop_reason == (None if served else "cap")
    for max_steps, served in ((steps - 1, False), (steps, False), (steps + 1, True)):
        n_runs = runs["n"]
        got = generate(a, m, gens, max_steps=max_steps)
        assert (runs["n"] == n_runs) == served
        want = fresh(a, m, gens, max_steps=max_steps)
        assert_same(got, want)
        assert want.truncated == (not served)


def test_memo_witnesses_use_callers_names(alg, runs):
    a = alg("T3C")
    renamed = Algebra(a.domain, [
        OperationTable(f"r{i}", op.arity, op.domain, op.values)
        for i, op in enumerate(a.operations)
    ])
    m, gens = _clo3(a)
    generate(a, m, gens)
    got = generate(renamed, m, gens)
    assert runs["n"] == 1 and got.base is renamed
    assert_same(got, fresh(renamed, m, gens))
    deepest = got.witness_term(tuple(got.elements[-1]))
    assert render_term(deepest, ["x", "y", "z"]).startswith("r0(")


def test_memo_bad_generators_still_raise(alg, runs):
    a = alg("T3C")
    m, gens = _clo3(a)
    generate(a, m, gens)
    for bad in ([(9,) + gens[0][1:]], [(-1,) + gens[0][1:]], [gens[0][1:]], []):
        with pytest.raises(AlgebraError):
            generate(a, m, bad)


def test_memo_evicts_least_recently_used():
    from finalg.memo import Memo

    memo = Memo(limit=5, weight=len)
    memo.put("a", "xx")
    memo.put("b", "yy")
    assert memo.get("a") == "xx"  # now "b" is the least recently used
    memo.put("c", "zz")
    assert memo.get("b") is None and memo.get("a") == "xx"
    assert memo.total == 4
    memo.put("d", "too long")  # heavier than the limit: never stored
    assert memo.get("d") is None and len(memo) == 2


def test_memo_shared_by_threads_keeps_its_total():
    import sys
    import threading

    from finalg.memo import Memo

    memo = Memo(limit=50, weight=len)

    def work(t):
        for i in range(3000):
            memo.put((t, i % 37), "x" * (i % 7 + 1))
            memo.get((t - 1, i % 37))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
    assert memo.total == sum(w for _, w in memo.entries.values()) <= memo.limit


# -- the row kernel against the per-application loop ------------------------

from finalg.subpower import GeneratedSet  # noqa: E402


def reference_closure(base, m, gen_list, cap, stop_for, max_steps, row_ends=None):
    """The closure one operation application at a time: the kernel's loop
    before it evaluated whole rows, kept to check the kernel.

    A row is the run of last argument indices after one (k-1)-prefix.  A
    fast operation (n**arity <= 256) spends its step budget per completed
    row, a slow one per application; `row_ends`, if given, collects the
    steps spent when each fast row ends."""
    gset = GeneratedSet(base=base, exponent=m, generators=list(gen_list))
    elements, position, witnesses = gset.elements, gset.position, gset.witnesses
    stop = None

    def insert(res, witness):
        nonlocal stop
        if res in position:
            return
        if len(elements) >= cap:
            stop = stop or "cap"
            return
        position[res] = len(elements)
        elements.append(res)
        witnesses.append(witness)
        stop = stop or stop_for(res)

    for g in gen_list:
        insert(g, None)
    spent = 0
    fstart = 0
    while fstart < len(elements) and not stop:
        size = len(elements)
        ints = [int.from_bytes(e, "big") for e in elements]
        for op_i, op in enumerate(base.operations):
            if stop:
                break
            n, k = op.domain, op.arity
            fast = n**k <= 256
            coeffs = [n ** (k - 1 - j) for j in range(k)]
            lut = bytes(op.values) + bytes(256 - n**k) if fast else b""
            for prefix in itertools.product(range(size), repeat=k - 1):
                lo = 0 if any(i >= fstart for i in prefix) else fstart
                for t in range(lo, size):
                    args = prefix + (t,)
                    if fast:
                        acc = sum(c * ints[i] for c, i in zip(coeffs, args))
                        res = acc.to_bytes(m, "big").translate(lut)
                    else:
                        res = bytes(
                            op.values[sum(c * elements[i][x] for c, i in zip(coeffs, args))]
                            for x in range(m)
                        )
                    insert(res, (op_i, args))
                    if stop:
                        break
                    if not fast:
                        spent += 1
                        if max_steps is not None and spent >= max_steps:
                            stop = "steps"
                            break
                if stop:
                    break
                if fast:
                    spent += size - lo
                    if row_ends is not None:
                        row_ends.append(spent)
                    if max_steps is not None and spent >= max_steps:
                        stop = "steps"
                        break
        fstart = size
    if stop:
        gset.truncated = True
        gset.stop_reason = stop
    return gset


def kernel_and_reference(base, m, gens, cap=None, targets=None, region=None,
                         predicate=None, max_steps=None):
    """Runs one closure through `_closure` and the reference and checks that
    they agree; a predicate must also be shown the same elements."""
    gen_list = subpower._generator_bytes(base, m, gens)
    cap = DEFAULT_CAP if cap is None else cap
    runs = []
    for closure in (_uncached_closure, reference_closure):
        seen = []

        def stop_predicate(e, seen=seen):
            seen.append(e)
            return predicate(e)

        stop_for = subpower._stop_test(
            targets, region, stop_predicate if predicate else None
        )
        runs.append((closure(base, m, gen_list, cap, stop_for, max_steps), seen))
    (got, got_seen), (want, want_seen) = runs
    assert got.elements == want.elements
    assert got.witnesses == want.witnesses
    assert got.position == want.position
    assert got.generators == want.generators
    assert (got.truncated, got.stop_reason) == (want.truncated, want.stop_reason)
    assert got_seen == want_seen
    return got


KERNEL_BUDGET = 40_000


def _small_entries(entries):
    return [e.algebra for e in entries.values() if e.algebra.domain <= 4]


def test_kernel_matches_reference_on_free_algebras(entries):
    complete = truncated = 0
    for a in _small_entries(entries):
        for k in (1, 2, 3):
            got = kernel_and_reference(a, a.domain**k, projection_tuples(a.domain, k),
                                       max_steps=KERNEL_BUDGET)
            truncated += got.truncated
            complete += not got.truncated
    assert complete > 100 and truncated > 10


def test_kernel_matches_reference_on_relations(entries):
    for a in _small_entries(entries):
        for x, y in itertools.permutations(range(a.domain), 2):
            kernel_and_reference(a, 2, [(x, y), (y, x)])


def test_kernel_matches_reference_on_edge_and_absorption_patterns(entries):
    for a in _small_entries(entries):
        for x, y in itertools.combinations(range(a.domain), 2):
            pats = _majority_on_pair_positions(x, y)
            gens = [tuple(t[j] for t in pats) for j in range(3)]
            kernel_and_reference(a, 6, gens, max_steps=KERNEL_BUDGET // 8)
            kernel_and_reference(a, 6, gens, targets=[(x, x, x, y, y, y)],
                                 max_steps=KERNEL_BUDGET // 8)
        for subset in itertools.combinations(range(a.domain), 2):
            pats = absorption_patterns(a.domain, subset, 3)
            gens = [tuple(t[j] for t in pats) for j in range(3)]
            kernel_and_reference(a, len(pats), gens, region=set(subset),
                                 max_steps=KERNEL_BUDGET // 8)


def test_kernel_matches_reference_on_early_exits(alg):
    a = alg("T3C")
    m, gens = _clo3(a)
    full = kernel_and_reference(a, m, gens)
    size = len(full)
    middle, last = tuple(full.elements[10]), tuple(full.elements[-1])
    absent = tuple(0 for _ in range(m))
    for targets in ([middle], [middle, last], [gens[1]], [absent], []):
        kernel_and_reference(a, m, gens, targets=targets)
    # a stop on each element, whole rows (Clo_2(T4,16)) and single ones
    for b, (bm, bgens) in ((a, (m, gens)), (alg("T4,16"), _clo2(alg("T4,16")))):
        for e in kernel_and_reference(b, bm, bgens).elements:
            kernel_and_reference(b, bm, bgens, targets=[tuple(e)])
            kernel_and_reference(b, bm, bgens, predicate=lambda x, e=e: x == e)
    # the first stop reason stands when the cap is reached later
    kernel_and_reference(a, m, gens, targets=[gens[0]], cap=1)
    for name, subset in (("T3N", (0, 2)), ("T3C", (0, 2))):
        b = alg(name)
        pats = absorption_patterns(b.domain, subset, 3)
        pgens = [tuple(t[j] for t in pats) for j in range(3)]
        kernel_and_reference(b, len(pats), pgens, region=set(subset))
    kernel_and_reference(a, m, gens, predicate=lambda e: e == last)
    kernel_and_reference(a, m, gens, predicate=lambda e: False)
    for cap in (1, 2, 3, 4, 10, size - 1, size, size + 1):
        got = kernel_and_reference(a, m, gens, cap=cap)
        assert len(got) == min(cap, size)
        assert got.stop_reason == ("cap" if cap < size else None)


def test_cap_admits_at_most_cap_elements(alg):
    g = free_algebra(alg("T4,10"), 2, cap=5)
    assert len(g) == 5 and g.truncated and g.stop_reason == "cap"
    full = free_algebra(alg("T4,10"), 2)
    g = free_algebra(alg("T4,10"), 2, cap=len(full))
    assert not g.truncated and g.elements == full.elements
    g = generate(alg("T4,10"), 1, [(0,), (1,), (2,)], cap=2)
    assert [tuple(e) for e in g.elements] == [(0,), (1,)]
    assert g.stop_reason == "cap"


def _sweep_row_ends(base, m, gens, every=1, limit=KERNEL_BUDGET):
    """max_steps one below, at and one above the end of every `every`-th row
    among those ending within `limit` steps."""
    ends = []
    gen_list = subpower._generator_bytes(base, m, gens)
    reference_closure(base, m, gen_list, DEFAULT_CAP,
                      subpower._stop_test(None, None, None), limit, ends)
    assert ends
    for end in ends[::every] + ends[-1:]:
        for max_steps in (end - 1, end, end + 1):
            if max_steps > 0:
                kernel_and_reference(base, m, gens, max_steps=max_steps)
    return ends


def test_kernel_budget_at_row_ends(alg):
    # Clo_2(T4,16) has 16 elements: rows of 8 and more, and shorter ones
    ends = _sweep_row_ends(alg("T4,16"), *_clo2(alg("T4,16")), every=5)
    assert len(ends) > 100
    _sweep_row_ends(alg("T1C"), *_clo3(alg("T1C")), every=300, limit=10_000)


def _clo2(a):
    return a.domain**2, projection_tuples(a.domain, 2)


def _table(name, n, k, f):
    return OperationTable(name, k, n, tuple(
        f(*args) for args in itertools.product(range(n), repeat=k)))


def test_kernel_unary_operation():
    # x -> 2-x and min on a 3-chain: the binary terms of a Kleene algebra
    a = Algebra(3, [_table("s", 3, 1, lambda x: 2 - x), _table("t", 3, 2, min)])
    got = kernel_and_reference(a, *_free(a, 2))
    assert not got.truncated and len(got) == 82
    _sweep_row_ends(a, *_free(a, 2), every=7)


def test_kernel_four_ary_operation():
    # 3**4 and 4**4 cells: both on the fast path, the second filling all 256
    for n in (3, 4):
        a = Algebra(n, [_table("q", n, 4, lambda x, y, z, w: (x - y + z - w + y * w) % n)])
        for k in (1, 2):
            kernel_and_reference(a, *_free(a, k), max_steps=KERNEL_BUDGET // 4)
        _sweep_row_ends(a, 2, [(0, 1), (1, 0)], every=15, limit=3_000)
        _sweep_row_ends(a, *_free(a, 2), every=7, limit=3_000)


def test_kernel_fast_and_slow_operations_together():
    # 9 elements: the binary max is fast (81 cells), x-y+z is slow (729)
    a = Algebra(9, [_table("t", 9, 2, max),
                    _table("g", 9, 3, lambda x, y, z: (x - y + z) % 9)])
    for subset in ((0, 3), (1, 5, 7), (2, 4)):
        kernel_and_reference(a, 1, [(x,) for x in subset])
    for x, y in ((0, 4), (2, 7), (5, 8)):
        kernel_and_reference(a, 2, [(x, y), (y, x)], max_steps=KERNEL_BUDGET // 4)
        kernel_and_reference(a, 2, [(x, y), (y, x)], targets=[(y, y)])
    kernel_and_reference(a, *_free(a, 2), max_steps=2_000)
    for max_steps in (1, 7, 8, 9, 80, 81, 82, 500):
        kernel_and_reference(a, 2, [(0, 4), (4, 0)], max_steps=max_steps)


def _free(a, k):
    return a.domain**k, projection_tuples(a.domain, k)
