import functools
import gc
import inspect
import itertools
import math
import random
import time
from unittest import mock

import pytest

from finalg.core import Algebra, AlgebraError, OperationTable
from finalg.subpower import (
    TermTree,
    clone_membership,
    cyclic_terms,
    decide_term,
    eval_term,
    eval_term_table,
    free_algebra,
    generate,
    has_cyclic_term,
    rab_analyze,
    render_term,
    sg_closure,
    term_closure,
    term_values,
)
from finalg.structure import _majority_on_pair_positions, absorption_patterns
from conftest import naive_clone, reference_relabel


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


def test_sg_closure_is_the_closure_in_the_first_power(entries):
    # the fixpoint over value maps keeps exactly the elements the closure in A^1 reaches
    for entry in entries.values():
        a = entry.algebra
        for size in (1, 2):
            for subset in itertools.combinations(range(a.domain), size):
                g = generate(a, 1, [(x,) for x in subset])
                assert sg_closure(a, subset) == tuple(sorted(e[0] for e in g.elements))
    succ = Algebra(4, [OperationTable("s", 1, 4, (1, 2, 3, 0))])
    assert sg_closure(succ, (2,)) == (0, 1, 2, 3)  # one new element per round
    assert sg_closure(Algebra(3, []), iter((2, 0, 2))) == (0, 2)


def test_sg_closure_rejects_bad_generators(alg):
    a = alg("T4N")
    with pytest.raises(AlgebraError, match="^no generators$"):
        sg_closure(a, ())
    for bad in (4, -1, 300):
        with pytest.raises(AlgebraError, match=f"^generator entry {bad} out of range$"):
            sg_closure(a, (1, bad))


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


def test_witness_term_leaves_no_reference_cycle(alg):
    # with the cyclic collector off, a closure dies with its last reference
    # also after a witness term was read off it
    import gc
    import weakref

    a = alg("T4,13")
    gset = free_algebra(a, 3)
    target = gset.elements[-1]
    gc.disable()
    try:
        ref = weakref.ref(gset)
        term = gset.witness_term(target)
        del gset
        assert ref() is None
    finally:
        gc.enable()
    assert eval_term_table(term, a, 3).values == tuple(target)


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


def tree_walk(tree, alg, args):
    """eval_term as a plain walk of the tree: a shared subterm once per use."""
    if tree.is_variable():
        return args[tree.var]
    return alg.op(tree.op).eval([tree_walk(c, alg, args) for c in tree.children])


def test_shared_subterms_are_evaluated_once(alg):
    # 40 levels of g(t, t, t) over one shared child: 3**40 leaves as a tree
    a = alg("T4,5")
    t = TermTree.variable(1)
    for _ in range(40):
        t = TermTree.node("g", [t, t, t])
    with mock.patch.object(Algebra, "op", autospec=True, side_effect=Algebra.op) as op:
        assert eval_term(t, a, (0, 3, 2)) == 3  # g is idempotent
        assert op.call_count == 40
        assert eval_term_table(t, a, 3).values == tuple(
            y for _, y, _ in itertools.product(range(4), repeat=3))
        assert op.call_count == 40 + 40  # once per distinct node, not per cell


def _random_term(rnd, a, k, depth):
    if depth == 0 or rnd.random() < 0.3:
        return TermTree.variable(rnd.randrange(k))
    op = rnd.choice(a.operations)
    children = [_random_term(rnd, a, k, depth - 1) for _ in range(op.arity)]
    if children and rnd.random() < 0.3:
        children[-1] = children[0]  # a shared subterm
    return TermTree.node(op.name, children)


def test_eval_term_matches_the_tree_walk(alg):
    rnd = random.Random(15)
    two_ops = Algebra(3, (OperationTable("t", 2, 3, tuple(rnd.randrange(3) for _ in range(9))),
                          OperationTable("g", 3, 3, tuple(rnd.randrange(3) for _ in range(27)))))
    for a in (alg("T4,5"), alg("T4,7"), alg("T3N"), two_ops):
        for k in (1, 2, 3):
            for _ in range(15):
                t = _random_term(rnd, a, k, 4)
                cells = list(itertools.product(range(a.domain), repeat=k))
                want = tuple(tree_walk(t, a, c) for c in cells)
                assert tuple(eval_term(t, a, c) for c in cells) == want
                assert eval_term_table(t, a, k).values == want
                # any cell list, repeated cells and the empty list included
                some = rnd.choices(cells, k=rnd.randrange(8))
                assert term_values(t, a, some) == tuple(tree_walk(t, a, c) for c in some)
    # a node with the wrong number of arguments, a variable outside the
    # arity and an argument outside the domain are errors either way
    bad = TermTree.node("g", [TermTree.variable(0)] * 2)
    x, z = TermTree.variable(0), TermTree.variable(2)
    for tree, args, why in ((bad, (0, 1), "expected 3 arguments, got 2"),
                            (z, (0, 1), "variable 2 outside arity 2"),
                            (TermTree.node("t", [x, z]), (0, 1), "variable 2 outside arity 2")):
        for evaluate in (lambda: eval_term(tree, two_ops, args),
                         lambda: eval_term_table(tree, two_ops, len(args)),
                         lambda: term_values(tree, two_ops, [args, args])):
            with pytest.raises(AlgebraError, match=why):
                evaluate()
    for tree in (x, TermTree.node("t", [x, x])):
        for args in ((3, 0), (0, -1)):
            with pytest.raises(AlgebraError, match="out of range for domain 3"):
                eval_term(tree, two_ops, args)
    # no cells, no values: only the nodes' child counts are checked
    assert term_values(TermTree.node("t", [x, z]), two_ops, []) == ()
    with pytest.raises(AlgebraError, match="expected 3 arguments, got 2"):
        term_values(bad, two_ops, [])


def test_a_term_deeper_than_the_recursion_limit_evaluates_and_renders(alg):
    # 3,000 nested g(t, y, y): each node is met once, by a loop
    a = alg("T4,5")
    x, y = TermTree.variable(0), TermTree.variable(1)
    t = x
    for _ in range(3000):
        t = TermTree.node("g", [t, y, y])
    cells = list(itertools.product(range(4), repeat=2))
    g, want = a.op("g"), tuple(c for c, _ in cells)
    for _ in range(3000):  # the chain's values, one level at a time
        want = tuple(g(v, b, b) for v, (_, b) in zip(want, cells))
    assert term_values(t, a, cells) == want
    assert eval_term_table(t, a, 2).values == want
    assert [eval_term(t, a, c) for c in cells[:3]] == list(want[:3])
    text = render_term(t, ["x", "y"])
    assert text == "g(" * 3000 + "x" + ", y, y)" * 3000


def test_shared_terms_compare_and_hash_in_time_linear_in_their_nodes():
    # 40 levels of g(t, t, t) over one shared child: a tree of 3**40 leaves
    def shared(levels, leaf):
        t = leaf
        for _ in range(levels):
            t = TermTree.node("g", [t, t, t])
        return t

    def unshared(levels):  # the same tree with no node shared
        if not levels:
            return TermTree.variable(0)
        return TermTree.node("g", [unshared(levels - 1) for _ in range(3)])

    x = TermTree.variable(0)
    start = time.perf_counter()
    a, b = shared(40, x), shared(40, TermTree.variable(0))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != shared(40, TermTree.variable(1)) and a != shared(39, x)
    assert time.perf_counter() - start < 0.1
    # equal terms with different sharing compare equal and hash alike
    mixed = TermTree.node("g", [shared(3, x), unshared(3), shared(3, TermTree.variable(0))])
    assert unshared(4) == shared(4, x) == mixed
    assert hash(unshared(4)) == hash(shared(4, x)) == hash(mixed)
    assert TermTree.node("f", [x]) != TermTree.node("g", [x]) and x != 0


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


def test_decide_term_matches_free_algebra_scan(entries):
    """`decide_term` with no stage against a scan of Clo_k for an element
    with the target values on the cells.  Clo_3 of T6C, T9C and T10C does
    not complete in the budget; there a hit of the scan must still be
    found."""
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
            d = decide_term(a, k, cells, [], max_steps=budget, targets=[target])
            found, witness = d.holds, d.witness(target)
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
    # T4,5 has four: a limit it meets stops the closure, one above it does not
    for limit, count, done in ((1, 1, False), (4, 4, False), (5, 4, True), (None, 4, True)):
        tables, complete = cyclic_terms(alg("T4,5"), 3, limit=limit)
        assert (len(tables), complete) == (count, done)


def test_has_cyclic_term(alg):
    assert has_cyclic_term(alg("T1N"), 3) is True
    assert has_cyclic_term(alg("T5N"), 3) is False
    assert has_cyclic_term(alg("T5N"), 5) is True  # 2(x1+...+x5) mod 3
    # decided by the rotation obstruction at (0, 0, 1), whose closure needs
    # more than 100 steps; a global closure would not finish
    assert has_cyclic_term(alg("T4,16"), 3) is False
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
    g = fresh(alg("T4,10"), *_clo2(alg("T4,10")), cap=5)
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


def test_domain_six_uses_two_byte_lanes():
    # 6**4 > 256 cells take 2-byte lanes; a meet chain still closes fine
    meet = OperationTable(
        "t", 4, 6, tuple(min(args) for args in itertools.product(range(6), repeat=4))
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


# -- closures as `_closure` runs them ----------------------------------------

from finalg import subpower  # noqa: E402
from finalg.subpower import MAX_ELEMENTS  # noqa: E402

_kernel_closure = subpower._closure


def projection_tuples(n, k):
    """The k coordinate projections of A^(n^k), which generate Clo_k."""
    cells = list(itertools.product(range(n), repeat=k))
    return [tuple(c[j] for c in cells) for j in range(k)]


def fresh(base, m, gens, cap=None, targets=None, stop_predicate=None, max_steps=None):
    """The closure `_closure` runs, with an element cap of its own."""
    return _kernel_closure(
        base, m, subpower._generator_bytes(base, m, gens),
        MAX_ELEMENTS if cap is None else cap,
        subpower._stop_test(targets, stop_predicate), max_steps,
    )


def _clo3(a):
    return a.domain**3, projection_tuples(a.domain, 3)


def test_bad_generators_raise(alg):
    a = alg("T4,5")
    m, gens = _clo3(a)
    for bad in ([(9,) + gens[0][1:]], [(-1,) + gens[0][1:]], [gens[0][1:]], []):
        with pytest.raises(AlgebraError):
            generate(a, m, bad)


def test_term_closure_checks_its_generator_columns_once(alg, monkeypatch):
    # the columns term_generators checked go into the kernel as they are;
    # passed for another exponent or domain they are checked again
    a, cells = alg("T4,10"), [(0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 3, 3)]
    checked = []
    inner = subpower._checked_bytes
    monkeypatch.setattr(subpower, "_checked_bytes",
                        lambda tup, n, what: checked.append(what) or inner(tup, n, what))
    term_closure(a, 3, cells)
    assert checked.count("generator") == 3
    columns = subpower.term_generators(a, 3, cells)
    with pytest.raises(AlgebraError, match="has length 4, expected 5"):
        generate(a, 5, columns)
    with pytest.raises(AlgebraError, match="entry 3 out of range"):
        generate(alg("T1N"), 4, columns)


def test_generate_keeps_no_closure_between_calls(alg, monkeypatch):
    # a second identical call runs its closure again, and its answer is a
    # new closure equal to the first
    a = alg("T4,5")
    m, gens = _clo3(a)
    runs = []
    monkeypatch.setattr(subpower, "_closure", lambda *args: runs.append(args) or
                        _kernel_closure(*args))
    first, second = generate(a, m, gens), generate(a, m, gens)
    assert len(runs) == 2 and second is not first
    assert second.elements == first.elements and second.witnesses == first.witnesses
    assert second.applications == first.applications == 310_995
    # the rounds start at 3, 11, 115 and 175 elements; the last finds nothing
    assert second.rounds == first.rounds == 4
    # a budget stop counts the round it stopped in
    cut = generate(a, m, gens, max_steps=1_000)
    assert (cut.stop_reason, len(cut), cut.rounds) == ("steps", 135, 3)


def test_huge_arities_are_rejected(alg):
    # arity 11, just above the limit, keeps a regression cheap: each call
    # still lists its 3**11 cells but runs one budget step (CI runs arity 40,
    # whose cells do not fit in memory, under a time and memory cap)
    from finalg.structure import absorbs

    t1n = alg("T1N")
    assert 3**10 <= subpower.MAX_CELLS < 3**11
    for run in (free_algebra, cyclic_terms, has_cyclic_term,
                lambda a, k, max_steps: absorbs(a, (0, 1), k, max_steps=max_steps)):
        with pytest.raises(AlgebraError, match=r"arity 11 gives 3\*\*11 argument cells, "
                                               "above the 65536 limit"):
            run(t1n, 11, max_steps=1)
    # below the limit the variable-orbit maps may not fit: those of Clo_7
    # would hold 5,039 x 2,187 indices, so the plain walk runs (checked
    # first, as a regression here would take a lot of memory at arity 10)
    for k, walked in ((7, False), (5, True)):
        gens = subpower.term_generators(t1n, k, list(itertools.product(range(3), repeat=k)))
        assert (subpower._symmetries(t1n, gens)[0] is not None) == walked
    assert len(free_algebra(t1n, 10, max_steps=1)) >= 10


def test_memo_evicts_least_recently_used():
    from finalg.memo import Memo

    memo = Memo(limit=2)
    memo.put("a", "xx")
    memo.put("b", "yy")
    assert memo.get("a") == "xx"  # now "b" is the least recently used
    memo.put("c", "zz")
    assert memo.get("b") is None and memo.get("a") == "xx"
    memo.put("a", "ww")  # a new value for a stored key evicts nothing
    assert len(memo) == 2 and memo.get("c") == "zz" and memo.get("a") == "ww"


def test_memo_shared_by_threads_keeps_its_total():
    import sys
    import threading

    from finalg.memo import Memo

    memo = Memo(limit=50)

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
    assert len(memo) == memo.limit


# -- the row kernel against the per-application loop ------------------------

from finalg.subpower import GeneratedSet  # noqa: E402
from finalg.catalog import transport as catalog_transport  # noqa: E402


def argument_group(op):
    """The permutations of op's arguments that leave its table unchanged,
    found by trying every permutation on every cell."""
    cells = list(op.all_args())
    return [perm for perm in itertools.permutations(range(op.arity))
            if all(op.values[op.index(tuple(c[i] for i in perm))] == v
                   for c, v in zip(cells, op.values))]


@functools.lru_cache(maxsize=None)
def orbit_group(op):
    """The argument group when it is S_k, or C_3 for a ternary operation;
    otherwise None: every tuple is its own orbit."""
    group = argument_group(op)
    if len(group) == math.factorial(op.arity):
        return group
    if op.arity == 3 and sorted(group) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        return group
    return None


def variable_images(base, m, gen_list):
    """For a closure whose m >= 2 cells (the columns of its k generators)
    are distinct, of an algebra with an operation of arity at least 3: the
    images of an element under the non-identity permutations s of the k
    variables that keep the set of cells, in lex order, (s.e)[c] =
    e[s.c] with (s.c)_j = c_s(j).  None where there is no such s, and for
    any other closure."""
    k = len(gen_list)
    cells = list(zip(*gen_list))
    if m < 2 or len(set(cells)) < m or max(op.arity for op in base.operations) < 3:
        return None
    if math.factorial(k) * m > subpower._ORBIT_MAX_INDICES:
        return None
    perms = [s for s in itertools.permutations(range(k)) if s != tuple(range(k))
             and {tuple(c[j] for j in s) for c in cells} == set(cells)]
    if not perms:
        return None

    def images(e):
        value = dict(zip(cells, e))
        return [bytes(value[tuple(c[j] for j in s)] for c in cells) for s in perms]

    return images


def reference_closure(base, m, gen_list, cap, stop_for, max_steps, row_ends=None,
                      orbits=True, variables=True):
    """The closure one operation application at a time: the kernel's loop
    before it evaluated whole rows, kept to check the kernel.

    A row is the run of last argument indices after one (k-1)-prefix.
    With `orbits`, an operation whose argument group (`orbit_group`) is S_k
    or C_3 skips every tuple that is not the least of its images under the
    group.  Every operation spends the step budget per row, one step per
    tuple applied; the steps spent are its `applications`, and `row_ends`,
    if given, collects the steps spent when each row that applied a tuple
    ends.  An operation with at most 256 cells is
    applied by byte-lane arithmetic, a larger one coordinate by
    coordinate.

    A closure with `variable_images` (unless `variables` is false) walks
    the variable orbits from the
    first round end with at least `_ORBIT_MIN` elements: at that round end
    every element, and at each later one the round's new elements, are met
    in order; one with no earlier image is a representative, and its
    missing images join with the images of its witness's parents.  The
    tuples are then tuples of positions in a layout: the orbits met, each
    in index order (its representative first), those with every element
    older than the round first; the frontier is the positions of the other
    orbits, and the layout grows by the orbits met at each round end.  A
    tuple of arity at least 2 whose first entry is no representative is
    skipped, and so is one of arity at least 3 whose second entry y has an
    earlier image h.y under a variable map h that fixes the first."""
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
    images = variable_images(base, m, gen_list) if variables else None
    if images:
        images = functools.lru_cache(maxsize=None)(images)
    layout = None  # the element index at each position, once the orbits are walked
    reps = set()  # the representatives' positions
    spent = 0
    fstart = 0

    def skipped(prefix, where):
        # is no tuple of this row walked by the variable-orbit walk?
        if layout is None or not prefix:
            return False
        if prefix[0] not in reps:
            return True
        if len(prefix) < 2:
            return False
        r, y = (elements[layout[p]] for p in prefix[:2])
        return any(r_img == r and where[position[y_img]] < prefix[1]
                   for r_img, y_img in zip(images(r), images(y)))

    while fstart < len(elements) and not stop:
        size = len(elements)
        gset.rounds += 1
        index = list(range(size)) if layout is None else layout  # position -> index
        where = {i: p for p, i in enumerate(index)}
        walked = [elements[i] for i in index]
        ints = [int.from_bytes(e, "big") for e in walked]
        for op_i, op in enumerate(base.operations):
            if stop:
                break
            n, k = op.domain, op.arity
            one_byte = n**k <= 256
            coeffs = [n ** (k - 1 - j) for j in range(k)]
            lut = bytes(op.values) + bytes(256 - n**k) if one_byte else b""
            group = orbit_group(op) if orbits else None
            for prefix in itertools.product(range(size), repeat=k - 1):
                if skipped(prefix, where):
                    continue
                lo = 0 if any(i >= fstart for i in prefix) else fstart
                applied = 0
                for t in range(lo, size):
                    args = prefix + (t,)
                    if group and any(tuple(map(args.__getitem__, perm)) < args
                                     for perm in group):
                        continue
                    applied += 1
                    if one_byte:
                        acc = sum(c * ints[i] for c, i in zip(coeffs, args))
                        res = acc.to_bytes(m, "big").translate(lut)
                    else:
                        res = bytes(
                            op.values[sum(c * walked[i][x] for c, i in zip(coeffs, args))]
                            for x in range(m)
                        )
                    insert(res, (op_i, tuple(index[i] for i in args)))
                    if stop:
                        break
                if stop:
                    break
                spent += applied
                if row_ends is not None and applied:
                    row_ends.append(spent)
                if max_steps is not None and spent >= max_steps:
                    stop = "steps"
                    break
        new = len(elements)
        fstart = size
        if images and new > size and not stop and (layout is not None
                                                    or new >= subpower._ORBIT_MIN):
            met = []
            for i in range(0 if layout is None else size, new):
                imgs = images(elements[i])
                if any(position.get(img, new) < i for img in imgs):
                    continue
                op_i, parents = witnesses[i] or (None, ())
                parent_images = [images(elements[p]) for p in parents]
                for s, img in enumerate(imgs):
                    insert(img, (op_i, tuple(position[pi[s]] for pi in parent_images)))
                    if stop:
                        break
                if stop:
                    break
                met.append(sorted({i, *(position[img] for img in imgs)}))
            if not stop:
                old = [o for o in met if max(o) < size]
                layout = layout or []
                fstart = len(layout) + sum(map(len, old))
                for orbit in old + [o for o in met if max(o) >= size]:
                    reps.add(len(layout))
                    layout = layout + orbit
    gset.applications = spent
    if stop:
        gset.truncated = True
        gset.stop_reason = stop
    return gset


def kernel_and_reference(base, m, gens, cap=None, targets=None, predicate=None,
                         max_steps=None):
    """Runs one closure through `_closure` and the reference and checks that
    they agree; a predicate must also be shown the same elements."""
    gen_list = subpower._generator_bytes(base, m, gens)
    cap = MAX_ELEMENTS if cap is None else cap
    runs = []
    for closure in (_kernel_closure, reference_closure):
        seen = []

        def stop_predicate(e, seen=seen):
            seen.append(e)
            return predicate(e)

        stop_for = subpower._stop_test(targets, stop_predicate if predicate else None)
        runs.append((closure(base, m, gen_list, cap, stop_for, max_steps), seen))
    (got, got_seen), (want, want_seen) = runs
    assert got.elements == want.elements
    assert got.witnesses == want.witnesses
    assert got.position == want.position
    assert got.generators == want.generators
    assert (got.truncated, got.stop_reason) == (want.truncated, want.stop_reason)
    assert got.applications == want.applications  # the steps spent at the last row end
    assert got.rounds == want.rounds
    if got.stop_reason == "steps":
        assert got.applications >= max_steps
    assert got_seen == want_seen
    return got


KERNEL_BUDGET = 40_000


def _small_entries(entries):
    return [e.algebra for e in entries.values() if e.algebra.domain <= 4]


def test_kernel_matches_reference_on_free_algebras(entries):
    complete = truncated = 0
    walked = {False: 0, True: 0}  # variable-orbit walks, by truncation
    for a in _small_entries(entries):
        for k in (1, 2, 3):
            m, gens = _free(a, k)
            got = kernel_and_reference(a, m, gens, max_steps=KERNEL_BUDGET)
            truncated += got.truncated
            complete += not got.truncated
            if variable_images(a, m, got.generators) and len(got) >= subpower._ORBIT_MIN:
                walked[got.truncated] += 1
    assert complete > 100 and truncated > 10
    assert walked == {False: 7, True: 15}


def test_kernel_matches_reference_on_clo4(alg):
    # 23 variable maps, so stabilizers beyond those of S_3: T1N's complete
    # Clo_4 (44 elements, the walk on from its third round) and T1C's cut
    # by the budget
    t1n, t1c = alg("T1N"), alg("T1C")
    got = kernel_and_reference(t1n, *_free(t1n, 4))
    with mock.patch.object(subpower, "_symmetries", lambda *args: (None, None)):
        plain = fresh(t1n, *_free(t1n, 4))
    assert (len(got), got.truncated, got.rounds) == (44, False, 3)
    assert set(got.elements) == set(plain.elements)
    assert kernel_and_reference(t1c, *_free(t1c, 4), max_steps=20_000).truncated


def test_variable_orbit_walk_cuts_the_applications_of_clo3(alg):
    # the complete Clo_3 of T4,10 and T4,13: the elements of the plain walk
    # with about 5.5x fewer kernel applications
    for name, plain_steps, steps in (("T4,10", 357_760, 65_352),
                                     ("T4,13", 357_760, 65_474)):
        a = alg(name)
        got = fresh(a, *_clo3(a))
        with mock.patch.object(subpower, "_symmetries", lambda *args: (None, None)):
            plain = fresh(a, *_clo3(a))
        assert not got.truncated and set(got.elements) == set(plain.elements)
        assert (plain.applications, got.applications) == (plain_steps, steps)


def test_cell_list_symmetries_of_the_cyclic_count_algebras(alg):
    # the view of each complete Clo_3 of `cyclic-count`: one coordinate per
    # orbit of the automorphisms, the diagonal left out (T4,3 and T3N, with
    # the diagonal alone, would keep more than half and have none); the
    # elements and the applications are those of the walk without a view
    for name, group, coords in (("T4,5", 2, 30), ("T4,8", 2, 30), ("T4,11", 2, 30),
                                ("T4,10", 4, 15), ("T4,13", 4, 18), ("T4,3", 1, None),
                                ("T3N", 1, None)):
        a = alg(name)
        m, gens = _clo3(a)
        gen_list = subpower._generator_bytes(a, m, gens)
        assert len(subpower.automorphisms(a)) == group
        var_maps, view = subpower._symmetries(a, gen_list)
        assert len(var_maps) == 5 and (view and view.coords) == coords
        got = fresh(a, m, gens)
        with mock.patch.object(subpower, "_symmetries", lambda *args: (var_maps, None)):
            full = fresh(a, m, gens)
        assert (got.elements, got.witnesses, got.applications, got.rounds) == \
            (full.elements, full.witnesses, full.applications, full.rounds)
        if view:
            assert all(view.expand(view.reduce(e)) == e for e in got.elements)


def test_automorphisms_of_the_catalog_are_the_bijections_transport_keeps(entries):
    for e in entries.values():
        a = e.algebra
        if a.domain <= 4:
            perms = list(itertools.permutations(range(a.domain)))
            want = tuple(p for p in perms if catalog_transport(a, p).operations == a.operations)
            assert subpower.automorphisms(a) == want, e.name
            # transport and automorphisms read the same relabeling; this reads every cell
            assert want == tuple(p for p in perms if all(
                reference_relabel(op, p) == op.values for op in a.operations)), e.name
    # above five elements, the identity alone
    big = Algebra(6, [_table("t", 6, 2, max)])
    assert subpower.automorphisms(big) == (tuple(range(6)),)


def test_the_t410_majority_test_completes_within_the_query_budget(alg):
    # its six cells are closed under S_3 and under four automorphisms, so
    # the walk and the view both apply; without them the closure stopped on
    # 150,000 steps with its 128 elements
    a = alg("T4,10")
    cells = _majority_on_pair_positions(1, 2)
    d = decide_term(a, 3, cells, [], max_steps=150_000, targets=[(1, 1, 1, 2, 2, 2)])
    assert (d.holds, d.stage) == (False, "closure")
    assert (len(d.closure), d.closure.applications, d.closure.stop_reason) == \
        (128, 65_352, None)


def argument_tuple_orbits(gset):
    """The orbits of the argument tuples of a Clo_k's basic operations over
    its elements, under the variable maps (on every entry at once) and the
    operation's argument symmetry (`orbit_group`), counted by brute force:
    the tuples that are the least of their images."""
    a = gset.base
    images = variable_images(a, gset.exponent, gset.generators)
    maps = [list(range(len(gset)))] + [list(col) for col in zip(*(
        [gset.position[img] for img in images(e)] for e in gset.elements))]
    count = 0
    for op in a.operations:
        perms = orbit_group(op) or [tuple(range(op.arity))]
        for t in itertools.product(range(len(gset)), repeat=op.arity):
            if all(tuple(s[t[j]] for j in perm) >= t for s in maps for perm in perms):
                count += 1
    return count


def test_variable_orbit_walk_applies_about_one_tuple_per_orbit(alg):
    # a symmetric (T3N, T1C) and a cyclic (T7C) ternary operation: the walk
    # applies each orbit of argument tuples at least once, and few twice
    for name, orbits in (("T3N", 22_001), ("T1C", 4_963), ("T7C", 3_844)):
        a = alg(name)
        got = fresh(a, *_clo3(a))
        assert not got.truncated
        assert argument_tuple_orbits(got) == orbits
        assert orbits <= got.applications <= 1.3 * orbits, name


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
            kernel_and_reference(a, len(pats), gens, predicate=set(subset).issuperset,
                                 max_steps=KERNEL_BUDGET // 8)


ORBIT_CAP = 40


def _with_and_without_orbits(base, m, gens, cap=ORBIT_CAP):
    """The reference with and without the orbit filter gives the same
    elements and witnesses on a complete or capped closure of the plain
    walk.  Where the variable-orbit walk applies, it meets the argument
    tuples in another order with the filter than without, so only its
    complete closures are compared, with both filters, to the plain one's
    elements."""
    gen_list = subpower._generator_bytes(base, m, gens)
    runs = [reference_closure(base, m, gen_list, cap, subpower._stop_test(None, None),
                              None, orbits=orbits, variables=False) for orbits in (True, False)]
    (got, want) = runs
    assert got.elements == want.elements
    assert got.witnesses == want.witnesses
    assert (got.truncated, got.stop_reason) == (want.truncated, want.stop_reason)
    if variable_images(base, m, gen_list) and not got.truncated:
        for orbits in (True, False):
            walked = reference_closure(base, m, gen_list, cap, subpower._stop_test(None, None),
                                       None, orbits=orbits)
            assert walked.truncated or set(walked.elements) == set(got.elements)
    return got


def test_orbit_filter_keeps_elements_and_witnesses(entries):
    complete = capped = 0
    for a in _small_entries(entries):
        closures = [_free(a, k) for k in (1, 2, 3)]
        closures += [(2, [(x, y), (y, x)])
                     for x, y in itertools.permutations(range(a.domain), 2)]
        for x, y in itertools.combinations(range(a.domain), 2):
            pats = _majority_on_pair_positions(x, y)
            closures.append((6, [tuple(t[j] for t in pats) for j in range(3)]))
        for m, gens in closures:
            got = _with_and_without_orbits(a, m, gens)
            capped += got.truncated
            complete += not got.truncated
    assert complete > 300 and capped > 20


def test_kernel_matches_reference_on_early_exits(alg):
    a = alg("T3C")
    m, gens = _clo3(a)
    full = kernel_and_reference(a, m, gens)
    size = len(full)
    middle, last = tuple(full.elements[10]), tuple(full.elements[-1])
    absent = tuple(0 for _ in range(m))
    for targets in ([middle], [middle, last], [gens[1]], [absent], []):
        kernel_and_reference(a, m, gens, targets=targets)
    # a stop on each element, whole rows (Clo_2(T4,16)) and single ones, and
    # in the variable-orbit walk (Clo_3(T1C), 55 elements, 6 of them admitted
    # as images at a round end), also at each cap
    t1c = alg("T1C")
    for b, (bm, bgens) in ((a, (m, gens)), (alg("T4,16"), _clo2(alg("T4,16"))),
                           (t1c, _clo3(t1c))):
        for e in kernel_and_reference(b, bm, bgens).elements:
            kernel_and_reference(b, bm, bgens, targets=[tuple(e)])
            kernel_and_reference(b, bm, bgens, predicate=lambda x, e=e: x == e)
    for cap in range(1, 57):
        kernel_and_reference(t1c, *_clo3(t1c), cap=cap)
    # the first stop reason stands when the cap is reached later
    kernel_and_reference(a, m, gens, targets=[gens[0]], cap=1)
    for name, subset in (("T3N", (0, 2)), ("T3C", (0, 2))):
        b = alg(name)
        pats = absorption_patterns(b.domain, subset, 3)
        pgens = [tuple(t[j] for t in pats) for j in range(3)]
        kernel_and_reference(b, len(pats), pgens, predicate=set(subset).issuperset)
    kernel_and_reference(a, m, gens, predicate=lambda e: e == last)
    kernel_and_reference(a, m, gens, predicate=lambda e: False)
    for cap in (1, 2, 3, 4, 10, size - 1, size, size + 1):
        got = kernel_and_reference(a, m, gens, cap=cap)
        assert len(got) == min(cap, size)
        assert got.stop_reason == ("cap" if cap < size else None)


def test_cap_admits_at_most_cap_elements(alg, monkeypatch):
    a = alg("T4,10")
    g = fresh(a, *_clo2(a), cap=5)
    assert len(g) == 5 and g.truncated and g.stop_reason == "cap"
    full = free_algebra(a, 2)
    g = fresh(a, *_clo2(a), cap=len(full))
    assert not g.truncated and g.elements == full.elements
    g = fresh(a, 1, [(0,), (1,), (2,)], cap=2)
    assert [tuple(e) for e in g.elements] == [(0,), (1,)]
    assert g.stop_reason == "cap"
    # `generate` holds every closure to the ceiling MAX_ELEMENTS
    monkeypatch.setattr(subpower, "MAX_ELEMENTS", 5)
    g = free_algebra(a, 2)
    assert len(g) == 5 and g.stop_reason == "cap"


def test_generate_holds_a_closure_to_its_byte_ceiling(alg, monkeypatch):
    # a closure in A^m keeps at most MAX_BYTES // m elements: a prefix of
    # the whole closure, stopped with reason "cap"
    a = alg("T4,10")
    full = free_algebra(a, 2)  # 16 bytes an element
    assert subpower.MAX_BYTES // 16 > len(full)
    monkeypatch.setattr(subpower, "MAX_BYTES", 16 * 5 + 15)
    g = free_algebra(a, 2)
    assert (len(g), g.truncated, g.stop_reason) == (5, True, "cap")
    assert g.elements == full.elements[:5] and g.witnesses == full.witnesses[:5]
    # an exponent-0 closure (its one element holds no byte) keeps the
    # element ceiling only
    monkeypatch.setattr(subpower, "MAX_BYTES", 0)
    g = term_closure(a, 2, [])
    assert (g.elements, g.truncated) == ([b""], False)


def _sweep_row_ends(base, m, gens, every=1, limit=KERNEL_BUDGET):
    """max_steps one below, at and one above the end of every `every`-th row
    among those ending within `limit` steps."""
    ends = []
    gen_list = subpower._generator_bytes(base, m, gens)
    reference_closure(base, m, gen_list, MAX_ELEMENTS,
                      subpower._stop_test(None, None), limit, ends)
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
    # 9 elements: the binary max has 1-byte lanes (81 cells), x-y+z 2-byte (729)
    a = Algebra(9, [_table("t", 9, 2, max),
                    _table("g", 9, 3, lambda x, y, z: (x - y + z) % 9)])
    for subset in ((0, 3), (1, 5, 7), (2, 4)):
        kernel_and_reference(a, 1, [(x,) for x in subset])
    for x, y in ((0, 4), (2, 7), (5, 8)):
        kernel_and_reference(a, 2, [(x, y), (y, x)], max_steps=KERNEL_BUDGET // 4)
        kernel_and_reference(a, 2, [(x, y), (y, x)], targets=[(y, y)])
    kernel_and_reference(a, *_free(a, 2), max_steps=2_000)
    _sweep_row_ends(a, 2, [(0, 4), (4, 0)], every=3, limit=3_000)


def test_kernel_four_byte_lanes():
    # x-y+z on Z41 has 41**3 = 68921 cells: 4-byte lanes
    g = _table("g", 41, 3, lambda x, y, z: (x - y + z) % 41)
    a = Algebra(41, [g])
    for subset in ((0, 1), (3, 17, 40)):
        got = kernel_and_reference(a, 1, [(x,) for x in subset])
        assert not got.truncated and len(got) == 41
    for x, y in ((0, 1), (5, 30)):
        kernel_and_reference(a, 2, [(x, y), (y, x)], max_steps=KERNEL_BUDGET // 4)
        kernel_and_reference(a, 2, [(x, y), (y, x)], targets=[(y, y)])
    _sweep_row_ends(a, 2, [(0, 1), (1, 0)], every=5, limit=3_000)
    # lanes of 1, 2 and 4 bytes in one closure
    b = Algebra(41, [_table("s", 41, 1, lambda x: 40 - x), _table("t", 41, 2, max), g])
    kernel_and_reference(b, 3, [(0, 1, 2), (4, 8, 0), (3, 0, 5)],
                         max_steps=KERNEL_BUDGET // 4)
    _sweep_row_ends(b, 2, [(0, 7), (7, 0)], every=5, limit=3_000)


def test_kernel_view_on_two_byte_lanes():
    # 2x+2y+3z-2w on Z5: 625 cells (2-byte lanes), commuting with the four
    # maps x -> ux, u a unit; from a switch at 8 elements Clo_2's rows keep
    # 7 of its 25 coordinates
    a = Algebra(5, [_table("q", 5, 4, lambda x, y, z, w: (2 * x + 2 * y + 3 * z - 2 * w) % 5)])
    m, gens = _free(a, 2)
    assert subpower._symmetries(a, subpower._generator_bytes(a, m, gens))[1].coords == 7
    with mock.patch.object(subpower, "_ORBIT_MIN", 8):
        for max_steps in (1_000, 3_013, 20_000):
            got = kernel_and_reference(a, m, gens, max_steps=max_steps)
    assert (len(got), got.rounds) == (25, 3)


def _free(a, k):
    return a.domain**k, projection_tuples(a.domain, k)


def _cyclic3(n):
    # a value per rotation class, read at its least rotation (not symmetric)
    def g(*args):
        x, y, z = min(args[i:] + args[:i] for i in range(3))
        return (x + 2 * y + 3 * z) % n
    return g


def _median(x, y, z):
    return sorted((x, y, z))[1]


def _orbit_shapes():
    """(table, orbit kind) of every shape of basic operation the kernel
    tells apart, on 1-, 2- and 4-byte lanes."""
    yield _table("c", 3, 2, lambda x, y: (2 * x + 2 * y + 1) % 3), "symmetric"
    yield _table("c", 4, 2, min), "symmetric"
    yield _table("q", 3, 4, lambda *a: (sum(a) + 1) % 3), "symmetric"
    yield _table("q", 4, 4, lambda *a: sorted(a)[1]), "symmetric"
    yield _table("g", 3, 3, _cyclic3(3)), "cyclic"
    yield _table("g", 4, 3, _cyclic3(4)), "cyclic"
    # invariant only under swapping its first two arguments
    yield _table("s", 4, 3, lambda x, y, z: (x * y + 3 * z + 1) % 4), None
    yield _table("s", 3, 3, lambda x, y, z: (x + y + 2 * z + 1) % 3), None
    yield _table("m", 9, 3, _median), "symmetric"
    yield _table("g", 9, 3, _cyclic3(9)), "cyclic"
    yield _table("m", 41, 3, _median), "symmetric"
    yield _table("g", 41, 3, _cyclic3(41)), "cyclic"


def test_orbit_kind_of_each_shape():
    for op, kind in _orbit_shapes():
        assert subpower._orbit_kind(op.domain, op.arity, op.values) == kind, op
        # the reference finds the same group by trying every permutation
        group = orbit_group(op)
        assert (group is not None) == (kind is not None), op
        if kind == "cyclic":
            assert len(group) == 3


def test_kernel_walks_one_tuple_per_orbit():
    for op, kind in _orbit_shapes():
        a = Algebra(op.domain, [op])
        n = a.domain
        pairs = [(0, 1), (1, n - 1), (n // 2, 1)]
        for x, y in pairs:
            kernel_and_reference(a, 2, [(x, y), (y, x)], max_steps=KERNEL_BUDGET // 4)
            kernel_and_reference(a, 2, [(x, y), (y, x)], targets=[(y, y)])
            kernel_and_reference(a, 3, [(x, y, 0), (y, 0, x), (0, x, y)],
                                 max_steps=KERNEL_BUDGET // 4)
        if n <= 4:
            for k in (1, 2):
                m, gens = _free(a, k)
                ends = []
                full = reference_closure(a, m, subpower._generator_bytes(a, m, gens),
                                         MAX_ELEMENTS, subpower._stop_test(None, None),
                                         KERNEL_BUDGET, ends)
                if full.truncated:
                    continue
                # the kernel's count of a complete closure is the reference's
                steps = ends[-1]
                assert kernel_and_reference(a, m, gens).applications == steps
                for max_steps in (steps, steps + 1):
                    got = kernel_and_reference(a, m, gens, max_steps=max_steps)
                    assert got.truncated == (max_steps == steps)
            _sweep_row_ends(a, *_free(a, 2), every=60, limit=3_000)
        _sweep_row_ends(a, 2, [(0, 1), (1, 0)], every=25, limit=3_000)


def test_kernel_mixed_orbit_kinds():
    # a symmetric ternary, a plain binary and a unary operation on a 3-chain
    a = Algebra(3, [_table("m", 3, 3, _median), _table("d", 3, 2, lambda x, y: (x + 2 * y) % 3),
                    _table("s", 3, 1, lambda x: 2 - x)])
    assert [subpower._orbit_kind(op.domain, op.arity, op.values)
            for op in a.operations] == ["symmetric", None, None]
    for k in (1, 2):
        kernel_and_reference(a, *_free(a, k), max_steps=KERNEL_BUDGET)
        _with_and_without_orbits(a, *_free(a, k))
    for x, y in itertools.permutations(range(3), 2):
        kernel_and_reference(a, 2, [(x, y), (y, x)])
        _with_and_without_orbits(a, 2, [(x, y), (y, x)], cap=MAX_ELEMENTS)
    _sweep_row_ends(a, *_free(a, 2), every=11, limit=5_000)


# ---------------------------------------------------------------------------
# the local obstructions for cyclic and Mal'cev terms against Clo_3

from finalg.core import product  # noqa: E402
from finalg.structure import malcev_obstruction  # noqa: E402


def _malcev_cells(n):
    """The cells (x,y,y), (y,y,x), x != y, and a Mal'cev term's values there."""
    pats = sorted({(x, y, y) for x in range(n) for y in range(n) if x != y}
                  | {(y, y, x) for x in range(n) for y in range(n) if x != y})
    return pats, tuple(t[0] if t[1] == t[2] else t[2] for t in pats)


def _clo3_terms(a):
    """(has a cyclic term, has a Mal'cev term) from a scan of Clo_3.

    Where Clo_3 does not finish within the budget, a term found in the part
    built still counts, and the Mal'cev answer falls back on the exhausted
    closure over the Mal'cev cells, which is the projection of Clo_3."""
    n = a.domain
    cells = list(itertools.product(range(n), repeat=3))
    index = {c: i for i, c in enumerate(cells)}
    rot = [index[c[1:] + c[:1]] for c in cells]
    pats, target = _malcev_cells(n)
    at = [index[p] for p in pats]
    clo3 = free_algebra(a, 3, max_steps=200_000)
    cyclic = any(all(e[i] == e[rot[i]] for i in range(len(cells))) for e in clo3.elements)
    malcev = any(tuple(e[i] for i in at) == target for e in clo3.elements)
    if clo3.truncated:
        assert cyclic, "no cyclic term in a partial Clo_3"
        if not malcev:
            malcev = decide_term(a, 3, pats, [], targets=[target]).holds
            assert malcev is False
    return cyclic, malcev


def _small_algebras():
    """The catalog entries with at most 3 elements and the products of two
    2-element entries with the same signature."""
    from finalg import catalog

    small = {name: catalog.get(name).algebra for name in catalog.names()
             if catalog.get(name).algebra.domain <= 3}
    for x, y in (("S", "S"), ("M", "M"), ("M", "Z2aff"), ("Z2aff", "Z2aff")):
        small[f"{x}x{y}"] = product([small[x], small[y]])
    return small


def _replay_cyclic_obstruction(a, k, tup):
    """The rotation closure of `tup`, recomputed by the reference closure."""
    rotations = [tup[i:] + tup[:i] for i in range(k)]
    gens = subpower.term_generators(a, k, rotations)
    ref = reference_closure(a, k, gens, MAX_ELEMENTS, subpower._stop_test(None, None),
                            None)
    assert not ref.truncated
    assert not any(len(set(e)) == 1 for e in ref.elements)


def _replay_malcev_obstruction(a, quad):
    x, y, z, w = quad
    assert x != y and z != w
    gens = subpower.term_generators(a, 3, [(x, y, y), (z, z, w)])
    ref = reference_closure(a, 2, gens, MAX_ELEMENTS, subpower._stop_test(None, None),
                            None)
    assert not ref.truncated and bytes((x, w)) not in ref.position


def test_local_obstructions_never_deny_a_term_of_clo3():
    # an obstruction "no" must never meet a cyclic (resp. Mal'cev) element of
    # Clo_3, with any budget: a closure cut short by max_steps is no
    # obstruction.  With no budget every "no" here is found locally.
    decided = {"cyclic": 0, "malcev": 0}
    for name, a in _small_algebras().items():
        cyclic, malcev = _clo3_terms(a)
        for max_steps in (None, 3, 7, 12, 60):
            c = subpower.cyclic_obstruction(a, 3, max_steps=max_steps)
            m = malcev_obstruction(a, max_steps=max_steps)
            assert c is None or not cyclic, (name, max_steps, c)
            assert m is None or not malcev, (name, max_steps, m)
            if max_steps is None:
                assert (c is None, m is None) == (cyclic, malcev), name
                decided["cyclic"] += c is not None
                decided["malcev"] += m is not None
                if a.domain == 4:
                    if c is not None:
                        _replay_cyclic_obstruction(a, 3, c)
                    if m is not None:
                        _replay_malcev_obstruction(a, m)
    assert decided == {"cyclic": 4, "malcev": 26}


def test_local_obstructions_of_four_element_entries_replay(alg):
    # no Clo_3 scan here (T4,17's alone takes minutes); each named argument's
    # closure is recomputed by the reference closure instead
    from finalg import catalog

    for name in catalog.names():
        a = alg(name)
        if a.domain != 4:
            continue
        c = subpower.cyclic_obstruction(a, 3)
        if c is not None:
            _replay_cyclic_obstruction(a, 3, c)
        m = malcev_obstruction(a)
        if m is not None:
            _replay_malcev_obstruction(a, m)
    assert subpower.cyclic_obstruction(alg("T4,16"), 3) == (0, 0, 1)
    assert malcev_obstruction(alg("T4,16")) == (0, 3, 0, 3)


def test_decide_term_runs_probe_local_test_full_closure_in_order(alg, monkeypatch):
    # T4,17 has a Mal'cev term, found after 8,445 steps: the probe stops on
    # its budget, the local test finds no failing quadruple, and the full
    # closure, which continues the probe's paused kernel, finds the term
    a = alg("T4,17")
    pats, target = _malcev_cells(4)
    budgets = []
    inner = subpower.generate

    def spy(base, m, generators, **kw):
        budgets.append((m, kw.get("max_steps"), bool(kw.get("_resume"))))
        return inner(base, m, generators, **kw)

    from finalg import structure

    for module in (subpower, structure):
        monkeypatch.setattr(module, "generate", spy)

    def decide(max_steps):
        return subpower.decide_term(a, 3, pats, [
            (subpower.PROBE, None),
            ("malcev_obstruction", lambda: malcev_obstruction(a, max_steps=max_steps)),
        ], max_steps=max_steps, targets=[target])

    d = decide(150_000)
    assert (d.holds, d.stage, d.argument) == (True, "closure", None)
    assert budgets[0] == (len(pats), subpower.PROBE_STEPS, False)
    assert budgets[-1] == (len(pats), 150_000, True)  # the probe's closure, continued
    assert set(budgets[1:-1]) == {(2, 150_000, False)}
    assert len(budgets) == 2 + 4 * 3 * 4 * 3
    first = list(budgets)
    assert _closure_fields(d.closure) == _closure_fields(
        term_closure(a, 3, pats, max_steps=150_000, targets=[target]))
    got = eval_term_table(d.closure.witness_term(target), a, 3)
    assert tuple(got.values[got.index(p)] for p in pats) == target
    # a complete closure run before changes neither the stages nor the budgets
    assert not generate(a, len(pats), subpower.term_generators(a, 3, pats)).truncated
    budgets.clear()
    assert decide(150_000).stage == "closure" and budgets == first


# -- a decision's closure continues its probe ---------------------------------

def _closure_fields(g):
    return (g.exponent, g.generators, g.elements, g.witnesses, g.position, g.applications,
            g.rounds, g.truncated, g.stop_reason)


_DECISION_BUDGETS = (1, 999, 1_000, 1_001, 5_000, 150_000, None)


def _decisions(afresh: bool) -> tuple:
    """Every cyclic (`cyclic_terms`), Mal'cev and clone decision on the
    catalog entries at each budget of _DECISION_BUDGETS, as {(kind, entry,
    operation, budget): Decision}, and the number of closures continued.
    The clone decisions ask for each operation of every other entry of the
    same domain.  With `afresh`, every closure starts over, as before a
    decision continued its probe (`generate` drops `_resume`).  No budget
    (None) is asked only where the decision at 150,000 steps is conclusive:
    an unbounded Clo_3 of T6C runs for minutes."""
    from finalg import catalog, structure

    decided, continued = [], []
    decide, inner = subpower.decide_term, subpower.generate

    def spy(*args, **kw):
        decided.append(decide(*args, **kw))
        return decided[-1]

    def generate_spy(*args, _resume=None, **kw):
        continued.append(bool(_resume))
        return inner(*args, **kw) if afresh else inner(*args, _resume=_resume, **kw)

    got = {}
    names = catalog.names()
    with mock.patch.object(subpower, "decide_term", spy), \
            mock.patch.object(structure, "decide_term", spy), \
            mock.patch.object(subpower, "generate", generate_spy):
        for name in names:
            a = catalog.get(name).algebra
            questions = [("cyclic", None, lambda b: subpower.cyclic_terms(a, 3, max_steps=b)),
                         ("malcev", None, lambda b: structure.has_malcev_term(a, max_steps=b))]
            questions += [("clone", (other, op.name),
                           lambda b, op=op: structure.decide_clone_membership(a, op, max_steps=b))
                          for other in names if other != name
                          for op in catalog.get(other).algebra.operations
                          if catalog.get(other).algebra.domain == a.domain]
            for kind, op, ask in questions:
                for budget in _DECISION_BUDGETS:
                    if budget is None and got[kind, name, op, 150_000].holds is None:
                        continue
                    decided.clear()
                    ask(budget)
                    got[kind, name, op, budget] = decided[-1]
    return got, sum(continued)


def test_a_decision_continues_its_probe_as_a_fresh_closure():
    # the closure a decision answers from equals a fresh `term_closure` at
    # the same budget, field by field, and every stage and answer is the one
    # the decisions gave when each closure started over
    got, continued = _decisions(afresh=False)
    want, none = _decisions(afresh=True)
    assert got.keys() == want.keys() and none == 0
    for key, d in got.items():
        w = want[key]
        assert (d.stage, d.holds, d.argument) == (w.stage, w.holds, w.argument), key
        assert (d.closure is None) == (w.closure is None), key
        if d.closure is not None:
            assert _closure_fields(d.closure) == _closure_fields(w.closure), key
    stages = {(d.stage, d.closure is not None and d.closure.stop_reason) for d in got.values()}
    assert {(subpower.PROBE, "steps"), ("closure", None), ("closure", "steps")} <= stages
    assert continued == 75  # decisions whose probe stopped on steps and went on


def test_no_returned_closure_keeps_a_paused_kernel(alg):
    # a paused kernel lives only inside the decision that continues it: no
    # GeneratedSet a caller gets back holds one, so nothing of a closure
    # stopped on steps outlives the call (counted with the cyclic collector
    # off, so no reference cycle may hold one either)
    def kernels():
        return [o for o in gc.get_objects()
                if inspect.isgenerator(o) and o.gi_code is subpower._kernel.__code__]

    a = alg("T4,17")
    pats, target = _malcev_cells(4)
    gc.collect()
    gc.disable()
    try:
        assert kernels() == []
        probe = decide_term(a, 3, pats, [(subpower.PROBE, None)], max_steps=1_000,
                            targets=[target])
        full = decide_term(a, 3, pats, [(subpower.PROBE, None)], max_steps=150_000,
                           targets=[target])
        cut = term_closure(a, 3, pats, max_steps=10, targets=[target])
        assert (probe.stage, probe.holds, probe.closure.stop_reason) == (
            subpower.PROBE, None, "steps")
        assert (full.stage, full.holds) == ("closure", True)
        assert cut.stop_reason == "steps"
        assert kernels() == []
        assert all("_paused" not in vars(g) for g in (probe.closure, full.closure, cut))
    finally:
        gc.enable()
