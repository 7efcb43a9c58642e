import bisect
import dataclasses
import gc
import itertools
import random
import re
import time
import tracemalloc
import weakref
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from finalg.core import AlgebraError, OperationTable, ParseError
from finalg.congruence import Partition
from finalg.search import (
    AgreesOnTuples,
    CommutesWithPermutation,
    Cyclic,
    Idempotent,
    InvariantPartition,
    PreservesRelation,
    SearchSpec,
    Symmetric,
    count_ops,
    parse_constraint_file,
    restriction,
    satisfies,
    search_ops,
    solutions,
)
from finalg import catalog, search


MAJ = OperationTable("m", 3, 2, (0, 0, 0, 1, 0, 1, 1, 1))


def brute_force(spec):
    """Oracle: enumerate tables outright and filter by `satisfies`.

    With a Cyclic constraint the enumeration runs over rotation-orbit value
    assignments (anything else could not satisfy the constraint anyway);
    this keeps domain 3 / arity 3 at 3^11 candidates.
    """
    n, k = spec.domain, spec.arity
    cells = list(itertools.product(range(n), repeat=k))
    if any(isinstance(c, Cyclic) for c in spec.constraints) and not any(
        isinstance(c, Symmetric) for c in spec.constraints
    ):
        index = {t: i for i, t in enumerate(cells)}
        orbits = []
        seen = set()
        for t in cells:
            if t in seen:
                continue
            orbit = set()
            cur = t
            for _ in range(k):
                orbit.add(cur)
                cur = cur[1:] + cur[:1]
            seen |= orbit
            orbits.append(sorted(index[u] for u in orbit))
        out = []
        for choice in itertools.product(range(n), repeat=len(orbits)):
            vals = [0] * len(cells)
            for orbit, v in zip(orbits, choice):
                for i in orbit:
                    vals[i] = v
            table = OperationTable("f", k, n, tuple(vals))
            if all(satisfies(table, c) for c in spec.constraints):
                out.append(table.values)
        return sorted(out)
    out = []
    for vals in itertools.product(range(n), repeat=len(cells)):
        table = OperationTable("f", k, n, vals)
        if all(satisfies(table, c) for c in spec.constraints):
            out.append(vals)
    return sorted(out)


def test_majority_unique_on_two_elements():
    spec = SearchSpec(2, 3, (
        Idempotent(), Cyclic(),
        AgreesOnTuples((((0, 0, 1), 0), ((0, 1, 1), 1))),
    ))
    res = search_ops(spec)
    assert [t.values for t in res.tables] == [MAJ.values]
    assert brute_force(spec) == [MAJ.values]


def test_t1n_row_determines_table_under_symmetry(alg):
    t1n = alg("T1N").op("g")
    entries = {}
    for sub in ((0, 1), (0, 2)):
        for args in itertools.product(sub, repeat=3):
            entries[args] = t1n.values[t1n.index(args)]
    entries.update({(1, 1, 2): 1, (1, 2, 2): 0, (0, 1, 2): 0})
    pins = AgreesOnTuples(tuple(entries.items()))
    res = search_ops(SearchSpec(3, 3, (Idempotent(), Symmetric(), pins)))
    assert [t.values for t in res.tables] == [t1n.values]
    # cyclicity alone leaves the reversed orbit free
    res2 = search_ops(SearchSpec(3, 3, (Idempotent(), Cyclic(), pins)))
    assert len(res2.tables) == 3


def test_count_idempotent_commutative_two_elements():
    spec = parse_constraint_file("domain 2\narity 2\nidempotent\ncommutative\n")
    assert spec.constraints == (Idempotent(), Symmetric())
    n, truncated = count_ops(spec)
    assert (n, truncated) == (2, False)


def test_claim_style_unique_t41(alg):
    t1n = alg("T1N").op("g")
    spec = SearchSpec(4, 3, (
        Idempotent(), Cyclic(),
        InvariantPartition(Partition.parse("{0,1}{2}{3}", 4)),
        InvariantPartition(Partition.parse("{0,2}{1,3}", 4)),
        restriction((0, 1, 2), t1n),
        AgreesOnTuples((((2, 2, 3), 0), ((2, 3, 3), 1),
                        ((0, 0, 3), 0), ((1, 1, 3), 1), ((0, 3, 3), 1), ((1, 3, 3), 1),
                        ((0, 1, 3), 1), ((0, 3, 1), 1))),
    ))
    res = search_ops(spec)
    assert [t.values for t in res.tables] == [alg("T4,1").op("g").values]


def test_cap_truncation():
    res = search_ops(SearchSpec(2, 2, (Idempotent(),), cap=1))
    assert len(res.tables) == 1 and res.truncated


def test_cap_below_one_is_an_error():
    for cap in (0, -1):
        with pytest.raises(AlgebraError, match=f"cap must be at least 1, got {cap}"):
            SearchSpec(2, 2, (Idempotent(),), cap=cap)
        with pytest.raises(ParseError) as info:
            parse_constraint_file(f"domain 2\narity 2\ncap {cap}\n")
        assert info.value.line == 3


def test_domain_or_arity_below_one_is_an_error():
    for domain, arity, line, what, value in ((2, -2, 2, "arity", -2), (2, 0, 2, "arity", 0),
                                             (0, 2, 1, "domain", 0)):
        with pytest.raises(AlgebraError, match=f"search supports {what} 1 to ., got {value}"):
            SearchSpec(domain, arity, (Idempotent(),))
        with pytest.raises(ParseError, match=f"{what} must be at least 1, got {value}") as info:
            parse_constraint_file(f"domain {domain}\narity {arity}\n")
        assert info.value.line == line


def test_domain_or_arity_above_the_search_limit_names_the_line():
    for domain, arity, line, what, value in ((6, 2, 1, "domain", 6), (3, 5, 2, "arity", 5)):
        with pytest.raises(AlgebraError, match=f"search supports {what} 1 to ., got {value}$"):
            SearchSpec(domain, arity, (Idempotent(),))
        with pytest.raises(ParseError, match=f"search supports {what} 1 to ., got {value} ") \
                as info:
            parse_constraint_file(f"domain {domain}\narity {arity}\n")
        assert info.value.line == line


def test_commutative_at_another_arity_names_its_line():
    for arity in (1, 3, 4):
        with pytest.raises(ParseError, match=f"commutative requires arity 2, got arity {arity}") \
                as info:
            parse_constraint_file(f"# a comment\ncommutative\ndomain 2\narity {arity}\n")
        assert info.value.line == 2
    spec = parse_constraint_file("domain 2\narity 2\ncommutative\n")
    assert [t.values for t in search_ops(spec).tables] == brute_force(spec)


def test_preserves_relation():
    edges = ((0, 0), (1, 1), (0, 1))
    spec = SearchSpec(2, 2, (Idempotent(), PreservesRelation(2, edges)))
    res = search_ops(spec)
    assert [t.values for t in res.tables] == brute_force(spec)


def test_commutes_with_permutation():
    swap = (1, 0)
    spec = SearchSpec(2, 2, (Idempotent(), CommutesWithPermutation(swap)))
    got = [t.values for t in search_ops(spec).tables]
    assert got == brute_force(spec)
    for vals in got:
        t = OperationTable("f", 2, 2, vals)
        assert all(t(1 - x, 1 - y) == 1 - t(x, y) for x in range(2) for y in range(2))


def test_randomized_agreement_with_brute_force():
    rnd = random.Random(20260808)
    rounds = [(2, 2)] * 12 + [(2, 3)] * 7 + [(3, 2)] * 6
    for n, k in rounds:
        spec = _random_spec(rnd, n, k, force_cyclic=False)
        got = sorted(t.values for t in search_ops(spec).tables)
        assert got == brute_force(spec), spec


def test_randomized_agreement_cyclic_3_3():
    rnd = random.Random(99)
    for _ in range(3):
        spec = _random_spec(rnd, 3, 3, force_cyclic=True)
        got = sorted(t.values for t in search_ops(spec).tables)
        assert got == brute_force(spec), spec


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([(2, 2), (2, 3), (3, 2)]),
       st.sampled_from([None, 1, 3]))
def test_budgeted_search_streams_a_prefix_of_the_full_search(rnd, shape, cap):
    spec = _random_spec(rnd, *shape, force_cyclic=False)
    full = [t.values for t in search_ops(spec).tables]
    assert full == brute_force(spec)  # the same tables in the same order
    spec = dataclasses.replace(spec, cap=cap)
    for budget in (1, 10, None):
        res = search_ops(spec, max_steps=budget)
        got = [t.values for t in res.tables]
        assert got == full[:len(got)]
        assert count_ops(spec, max_steps=budget) == (len(got), res.truncated)
        # one step is one value tried, so each step reaches at most one leaf
        assert len(got) <= max(budget or len(full), 1)
        if len(got) < len(full):
            assert res.truncated  # a budget stop or the cap
        if budget is None:
            assert got == full[:cap] and res.truncated == (len(got) < len(full))


def reference_walk(spec, budget, verdicts):
    """A plain depth-first walk: the cells of one argument orbit (rotations
    for Cyclic, all permutations for Symmetric) share a value, idempotence
    and the pins fix their orbits, and the free orbits are tried one value
    at a time in the order of their first cell, one step per value.  The
    tables that satisfy every constraint, then None if a value was still to
    try when `budget` steps were spent; (tables, steps of the whole walk).
    `verdicts` keeps each table's verdict for the next walk of the spec."""
    n, k = spec.domain, spec.arity
    kinds = {type(c) for c in spec.constraints}
    if Symmetric in kinds:
        moves = list(itertools.permutations(range(k)))
    elif Cyclic in kinds:
        moves = [tuple((i + s) % k for i in range(k)) for s in range(k)]
    else:
        moves = [tuple(range(k))]
    cells = list(itertools.product(range(n), repeat=k))
    orbit = {}
    for args in cells:
        if args not in orbit:
            group = len(set(orbit.values()))
            for m in moves:
                orbit[tuple(args[i] for i in m)] = group
    value = [None] * len(set(orbit.values()))
    pins = [((x,) * k, x) for x in range(n) if Idempotent in kinds]
    pins += [item for c in spec.constraints if isinstance(c, AgreesOnTuples) for item in c.items]
    for args, v in pins:
        if value[orbit[args]] not in (None, v):
            return [], 0
        value[orbit[args]] = v
    free = [o for o, v in enumerate(value) if v is None]
    found, steps = [], 0

    def walk(i):  # False once the budget stops the walk
        nonlocal steps
        if i == len(free):
            values = tuple(value[orbit[args]] for args in cells)
            if values not in verdicts:
                table = OperationTable("f", k, n, values)
                verdicts[values] = all(satisfies(table, c) for c in spec.constraints)
            if verdicts[values]:
                found.append(values)
            return True
        for v in range(n):
            if steps == budget:
                return False
            steps += 1
            value[free[i]] = v
            if not walk(i + 1):
                return False
        return True

    if not walk(0):
        found.append(None)
    return found, sum(n**i for i in range(1, len(free) + 1))


@st.composite
def block_specs(draw):
    """Specs nothing propagates to: laws among idempotent, cyclic and
    symmetric, and 0 to 2 cell pins."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    laws = draw(st.lists(st.sampled_from([Idempotent, Cyclic, Symmetric]), unique=True))
    element = st.integers(0, n - 1)
    pins = draw(st.lists(st.tuples(st.tuples(*[element] * k), element), max_size=2))
    return SearchSpec(n, k, (*(law() for law in laws), *(AgreesOnTuples((p,)) for p in pins)))


@settings(max_examples=80, deadline=None)
@given(block_specs(), st.sampled_from([1, 2, 9, search._BLOCK_LEAVES]))
def test_block_walk_matches_a_plain_walk_at_every_budget(spec, block_leaves):
    # the block's leaves, in order, and where a budget stops inside it or
    # before it are those of the walk that tries one value per step; a
    # smaller block size puts frames in front of the block
    verdicts = {}
    trials = reference_walk(spec, 0, verdicts)[1]  # stops before its first step
    assume(trials <= 400)
    full = reference_walk(spec, None, verdicts)[0]
    with mock.patch.object(search, "_BLOCK_LEAVES", block_leaves):
        assert list(solutions(spec)) == full
        for budget in range(1, trials + 2):
            want = reference_walk(spec, budget, verdicts)[0]
            assert list(solutions(spec, budget)) == want, budget


def test_relations_prune_at_the_step_that_decides_their_cells():
    # every triple but (0, 1, 2): the pins of idempotence and the first
    # orbits decided already leave the relation, so the walk stops long
    # before the 9,840 steps of the unpruned walk
    rel = tuple(t for t in itertools.product(range(3), repeat=3) if t != (0, 1, 2))
    spec = SearchSpec(3, 3, (Idempotent(), Cyclic(), PreservesRelation(3, rel)))
    assert count_ops(spec, max_steps=100) == (0, False)
    assert list(solutions(spec, 100)) == []
    # an orbit the permutation (1 2) decides is tested at the step that
    # decided it: the walk ends after 9 steps (12 if only the orbit tried
    # were tested)
    spec = SearchSpec(3, 2, (Idempotent(), Symmetric(), CommutesWithPermutation((0, 2, 1)),
                             PreservesRelation(2, ((0, 0), (2, 2)))))
    assert count_ops(spec, max_steps=8) == (2, True)
    assert count_ops(spec, max_steps=9) == (2, False)
    assert [t.values for t in search_ops(spec).tables] == brute_force(spec)


def test_search_leaves_no_reference_cycle():
    # with the collector off, the tables die with the last reference to them
    gc.disable()
    try:
        res = search_ops(SearchSpec(3, 3, (Idempotent(), Cyclic())))
        assert len(res.tables) == 6561
        first = weakref.ref(res.tables[0])
        del res
        assert first() is None
    finally:
        gc.enable()


def _random_spec(rnd, n, k, force_cyclic):
    cons = []
    if force_cyclic or rnd.random() < 0.5:
        cons.append(Cyclic())
    if force_cyclic or rnd.random() < 0.7:
        cons.append(Idempotent())
    if k == 2 and rnd.random() < 0.3:
        cons.append(Symmetric())
    for _ in range(rnd.randrange(0, 3)):
        args = tuple(rnd.randrange(n) for _ in range(k))
        cons.append(AgreesOnTuples(((args, rnd.randrange(n)),)))
    if rnd.random() < 0.6:
        rep = [rnd.randrange(max(1, n - 1)) for _ in range(n)]
        cons.append(InvariantPartition(Partition.from_representatives(n, rep)))
    if rnd.random() < 0.4:
        tuples = sorted(
            {tuple(rnd.randrange(n) for _ in range(2)) for _ in range(rnd.randrange(1, 4))}
        )
        cons.append(PreservesRelation(2, tuple(tuples)))
    if rnd.random() < 0.4:
        perm = list(range(n))
        rnd.shuffle(perm)
        cons.append(CommutesWithPermutation(tuple(perm)))
    return SearchSpec(n, k, tuple(cons))


def test_soundness_every_solution_satisfies():
    rnd = random.Random(5)
    for _ in range(10):
        spec = _random_spec(rnd, 3, 2, force_cyclic=False)
        for t in search_ops(spec).tables:
            assert all(satisfies(t, c) for c in spec.constraints)


def test_leaf_check_rejects_where_relations_are_not_pruned():
    # 12 tuples: 12**4 = 20,736 combinations, more than search_ops prunes
    # on as cells are decided, so only the leaf check can reject a table
    rel = tuple(t for t in itertools.product(range(2), repeat=4) if t[:2] != (0, 0))
    spec = SearchSpec(2, 4, (Idempotent(), Cyclic(), PreservesRelation(4, rel)))
    got = [t.values for t in search_ops(spec).tables]
    assert all(satisfies(OperationTable("f", 4, 2, v), spec.constraints[2]) for v in got)
    assert got == brute_force(spec)
    assert 0 < len(got) < count_ops(SearchSpec(2, 4, spec.constraints[:2]))[0]


def test_leaf_check_alone_returns_only_solutions(monkeypatch):
    spec = SearchSpec(3, 2, (
        Idempotent(),
        InvariantPartition(Partition.parse("{0,1}{2}", 3)),
        CommutesWithPermutation((1, 0, 2)),
        PreservesRelation(2, ((0, 0), (0, 2), (1, 1), (1, 2), (2, 2))),
        AgreesOnTuples((((0, 2), 2),)),
    ))
    want = [t.values for t in search_ops(spec).tables]
    # no propagation: every cell its own orbit, nothing pinned, no partition,
    # permutation or relation propagated or pruned on; 3**9 leaves
    plain = search._argument_orbits(3, 2, ())
    monkeypatch.setattr(search, "_argument_orbits", lambda n, k, constraints: plain)
    monkeypatch.setattr(search, "_forced_cells", lambda spec: {})
    monkeypatch.setattr(search, "_propagators", lambda spec: ([], [], []))
    got = search_ops(spec).tables
    assert all(satisfies(t, c) for t in got for c in spec.constraints)
    assert [t.values for t in got] == want == brute_force(spec)
    assert len(want) == 3


def test_large_relation_check_holds_the_relation_alone():
    # 60 ternary tuples (each twice) on 5 elements at arity 4: 60**4 = 12.96M
    # combinations, far more than one getter over all of them should hold
    rel = tuple(itertools.islice(
        (t for t in itertools.product(range(5), repeat=3) if t != (0, 0, 0)), 60))
    c = PreservesRelation(3, rel + rel)
    tracemalloc.start()
    try:
        check = search._compile(c, 5, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert not check((0,) * 5**4)  # (0, 0, 0) is not in the relation


def test_a_relation_too_large_to_prune_on_stays_within_the_budget(monkeypatch):
    # 120 tuples (60 twice) at arity 4: 207M combinations.  None is listed
    # before the first step, so a small budget stops the search at once
    rel = tuple(itertools.islice(
        (t for t in itertools.product(range(5), repeat=3) if t != (0, 0, 0)), 60))
    spec = SearchSpec(5, 4, (Idempotent(), Symmetric(), PreservesRelation(3, rel + rel)))
    monkeypatch.setattr(search, "_relation_combos", None)  # a call would raise TypeError
    assert count_ops(spec, max_steps=10) == (0, True)
    assert count_ops(spec, max_steps=1000) == (0, True)


def test_a_large_relation_walk_spends_the_step_budget():
    # all 125 triples at arity 4: every table passes, and a leaf's walk
    # would try 125**4 = 244M combinations.  The first leaf is reached at
    # step 65; each combination tried there is one more step
    every = tuple(itertools.product(range(5), repeat=3))
    spec = SearchSpec(5, 4, (Idempotent(), Symmetric(), PreservesRelation(3, every)))
    start = time.perf_counter()
    assert count_ops(spec, max_steps=70) == (0, True)
    assert count_ops(spec, max_steps=65) == (0, True)
    assert count_ops(spec, max_steps=2_000) == (0, True)
    assert time.perf_counter() - start < 2


def _least_complete_budget(spec):
    """The smallest step budget under which the search ends untruncated."""
    return bisect.bisect_left(range(1, 1 << 20), True,
                              key=lambda b: not count_ops(spec, max_steps=b)[1]) + 1


def test_a_large_relation_charges_each_combination_it_tries():
    # 12 tuples at arity 4: 20,736 combinations, walked at each leaf.  The
    # whole search costs the values it tries, as without the relation, plus
    # every combination the leaf walks try
    rel = tuple(t for t in itertools.product(range(2), repeat=4) if t[:2] != (0, 0))
    laws = (Idempotent(), Cyclic())
    spec = SearchSpec(2, 4, (*laws, PreservesRelation(4, rel)))
    tried = []
    walk = search._RelationWalk.walk

    def spy(self, values, budget=None):
        got = walk(self, values, budget)
        tried.append(got[1])
        return got

    with mock.patch.object(search._RelationWalk, "walk", spy):
        found = count_ops(spec)
    assert found == (len(brute_force(spec)), False) and len(tried) > 1
    values = _least_complete_budget(SearchSpec(2, 4, laws))
    assert _least_complete_budget(spec) == values + sum(tried)


def test_relation_walk_and_getter_agree(monkeypatch):
    rnd = random.Random(11)
    for _ in range(60):
        n, k, r = rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(1, 3)
        every = list(itertools.product(range(n), repeat=r))
        c = PreservesRelation(r, tuple(rnd.sample(every, rnd.randint(1, len(every)))))
        getter = search._compile(c, n, k)
        monkeypatch.setattr(search, "_RELATION_COMBOS", 0)
        walk = search._compile(c, n, k)
        monkeypatch.undo()
        cells = list(itertools.product(range(n), repeat=k))
        for values in [tuple(rnd.randrange(n) for _ in cells) for _ in range(5)] + [
                tuple(args[0] for args in cells)]:  # a projection preserves every relation
            assert getter(values) == walk(values)
        assert walk(tuple(args[0] for args in cells))


def test_constraints_holding_lists_are_checked():
    # constraints built with lists are not hashable, so they are checked
    # without the compiled-check cache, with the same verdicts
    t = OperationTable("f", 2, 3, (0, 2, 2, 2, 1, 2, 2, 2, 2))
    assert satisfies(t, AgreesOnTuples([([0, 2], 2), ([1, 1], 1)]))
    assert not satisfies(t, AgreesOnTuples([([0, 1], 1)]))
    assert satisfies(t, CommutesWithPermutation([1, 0, 2]))
    assert satisfies(t, PreservesRelation(2, [(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)]))
    assert satisfies(t, restriction([1, 2], OperationTable("r", 2, 2, (0, 1, 1, 1))))
    assert not satisfies(t, restriction([0, 1], OperationTable("r", 2, 2, (0, 0, 0, 1))))
    spec = SearchSpec(3, 2, (Idempotent(), Symmetric(), CommutesWithPermutation([1, 0, 2]),
                             AgreesOnTuples([([0, 2], 2)])))
    assert [x.values for x in search_ops(spec).tables] == brute_force(spec)
    assert t.values in brute_force(spec)
    with pytest.raises(AlgebraError, match="unknown constraint"):
        satisfies(t, [Idempotent()])


def test_determinism():
    spec = SearchSpec(3, 2, (Idempotent(),))
    a = [t.values for t in search_ops(spec).tables]
    b = [t.values for t in search_ops(spec).tables]
    assert a == b
    assert a == sorted(a)  # lexicographic order of value sequences


def test_unique_completion_total_table(alg):
    t47 = alg("T4,7").op("t")
    pins = AgreesOnTuples(tuple(zip(t47.all_args(), t47.values)))
    spec = SearchSpec(4, 2, (Idempotent(), Symmetric(), pins))
    assert [t.values for t in search_ops(spec).tables] == [t47.values]


def test_unique_completion_t45_spot_value(alg):
    assert catalog.build_algebra("T4,5").op("g")(0, 1, 2) == 0


def test_malformed_argument_tuples_are_an_error():
    # a negative or too large element, too few or too many arguments: none
    # names a cell, so neither the check nor the search may read one
    t = OperationTable("f", 2, 2, (0, 0, 0, 1))
    for args in ((1, -1), (0,), (0, 5), (0, 1, 1)):
        c = AgreesOnTuples(((args, 0),))
        for ask in (lambda: satisfies(t, c), lambda: search_ops(SearchSpec(2, 2, (c,)))):
            with pytest.raises(AlgebraError,
                               match=re.escape(f"argument tuple {args} malformed for arity 2")):
                ask()
    # a value outside the domain names a cell: no table meets it
    c = AgreesOnTuples((((0, 1), 2),))
    assert not satisfies(t, c) and count_ops(SearchSpec(2, 2, (c,))) == (0, False)


def test_restriction_pins_the_table_on_the_subset():
    # min with bottom 0, relabeled onto {0, 2}; the subset's order is immaterial
    c = restriction([2, 0], OperationTable("r", 2, 2, (0, 0, 0, 1)))
    assert c == AgreesOnTuples((((0, 0), 0), ((0, 2), 0), ((2, 0), 0), ((2, 2), 2)))
    with pytest.raises(AlgebraError, match=r"domain 3, subset \(0, 1\) has 2 elements"):
        restriction((0, 1), OperationTable("r", 2, 3, (0,) * 9))
    # a table of another arity pins argument tuples of the wrong length
    with pytest.raises(AlgebraError, match="malformed for arity 2"):
        satisfies(OperationTable("f", 2, 3, (0,) * 9), restriction((0, 1), MAJ))


def test_constraint_file_round_trip():
    text = """
domain 4
arity 3
idempotent
cyclic
partition {0,2}{1,3}
value 0,0,3 := 1
perm (0 2)(1 3)
"""
    spec = parse_constraint_file(text)
    assert spec.domain == 4 and spec.arity == 3
    kinds = {type(c).__name__ for c in spec.constraints}
    assert kinds == {
        "Idempotent", "Cyclic", "InvariantPartition",
        "AgreesOnTuples", "CommutesWithPermutation",
    }


def test_constraint_file_restrict_and_preserves():
    text = (
        "domain 3\narity 2\nrestrict 0,1 := 0 0 0 1\n"
        "preserves 2 : 0,0 1,1 0,1\n"
    )
    spec = parse_constraint_file(text)
    assert restriction((0, 1), OperationTable("r", 2, 2, (0, 0, 0, 1))) in spec.constraints
    assert any(isinstance(c, PreservesRelation) for c in spec.constraints)


def test_constraint_file_rejects_unknown():
    with pytest.raises(AlgebraError):
        parse_constraint_file("domain 2\narity 2\nfrobnicate\n")
    with pytest.raises(AlgebraError):
        parse_constraint_file("arity 2\nidempotent\n")
