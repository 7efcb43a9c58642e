import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finalg.core import Algebra, AlgebraError, OperationTable, translation_cells
from finalg.congruence import (
    NotACongruenceError,
    Partition,
    all_congruences,
    class_algebra,
    format_blocks,
    is_congruence,
    maximal_congruences,
    parse_blocks,
    principal_congruence,
    quotient_algebra,
    simplicity_witness,
    translation_pairs,
)
from finalg import catalog, structure

from conftest import UnionFind


def test_partition_canonical_form():
    p = Partition.of(4, [{3, 1}, {0, 2}])
    assert p.blocks == ((0, 2), (1, 3))
    assert str(p) == "{0,2}{1,3}"
    with pytest.raises(AlgebraError):
        Partition(4, ((1, 3), (0, 2)))  # not canonical


def test_partition_parse():
    p = Partition.parse("{0,2}{1,3}", 4)
    assert p.blocks == ((0, 2), (1, 3))
    assert Partition.parse("{0}{1}{2}", 3).is_identity()
    assert Partition.parse("{0,1,2}", 3).is_full()
    with pytest.raises(AlgebraError):
        Partition.parse("{0,2}{1)", 4)
    with pytest.raises(AlgebraError):
        Partition.parse("{0,2}", 4)  # does not cover


def test_block_text_is_read_and_written_in_one_place():
    assert parse_blocks(" {0,2}{1, 3} ") == ((0, 2), (1, 3))
    assert parse_blocks("{2,0}{1}") == ((2, 0), (1,))  # as written, not canonical
    assert format_blocks([(0, 1, 2)]) == "{0,1,2}"
    for text, message in (("", "empty partition text"),
                          ("{0,1}x{2}", "bad partition syntax: '{0,1}x{2}'"),
                          ("{0,1}{2,3", "unbalanced braces in '{0,1}{2,3'"),
                          ("{0}{}", "empty block in '{0}{}'"),
                          ("{0,a}", "bad block '0,a' in '{0,a}'")):
        with pytest.raises(AlgebraError) as info:
            parse_blocks(text)
        assert str(info.value) == message


def test_related_reads_the_block_index():
    p = Partition.parse("{0,2}{1,3}", 4)
    assert p.related(0, 2) and p.related(3, 1) and not p.related(0, 1)
    for x, y in ((0, 4), (-1, 2)):
        with pytest.raises(AlgebraError):
            p.related(x, y)


def test_partition_join_meet():
    a = Partition.parse("{0,1}{2}{3}", 4)
    b = Partition.parse("{0}{1,2}{3}", 4)
    assert str(a.join(b)) == "{0,1,2}{3}"
    assert a.meet(b).is_identity()
    full = Partition.full(4)
    assert a.join(full).is_full()
    assert str(a.meet(full)) == str(a)


def test_partition_refines():
    a = Partition.parse("{0,1}{2}{3}", 4)
    b = Partition.parse("{0,1,2}{3}", 4)
    assert a.refines(b) and not b.refines(a)
    assert Partition.identity(4).refines(a)


def test_is_congruence_identity(entries):
    for entry in entries.values():
        ok, _ = is_congruence(entry.algebra, Partition.identity(entry.algebra.domain))
        assert ok


def test_is_congruence_t410(alg):
    ok, _ = is_congruence(alg("T4,10"), Partition.parse("{0,2}{1,3}", 4))
    assert ok


def test_is_congruence_t47(alg):
    ok, _ = is_congruence(alg("T4,7"), Partition.parse("{0,3}{1}{2}", 4))
    assert ok


def test_is_congruence_violation_reported(alg):
    ok, violation = is_congruence(alg("T4,10"), Partition.parse("{0,1}{2,3}", 4))
    assert not ok
    op_name, args1, args2, v1, v2 = violation
    a = alg("T4,10")
    assert a.op(op_name).eval(args1) == v1
    assert a.op(op_name).eval(args2) == v2


def test_every_partition_of_every_entry_is_tested_against_the_lattice(entries):
    """is_congruence accepts exactly the members of all_congruences: the
    426 partitions of the 47 entries' domains hold 161 congruences."""
    total = accepted = 0
    for entry in entries.values():
        a = entry.algebra
        congs = set(all_congruences(a))
        for p in {Partition.from_representatives(a.domain, rep)
                  for rep in itertools.product(range(a.domain), repeat=a.domain)}:
            ok, _ = is_congruence(a, p)
            assert ok == (p in congs), (entry.name, str(p))
            total, accepted = total + 1, accepted + ok
    assert (total, accepted) == (426, 161)


def test_one_message_for_a_partition_that_is_not_a_congruence(alg):
    t410, p = alg("T4,10"), Partition.parse("{0,1}{2,3}", 4)
    want = f"not a congruence, violation: {is_congruence(t410, p)[1]}"
    for call in (lambda: quotient_algebra(t410, p),
                 lambda: class_algebra(t410, p, (0, 1)),
                 lambda: catalog.verify_subdirect(t410, p, Partition.identity(4), "S", "S")):
        with pytest.raises(NotACongruenceError) as info:
            call()
        assert str(info.value) == want


def test_principal_reflexive_is_identity(alg):
    assert principal_congruence(alg("T4,10"), 2, 2).is_identity()


def test_principal_two_element_semilattice(alg):
    assert principal_congruence(alg("S"), 0, 1).is_full()


def test_principal_t410(alg):
    p = principal_congruence(alg("T4,10"), 0, 2)
    assert str(p) == "{0,2}{1,3}"


def test_principal_is_least(entries):
    # every congruence containing (a, b) coarsens the principal congruence
    for name in ("T1N", "T4,7", "T4,10", "T4,14"):
        a = entries[name].algebra
        congs = all_congruences(a)
        for x in range(a.domain):
            for y in range(x + 1, a.domain):
                p = principal_congruence(a, x, y)
                for c in congs:
                    if c.related(x, y):
                        assert p.refines(c)


def test_all_congruences_t1n(alg):
    congs = {str(p) for p in all_congruences(alg("T1N"))}
    assert "{0,1}{2}" in congs and "{0,2}{1}" in congs


def test_all_congruences_join_meet_closed(entries):
    for name in ("T1N", "T4,7", "T4,11"):
        congs = all_congruences(entries[name].algebra)
        cs = set(congs)
        for a, b in itertools.combinations(congs, 2):
            assert a.join(b) in cs
            meet = a.meet(b)
            ok, _ = is_congruence(entries[name].algebra, meet)
            assert ok  # partition meet of congruences is a congruence


def test_is_simple(alg):
    assert simplicity_witness(alg("T5N")) is None
    assert simplicity_witness(alg("T4,14")) is not None


def test_maximal_congruences(alg):
    maxi = {str(p) for p in maximal_congruences(alg("T4,7"))}
    assert maxi == {"{0,3}{1}{2}", "{0,1,2}{3}"}


def test_quotient_identity_is_copy(alg):
    a = alg("T1N")
    quo, blocks = quotient_algebra(a, Partition.identity(3))
    assert quo.operations[0].values == a.operations[0].values
    assert blocks == ((0,), (1,), (2,))


def test_quotient_t3n_affine(alg):
    quo, _ = quotient_algebra(alg("T3N"), Partition.parse("{0,1}{2}", 3))
    assert catalog.term_equivalent(quo, catalog.get("Z2aff").algebra) is True


def test_quotient_t1n_majority(alg):
    quo, _ = quotient_algebra(alg("T1N"), Partition.parse("{0,2}{1}", 3))
    assert catalog.term_equivalent(quo, catalog.get("M").algebra) is True


def test_quotient_requires_congruence(alg):
    with pytest.raises(NotACongruenceError):
        quotient_algebra(alg("T4,10"), Partition.parse("{0,1}{2,3}", 4))


def test_quotient_block_labeling_canonical(alg):
    quo, blocks = quotient_algebra(alg("T4,7"), Partition.parse("{0,3}{1}{2}", 4))
    assert blocks == ((0, 3), (1,), (2,))  # labels by ascending minimum


def test_class_algebra_singleton(alg):
    sub = class_algebra(alg("T4,7"), Partition.parse("{0,3}{1}{2}", 4), (1,))
    assert sub.domain == 1


def test_class_algebra_t410(alg):
    sub = class_algebra(alg("T4,10"), Partition.parse("{0,2}{1,3}", 4), (1, 3))
    # g(a, a, a+1) = a on the class {1, 3}: local labels 0=1, 1=3
    g = sub.operations[0]
    assert g(0, 0, 1) == 1 and g(1, 1, 0) == 0
    assert catalog.term_equivalent(sub, catalog.get("Z2aff").algebra) is True


def test_class_algebra_t41_is_t1n(alg):
    sub = class_algebra(alg("T4,1"), Partition.parse("{0,1,2}{3}", 4), (0, 1, 2))
    perm, conclusive = catalog.equivalent_up_to_iso(sub, catalog.get("T1N").algebra)
    assert conclusive and perm is not None


def test_class_algebra_requires_block(alg):
    with pytest.raises(AlgebraError):
        class_algebra(alg("T4,10"), Partition.parse("{0,2}{1,3}", 4), (0, 1))


def test_principal_congruence_rejects_out_of_range(alg):
    for a, b in ((0, 4), (-1, 2)):
        with pytest.raises(AlgebraError):
            principal_congruence(alg("T4,10"), a, b)


def test_all_congruences_memo_returns_the_stored_tuple(alg):
    a = alg("T4,10")
    first = all_congruences(a)
    assert type(first) is tuple and all_congruences(a) is first
    assert first == all_congruences.__wrapped__(a)


# ---------------------------------------------------------------------------
# the lattice against a union-find reference: the principal congruence as a
# worklist over translation cells merged one cell at a time, and the lattice
# as the join closure of the principal congruences through `Partition.join`


def reference_principal(alg, a, b):
    n = alg.domain
    uf = UnionFind(n)
    work = [(a, b)] if uf.union(a, b) else []
    while work:
        u, v = work.pop()
        for op in alg.operations:
            for i in range(op.arity):
                for pu, pv in zip(translation_cells(n, op.arity, i, u)(op.values),
                                  translation_cells(n, op.arity, i, v)(op.values)):
                    if uf.union(pu, pv):
                        work.append((pu, pv))
    return Partition(n, uf.blocks())


def reference_lattice(alg):
    n = alg.domain
    principals = {reference_principal(alg, a, b) for a in range(n) for b in range(a + 1, n)}
    found = {Partition.identity(n)} | principals
    frontier = set(found)
    while frontier:
        new = {p.join(q) for p in frontier for q in principals} - found
        found |= new
        frontier = new
    return tuple(sorted(found, key=lambda p: (n - len(p.blocks), str(p))))


def assert_lattice_matches_the_reference(alg):
    n = alg.domain
    for a in range(n):
        for b in range(n):
            assert principal_congruence(alg, a, b) == reference_principal(alg, a, b), (a, b)
    assert all_congruences.__wrapped__(alg) == reference_lattice(alg)


@st.composite
def small_algebras(draw):
    """1-6 elements, 1-2 operations of arity 1-3, each table random or
    idempotent (a value drawn for every cell off the diagonal)."""
    n = draw(st.integers(1, 6))
    ops = []
    for i in range(draw(st.integers(1, 2))):
        arity = draw(st.integers(1, 3))
        idempotent = draw(st.booleans())
        vals = tuple(args[0] if idempotent and len(set(args)) == 1 else draw(st.integers(0, n - 1))
                     for args in itertools.product(range(n), repeat=arity))
        ops.append(OperationTable(f"f{i}", arity, n, vals))
    return Algebra(n, tuple(ops))


@given(small_algebras())
@settings(max_examples=150, deadline=None)
def test_the_lattice_matches_the_union_find_reference(a):
    assert_lattice_matches_the_reference(a)


def test_every_entry_subalgebra_and_quotient_matches_the_reference(entries):
    seen = set()
    for entry in entries.values():
        a = entry.algebra
        related = [a] + [a.restrict(s) for s in structure.all_subuniverses(a)]
        related += [quotient_algebra(a, p)[0] for p in all_congruences(a)]
        for b in related:
            key = (b.domain, tuple(op.values for op in b.operations))
            if key not in seen:
                seen.add(key)
                assert_lattice_matches_the_reference(b)
    assert len(seen) == 60  # distinct tables among the 47 entries and their relatives


def test_translation_pairs_hold_each_pair_s_images(alg):
    # T4,10: the pair table lists, for u < v, the pairs (p, q), p < q, that a
    # basic translation sends {u, v} to; any other index holds ()
    a = alg("T4,10")
    n, op = a.domain, a.operations[0]
    pairs = translation_pairs(a)
    assert len(pairs) == n * n
    for u, v in itertools.product(range(n), repeat=2):
        want = set()
        if u < v:
            for i in range(op.arity):
                want |= {tuple(sorted(pq)) for pq in zip(
                    translation_cells(n, op.arity, i, u)(op.values),
                    translation_cells(n, op.arity, i, v)(op.values)) if pq[0] != pq[1]}
        assert pairs[u * n + v] == tuple(sorted(want)), (u, v)
