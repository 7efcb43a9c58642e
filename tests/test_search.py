import itertools
import random

import pytest

from finalg.core import AlgebraError, OperationTable, PartialTable
from finalg.congruence import Partition
from finalg.search import (
    AgreesOnTuples,
    Commutative,
    CommutesWithPermutation,
    Cyclic,
    Idempotent,
    InvariantPartition,
    NoCompletionError,
    NonUniqueCompletionError,
    PartialValues,
    PreservesRelation,
    RestrictionEquals,
    SearchSpec,
    Symmetric,
    count_ops,
    parse_constraint_file,
    satisfies,
    search_ops,
    unique_completion,
)
from finalg import catalog


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
        isinstance(c, (Symmetric, Commutative)) for c in spec.constraints
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
    partial = PartialTable.from_entries("g", 3, 3, entries)
    res = search_ops(SearchSpec(3, 3, (Idempotent(), Symmetric(), PartialValues(partial))))
    assert [t.values for t in res.tables] == [t1n.values]
    # cyclicity alone leaves the reversed orbit free
    res2 = search_ops(SearchSpec(3, 3, (Idempotent(), Cyclic(), PartialValues(partial))))
    assert len(res2.tables) == 3


def test_count_idempotent_commutative_two_elements():
    n, truncated = count_ops(SearchSpec(2, 2, (Idempotent(), Commutative())))
    assert (n, truncated) == (2, False)


def test_claim_style_unique_t41(alg):
    t1n = alg("T1N").op("g")
    spec = SearchSpec(4, 3, (
        Idempotent(), Cyclic(),
        InvariantPartition(Partition.parse("{0,1}{2}{3}", 4)),
        InvariantPartition(Partition.parse("{0,2}{1,3}", 4)),
        RestrictionEquals((0, 1, 2), t1n),
        AgreesOnTuples((((2, 2, 3), 0), ((2, 3, 3), 1),
                        ((0, 0, 3), 0), ((1, 1, 3), 1), ((0, 3, 3), 1), ((1, 3, 3), 1),
                        ((0, 1, 3), 1), ((0, 3, 1), 1))),
    ))
    res = search_ops(spec)
    assert [t.values for t in res.tables] == [alg("T4,1").op("g").values]


def test_cap_truncation():
    res = search_ops(SearchSpec(2, 2, (Idempotent(),), cap=1))
    assert len(res.tables) == 1 and res.truncated


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


def _random_spec(rnd, n, k, force_cyclic):
    cons = []
    if force_cyclic or rnd.random() < 0.5:
        cons.append(Cyclic())
    if force_cyclic or rnd.random() < 0.7:
        cons.append(Idempotent())
    if k == 2 and rnd.random() < 0.3:
        cons.append(Commutative())
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


def test_determinism():
    spec = SearchSpec(3, 2, (Idempotent(),))
    a = [t.values for t in search_ops(spec).tables]
    b = [t.values for t in search_ops(spec).tables]
    assert a == b
    assert a == sorted(a)  # lexicographic order of value sequences


def test_unique_completion_total_table(alg):
    t47 = alg("T4,7").op("t")
    partial = PartialTable("t", 2, 4, t47.values)
    assert unique_completion(partial, [Idempotent(), Commutative()]).values == t47.values


def test_unique_completion_t45_spot_value(alg):
    assert catalog.build_algebra("T4,5").op("g")(0, 1, 2) == 0


def test_unique_completion_errors():
    partial = PartialTable.from_entries("f", 2, 2, {})
    with pytest.raises(NonUniqueCompletionError):
        unique_completion(partial, [Idempotent()])
    conflicted = PartialTable.from_entries("f", 2, 2, {(0, 0): 1})
    with pytest.raises(NoCompletionError):
        unique_completion(conflicted, [Idempotent()])


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
    assert any(isinstance(c, RestrictionEquals) for c in spec.constraints)
    assert any(isinstance(c, PreservesRelation) for c in spec.constraints)


def test_constraint_file_rejects_unknown():
    with pytest.raises(AlgebraError):
        parse_constraint_file("domain 2\narity 2\nfrobnicate\n")
    with pytest.raises(AlgebraError):
        parse_constraint_file("arity 2\nidempotent\n")
