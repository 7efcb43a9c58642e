import itertools

import pytest

from finalg.core import Algebra, AlgebraError, OperationTable, projection
from finalg.subpower import eval_term, free_algebra
from finalg.structure import (
    NotIdempotentError,
    absorbs,
    affine_xyz_tables,
    all_subuniverses,
    clone_excluded,
    dominant_coordinate,
    has_malcev_term,
    is_affine_malcev_equiv,
    is_taylor,
    naive_absorbs,
    naive_semilattice_edge,
    semilattice_edge,
    ternary_absorbing_subuniverses,
    two_generated,
    weak_edges,
)


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


def test_weak_edges_requires_distinct(alg):
    with pytest.raises(AlgebraError):
        weak_edges(alg("S"), 0, 0)


def test_all_subuniverses_conservative(alg):
    subs = all_subuniverses(alg("T1S"))
    assert len(subs) == 7  # every nonempty subset


def test_all_subuniverses_t4n(alg):
    subs = all_subuniverses(alg("T4N"))
    assert subs == [(0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2)]


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


def test_is_taylor_rejects_non_idempotent():
    neg = OperationTable("f", 1, 2, (1, 0))
    with pytest.raises(NotIdempotentError):
        is_taylor(Algebra(2, [neg]))


def test_has_malcev(alg):
    assert has_malcev_term(alg("T5N"))[0] is True
    assert has_malcev_term(alg("T4N"))[0] is False
    member, witness = has_malcev_term(alg("Z4aff"))
    assert member is True


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


def test_is_affine_malcev_equiv(alg):
    res, conclusive = is_affine_malcev_equiv(alg("T5N"))
    assert conclusive and res is not None and res[0] == "Z3"
    res, conclusive = is_affine_malcev_equiv(alg("T4,12"))
    assert conclusive and res is not None and res[0] == "Z4"
    res, conclusive = is_affine_malcev_equiv(alg("T1N"))
    assert conclusive and res is None


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
    from finalg.subpower import sg_closure

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
    from finalg.subpower import clone_membership

    assert clone_membership(a, xyz)[0] is False


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


def test_all_subuniverses_memo_returns_fresh_lists(alg):
    from finalg.structure import _subuniverse_list

    a = alg("T4N")
    first = all_subuniverses(a)
    first.append("junk")
    assert all_subuniverses(a) == list(_subuniverse_list(a))
    renamed = Algebra(a.domain, [
        OperationTable("r" + op.name, op.arity, op.domain, op.values)
        for op in a.operations
    ])
    assert all_subuniverses(renamed) == all_subuniverses(a)
