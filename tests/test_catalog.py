import itertools

import pytest

from finalg.core import is_malcev, parse_algebra, product
from finalg.congruence import Partition, all_congruences
from finalg import catalog


def test_names_fixed_order_and_count():
    names = catalog.names()
    assert len(names) == 47
    assert names[:3] == ["S", "M", "Z2aff"]
    assert names[3:8] == ["T1N", "T2N", "T3N", "T4N", "T5N"]
    assert names[8:12] == ["T1S", "T2S", "T1P", "T2P"]
    assert names[12:27] == [f"T{i}C" for i in range(1, 16)]
    assert names[27:45] == [f"T4,{i}" for i in range(1, 19)]
    assert names[45:] == ["Z4aff", "Z2xZ2aff"]


def test_get_unknown_name():
    with pytest.raises(catalog.UnknownNameError):
        catalog.get("nope")


def test_z3aff_alias(alg):
    entry = catalog.get("Z3aff")
    assert entry.name == "T5N"
    want = tuple((x - y + z) % 3 for x, y, z in itertools.product(range(3), repeat=3))
    assert entry.op().values == want


def test_every_entry_idempotent_and_factual(entries):
    for entry in entries.values():
        assert entry.algebra.is_idempotent()
        assert catalog.check_facts(entry) == []


def test_golden_files_round_trip(entries):
    for name, entry in entries.items():
        text = catalog.export_entry(name)
        back = parse_algebra(text)
        assert [o.values for o in back.operations] == [
            o.values for o in entry.algebra.operations
        ]


def test_build_algebra_spot_values(alg):
    assert catalog.build_algebra("T4,1").op("g")(0, 0, 3) == 0
    assert catalog.build_algebra("T4,7").op("t")(0, 1) == 2
    assert catalog.build_algebra("T4,5").op("g")(0, 1, 2) == 0


def test_t412_is_negated_sum(alg):
    want = tuple((-(x + y + z)) % 4 for x, y, z in itertools.product(range(4), repeat=3))
    assert alg("T4,12").op("g").values == want


def test_letter_maps():
    assert catalog.get("T4,14").letter_map == {"a": 0, "b": 1, "c": 2, "d": 3}
    assert catalog.get("T4,13").letter_map is not None
    assert catalog.get("T4,10").letter_map is None


def test_t413_example_consistency(alg):
    p = catalog.t413_malcev_table()
    assert is_malcev(p)
    for perm in (catalog.T413_SIGMA, catalog.T413_TAU):
        for args in p.all_args():
            mapped = tuple(perm[x] for x in args)
            assert p.eval(mapped) == perm[p.eval(args)]
    # the group tables are abelian groups
    for tbl in (catalog.T413_PLUS_A, catalog.T413_PLUS_B):
        assert all(tbl[i][j] == tbl[j][i] for i in range(4) for j in range(4))
        assert all(
            tbl[tbl[i][j]][k] == tbl[i][tbl[j][k]]
            for i in range(4) for j in range(4) for k in range(4)
        )
    # composing the cyclic operation out of p reproduces the catalog derivation
    g = alg("T4,13").op("g")

    def gp(x, y, z):
        return g(g(x, y, y), g(y, z, z), g(z, x, x))

    def gstar(x, y, z):
        return p(p(x, y, z), p(y, z, x), p(z, x, y))

    assert all(gp(*a) == gstar(*a) for a in itertools.product(range(4), repeat=3))


def test_term_equivalent_reflexive(alg):
    assert catalog.term_equivalent(alg("T4,10"), alg("T4,10")) is True


def test_term_equivalent_t412_z4aff(alg):
    assert catalog.term_equivalent(alg("T4,12"), alg("Z4aff")) is True


def test_term_equivalent_s_m_false(alg):
    assert catalog.term_equivalent(alg("S"), alg("M")) is False


def test_equivalent_up_to_iso_relabeling(alg):
    a = alg("T4,10")
    perm = (2, 0, 3, 1)
    b = catalog.transport(a, perm)
    got, conclusive = catalog.equivalent_up_to_iso(a, b)
    assert conclusive and got is not None
    # the found bijection really transports b onto a's clone
    assert catalog.term_equivalent(a, catalog.transport(b, got)) is True


def test_equivalent_up_to_iso_t49_product(alg):
    prod = product([alg("M"), alg("Z2aff")])
    perm, conclusive = catalog.equivalent_up_to_iso(alg("T4,9"), prod)
    assert conclusive and perm is not None


def test_equivalent_up_to_iso_t1n_t2n_absent(alg):
    perm, conclusive = catalog.equivalent_up_to_iso(alg("T1N"), alg("T2N"))
    assert conclusive and perm is None


def test_verify_subdirect_t41(alg):
    r = catalog.verify_subdirect(
        alg("T4,1"),
        Partition.parse("{0,1,2}{3}", 4),
        Partition.parse("{0}{1,3}{2}", 4),
        "S", "T1N",
    )
    assert r is True


def test_verify_subdirect_t47_spec_example(alg):
    r = catalog.verify_subdirect(
        alg("T4,7"),
        Partition.parse("{0,3}{1}{2}", 4),
        Partition.parse("{0,1,2}{3}", 4),
        "Z3aff", "S",
    )
    assert r is True


def test_verify_subdirect_meet_failure(alg):
    r = catalog.verify_subdirect(
        alg("T4,1"),
        Partition.parse("{0,1,2}{3}", 4),
        Partition.parse("{0,1}{2}{3}", 4),
        "S", "T4N",
    )
    assert r is False  # congruences but the meet is not the identity


def test_t411_subdirect_decomposition(alg):
    # found computationally: both three-class congruences are proper, meet to
    # the identity, and both quotients are copies of T3N
    r = catalog.verify_subdirect(
        alg("T4,11"),
        Partition.parse("{0,2}{1}{3}", 4),
        Partition.parse("{0}{1,3}{2}", 4),
        "T3N", "T3N",
    )
    assert r is True


def test_t2p_shape(alg):
    op = alg("T2P").op("g")
    from finalg.core import is_conservative, restrict, is_minority

    assert is_conservative(op)
    for pair in ((0, 1), (1, 2), (0, 2)):
        assert is_minority(restrict(op, pair))
    for args in itertools.permutations(range(3)):
        assert op.eval(args) == args[0]


def test_pair_table_kinds():
    t = catalog.pair_table("min2", (0, 2), arity=2)
    assert t(0, 1) == 1 and t(0, 0) == 0  # bottom is original label 2 -> local 1
    t = catalog.pair_table("maj", (0, 1))
    assert t(0, 1, 1) == 1
    t = catalog.pair_table("aff", (1, 3))
    assert t(0, 1, 1) == 0 and t(0, 0, 1) == 1


def test_subdirect_irreducibility_of_the_rest(alg):
    # apart from the five with explicit presentations, T4,9 (a direct
    # product) and T4,11 (see above), no two nontrivial congruences of a
    # four-element entry meet to the identity
    reducible = {"T4,1", "T4,2", "T4,3", "T4,4", "T4,7", "T4,9", "T4,11"}
    for i in range(1, 19):
        name = f"T4,{i}"
        a = alg(name)
        congs = [
            c for c in all_congruences(a)
            if not c.is_identity() and not c.is_full()
        ]
        decomposes = any(
            c1.meet(c2).is_identity()
            for c1, c2 in itertools.combinations(congs, 2)
        )
        assert decomposes == (name in reducible), name
