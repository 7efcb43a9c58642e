import dataclasses
import itertools
import pickle

import pytest

from finalg.core import (
    Algebra,
    AlgebraError,
    NotClosedError,
    OperationTable,
    ParseError,
    TABLE_PROPERTIES,
    compose,
    is_commutative,
    is_conservative,
    is_cyclic,
    is_majority,
    is_malcev,
    is_minority,
    is_symmetric,
    parse_algebra,
    product,
    projection,
    restrict,
    serialize_algebra,
)
from finalg import catalog
from finalg.subpower import clone_membership


def test_operation_table_is_a_frozen_value():
    t = OperationTable("f", 2, 2, (0, 1, 1, 0))
    by_keyword = OperationTable(values=(0, 1, 1, 0), domain=2, arity=2, name="f")
    assert t == by_keyword and hash(t) == hash(by_keyword)
    assert t != OperationTable("g", 2, 2, (0, 1, 1, 0))
    assert repr(t) == "OperationTable(name='f', arity=2, domain=2, values=(0, 1, 1, 0))"
    assert [f.name for f in dataclasses.fields(t)] == ["name", "arity", "domain", "values"]
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and hash(copy) == hash(t)
    renamed = dataclasses.replace(t, name="g")
    assert (renamed.name, renamed.values) == ("g", t.values) and t.name == "f"
    with pytest.raises(AlgebraError, match="value 2 out of range"):
        dataclasses.replace(t, values=(0, 1, 1, 2))  # replace checks as construction does
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.values = (0, 0, 0, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del t.name


@pytest.mark.parametrize("args, message", [
    (("f", 0, 2, ()), "arity must be >= 1, got 0"),
    (("f", 2, 0, ()), "domain must be >= 1, got 0"),
    (("f", 2, 2, (0, 1, 1)), "operation f: expected 4 values, got 3"),
    (("f", 1, 2, (0, 2)), "operation f: value 2 out of range"),
    (("f", 1, 2, (-1, 0)), "operation f: value -1 out of range"),
    (("f", 1, 300, tuple(range(299)) + (300,)), "operation f: value 300 out of range"),
])
def test_operation_table_checks_its_arguments(args, message):
    with pytest.raises(AlgebraError) as exc:
        OperationTable(*args)
    assert str(exc.value) == message


def test_operation_table_accepts_values_above_a_byte():
    assert OperationTable("f", 1, 300, tuple(range(300))).values[-1] == 299


def test_eval_t4n_meet(alg):
    t = alg("T4N").op("t")
    assert t(1, 2) == 0
    assert t(0, 1) == 0 and t(2, 0) == 0


def test_eval_idempotent_diagonal(entries):
    for entry in entries.values():
        for op in entry.algebra.operations:
            for x in range(op.domain):
                assert op.eval((x,) * op.arity) == x


def test_eval_t1s_rock_paper_scissors(alg):
    t = alg("T1S").op("t")
    assert t(2, 0) == 2  # 2 beats 0 in the cyclic order


def test_eval_errors(alg):
    t = alg("T4N").op("t")
    with pytest.raises(AlgebraError):
        t.eval((0, 1, 2))
    with pytest.raises(AlgebraError):
        t.eval((0, 5))


def test_compose_projections_identity(alg):
    g = alg("T1N").op("g")
    ps = [projection(3, i, 3) for i in range(3)]
    assert compose(g, ps).values == g.values


def test_compose_t3n_example(alg):
    g = alg("T3N").op("g")
    p1, p2 = projection(2, 0, 3), projection(2, 1, 3)
    t = compose(g, [p1, p2, p2])
    assert t(1, 2) == 0  # g(1, 2, 2)


def test_compose_t1n_example(alg):
    g = alg("T1N").op("g")
    p1, p2 = projection(2, 0, 3), projection(2, 1, 3)
    t = compose(g, [p1, p1, p2])
    assert t(1, 2) == 1  # g(1, 1, 2)


def test_compose_arity_mismatch(alg):
    g = alg("T1N").op("g")
    with pytest.raises(AlgebraError):
        compose(g, [projection(2, 0, 3)])


def test_restrict_t3n_pairs(alg):
    g = alg("T3N").op("g")
    maj = restrict(g, (0, 1))
    assert is_majority(maj)
    aff = restrict(g, (0, 2))
    assert is_minority(aff)


def test_restrict_singleton_constant(alg):
    g = alg("T2N").op("g")
    r = restrict(g, (1,))
    assert r.values == (0,)


def test_restrict_t2n_min(alg):
    g = alg("T2N").op("g")
    r = restrict(g, (0, 2))
    # min over the order 0 <= 2: bottom is local 0
    assert all(
        r.eval(args) == (1 if args == (1, 1, 1) else 0)
        for args in itertools.product(range(2), repeat=3)
    )


def test_restrict_not_closed(alg):
    t = alg("T4N").op("t")
    with pytest.raises(NotClosedError) as exc:
        restrict(t, (1, 2))
    assert exc.value.value == 0
    assert set(exc.value.witness) == {1, 2}


def test_predicates():
    maj = OperationTable("m", 3, 2, (0, 0, 0, 1, 0, 1, 1, 1))
    assert is_majority(maj) and is_cyclic(maj) and is_symmetric(maj)
    mino = OperationTable("p", 3, 2, tuple(x ^ y ^ z for x, y, z in itertools.product(range(2), repeat=3)))
    assert is_minority(mino) and is_malcev(mino)
    assert not is_majority(mino)


def test_predicates_on_catalog(alg):
    assert is_conservative(alg("T1S").op("t"))
    assert is_cyclic(alg("T5C").op("g"))
    assert is_commutative(alg("T4,7").op("t"))
    with pytest.raises(AlgebraError):
        is_majority(alg("T4,7").op("t"))


def test_commutative_is_binary_and_symmetric():
    # False, not an error, at any other arity, symmetric or not
    for k in (1, 3, 4):
        const = OperationTable("c", k, 2, (0,) * 2**k)
        assert is_symmetric(const) and not is_commutative(const)
    assert is_commutative(OperationTable("m", 2, 2, (0, 0, 0, 1)))
    assert not is_commutative(OperationTable("p", 2, 2, (0, 0, 1, 1)))


def test_table_properties_in_info_order(alg):
    # one table serves `alg info` (in this order) and the catalog's facts
    assert list(TABLE_PROPERTIES) == [
        "idempotent", "cyclic", "symmetric", "conservative", "commutative"]
    t = alg("T4,7").op("t")
    assert [name for name, holds in TABLE_PROPERTIES.items() if holds(t)] == [
        "idempotent", "cyclic", "symmetric", "commutative"]


def test_product_unary(alg):
    s = alg("S")
    assert product([s]).operations[0].values == s.operations[0].values


def test_product_m_z2aff(alg):
    prod = product([alg("M"), alg("Z2aff")])
    assert prod.domain == 4
    g = prod.operations[0]
    # coordinatewise: majority on the first (high) coordinate, minority second
    for args in itertools.product(range(4), repeat=3):
        hi = [a // 2 for a in args]
        lo = [a % 2 for a in args]
        want_hi = 1 if sum(hi) >= 2 else 0
        want_lo = lo[0] ^ lo[1] ^ lo[2]
        assert g.eval(args) == want_hi * 2 + want_lo


def test_product_z2aff_squared_is_klein_affine(alg):
    prod = product([alg("Z2aff"), alg("Z2aff")])
    klein = alg("Z2xZ2aff")
    m1, _ = clone_membership(prod, klein.operations[0])
    m2, _ = clone_membership(klein, prod.operations[0])
    assert m1 is True and m2 is True


def test_product_signature_mismatch(alg):
    with pytest.raises(AlgebraError):
        product([alg("S"), alg("M")])


def test_serialize_parse_round_trip(entries):
    for entry in entries.values():
        text = serialize_algebra(entry.algebra)
        back = parse_algebra(text)
        assert back.domain == entry.algebra.domain
        assert [o.values for o in back.operations] == [
            o.values for o in entry.algebra.operations
        ]
        # canonical: serialization of the parse is identical
        assert serialize_algebra(back) == text


def test_shipped_t47_file_values():
    text = serialize_algebra(catalog.get("T4,7").algebra)
    back = parse_algebra(text)
    assert back.op("t")(0, 1) == 2


def test_parse_length_mismatch():
    vals = " ".join(["0"] * 63)
    with pytest.raises(ParseError):
        parse_algebra(f"domain 4\nop g 3\n{vals}\n")


def test_parse_value_out_of_range():
    with pytest.raises(ParseError) as exc:
        parse_algebra("domain 2\nop t 2\n0 1\n2 1\n")
    assert exc.value.line == 4


def test_parse_duplicate_operation_name_names_its_line():
    with pytest.raises(ParseError, match=r"^duplicate operation name 'f' \(line 4\)$") as exc:
        parse_algebra("domain 2\nop f 1\n0 1\nop f 1\n1 0\n")
    assert exc.value.line == 4


def test_parse_comments_and_whitespace():
    text = "# header\ndomain 2  # two elements\nop t 2\n 0 0\n\t0 1\n"
    a = parse_algebra(text)
    assert a.op("t").values == (0, 0, 0, 1)


def test_restrict_functorial(alg):
    # restrict(compose(f, gs), S) == compose(restrict(f), [restrict(g)...])
    g = alg("T3N").op("g")
    p1, p2 = projection(2, 0, 3), projection(2, 1, 3)
    inner = [compose(g, [p1, p2, p2]), compose(g, [p2, p1, p1]), p1]
    composed = compose(g, inner)
    for subset in ((0, 1), (0, 2)):
        lhs = restrict(composed, subset)
        rhs = compose(restrict(g, subset), [restrict(t, subset) for t in inner])
        assert lhs.values == rhs.values


def test_product_projections_recover_factors(alg):
    m, z = alg("M"), alg("Z2aff")
    prod = product([m, z])
    g = prod.operations[0]
    hi = restrict_to_coordinate(g, 0, (2, 2))
    lo = restrict_to_coordinate(g, 1, (2, 2))
    assert hi == m.operations[0].values
    assert lo == z.operations[0].values


def restrict_to_coordinate(op, coord, sizes):
    """Recover a factor table from a product table via coordinate maps."""
    n0, n1 = sizes

    def dec(e):
        return (e // n1, e % n1)

    vals = []
    for args in itertools.product(range(sizes[coord]), repeat=op.arity):
        lift = []
        for a in args:
            lift.append(a * n1 if coord == 0 else a)
        v = op.values[op.index(tuple(lift))]
        vals.append(dec(v)[coord])
    return tuple(vals)


def test_merged_label_blocks_are_canonical():
    from finalg.core import label_blocks, merge

    label = list(range(6))
    assert merge(label, 4, 1) and merge(label, 5, 3) and merge(label, 3, 1)
    assert not merge(label, 5, 4)
    # each element keeps the least element of its block as its label
    assert label == [0, 1, 2, 1, 1, 1]
    assert label_blocks(label) == ((0,), (1, 3, 4, 5), (2,))
    assert label_blocks(label, {5, 2, 0}) == ((0,), (2,), (5,))
