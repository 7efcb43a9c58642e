import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from finalg.core import (
    Algebra,
    AlgebraError,
    OperationTable,
    UnionFind,
    argument_cells,
    image_cells,
    is_cyclic,
    is_malcev,
    is_symmetric,
    parse_algebra,
    relabeling,
    serialize_algebra,
)
from finalg.congruence import (Partition, all_congruences, class_algebra, format_blocks,
                               is_congruence, parse_blocks, principal_congruence,
                               quotient_algebra)
from finalg import subpower
from finalg.subpower import eval_term, eval_term_table, generate, has_cyclic_term, sg_closure
from finalg.structure import (absorbs, absorption_patterns, all_subuniverses, clone_excluded,
                              compose_malcev_term, decide_clone_membership, has_malcev_term,
                              malcev_obstruction, naive_absorbs, walk_subuniverses, weak_edges)
from finalg import catalog
from finalg.certify import parse_certificate
from finalg.search import (AgreesOnTuples, CommutesWithPermutation, Cyclic, Idempotent,
                           InvariantPartition, PreservesRelation, Symmetric,
                           parse_constraint_file, restriction, satisfies)
from conftest import reference_relabel
from test_subpower import _replay_malcev_obstruction, kernel_and_reference, reference_closure


# ---------------------------------------------------------------------------
# partition lattice laws

partitions = st.integers(2, 5).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
        lambda rep: Partition.from_representatives(n, rep)
    )
)


@given(partitions, partitions)
@settings(max_examples=60)
def test_join_meet_canonical(p, q):
    if p.size != q.size:
        return
    j, m = p.join(q), p.meet(q)
    assert p.refines(j) and q.refines(j)
    assert m.refines(p) and m.refines(q)
    # canonical form survives the round trip through text
    assert Partition.parse(str(j), j.size) == j
    assert Partition.parse(str(m), m.size) == m


@given(partitions)
@settings(max_examples=30)
def test_join_meet_units(p):
    size = p.size
    assert p.join(Partition.identity(size)) == p
    assert p.meet(Partition.full(size)) == p


# ---------------------------------------------------------------------------
# serialization round trip over random algebras

@st.composite
def algebras(draw, sizes=st.integers(1, 4)):
    n = draw(sizes)
    ops = []
    for i in range(draw(st.integers(1, 2))):
        arity = draw(st.integers(1, 3))
        vals = tuple(
            draw(st.integers(0, n - 1)) for _ in range(n**arity)
        )
        ops.append(OperationTable(f"f{i}", arity, n, vals))
    return Algebra(n, tuple(ops))


@given(algebras())
@settings(max_examples=40)
def test_serialize_parse_round_trip(a):
    text = serialize_algebra(a)
    b = parse_algebra(text)
    assert b.domain == a.domain
    assert [o.values for o in b.operations] == [o.values for o in a.operations]
    assert serialize_algebra(b) == text


# ---------------------------------------------------------------------------
# principal congruences against the per-cell loop they replaced

def reference_principal_congruence(alg, a, b):
    """Cg(a, b) by the per-cell worklist: two argument tuples and two
    `index` calls per cell of each translation."""
    n = alg.domain
    uf = UnionFind(n)
    work = [(a, b)] if uf.union(a, b) else []
    while work:
        u, v = work.pop()
        for op in alg.operations:
            r = op.arity
            for i in range(r):
                for rest in itertools.product(range(n), repeat=r - 1):
                    pu = op.values[op.index(rest[:i] + (u,) + rest[i:])]
                    pv = op.values[op.index(rest[:i] + (v,) + rest[i:])]
                    if uf.union(pu, pv):
                        work.append((pu, pv))
    return Partition(n, uf.blocks())


def _random_partition(draw, n):
    rep = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return Partition.from_representatives(n, rep)


def _keeping(a, blocks):
    """a with each value moved into a block that depends only on the blocks
    of the arguments: an algebra with the congruence `blocks`."""
    idx = {x: i for i, b in enumerate(blocks) for x in b}
    ops = []
    for op in a.operations:
        target = {}
        vals = []
        for args, v in zip(op.all_args(), op.values):
            key = tuple(idx[x] for x in args)
            block = blocks[target.setdefault(key, idx[v])]
            vals.append(block[v % len(block)])
        ops.append(OperationTable(op.name, op.arity, a.domain, tuple(vals)))
    return Algebra(a.domain, tuple(ops))


@st.composite
def algebras_with_congruences(draw):
    """Algebras of 2-5 elements, 1-2 operations of arity 1-3.  Half of them
    keep a random partition (each value's block depends only on the blocks
    of the arguments), so their principal congruences are often proper."""
    a = draw(algebras(st.integers(2, 5)))
    if not draw(st.booleans()):
        return a
    return _keeping(a, _random_partition(draw, a.domain).blocks)


@given(algebras_with_congruences())
@example(catalog.get("T4,14").algebra)
@example(catalog.get("T4,1").algebra)
@settings(max_examples=80, deadline=None)
def test_principal_congruence_matches_the_per_cell_reference(a):
    for x in range(a.domain):
        for y in range(a.domain):
            assert principal_congruence(a, x, y) == reference_principal_congruence(a, x, y), (x, y)


# ---------------------------------------------------------------------------
# the one compatibility test against the definition of a congruence

def reference_is_congruence(alg, p):
    """Every pair of blockwise-equal argument tuples is sent into one block,
    read through `eval` alone, no cell map."""
    idx = p.block_index()
    return all(idx[op.eval(x)] == idx[op.eval(y)]
               for op in alg.operations for x in op.all_args() for y in op.all_args()
               if all(idx[u] == idx[v] for u, v in zip(x, y)))


@st.composite
def algebras_and_partitions(draw):
    """An algebra of 1-4 elements with 1-2 operations of arity 1-3 and a
    random partition.  A third of the algebras keep the partition, and a
    third keep it but for one value, so that a violation may sit at any
    one cell."""
    a = draw(algebras())
    p = _random_partition(draw, a.domain)
    shape = draw(st.sampled_from(["random", "kept", "one value off"]))
    if shape == "random":
        return a, p
    a = _keeping(a, p.blocks)
    if shape == "one value off":
        op = draw(st.sampled_from(a.operations))
        vals = list(op.values)
        vals[draw(st.integers(0, len(vals) - 1))] = draw(st.integers(0, a.domain - 1))
        a = Algebra(a.domain, [OperationTable(o.name, o.arity, a.domain, tuple(vals))
                               if o is op else o for o in a.operations])
    return a, p


@given(algebras_and_partitions())
@example((catalog.get("T4,10").algebra, Partition.parse("{0,1}{2,3}", 4)))
@example((catalog.get("T4,10").algebra, Partition.parse("{0,2}{1,3}", 4)))
@settings(max_examples=400, deadline=None)
def test_is_congruence_matches_the_definition(case):
    a, p = case
    ok, violation = is_congruence(a, p)
    assert ok == reference_is_congruence(a, p)
    if not ok:  # blockwise-equal arguments sent to different blocks
        name, args1, args2, v1, v2 = violation
        idx = p.block_index()
        assert [idx[x] for x in args1] == [idx[x] for x in args2]
        assert (a.op(name).eval(args1), a.op(name).eval(args2)) == (v1, v2)
        assert idx[v1] != idx[v2]
    for op in a.operations:  # the search's partition check reads the same rule
        assert satisfies(op, InvariantPartition(p)) == is_congruence(
            Algebra(a.domain, [op]), p)[0]


@given(st.lists(st.lists(st.integers(-3, 20), min_size=1, max_size=4).map(tuple),
                min_size=1, max_size=5).map(tuple))
@settings(max_examples=100)
def test_block_text_round_trip(blocks):
    elements = [x for b in blocks for x in b]
    if len(set(elements)) == len(elements):
        assert parse_blocks(format_blocks(blocks)) == blocks
    else:  # an element repeated within a block or across blocks
        with pytest.raises(AlgebraError, match="repeated in"):
            parse_blocks(format_blocks(blocks))


# ---------------------------------------------------------------------------
# is_cyclic / is_symmetric against their per-cell definitions

def reference_is_cyclic(op):
    return all(
        op.values[op.index(args)] == op.values[op.index(args[1:] + args[:1])]
        for args in op.all_args()
    )


def reference_is_symmetric(op):
    return all(
        op.values[op.index(perm)] == op.values[op.index(args)]
        for args in op.all_args()
        for perm in itertools.permutations(args)
    )


@st.composite
def nearly_invariant_tables(draw):
    """Random tables, made cyclic or symmetric by reading each cell's value at
    a representative of its orbit, then optionally changed in one cell."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    base = draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k))
    cells = list(itertools.product(range(n), repeat=k))
    pos = {c: i for i, c in enumerate(cells)}
    shape = draw(st.sampled_from(["random", "cyclic", "symmetric"]))
    if shape == "cyclic":
        vals = [base[pos[min(c[i:] + c[:i] for i in range(k))]] for c in cells]
    elif shape == "symmetric":
        vals = [base[pos[tuple(sorted(c))]] for c in cells]
    else:
        vals = base
    if draw(st.booleans()):
        vals[draw(st.integers(0, n**k - 1))] = draw(st.integers(0, n - 1))
    return OperationTable("f", k, n, tuple(vals))


# 1 exactly on the rotations of (0, 1, 2): cyclic but not symmetric; then
# the same table with one cell of that orbit changed
_ROTATING = tuple(int(c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
                  for c in itertools.product(range(3), repeat=3))


@given(nearly_invariant_tables())
@example(OperationTable("f", 3, 3, _ROTATING))
@example(OperationTable("f", 3, 3, _ROTATING[:5] + (0,) + _ROTATING[6:]))
@settings(max_examples=400, deadline=None)
def test_cyclic_and_symmetric_match_the_per_cell_definition(op):
    assert is_cyclic(op) == reference_is_cyclic(op)
    assert is_symmetric(op) == reference_is_symmetric(op)


# ---------------------------------------------------------------------------
# the two cell maps and the relabeling against their per-cell definitions

@st.composite
def tables_and_cell_maps(draw):
    """A random n-element table (n <= 5) of arity k <= 4, an order of k
    argument positions (repeats allowed), a value map f (an ascending
    subset, any map, or a bijection) and a bijection."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    order = tuple(draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k)))
    rng = draw(st.randoms(use_true_random=False))
    op = OperationTable("f", k, n, tuple(rng.randrange(n) for _ in range(n**k)))
    kind = draw(st.sampled_from(["subset", "map", "bijection"]))
    if kind == "subset":
        f = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    elif kind == "map":
        f = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 1)))
    else:
        f = tuple(draw(st.permutations(range(n))))
    return op, order, f, tuple(draw(st.permutations(range(n))))


@given(tables_and_cell_maps())
@example((OperationTable("f", 3, 2, tuple(range(2)) * 4), (0, 0, 0), (1, 1, 0), (1, 0)))
@settings(max_examples=300, deadline=None)
def test_cell_maps_match_their_per_cell_definitions(case):
    op, order, f, perm = case
    n, k = op.domain, op.arity
    assert image_cells(n, k, f)(op.values) == tuple(
        op.eval([f[x] for x in args]) for args in itertools.product(range(len(f)), repeat=k))
    assert argument_cells(n, order)(op.values) == tuple(
        op.eval([x[i] for i in order])
        for x in itertools.product(range(n), repeat=max(order) + 1))
    assert relabeling(n, k, perm)(op.values) == reference_relabel(op, perm)


# ---------------------------------------------------------------------------
# the closure kernel's orbit rows against the reference that walks every tuple

def _random_table(draw, n, k):
    return draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k))


@st.composite
def orbit_closures(draw):
    """A closure in A^m (m <= 4) of an algebra on 2-4 elements with a
    ternary table that is symmetric, cyclic, invariant under swapping its
    first two arguments, or plain, and sometimes a binary table; a random
    cap, and sometimes a target."""
    n = draw(st.integers(2, 4))
    cells = list(itertools.product(range(n), repeat=3))
    pos = {c: i for i, c in enumerate(cells)}
    base = _random_table(draw, n, 3)
    shape = draw(st.sampled_from(["symmetric", "cyclic", "swap", "plain"]))
    if shape == "symmetric":
        vals = [base[pos[tuple(sorted(c))]] for c in cells]
    elif shape == "cyclic":
        vals = [base[pos[min(c[i:] + c[:i] for i in range(3))]] for c in cells]
    elif shape == "swap":
        vals = [base[pos[tuple(sorted(c[:2])) + c[2:]]] for c in cells]
    else:
        vals = base
    ops = [OperationTable("g", 3, n, tuple(vals))]
    if draw(st.booleans()):
        ops.append(OperationTable("t", 2, n, tuple(_random_table(draw, n, 2))))
    m = draw(st.integers(1, 4))
    element = st.tuples(*[st.integers(0, n - 1)] * m)
    gens = draw(st.lists(element, min_size=1, max_size=3))
    targets = draw(st.one_of(st.none(), element.map(lambda t: [t])))
    return Algebra(n, tuple(ops)), m, gens, draw(st.integers(1, 50)), targets


@given(orbit_closures())
@settings(max_examples=80, deadline=None)
def test_kernel_orbit_rows_match_the_reference_over_every_tuple(closure):
    a, m, gens, cap, targets = closure
    gen_list = subpower._generator_bytes(a, m, gens)
    got, want = (
        run(a, m, gen_list, cap, subpower._stop_test(targets, None), None)
        for run in (subpower._closure,
                    lambda *args: reference_closure(*args, orbits=False))
    )
    assert got.elements == want.elements
    assert got.witnesses == want.witnesses
    assert (got.truncated, got.stop_reason) == (want.truncated, want.stop_reason)


# ---------------------------------------------------------------------------
# the variable-orbit walk of Clo_k against the plain walk

@st.composite
def idempotent_clo_k(draw):
    """An idempotent algebra on 2-3 elements with one or two operations of
    arity 2-3, a k in (2, 3) and a step budget for a cut-short Clo_k.  A
    table is conservative (each value one of its arguments), which keeps
    many clones small enough to finish, or random off the diagonal."""
    n = draw(st.integers(2, 3))
    ops = []
    for name in ("f", "g")[:draw(st.integers(1, 2))]:
        arity = draw(st.integers(2, 3))
        cells = list(itertools.product(range(n), repeat=arity))
        if draw(st.booleans()):
            vals = [c[draw(st.integers(0, arity - 1))] for c in cells]
        else:
            vals = [c[0] if len(set(c)) == 1 else draw(st.integers(0, n - 1)) for c in cells]
        ops.append(OperationTable(name, arity, n, tuple(vals)))
    return Algebra(n, tuple(ops)), draw(st.integers(2, 3)), draw(st.integers(1, 10_000))


# Clo_k cut at 600 elements (the kernel's own ceiling argument) as well as
# 300,000 steps keeps the witness terms cheap to evaluate
CLO_K_CAP, CLO_K_STEPS = 600, 300_000


@given(idempotent_clo_k())
# closures whose walk admits images: a 3-element idempotent algebra's Clo_2
# (48 elements, 7 of them images) and T3N's Clo_3 (91 elements, 32 images
# under all five permutations), each cut by its budget after some
# images joined, and T6C's Clo_3, which meets the ceiling while it admits
# images
@example((Algebra(3, (OperationTable("f", 3, 3, (0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 1, 0, 1, 1, 2,
                                                 1, 1, 2, 0, 1, 2, 1, 2, 1, 0, 2, 2)),)),
          2, 30_000))
@example((catalog.get("T3N").algebra, 3, 20_000))
@example((catalog.get("T6C").algebra, 3, 10_000))
@settings(max_examples=150, deadline=None)
def test_variable_orbit_walk_keeps_the_elements_of_clo_k(case):
    # complete: the same elements as the plain walk; every element has a
    # witness term that evaluates to it; cut short by the budget: a prefix
    # of the closure cut only by the ceiling (each is a prefix of one order,
    # so the shorter is a prefix of the longer), hence a subset of it
    a, k, budget = case
    n = a.domain
    gens = subpower.term_generators(a, k, list(itertools.product(range(n), repeat=k)))

    def closure(max_steps):
        return subpower._closure(a, n**k, gens, CLO_K_CAP,
                                 subpower._stop_test(None, None), max_steps)

    full = closure(CLO_K_STEPS)
    with mock.patch.object(subpower, "_symmetries", lambda *args: (None, None)):
        plain = closure(CLO_K_STEPS)
    if not (full.truncated or plain.truncated):
        assert set(full.elements) == set(plain.elements)
    for e in full.elements:
        assert eval_term_table(full.witness_term(e), a, k).values == tuple(e)
    cut = closure(budget)  # budget < CLO_K_STEPS
    short, long = sorted((cut, full), key=len)
    assert short.elements == long.elements[:len(short)]
    assert short.witnesses == long.witnesses[:len(short)]


# ---------------------------------------------------------------------------
# closures whose cell lists have symmetries: the kernel's variable maps and
# view against the reference, which keeps every coordinate and finds the
# variable maps on its own

def _group(n, gens):
    """The permutations of range(n) that `gens` generate, sorted."""
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return sorted(group)


def _invariant_table(draw, name, n, k, group, idempotent, conservative):
    """A k-ary table on n elements that commutes with every permutation in
    `group`: one value per orbit of cells, drawn at its first cell c among
    the elements fixed by every g that fixes c (among c's own entries if
    `conservative`, which keeps many closures small enough to finish; a
    constant cell (a, ..., a) takes a if `idempotent`); the orbit's other
    cells g.c take g(value)."""
    cells = list(itertools.product(range(n), repeat=k))
    values = {}
    for c in cells:
        if c in values:
            continue
        if idempotent and c.count(c[0]) == k:
            v = c[0]
        elif conservative:
            v = draw(st.sampled_from(sorted(set(c))))
        else:
            stab = [g for g in group if all(g[x] == x for x in c)]
            v = draw(st.sampled_from([x for x in range(n) if all(g[x] == x for g in stab)]))
        for g in group:
            values[tuple(g[x] for x in c)] = g[v]
    return OperationTable(name, k, n, tuple(map(values.__getitem__, cells)))


@st.composite
def automorphic_algebras(draw):
    """(algebra, group): a 2-4 element algebra with a ternary and maybe a
    binary operation, both commuting with the group that one or two drawn
    permutations generate; idempotent or not, conservative or not."""
    n = draw(st.integers(2, 4))
    perms = st.permutations(range(n)).map(tuple)
    group = _group(n, draw(st.lists(perms, min_size=1, max_size=2)))
    laws = draw(st.booleans()), draw(st.booleans())  # idempotent, conservative
    ops = [_invariant_table(draw, "f", n, 3, group, *laws)]
    if draw(st.booleans()):
        ops.append(_invariant_table(draw, "g", n, 2, group, *laws))
    return Algebra(n, tuple(ops)), group


# the element cap of an unbounded closure, which keeps the reference's
# last round small
SYMMETRIC_CAP = 100


@st.composite
def symmetric_cell_closures(draw):
    """(algebra, k, cells, switch): an `automorphic_algebras` algebra, a
    cell list closed under some permutations of the variables (all of A^k,
    the majority cells of a pair, the Mal'cev cells, or the S_3-closure of
    a few drawn cells) and the element count at which the closure reads
    its symmetries (`_ORBIT_MIN`, lowered so that small closures read them
    too)."""
    a, _ = draw(automorphic_algebras())
    n = a.domain
    kind = draw(st.sampled_from(["all", "majority", "malcev", "closed"]))
    k = draw(st.integers(2, 3)) if kind == "all" else 3
    if kind == "all":
        cells = list(itertools.product(range(n), repeat=k))
    elif kind == "majority":
        x, y = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        cells = [(x, x, y), (x, y, x), (y, x, x), (y, y, x), (y, x, y), (x, y, y)]
    elif kind == "malcev":
        cells = sorted({(x, y, y) for x in range(n) for y in range(n) if x != y}
                       | {(y, y, x) for x in range(n) for y in range(n) if x != y})
    else:
        seeds = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=4))
        cells = sorted({tuple(c[i] for i in s) for c in seeds
                        for s in itertools.permutations(range(3))})
    return a, k, cells, draw(st.sampled_from([1, 8, subpower._ORBIT_MIN]))


@given(symmetric_cell_closures())
# T4,10's majority test on (1, 2): four automorphisms keep its six cells,
# and the walk and the view are both on from the first round end at 32
@example((catalog.get("T4,10").algebra, 3,
          [(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 1), (2, 1, 2), (1, 2, 2)], 32))
@settings(max_examples=80, deadline=None)
def test_kernel_matches_the_reference_on_cell_lists_with_symmetries(case):
    # at budgets of 1, 50 and 1,000 steps and unbounded (up to the cap)
    a, k, cells, switch = case
    gens = subpower.term_generators(a, k, cells)
    with mock.patch.object(subpower, "_ORBIT_MIN", switch):
        for budget in (1, 50, 1_000):
            kernel_and_reference(a, len(cells), gens, max_steps=budget)
        kernel_and_reference(a, len(cells), gens, cap=SYMMETRIC_CAP)


@given(automorphic_algebras())
@settings(max_examples=60, deadline=None)
def test_automorphisms_are_the_bijections_transport_keeps(case):
    a, group = case
    tables = [op.values for op in a.operations]
    perms = list(itertools.permutations(range(a.domain)))
    want = tuple(p for p in perms
                 if [op.values for op in catalog.transport(a, p).operations] == tables)
    assert subpower.automorphisms(a) == want
    assert set(group) <= set(want)
    # transport and automorphisms read the same relabeling; this reads every cell
    assert want == tuple(p for p in perms
                         if [reference_relabel(op, p) for op in a.operations] == tables)


# ---------------------------------------------------------------------------
# the local cyclic and Mal'cev obstructions never deny a term of Clo_3

@st.composite
def idempotent_ternary_algebras(draw):
    """An idempotent ternary table on 2-3 elements: plain, cyclic, symmetric,
    or a Mal'cev operation."""
    n = draw(st.integers(2, 3))
    cells = list(itertools.product(range(n), repeat=3))
    pos = {c: i for i, c in enumerate(cells)}
    base = _random_table(draw, n, 3)
    shape = draw(st.sampled_from(["plain", "cyclic", "symmetric", "malcev"]))
    if shape == "symmetric":
        vals = [base[pos[tuple(sorted(c))]] for c in cells]
    elif shape == "cyclic":
        vals = [base[pos[min(c[i:] + c[:i] for i in range(3))]] for c in cells]
    else:
        vals = list(base)
    for (x, y, z), i in pos.items():
        if x == y == z:
            vals[i] = x
        elif shape == "malcev" and y == z:
            vals[i] = x
        elif shape == "malcev" and x == y:
            vals[i] = z
    return Algebra(n, (OperationTable("g", 3, n, tuple(vals)),))


@given(idempotent_ternary_algebras())
@settings(max_examples=300, deadline=None)
def test_local_obstructions_never_deny_a_term_of_clo3(a):
    # a term found in Clo_3 (complete, or cut by the budgets) rules out an
    # obstruction, also under budgets that cut the local closures short; where
    # Clo_3 is complete, the decisions agree with its scan
    n = a.domain
    cells = list(itertools.product(range(n), repeat=3))
    at = {c: i for i, c in enumerate(cells)}
    # Clo_3 cut at 1,000 elements (the kernel's own ceiling argument) as
    # well as 20,000 steps keeps the scans below cheap
    clo3 = subpower._closure(a, len(cells), subpower.term_generators(a, 3, cells), 1_000,
                             subpower._stop_test(None, None), 20_000)
    cyclic = any(all(e[at[c]] == e[at[c[1:] + c[:1]]] for c in cells) for e in clo3.elements)
    malcev = any(all(e[at[(x, y, y)]] == x == e[at[(y, y, x)]] for x in range(n) for y in range(n))
                 for e in clo3.elements)
    for max_steps in (None, 5, 40):
        if cyclic:
            assert subpower.cyclic_obstruction(a, 3, max_steps=max_steps) is None
        if malcev:
            assert malcev_obstruction(a, max_steps=max_steps) is None
    if not clo3.truncated:
        assert has_cyclic_term(a, 3) is cyclic
        assert has_malcev_term(a)[0] is malcev


@given(idempotent_ternary_algebras())
@settings(max_examples=300, deadline=None)
def test_composed_malcev_terms_agree_with_the_scan_of_clo3(a):
    # the "compose" stage against a scan of Clo_3 (cut as in the test above):
    # unbounded it always decides, and as the complete scan does; every
    # "yes" replays as a Mal'cev operation and every "no" as a complete
    # closure in A^2 without (a, d); under budgets that cut local closures
    # short no answer contradicts the scan
    n = a.domain
    cells = list(itertools.product(range(n), repeat=3))
    at = {c: i for i, c in enumerate(cells)}
    clo3 = subpower._closure(a, len(cells), subpower.term_generators(a, 3, cells), 1_000,
                             subpower._stop_test(None, None), 20_000)
    malcev = any(all(e[at[(x, y, y)]] == x == e[at[(y, y, x)]] for x in range(n) for y in range(n))
                 for e in clo3.elements)
    for max_steps in (None, 1, 5, 40):
        got = compose_malcev_term(a, max_steps=max_steps)
        if isinstance(got, subpower.TermTree):
            assert is_malcev(eval_term_table(got, a, 3))
            assert malcev or clo3.truncated
        elif got is not None:
            _replay_malcev_obstruction(a, got)
            assert not malcev
        else:
            assert max_steps is not None
        if max_steps is None and not clo3.truncated:
            assert isinstance(got, subpower.TermTree) is malcev


# ---------------------------------------------------------------------------
# absorption and clone membership through decide_term's stages against the
# inline code they replaced: the same verdicts, and no "no" that a region
# closure, the naive absorption scan or a complete Clo_k contradicts

def reference_absorbs(alg, subset, n, max_steps=None, _decompose=True):
    """`structure.absorbs`'s verdict as the inline code gave it: the traces
    on proper subuniverses (each a region closure with no further stage),
    the images in proper quotients (recursively), then the region closure."""
    subset = tuple(sorted(set(subset)))
    if subset == tuple(range(alg.domain)):
        return True
    if _decompose:
        bset = set(subset)
        for uni in all_subuniverses(alg):
            if len(uni) < 2 or len(uni) >= alg.domain:
                continue
            trace = tuple(sorted(bset & set(uni)))
            if not trace or set(uni) <= bset:
                continue
            local = {x: i for i, x in enumerate(uni)}
            if reference_absorbs(alg.restrict(uni), tuple(local[x] for x in trace), n,
                                 max_steps=max_steps, _decompose=False) is False:
                return False
        for theta in all_congruences(alg):
            if theta.is_identity() or theta.is_full():
                continue
            quo, blocks = quotient_algebra(alg, theta)
            image = tuple(i for i, bl in enumerate(blocks) if bset & set(bl))
            if len(image) < len(blocks) and reference_absorbs(
                    quo, image, n, max_steps=max_steps) is False:
                return False
    gset = subpower.term_closure(alg, n, absorption_patterns(alg.domain, subset, n),
                                 stop_predicate=set(subset).issuperset, max_steps=max_steps)
    if gset.stop_reason == "predicate":
        return True
    return None if gset.truncated else False


def reference_clone_member(alg, op, max_steps=None):
    """Clone membership as its callers decided it: `clone_excluded`, then
    the closure of `clone_membership`."""
    if clone_excluded(alg, op, max_steps=max_steps):
        return False
    return subpower.clone_membership(alg, op, max_steps=max_steps)[0]


@st.composite
def staged_decision_cases(draw):
    """An idempotent algebra on 2-3 elements (one or two operations of arity
    2-3), a nonempty subset and absorption arity, and a table (arity 1-3,
    idempotent or not) for clone membership."""
    n = draw(st.integers(2, 3))
    ops = []
    for i in range(draw(st.integers(1, 2))):
        k = draw(st.integers(2, 3))
        vals = _random_table(draw, n, k)
        for x in range(n):
            vals[x * (n**k - 1) // (n - 1)] = x  # the cell (x, ..., x)
        ops.append(OperationTable(f"f{i}", k, n, tuple(vals)))
    subset = draw(st.sets(st.integers(0, n - 1), min_size=1))
    k = draw(st.integers(1, 3))
    table = _random_table(draw, n, k)
    if draw(st.booleans()):
        for x in range(n):
            table[x * (n**k - 1) // (n - 1)] = x
    return (Algebra(n, tuple(ops)), sorted(subset), draw(st.integers(2, 3)),
            OperationTable("t", k, n, tuple(table)))


@given(staged_decision_cases())
@example((catalog.get("T6C").algebra, [0, 1], 3, catalog.get("T6C").algebra.operations[0]))
@example((catalog.get("T3N").algebra, [1], 3, catalog.get("T4N").algebra.operations[0]))
@settings(max_examples=150, deadline=None)
def test_staged_decisions_match_the_inline_reference(case):
    a, subset, arity, op = case
    # the reference gets the same budgets: 20,000 steps keeps each closure
    # small, and 1 or 5 cut closures short, local ones too
    for budget in (1, 5, 20_000):
        got = absorbs(a, subset, arity, max_steps=budget).holds
        assert got is reference_absorbs(a, subset, arity, max_steps=budget)
        member = decide_clone_membership(a, op, max_steps=budget).holds
        assert member is reference_clone_member(a, op, max_steps=budget)
    naive = naive_absorbs(a, subset, arity, max_steps=budget)
    assert got is None or naive is None or got is naive
    clo = subpower.free_algebra(a, op.arity, max_steps=budget)
    if not clo.truncated:
        assert member is None or member is (bytes(op.values) in clo.position)


# every subset is a subuniverse
_MAX4 = Algebra(4, (OperationTable(
    "max", 2, 4, tuple(max(c) for c in itertools.product(range(4), repeat=2))),))


@st.composite
def lazy_absorption_cases(draw):
    """An idempotent algebra on 2-4 elements (one or two operations of
    arity 2-3), a nonempty subset and an absorption arity."""
    n = draw(st.integers(2, 4))
    ops = []
    for i in range(draw(st.integers(1, 2))):
        k = draw(st.integers(2, 3))
        vals = _random_table(draw, n, k)
        for x in range(n):
            vals[x * (n**k - 1) // (n - 1)] = x
        ops.append(OperationTable(f"f{i}", k, n, tuple(vals)))
    subset = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return Algebra(n, tuple(ops)), sorted(subset), draw(st.integers(2, 3))


@given(lazy_absorption_cases())
@example((catalog.get("T6C").algebra, [0, 1], 3))
@example((catalog.get("T3N").algebra, [1], 3))
@example((catalog.get("T4,16").algebra, [0], 2))
@example((_MAX4, [3], 2))
@example((catalog.get("T4,1").algebra, [2, 3], 2))  # an image's trace decides at 5 steps
@example((catalog.get("T4,11").algebra, [0, 1], 3))  # and at 200
@settings(max_examples=100, deadline=None)
def test_lazy_absorption_matches_the_full_lattice_reference(case):
    # the walk that stops at the first failing trace and the flat image pass
    # give the verdict of the whole lattice and the recursive image stage.
    # Unbounded on 2-3 elements only: a region closure on 4 elements can
    # need millions of steps (20 s and more on random tables), so there the
    # third budget is 20,000 steps
    a, subset, arity = case
    budgets = (5, 200, 20_000) if a.domain == 4 else (5, 200, None)
    for budget in budgets:
        got = absorbs(a, subset, arity, max_steps=budget).holds
        assert got is reference_absorbs(a, subset, arity, max_steps=budget)
        naive = naive_absorbs(a, subset, arity, max_steps=20_000)
        assert not (naive is True and got is False)
    # the walk meets every subuniverse once, Sg{x} first; only a finished
    # walk stores the lattice, a walk with the lattice stored keeps the
    # order, and a stored lattice is never replaced
    all_subuniverses.memo.clear()
    walk = walk_subuniverses(a)
    next(walk)
    walk.close()
    assert len(all_subuniverses.memo) == 0
    cold = list(walk_subuniverses(a))
    assert len(all_subuniverses.memo) == 1
    stored = all_subuniverses(a)
    assert list(walk_subuniverses(a)) == cold
    assert all_subuniverses(a) is stored
    assert len(set(cold)) == len(cold) and sorted(cold) == sorted(all_subuniverses(a))
    every = {sg_closure(a, s) for r in range(1, a.domain + 1)
             for s in itertools.combinations(range(a.domain), r)}
    assert set(cold) == every
    singles = {sg_closure(a, (x,)) for x in range(a.domain)}
    assert set(cold[:len(singles)]) == singles


# ---------------------------------------------------------------------------
# the three text formats: any token soup parses or raises AlgebraError

_WORDS = (
    "domain", "arity", "cap", "op", "f", "algebra", "idempotent", "cyclic",
    "symmetric", "commutative", "partition", "restrict", "value", "perm",
    "preserves", "is-congruence", "quotient-equiv", "absorbs", "edge",
    "sg-contains", "sg-excludes", "clone-contains", "unique-op", "expect=1",
    "two-generated", "simple", "subdirect", "cyclic-count", "taylor", "true",
    "false", "witness=t(x,y)", ":=", ":", "::", "==", ">=", ";", "#", "(", ")",
    "(0 9)", "(0 1)(1 2)", "{0,1}{2}", "{0}{1}", "x", "0,x", "",
)
_TOKENS = st.one_of(
    st.sampled_from(_WORDS),
    st.integers(-2, 9).map(str),
    st.lists(st.integers(-1, 9), min_size=1, max_size=4).map(
        lambda xs: ",".join(map(str, xs))),
)
_SOUP = st.lists(st.lists(_TOKENS, max_size=6).map(" ".join), max_size=8).map("\n".join)
_HEADERS = st.sampled_from(["", "domain 3\narity 2\n", "domain 2\nop f 2\n",
                            "algebra T4N\n"])
_PARSERS = st.sampled_from([parse_algebra, parse_certificate, parse_constraint_file])


@given(_PARSERS, _HEADERS, _SOUP)
@example(parse_constraint_file, "domain 3\narity 2\n", "value 0,x := 1")
@example(parse_constraint_file, "domain 3\narity 2\n", "perm (0 9)")
@example(parse_constraint_file, "domain 3\narity 2\n", "preserves 2 : 0,x")
@settings(max_examples=400, deadline=None)
def test_text_formats_parse_or_raise_algebra_error(parse, header, body):
    try:
        parse(header + body)
    except AlgebraError:
        pass


# ---------------------------------------------------------------------------
# witness re-evaluation on randomized catalog queries

catalog_names = st.sampled_from(catalog.names())


@given(catalog_names, st.data())
@settings(max_examples=40, deadline=None)
def test_witness_reevaluation(name, data):
    a = catalog.get(name).algebra
    n = a.domain
    m = data.draw(st.integers(1, 2))
    k = data.draw(st.integers(1, 2))
    gens = [
        tuple(data.draw(st.integers(0, n - 1)) for _ in range(m))
        for _ in range(k)
    ]
    gset = generate(a, m, gens)
    for idx in range(len(gset.elements)):
        e = tuple(gset.elements[idx])
        tree = gset.witness_term(e)
        got = tuple(
            eval_term(tree, a, tuple(g[j] for g in gset.generators))
            for j in range(m)
        )
        assert got == e


# ---------------------------------------------------------------------------
# structural consequences re-checked as properties (catalog-wide)

def test_weak_edge_witness_union_is_subuniverse(entries):
    # weak semilattice or weak majority edge witnessed by theta: the union
    # of the two witness classes is a subuniverse
    for entry in entries.values():
        a = entry.algebra
        n = a.domain
        for x in range(n):
            for y in range(x + 1, n):
                recs, conclusive = weak_edges(a, x, y, max_steps=20_000_000)
                assert conclusive, (entry.name, x, y)
                for r in recs:
                    if r.kind not in (
                        "semilattice", "weak-semilattice",
                        "majority", "weak-majority",
                    ):
                        continue
                    bx = next(bl for bl in r.witness_blocks if x in bl)
                    by = next(bl for bl in r.witness_blocks if y in bl)
                    union = tuple(sorted(set(bx) | set(by)))
                    assert sg_closure(a, union) == union, (entry.name, r.render())


def test_binary_absorbing_union_with_subuniverse(entries):
    # B binary-absorbing and C a subuniverse gives B u C a subuniverse
    for entry in entries.values():
        a = entry.algebra
        subs = all_subuniverses(a)
        binabs = [
            b for b in subs
            if len(b) < a.domain and absorbs(a, b, 2, max_steps=20_000_000).holds
        ]
        for b in binabs:
            for c in subs:
                union = tuple(sorted(set(b) | set(c)))
                assert sg_closure(a, union) == union, (entry.name, b, c)


def test_lemma31_instances(entries):
    # whenever a proper congruence has a quotient and classes all carrying a
    # ternary cyclic term, the algebra itself carries one
    for entry in entries.values():
        a = entry.algebra
        for theta in all_congruences(a):
            if theta.is_identity() or theta.is_full():
                continue
            quo, blocks = quotient_algebra(a, theta)
            parts = [quo] + [
                class_algebra(a, theta, bl) for bl in blocks if len(bl) > 1
            ]
            if all(
                has_cyclic_term(p, 3, max_steps=20_000_000) is True for p in parts
            ):
                assert has_cyclic_term(a, 3, max_steps=60_000_000) is True, entry.name


# ---------------------------------------------------------------------------
# the compiled constraint checks of search.satisfies against the per-cell code
# they replaced

def reference_restrict(op, subset):
    """The restriction's values, one cell at a time; None if not closed."""
    pos = {a: i for i, a in enumerate(sorted(set(subset)))}
    vals = []
    for args in itertools.product(sorted(pos), repeat=op.arity):
        v = op.values[op.index(args)]
        if v not in pos:
            return None
        vals.append(pos[v])
    return tuple(vals)


def reference_satisfies(table, c):
    """search.satisfies as it was written one cell at a time."""
    if isinstance(c, Idempotent):
        return all(table.values[table.index((x,) * table.arity)] == x
                   for x in range(table.domain))
    if isinstance(c, Cyclic):
        return reference_is_cyclic(table)
    if isinstance(c, Symmetric):
        return reference_is_symmetric(table)
    if isinstance(c, PreservesRelation):
        rel = set(c.tuples)
        k = table.arity
        for combo in itertools.product(c.tuples, repeat=k):
            out = tuple(
                table.values[table.index(tuple(combo[i][j] for i in range(k)))]
                for j in range(c.arity)
            )
            if out not in rel:
                return False
        return True
    if isinstance(c, InvariantPartition):
        idx = c.partition.block_index()
        groups = {}
        for args in table.all_args():
            sig = tuple(idx[x] for x in args)
            v = idx[table.values[table.index(args)]]
            if groups.setdefault(sig, v) != v:
                return False
        return True
    if isinstance(c, CommutesWithPermutation):
        p = c.perm
        return all(
            table.values[table.index(tuple(p[x] for x in args))]
            == p[table.values[table.index(args)]]
            for args in table.all_args()
        )
    if isinstance(c, AgreesOnTuples):
        return all(table.values[table.index(args)] == v for args, v in c.items)
    raise AssertionError(c)


def reference_commutative(table):
    """The commutative law of a binary table, one cell at a time."""
    return all(table(x, y) == table(y, x) for x, y in table.all_args())


_KINDS = ["idempotent", "cyclic", "symmetric", "commutative", "relation", "partition",
          "restriction", "partial", "perm", "agrees"]


@st.composite
def constrained_tables(draw, kind):
    """A table on 1-4 elements of arity 1-3 (random, idempotent, cyclic or
    symmetric) and one constraint of the given kind, drawn so that it holds
    about as often as not: restrictions and partial tables are read off the
    table and sometimes changed in one value, relations and partitions
    include the trivial ones every table satisfies.  The commutative kind
    is Symmetric on a binary table; the restriction kind is drawn as
    (subset, table over the subset), for `restriction` to pin."""
    n, k = draw(st.integers(1, 4)), 2 if kind == "commutative" else draw(st.integers(1, 3))
    cells = list(itertools.product(range(n), repeat=k))
    pos = {c: i for i, c in enumerate(cells)}
    base = _random_table(draw, n, k)
    shape = draw(st.sampled_from(["random", "idempotent", "cyclic", "symmetric"]))
    if shape == "cyclic":
        vals = [base[pos[min(c[i:] + c[:i] for i in range(k))]] for c in cells]
    elif shape == "symmetric":
        vals = [base[pos[tuple(sorted(c))]] for c in cells]
    else:
        vals = base
    if shape == "idempotent" or draw(st.booleans()):
        for x in range(n):
            vals[pos[(x,) * k]] = x
    table = OperationTable("f", k, n, tuple(vals))

    def value():
        return draw(st.integers(0, n - 1))

    def maybe_changed(values):
        values = list(values)
        if values and draw(st.booleans()):
            values[draw(st.integers(0, len(values) - 1))] = value()
        return values

    if kind in ("idempotent", "cyclic", "symmetric", "commutative"):
        c = {"idempotent": Idempotent(), "cyclic": Cyclic(), "symmetric": Symmetric(),
             "commutative": Symmetric()}[kind]
    elif kind == "relation":
        r = draw(st.integers(1, 3))
        every = list(itertools.product(range(n), repeat=r))
        shape = draw(st.integers(0, 3))
        if shape == 2:
            tuples = every                                      # always preserved
        elif shape == 3:
            tuples = [(x,) * r for x in range(n)]               # the diagonal, too
        else:
            tuples = draw(st.sets(st.sampled_from(every), min_size=min(2, len(every)), max_size=6))
        c = PreservesRelation(r, tuple(sorted(set(tuples))))
    elif kind == "partition":
        rep = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        c = InvariantPartition(draw(st.sampled_from([
            Partition.from_representatives(n, rep), Partition.identity(n), Partition.full(n)])))
    elif kind == "restriction":
        subset = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
        s = len(subset)
        closed = reference_restrict(table, subset)
        if closed is None:
            want = OperationTable("r", k, s, tuple(_random_table(draw, s, k)))
        else:
            values = maybe_changed(closed)
            want = OperationTable("r", k, s, tuple(v % s for v in values))
        c = (subset, want)
    elif kind == "partial":
        known = [(args, v) for args, v in zip(cells, maybe_changed(table.values))
                 if draw(st.integers(0, 3)) != 0]
        c = AgreesOnTuples(tuple(known))
    elif kind == "perm":
        if draw(st.booleans()):  # a projection commutes with every permutation
            table = OperationTable("f", k, n, tuple(maybe_changed(c[0] for c in cells)))
        c = CommutesWithPermutation(tuple(draw(st.permutations(range(n)))))
    else:
        items = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3))
        c = AgreesOnTuples(tuple((args, table.values[pos[args]] if draw(st.booleans())
                                  else value()) for args in items))
    return table, c


def _same_verdict(table, c):
    try:
        want = reference_satisfies(table, c)
    except AlgebraError:
        with pytest.raises(AlgebraError):
            satisfies(table, c)
        return
    assert satisfies(table, c) == want


@pytest.mark.parametrize("kind", _KINDS)
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_compiled_checks_match_the_per_cell_reference(kind, data):
    table, c = data.draw(constrained_tables(kind))
    if kind == "restriction":
        subset, want = c
        assert satisfies(table, restriction(subset, want)) == (
            reference_restrict(table, subset) == want.values)
        return
    _same_verdict(table, c)
    if kind == "commutative":
        assert satisfies(table, c) == reference_commutative(table)


def test_compiled_checks_match_the_per_cell_reference_on_edge_cases():
    # a subset that is not closed (2 = f(0, 1) lies outside {0, 1}), and a
    # binary table that is not commutative under the symmetric law
    table = OperationTable("f", 2, 3, (0, 2, 0, 0, 1, 0, 0, 0, 2))
    want = OperationTable("r", 2, 2, (0, 0, 0, 1))
    assert reference_restrict(table, (0, 1)) is None
    assert not satisfies(table, restriction((0, 1), want))
    assert not reference_commutative(table) and not satisfies(table, Symmetric())
    _same_verdict(table, Symmetric())
