"""Constrained enumeration of operation tables.

Backtracking over table cells with the cells of one argument-permutation
orbit (cyclic / symmetric) collapsed into a single decision variable.
Forced cells (idempotence and the cell pins of `AgreesOnTuples`, which
also state restrictions) are pinned before the search; partition
invariance propagates block choices; permutation-commuting propagates
transformed values; relation preservation prunes where all needed cells
are known.  Solutions arrive in lexicographic order of their value
sequences.

One generator, `solutions`, walks the orbits with an explicit stack of
frames and yields each solution's flat value tuple as it is found;
`search_ops` builds tables from it up to the spec's cap, `count_ops`
counts without building any, and a uniqueness question reads at most two.
Its work budget is counted in steps, one per value tried at an undecided
orbit, so it is deterministic.  A walk that stops on it yields None last:
`search_ops` and `count_ops` then report truncated, the `unique-op`
certificate check inconclusive.  A relation is pruned on at each step
through the combinations of its tuples that read an orbit the step
decided, directly or by propagation (indexed by orbit once per search).
If one relation has more than _RELATION_COMBOS combinations, none is
pruned on: the leaf checks alone test them, and no walk over a
relation's combinations runs outside the budget.  Such a relation's leaf
walk tries its combinations one at a time, each a step, and the leaves
then come through the frames alone (no block).

The block.  When the spec has no invariant partition, no commuting
permutation and no relation pruned on, nothing propagates: the undecided
orbits take every combination of values.  The last j of them are then
enumerated as one block, j as large as n**j <= _BLOCK_LEAVES allows, and
the frames walk only the orbits before it.  The block's combinations come
in lexicographic order (`_block`, cached per n and j), and each leaf's
value tuple is one `cell_getter` read of the other orbits' values followed
by the combination.  The budget stays exact: reaching a combination costs
the values a walk of one value per step would try for it, so a budget
that ends inside the block yields the leaves that walk reaches, then None.

Every leaf is still checked in full against every constraint, propagated or
not, by the check `satisfies` runs.  Each constraint is compiled once per
search (and cached per constraint, domain and arity) into a check on the
leaf's flat value tuple that reads all the cells it needs in one
`cell_getter` call (a relation of more than _RELATION_COMBOS combinations
is walked one combination at a time instead), and a table is built only
for a leaf that passes.  The checks depend on the constraint alone, never
on the propagation, so `satisfies` stays an independent oracle for what
the search returns.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass

from .core import (
    AlgebraError,
    OperationTable,
    ParseError,
    argument_cells,
    cell_getter,
    cell_index,
    check_budget,
    image_cells,
    relabeling,
)
from .congruence import Partition, at_representatives


@dataclass(frozen=True)
class Idempotent:
    pass


@dataclass(frozen=True)
class Cyclic:
    pass


@dataclass(frozen=True)
class Symmetric:
    pass


@dataclass(frozen=True)
class PreservesRelation:
    arity: int
    tuples: tuple  # sorted tuple of tuples


@dataclass(frozen=True)
class InvariantPartition:
    partition: Partition


@dataclass(frozen=True)
class CommutesWithPermutation:
    perm: tuple  # perm[i] = image of i


@dataclass(frozen=True)
class AgreesOnTuples:
    items: tuple  # ((args, value), ...)


SEARCH_LIMITS = {"arity": 4, "domain": 5}  # the largest a table search supports


@dataclass
class SearchSpec:
    domain: int
    arity: int
    constraints: tuple
    cap: int | None = None  # max solutions to return

    def __post_init__(self):
        for what, limit in SEARCH_LIMITS.items():
            if not 1 <= (value := getattr(self, what)) <= limit:
                raise AlgebraError(f"search supports {what} 1 to {limit}, got {value}")
        if self.cap is not None and self.cap < 1:
            raise AlgebraError(f"search cap must be at least 1, got {self.cap}")
        self.constraints = tuple(self.constraints)


@dataclass
class SearchResult:
    tables: list
    truncated: bool


def satisfies(table: OperationTable, c) -> bool:
    """Independent full check of one constraint against a finished table."""
    return _check(c, table.domain, table.arity)(table.values)


# The compiled check of each constraint kind: (constraint, domain, arity) ->
# a predicate on a table's flat value tuple (see the module docstring).


def _idempotent(c, n, k):
    diagonal, want = argument_cells(n, (0,) * k), tuple(range(n))
    return lambda values: diagonal(values) == want


def _cyclic(c, n, k):
    rotated = argument_cells(n, (*range(1, k), 0))
    return lambda values: rotated(values) == values


def _symmetric(c, n, k):
    if k < 2:
        return lambda values: True
    rotated = argument_cells(n, (*range(1, k), 0))
    swapped = argument_cells(n, (1, 0, *range(2, k)))
    return lambda values: rotated(values) == values and swapped(values) == values


# A relation of at most this many k-tuple combinations is pruned on as cells
# are decided, and its leaf check reads the cells of all the combinations
# through one getter (at most this many times r indices).  A larger one is
# checked one combination at a time (`_RelationWalk`), stopping at the first
# that fails, so its check holds the relation alone.
_RELATION_COMBOS = 20000


class _RelationWalk:
    """The check of a relation of more than _RELATION_COMBOS combinations:
    its combinations one at a time, in `itertools.product` order, up to the
    first whose columns the table maps outside the relation.  `solutions`
    counts each combination tried as a step."""

    __slots__ = ("tuples", "rel", "n", "k")

    def __init__(self, tuples, n, k):
        self.tuples, self.rel, self.n, self.k = tuples, set(tuples), n, k

    def __call__(self, values) -> bool:
        return self.walk(values)[0]

    def walk(self, values, budget=None):
        """(holds, combinations tried); holds is None when `budget`
        combinations were tried and more are left."""
        tried = 0
        for combo in itertools.product(self.tuples, repeat=self.k):
            if tried == budget:
                return None, tried
            tried += 1
            if tuple(values[cell_index(column, self.n)] for column in zip(*combo)) \
                    not in self.rel:
                return False, tried
        return True, tried


def _preserves_relation(c, n, k):
    for t in c.tuples:
        if len(t) != c.arity or not all(0 <= x < n for x in t):
            raise AlgebraError(f"relation tuple {t} malformed")
    tuples, r = tuple(dict.fromkeys(c.tuples)), c.arity
    if len(tuples) ** k > _RELATION_COMBOS:
        return _RelationWalk(tuples, n, k)
    rel = set(tuples)
    # per combination of k tuples, the r cells its columns name, each a
    # reference to one shared int per cell
    cell = list(range(n**k))
    outputs = cell_getter([cell[cell_index(column, n)]
                           for combo in itertools.product(tuples, repeat=k)
                           for column in zip(*combo)])

    def check(values):
        flat = iter(outputs(values))
        return rel.issuperset(zip(*[flat] * r))
    return check


def _invariant_partition(c, n, k):
    # invariant iff every cell's value shares a block with its representative cell's
    block, at_reps = c.partition.block_index(), at_representatives(c.partition, k)
    return lambda values: (list(map(block.__getitem__, values))
                           == list(map(block.__getitem__, at_reps(values))))


def _commutes_with_permutation(c, n, k):
    relabel = relabeling(n, k, tuple(c.perm))
    return lambda values: relabel(values) == values


def _pins(c, n, k):
    """The (cell, value) pins of an AgreesOnTuples; AlgebraError for an
    argument tuple of the wrong length or outside the domain."""
    for args, _ in c.items:
        if len(args) != k or not all(0 <= x < n for x in args):
            raise AlgebraError(f"argument tuple {tuple(args)} malformed "
                               f"for arity {k}, domain {n}")
    return [(cell_index(args, n), v) for args, v in c.items]


def _agrees_on_tuples(c, n, k):
    pins = _pins(c, n, k)
    cells, want = cell_getter([i for i, _ in pins]), tuple(v for _, v in pins)
    return lambda values: cells(values) == want


_CHECKS = {
    Idempotent: _idempotent,
    Cyclic: _cyclic,
    Symmetric: _symmetric,
    PreservesRelation: _preserves_relation,
    InvariantPartition: _invariant_partition,
    CommutesWithPermutation: _commutes_with_permutation,
    AgreesOnTuples: _agrees_on_tuples,
}


def _compile(c, n: int, k: int):
    build = _CHECKS.get(type(c))
    if build is None:
        raise AlgebraError(f"unknown constraint {c!r}")
    return build(c, n, k)


_compiled = functools.lru_cache(maxsize=256)(_compile)


def _check(c, n: int, k: int):
    """The compiled check of constraint c on tables of domain n, arity k."""
    try:
        hash(c)
    except TypeError:  # a constraint holding lists is compiled for this call only
        return _compile(c, n, k)
    return _compiled(c, n, k)


def _argument_orbits(n, k, constraints):
    """Cells grouped under the argument-permutation symmetries requested."""
    if any(isinstance(c, Symmetric) for c in constraints):
        perms = list(itertools.permutations(range(k)))
    elif any(isinstance(c, Cyclic) for c in constraints):
        perms = [tuple((i + s) % k for i in range(k)) for s in range(k)]
    else:
        perms = [tuple(range(k))]
    # per permutation, the index of the cell each cell is moved to
    images = [argument_cells(n, perm)(range(n**k)) for perm in perms]
    orbit_of = [-1] * n**k
    orbits = []
    for i in range(n**k):
        if orbit_of[i] >= 0:
            continue
        members = sorted({image[i] for image in images})
        oid = len(orbits)
        for m in members:
            orbit_of[m] = oid
        orbits.append(members)
    return orbit_of, orbits


def _forced_cells(spec):
    """Cell values pinned outright by the constraints; None on contradiction."""
    n, k = spec.domain, spec.arity
    forced = {}
    for c in spec.constraints:
        if isinstance(c, Idempotent):
            pins = zip(argument_cells(n, (0,) * k)(range(n**k)), range(n))
        elif isinstance(c, AgreesOnTuples):
            pins = _pins(c, n, k)
        else:
            continue
        for idx, v in pins:
            if not 0 <= v < n or forced.setdefault(idx, v) != v:
                return None
    return forced


def _propagators(spec):
    """What a decided cell propagates to and prunes: per invariant partition
    (the block of each element, the block signature of each cell), per
    commuting permutation (the permutation, the cell each cell maps to), and
    the relations to preserve."""
    n, k = spec.domain, spec.arity
    partitions = []
    for c in spec.constraints:
        if isinstance(c, InvariantPartition):
            block = c.partition.block_index()
            partitions.append((block, list(itertools.product(block, repeat=k))))
    perms = [(c.perm, image_cells(n, k, tuple(c.perm))(range(n**k)))
             for c in spec.constraints if isinstance(c, CommutesWithPermutation)]
    relations = [c for c in spec.constraints if isinstance(c, PreservesRelation)]
    return partitions, perms, relations


def _relation_combos(relations, n, k, orbit_of):
    """(orbits, tuples) per combination of k tuples of each relation: the
    orbit of each cell the combination's columns name, and the relation's
    tuples as a frozenset, which the values of those cells must form one of."""
    for rel in relations:
        rset = frozenset(rel.tuples)
        # per argument position d, each tuple times n**(k-1-d): a column's
        # cell index is the sum of its entries
        weighted = [[tuple(x * n ** (k - 1 - d) for x in t) for t in rel.tuples]
                    for d in range(k)]
        for combo in itertools.product(*weighted):
            yield tuple(map(orbit_of.__getitem__, map(sum, zip(*combo)))), rset


# the most value combinations one block enumerates (n**j <= _BLOCK_LEAVES)
_BLOCK_LEAVES = 729


@functools.lru_cache(maxsize=None)
def _block(n: int, j: int):
    """The combinations of j values in lexicographic order, and per
    combination the steps a walk has made in the block once it reaches it:
    each reach costs the values tried from the first position where the
    combination differs from the one before (all j for the first).  The
    last is the block's whole cost, n + n**2 + ... + n**j."""
    combos = tuple(itertools.product(range(n), repeat=j))
    reached, steps = [], 0
    for before, combo in zip(((-1,) * j,) + combos, combos):
        steps += j - next((i for i in range(j) if combo[i] != before[i]), j)
        reached.append(steps)
    return combos, reached


def solutions(spec: SearchSpec, max_steps=None):
    """The streaming core: yields the flat value tuple of each table that
    passes every compiled check, in lexicographic order, and None as its last
    item if it stops after `max_steps` steps (None is unbounded)."""
    check_budget(max_steps)
    n, k = spec.domain, spec.arity
    orbit_of, orbits = _argument_orbits(n, k, spec.constraints)
    forced = _forced_cells(spec)
    if forced is None:
        return
    # the full check of every constraint, run at each leaf; a large
    # relation's walk runs last, each combination it tries a step
    checks = [_check(c, n, k) for c in spec.constraints]
    walks = [check for check in checks if isinstance(check, _RelationWalk)]
    checks = [check for check in checks if not isinstance(check, _RelationWalk)]
    partitions, perms, relations = _propagators(spec)

    orbit_val = [-1] * len(orbits)
    group_block = [dict() for _ in partitions]
    trail = []

    def assign(oid, v):
        """Assign an orbit value, propagating; returns False on conflict."""
        stack = [(oid, v)]
        while stack:
            o, val = stack.pop()
            cur = orbit_val[o]
            if cur != -1:
                if cur != val:
                    return False
                continue
            orbit_val[o] = val
            trail.append(("orbit", o))
            for pi, (block, sigs) in enumerate(partitions):
                blk = block[val]
                gb = group_block[pi]
                for ci in orbits[o]:
                    sig = sigs[ci]
                    got = gb.get(sig)
                    if got is None:
                        gb[sig] = blk
                        trail.append(("group", pi, sig))
                    elif got != blk:
                        return False
            for perm, perm_cell in perms:
                mapped_v = perm[val]
                for ci in orbits[o]:
                    stack.append((orbit_of[perm_cell[ci]], mapped_v))
        return True

    def violated(combos):
        """Whether a combination whose cells are all decided leaves its relation."""
        for cols, rset in combos:
            out = tuple(map(orbit_val.__getitem__, cols))
            if out not in rset and -1 not in out:
                return True
        return False

    # relations are pruned on only if all are small enough; a larger one is
    # checked at the leaves alone, so no walk over its combinations runs
    # outside the step budget
    prune = relations and all(len(r.tuples) ** k <= _RELATION_COMBOS for r in relations)
    if prune:
        # per orbit, the combinations that read it: a step tests only those
        # of the orbits it decided (combinations that read the same orbits
        # for the same relation are one test)
        combos = list(dict.fromkeys(_relation_combos(relations, n, k, orbit_of)))
        combos_of = [[] for _ in orbits]
        for combo in combos:
            for o in set(combo[0]):
                combos_of[o].append(combo)
    if (not all(assign(orbit_of[idx], v) for idx, v in forced.items())
            or prune and violated(combos)):
        return

    # The last j undecided orbits form the block when nothing propagates to
    # them or prunes on them, and no leaf walk spends steps.  Otherwise j is
    # 0: the block's one combination is empty and the frames reach every leaf.
    free = [o for o, v in enumerate(orbit_val) if v == -1]
    j = 0
    if not (partitions or perms or prune or walks):
        while j < len(free) and n ** (j + 1) <= _BLOCK_LEAVES:
            j += 1
    block = free[len(free) - j:]
    stop = block[0] if block else len(orbits)
    leaves, reached = _block(n, j)
    # a leaf's key: the values of the other orbits, then the block's combination
    rest = sorted(set(range(len(orbits))).difference(block))
    slot = {o: i for i, o in enumerate(rest + block)}
    pick = cell_getter([slot[o] for o in orbit_of])

    # orbits are decided in index order, the lex order of their representatives;
    # one frame [orbit, next value, trail mark] per undecided orbit on the path
    frames, pos, steps = [], 0, 0
    while True:
        while pos < stop and orbit_val[pos] != -1:
            pos += 1
        if pos < stop:
            frames.append([pos, 0, len(trail)])
        else:
            prefix = tuple(map(orbit_val.__getitem__, rest))
            reach = (len(leaves) if max_steps is None
                     else bisect.bisect_right(reached, max_steps - steps))
            for combo in itertools.islice(leaves, reach):
                vals = pick(prefix + combo)
                for check in checks:
                    if not check(vals):
                        break
                else:
                    for walk in walks:  # j is 0 here, so `steps` is the leaf's
                        holds, tried = walk.walk(
                            vals, None if max_steps is None else max_steps - steps)
                        steps += tried
                        if holds is None:
                            yield None
                            return
                        if not holds:
                            break
                    else:
                        yield vals
            if reach < len(leaves):
                yield None
                return
            steps += reached[-1]
        while frames:
            o, v, mark = frame = frames[-1]
            while len(trail) > mark:
                tag = trail.pop()
                if tag[0] == "orbit":
                    orbit_val[tag[1]] = -1
                else:
                    del group_block[tag[1]][tag[2]]
            if v == n:
                frames.pop()
                continue
            if steps == max_steps:
                yield None
                return
            steps += 1
            frame[1] = v + 1
            if assign(o, v) and not (prune and violated(
                    combo for tag in trail[mark:] if tag[0] == "orbit"
                    for combo in combos_of[tag[1]])):
                pos = o + 1
                break
        else:
            return


def search_ops(spec: SearchSpec, max_steps=None) -> SearchResult:
    """The tables "f" of the spec's solutions up to `spec.cap`; truncated when
    one more exists or the budget stopped the walk first."""
    tables = []
    for vals in solutions(spec, max_steps):
        if vals is None or len(tables) == spec.cap:
            return SearchResult(tables, True)
        tables.append(OperationTable("f", spec.arity, spec.domain, vals))
    return SearchResult(tables, False)


def count_ops(spec: SearchSpec, max_steps=None):
    """`search_ops`'s (number of tables, truncated flag), with no table built."""
    count = 0
    for vals in solutions(spec, max_steps):
        if vals is None or count == spec.cap:
            return count, True
        count += 1
    return count, False


def restriction(subset, table: OperationTable) -> AgreesOnTuples:
    """The pins that put `table`, over 0..len(subset)-1, on subset^k: a table
    meets them iff its restriction to the ascending `subset` is `table`."""
    sub = sorted(set(subset))
    if table.domain != len(sub):
        raise AlgebraError(f"restriction table has domain {table.domain}, "
                           f"subset {tuple(sub)} has {len(sub)} elements")
    return AgreesOnTuples(tuple(
        (tuple(sub[a] for a in args), sub[v])
        for args, v in zip(itertools.product(range(len(sub)), repeat=table.arity),
                           table.values)))


# the whole-table constraints by name: the directives of a search spec that
# take no arguments; `commutative` is `symmetric` at arity 2
LAWS = {"idempotent": Idempotent, "cyclic": Cyclic, "symmetric": Symmetric,
        "commutative": Symmetric}
# the directives that take an element list, read once the domain and arity are known
_TABLE_DIRECTIVES = ("partition", "restrict", "value", "perm", "preserves")
DIRECTIVES = ("domain", "arity", "cap", *LAWS, *_TABLE_DIRECTIVES)


def parse_constraint_file(text: str, domain=None):
    """Line-oriented search spec.

    Directives (`DIRECTIVES`): `domain N`, `arity K`, `cap N`,
    `idempotent`, `cyclic`, `symmetric`, `commutative`,
    `partition {0,2}{1,3}`, `restrict 0,2 := v...`, `value x,y,z := v`,
    `perm (0 2)(1 3)`, `preserves R : x,y x,z ...`.  `#` comments.  Unknown
    directives are rejected.  A given `domain` stands for a `domain`
    directive the text does not hold.
    """
    sizes = {} if domain is None else {"domain": domain}  # domain, arity, cap
    constraints = []
    pending = []  # (directive, payload, line) resolved once domain/arity known
    commutative_line = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head in ("domain", "arity", "cap"):
                if head in sizes:
                    raise ParseError(f"repeated {head} directive", ln)
                sizes[head] = int(rest)
                if sizes[head] < 1:
                    raise ParseError(f"{head} must be at least 1, got {sizes[head]}", ln)
                if sizes[head] > SEARCH_LIMITS.get(head, sizes[head]):
                    raise ParseError(f"search supports {head} 1 to {SEARCH_LIMITS[head]}, "
                                     f"got {sizes[head]}", ln)
            elif head in LAWS:
                if rest:
                    raise ParseError(f"{head} takes no arguments, got {rest!r}", ln)
                constraints.append(LAWS[head]())
                if head == "commutative":
                    commutative_line = ln
            elif head in _TABLE_DIRECTIVES:
                pending.append((head, rest, ln))
            else:
                raise ParseError(f"unknown directive {head!r}", ln)
        except ValueError:
            raise ParseError("bad integer in directive", ln) from None
    domain, arity, cap = (sizes.get(k) for k in ("domain", "arity", "cap"))
    if domain is None or arity is None:
        raise AlgebraError("constraint file must declare domain and arity")
    if commutative_line is not None and arity != 2:
        raise ParseError(f"commutative requires arity 2, got arity {arity}", commutative_line)

    for head, rest, ln in pending:
        try:
            constraints.append(_parse_pending(head, rest, domain, arity))
        except (ValueError, AlgebraError) as exc:
            raise ParseError(f"malformed {head} directive {rest!r}: {exc}", ln) from None
    return SearchSpec(domain, arity, tuple(constraints), cap=cap)


def _parse_pending(head: str, rest: str, domain: int, arity: int):
    """One directive that needs the domain and arity; ValueError or
    AlgebraError if malformed."""
    if head == "partition":
        return InvariantPartition(Partition.parse(rest, domain))
    if head == "value":
        args_text, _, val_text = rest.partition(":=")
        args = _elements(args_text.strip().split(","), domain)
        if len(args) != arity:
            raise ValueError(f"{len(args)} arguments for arity {arity}")
        return AgreesOnTuples(((args, _elements([val_text], domain)[0]),))
    if head == "restrict":
        sub_text, _, vals_text = rest.partition(":=")
        subset = tuple(sorted(_elements(sub_text.strip().split(","), domain)))
        if len(set(subset)) != len(subset):
            raise ValueError(f"repeated element in {subset}")
        vals, size = tuple(int(t) for t in vals_text.split()), len(subset)
        if len(vals) != size**arity:
            raise ValueError(f"a {size}-element subset at arity {arity} takes {size**arity} "
                             f"values, got {len(vals)}")
        if bad := [v for v in vals if not 0 <= v < size]:
            raise ValueError(f"a {size}-element subset takes values 0 to {size - 1} "
                             f"(positions in the subset), got {bad[0]}")
        return restriction(subset, OperationTable("r", arity, size, vals))
    if head == "perm":
        return CommutesWithPermutation(_parse_perm(rest, domain))
    r_text, _, tup_text = rest.partition(":")  # preserves
    r = int(r_text.strip())
    tuples = tuple(sorted(_elements(chunk.split(","), domain) for chunk in tup_text.split()))
    if any(len(t) != r for t in tuples):
        raise ValueError(f"a tuple is not of length {r}")
    return PreservesRelation(r, tuples)


def _elements(texts, n: int) -> tuple:
    """Domain elements written in decimal; ValueError outside range(n)."""
    xs = tuple(int(t) for t in texts)
    for x in xs:
        if not 0 <= x < n:
            raise ValueError(f"element {x} outside domain {n}")
    return xs


def _parse_perm(text: str, n: int):
    """Cycle notation like (0 2)(1 3); fixed points may be omitted."""
    perm = list(range(n))
    body = text.strip()
    if body.count("(") != body.count(")"):
        raise ValueError("unbalanced parens")
    moved = set()
    for cyc in body.replace(")", ")|").split("|"):
        cyc = cyc.strip()
        if not cyc:
            continue
        if not (cyc.startswith("(") and cyc.endswith(")")):
            raise ValueError(f"bad cycle {cyc!r}")
        xs = _elements(cyc[1:-1].replace(",", " ").split(), n)
        if moved & set(xs) or len(set(xs)) != len(xs):
            raise ValueError("an element is repeated in the cycles")
        moved.update(xs)
        for i, x in enumerate(xs):
            perm[x] = xs[(i + 1) % len(xs)]
    return tuple(perm)
