"""Closure computation inside finite powers A^m.

This is the engine behind subuniverse generation, free algebras / clone
membership, cyclic-term search and the binary relation Sg{(a,b),(b,a)}.

Power tuples are stored as `bytes`, one byte per coordinate, and the
closure order is canonical: breadth-first rounds, operations in
declaration order, argument index tuples in lexicographic order restricted
to those using at least one element of the current frontier.  Witness links
always reference strictly earlier elements.

When n**arity <= 256 an operation is applied with byte-lane integer
arithmetic plus bytes.translate.  Read as a big-endian integer, an element
holds one coordinate per byte lane; sum_j n**(k-1-j) * x_j then holds, in
each lane, the row-major cell index of that coordinate's argument tuple
(below 256, so no lane carries into the next), and translating by the
operation's table maps cell index to value.  The argument tuples are walked
as rows: each (k-1)-prefix of indices, then every last index of its row in
one step.  The last argument's weight is 1, so the row's lanes are the
prefix's lane sum repeated once per element (by `bytes` repetition) plus
the concatenated elements themselves: one integer holding the whole round
and one its frontier suffix, built once per round.  One `to_bytes`, one
`translate` and a cached `struct` unpack then give the row's results, and
only those not yet present go through the insert path.  Rows shorter than
_ROW_MIN are evaluated element by element, where the whole-row conversions
cost more than they save.  Memory stays O(size * m): per round two integers
of the round's elements, per row one row; nothing is replicated per
element.  The step budget is spent per completed row.  Operations with
more than 256 cells are applied coordinate by coordinate, one application
at a time, and spend the budget per application.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass, field

from .core import Algebra, AlgebraError, OperationTable, UnionFind
from .memo import Memo, table_key

DEFAULT_CAP = 5_000_000


@dataclass(frozen=True)
class TermTree:
    """Term over an algebra's basic operations; leaves are variable indices."""

    op: str | None  # operation name, None for a variable leaf
    children: tuple = ()
    var: int = -1

    @staticmethod
    def variable(i: int) -> "TermTree":
        return TermTree(None, (), i)

    @staticmethod
    def node(op_name: str, children) -> "TermTree":
        return TermTree(op_name, tuple(children), -1)

    def is_variable(self) -> bool:
        return self.op is None


def render_term(tree: TermTree, names) -> str:
    """Fully parenthesized prefix form, e.g. g(x, g(x, y, z), z)."""
    if tree.is_variable():
        return names[tree.var]
    inner = ", ".join(render_term(c, names) for c in tree.children)
    return f"{tree.op}({inner})"


def term_depth(tree: TermTree) -> int:
    if tree.is_variable():
        return 0
    return 1 + max(term_depth(c) for c in tree.children)


def eval_term(tree: TermTree, alg: Algebra, args) -> int:
    """Evaluate a term tree on domain elements."""
    if tree.is_variable():
        return args[tree.var]
    op = alg.op(tree.op)
    return op.eval([eval_term(c, alg, args) for c in tree.children])


def eval_term_table(tree: TermTree, alg: Algebra, arity: int) -> OperationTable:
    """The term operation's full table (row-major)."""
    vals = tuple(
        eval_term(tree, alg, args)
        for args in itertools.product(range(alg.domain), repeat=arity)
    )
    return OperationTable("t", arity, alg.domain, vals)


class _Applier:
    """Pointwise application of one basic operation to power elements."""

    __slots__ = ("arity", "fast", "coeffs", "lut", "values", "domain")

    def __init__(self, op: OperationTable):
        self.arity = op.arity
        self.values = op.values
        self.domain = op.domain
        cells = op.domain**op.arity
        self.fast = cells <= 256
        if self.fast:
            self.coeffs = tuple(op.domain ** (op.arity - 1 - j) for j in range(op.arity))
            lut = bytearray(256)
            lut[:cells] = bytes(op.values)
            self.lut = bytes(lut)
        else:
            self.coeffs = ()
            self.lut = b""

    def apply_slow(self, arg_bytes, m: int) -> bytes:
        n, vals = self.domain, self.values
        idx = [0] * m
        for b in arg_bytes:
            for i, x in enumerate(b):
                idx[i] = idx[i] * n + x
        return bytes(vals[i] for i in idx)


@dataclass
class GeneratedSet:
    """Fixpoint (or truncated prefix) of closure inside a finite power."""

    base: Algebra
    exponent: int
    elements: list = field(default_factory=list)  # bytes, insertion order
    position: dict = field(default_factory=dict)  # bytes -> index
    witnesses: list = field(default_factory=list)  # per element: None or (op_i, parent idxs)
    generators: list = field(default_factory=list)  # bytes
    truncated: bool = False
    stop_reason: str | None = None  # "cap" | "targets" | "region" | "predicate"

    def __len__(self):
        return len(self.elements)

    def tuples(self):
        """Elements as plain int tuples, in canonical order."""
        return [tuple(e) for e in self.elements]

    def contains(self, tup):
        """True / False / None (inconclusive: absent but the closure was cut short)."""
        if len(tup) != self.exponent:
            raise AlgebraError(
                f"tuple length {len(tup)} does not match exponent {self.exponent}"
            )
        if bytes(tup) in self.position:
            return True
        return None if self.truncated else False

    def witness_term(self, tup) -> TermTree:
        """A term evaluating to `tup` on the generators (coordinatewise)."""
        key = bytes(tup)
        if key not in self.position:
            raise AlgebraError(f"tuple {tuple(tup)} is not a member")
        gen_pos = {}
        for j, g in enumerate(self.generators):
            gen_pos.setdefault(g, j)
        memo = {}

        def build(i):
            if i in memo:
                return memo[i]
            w = self.witnesses[i]
            if w is None:
                t = TermTree.variable(gen_pos[self.elements[i]])
            else:
                op_i, parents = w
                t = TermTree.node(
                    self.base.operations[op_i].name, [build(p) for p in parents]
                )
            memo[i] = t
            return t

        return build(self.position[key])

    def export_text(self) -> str:
        lines = [f"exponent {self.exponent}", f"count {len(self.elements)}"]
        for e in self.elements:
            lines.append(" ".join(str(v) for v in e))
        return "\n".join(lines) + "\n"


# Closures that reached their fixpoint after at least _MEMO_MIN_STEPS
# operation applications, keyed by operation tables, exponent and generator
# list; at most _MEMO_MAX_ELEMENTS elements are kept over all entries.
_MEMO_MIN_STEPS = 10_000
_MEMO_MAX_ELEMENTS = 50_000
_closures = Memo(limit=_MEMO_MAX_ELEMENTS, weight=lambda entry: len(entry[0]))


def generate(
    base: Algebra,
    m: int,
    generators,
    cap: int | None = None,
    targets=None,
    region=None,
    stop_predicate=None,
    max_steps: int | None = None,
) -> GeneratedSet:
    """Deterministic BFS closure of generator tuples in the power A^m.

    Early exits (all flagged via `truncated` + `stop_reason`):
      - targets: iterable of tuples; stop once every target has appeared;
      - region: set of allowed values; stop once some element lies entirely
        inside it (used for absorption-style tests);
      - stop_predicate: bytes -> bool, stop once it accepts a new element;
      - cap: element-count budget: at most cap elements are kept, and the
        stop reason is "cap" once a further one turns up (a reported state,
        not an error);
      - max_steps: budget on operation applications, for closures whose
        element count stays modest while the combination count explodes.
        Deterministic, so truncation points are reproducible.

    Complete closures of at least _MEMO_MIN_STEPS applications are memoized
    (see `_closures`).  A later call with the same tables, exponent and
    generators is served from the memo when its budgets would have let a
    fresh run finish; the closure order is canonical, so an early exit is a
    prefix of the stored order, and the answer is the one a fresh run gives.
    """
    if cap is None:
        cap = DEFAULT_CAP
    gen_list = _generator_bytes(base, m, generators)
    stop_for = _stop_test(targets, region, stop_predicate)
    key = (table_key(base), m, tuple(gen_list))
    hit = _closures.get(key)
    if hit is not None:
        elements, witnesses, steps = hit
        if len(elements) <= cap and (max_steps is None or max_steps > steps):
            return _replay(base, m, gen_list, elements, witnesses, stop_for)
    gset = _closure(base, m, gen_list, cap, stop_for, max_steps)
    if not gset.truncated:
        steps = _closure_steps(base, len(gset.elements))
        if steps >= _MEMO_MIN_STEPS:
            _closures.put(key, (tuple(gset.elements), tuple(gset.witnesses), steps))
    return gset


def _generator_bytes(base: Algebra, m: int, generators) -> list:
    n = base.domain
    gen_list = []
    for g in generators:
        g = tuple(g)
        if len(g) != m:
            raise AlgebraError(f"generator {g} has length {len(g)}, expected {m}")
        for v in g:
            if not 0 <= v < n:
                raise AlgebraError(f"generator entry {v} out of range")
        gen_list.append(bytes(g))
    if not gen_list:
        raise AlgebraError("no generators")
    return gen_list


def _stop_test(targets, region, stop_predicate):
    """The early-exit test run on each new element: bytes -> stop reason or
    None."""
    target_set = {bytes(t) for t in targets} if targets is not None else None
    region_set = frozenset(region) if region is not None else None

    def stop_for(e: bytes):
        if target_set is not None:
            target_set.discard(e)
            if not target_set:
                return "targets"
        if region_set is not None and set(e) <= region_set:
            return "region"
        if stop_predicate is not None and stop_predicate(e):
            return "predicate"
        return None

    return stop_for


def _closure_steps(base: Algebra, size: int) -> int:
    """Applications of a complete closure with `size` elements.

    Round t applies a k-ary operation to the S_t**k - S_(t-1)**k index
    tuples that use an element of the frontier, so the rounds sum to
    size**k; `max_steps` lets a fresh run finish iff it exceeds this."""
    return sum(size**op.arity for op in base.operations)


def _replay(base, m, gen_list, elements, witnesses, stop_for) -> GeneratedSet:
    """A memoized complete closure, cut where a fresh run's early exit stops.

    The stop test meets the same elements in the same order as in
    `_closure`: the distinct generators until one stops, then each later
    element."""
    stop = None
    count = len(elements)
    ngens = len(set(gen_list))  # the first ngens elements
    for i, e in enumerate(elements):
        stop = stop_for(e)
        if stop:
            count = max(i + 1, ngens)
            break
    gset = GeneratedSet(base=base, exponent=m, generators=list(gen_list))
    gset.elements = list(elements[:count])
    gset.witnesses = list(witnesses[:count])
    gset.position = dict(zip(gset.elements, range(count)))
    if stop:
        gset.truncated = True
        gset.stop_reason = stop
    return gset


def _closure(base, m, gen_list, cap, stop_for, max_steps) -> GeneratedSet:
    """The breadth-first closure itself (no memo); see `generate`."""
    gset = GeneratedSet(base=base, exponent=m, generators=list(gen_list))
    elements = gset.elements
    position = gset.position
    witnesses = gset.witnesses
    ints = []
    stop = None

    def admit(res, witness):
        # the one place an element joins the closure; the cap is checked first
        nonlocal stop
        if len(elements) >= cap:
            stop = stop or "cap"
            return
        position[res] = len(elements)
        elements.append(res)
        ints.append(int.from_bytes(res, "big"))
        witnesses.append(witness)
        stop = stop or stop_for(res)

    for g in gen_list:
        if g not in position:
            admit(g, None)
    appliers = [_Applier(op) for op in base.operations]
    known = position.__contains__

    steps_left = max_steps
    fstart = 0
    while fstart < len(elements) and not stop:
        size = len(elements)
        if size >= _ROW_MIN:
            lanes = int.from_bytes(b"".join(elements), "big")
            front_lanes = lanes & ((1 << (8 * m * (size - fstart))) - 1)
        for op_i, ap in enumerate(appliers):
            if stop:
                break
            if ap.fast:
                lut = ap.lut
                for prefix, acc, lo in _prefix_rows(ap.coeffs[:-1], ints, size, fstart):
                    width = size - lo
                    if width < _ROW_MIN:
                        for t in range(lo, size):
                            res = (acc + ints[t]).to_bytes(m, "big").translate(lut)
                            if res not in position:
                                admit(res, (op_i, prefix + (t,)))
                                if stop:
                                    break
                    else:
                        row = _row_split(m, width)((
                            int.from_bytes(acc.to_bytes(m, "big") * width, "big")
                            + (front_lanes if lo else lanes)
                        ).to_bytes(m * width, "big").translate(lut))
                        if not all(map(known, row)):
                            for t, res in enumerate(row, lo):
                                if res not in position:
                                    admit(res, (op_i, prefix + (t,)))
                                    if stop:
                                        break
                    if stop:
                        break
                    if steps_left is not None:
                        steps_left -= width
                        if steps_left <= 0:
                            stop = "steps"
                            break
            else:
                nsteps = 0
                for args in _frontier_tuples(size, fstart, ap.arity):
                    res = ap.apply_slow([elements[idx] for idx in args], m)
                    if res not in position:
                        admit(res, (op_i, args))
                        if stop:
                            break
                    nsteps += 1
                    if steps_left is not None and nsteps >= steps_left:
                        stop = "steps"
                        break
                if steps_left is not None:
                    steps_left -= nsteps
        fstart = size

    if stop:
        gset.truncated = True
        gset.stop_reason = stop
    return gset


# Rows shorter than this are evaluated one element at a time: below it the
# conversions of a whole-row step cost more than they save.
_ROW_MIN = 8


@functools.lru_cache(maxsize=64)
def _row_split(m: int, width: int):
    """Splits `width` concatenated m-byte elements into a tuple of bytes."""
    return struct.Struct(f"{m}s" * width).unpack


def _prefix_rows(coeffs, ints, size, fstart):
    """The (k-1)-prefixes of argument indices over range(size), in lex order.

    Yields (prefix, lane sum, lo): `coeffs` weighs the prefix's elements
    `ints`, and the prefix's row is last indices lo..size-1, where lo is 0
    if the prefix uses the frontier [fstart, size), else fstart."""
    if not coeffs:
        yield (), 0, fstart
        return
    c = coeffs[-1]
    for prefix, acc, lo in _prefix_rows(coeffs[:-1], ints, size, fstart):
        for i in range(size):
            yield prefix + (i,), acc + c * ints[i], lo if i < fstart else 0


def _frontier_tuples(size, fstart, k):
    """Index tuples over range(size) with >= 1 index in [fstart, size), lex order."""

    def rec(prefix, used_frontier, depth):
        if depth == k - 1:
            lo = 0 if used_frontier else fstart
            for i in range(lo, size):
                yield prefix + (i,)
        else:
            for i in range(size):
                yield from rec(prefix + (i,), used_frontier or i >= fstart, depth + 1)

    return rec((), False, 0)


def sg(base: Algebra, subset) -> GeneratedSet:
    """Subuniverse generated by a set of domain elements (power m = 1).

    No `cap`: a closure in A^1 has at most n elements, and a cut-off one is
    not a subuniverse."""
    return generate(base, 1, [(x,) for x in subset])


def sg_closure(base: Algebra, subset) -> tuple:
    """Sorted elements of Sg(subset)."""
    g = sg(base, subset)
    return tuple(sorted(e[0] for e in g.elements))


def term_closure(base: Algebra, k: int, cells, **budgets) -> GeneratedSet:
    """The values of every k-ary term on the argument cells.

    The closure of the k columns of `cells` (k-tuples over the domain) in
    A^len(cells): element j of a member is t(cells[j]) for one k-ary term t,
    and a complete closure holds every such value vector.  This is the one
    encoding of term conditions (Freese & Valeriote, IJAC 2009); `budgets`
    (cap, targets, region, stop_predicate, max_steps) go to `generate`.  `k`
    is explicit because `cells` may be empty.
    """
    cells = list(cells)
    return generate(base, len(cells), [tuple(c[j] for c in cells) for j in range(k)],
                    **budgets)


def find_term(base: Algebra, k: int, cells, target, cap=None, max_steps=None):
    """Is there a k-ary term t with t(cells[j]) = target[j] for every j?

    Returns (True, witness term) / (False, None) / (None, None) when the
    closure was cut short without reaching the target."""
    gset = term_closure(base, k, cells, cap=cap, targets=[target], max_steps=max_steps)
    found = gset.contains(target)
    return found, gset.witness_term(target) if found else None


def free_algebra(base: Algebra, k: int, cap=None, **kw) -> GeneratedSet:
    """Closure of the k projections in A^(n^k); complete => exactly Clo_k(A).

    Each element, read as a value sequence, is the row-major table of a
    k-ary term operation.
    """
    if k < 1:
        raise AlgebraError(f"free_algebra arity must be >= 1, got {k}")
    return term_closure(base, k, itertools.product(range(base.domain), repeat=k),
                        cap=cap, **kw)


def clone_membership(base: Algebra, op: OperationTable, cap=None, max_steps=None):
    """Is op a term operation of base?  Returns (True, witness) / (False, None)
    / (None, None) when the search was truncated without a hit."""
    if op.domain != base.domain:
        raise AlgebraError("clone_membership: domain mismatch")
    return find_term(base, op.arity, op.all_args(), op.values,
                     cap=cap, max_steps=max_steps)


def _rotation_permutation(n: int, k: int):
    """Position permutation induced by cyclically shifting arguments."""
    cells = list(itertools.product(range(n), repeat=k))
    pos = {cell: i for i, cell in enumerate(cells)}
    return [pos[cell[1:] + cell[:1]] for cell in cells]


def cyclic_terms(base: Algebra, k: int, cap=None, limit=None, max_steps=None):
    """k-ary cyclic term operations, in generation order.

    Returns (tables, complete).  complete=False means the closure was cut
    short (by cap or limit), so the list is a lower bound only.
    """
    if k < 2:
        raise AlgebraError(f"cyclic_terms arity must be >= 2, got {k}")
    n = base.domain
    perm = _rotation_permutation(n, k)
    rng = range(len(perm))

    hits = []

    def is_cyclic_elem(e):
        return all(e[i] == e[perm[i]] for i in rng)

    if limit is None:
        gset = free_algebra(base, k, cap=cap, max_steps=max_steps)
        for e in gset.elements:
            if is_cyclic_elem(e):
                hits.append(e)
    else:
        def predicate(e):
            if is_cyclic_elem(e):
                hits.append(e)
                return len(hits) >= limit
            return False

        gset = free_algebra(base, k, cap=cap, max_steps=max_steps,
                            stop_predicate=predicate)

    tables = [
        OperationTable(f"c{i}", k, n, tuple(e)) for i, e in enumerate(hits)
    ]
    return tables, not gset.truncated


def has_cyclic_term(base: Algebra, k: int, cap=None, max_steps=None):
    """True / False / None (inconclusive); early exit on the first cyclic term."""
    tables, complete = cyclic_terms(base, k, cap=cap, limit=1, max_steps=max_steps)
    if tables:
        return True
    return False if complete else None


@dataclass
class RabReport:
    """Analysis of R = Sg{(a,b),(b,a)} inside A^2."""

    relation: GeneratedSet
    kind: str | None  # "automorphism-graph" | "linked" | "other"; None = inconclusive
    diagonal: list  # [(c, TermTree)] for each (c, c) in R -- loop witnesses
    link_tolerances: tuple  # (tol1, tol2) as sorted tuples of pairs
    link_congruences: tuple  # (blocks1, blocks2) as tuples of sorted-tuple blocks


def rab_analyze(base: Algebra, a: int, b: int, cap=None) -> RabReport:
    """Classify R_ab = Sg{(a,b),(b,a)} and report its diagonal and links."""
    if a == b:
        raise AlgebraError("rab_analyze requires a != b")
    rel = term_closure(base, 2, [(a, b), (b, a)], cap=cap)
    pairs = [tuple(e) for e in rel.elements]
    left = {}
    right = {}
    for x, y in pairs:
        left.setdefault(x, set()).add(y)
        right.setdefault(y, set()).add(x)

    diagonal = [(x, rel.witness_term((x, x))) for x, y in sorted(pairs) if x == y]

    tol1 = sorted(
        (x1, x2)
        for x1 in left
        for x2 in left
        if x1 != x2 and left[x1] & left[x2]
    )
    tol2 = sorted(
        (y1, y2)
        for y1 in right
        for y2 in right
        if y1 != y2 and right[y1] & right[y2]
    )

    def closure_blocks(universe, tol):
        uf = UnionFind(base.domain)
        for x, y in tol:
            uf.union(x, y)
        return uf.blocks(universe)

    blocks1 = closure_blocks(left, tol1)
    blocks2 = closure_blocks(right, tol2)

    if rel.truncated:
        kind = None
    elif all(len(v) == 1 for v in left.values()) and all(
        len(v) == 1 for v in right.values()
    ):
        kind = "automorphism-graph"
    elif len(blocks1) == 1 and len(blocks2) == 1:
        kind = "linked"
    else:
        kind = "other"

    return RabReport(
        relation=rel,
        kind=kind,
        diagonal=diagonal,
        link_tolerances=(tuple(tol1), tuple(tol2)),
        link_congruences=(blocks1, blocks2),
    )
