"""Closure computation inside finite powers A^m.

This is the engine behind free algebras / clone membership, cyclic-term
search and the binary relation Sg{(a,b),(b,a)}.  A subuniverse of A itself
is a fixpoint read off the tables (`sg_closure`), with no closure in a power.

Power tuples are stored as `bytes`, one byte per coordinate (so a domain
has at most 256 elements), and the closure order is canonical:
breadth-first rounds, operations in declaration order, argument index
tuples in lexicographic order restricted to those using at least one
element of the current frontier.  Witness links always reference strictly
earlier elements.

An operation whose table is invariant under every permutation of its
arguments is applied only to nondecreasing index tuples, and a ternary one
invariant under their rotation only to the least rotation of each tuple:
one tuple per argument orbit (see `_prefix_rows`).  Every other tuple of an
orbit gives the same value as its least one, which comes first and uses the
frontier iff it does, so the closure keeps the same elements, order and
witnesses as a walk over every tuple, with about k! (symmetric) or 3
(cyclic) times fewer applications.

A closure's m cells are the argument tuples (g_1[j], ..., g_k[j]) of its
k generators: each element is the value vector of a k-ary term on them.
Where the cells are distinct and a permutation s of the k variables keeps
their set, s is a fixed permutation of the m coordinates that commutes with
every operation applied coordinatewise, and the closure is a union of its
orbits: all of S_k for a Clo_k (`free_algebra`, `cyclic_terms`,
`clone_membership` on all cells), S_3 for the edge walk's majority cells
and for absorption patterns, the reversal for the Mal'cev cells.  Such a
closure, of an algebra with an operation of arity at least 3, switches to
the variable-orbit walk at the first round end with at least _ORBIT_MIN
elements (see `_symmetries`).
At each round end from then on (at the switch, over every element) the
round's new elements are met in order: an element in no earlier element's
orbit is its orbit's representative, and its missing images join, each
with the image of its witness, (op, (s.p1, ..., s.pk)) for the images s.pj
of its parents, which are earlier.  The rows then walk positions in a
layout (`_OrbitLayout`) that lists the orbits one after another, each in
admission order, so its representative comes first; element indices,
witnesses and admission order stay as they are.  Every row of an operation
of arity at least 2 starts with a representative r: any other first
argument s.r gives s applied to a value of a row that starts with r.  As a
symmetric or cyclic operation's later arguments come no earlier in the
layout than r, they lie in orbits no earlier than r's, so each orbit of
argument tuples under the variable maps and the operation's own symmetry
is met about once.  Where some maps H fix r, a second argument y is skipped
unless it comes first in the layout among its images under H:
h.(r, y, z) = (r, h.y, h.z) gives h.op(r, y, z), which joins as an image.
The closure ends with the same elements as the plain walk, in another
order, which depends only on completed rounds, never on targets or the
budget.  T4,5's Clo_3 takes 310,995 applications, against 1,786,575 for
the plain walk and 297,809 orbits of argument tuples.

At the same switch the closure reads a second symmetry off its cells, the
coordinate view (`_View`).  An automorphism g of A that keeps the set of
cells gives t(g.c) = g(t(c)) for every term t, and in an idempotent
algebra t(a, ..., a) = a; so one cell per orbit of those automorphisms,
constant cells aside, fixes a term's values on all m.  From then on the
rows, their integers and the membership test work on those kept
coordinates only, and each new element is expanded to all m by one getter,
one lane offset and one `translate`.  The elements, their order,
witnesses, stop tests and applications stay exactly as without the view:
T4,5's Clo_3 keeps 30 of 64 bytes an element, T4,10's 15.

Every operation is applied by one row kernel of lane arithmetic.  An
operation with c = n**arity cells gets a lane width w: 1 byte when
c <= 256, 2 bytes when c <= 65536, 4 bytes beyond.  Read as a big-endian
integer with each coordinate in its own w-byte lane, an element holds one
coordinate per lane; sum_j n**(k-1-j) * x_j then holds, in each lane, the
row-major cell index of that coordinate's argument tuple (below c, so no
lane carries into the next).  A lookup maps cell indices to values: for
1-byte lanes `bytes.translate` by the operation's table, for wider ones a
cached big-endian `struct` unpack of the lanes mapped through the table.
The argument tuples are walked as rows: each (k-1)-prefix of indices, then
every last index of its row in one step.  A row is a suffix start..S-1 of
the round's S elements: the frontier suffix for a prefix outside the
frontier, and a later start for an orbit row.  The last argument's weight
is 1, so the row's lanes are the prefix's lane sum repeated once per
element (by `bytes` repetition) plus the concatenated elements of the
suffix: per lane width in use, one integer holding the whole round and one
its frontier suffix, built once per round (any other suffix is masked off
the whole round).  One `to_bytes`, one lookup and a cached
`struct` split then give the row's results, and only those not yet present
go through the insert path.  With 1-byte lanes, rows shorter than
_ROW_MIN are evaluated element by element, where the whole-row conversions
cost more than they save.  Memory stays O(size * m * w): per round two
integers of the round's elements per lane width, per row one row; nothing
is replicated per element (the variable-orbit walk adds an index, an
integer reference and two bit masks per element, the view a key and its
index).  Wide lanes are built only for a closure with an operation that
needs them.  The kernel counts the applications it makes, per completed
row, the same way for every operation (`GeneratedSet.applications`); the
step budget (`max_steps`) reads that count.  No closure is kept between
calls; a caller that needs several answers from one closure reads them off
it (see `structure.edge_records`).  The kernel (`_kernel`) is a generator
that yields at each stop: inside one `decide_term` call, a probe stopped on
steps stays paused at its row end, and the global closure goes on from there
instead of repeating the probe's steps.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from dataclasses import dataclass, field

from .core import (Algebra, AlgebraError, OperationTable, UnionFind, _composed_values,
                   argument_cells, cell_getter, check_budget, image_cells, relabeling)
from .memo import per_algebra

# The element ceiling of every closure `generate` runs: a guard on memory,
# not a work budget.  A closure that meets it stops with reason "cap".
MAX_ELEMENTS = 5_000_000

# The same ceiling on the bytes a closure's elements hold, one per
# coordinate: a closure in A^m keeps at most MAX_BYTES // m elements.  The
# kernel's round and row integers take a few times as much again.
MAX_BYTES = 1 << 27

# The most argument cells n**k a k-ary question over n elements may list (a
# free algebra, a cyclic term search, an absorption test; `check_cells`): a
# guard on memory.  Clo_3 of a 9-element algebra has 729 cells.
MAX_CELLS = 65_536


@dataclass(frozen=True, eq=False)
class TermTree:
    """Term over an algebra's basic operations; leaves are variable indices.

    Terms are equal when they spell the same tree, however their subterms
    are shared, and equal terms hash alike.  Both visit each distinct node
    once (`_distinct_nodes`), so a shared term costs time linear in its
    nodes, not in its tree.  The generated `__repr__` still writes the
    tree out."""

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

    def __eq__(self, other):
        if not isinstance(other, TermTree):
            return NotImplemented
        shapes = {}  # (op, var, child shape numbers) -> number, over both terms
        return self is other or _shape(self, shapes) == _shape(other, shapes)

    def __hash__(self):
        got = {}  # id(node) -> its hash
        for t in _distinct_nodes(self):
            got[id(t)] = hash((t.op, t.var, tuple(got[id(c)] for c in t.children)))
        return got[id(self)]


def _shape(tree: TermTree, shapes: dict) -> int:
    """The number `shapes` gives the tree `tree` spells: one per distinct
    (op, var, children's numbers), assigned as met."""
    got = {}  # id(node) -> its number
    for t in _distinct_nodes(tree):
        key = (t.op, t.var, tuple(got[id(c)] for c in t.children))
        got[id(t)] = shapes.setdefault(key, len(shapes))
    return got[id(tree)]


def render_term(tree: TermTree, names) -> str:
    """Fully parenthesized prefix form, e.g. g(x, g(x, y, z), z); one string per node."""
    text = {}  # id(node) -> its string
    for t in _distinct_nodes(tree):
        text[id(t)] = (names[t.var] if t.op is None else
                       f"{t.op}({', '.join(text[id(c)] for c in t.children)})")
    return text[id(tree)]


def term_values(tree: TermTree, alg: Algebra, cells) -> tuple:
    """The term's value on each cell (argument tuple), in order: the one
    term evaluator.  Each distinct node is one column of values over all the
    cells, a variable's the cells' coordinate and a node's its operation on
    its children's columns.  AlgebraError for a cell entry outside the
    domain, a variable outside the arity (the shortest cell's length) or a
    node with the wrong number of children."""
    cells = list(cells)
    columns = list(zip(*cells))  # one per variable
    alg.check_elements(*set().union(*columns))
    got = {}  # id(node) -> its column
    for t in _distinct_nodes(tree):
        if t.op is None:
            if cells and not 0 <= t.var < len(columns):
                raise AlgebraError(f"variable {t.var} outside arity {len(columns)}")
            got[id(t)] = columns[t.var] if cells else ()
            continue
        op = alg.op(t.op)
        if len(t.children) != op.arity:
            raise AlgebraError(f"operation {op.name}: expected {op.arity} arguments, "
                               f"got {len(t.children)}")
        got[id(t)] = _composed_values(op.values, op.domain, [got[id(c)] for c in t.children])
    return got[id(tree)]


def eval_term(tree: TermTree, alg: Algebra, args) -> int:
    """The term's value on one argument tuple (`term_values`)."""
    return term_values(tree, alg, [args])[0]


def eval_term_table(tree: TermTree, alg: Algebra, arity: int) -> OperationTable:
    """The term operation's full table: its values on the n**arity cells in
    row-major order (`term_values`)."""
    cells = itertools.product(range(alg.domain), repeat=arity)
    return OperationTable("t", arity, alg.domain, term_values(tree, alg, cells))


def substitute(tree: TermTree, args) -> TermTree:
    """The term tree(args[0], args[1], ...): variable i becomes the term
    args[i].  A node shared in `tree` is built once, so it stays shared,
    and a subterm that comes out unchanged is the same node."""
    built = {}  # id(node) -> its image
    for t in _distinct_nodes(tree):
        if t.op is None:
            built[id(t)] = args[t.var]
            continue
        children = tuple(built[id(c)] for c in t.children)
        same = all(map(operator.is_, children, t.children))
        built[id(t)] = t if same else TermTree.node(t.op, children)
    return built[id(tree)]


def _distinct_nodes(tree: TermTree) -> list:
    """Each distinct node of `tree` once, after its children.  No recursion:
    a composed term may be deeper than the interpreter's recursion limit.
    A node is expanded once; in a tree without cycles every node below it
    is listed before it."""
    order, seen, stack = [], set(), [(tree, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
        elif id(t) not in seen:
            seen.add(id(t))
            stack.append((t, True))
            stack.extend((c, False) for c in t.children)
    return order


class _Applier:
    """One basic operation as a lane step: lane width, argument weights, the
    lookup from cell index to value and the argument orbits it walks."""

    __slots__ = ("lane", "coeffs", "lut", "values", "orbit")

    def __init__(self, op: OperationTable):
        cells = op.domain**op.arity
        self.lane = 1 if cells <= 256 else 2 if cells <= 65536 else 4
        self.coeffs = tuple(op.domain ** (op.arity - 1 - j) for j in range(op.arity))
        self.values = op.values
        self.lut = bytes(op.values) + bytes(256 - cells) if self.lane == 1 else None
        self.orbit = _orbit_kind(op.domain, op.arity, op.values)

    def lookup(self, cells: bytes, count: int) -> bytes:
        """The values at `count` cell indices held in big-endian lanes."""
        return bytes(map(self.values.__getitem__, _lane_split(self.lane, count)(cells)))


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
    stop_reason: str | None = None  # "steps" | "cap" | "targets" | "predicate"
    applications: int = 0  # made by the kernel in completed rows, as `max_steps` counts
    rounds: int = 0  # breadth-first rounds the kernel started

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
        if _checked_bytes(tup, self.base.domain, "tuple") in self.position:
            return True
        return None if self.truncated else False

    def witness_term(self, tup) -> TermTree:
        """A term evaluating to `tup` on the generators (coordinatewise)."""
        key = bytes(tup)
        if key not in self.position:
            raise AlgebraError(f"tuple {tuple(tup)} is not a member")
        root = self.position[key]
        below, stack = {root}, [root]  # the elements the root's links reach
        while stack:
            w = self.witnesses[stack.pop()]
            for p in w[1] if w is not None else ():
                if p not in below:
                    below.add(p)
                    stack.append(p)
        gen_pos = {g: j for j, g in reversed(list(enumerate(self.generators)))}  # first index
        names = [op.name for op in self.base.operations]
        built = {}  # element index -> its term, one shared subterm per element
        for i in sorted(below):  # a link names earlier elements, built first
            w = self.witnesses[i]
            built[i] = (TermTree.variable(gen_pos[self.elements[i]]) if w is None else
                        TermTree.node(names[w[0]], [built[p] for p in w[1]]))
        return built[root]

    def export_text(self) -> str:
        lines = [f"exponent {self.exponent}", f"count {len(self.elements)}"]
        for e in self.elements:
            lines.append(" ".join(str(v) for v in e))
        return "\n".join(lines) + "\n"


def check_cells(n: int, k: int, what: str):
    """Reject a k-ary question over n elements with more than MAX_CELLS
    argument cells, before any of them is listed."""
    if n**k > MAX_CELLS:
        raise AlgebraError(f"{what} arity {k} gives {n}**{k} argument cells, "
                           f"above the {MAX_CELLS} limit")


def generate(
    base: Algebra,
    m: int,
    generators,
    targets=None,
    stop_predicate=None,
    max_steps: int | None = None,
    _resume: list | None = None,
) -> GeneratedSet:
    """Deterministic BFS closure of generator tuples in the power A^m.

    Early exits (all flagged via `truncated` + `stop_reason`):
      - targets: iterable of tuples; stop once every target has appeared;
      - stop_predicate: bytes -> bool, stop once it accepts a new element
        (absorption passes `B.issuperset`: an element inside B);
      - max_steps: the work budget, at least 1: the operation applications
        made (one per argument orbit of a symmetric or cyclic operation, see
        `_prefix_rows`).  Spent per row of applications; deterministic, so
        truncation points are reproducible.  The stop reason is "steps".

    Every closure also stops at MAX_ELEMENTS elements, and at MAX_BYTES
    bytes of elements (an exponent-0 closure at MAX_ELEMENTS), with reason
    "cap".
    Each call runs its own closure: nothing is kept between calls, so the
    answer never depends on what ran earlier in the process.  The one
    exception is private to `decide_term`, which passes `_resume`, a list
    it owns: a closure that stops on steps leaves its paused kernel there,
    and the next call with that list continues it under its own (larger)
    `max_steps` instead of starting over, with the same arguments.  The
    closure order does not depend on the budget, so the continued closure
    is the fresh one at that budget.  No kernel is kept on a GeneratedSet.
    """
    check_budget(max_steps)
    if _resume:
        kernel = _resume.pop()
        gset = kernel.send(max_steps)
    else:
        gen_list = _generator_bytes(base, m, generators)
        if targets is not None:
            targets = [_checked_bytes(t, base.domain, "target") for t in targets]
        cap = min(MAX_ELEMENTS, MAX_BYTES // m) if m else MAX_ELEMENTS
        gset = _closure(base, m, gen_list, cap, _stop_test(targets, stop_predicate), max_steps)
        kernel = vars(gset).pop("_paused", None)
    if _resume is not None and gset.stop_reason == "steps":
        _resume.append(kernel)
    return gset


def _generator_bytes(base: Algebra, m: int, generators) -> list:
    n = base.domain
    if n > 256:
        raise AlgebraError(
            f"closures hold one byte per coordinate: domain {n} is above the "
            "256-element limit")
    gen_list = []
    for g in generators:
        if type(g) is not bytes:
            g = tuple(g)
        if len(g) != m:
            raise AlgebraError(f"generator {tuple(g)} has length {len(g)}, expected {m}")
        gen_list.append(_checked_bytes(g, n, "generator"))
    if not gen_list:
        raise AlgebraError("no generators")
    return gen_list


def _checked_bytes(tup, n: int, what: str) -> bytes:
    """`tup` as bytes; an AlgebraError names its first entry outside 0..n-1."""
    try:
        b = bytes(tup)
    except ValueError:  # an entry outside 0..255
        b = None
    if b is None or (b and max(b) >= n):
        bad = next(v for v in tup if not 0 <= v < n)
        raise AlgebraError(f"{what} entry {bad} out of range")
    return b


def _stop_test(targets, stop_predicate):
    """The early-exit test run on each new element: bytes -> stop reason or
    None."""
    target_set = {bytes(t) for t in targets} if targets is not None else None

    def stop_for(e: bytes):
        if target_set is not None:
            target_set.discard(e)
            if not target_set:
                return "targets"
        if stop_predicate is not None and stop_predicate(e):
            return "predicate"
        return None

    return stop_for


@functools.lru_cache(maxsize=256)
def _orbit_kind(n: int, k: int, values: tuple):
    """Which argument orbits the kernel walks one tuple of: "symmetric" for
    a table invariant under every permutation of its arguments, "cyclic" for
    a ternary one invariant under their rotation only, else None (every
    tuple, as for a unary table)."""
    if k < 2 or argument_cells(n, (*range(1, k), 0))(values) != values:
        return None
    if argument_cells(n, (1, 0, *range(2, k)))(values) == values:
        return "symmetric"
    return "cyclic" if k == 3 else None


def _closure(base, m, gen_list, cap, stop_for, max_steps) -> GeneratedSet:
    """The breadth-first closure itself, to its first stop; see `generate`
    and `_kernel`.  One that stops on steps carries its paused kernel as
    `_paused`, which `generate` takes off before it returns."""
    kernel = _kernel(base, m, gen_list, cap, stop_for, max_steps)
    gset = next(kernel)
    if gset.stop_reason == "steps":
        gset._paused = kernel
    return gset


def _kernel(base, m, gen_list, cap, stop_for, max_steps):
    """The closure as a generator that yields its GeneratedSet at each
    stop.  At most `cap` elements are kept: the stop reason is "cap" once a
    further one turns up.  A stop on steps falls at a row end, where the
    witnesses are made to name indices as at a round end; sent a budget no
    smaller (or None), the kernel goes on from that row end."""
    gset = GeneratedSet(base=base, exponent=m, generators=list(gen_list))
    elements = gset.elements
    position = gset.position
    witnesses = gset.witnesses
    # what the rows work on: each element's key (the element, or its
    # coordinates kept by the view once that is on), their index, their
    # integers of 1-byte lanes and their length
    keys, seen, ints, coords = elements, position, [], m
    stop = None

    def admit(key, witness, res):
        # the one place an element joins the closure; the cap is checked first
        nonlocal stop
        if len(elements) >= cap:
            stop = stop or "cap"
            return
        position[res] = len(elements)
        elements.append(res)
        if keys is not elements:
            seen[key] = len(keys)
            keys.append(key)
        ints.append(int.from_bytes(key, "big"))
        witnesses.append(witness)
        stop = stop or stop_for(res)

    for g in gen_list:
        if g not in position:
            admit(g, None, g)
    appliers = [_Applier(op) for op in base.operations]
    # the walked keys in each wider lane width that some operation needs
    wide = {ap.lane: [] for ap in appliers if ap.lane > 1}
    known = seen.__contains__
    # the variable maps and the view, read off the generators at the first
    # round end with _ORBIT_MIN elements; `layout` is the variable-orbit
    # walk's order of the elements once it is on
    var_maps = view = layout = None
    switched = False

    applications = 0
    limit = math.inf if max_steps is None else max_steps
    fstart = 0
    while fstart < len(elements) and not stop:
        size = len(elements)
        named = size  # the witnesses from here on name positions in the layout
        gset.rounds += 1
        if layout is None:
            walked, walked_ints = keys, ints
        else:  # the keys in the layout's order
            walked, walked_ints = list(map(keys.__getitem__, layout.order)), layout.ints
        for w, wints in wide.items():
            wints.extend(int.from_bytes(_widen(e, w), "big") for e in walked[len(wints):])
        # per lane width: the whole round and its frontier suffix as one integer
        # (1-byte lanes only take the row step from _ROW_MIN elements on)
        round_lanes = {}
        for w in (1, *wide) if size >= _ROW_MIN else wide:
            lanes = int.from_bytes(_widen(b"".join(walked), w), "big")
            round_lanes[w] = lanes, lanes & ((1 << (8 * w * coords * (size - fstart))) - 1)
        for op_i, ap in enumerate(appliers):
            if stop:
                break
            lut, wm = ap.lut, ap.lane * coords
            wints = walked_ints if lut else wide[ap.lane]
            lanes, front_lanes = round_lanes.get(ap.lane, (0, 0))
            for prefix, acc, start in _prefix_rows(ap.coeffs[:-1], wints, size, fstart,
                                                   ap.orbit, layout):
                width = size - start
                if width < _ROW_MIN and lut:
                    for t in range(start, size):
                        res = (acc + wints[t]).to_bytes(coords, "big").translate(lut)
                        if res not in seen:
                            admit(res, (op_i, prefix + (t,)),
                                  res if view is None else view.expand(res))
                            if stop:
                                break
                else:
                    if not start:
                        tail = lanes
                    elif start == fstart:
                        tail = front_lanes
                    else:
                        tail = lanes & ((1 << (8 * wm * width)) - 1)
                    cells = (
                        int.from_bytes(acc.to_bytes(wm, "big") * width, "big") + tail
                    ).to_bytes(wm * width, "big")
                    row = _row_split(coords, width)(
                        cells.translate(lut) if lut else ap.lookup(cells, coords * width)
                    )
                    if not all(map(known, row)):
                        for t, res in enumerate(row, start):
                            if res not in seen:
                                admit(res, (op_i, prefix + (t,)),
                                      res if view is None else view.expand(res))
                                if stop:
                                    break
                if stop:
                    break
                applications += width
                while applications >= limit:  # a stop on steps, paused at this row end
                    if layout is not None:
                        named = layout.name_indices(witnesses, named, len(elements))
                    gset.applications = applications
                    gset.truncated, gset.stop_reason = True, "steps"
                    budget = yield gset
                    limit = math.inf if budget is None else budget
                    gset.truncated, gset.stop_reason = False, None
        new = len(elements)
        fstart = size
        if layout is not None:
            layout.name_indices(witnesses, named, new)
        if not switched and new >= _ORBIT_MIN and new > size and not stop:
            # the walked keys or their order change from the next round on
            switched = True
            var_maps, view = _symmetries(base, gen_list)
            for wints in wide.values():
                wints.clear()
            if view is not None:  # the rows go on over the kept coordinates
                keys = list(map(view.reduce, elements))
                seen = {key: i for i, key in enumerate(keys)}
                ints[:] = [int.from_bytes(key, "big") for key in keys]
                coords, known = view.coords, seen.__contains__
        if var_maps and new > size and not stop:
            # the round's new elements (all elements when the walk switches
            # on) in order: each is a representative unless an earlier element
            # is one of its images; its missing images join, each with the
            # image of its witness
            orbits = []
            for i in range(0 if layout is None else size, new):
                e = elements[i]
                witness = witnesses[i]
                images = [bytes(perm(e)) for perm in var_maps]
                if any(position.get(img, new) < i for img in images):
                    continue
                for perm, img in zip(var_maps, images):
                    if img not in position:
                        admit(img if view is None else view.reduce(img),
                              (witness[0], tuple(position[bytes(perm(elements[p]))]
                                                 for p in witness[1])), img)
                        if stop:
                            break
                if stop:
                    break
                orbits.append((i, [position[img] for img in images]))
            if not stop:
                if layout is None:  # the walk starts over in the layout's order
                    layout = _OrbitLayout(var_maps, m)
                layout.extend(orbits, size, ints)
                fstart = layout.fstart

    gset.applications = applications
    if stop:
        gset.truncated = True
        gset.stop_reason = stop
    yield gset


class _OrbitLayout:
    """The order the variable-orbit walk lists a Clo_k's elements in: the
    orbits one after another, each in admission order, so its representative
    comes first.  The rows walk positions in it; element indices stay in
    admission order.

    Per position: the element's index (`order`) and integer of 1-byte lanes
    (`ints`), the bit mask of the variable maps that send it to an earlier
    position (`down`; within an orbit, positions follow indices) and, at a
    representative, the mask of the maps that fix it (`stabs`, else 0).
    `firsts` lists the representatives' positions; the frontier is the
    suffix from `fstart`.  `after[t][s]` is the index of map s after map t
    (-1 for the identity), read once off the maps' images of range(m), so
    a member's `down` mask comes from its representative's image indices
    alone."""

    __slots__ = ("order", "ints", "down", "stabs", "firsts", "fstart", "after")

    def __init__(self, var_maps, m: int):
        self.order, self.ints, self.down, self.stabs, self.firsts = [], [], [], [], []
        self.fstart = 0
        images = [perm(range(m)) for perm in var_maps]
        index = {image: s for s, image in enumerate(images)}
        self.after = [[index.get(perm(image), -1) for perm in var_maps] for image in images]

    def extend(self, orbits, size, ints):
        """Appends the orbits met at a round end: (representative, image
        index per map), in the order met.  Those with every element below
        `size` (there are such only when the walk switches on) go first, so
        that the next round's frontier, the elements from `size` on, lies in
        the suffix of the orbits after them."""
        orbits = [(r, images, sorted({r, *images})) for r, images in orbits]
        orbits.sort(key=lambda o: o[2][-1] >= size)  # stable
        self.fstart = len(self.order) + sum(len(o[2]) for o in orbits if o[2][-1] < size)
        for r, images, members in orbits:
            self.firsts.append(len(self.order))
            self.order.extend(members)
            self.ints.extend(map(ints.__getitem__, members))
            stab = sum(1 << s for s, j in enumerate(images) if j == r)
            self.stabs.extend([stab] + [0] * (len(members) - 1))
            self.down.append(0)
            at = images + [r]  # the image index of each map, the identity's (-1) last
            for j in members[1:]:
                # j is t.r: map s sends it to (s after t).r
                after = self.after[images.index(j)]
                self.down.append(sum(1 << s for s, u in enumerate(after) if at[u] < j))

    def name_indices(self, witnesses, lo: int, hi: int) -> int:
        """Rewrites the links of witnesses lo..hi-1, which the rows wrote as
        positions in the layout, as element indices; returns hi."""
        order = self.order
        for i in range(lo, hi):
            op_i, args = witnesses[i]
            witnesses[i] = op_i, tuple(map(order.__getitem__, args))
        return hi


# Rows of 1-byte lanes shorter than this are evaluated one element at a time:
# below it the conversions of a whole-row step cost more than they save.
_ROW_MIN = 8

# The variable-orbit walk switches on at the first round end with at least
# this many elements.  Over the complete Clo_3 of T3N, T4,3, T4,4, T4,5,
# T4,8, T4,10, T4,11 and T4,13, 16 and 32 give 638,675 applications (T4,5:
# 310,995), 0 and 8 give 637,182 (0.2% fewer), 64 gives 744,417 (T4,3:
# 76,241 against 44,357) and 128 gives 2,161,860.  On the query-mix cyclic
# and clone queries (seeds 1 and 2, best of 5 each, on a shared 2-vCPU
# host), the medians of 0, 8, 16, 32 and 64 and of the plain walk lay within
# 2% of each other in one run and 7% in another, which is host noise: few of
# those closures reach 32 elements.  32 keeps the walk off small closures.
_ORBIT_MIN = 32

# A cell list whose k! variable permutations would take more indices than
# this to test runs the plain walk (the same elements, in the plain order):
# for Clo_10 of a 3-element algebra, 3,628,800 x 59,049 indices.
_ORBIT_MAX_INDICES = 1 << 20

# Automorphisms are sought by trying every bijection of domains up to this
# size; above it the view uses the trivial group (the diagonal alone).
_AUT_MAX_DOMAIN = 5


@per_algebra
def automorphisms(alg: Algebra) -> tuple:
    """The automorphisms of `alg` as tuples of images, in lex order (the
    identity first): every bijection of the domain that commutes with each
    operation (whose relabeling along it, `core.relabeling`, keeps every
    table), tried one by one up to _AUT_MAX_DOMAIN elements; the identity
    alone above.  Memoized by the operation tables (`memo.per_algebra`)."""
    n = alg.domain
    if n > _AUT_MAX_DOMAIN:
        return (tuple(range(n)),)
    return tuple(p for p in itertools.permutations(range(n)) if all(
        relabeling(n, op.arity, p)(op.values) == op.values for op in alg.operations))


def _symmetries(base: Algebra, gen_list: list):
    """(variable maps, view) of a closure, read off its cell list: the m
    cells (g_1[j], ..., g_k[j]) of its k generators.  Each element is then
    the values t(cell) of a k-ary term t on the cells.  A list with a
    repeated cell, or with fewer than two, has neither.

    The variable maps: for each permutation s of the k variables that keeps
    the set of cells, in lex order, the map e -> s.e, (s.e)[c] =
    e[c[s(0)], ..., c[s(k-1)]], as a getter (bytes -> tuple); the same map
    once, and none that moves no coordinate.  s.e is the term t(x_s(0),
    ..., x_s(k-1)) on the cells, so the map keeps the closure; it commutes
    with every operation applied coordinatewise.  None where there is no
    such map, where every operation is at most binary (a row there costs
    less than the images it would spare: T4,14, one binary operation,
    answers has_cyclic_term in 1.5 ms without the walk and 3.5 ms with it)
    or where k! * m exceeds _ORBIT_MAX_INDICES.

    The view (`_View`), or None where it would keep no coordinate or more
    than half of them, or its relabel table would not fit in a byte: each
    element it admits pays an expansion of all m coordinates, so on
    closures that admit about one element per application views keeping
    60 of 64 coordinates cost a quarter more time than none."""
    m, k = len(gen_list[0]), len(gen_list)
    cells = list(zip(*gen_list))
    index = {c: j for j, c in enumerate(cells)}
    if m < 2 or len(index) < m:
        return None, None
    var_maps = {}
    if any(op.arity >= 3 for op in base.operations) and math.factorial(k) * m <= \
            _ORBIT_MAX_INDICES:
        for s in itertools.permutations(range(k)):
            image = tuple(index.get(tuple(map(c.__getitem__, s))) for c in cells)
            if None not in image:
                var_maps.setdefault(image)
        var_maps.pop(tuple(range(m)), None)
    group = [g for g in automorphisms(base)
             if all(tuple(map(g.__getitem__, c)) in index for c in cells)]
    view = _View.of(base, cells, index, group)
    return tuple(map(cell_getter, var_maps)) or None, view


class _View:
    """The coordinates a closure keeps once its cell list has symmetries.

    For an automorphism g of A that keeps the set of cells, a term t has
    t(g.c) = g(t(c)) at every cell c; in an idempotent algebra, t(a, ...,
    a) = a.  So one cell per orbit of those automorphisms (the first in the
    list), the constant cells of an idempotent algebra aside, fixes the
    values on all m cells: reading the kept cells (`reduce`) is one-to-one
    on the closure, and it commutes with every operation applied
    coordinatewise, so the rows run on the `coords` kept coordinates alone.
    `expand` rebuilds an element from them: per cell, the kept value it is
    an image of, offset into the row of its automorphism (or of its
    constant) in a relabel table of (|G| + n) * n entries, which one
    `translate` reads."""

    __slots__ = ("m", "coords", "keep", "getter", "offset", "table")

    @staticmethod
    def of(base, cells, index, group):
        n, m = base.domain, len(cells)
        if (len(group) + n) * n > 256:
            return None
        idempotent = base.is_idempotent()
        kept, codes = [], [None] * m  # per cell: (kept position, table row)
        for j, c in enumerate(cells):
            if codes[j] is not None:
                continue
            if idempotent and c.count(c[0]) == len(c):
                codes[j] = 0, len(group) + c[0]
                continue
            for row, g in enumerate(group):
                i = index[tuple(map(g.__getitem__, c))]
                if codes[i] is None:
                    codes[i] = len(kept), row
            kept.append(j)
        if not 0 < 2 * len(kept) <= m:
            return None
        view = _View()
        view.m, view.coords, view.keep = m, len(kept), cell_getter(kept)
        view.getter = cell_getter([p for p, _ in codes])
        view.offset = int.from_bytes(bytes(row * n for _, row in codes), "big")
        table = bytes(g[v] for g in group for v in range(n)) + bytes(
            a for a in range(n) for _ in range(n))
        view.table = table + bytes(256 - len(table))
        return view

    def reduce(self, e: bytes) -> bytes:
        """The kept coordinates of element `e`."""
        return bytes(self.keep(e))

    def expand(self, key: bytes) -> bytes:
        """The element whose kept coordinates are `key`."""
        full = int.from_bytes(bytes(self.getter(key)), "big") + self.offset
        return full.to_bytes(self.m, "big").translate(self.table)


def _widen(data: bytes, w: int):
    """`data` with each byte in the low end of its own big-endian w-byte lane."""
    if w == 1:
        return data
    wide = bytearray(w * len(data))
    wide[w - 1::w] = data
    return wide


_LANE_FORMAT = {2: "H", 4: "I"}


@functools.lru_cache(maxsize=64)
def _lane_split(w: int, count: int):
    """Splits `count` big-endian w-byte lanes into a tuple of ints."""
    return struct.Struct(f">{count}{_LANE_FORMAT[w]}").unpack


def _row_split(m: int, width: int):
    """Splits `width` concatenated m-byte elements into a tuple of bytes.
    The splitters of rows up to _SPLIT_WIDTH elements wide are cached."""
    if width > _SPLIT_WIDTH:
        return struct.Struct(f"{m}s" * width).unpack
    return _narrow_split(m, width)


# One pass of cert-replay or query-mix meets 120 to 320 (m, width) keys,
# none wider than 174 elements, and a splitter costs about 2.5 us to build
# for 80 fields.  So up to 1,024 splitters are kept, for rows up to 256
# wide: at about 35 bytes a field, at most some 9 MB.  A wider row makes
# its own, at a cost small beside the row's elements; caching those too
# (up to 512 wide) raised query-mix's peak RSS by 1.8 MB, through the
# 500,000-step closures of its checks.
_SPLIT_WIDTH = 256


@functools.lru_cache(maxsize=1024)
def _narrow_split(m: int, width: int):
    return struct.Struct(f"{m}s" * width).unpack


def _prefix_rows(coeffs, ints, size, fstart, orbit, layout):
    """The rows of argument index tuples over range(size), in lex order.

    Yields (prefix, lane sum, start) per (k-1)-prefix of indices: `coeffs`
    weighs the prefix's elements `ints`, and the prefix's row is the last
    indices start..size-1.  Only tuples that use the frontier [fstart, size)
    are walked, and for a symmetric or cyclic operation (`orbit`, see
    `_orbit_kind`) only the least tuple of each argument orbit: the
    nondecreasing tuples, or the least rotations (i, j, l), those with
    j >= i and l >= i + (j > i).  Both are suffix rows of nondecreasing
    prefixes.  A tuple that makes a new element is always the least of its
    orbit (that one comes first, gives the same value and uses the frontier
    iff the tuple does), so the walk admits the same elements with the same
    witnesses as the walk over every tuple.

    With the variable-orbit walk's `layout` (`_OrbitLayout`), the indices
    are its positions, the first index of a prefix runs over the
    representatives only, and a second index y after a representative r
    fixed by some maps H is skipped unless y comes first among its images
    under H: h(r, y, z) = (r, hy, hz) gives h.op(r, y, z), which joins as an
    image.

    One walk, without recursion: a stack of the shorter prefixes still to
    extend, the next on top, each with its lane sum and lo (0 if it uses
    the frontier, else fstart); a prefix one short of k-1 gives its rows in
    a loop of its own."""
    if not coeffs:
        yield (), 0, fstart
        return
    last = len(coeffs) - 1
    stack = [((), 0, fstart)]
    while stack:
        prefix, acc, lo = stack.pop()
        depth = len(prefix)
        if not depth:
            indices = range(size) if layout is None else layout.firsts
        else:
            indices = range(prefix[-1] if orbit else 0, size)
            if depth == 1 and layout is not None and (stab := layout.stabs[prefix[0]]):
                down = layout.down
                indices = [y for y in indices if not down[y] & stab]
        c = coeffs[depth]
        if depth < last:
            stack.extend((prefix + (i,), acc + c * ints[i], lo if i < fstart else 0)
                         for i in reversed(indices))
        elif orbit == "symmetric":  # rows from the prefix's last index on
            for i in indices:
                yield prefix + (i,), acc + c * ints[i], i if i > lo else lo
        elif orbit == "cyclic":  # a prefix (p, i) inside [0, fstart) starts at fstart
            p = prefix[0]
            for i in indices:
                yield prefix + (i,), acc + c * ints[i], fstart if i < fstart else p + (i > p)
        else:
            for i in indices:
                yield prefix + (i,), acc + c * ints[i], lo if i < fstart else 0


def sg_closure(base: Algebra, subset) -> tuple:
    """Sorted elements of the subuniverse Sg(subset): the fixpoint of
    S + f(S^k) over the operations f, each image f(S^k) read off f's table
    through the cached value map `core.image_cells`.  No closure in a power
    runs and there is no budget: the fixpoint is reached within n rounds.
    An empty subset or an element outside the domain is an AlgebraError."""
    subset = tuple(subset)
    if not subset:
        raise AlgebraError("no generators")
    for x in subset:
        if not 0 <= x < base.domain:
            raise AlgebraError(f"generator entry {x} out of range")
    closed = set(subset)
    while True:
        key = tuple(sorted(closed))
        grown = closed.union(*(image_cells(base.domain, op.arity, key)(op.values)
                               for op in base.operations))
        if len(grown) == len(closed):
            return key
        closed = grown


def term_closure(base: Algebra, k: int, cells, **budgets) -> GeneratedSet:
    """The values of every k-ary term on the argument cells.

    The closure of the k columns of `cells` (k-tuples over the domain) in
    A^len(cells): element j of a member is t(cells[j]) for one k-ary term t,
    and a complete closure holds every such value vector.  This is the one
    encoding of term conditions (Freese & Valeriote, IJAC 2009); `budgets`
    (targets, stop_predicate, max_steps) go to `generate`.  `k`
    is explicit because `cells` may be empty.
    """
    cells = list(cells)
    return generate(base, len(cells), term_generators(base, k, cells), **budgets)


def term_generators(base: Algebra, k: int, cells: list) -> list:
    """The generators of `term_closure(base, k, cells)`: the k columns of the
    cells (a list of k-tuples), as checked bytes."""
    return _generator_bytes(base, len(cells), list(zip(*cells))[:k] if cells else [()] * k)


def free_algebra(base: Algebra, k: int, **kw) -> GeneratedSet:
    """Closure of the k projections in A^(n^k); complete => exactly Clo_k(A).

    Each element, read as a value sequence, is the row-major table of a
    k-ary term operation.
    """
    if k < 1:
        raise AlgebraError(f"free_algebra arity must be >= 1, got {k}")
    check_cells(base.domain, k, "free_algebra")
    return term_closure(base, k, itertools.product(range(base.domain), repeat=k), **kw)


def clone_membership(base: Algebra, op: OperationTable, max_steps=None):
    """Is op a term operation of base?  Returns (True, witness) / (False, None)
    / (None, None) when the search was truncated without a hit."""
    if op.domain != base.domain:
        raise AlgebraError("clone_membership: domain mismatch")
    d = decide_term(base, op.arity, op.all_args(), [], max_steps=max_steps, targets=[op.values])
    return d.holds, d.witness(op.values)


# The step budget of the global probe in `decide_term`.  Measured on the
# query-mix algebras (the 2-, 3- and 4-element entries and the products of
# two small entries): every ternary cyclic term that exists is found within
# a budget of 45 steps; a closure that answers "no" needs 11 to 110,593
# steps to finish, and six do not finish within 150,000.  So a probe of
# 1,000 steps keeps the cost of a "yes" and of a cheap "no", and a costly
# "no" goes to the local test.  (A Mal'cev term of an idempotent algebra is
# composed before any probe runs: in the global closure T4,17's needs 8,445
# steps and T4,18's more than 150,000.)
PROBE_STEPS = 1_000


@dataclass(frozen=True)
class Decision:
    """The answer of `decide_term` and the stage that gave it: holds is
    True / False / None (inconclusive).  A global closure's answer (stage
    PROBE or "closure") carries the `closure`, from which `witness(target)`
    reads a target's term (None if absent).  A local stage's "no" carries
    what it failed on, `argument`; its "yes" carries its replayed `term`,
    with the one target it meets as `argument`, and `witness(target)`
    returns that term for that target."""

    holds: bool | None
    stage: str
    closure: GeneratedSet | None = None
    argument: object = None
    term: TermTree | None = None

    def witness(self, target) -> TermTree | None:
        if self.term is not None:
            return self.term if tuple(target) == self.argument else None
        found = self.closure is not None and self.closure.contains(target)
        return self.closure.witness_term(target) if found else None


PROBE = "probe"


def decide_term(base: Algebra, k: int, cells, stages, max_steps=None, **exits) -> Decision:
    """Decides a term condition by sound stages, in the order given.

    The global closure is `term_closure(base, k, cells, **exits)`: "yes" if
    it stops on an early exit (targets, stop_predicate), "no" if it
    completes.  `stages` lists (name, test): test() runs a sound local test
    and returns None when it does not decide, the argument it fails on for
    a "no", or for a "yes" a `TermTree` that it has replayed and found to
    take the values of the one target of `exits` on all of `cells`.  The
    stage PROBE (test None) is the global closure under min(max_steps,
    PROBE_STEPS) steps; the closure order does not depend on the budget, so
    unless it stops on that budget its answer is the full closure's.  If no
    stage decides, the global closure under `max_steps` does (stage
    "closure"), unless the probe had that budget.  That closure continues
    the probe's (`generate`'s `_resume`): the answer is that of a fresh
    closure at the same budget.  The paused kernel lives only inside this
    call, so the deciding stage depends only on the question and the
    budget.
    """
    cells = list(cells)
    paused = []  # the probe's kernel while it is stopped on steps

    def answer(stage, steps):  # `term_closure`, passing `paused` to `generate`
        gset = generate(base, len(cells), term_generators(base, k, cells), max_steps=steps,
                        _resume=paused, **exits)
        return Decision(None if gset.stop_reason in ("steps", "cap") else gset.truncated,
                        stage, gset)

    steps = PROBE_STEPS if max_steps is None else min(max_steps, PROBE_STEPS)
    probe = None
    for name, test in stages:
        if name == PROBE:
            probe = answer(PROBE, steps)
            if probe.closure.stop_reason != "steps":
                return probe
        elif isinstance(argument := test(), TermTree):
            (target,) = exits["targets"]
            return Decision(True, name, argument=tuple(target), term=argument)
        elif argument is not None:
            return Decision(False, name, argument=argument)
    if probe is not None and steps == max_steps:
        return probe
    return answer("closure", max_steps)


def local_obstruction(base: Algebra, k: int, tests, max_steps=None):
    """The sub-condition search, a sound local "no": the argument of the
    first (argument, cells, exits) in `tests` whose `term_closure(base, k,
    cells, **exits)` completes, or None.  A term with a condition's values
    on all its cells has them on every subset; a closure cut short by
    `max_steps` proves nothing."""
    for argument, cells, exits in tests:
        if not term_closure(base, k, cells, max_steps=max_steps, **exits).truncated:
            return argument
    return None


def cyclic_obstruction(base: Algebra, k: int, max_steps=None):
    """A sound local "no" for a k-ary cyclic term: the argument a it fails on.

    A cyclic term t gives t(a) = t(rot a) = ... for every a in A^k, so the
    values of the k-ary terms on the k rotations of a must include a
    constant tuple (Barto & Kozik, LMCS 2012).  The candidates of
    `local_obstruction` are each non-constant a that is the least of its
    rotations, in lex order.
    """
    constant = {"stop_predicate": lambda e: e == e[:1] * k}
    rotated = ((a, [a[i:] + a[:i] for i in range(k)])
               for a in itertools.product(range(base.domain), repeat=k) if a.count(a[0]) < k)
    return local_obstruction(base, k, ((a, rotations, constant) for a, rotations in rotated
                                       if min(rotations) == a), max_steps)


def cyclic_terms(base: Algebra, k: int, limit=None, max_steps=None):
    """k-ary cyclic term operations, in generation order.

    Returns (tables, complete).  complete=False means the closure was cut
    short (by max_steps or limit), so the list is a lower bound only.
    The search runs through `decide_term`: ([], True) may rest on a local
    obstruction (`cyclic_obstruction`) instead of an exhausted Clo_k.
    """
    tables, complete, _ = _cyclic_search(base, k, limit, max_steps)
    return tables, complete


def cyclic_term_witnesses(base: Algebra, k: int, limit=None, max_steps=None):
    """`cyclic_terms` with a term per table: ([(table, term)], complete).

    Each term is read from the witness links of the closure that found its
    table, so `eval_term_table(term, base, k)` is the table."""
    tables, complete, gset = _cyclic_search(base, k, limit, max_steps)
    return [(t, gset.witness_term(t.values)) for t in tables], complete


def _cyclic_search(base: Algebra, k: int, limit, max_steps):
    """(tables, complete, closure) for `cyclic_terms`; the closure is None
    when a local obstruction decided."""
    if k < 2:
        raise AlgebraError(f"cyclic_terms arity must be >= 2, got {k}")
    if limit is not None and limit < 1:
        raise AlgebraError(f"cyclic_terms limit must be at least 1, got {limit}")
    n = base.domain
    check_cells(n, k, "cyclic_terms")
    rotated = argument_cells(n, (*range(1, k), 0))  # an element's values at the rotated cells
    hits = []  # the cyclic elements met, in closure order

    def predicate(e):  # collects every cyclic element; stops only at `limit`
        if rotated(e) == tuple(e):
            hits.append(e)
            return limit is not None and len(hits) >= limit
        return False

    gset = decide_term(base, k, list(itertools.product(range(n), repeat=k)), [
        (PROBE, None),
        ("cyclic_obstruction",
         lambda: None if hits else cyclic_obstruction(base, k, max_steps=max_steps)),
    ], max_steps=max_steps, stop_predicate=predicate).closure  # Clo_k, as in `free_algebra`
    if gset is None:
        return [], True, None
    tables = [
        OperationTable(f"c{i}", k, n, tuple(e)) for i, e in enumerate(hits)
    ]
    return tables, not gset.truncated, gset


def has_cyclic_term(base: Algebra, k: int, max_steps=None):
    """True / False / None (inconclusive); early exit on the first cyclic term."""
    tables, complete = cyclic_terms(base, k, limit=1, max_steps=max_steps)
    if tables:
        return True
    return False if complete else None


@dataclass
class RabReport:
    """Analysis of R = Sg{(a,b),(b,a)} inside A^2."""

    relation: GeneratedSet
    kind: str | None  # "automorphism-graph" | "linked" | "other"; None = inconclusive
    diagonal: list  # [(c, TermTree)] for each (c, c) in R -- loop witnesses
    link_congruences: tuple  # (blocks1, blocks2) as tuples of sorted-tuple blocks


def rab_analyze(base: Algebra, a: int, b: int, max_steps=None) -> RabReport:
    """Classify R_ab = Sg{(a,b),(b,a)} and report its diagonal and links."""
    base.check_elements(a, b)
    if a == b:
        raise AlgebraError("rab_analyze requires a != b")
    rel = term_closure(base, 2, [(a, b), (b, a)], max_steps=max_steps)
    pairs = [tuple(e) for e in rel.elements]
    left = {}
    right = {}
    for x, y in pairs:
        left.setdefault(x, set()).add(y)
        right.setdefault(y, set()).add(x)

    diagonal = [(x, rel.witness_term((x, x))) for x, y in sorted(pairs) if x == y]

    def links(side):
        # the blocks joined by the pairs with a common neighbour
        uf = UnionFind(base.domain)
        for x, y in itertools.product(side, repeat=2):
            if side[x] & side[y]:
                uf.union(x, y)
        return uf.blocks(side)

    blocks1, blocks2 = links(left), links(right)
    if rel.truncated:
        kind = None
    elif all(len(v) == 1 for side in (left, right) for v in side.values()):
        kind = "automorphism-graph"
    elif len(blocks1) == 1 and len(blocks2) == 1:
        kind = "linked"
    else:
        kind = "other"
    return RabReport(rel, kind, diagonal, (blocks1, blocks2))
