"""Homomorphisms from the subalgebras of a finite algebra into it, and the
coordinate view that a closure in A^m reads off them.

A homomorphism h from the subalgebra Sg{c'_1, ..., c'_k} that a cell c'
generates into A, with h(c') = c, gives t(c) = h(t(c')) for every k-ary
term t; conversely the pairs (t(c'), t(c)) form Sg_{A^2}{(c'_i, c_i)}, the
graph of such an h whenever t(c) is a function of t(c') (Freese &
Valeriote, IJAC 2009, the encoding of `subpower.term_closure`).  So the
values of a term on a list of cells are fixed by its values on one cell
per class of cells that are images of each other, and `CoordinateView`
lets the closure kernel hold only those bytes of each element.
"""

from __future__ import annotations

import functools
import itertools

from .core import Algebra, AlgebraError, _composed_values, cell_getter, image_cells, sg_closure
from .memo import per_algebra

# Homomorphisms are sought on algebras of at most this many elements: the
# candidates of a subuniverse of r generators are all n**r images of them.
# Above it each subuniverse has the inclusion alone, and the view drops
# only the constant cells.
_HOM_MAX_DOMAIN = 5


@per_algebra
def homomorphisms(alg: Algebra, subuniverse: tuple) -> tuple:
    """The homomorphisms from the subalgebra on `subuniverse` (a sorted
    tuple of elements) into `alg`, each as the tuple of its images of those
    elements, in lex order; the injective ones of range(n) are the
    automorphisms.  AlgebraError if `subuniverse` is not closed.

    A homomorphism is fixed by its images of a generating set, so the
    candidates are every image tuple of a minimal one (`_generating_program`),
    each extended along the program that generates the subuniverse and kept
    if it commutes with every operation on every cell of
    subuniverse^arity.  All candidates run at once: an element's images
    under them are one byte column, and an operation on such columns is one
    lane step (`_apply_columns`).  Above _HOM_MAX_DOMAIN elements, the
    inclusion alone.  Memoized by the operation tables and the subuniverse
    (`memo.per_algebra`)."""
    if alg.domain > _HOM_MAX_DOMAIN:
        return (subuniverse,)
    n = alg.domain
    gens, program = _generating_program(alg, subuniverse)
    count = n ** len(gens)
    col = dict(zip(gens, _digit_columns(n, len(gens))))  # element -> its images
    for v, op_i, args in program:
        col[v] = _apply_columns(alg.operations[op_i], [col[x] for x in args])
    found = range(count)
    for op in alg.operations:
        got = _apply_columns(op, [b"".join(map(col.__getitem__, xs))
                                  for xs in _power_columns(subuniverse, op.arity)])
        want = b"".join(map(col.__getitem__, image_cells(n, op.arity, subuniverse)(op.values)))
        if got != want:
            found = [c for c in found if got[c::count] == want[c::count]]
    return tuple(sorted(tuple(col[x][c] for x in subuniverse) for c in found))


@functools.lru_cache(maxsize=64)
def _digit_columns(n: int, r: int) -> tuple:
    """Column i holds the i-th of the r base-n digits of 0, 1, ..., n**r - 1:
    the images of the i-th generator under the candidates, in order."""
    return tuple(b"".join(bytes([v]) * n ** (r - 1 - i) for v in range(n)) * n**i
                 for i in range(r))


@functools.lru_cache(maxsize=256)
def _power_columns(elements: tuple, k: int) -> tuple:
    """The k columns of the cells elements^k, row-major."""
    return tuple(zip(*itertools.product(elements, repeat=k)))


def _generating_program(alg: Algebra, subuniverse: tuple):
    """(gens, program): a minimal generating tuple of `subuniverse` (its
    elements, each left out in turn while the others still generate it),
    and (element, operation index, arguments) per other element, each
    argument an element of gens or of an earlier step."""
    if sg_closure(alg, subuniverse) != subuniverse:
        raise AlgebraError(f"{subuniverse} is not a subuniverse")
    gens = subuniverse
    for x in subuniverse:
        rest = tuple(g for g in gens if g != x)
        if rest and sg_closure(alg, rest) == subuniverse:
            gens = rest
    known, program = list(gens), []
    while len(known) < len(subuniverse):
        for op_i, op in enumerate(alg.operations):
            args = tuple(known)
            values = image_cells(alg.domain, op.arity, args)(op.values)
            for v in dict.fromkeys(values):  # each value once, where it first comes
                if v not in known:
                    at, cell = values.index(v), []
                    for _ in range(op.arity):
                        at, j = divmod(at, len(args))
                        cell.append(args[j])
                    known.append(v)
                    program.append((v, op_i, tuple(reversed(cell))))
    return gens, program


def _apply_columns(op, columns) -> bytes:
    """`op` applied to equal-length byte columns, position by position: one
    lane step where its n**arity cells fit in a byte (the sum of each
    column weighted by its place value holds every cell index in its own
    byte), else cell by cell."""
    n, k = op.domain, op.arity
    if n**k > 256:
        return bytes(_composed_values(op.values, n, columns))
    cells = sum(n ** (k - 1 - j) * int.from_bytes(col, "big") for j, col in enumerate(columns))
    return cells.to_bytes(len(columns[0]), "big").translate(
        bytes(op.values) + bytes(256 - n**k))


@per_algebra
def _cell_homomorphisms(alg: Algebra, entries: tuple):
    """What the view reads off a cell whose distinct entries are `entries`
    (sorted): () if they are a one-element subuniverse {a}, whose constant
    cell reads a; else (rows, injective): each homomorphism from
    Sg(entries) into `alg` but the inclusion and the constants, as its
    images of range(n) (the identity outside its domain), and whether each
    is injective.  Memoized by the operation tables and the entries; the
    homomorphisms come from `homomorphisms`, keyed by the subuniverse."""
    sub = sg_closure(alg, entries)
    if len(sub) == 1:
        return ()
    homs = [h for h in homomorphisms(alg, sub) if h != sub and h.count(h[0]) < len(h)]
    identity = bytes(range(alg.domain))
    return (tuple(identity.translate(bytes.maketrans(bytes(sub), bytes(h))) for h in homs),
            tuple(len(set(h)) == len(sub) for h in homs))


class CoordinateView:
    """The coordinates a closure keeps once its cell list has symmetries.

    Of each class of cells that are homomorphic images of each other, the
    first in the list fixes the values on the others; a cell that is a
    non-injective image of another is never kept, nor a constant cell (a,
    ..., a) of a one-element subuniverse {a}, which reads a.  Reading the
    kept cells (`reduce`) is one-to-one on the closure, and it commutes with
    every operation applied coordinatewise, so the rows run on the `coords`
    kept coordinates alone.  `expand` rebuilds an element from them: per
    cell, the kept value it is an image of, offset into the row of its
    homomorphism (or of its constant) in a relabel table that one
    `translate` reads.  The table holds n entries per row: the n constants,
    the identity, then each other homomorphism in use, extended by the
    identity outside its domain; a cell whose homomorphism would take it
    past 256 entries keeps its own coordinate."""

    __slots__ = ("m", "coords", "keep", "getter", "offset", "table")

    @staticmethod
    def of(base, gen_list, index):
        """The view of the closure of the generator columns `gen_list`,
        whose cells `index` lists in order, each with its position; None
        where it would keep no coordinate or more than half of them, or
        where the n constant rows and the identity row pass 256 entries
        (from 16 elements on)."""
        n, m = base.domain, len(index)
        if (n + 1) * n > 256:
            return None
        groups = {}  # the distinct entries of a cell, sorted -> the cells with them
        if n <= _HOM_MAX_DOMAIN:  # per cell, the bit mask of its entries, as one byte
            bits, masks = bytes(1 << x for x in range(n)) + bytes(256 - n), 0
            for g in gen_list:
                masks |= int.from_bytes(g.translate(bits), "big")
            for j, mask in enumerate(masks.to_bytes(m, "big")):
                groups.setdefault(mask, []).append(j)
            groups = {tuple(x for x in range(n) if mask >> x & 1): cells
                      for mask, cells in groups.items()}
        else:  # the inclusion alone: only a constant cell is read through a row
            groups = {c[:1]: [j] for j, c in enumerate(index) if c.count(c[0]) == len(c)}
        codes = [None] * m  # per cell: (kept position, table row)
        reach = [(0, ())] * m  # per cell: its place in its group, the group's images
        never = set()  # the non-injective images of some cell
        above = bytes(range(n, 256))  # a row's translate table goes on with the identity
        for entries, cells in groups.items():
            homs = _cell_homomorphisms(base, entries)
            if not homs:
                for j in cells:
                    codes[j] = 0, entries[0]
                continue
            columns = [bytes(cell_getter(cells)(g)) for g in gen_list]
            images = []  # per homomorphism: its row, the image cell of each cell (or None)
            for row, injective in zip(*homs):
                table = row + above
                images.append((row, list(map(index.get, zip(*(col.translate(table)
                                                              for col in columns))))))
                if not injective:
                    never.update(images[-1][1])
            for at, j in enumerate(cells):
                reach[j] = at, images
        rows = {bytes(range(n)): n}  # the table row of each homomorphism in use
        kept = []
        for j in range(m):
            if codes[j] is not None or j in never:
                continue
            codes[j] = len(kept), n
            at, images = reach[j]
            for row, found in images:
                i = found[at]
                if i is not None and codes[i] is None:
                    if row not in rows and (n + len(rows) + 1) * n <= 256:
                        rows[row] = n + len(rows)
                    if row in rows:
                        codes[i] = len(kept), rows[row]
            kept.append(j)
        for j in range(m):  # a cell no row reached keeps its own coordinate
            if codes[j] is None:
                codes[j] = len(kept), n
                kept.append(j)
        if not 0 < 2 * len(kept) <= m:
            return None
        view = CoordinateView()
        view.m, view.coords, view.keep = m, len(kept), cell_getter(kept)
        view.getter = cell_getter([p for p, _ in codes])
        view.offset = int.from_bytes(bytes(row * n for _, row in codes), "big")
        table = bytes(a for a in range(n) for _ in range(n)) + b"".join(rows)
        view.table = table + bytes(256 - len(table))
        return view

    def reduce(self, e: bytes) -> bytes:
        """The kept coordinates of element `e`."""
        return bytes(self.keep(e))

    def expand(self, key: bytes) -> bytes:
        """The element whose kept coordinates are `key`."""
        full = int.from_bytes(bytes(self.getter(key)), "big") + self.offset
        return full.to_bytes(self.m, "big").translate(self.table)
