"""Partitions, congruences, congruence lattices, quotients, class algebras.

Partitions are kept in a canonical form throughout: blocks sorted by their
minimum element, elements ascending inside each block.  Every block list
has one text form, `{0,2}{1,3}`, read by `parse_blocks` and written by
`format_blocks`.  Compatibility has one rule: with r(x) the least element
of x's block, a partition is a congruence of a table f iff f(x) and
f(r(x)) share a block for every cell x (blockwise-equal cells share r(x)).
Congruence lattices are computed on label tuples, x labelled with r(x),
from one table per algebra of the pairs each pair's basic translations
reach (`translation_pairs`); `Partition`s are built for the results only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (Algebra, AlgebraError, OperationTable, image_cells, label_blocks, merge,
                   translation_cells)
from .memo import per_algebra


class NotACongruenceError(AlgebraError):
    pass


def parse_blocks(text: str) -> tuple:
    """The blocks of the `{0,2}{1,3}` text as written, integer tuples;
    AlgebraError if malformed or if an element repeats, within a block or
    across blocks.  No domain is checked."""
    text = text.strip()
    if not text:
        raise AlgebraError("empty partition text")
    blocks = []
    rest = text
    while rest:
        if not rest.startswith("{"):
            raise AlgebraError(f"bad partition syntax: {text!r}")
        body, brace, rest = rest[1:].partition("}")
        if not brace:
            raise AlgebraError(f"unbalanced braces in {text!r}")
        body = body.strip()
        if not body:
            raise AlgebraError(f"empty block in {text!r}")
        try:
            blocks.append(tuple(int(t) for t in body.split(",")))
        except ValueError:
            raise AlgebraError(f"bad block {body!r} in {text!r}") from None
    elements = [x for block in blocks for x in block]
    for i, x in enumerate(elements):
        if x in elements[:i]:
            raise AlgebraError(f"element {x} repeated in {text!r}")
    return tuple(blocks)


def format_blocks(blocks) -> str:
    """The `{0,2}{1,3}` text of a sequence of blocks, in their order."""
    return "".join("{" + ",".join(map(str, b)) + "}" for b in blocks)


@dataclass(frozen=True)
class Partition:
    size: int
    blocks: tuple  # tuple of tuples, canonical form
    # x -> the least element of x's block, so x ~ y iff labels[x] == labels[y]
    labels: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if not b:
                raise AlgebraError("empty block")
            seen.update(b)
        if seen != set(range(self.size)):
            raise AlgebraError(f"blocks do not partition range({self.size})")
        if sum(len(b) for b in self.blocks) != self.size:
            raise AlgebraError("blocks overlap")
        canon = tuple(tuple(sorted(b)) for b in sorted(self.blocks, key=min))
        if canon != self.blocks:
            raise AlgebraError("blocks not in canonical form; use Partition.of()")
        labels = [0] * self.size
        for b in self.blocks:
            for x in b:
                labels[x] = b[0]
        object.__setattr__(self, "labels", tuple(labels))

    @staticmethod
    def of(size: int, blocks) -> "Partition":
        canon = tuple(tuple(sorted(b)) for b in sorted((set(b) for b in blocks), key=min))
        return Partition(size, canon)

    @staticmethod
    def identity(size: int) -> "Partition":
        return Partition(size, tuple((i,) for i in range(size)))

    @staticmethod
    def full(size: int) -> "Partition":
        return Partition(size, (tuple(range(size)),))

    @staticmethod
    def from_representatives(size: int, rep) -> "Partition":
        blocks = {}
        for x in range(size):
            blocks.setdefault(rep[x], []).append(x)
        return Partition.of(size, blocks.values())

    @staticmethod
    def parse(text: str, size: int) -> "Partition":
        """Parse the `{0,2}{1,3}` form (`parse_blocks`)."""
        return Partition.of(size, parse_blocks(text))

    def __str__(self):
        return format_blocks(self.blocks)

    def block_index(self):
        """element -> index of its block, blocks in canonical order."""
        rep = [0] * self.size
        for i, b in enumerate(self.blocks):
            for x in b:
                rep[x] = i
        return rep

    def related(self, x: int, y: int) -> bool:
        if not (0 <= x < self.size and 0 <= y < self.size):
            raise AlgebraError(f"elements {x}, {y} not both in range({self.size})")
        return self.labels[x] == self.labels[y]

    def is_identity(self) -> bool:
        return len(self.blocks) == self.size

    def is_full(self) -> bool:
        return len(self.blocks) == 1

    def refines(self, other: "Partition") -> bool:
        """Every block of self is contained in a block of other."""
        theirs = other.labels
        return all(theirs[r] == theirs[x] for x, r in enumerate(self.labels))

    def join(self, other: "Partition") -> "Partition":
        label = list(self.labels)
        for x, r in enumerate(other.labels):
            if r != x:
                merge(label, x, r)
        return Partition(self.size, label_blocks(label))

    def meet(self, other: "Partition") -> "Partition":
        return Partition.from_representatives(self.size, list(zip(self.labels, other.labels)))


def at_representatives(p: Partition, k: int):
    """values -> a k-ary table's values at (r(x1), ..., r(xk)), row-major over every x."""
    return image_cells(p.size, k, p.labels)


def is_congruence(alg: Algebra, p: Partition):
    """(True, None) or (False, violation) with a concrete violating instance.

    A violation is (op_name, args1, args2, value1, value2): blockwise-equal
    argument tuples sent to different blocks, args2 at the representatives.
    """
    if p.size != alg.domain:
        raise AlgebraError("partition size does not match algebra domain")
    r = p.labels  # same block iff same r
    for op in alg.operations:
        at_reps = at_representatives(p, op.arity)(op.values)
        for args, v, w in zip(op.all_args(), op.values, at_reps):
            if r[v] != r[w]:
                return False, (op.name, args, tuple(map(r.__getitem__, args)), v, w)
    return True, None


def require_congruence(alg: Algebra, p: Partition):
    """NotACongruenceError naming a violation unless p is a congruence."""
    ok, violation = is_congruence(alg, p)
    if not ok:
        raise NotACongruenceError(f"not a congruence, violation: {violation}")


@per_algebra
def translation_pairs(alg: Algebra) -> tuple:
    """For each pair u < v, at index u * n + v, the distinct pairs (p, q),
    p < q, that the basic translations send {u, v} to, sorted; every other
    index holds ().

    A basic translation is a basic operation with one free argument and the
    others frozen at constants; each is read once per element through
    `core.translation_cells`.  Memoized by the operation tables
    (`memo.per_algebra`): every call returns the one stored tuple."""
    n = alg.domain
    images = {(u, v): set() for u in range(n) for v in range(u + 1, n)}
    for op in alg.operations:
        for i in range(op.arity):
            cols = [translation_cells(n, op.arity, i, x)(op.values) for x in range(n)]
            for (u, v), found in images.items():
                found.update((p, q) if p < q else (q, p)
                             for p, q in zip(cols[u], cols[v]) if p != q)
    return tuple(tuple(sorted(images.get((u, v), ()))) for u in range(n) for v in range(n))


def _principal_labels(pairs: tuple, n: int, a: int, b: int) -> tuple:
    """The label tuple of Cg(a, b): a worklist over the pair table."""
    label = list(range(n))
    work = [(min(a, b), max(a, b))] if merge(label, a, b) else []
    while work:
        u, v = work.pop()
        for p, q in pairs[u * n + v]:
            if merge(label, p, q):
                work.append((p, q))
    return tuple(label)


def principal_congruence(alg: Algebra, a: int, b: int) -> Partition:
    """Smallest congruence identifying a and b.

    Worklist closure (Freese, "Computing congruences efficiently", 2008)
    over the algebra's pair table (`translation_pairs`): each newly merged
    pair (u, v) is replaced by the pairs its basic translations send it to,
    and each of those whose blocks differ is merged and pushed.  The blocks
    are a label array, each element labelled with its block's least
    element; merging relabels the block with the larger label.  The
    equivalence the pushed pairs generate is the result, and it is closed
    under every basic translation since each pushed pair's images are in it.
    """
    alg.check_elements(a, b)
    n = alg.domain
    return Partition(n, label_blocks(_principal_labels(translation_pairs(alg), n, a, b)))


@per_algebra
def all_congruences(alg: Algebra) -> tuple:
    """Every congruence, canonically sorted (identity first, full last).

    Computed as the join closure of the principal congruences; sound and
    complete for finite algebras since every congruence is a join of
    principal ones.  The closure works on label tuples (x labelled with the
    least element of its block): q refines p iff p[q[x]] = p[x] for every
    x, one read that skips a join equal to p, and a join merges each x with
    q[x] in a copy of p's labels.  `Partition`s are built for the result
    only.  Memoized by the operation tables (`memo.per_algebra`): every call
    returns the one stored tuple.
    """
    n = alg.domain
    pairs = translation_pairs(alg)
    principals = {_principal_labels(pairs, n, a, b)
                  for a in range(n) for b in range(a + 1, n)}
    found = {tuple(range(n))} | principals
    frontier = set(found)
    while frontier:
        new = set()
        for p in frontier:
            for q in principals:
                if tuple(map(p.__getitem__, q)) == p:  # q refines p: the join is p
                    continue
                label = list(p)
                for x, r in enumerate(q):
                    if r != x:
                        merge(label, x, r)
                j = tuple(label)
                if j not in found:
                    new.add(j)
        found |= new
        frontier = new
    return tuple(sorted((Partition(n, label_blocks(label)) for label in found),
                        key=lambda p: (n - len(p.blocks), str(p))))


def maximal_congruences(alg: Algebra):
    """Maximal proper congruences under refinement."""
    congs = [p for p in all_congruences(alg) if not p.is_full()]
    return [
        p
        for p in congs
        if not any(q is not p and p.refines(q) and p != q for q in congs)
    ]


def simplicity_witness(alg: Algebra):
    """The first principal congruence Cg(a, b) (a < b, lexicographic) that
    is not full, or None when the algebra is simple."""
    n = alg.domain
    return next((p for a in range(n) for b in range(a + 1, n)
                 for p in (principal_congruence(alg, a, b),) if not p.is_full()), None)


def quotient_algebra(alg: Algebra, p: Partition):
    """(quotient Algebra, block labeling).  Blocks are labeled 0.. by
    ascending minimum element; operations act on representatives."""
    require_congruence(alg, p)
    idx = p.block_index()
    reps = tuple(b[0] for b in p.blocks)
    k = len(p.blocks)
    return Algebra(k, tuple(
        OperationTable(op.name, op.arity, k, tuple(map(
            idx.__getitem__, image_cells(alg.domain, op.arity, reps)(op.values))))
        for op in alg.operations)), p.blocks


def class_algebra(alg: Algebra, p: Partition, block) -> Algebra:
    """Restriction of the algebra to one congruence block, relabeled."""
    block = tuple(sorted(block))
    if block not in p.blocks:
        raise AlgebraError(f"{block} is not a block of {p}")
    require_congruence(alg, p)
    return alg.restrict(block)
