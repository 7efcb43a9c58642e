"""Finite operation tables and finite algebras.

An operation table stores a total k-ary operation on {0..n-1} as a flat
row-major value sequence: the tuple (x1,...,xk) lives at index
sum(xi * n**(k-i)), first argument most significant.  This indexing is the
one convention used everywhere (files, hashing, witness replay), and it
has one implementation: a table read on rearranged cells is read through
one of two cached cell maps.  The value map `image_cells` reads the cells
(f[x1], ..., f[xk]): a subset, a quotient's block representatives or,
through `relabeling`, a bijection.  The argument map `argument_cells` reads
the cells (x[order[0]], ...): the diagonal and the argument permutations.
(`translation_cells` freezes one argument.)
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass


class AlgebraError(Exception):
    pass


class NotClosedError(AlgebraError):
    """A restriction target is not closed; carries an escaping argument tuple."""

    def __init__(self, subset, witness, value):
        self.subset = tuple(subset)
        self.witness = tuple(witness)
        self.value = value
        super().__init__(
            f"subset {self.subset} not closed: "
            f"op({', '.join(map(str, witness))}) = {value}"
        )


class ParseError(AlgebraError):
    def __init__(self, message, line=None):
        self.reason, self.line = message, line
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)


def check_budget(max_steps):
    """Reject a work budget below 1 (None means unbounded)."""
    if max_steps is not None and max_steps < 1:
        raise AlgebraError(f"max_steps must be at least 1, got {max_steps}")


_BYTES = bytes(range(256))
_set_field = object.__setattr__  # the write a frozen dataclass's own __init__ makes


@dataclass(frozen=True, init=False)
class OperationTable:
    name: str
    arity: int
    domain: int
    values: tuple

    def __init__(self, name: str, arity: int, domain: int, values: tuple):
        # the arguments are checked before the table exists, and then each
        # field is set once (a table search builds one table per solution);
        # object.__setattr__ keeps the instance's compact attribute storage,
        # which writing through self.__dict__ would turn into a dict of its own
        if arity < 1:
            raise AlgebraError(f"arity must be >= 1, got {arity}")
        if domain < 1:
            raise AlgebraError(f"domain must be >= 1, got {domain}")
        if len(values) != domain**arity:
            raise AlgebraError(
                f"operation {name}: expected {domain ** arity} values, got {len(values)}")
        # bytes() and translate() check every value in C; the loop runs only
        # to name a bad value, or for values that do not fit in a byte
        try:
            stray = bytes(values).translate(None, _BYTES[:domain])
        except (TypeError, ValueError):
            stray = True
        if stray:
            for v in values:
                if not 0 <= v < domain:
                    raise AlgebraError(f"operation {name}: value {v} out of range")
        _set_field(self, "name", name)
        _set_field(self, "arity", arity)
        _set_field(self, "domain", domain)
        _set_field(self, "values", values)

    def index(self, args) -> int:
        """Row-major index of an argument tuple (no range checks)."""
        return cell_index(args, self.domain)

    def eval(self, args) -> int:
        if len(args) != self.arity:
            raise AlgebraError(
                f"operation {self.name}: expected {self.arity} arguments, got {len(args)}"
            )
        idx = 0
        for a in args:
            if not 0 <= a < self.domain:
                raise AlgebraError(f"operation {self.name}: argument {a} out of range")
            idx = idx * self.domain + a
        return self.values[idx]

    def __call__(self, *args) -> int:
        return self.eval(args)

    def all_args(self):
        """Argument tuples in row-major (lexicographic) order."""
        return itertools.product(range(self.domain), repeat=self.arity)


def projection(arity: int, coord: int, domain: int, name=None) -> OperationTable:
    """The coord-th k-ary projection as an ordinary table (0-based coord)."""
    if not 0 <= coord < arity:
        raise AlgebraError(f"projection coordinate {coord} out of range for arity {arity}")
    vals = tuple(x for x in range(domain) for _ in range(domain ** (arity - 1 - coord)))
    return OperationTable(name or f"p{coord + 1}", arity, domain, vals * domain**coord)


def compose(outer: OperationTable, inners) -> OperationTable:
    """Pointwise composition outer(g1(x),...,gk(x)); inners share arity and
    domain.  The result keeps the outer operation's name: a name spelling
    out the inners would double in length with each level of a term that
    reuses a subterm."""
    inners = list(inners)
    if len(inners) != outer.arity:
        raise AlgebraError(
            f"compose: outer arity {outer.arity} but {len(inners)} inner operations"
        )
    if not inners:
        raise AlgebraError("compose: no inner operations")
    l, n = inners[0].arity, inners[0].domain
    if n != outer.domain:
        raise AlgebraError("compose: domain mismatch between outer and inners")
    for g in inners:
        if g.arity != l or g.domain != n:
            raise AlgebraError("compose: inner operations must share arity and domain")
    return OperationTable(outer.name, l, n, _composed_values(outer.values, n,
                                                             [g.values for g in inners]))


def _composed_values(values, n: int, columns) -> tuple:
    """values[c1[j], ..., ck[j]] for each j, the table `values` of a k-ary
    operation on n elements read at one column of elements per argument,
    all of one length: the row-major index of each argument tuple, one
    column at a time (no range checks)."""
    index = columns[0]
    for column in columns[1:]:
        index = [i * n + v for i, v in zip(index, column)]
    return tuple(map(values.__getitem__, index))


def cell_getter(indices):
    """values -> the tuple of values[i] for i in `indices`: one C-level read of
    a whole table (an `operator.itemgetter` that returns a tuple for any
    number of indices)."""
    if len(indices) == 1:
        (i,) = indices
        return lambda values: (values[i],)
    return operator.itemgetter(*indices) if indices else lambda values: ()


def cell_index(args, n: int) -> int:
    """Row-major index of an argument tuple over domain n (no range checks)."""
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


@functools.lru_cache(maxsize=1024)
def image_cells(n: int, k: int, f: tuple):
    """The value map: reads the cells (f[x1], ..., f[xk]) of an n-element
    table of arity k, row-major over x in range(len(f))^k.  An ascending
    `f` reads a subset, block representatives a quotient, the inverse of a
    bijection a relabeling (`relabeling`)."""
    return cell_getter([cell_index(args, n) for args in itertools.product(f, repeat=k)])


@functools.lru_cache(maxsize=256)
def argument_cells(n: int, order: tuple):
    """The argument map: reads the cells (x[order[0]], ..., x[order[-1]]) of
    an n-element table of arity len(order), row-major over x in
    range(n)^(max(order) + 1).  The order (0,)*k reads the diagonal, a
    rotation or a swap the table on rotated or swapped arguments.  Reading
    range(n**k) gives the index of each cell's image."""
    return cell_getter([cell_index([x[i] for i in order], n)
                        for x in itertools.product(range(n), repeat=max(order) + 1)])


@functools.lru_cache(maxsize=1024)
def relabeling(n: int, k: int, perm: tuple):
    """values -> the values of the k-ary table relabeled along the bijection
    `perm` of range(n): its cell (perm[x1], ..., perm[xk]) holds perm[v]
    where the table's cell (x1, ..., xk) holds v.  A bijection whose
    relabeling keeps every table of an algebra is an automorphism."""
    inverse = image_cells(n, k, tuple(sorted(range(n), key=perm.__getitem__)))
    return lambda values: tuple(map(perm.__getitem__, inverse(values)))


@functools.lru_cache(maxsize=1024)
def translation_cells(n: int, k: int, i: int, x: int):
    """Reads the cells of an n-element table of arity k whose argument i is
    x, row-major over the other arguments: the values of the k-1 ary map
    that freezes argument i at x."""
    return cell_getter([cell_index(rest[:i] + (x,) + rest[i:], n)
                        for rest in itertools.product(range(n), repeat=k - 1)])


def restrict(op: OperationTable, subset) -> OperationTable:
    """Restriction of op to a closed subset, relabeled to 0..|subset|-1.

    Labels follow ascending original order.  Raises NotClosedError with an
    escaping argument tuple if some value leaves the subset.
    """
    subset = tuple(sorted(set(subset)))
    pos = {a: i for i, a in enumerate(subset)}
    vals = image_cells(op.domain, op.arity, subset)(op.values)
    try:
        relabeled = tuple(map(pos.__getitem__, vals))
    except KeyError:
        args, v = next((args, v) for args, v in zip(itertools.product(subset, repeat=op.arity),
                                                    vals) if v not in pos)
        raise NotClosedError(subset, args, v) from None
    return OperationTable(op.name, op.arity, len(subset), relabeled)


def is_closed(op: OperationTable, subset) -> bool:
    subset = set(subset)
    return subset.issuperset(
        image_cells(op.domain, op.arity, tuple(sorted(subset)))(op.values))


def merge(label: list, p: int, q: int) -> bool:
    """Joins the blocks of p and q in a label array (each element labelled
    with the least element of its block); False if they were one block."""
    lp, lq = label[p], label[q]
    if lp == lq:
        return False
    if lp > lq:
        lp, lq = lq, lp
    for x in range(lq, len(label)):  # lq's block lies at lq and above
        if label[x] == lq:
            label[x] = lp
    return True


def label_blocks(label, universe=None) -> tuple:
    """The blocks of a label array restricted to `universe` (default: every
    element) in canonical form: elements ascending, blocks ordered by
    minimum."""
    groups = {}
    for x in sorted(universe) if universe is not None else range(len(label)):
        groups.setdefault(label[x], []).append(x)
    return tuple(tuple(b) for b in groups.values())


def is_idempotent(op: OperationTable) -> bool:
    return argument_cells(op.domain, (0,) * op.arity)(op.values) == tuple(range(op.domain))


def is_cyclic(op: OperationTable) -> bool:
    """Invariant under cyclic shift of the arguments."""
    return argument_cells(op.domain, (*range(1, op.arity), 0))(op.values) == op.values


def is_symmetric(op: OperationTable) -> bool:
    """Invariant under every permutation of the arguments.  The cyclic shift
    and the swap of the first two arguments generate them all."""
    return is_cyclic(op) and (op.arity < 2 or argument_cells(
        op.domain, (1, 0, *range(2, op.arity)))(op.values) == op.values)


def is_commutative(op: OperationTable) -> bool:
    """Binary and symmetric; False for every other arity."""
    return op.arity == 2 and is_symmetric(op)


def is_conservative(op: OperationTable) -> bool:
    return all(v in args for args, v in zip(op.all_args(), op.values))


# the whole-table properties `alg info` reports, in its order, and the facts
# a catalog entry may declare (the search constraints are `search.LAWS`)
TABLE_PROPERTIES = {
    "idempotent": is_idempotent,
    "cyclic": is_cyclic,
    "symmetric": is_symmetric,
    "conservative": is_conservative,
    "commutative": is_commutative,
}


def _require_ternary(op, what):
    if op.arity != 3:
        raise AlgebraError(f"{what} expects a ternary operation, got arity {op.arity}")


def is_majority(op: OperationTable) -> bool:
    _require_ternary(op, "is_majority")
    return all(
        op(x, x, y) == x and op(x, y, x) == x and op(y, x, x) == x
        for x in range(op.domain)
        for y in range(op.domain)
    )


def is_minority(op: OperationTable) -> bool:
    _require_ternary(op, "is_minority")
    return all(
        op(x, y, y) == x and op(y, x, y) == x and op(y, y, x) == x
        for x in range(op.domain)
        for y in range(op.domain)
    )


def is_malcev(op: OperationTable) -> bool:
    _require_ternary(op, "is_malcev")
    return all(
        op(x, y, y) == x and op(y, y, x) == x
        for x in range(op.domain)
        for y in range(op.domain)
    )


@dataclass(frozen=True)
class Algebra:
    domain: int
    operations: tuple
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "operations", tuple(self.operations))
        seen = set()
        for op in self.operations:
            if op.domain != self.domain:
                raise AlgebraError(
                    f"operation {op.name} has domain {op.domain}, algebra has {self.domain}"
                )
            if op.name in seen:
                raise AlgebraError(f"duplicate operation name {op.name!r}")
            seen.add(op.name)

    def op(self, name: str) -> OperationTable:
        for o in self.operations:
            if o.name == name:
                return o
        raise AlgebraError(f"no operation named {name!r}")

    def is_idempotent(self) -> bool:
        return all(is_idempotent(o) for o in self.operations)

    def signature(self):
        return tuple((o.name, o.arity) for o in self.operations)

    def check_elements(self, *xs):
        """AlgebraError naming the first x that is not an element."""
        for x in xs:
            if not 0 <= x < self.domain:
                raise AlgebraError(f"element {x} out of range for domain {self.domain}")

    def restrict(self, subset) -> "Algebra":
        """Subalgebra on a closed subset, relabeled by ascending original element."""
        return Algebra(len(set(subset)), tuple(restrict(o, subset) for o in self.operations))


def sg_closure(base: Algebra, subset) -> tuple:
    """Sorted elements of the subuniverse Sg(subset): the fixpoint of
    S + f(S^k) over the operations f, each image f(S^k) read off f's table
    through the cached value map `image_cells`.  No closure in a power
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


def product(algebras, label=None) -> Algebra:
    """Direct product; elements encoded mixed-radix, first factor most significant."""
    algebras = list(algebras)
    if not algebras:
        raise AlgebraError("product of no algebras")
    sig = algebras[0].signature()
    for a in algebras[1:]:
        if a.signature() != sig:
            raise AlgebraError("product: operation signatures do not match")
    sizes = [a.domain for a in algebras]
    n = 1
    for s in sizes:
        n *= s

    def decode(e):
        coords = []
        for s in reversed(sizes):
            coords.append(e % s)
            e //= s
        return tuple(reversed(coords))

    def encode(coords):
        e = 0
        for c, s in zip(coords, sizes):
            e = e * s + c
        return e

    ops = []
    for oi, (name, arity) in enumerate(sig):
        factor_ops = [a.operations[oi] for a in algebras]
        vals = []
        for args in itertools.product(range(n), repeat=arity):
            cols = [decode(a) for a in args]
            res = tuple(
                f.values[f.index(tuple(col[j] for col in cols))]
                for j, f in enumerate(factor_ops)
            )
            vals.append(encode(res))
        ops.append(OperationTable(name, arity, n, tuple(vals)))
    return Algebra(n, tuple(ops), label=label)


def parse_algebra(text: str, label=None) -> Algebra:
    """Parse the algebra file format.

    Format: line `domain <n>`, then per operation a line `op <name> <arity>`
    followed by exactly n**arity whitespace-separated integers (line breaks
    arbitrary).  `#` starts a comment.  ASCII only.
    """
    tokens = []  # (token, line_number)
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for tok in line.split():
            tokens.append((tok, ln))
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(what):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"unexpected end of input, expected {what}",
                             tokens[-1][1] if tokens else None)
        tok, ln = tokens[pos]
        pos += 1
        return tok, ln

    def take_int(what):
        tok, ln = take(what)
        try:
            return int(tok), ln
        except ValueError:
            raise ParseError(f"expected {what}, got {tok!r}", ln) from None

    kw, ln = take("'domain'")
    if kw != "domain":
        raise ParseError(f"expected 'domain', got {kw!r}", ln)
    n, ln = take_int("domain size")
    if n < 1:
        raise ParseError(f"domain size must be positive, got {n}", ln)

    ops = []
    while peek() is not None:
        kw, ln = take("'op'")
        if kw != "op":
            raise ParseError(f"expected 'op', got {kw!r}", ln)
        name, _ = take("operation name")
        if any(o.name == name for o in ops):
            raise ParseError(f"duplicate operation name {name!r}", ln)
        arity, ln = take_int("arity")
        if arity < 1:
            raise ParseError(f"arity must be positive, got {arity}", ln)
        count = n**arity
        vals = []
        for _ in range(count):
            v, ln = take_int(f"value for op {name}")
            if not 0 <= v < n:
                raise ParseError(f"value {v} out of range for domain {n}", ln)
            vals.append(v)
        ops.append(OperationTable(name, arity, n, tuple(vals)))
    return Algebra(n, tuple(ops), label=label)


def serialize_algebra(alg: Algebra) -> str:
    """Canonical text form: declaration order, row-major values, one op per block."""
    lines = [f"domain {alg.domain}"]
    for op in alg.operations:
        lines.append(f"op {op.name} {op.arity}")
        row = alg.domain ** max(op.arity - 1, 0)
        vals = op.values
        for start in range(0, len(vals), row):
            lines.append(" ".join(str(v) for v in vals[start:start + row]))
    return "\n".join(lines) + "\n"
