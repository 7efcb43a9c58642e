"""Constrained enumeration of operation tables.

Backtracking over table cells with the cells of one argument-permutation
orbit (cyclic / symmetric / commutative) collapsed into a single decision
variable.  Forced cells (idempotence, partial values, restrictions) are
pinned before the search; partition invariance propagates block choices;
permutation-commuting propagates transformed values; relation preservation
prunes where all needed cells are known and is re-checked in full at every
leaf.  Solutions arrive in lexicographic order of their value sequences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    Algebra,
    AlgebraError,
    OperationTable,
    ParseError,
    PartialTable,
    is_commutative,
    is_cyclic,
    is_idempotent,
    is_symmetric,
    restrict,
)
from .congruence import Partition


class NoCompletionError(AlgebraError):
    pass


class NonUniqueCompletionError(AlgebraError):
    pass


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
class Commutative:
    pass


@dataclass(frozen=True)
class PreservesRelation:
    arity: int
    tuples: tuple  # sorted tuple of tuples


@dataclass(frozen=True)
class InvariantPartition:
    partition: Partition


@dataclass(frozen=True)
class RestrictionEquals:
    subset: tuple  # ascending original elements
    table: OperationTable  # over the relabeled domain 0..len(subset)-1


@dataclass(frozen=True)
class PartialValues:
    partial: PartialTable


@dataclass(frozen=True)
class CommutesWithPermutation:
    perm: tuple  # perm[i] = image of i


@dataclass(frozen=True)
class AgreesOnTuples:
    items: tuple  # ((args, value), ...)


@dataclass
class SearchSpec:
    domain: int
    arity: int
    constraints: tuple
    cap: int | None = None  # max solutions to return

    def __post_init__(self):
        if not 1 <= self.arity <= 4:
            raise AlgebraError(f"search supports arity 1 to 4, got {self.arity}")
        if not 1 <= self.domain <= 5:
            raise AlgebraError(f"search supports domain 1 to 5, got {self.domain}")
        if self.cap is not None and self.cap < 1:
            raise AlgebraError(f"search cap must be at least 1, got {self.cap}")
        self.constraints = tuple(self.constraints)


@dataclass
class SearchResult:
    tables: list
    truncated: bool


def satisfies(table: OperationTable, c) -> bool:
    """Independent full check of one constraint against a finished table."""
    if isinstance(c, Idempotent):
        return is_idempotent(table)
    if isinstance(c, Cyclic):
        return is_cyclic(table)
    if isinstance(c, Symmetric):
        return is_symmetric(table)
    if isinstance(c, Commutative):
        return is_commutative(table)
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
    if isinstance(c, RestrictionEquals):
        try:
            return restrict(table, c.subset).values == c.table.values
        except AlgebraError:
            return False
    if isinstance(c, PartialValues):
        return all(
            want is None or got == want
            for got, want in zip(table.values, c.partial.values)
        )
    if isinstance(c, CommutesWithPermutation):
        p = c.perm
        return all(
            table.values[table.index(tuple(p[x] for x in args))]
            == p[table.values[table.index(args)]]
            for args in table.all_args()
        )
    if isinstance(c, AgreesOnTuples):
        return all(table.values[table.index(args)] == v for args, v in c.items)
    raise AlgebraError(f"unknown constraint {c!r}")


def _argument_orbits(n, k, constraints):
    """Cells grouped under the argument-permutation symmetries requested."""
    if any(isinstance(c, Symmetric) for c in constraints) or (
        k == 2 and any(isinstance(c, Commutative) for c in constraints)
    ):
        perms = list(itertools.permutations(range(k)))
    elif any(isinstance(c, Cyclic) for c in constraints):
        perms = [tuple((i + s) % k for i in range(k)) for s in range(k)]
    else:
        perms = [tuple(range(k))]
    if any(isinstance(c, Commutative) for c in constraints) and k != 2:
        raise AlgebraError("Commutative constraint requires arity 2")

    cells = list(itertools.product(range(n), repeat=k))
    cell_index = {t: i for i, t in enumerate(cells)}
    orbit_of = [-1] * len(cells)
    orbits = []
    for i, t in enumerate(cells):
        if orbit_of[i] >= 0:
            continue
        members = sorted({cell_index[tuple(t[p] for p in perm)] for perm in perms})
        oid = len(orbits)
        for m in members:
            orbit_of[m] = oid
        orbits.append(members)
    return cells, cell_index, orbit_of, orbits


def _forced_cells(spec, cells, cell_index):
    """Cell values pinned outright by the constraints; None on contradiction."""
    n, k = spec.domain, spec.arity
    forced = {}

    def pin(idx, v):
        if not 0 <= v < n:
            return False
        if forced.setdefault(idx, v) != v:
            return False
        return True

    for c in spec.constraints:
        if isinstance(c, Idempotent):
            for x in range(n):
                if not pin(cell_index[(x,) * k], x):
                    return None
        elif isinstance(c, AgreesOnTuples):
            for args, v in c.items:
                if not pin(cell_index[tuple(args)], v):
                    return None
        elif isinstance(c, PartialValues):
            if c.partial.arity != k or c.partial.domain != n:
                raise AlgebraError("partial table does not match the search spec")
            for idx, v in enumerate(c.partial.values):
                if v is not None and not pin(idx, v):
                    return None
        elif isinstance(c, RestrictionEquals):
            sub = list(c.subset)
            if c.table.arity != k or c.table.domain != len(sub):
                raise AlgebraError("restriction table does not match the search spec")
            for local_args in itertools.product(range(len(sub)), repeat=k):
                v = c.table.values[c.table.index(local_args)]
                if not pin(cell_index[tuple(sub[a] for a in local_args)], sub[v]):
                    return None
    return forced


def search_ops(spec: SearchSpec, name="f") -> SearchResult:
    """All tables satisfying the spec, lexicographic by value sequence."""
    n, k = spec.domain, spec.arity
    cells, cell_index, orbit_of, orbits = _argument_orbits(n, k, spec.constraints)
    forced = _forced_cells(spec, cells, cell_index)
    if forced is None:
        return SearchResult([], False)

    partitions = [c.partition for c in spec.constraints
                  if isinstance(c, InvariantPartition)]
    part_idx = [p.block_index() for p in partitions]
    sigs = [
        [tuple(idx[x] for x in t) for t in cells]
        for idx in part_idx
    ]
    perms = [c.perm for c in spec.constraints
             if isinstance(c, CommutesWithPermutation)]
    perm_cell = [
        [cell_index[tuple(p[x] for x in t)] for t in cells]
        for p in perms
    ]
    relations = [c for c in spec.constraints if isinstance(c, PreservesRelation)]
    for rel in relations:
        for t in rel.tuples:
            if len(t) != rel.arity or not all(0 <= x < n for x in t):
                raise AlgebraError(f"relation tuple {t} malformed")

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
            for pi in range(len(partitions)):
                blk = part_idx[pi][val]
                gb = group_block[pi]
                for ci in orbits[o]:
                    sig = sigs[pi][ci]
                    got = gb.get(sig)
                    if got is None:
                        gb[sig] = blk
                        trail.append(("group", pi, sig))
                    elif got != blk:
                        return False
            for qi in range(len(perms)):
                mapped_v = perms[qi][val]
                pc = perm_cell[qi]
                for ci in orbits[o]:
                    stack.append((orbit_of[pc[ci]], mapped_v))
        return True

    def relation_check():
        """Prune on relation combos whose needed cells are all decided."""
        for rel in relations:
            tuples = rel.tuples
            rset = set(tuples)
            for combo in itertools.product(tuples, repeat=k):
                out = []
                for j in range(rel.arity):
                    ov = orbit_val[orbit_of[cell_index[tuple(combo[i][j] for i in range(k))]]]
                    if ov == -1:
                        out = None
                        break
                    out.append(ov)
                if out is not None and tuple(out) not in rset:
                    return False
        return True

    mark0 = len(trail)
    ok = True
    for idx, v in forced.items():
        if not assign(orbit_of[idx], v):
            ok = False
            break
    if not ok or not relation_check():
        return SearchResult([], False)

    solutions = []
    truncated = False
    check_relations_incrementally = all(
        len(r.tuples) ** k <= 20000 for r in relations
    )

    def undo(mark):
        while len(trail) > mark:
            tag = trail.pop()
            if tag[0] == "orbit":
                orbit_val[tag[1]] = -1
            else:
                del group_block[tag[1]][tag[2]]

    def dfs(pos):
        nonlocal truncated
        if truncated:
            return
        # orbits are decided in index order, the lex order of their representatives
        while pos < len(orbits) and orbit_val[pos] != -1:
            pos += 1
        if pos == len(orbits):
            vals = tuple(orbit_val[orbit_of[i]] for i in range(len(cells)))
            table = OperationTable(name, k, n, vals)
            if all(satisfies(table, c) for c in spec.constraints):
                if spec.cap is not None and len(solutions) >= spec.cap:
                    truncated = True
                else:
                    solutions.append(table)
            return
        for v in range(n):
            mark = len(trail)
            if assign(pos, v) and (not relations or not check_relations_incrementally
                                 or relation_check()):
                dfs(pos + 1)
            undo(mark)
            if truncated:
                return

    dfs(0)
    return SearchResult(solutions, truncated)


def count_ops(spec: SearchSpec):
    """(number of solutions under the cap, truncated flag)."""
    res = search_ops(spec)
    return len(res.tables), res.truncated


def unique_completion(partial: PartialTable, constraints, name=None) -> OperationTable:
    """The single table extending `partial` under the constraints.

    Raises NoCompletionError / NonUniqueCompletionError otherwise -- both are
    fatal for catalog integrity, because a transcription slip shows up here.
    """
    spec = SearchSpec(
        domain=partial.domain,
        arity=partial.arity,
        constraints=tuple(constraints) + (PartialValues(partial),),
        cap=2,
    )
    res = search_ops(spec, name=name or partial.name)
    if not res.tables:
        raise NoCompletionError(f"no completion of {partial.name}")
    if len(res.tables) > 1 or res.truncated:
        raise NonUniqueCompletionError(f"completion of {partial.name} is not unique")
    return res.tables[0]


def parse_constraint_file(text: str):
    """Line-oriented search spec.

    Directives: `domain N`, `arity K`, `cap N`, `idempotent`, `cyclic`,
    `symmetric`, `commutative`, `partition {0,2}{1,3}`,
    `restrict 0,2 := v...`, `value x,y,z := v`, `perm (0 2)(1 3)`,
    `preserves R : x,y x,z ...`.  `#` comments.  Unknown directives are
    rejected.
    """
    sizes = {}  # domain, arity, cap
    constraints = []
    pending = []  # (directive, payload, line) resolved once domain/arity known
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head in ("domain", "arity", "cap"):
                sizes[head] = int(rest)
                if sizes[head] < 1:
                    raise ParseError(f"{head} must be at least 1, got {sizes[head]}", ln)
            elif head == "idempotent":
                constraints.append(Idempotent())
            elif head == "cyclic":
                constraints.append(Cyclic())
            elif head == "symmetric":
                constraints.append(Symmetric())
            elif head == "commutative":
                constraints.append(Commutative())
            elif head in ("partition", "restrict", "value", "perm", "preserves"):
                pending.append((head, rest, ln))
            else:
                raise AlgebraError(f"unknown directive {head!r} (line {ln})")
        except ValueError:
            raise AlgebraError(f"bad integer in directive (line {ln})") from None
    domain, arity, cap = (sizes.get(k) for k in ("domain", "arity", "cap"))
    if domain is None or arity is None:
        raise AlgebraError("constraint file must declare domain and arity")

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
        vals = tuple(int(t) for t in vals_text.split())
        return RestrictionEquals(subset, OperationTable("r", arity, len(subset), vals))
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
