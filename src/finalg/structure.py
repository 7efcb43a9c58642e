"""Absorption, edge classification, Taylor testing, affine recognition.

Edges follow the three-kind scheme: a pair may carry semilattice (directed),
majority, or affine behavior, possibly only on a quotient of the subalgebra
it generates ("weak"), with the witnessing congruence recorded.  The label
is upgraded from weak when the witness is a maximal congruence and every
witness-related pair generates the same subalgebra; an affine edge whose
witness is the identity is "strong-affine".  A plain semilattice edge is the
identity-witnessed weak semilattice edge.

Negative answers that would require exhausting a large closure are first
attempted by sound shortcuts: a set cannot absorb if its trace on some
subuniverse fails to absorb the restricted algebra, and a table cannot be a
term operation if it breaks a subuniverse, a congruence, or restricts
outside the (small) clone of a two-element subalgebra.  The shortcuts only
ever certify "no"; "yes" always comes from an explicit witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Algebra, AlgebraError, OperationTable, UnionFind, is_closed
from .congruence import (
    all_congruences,
    maximal_congruences,
    quotient_algebra,
)
from .memo import Memo, table_key
# generate is no longer called here but stays bound as structure.generate:
# perfbench/test_smoke.py rebinds that name to check the tracer's guard
from .subpower import (  # noqa: F401
    TermTree,
    clone_membership,
    find_term,
    free_algebra,
    generate,
    sg_closure,
    term_closure,
)

# work budget for auxiliary closures inside negative shortcuts
_FILTER_STEPS = 2_000_000


class NotIdempotentError(AlgebraError):
    pass


@dataclass
class AbsorptionResult:
    subset: tuple
    arity: int
    holds: bool | None  # None = inconclusive (budget exhausted)
    witness: TermTree | None
    subuniverse: bool
    reason: str | None = None  # for shortcut negatives: the failing trace

    def absorbs_as_subuniverse(self):
        """The B <|_n A relation: absorbing and closed."""
        if self.holds is None:
            return None
        return self.holds and self.subuniverse


def absorption_patterns(domain: int, subset, n: int):
    """All n-tuples over the domain with >= n-1 coordinates in subset, lex order."""
    s = set(subset)
    return [
        t
        for t in itertools.product(range(domain), repeat=n)
        if sum(1 for x in t if x in s) >= n - 1
    ]


def absorbs(alg: Algebra, subset, n: int, cap=None, max_steps=None,
            _decompose=True) -> AbsorptionResult:
    """Does some n-ary term map every almost-in-subset tuple into the subset?

    Runs the region test: the evaluation vectors of n-ary terms over the
    pattern positions are generated as a subpower, stopping as soon as one
    lands entirely inside the subset.  Before paying for a full closure, a
    failing trace is sought: if the trace of B does not absorb the restriction to some
    proper subuniverse S, then B cannot absorb the algebra (any witness
    would restrict to a witness).
    """
    subset = tuple(sorted(set(subset)))
    if not subset or not set(subset) <= set(range(alg.domain)):
        raise AlgebraError(f"bad subset {subset}")
    if n < 2:
        raise AlgebraError(f"absorption arity must be >= 2, got {n}")
    closed = all(is_closed(op, subset) for op in alg.operations)

    if subset == tuple(range(alg.domain)):
        # the full domain absorbs trivially (any projection witnesses)
        return AbsorptionResult(subset, n, True, TermTree.variable(0), closed)

    if _decompose:
        bset = set(subset)
        for uni in all_subuniverses(alg):
            if len(uni) < 2 or len(uni) >= alg.domain:
                continue
            trace = tuple(sorted(bset & set(uni)))
            if not trace or set(uni) <= bset:
                continue
            sub = alg.restrict(uni)
            local = {x: i for i, x in enumerate(uni)}
            res = absorbs(sub, tuple(local[x] for x in trace), n,
                          cap=cap, max_steps=_FILTER_STEPS, _decompose=False)
            if res.holds is False:
                return AbsorptionResult(
                    subset, n, False, None, closed,
                    reason=f"trace on subuniverse {uni} does not absorb",
                )
        # a witness also descends to every proper quotient: the image classes
        # of B must absorb there
        for theta in all_congruences(alg):
            if theta.is_identity() or theta.is_full():
                continue
            quo, blocks = quotient_algebra(alg, theta)
            image = tuple(sorted(
                i for i, bl in enumerate(blocks) if bset & set(bl)
            ))
            if len(image) == len(blocks):
                continue
            res = absorbs(quo, image, n, cap=cap,
                          max_steps=_FILTER_STEPS)
            if res.holds is False:
                return AbsorptionResult(
                    subset, n, False, None, closed,
                    reason=f"image under {theta} does not absorb the quotient",
                )

    gset = term_closure(alg, n, absorption_patterns(alg.domain, subset, n),
                        cap=cap, region=set(subset), max_steps=max_steps)
    if gset.stop_reason == "region":
        witness = gset.witness_term(tuple(gset.elements[-1]))
        return AbsorptionResult(subset, n, True, witness, closed)
    if gset.truncated:
        return AbsorptionResult(subset, n, None, None, closed)
    return AbsorptionResult(subset, n, False, None, closed)


def semilattice_edge(alg: Algebra, a: int, b: int, cap=None):
    """(a, b) is a semilattice edge iff some binary term t has t(a,b)=t(b,a)=b.

    Equivalently (b,b) lies in Sg{(a,b),(b,a)} inside A^2.  Returns
    (True, witness term) / (False, None) / (None, None) on truncation.
    """
    if a == b:
        raise AlgebraError("semilattice_edge requires a != b")
    return find_term(alg, 2, [(a, b), (b, a)], (b, b), cap=cap)


@dataclass
class EdgeRecord:
    a: int
    b: int
    kind: str  # semilattice | weak-semilattice | (weak-)majority | (weak-/strong-)affine
    directed: bool  # semilattice kinds point a -> b
    witness_blocks: tuple  # witnessing congruence as blocks of Sg{a,b}, original labels
    term: TermTree | None
    group: str | None = None  # abelian group label for affine kinds

    def render(self) -> str:
        arrow = "->" if self.directed else "-"
        wit = "".join("{" + ",".join(map(str, bl)) + "}" for bl in self.witness_blocks)
        return f"{self.a}{arrow}{self.b} {self.kind} witness={wit}"


def _abelian_group_tables(n: int):
    """Addition tables of the abelian groups of order n (n <= 5)."""
    if n == 4:
        z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        # Klein group as bitwise xor on two Z2 coordinates
        k4 = [[i ^ j for j in range(4)] for i in range(4)]
        return [("Z4", z4), ("Z2xZ2", k4)]
    if 1 <= n <= 5:
        return [(f"Z{n}", [[(i + j) % n for j in range(n)] for i in range(n)])]
    raise AlgebraError(f"abelian groups of order {n} not supported (max 5)")


def affine_xyz_tables(n: int):
    """Distinct x-y+z tables over n elements: (group label, labeling, table).

    Enumerates every abelian group of order n and every labeling bijection,
    deduplicating tables; order is fixed (groups in listed order, labelings
    lexicographic), so "first success" below is deterministic.
    """
    out = []
    seen = set()
    for gname, add in _abelian_group_tables(n):
        neg = [None] * n
        for i in range(n):
            for j in range(n):
                if add[i][j] == 0:
                    neg[i] = j
        for lab in itertools.permutations(range(n)):
            inv = [0] * n
            for i, v in enumerate(lab):
                inv[v] = i
            vals = tuple(
                lab[add[add[inv[x]][neg[inv[y]]]][inv[z]]]
                for x, y, z in itertools.product(range(n), repeat=3)
            )
            if vals not in seen:
                seen.add(vals)
                out.append((gname, lab, OperationTable("xyz", 3, n, vals)))
    return out


def clone_excluded(alg: Algebra, op: OperationTable) -> str | None:
    """Cheap sound proof that op is not a term operation, or None.

    Term operations preserve every subuniverse and congruence and restrict
    to term operations on every subuniverse; on two-element subuniverses the
    restricted clone is small enough to enumerate outright.
    """
    for uni in all_subuniverses(alg):
        uset = set(uni)
        for args in itertools.product(uni, repeat=op.arity):
            if op.values[op.index(args)] not in uset:
                return f"breaks subuniverse {uni}"
    for theta in all_congruences(alg):
        if theta.is_identity() or theta.is_full():
            continue
        idx = theta.block_index()
        groups = {}
        for args in op.all_args():
            sig = tuple(idx[x] for x in args)
            v = idx[op.values[op.index(args)]]
            if groups.setdefault(sig, v) != v:
                return f"breaks congruence {theta}"
    for uni in all_subuniverses(alg):
        if len(uni) != 2:
            continue
        sub = alg.restrict(uni)
        local = {x: i for i, x in enumerate(uni)}
        rvals = tuple(
            local[op.values[op.index(tuple(uni[a] for a in largs))]]
            for largs in itertools.product(range(2), repeat=op.arity)
        )
        rop = OperationTable(op.name, op.arity, 2, rvals)
        member, _ = clone_membership(sub, rop)
        if member is False:
            return f"restriction not a term of subalgebra {uni}"
    for theta in all_congruences(alg):
        if theta.is_identity() or theta.is_full() or len(theta.blocks) > 2:
            continue
        quo, blocks = quotient_algebra(alg, theta)
        idx = theta.block_index()
        reps = [bl[0] for bl in blocks]
        qvals = tuple(
            idx[op.values[op.index(tuple(reps[a] for a in largs))]]
            for largs in itertools.product(range(len(blocks)), repeat=op.arity)
        )
        qop = OperationTable(op.name, op.arity, len(blocks), qvals)
        member, _ = clone_membership(quo, qop)
        if member is False:
            return f"induced quotient table not a term modulo {theta}"
    return None


def _majority_on_pair_positions(qa, qb):
    return [
        (qa, qa, qb), (qa, qb, qa), (qb, qa, qa),
        (qb, qb, qa), (qb, qa, qb), (qa, qb, qb),
    ]


def weak_edges(alg: Algebra, a: int, b: int, cap=None, max_steps=None):
    """All edge records carried by the pair {a, b}.

    Returns (records, conclusive).  conclusive=False means some sub-test hit
    its budget, so absences are not certain.
    """
    if a == b:
        raise AlgebraError("weak_edges requires a != b")
    universe = sg_closure(alg, (a, b))
    sub = alg.restrict(universe)
    loc = {x: i for i, x in enumerate(universe)}
    la, lb = loc[a], loc[b]
    congs = [p for p in all_congruences(sub) if not p.is_full()]
    maximal = set(maximal_congruences(sub))

    records = []
    conclusive = True

    for theta in congs:
        idx = theta.block_index()
        if idx[la] == idx[lb]:
            continue
        quo, blocks = quotient_algebra(sub, theta)
        qa, qb = idx[la], idx[lb]
        orig_blocks = tuple(tuple(universe[x] for x in bl) for bl in theta.blocks)

        gen_condition = all(
            sg_closure(alg, (universe[x], universe[y])) == universe
            for x in theta.blocks[qa]
            for y in theta.blocks[qb]
        )
        upgraded = theta in maximal and gen_condition

        # semilattice direction tests on the quotient
        for (u, v, x, y) in ((qa, qb, a, b), (qb, qa, b, a)):
            found, term = semilattice_edge(quo, u, v, cap=cap)
            if found:
                kind = "semilattice" if theta.is_identity() else "weak-semilattice"
                records.append(EdgeRecord(x, y, kind, True, orig_blocks, term))
            elif found is None:
                conclusive = False

        # majority on the two quotient classes of a and b
        found, term = find_term(quo, 3, _majority_on_pair_positions(qa, qb),
                                (qa, qa, qa, qb, qb, qb), cap=cap, max_steps=max_steps)
        if found:
            kind = "majority" if upgraded else "weak-majority"
            records.append(EdgeRecord(a, b, kind, False, orig_blocks, term))
        elif found is None:
            conclusive = False

        # affine: x-y+z of some abelian group structure is a quotient term
        if quo.domain <= 5:
            for gname, lab, table in affine_xyz_tables(quo.domain):
                if clone_excluded(quo, table):
                    continue
                member, witness = clone_membership(
                    quo, table, cap=cap, max_steps=max_steps or _FILTER_STEPS
                )
                if member:
                    if upgraded and theta.is_identity():
                        kind = "strong-affine"
                    elif upgraded:
                        kind = "affine"
                    else:
                        kind = "weak-affine"
                    records.append(EdgeRecord(
                        a, b, kind, False, orig_blocks, witness, group=gname
                    ))
                    break
                if member is None:
                    conclusive = False
        else:
            conclusive = False

    return records, conclusive


# subuniverse lists by operation tables (memo.table_key)
_subuniverses = Memo(limit=1024)


def all_subuniverses(alg: Algebra):
    """All nonempty subuniverses Sg(S), deduplicated, sorted by (size, lex).

    The list is memoized by the operation tables; every call returns a
    fresh list.
    """
    key = table_key(alg)
    found = _subuniverses.get(key)
    if found is None:
        found = _subuniverse_list(alg)
        _subuniverses.put(key, found)
    return list(found)


def _subuniverse_list(alg: Algebra) -> tuple:
    found = set()
    elems = range(alg.domain)
    for r in range(1, alg.domain + 1):
        for s in itertools.combinations(elems, r):
            found.add(sg_closure(alg, s))
    return tuple(sorted(found, key=lambda t: (len(t), t)))


def is_taylor(alg: Algebra, cap=None, max_steps=None):
    """Taylor test via edge connectivity of every subalgebra.

    An idempotent finite algebra is Taylor iff for every subuniverse B the
    graph of weak edges on B (orientation forgotten) is connected.  Returns
    (verdict, reports) with verdict True/False/None and one report
    (subuniverse, connected, edge records) per subuniverse of size >= 2.
    """
    if not alg.is_idempotent():
        raise NotIdempotentError("is_taylor requires an idempotent algebra")
    verdict = True
    reports = []
    for uni in all_subuniverses(alg):
        if len(uni) < 2:
            continue
        sub = alg.restrict(uni)
        components = UnionFind(len(uni))
        edges = []
        sub_conclusive = True
        for i in range(len(uni)):
            for j in range(i + 1, len(uni)):
                recs, concl = weak_edges(sub, i, j, cap=cap, max_steps=max_steps)
                sub_conclusive = sub_conclusive and concl
                if recs:
                    components.union(i, j)
                    edges.extend(recs)
        connected = len(components.blocks()) == 1
        if not connected:
            verdict = False if sub_conclusive else None
        reports.append((uni, connected, edges))
        if verdict is False:
            break
    return verdict, reports


def has_malcev_term(alg: Algebra, cap=None, max_steps=None):
    """Target-vector test for a term with p(x,y,y) = p(y,y,x) = x.

    Returns (True, witness) / (False, None) / (None, None) on truncation.
    """
    n = alg.domain
    pats = sorted(
        {(x, y, y) for x in range(n) for y in range(n) if x != y}
        | {(y, y, x) for x in range(n) for y in range(n) if x != y}
    )
    target = tuple(t[0] if t[1] == t[2] else t[2] for t in pats)
    return find_term(alg, 3, pats, target, cap=cap, max_steps=max_steps)


def is_affine_malcev_equiv(alg: Algebra, cap=None, max_steps=None):
    """Recognize term-equivalence with the affine algebra of an abelian group.

    Tries every abelian group of order n and every labeling; succeeds iff
    (i) the induced x-y+z table is a ternary term of alg and (ii) every basic
    operation commutes with it.  Returns ((group, labeling), conclusive);
    the first component is None on failure.
    """
    n = alg.domain
    conclusive = True
    for gname, lab, table in affine_xyz_tables(n):
        if not all(_commutes_with(op, table) for op in alg.operations):
            continue
        if clone_excluded(alg, table):
            continue
        member, _ = clone_membership(alg, table, cap=cap, max_steps=max_steps)
        if member:
            return (gname, lab), True
        if member is None:
            conclusive = False
    return None, conclusive


def _commutes_with(op: OperationTable, p: OperationTable) -> bool:
    """op(p(x1,y1,z1),...) == p(op(x),op(y),op(z)) for all argument triples."""
    n, r = op.domain, op.arity
    for xs in itertools.product(range(n), repeat=r):
        ox = op.values[op.index(xs)]
        for ys in itertools.product(range(n), repeat=r):
            oy = op.values[op.index(ys)]
            for zs in itertools.product(range(n), repeat=r):
                lhs = op.values[op.index(tuple(
                    p.values[p.index((xs[i], ys[i], zs[i]))] for i in range(r)
                ))]
                if lhs != p.values[p.index((ox, oy, op.values[op.index(zs)]))]:
                    return False
    return True


def two_generated(alg: Algebra):
    """First pair (a, b) in lexicographic order with Sg{a,b} the whole domain."""
    full = tuple(range(alg.domain))
    for a in range(alg.domain):
        for b in range(alg.domain):
            if a != b and sg_closure(alg, (a, b)) == full:
                return a, b
    return None


def ternary_absorbing_subuniverses(alg: Algebra, cap=None, max_steps=None):
    """(list of 3-absorbing subuniverses, conclusive flag)."""
    out = []
    conclusive = True
    for uni in all_subuniverses(alg):
        res = absorbs(alg, uni, 3, cap=cap, max_steps=max_steps)
        if res.holds is None:
            conclusive = False
        elif res.holds:
            out.append(uni)
    return out, conclusive


def dominant_coordinate(alg: Algebra, t: OperationTable, cap=None, max_steps=None):
    """Which coordinate of a binary term keeps every 3-absorbing subuniverse.

    Returns "first" | "second" | "both" | "neither", or None when some
    absorption test was inconclusive.
    """
    if t.arity != 2 or t.domain != alg.domain:
        raise AlgebraError("dominant_coordinate expects a binary table over the domain")
    absorbing, conclusive = ternary_absorbing_subuniverses(
        alg, cap=cap, max_steps=max_steps
    )
    if not conclusive:
        return None
    first = all(
        t.values[t.index((c, d))] in set(C)
        for C in absorbing
        for c in C
        for d in range(alg.domain)
    )
    second = all(
        t.values[t.index((d, c))] in set(C)
        for C in absorbing
        for c in C
        for d in range(alg.domain)
    )
    if first and second:
        return "both"
    if first:
        return "first"
    if second:
        return "second"
    return "neither"


def naive_absorbs(alg: Algebra, subset, n: int, cap=None, max_steps=None):
    """Independent absorption oracle: scan the whole free algebra of arity n
    for a term table satisfying the almost-in-subset condition."""
    subset = set(subset)
    pats = absorption_patterns(alg.domain, subset, n)
    gset = free_algebra(alg, n, cap=cap, max_steps=max_steps)
    if gset.truncated:
        return None
    cells = list(itertools.product(range(alg.domain), repeat=n))
    pat_idx = [cells.index(p) for p in pats]
    for e in gset.elements:
        if all(e[i] in subset for i in pat_idx):
            return True
    return False


def naive_semilattice_edge(alg: Algebra, a: int, b: int, cap=None, max_steps=None):
    """Independent edge oracle: scan Clo_2 for t(a,b) = t(b,a) = b."""
    gset = free_algebra(alg, 2, cap=cap, max_steps=max_steps)
    if gset.truncated:
        return None
    n = alg.domain
    iab, iba = a * n + b, b * n + a
    return any(e[iab] == b and e[iba] == b for e in gset.elements)
