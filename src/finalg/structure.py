"""Absorption, edge classification, Taylor testing, affine recognition.

Edges follow the three-kind scheme: a pair may carry semilattice (directed),
majority, or affine behavior, possibly only on a quotient of the subalgebra
it generates ("weak"), with the witnessing congruence recorded.  The label
is upgraded from weak when the witness is a maximal congruence and every
witness-related pair generates the same subalgebra; an affine edge whose
witness is the identity is "strong-affine".  A plain semilattice edge is the
identity-witnessed weak semilattice edge.

Absorption, clone membership, Mal'cev terms and the semilattice and
majority edge tests are decided by `subpower.decide_term`: named sound
local stages (none for the edge tests), in a fixed order per condition,
before the global closure.  A set cannot absorb if its trace on a proper
subuniverse, or its image in a proper quotient, does not absorb there
(`absorbs`).  A table is not a term operation if it breaks a subuniverse or
a congruence, or restricts outside the (small) clone of a two-element
subalgebra or quotient (`clone_excluded`, the first stage of
`decide_clone_membership`, the one clone decision; the affine edge test
reads the tables it keeps off one shared Clo_3).  A local stage certifies
"no" and names itself, except the Mal'cev stage "compose", whose "yes"
is a term composed from local terms (`compose_malcev_term`); every "yes"
comes with an explicit witness.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .core import (Algebra, AlgebraError, OperationTable, UnionFind, _composed_values,
                   is_closed, is_malcev, relabeling, restrict)
from .congruence import (
    all_congruences,
    format_blocks,
    is_congruence,
    maximal_congruences,
    quotient_algebra,
)
from .memo import per_algebra, table_key
from .subpower import (
    PROBE,
    Decision,
    TermTree,
    check_cells,
    clone_membership,
    decide_term,
    eval_term_table,
    free_algebra,
    generate,  # not called here; perfbench/test_smoke.py checks the tracer rebinds it
    local_obstruction,
    sg_closure,
    substitute,
    term_closure,
    term_values,
)


class NotIdempotentError(AlgebraError):
    pass


@dataclass
class AbsorptionResult:
    subset: tuple
    arity: int
    holds: bool | None  # None = inconclusive (budget exhausted)
    witness: TermTree | None
    subuniverse: bool
    reason: str | None = None  # for a local stage's "no": the failing trace or image

    def absorbs_as_subuniverse(self):
        """The B <|_n A relation: absorbing and closed."""
        if self.holds is None:
            return None
        return self.holds and self.subuniverse


def absorption_patterns(domain: int, subset, n: int):
    """All n-tuples over the domain with >= n-1 coordinates in subset, lex order."""
    inside = set(subset).__contains__
    return [
        t
        for t in itertools.product(range(domain), repeat=n)
        if sum(map(inside, t)) >= n - 1
    ]


def absorbs(alg: Algebra, subset, n: int, max_steps=None) -> AbsorptionResult:
    """Does some n-ary term map every almost-in-subset tuple into the subset?

    Any witness restricts to one for B's trace on a subuniverse and
    descends to one for B's image in a quotient.  So `decide_term` tries,
    local first (a probe would exhaust small closures that a trace answers
    more cheaply): "trace", the first proper subuniverse of the walk
    (`walk_subuniverses`, pairs right after the singletons) where the trace
    fails, so the walk stops there; "image", the first proper quotient
    where the image's trace or region closure fails; then the region
    closure of the n-ary terms' values on the pattern positions, which
    stops once one lies inside B.  The image stage needs no image stage of
    its own: a quotient of A/theta is A over a coarser congruence, which
    the same pass visits.  Every closure runs under `max_steps`.
    """
    subset = tuple(subset)
    alg.check_elements(*subset)
    if not subset:
        raise AlgebraError("absorption needs a nonempty subset")
    for i, x in enumerate(subset):
        if x in subset[:i]:
            raise AlgebraError(f"element {x} repeated in subset")
    subset = tuple(sorted(subset))
    if n < 2:
        raise AlgebraError(f"absorption arity must be >= 2, got {n}")
    check_cells(alg.domain, n, "absorption")
    closed = all(is_closed(op, subset) for op in alg.operations)

    if subset == tuple(range(alg.domain)):
        # the full domain absorbs trivially (any projection witnesses)
        return AbsorptionResult(subset, n, True, TermTree.variable(0), closed)

    bset = set(subset)

    def image():
        for theta in all_congruences(alg)[1:-1]:  # identity first, full last
            quo, blocks = quotient_algebra(alg, theta)
            classes = {i for i, bl in enumerate(blocks) if bset & set(bl)}
            if len(classes) < len(blocks) and (
                    _failing_trace(quo, classes, n, max_steps) is not None
                    or not _region_closure(quo, classes, n, max_steps).truncated):
                return theta

    d = decide_term(alg, n, absorption_patterns(alg.domain, subset, n),
                    [("trace", lambda: _failing_trace(alg, bset, n, max_steps)),
                     ("image", image)], max_steps=max_steps, stop_predicate=bset.issuperset)
    witness = d.closure.witness_term(d.closure.elements[-1]) if d.holds else None
    reason = {"trace": f"trace on subuniverse {d.argument} does not absorb",
              "image": f"image under {d.argument} does not absorb the quotient"}.get(d.stage)
    return AbsorptionResult(subset, n, d.holds, witness, closed, reason)


def _region_closure(alg: Algebra, bset: set, n: int, max_steps):
    """The n-ary terms' values on the patterns of B, stopped at the first
    inside B: complete (not truncated) exactly when B does not absorb."""
    return term_closure(alg, n, absorption_patterns(alg.domain, bset, n),
                        stop_predicate=bset.issuperset, max_steps=max_steps)


def _failing_trace(alg: Algebra, bset: set, n: int, max_steps):
    """The first proper subuniverse of the walk on which B's trace (B meets
    it, and it is not inside B) does not absorb, or None."""
    for uni in walk_subuniverses(alg):
        if 2 <= len(uni) < alg.domain and bset & set(uni) and not set(uni) <= bset:
            local = {i for i, x in enumerate(uni) if x in bset}
            if not _region_closure(alg.restrict(uni), local, n, max_steps).truncated:
                return uni
    return None


def semilattice_edge(alg: Algebra, a: int, b: int, max_steps=None):
    """(a, b) is a semilattice edge iff some binary term t has t(a,b)=t(b,a)=b.

    Equivalently (b,b) lies in Sg{(a,b),(b,a)} inside A^2.  Returns
    (True, witness term) / (False, None) / (None, None) on truncation.
    """
    alg.check_elements(a, b)
    if a == b:
        raise AlgebraError("semilattice_edge requires a != b")
    d = decide_term(alg, 2, [(a, b), (b, a)], [], max_steps=max_steps, targets=[(b, b)])
    return d.holds, d.witness((b, b))


# the kinds an EdgeRecord carries
EDGE_KINDS = ("semilattice", "weak-semilattice", "majority", "weak-majority",
              "strong-affine", "affine", "weak-affine")


@dataclass
class EdgeRecord:
    a: int
    b: int
    kind: str  # one of EDGE_KINDS
    directed: bool  # semilattice kinds point a -> b
    witness_blocks: tuple  # witnessing congruence as blocks of Sg{a,b}, original labels
    term: TermTree | None
    xyz: OperationTable | None = None  # affine kinds: the quotient's x-y+z table matched

    def render(self) -> str:
        arrow = "->" if self.directed else "-"
        return f"{self.a}{arrow}{self.b} {self.kind} witness={format_blocks(self.witness_blocks)}"

    def term_condition(self):
        """(cells, allowed), in the original labels: the term's value on
        `cells[j]` lies in `allowed[j]`, a block of the witnessing congruence.
        A semilattice term sends (a, b) and (b, a) into b's block, a majority
        term is a majority on the blocks of a and b, and an affine term is the
        matched x-y+z table modulo the congruence on all of Sg{a, b}."""
        blocks = self.witness_blocks
        index = {x: i for i, bl in enumerate(blocks) for x in bl}
        a, b = self.a, self.b
        if self.directed:
            cells = [(a, b), (b, a)]
            values = [index[b]] * 2
        elif self.xyz is None:
            cells = _majority_on_pair_positions(a, b)
            values = [index[a]] * 3 + [index[b]] * 3
        else:
            cells = list(itertools.product(sorted(index), repeat=3))
            values = [self.xyz(*(index[x] for x in c)) for c in cells]
        return cells, [set(blocks[v]) for v in values]


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


@functools.cache
def affine_xyz_tables(n: int) -> tuple:
    """Distinct x-y+z tables over n elements: (group label, labeling, table).

    Enumerates every abelian group of order n and every labeling bijection,
    deduplicating tables; order is fixed (groups in listed order, labelings
    lexicographic), so "first success" below is deterministic.  Cached per
    size: every call for one n returns the same tuple.
    """
    out = []
    seen = set()
    for gname, add in _abelian_group_tables(n):
        neg = [row.index(0) for row in add]  # the inverse of each element
        base = tuple(add[add[x][neg[y]]][z] for x, y, z in itertools.product(range(n), repeat=3))
        for lab in itertools.permutations(range(n)):
            vals = relabeling(n, 3, lab)(base)
            if vals not in seen:
                seen.add(vals)
                out.append((gname, lab, OperationTable("xyz", 3, n, vals)))
    return tuple(out)


def clone_excluded(alg: Algebra, op: OperationTable, max_steps=None) -> str | None:
    """Cheap sound proof that op is not a term operation, or None.

    Term operations preserve every subuniverse and congruence and restrict
    to term operations on every proper two-element subuniverse and two-block
    quotient; there the clone is small enough to search outright, under
    `max_steps`.  The restriction and the quotient exist because op passed
    the first two tests.  The subuniverse must be proper: a two-element
    algebra's own search is the one this test is meant to spare.
    """
    if op.domain != alg.domain:
        raise AlgebraError("clone_excluded: domain mismatch")
    for uni in walk_subuniverses(alg):
        if not is_closed(op, uni):
            return f"breaks subuniverse {uni}"
    unis = all_subuniverses(alg)  # the entry the finished walk stored
    congs = [t for t in all_congruences(alg) if not (t.is_identity() or t.is_full())]
    alone = Algebra(alg.domain, [op])
    for theta in congs:
        if not is_congruence(alone, theta)[0]:
            return f"breaks congruence {theta}"
    for uni in unis:
        if len(uni) == 2 < alg.domain:
            member, _ = clone_membership(alg.restrict(uni), restrict(op, uni),
                                         max_steps=max_steps)
            if member is False:
                return f"restriction not a term of subalgebra {uni}"
    for theta in congs:
        if len(theta.blocks) == 2:
            (qop,) = quotient_algebra(alone, theta)[0].operations
            member, _ = clone_membership(quotient_algebra(alg, theta)[0], qop,
                                         max_steps=max_steps)
            if member is False:
                return f"induced quotient table not a term modulo {theta}"
    return None


def decide_clone_membership(alg: Algebra, op: OperationTable, max_steps=None) -> Decision:
    """Is op a term operation of alg?  The one clone decision: `decide_term`
    with the stage "clone_excluded", then the closure of `clone_membership`.
    No probe: one that finished would answer before the exclusion's reason.
    """
    if op.domain != alg.domain:
        raise AlgebraError("clone_membership: domain mismatch")
    return decide_term(alg, op.arity, list(op.all_args()), [
        ("clone_excluded", lambda: clone_excluded(alg, op, max_steps=max_steps)),
    ], max_steps=max_steps, targets=[op.values])


def _majority_on_pair_positions(qa, qb):
    return [
        (qa, qa, qb), (qa, qb, qa), (qb, qa, qa),
        (qb, qb, qa), (qb, qa, qb), (qa, qb, qb),
    ]


def edge_records(alg: Algebra, a: int, b: int, max_steps=None):
    """The edge records carried by the pair {a, b}, one test at a time.

    A lazy walk: it yields each record as its test finds it, and None for
    each test that `max_steps` cut short, so a caller may stop at the first
    record it needs.  The congruences theta of Sg{a, b} that separate a and b
    come coarsest first, so the smallest quotients are tried first; on each
    quotient the tests run in the order semilattice (a -> b, then b -> a),
    majority, affine.  Each test's answer does not depend on the order.
    """
    alg.check_elements(a, b)
    if a == b:
        raise AlgebraError("edge_records requires a != b")
    universe = sg_closure(alg, (a, b))
    sub = alg.restrict(universe)
    loc = {x: i for i, x in enumerate(universe)}
    la, lb = loc[a], loc[b]
    maximal = maximal_congruences(sub)

    for theta in reversed(all_congruences(sub)):
        idx = theta.block_index()
        qa, qb = idx[la], idx[lb]
        if qa == qb:
            continue
        quo, _ = quotient_algebra(sub, theta)
        orig_blocks = tuple(tuple(universe[x] for x in bl) for bl in theta.blocks)

        # both semilattice directions off Sg{(qa,qb),(qb,qa)}: the closure of the
        # swapped generators is its coordinate swap, element by element
        pair = decide_term(quo, 2, [(qa, qb), (qb, qa)], [], max_steps=max_steps,
                           targets=[(qb, qb), (qa, qa)])
        for x, y, loop in ((a, b, (qb, qb)), (b, a, (qa, qa))):
            if (term := pair.witness(loop)) is not None:
                kind = "semilattice" if theta.is_identity() else "weak-semilattice"
                yield EdgeRecord(x, y, kind, True, orig_blocks, term)
            elif pair.holds is None:
                yield None

        # majority on the two quotient classes of a and b
        target = (qa, qa, qa, qb, qb, qb)
        d = decide_term(quo, 3, _majority_on_pair_positions(qa, qb), [], max_steps=max_steps,
                        targets=[target])
        if (term := d.witness(target)) is not None:
            kind = "majority" if _upgraded(alg, universe, theta, maximal, qa, qb) \
                else "weak-majority"
            yield EdgeRecord(a, b, kind, False, orig_blocks, term)
        elif d.holds is None:
            yield None

        # affine: x-y+z of some abelian group structure is a quotient term.
        # Each table `clone_excluded` keeps is looked up in one Clo_3, whose
        # order depends on neither targets nor budget
        if quo.domain > 5:
            yield None
            continue
        clo3 = None
        for _, _, table in affine_xyz_tables(quo.domain):
            if clone_excluded(quo, table, max_steps=max_steps):
                continue
            if clo3 is None:
                clo3 = free_algebra(quo, 3, targets=[table.values], max_steps=max_steps)
            found = clo3.contains(table.values)
            if found:
                kind = ("weak-affine" if not _upgraded(alg, universe, theta, maximal, qa, qb)
                        else "strong-affine" if theta.is_identity() else "affine")
                yield EdgeRecord(a, b, kind, False, orig_blocks,
                                 clo3.witness_term(table.values), xyz=table)
                break
            if found is None:
                yield None


def _upgraded(alg, universe, theta, maximal, qa, qb) -> bool:
    """A weak label is upgraded when theta is a maximal congruence of Sg{a, b}
    and every pair across the classes qa and qb generates all of Sg{a, b}."""
    return theta in maximal and all(
        sg_closure(alg, (universe[x], universe[y])) == universe
        for x in theta.blocks[qa]
        for y in theta.blocks[qb]
    )


def first_edge(alg: Algebra, a: int, b: int, max_steps=None, accept=None):
    """The first record of `edge_records` that `accept` takes (any record
    when None): (record, True), or (None, conclusive) when the walk ends
    without one; conclusive=False means some test hit its budget."""
    conclusive = True
    for r in edge_records(alg, a, b, max_steps=max_steps):
        if r is None:
            conclusive = False
        elif accept is None or accept(r):
            return r, True
    return None, conclusive


def weak_edges(alg: Algebra, a: int, b: int, max_steps=None):
    """All edge records carried by the pair {a, b}.

    Returns (records, conclusive).  conclusive=False means some sub-test hit
    its budget, so absences are not certain.  The records are the whole walk
    of `edge_records`, listed by witnessing congruence finest first (the
    order of `all_congruences`, identity first).
    """
    by_theta = {}
    conclusive = True
    for r in edge_records(alg, a, b, max_steps=max_steps):
        if r is None:
            conclusive = False
        else:
            by_theta.setdefault(r.witness_blocks, []).append(r)
    return [r for recs in reversed(by_theta.values()) for r in recs], conclusive


@per_algebra
def all_subuniverses(alg: Algebra) -> tuple:
    """All nonempty subuniverses Sg(S), deduplicated, sorted by (size, lex).

    The end of a walk (`walk_subuniverses`), whose order it stores too.
    Memoized by the operation tables (`memo.per_algebra`): every call
    returns the one stored tuple, which a finished walk may have stored."""
    return _by_size(_walk_order(alg))


@per_algebra
def _walk_order(alg: Algebra) -> tuple:
    """The subuniverses in the order of `walk_subuniverses`, all of them."""
    return tuple(_walk(alg.domain, functools.partial(sg_closure, alg)))


def walk_subuniverses(alg: Algebra):
    """Yields every nonempty subuniverse once, lazily, breadth first: the
    Sg{x}, then Sg(U + {x}) for each U of the level before and x outside
    it, so fewer generators come first and the pairs' subuniverses come
    right after the singletons'.

    A caller may stop at the first subuniverse it needs.  A walk that
    finishes stores its order (`_walk_order`'s memo entry) and the lattice
    (`all_subuniverses`'s, if absent); a walk that stops stores nothing.
    A walk whose order is stored replays it without closing any set, so
    warm and cold walks yield the same order."""
    key = table_key(alg)
    order = _walk_order.memo.get(key)
    if order is None:
        order = []
        for uni in _walk(alg.domain, functools.partial(sg_closure, alg)):
            order.append(uni)
            yield uni
        _walk_order.memo.put(key, tuple(order))
    else:
        yield from order
    if all_subuniverses.memo.get(key) is None:
        all_subuniverses.memo.put(key, _by_size(order))


def _walk(domain: int, close):
    """The order of `walk_subuniverses`, with close(S) giving Sg(S).

    Sg(S + {x}) = Sg(Sg(S) + {x}), so closing each subuniverse of a level
    with one more element reaches the next; each generating set is closed
    once.  The level before the singletons is the empty set's."""
    found = set()
    level = [()]
    tried = set()
    while level:
        bigger = []
        for uni in level:
            for x in range(domain):
                if x in uni:
                    continue
                gens = tuple(sorted(uni + (x,)))
                if gens in tried:
                    continue
                tried.add(gens)
                sub = close(gens)
                if sub not in found:
                    found.add(sub)
                    bigger.append(sub)
                    yield sub
        level = bigger


def _by_size(unis) -> tuple:
    return tuple(sorted(unis, key=lambda t: (len(t), t)))


def is_taylor(alg: Algebra, max_steps=None):
    """Taylor test via edge connectivity of every subalgebra.

    An idempotent finite algebra is Taylor iff for every subuniverse B the
    graph of weak edges on B (orientation forgotten) is connected.  Returns
    (verdict, reports) with verdict True/False/None and one report
    (subuniverse, connected, edge records) per subuniverse of size >= 2.

    The records of a report form a spanning forest of its subuniverse: a
    pair whose ends are already joined there is skipped, and any other pair
    {a, b} contributes the first record of its walk (`first_edge`, coarsest
    quotient first).  A pair is decided at most once, on the algebra itself,
    and serves every subuniverse that holds it: the walk works inside
    Sg{a, b}, which lies in each of them.  So every record is in the
    algebra's labels.  A skipped pair cannot change connectivity; a False
    verdict needs every pair left between two components to have been
    decided without a budget stop.
    """
    if not alg.is_idempotent():
        raise NotIdempotentError("is_taylor requires an idempotent algebra")
    verdict = True
    reports = []
    decided = {}
    for uni in all_subuniverses(alg):
        if len(uni) < 2:
            continue
        components = UnionFind(alg.domain)
        edges = []
        unsettled = []  # pairs without a record whose walk hit its budget
        for a, b in itertools.combinations(uni, 2):
            if components.find(a) == components.find(b):
                continue
            if (a, b) not in decided:
                decided[a, b] = first_edge(alg, a, b, max_steps=max_steps)
            record, conclusive = decided[a, b]
            if record is not None:
                components.union(a, b)
                edges.append(record)
            elif not conclusive:
                unsettled.append((a, b))
        connected = len(components.blocks(uni)) == 1
        if not connected:
            settled = all(components.find(a) == components.find(b) for a, b in unsettled)
            verdict = False if settled else None
        reports.append((uni, connected, edges))
        if verdict is False:
            break
    return verdict, reports


def has_malcev_term(alg: Algebra, max_steps=None):
    """Target-vector test for a term with p(x,y,y) = p(y,y,x) = x.

    Returns (True, witness) / (False, None) / (None, None) on truncation.
    Runs through `decide_term`.  An idempotent algebra's first stage,
    "compose", builds the term from local terms in A^2, or names the local
    closure that rules it out (`compose_malcev_term`); if a budget cuts a
    local closure short, and for every other algebra, the probe, a local
    obstruction (`malcev_obstruction`) and the global closure follow.
    """
    n = alg.domain
    pats = sorted(
        {(x, y, y) for x in range(n) for y in range(n) if x != y}
        | {(y, y, x) for x in range(n) for y in range(n) if x != y}
    )
    target = tuple(t[0] if t[1] == t[2] else t[2] for t in pats)
    compose_stage = [("compose", lambda: compose_malcev_term(alg, max_steps=max_steps))]
    d = decide_term(alg, 3, pats, [
        *(compose_stage if alg.is_idempotent() else []),
        (PROBE, None),
        ("malcev_obstruction", lambda: malcev_obstruction(alg, max_steps=max_steps)),
    ], max_steps=max_steps, targets=[target])
    return d.holds, d.witness(target)


def compose_malcev_term(alg: Algebra, max_steps=None):
    """A Mal'cev term of an idempotent algebra composed from local terms
    (Freese & Valeriote, IJAC 2009; Horowitz, IJAC 2013): the term, the
    (a, f, e, d) that rules one out, or None when `max_steps` cuts a local
    closure short.

    A local term w has w(a,f,f) = a and w(e,e,d) = d, read off the closure
    in A^2 on those two cells with target (a, d), as in
    `malcev_obstruction`; one that completes without (a, d) is a sound "no".
    The term t starts as x, so t(x,y,y) = x, and the pairs (c, d) are walked
    once, in lex order: where e = t(c,c,d) is not d, t becomes
    s(t(x,y,z), t(y,y,z), z) for an s with s(x,y,y) = x and s(e,e,d) = d.
    By idempotence the new t keeps t(x,y,y) = x and every t(y,y,z) = z that
    held, so a pair once met stays met.  Likewise s starts as z and, for
    each pair (a, b) in turn with f = s(a,b,b) not a, becomes
    w(x, s(x,y,y), s(x,y,z)), which keeps s(e,e,d) = d and every
    s(x,y,y) = x that held.  So at most n^2 (n-1)^2 local closures run.
    Each term is followed as its column of values over one list of the n^3
    cells (`core._composed_values`; the projections are the cells' own
    columns), and the term is returned only if `eval_term_table` replays it
    as a Mal'cev operation.
    """
    if not alg.is_idempotent():
        raise NotIdempotentError("compose_malcev_term requires an idempotent algebra")
    n = alg.domain
    x, y, z = (TermTree.variable(i) for i in range(3))
    cells = list(itertools.product(range(n), repeat=3))
    px, py, pz = zip(*cells)
    pairs = list(itertools.product(range(n), repeat=2))
    local = {}  # (a, f, e, d) -> w and its column
    t, t_col = x, px
    for c, d in pairs:
        if (e := t_col[(c * n + c) * n + d]) == d:
            continue
        s, s_col = z, pz
        for a, b in pairs:
            if (f := s_col[(a * n + b) * n + b]) == a:
                continue
            if (a, f, e, d) not in local:
                closure = term_closure(alg, 3, [(a, f, f), (e, e, d)], targets=[(a, d)],
                                       max_steps=max_steps)
                if not closure.contains((a, d)):
                    return None if closure.truncated else (a, f, e, d)
                w = closure.witness_term((a, d))
                local[a, f, e, d] = w, term_values(w, alg, cells)
            w, w_col = local[a, f, e, d]
            s, s_col = (substitute(w, (x, substitute(s, (x, y, y)), s)),
                        _composed_values(w_col, n, (px, _composed_values(s_col, n, (px, py, py)),
                                                    s_col)))
        t, t_col = (substitute(s, (t, substitute(t, (y, y, z)), z)),
                    _composed_values(s_col, n, (t_col, _composed_values(t_col, n, (py, py, pz)),
                                                pz)))
    return t if is_malcev(eval_term_table(t, alg, 3)) else None


def malcev_obstruction(alg: Algebra, max_steps=None):
    """A sound local "no" for a Mal'cev term: the (a, b, c, d) it fails on.

    A Mal'cev term p has p(a,b,b) = a and p(c,c,d) = d, so for every a != b
    and c != d the ternary terms' values on the cells (a,b,b), (c,c,d) must
    include (a, d), a closure in A^2 (Freese & Valeriote, IJAC 2009).
    The candidates of `local_obstruction` are the quadruples in lex order.
    """
    n = alg.domain
    return local_obstruction(alg, 3, (
        ((a, b, c, d), [(a, b, b), (c, c, d)], {"targets": [(a, d)]})
        for a, b, c, d in itertools.product(range(n), repeat=4) if a != b and c != d
    ), max_steps)


def two_generated(alg: Algebra):
    """First pair (a, b) in lexicographic order with Sg{a,b} the whole domain."""
    full = tuple(range(alg.domain))
    for a in range(alg.domain):
        for b in range(alg.domain):
            if a != b and sg_closure(alg, (a, b)) == full:
                return a, b
    return None


def ternary_absorbing_subuniverses(alg: Algebra, max_steps=None):
    """(list of 3-absorbing subuniverses, conclusive flag)."""
    out = []
    conclusive = True
    for uni in all_subuniverses(alg):
        res = absorbs(alg, uni, 3, max_steps=max_steps)
        if res.holds is None:
            conclusive = False
        elif res.holds:
            out.append(uni)
    return out, conclusive


def dominant_coordinate(alg: Algebra, t: OperationTable, max_steps=None):
    """Which coordinate of a binary term keeps every 3-absorbing subuniverse.

    Returns "first" | "second" | "both" | "neither", or None when some
    absorption test was inconclusive.
    """
    if t.arity != 2 or t.domain != alg.domain:
        raise AlgebraError("dominant_coordinate expects a binary table over the domain")
    absorbing, conclusive = ternary_absorbing_subuniverses(alg, max_steps=max_steps)
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


def naive_absorbs(alg: Algebra, subset, n: int, max_steps=None):
    """Independent absorption oracle: scan the whole free algebra of arity n
    for a term table satisfying the almost-in-subset condition."""
    subset = set(subset)
    pats = absorption_patterns(alg.domain, subset, n)
    gset = free_algebra(alg, n, max_steps=max_steps)
    if gset.truncated:
        return None
    cells = list(itertools.product(range(alg.domain), repeat=n))
    pat_idx = [cells.index(p) for p in pats]
    for e in gset.elements:
        if all(e[i] in subset for i in pat_idx):
            return True
    return False


def naive_semilattice_edge(alg: Algebra, a: int, b: int, max_steps=None):
    """Independent edge oracle: scan Clo_2 for t(a,b) = t(b,a) = b."""
    gset = free_algebra(alg, 2, max_steps=max_steps)
    if gset.truncated:
        return None
    n = alg.domain
    iab, iba = a * n + b, b * n + a
    return any(e[iab] == b and e[iba] == b for e in gset.elements)
