"""Answer checks for the benchmark, run outside the timed region.

A "yes" is checked by replaying its witness term.  A "no" on an algebra of
at most three elements is checked against an independent oracle: a naive
fixpoint written here, `structure.naive_absorbs` or
`structure.naive_semilattice_edge`, or a scan of the whole ternary clone.
Search solutions are checked with `search.satisfies`, and domain-3 counts
against a brute-force count written here.  Anything else is "unchecked".

`inconclusive` tells a budget stop from an answer; `verify` checks an
answer and returns (check, note) with check in ok | unchecked | wrong.
"""

from __future__ import annotations

import itertools

from finalg import catalog, congruence, search, structure, subpower

NAIVE_STEPS = 500_000  # budget of the clone scans behind a checked "no"
SMALL = 3  # "no" answers are checked on algebras of at most this many elements


def cell_index(args, n):
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def term_table(term, alg, k):
    """Table of a term operation, evaluated here rather than by finalg."""
    ops = {o.name: o for o in alg.operations}
    n = alg.domain

    def ev(t, args):
        if t.op is None:
            return args[t.var]
        op = ops[t.op]
        return op.values[cell_index([ev(c, args) for c in t.children], n)]

    return tuple(ev(term, args) for args in itertools.product(range(n), repeat=k))


def _is_malcev(vals, n):
    return all(vals[cell_index((x, y, y), n)] == x and vals[cell_index((y, y, x), n)] == x
               for x in range(n) for y in range(n))


def _is_cyclic(vals, n):
    return all(vals[cell_index((x, y, z), n)] == vals[cell_index((y, z, x), n)]
               for x, y, z in itertools.product(range(n), repeat=3))


def naive_sg(alg, m, gens):
    """Sg(gens) in A^m by a plain set fixpoint over all argument tuples."""
    elems = {tuple(g) for g in gens}
    n = alg.domain
    while True:
        cur = sorted(elems)
        new = set()
        for op in alg.operations:
            for args in itertools.product(cur, repeat=op.arity):
                new.add(tuple(op.values[cell_index([a[i] for a in args], n)]
                              for i in range(m)))
        if new <= elems:
            return elems
        elems |= new


# ---------------------------------------------------------------------------
# iso-classify positive controls


def check_bijection(a, b, perm):
    """A returned bijection must carry b back onto a.

    Exact check first: the re-transported tables equal a's.  When the
    relabeled algebra is only term-equivalent to a (a clone automorphism
    that is not a table automorphism), each basic operation of either side
    must be a term of the other, with the witness term replayed.
    """
    back = catalog.transport(b, perm)
    if all(x.values == y.values for x, y in zip(back.operations, a.operations)):
        return True, "tables identical"
    for src, dst in ((a, back), (back, a)):
        for op in dst.operations:
            member, witness = subpower.clone_membership(src, op, max_steps=20_000_000)
            if not member:
                return False, f"{op.name} of the relabeled side is not a replayed term"
            if subpower.eval_term_table(witness, src, op.arity).values != op.values:
                return False, "witness term does not replay"
    return True, "term-equivalent, witnesses replayed"


# ---------------------------------------------------------------------------
# search specs

TWO_ELEMENT = {
    2: {"min0": (0, 0, 0, 1), "min1": (0, 1, 1, 1), "proj1": (0, 0, 1, 1), "proj2": (0, 1, 0, 1)},
    3: {"maj": (0, 0, 0, 1, 0, 1, 1, 1), "minority": (0, 1, 1, 0, 1, 0, 0, 1),
        "min0": (0, 0, 0, 0, 0, 0, 0, 1), "min1": (0, 1, 1, 1, 1, 1, 1, 1)},
}


def random_search_spec(rng, n, k, slot):
    """An idempotent classification-style spec.  Ternary specs are cyclic;
    4-element specs are commutative with at least one restriction, so that
    solution counts stay in the thousands.  The slot fixes how many
    constraints of each kind the spec has; the seed picks them."""
    spec = {"domain": n, "arity": k, "sym": "cyclic" if k == 3 else None,
            "restrict": [], "partition": None, "values": []}
    if k == 2 and (n > 3 or slot % 2 == 0):
        spec["sym"] = "commutative"
    if n > 2:
        restricts = (1, 1, 2, 1) if n > 3 else (0, 1, 1, 2)
        subsets = rng.sample(list(itertools.combinations(range(n), 2)), restricts[slot // 2 % 4])
        for subset in sorted(subsets):
            spec["restrict"].append((subset, rng.choice(sorted(TWO_ELEMENT[k].values()))))
    if n >= 3 and slot % 3 == 2:
        x = rng.randrange(n)
        spec["partition"] = ((x,), tuple(y for y in range(n) if y != x))
    if slot % 4 == 1:
        args = tuple(rng.randrange(n) for _ in range(k))
        while len(set(args)) == 1:
            args = tuple(rng.randrange(n) for _ in range(k))
        spec["values"].append((args, rng.randrange(n)))
    return spec


def spec_text(spec):
    lines = [f"domain {spec['domain']}", f"arity {spec['arity']}", "idempotent"]
    if spec["sym"]:
        lines.append(spec["sym"])
    for subset, vals in spec["restrict"]:
        lines.append(f"restrict {','.join(map(str, subset))} := {' '.join(map(str, vals))}")
    if spec["partition"]:
        lines.append("partition " + "".join(
            "{" + ",".join(map(str, b)) + "}" for b in sorted(spec["partition"])))
    for args, v in spec["values"]:
        lines.append(f"value {','.join(map(str, args))} := {v}")
    return "\n".join(lines) + "\n"


def _spec_holds(spec, vals):
    n, k = spec["domain"], spec["arity"]
    for subset, local in spec["restrict"]:
        for largs in itertools.product(range(2), repeat=k):
            got = vals[cell_index([subset[a] for a in largs], n)]
            if got != subset[local[cell_index(largs, 2)]]:
                return False
    for args, v in spec["values"]:
        if vals[cell_index(args, n)] != v:
            return False
    if spec["partition"]:
        block = {x: i for i, b in enumerate(spec["partition"]) for x in b}
        for args in itertools.product(range(n), repeat=k):
            v = block[vals[cell_index(args, n)]]
            for i in range(k):
                for y in range(n):
                    if block[y] == block[args[i]]:
                        args2 = args[:i] + (y,) + args[i + 1:]
                        if block[vals[cell_index(args2, n)]] != v:
                            return False
    if spec["sym"] == "commutative":
        if any(vals[cell_index((x, y), n)] != vals[cell_index((y, x), n)]
               for x in range(n) for y in range(n)):
            return False
    return True


def brute_count(spec):
    """Number of tables meeting the spec, by enumerating every idempotent
    (binary) or idempotent cyclic (ternary) table."""
    n, k = spec["domain"], spec["arity"]
    cells = list(itertools.product(range(n), repeat=k))
    if k == 2:
        orbits = [[c] for c in cells if c[0] != c[1]]
    else:
        seen, orbits = set(), []
        for c in cells:
            if len(set(c)) > 1 and c not in seen:
                orb = sorted({c, c[1:] + c[:1], c[2:] + c[:2]})
                seen.update(orb)
                orbits.append(orb)
    base = [0] * len(cells)
    for x in range(n):
        base[cell_index((x,) * k, n)] = x
    idx = [[cell_index(c, n) for c in orb] for orb in orbits]
    count = 0
    for choice in itertools.product(range(n), repeat=len(orbits)):
        vals = list(base)
        for positions, v in zip(idx, choice):
            for i in positions:
                vals[i] = v
        if _spec_holds(spec, vals):
            count += 1
    return count


# ---------------------------------------------------------------------------
# query-mix verdicts


def _edge_replays(alg, r):
    blocks = {x: i for i, b in enumerate(r.witness_blocks) for x in b}
    a, b = r.a, r.b

    def t(*args):
        return blocks[subpower.eval_term(r.term, alg, args)]

    A, B = blocks[a], blocks[b]
    if "semilattice" in r.kind:
        return t(a, b) == B and t(b, a) == B
    if "majority" in r.kind:
        return (t(a, a, b) == t(a, b, a) == t(b, a, a) == A
                and t(b, b, a) == t(b, a, b) == t(a, b, b) == B)
    return t(a, b, b) == t(b, b, a) == A and t(b, a, a) == t(a, a, b) == B


def inconclusive(kind, res):
    """Did the query end on a budget rather than an answer?"""
    if kind == "sg":
        return res[0] is None
    if kind == "absorb":
        return res.holds is None
    if kind == "edges":
        return not res[0] and not res[1]
    if kind in ("clone", "malcev"):
        return res[0] is None
    if kind == "cyclic":
        return res is None
    return False


def verify(kind, alg, p, res):
    """(check, note) for a conclusive query answer; check is ok|unchecked|wrong."""
    small = alg is not None and alg.domain <= SMALL

    def verdict(ok, why):
        return ("ok", "") if ok else ("wrong", why)

    if kind == "sg":
        member, witness = res
        gens, target = p["gens"], p["target"]
        if member:
            return verdict(all(subpower.eval_term(witness, alg, [g[i] for g in gens]) == target[i]
                               for i in range(p["m"])), "witness does not replay")
        if small:
            return verdict(target not in naive_sg(alg, p["m"], gens), "naive closure has target")
        return "unchecked", ""
    if kind == "cong":
        a, b = p["pair"]
        return verdict(congruence.is_congruence(alg, res)[0] and res.related(a, b),
                       f"{res} rejected")
    if kind == "absorb":
        subset, k = set(p["subset"]), p["arity"]
        if res.holds:
            table = subpower.eval_term_table(res.witness, alg, k).values
            return verdict(all(table[cell_index(t, alg.domain)] in subset
                               for t in itertools.product(range(alg.domain), repeat=k)
                               if sum(x in subset for x in t) >= k - 1),
                           "witness does not absorb")
        if small:
            naive = structure.naive_absorbs(alg, subset, k, max_steps=NAIVE_STEPS)
            if naive is None:
                return "unchecked", "naive scan over budget"
            return verdict(not naive, "naive scan absorbs")
        return "unchecked", ""
    if kind == "edges":
        recs, _ = res
        if recs:
            bad = [r.render() for r in recs if not _edge_replays(alg, r)]
            return verdict(not bad, "; ".join(bad))
        if small:
            a, b = p["pair"]
            naive = [structure.naive_semilattice_edge(alg, x, y, max_steps=NAIVE_STEPS)
                     for x, y in ((a, b), (b, a))]
            if None in naive:
                return "unchecked", "naive scan over budget"
            return verdict(True not in naive, "naive scan finds a semilattice edge")
        return "unchecked", ""
    if kind == "clone":
        member, witness, _reason = res
        if member:
            got = subpower.eval_term_table(witness, alg, p["arity"]).values
            return verdict(got == p["table"], "witness does not replay")
        if p["from_term"]:
            return "wrong", "a term operation was reported absent"
        return "unchecked", ""
    if kind == "cyclic":
        if not res:
            return "unchecked", ""
        n = alg.domain
        g = subpower.free_algebra(alg, 3, max_steps=NAIVE_STEPS,
                                  stop_predicate=lambda e: _is_cyclic(e, n))
        if g.stop_reason != "predicate":
            return "unchecked", "witness search over budget"
        w = g.witness_term(tuple(g.elements[-1]))
        return verdict(_is_cyclic(subpower.eval_term_table(w, alg, 3).values, n),
                       "witness not cyclic")
    if kind == "malcev":
        found, witness = res
        n = alg.domain
        if found:
            return verdict(_is_malcev(subpower.eval_term_table(witness, alg, 3).values, n),
                           "witness not Mal'cev")
        if small:
            g = subpower.free_algebra(alg, 3, max_steps=NAIVE_STEPS)
            if g.truncated:
                return "unchecked", "clone scan over budget"
            return verdict(not any(_is_malcev(e, n) for e in g.elements),
                           "clone has a Mal'cev term")
        return "unchecked", ""
    if kind == "search":
        spec = search.parse_constraint_file(spec_text(p))
        if res.truncated:
            return "wrong", "uncapped search reported truncation"
        for t in res.tables:
            if not all(search.satisfies(t, c) for c in spec.constraints):
                return "wrong", f"solution {t.values} breaks the spec"
        if p["domain"] == 3:
            want = brute_count(p)
            return verdict(want == len(res.tables),
                           f"{len(res.tables)} solutions, brute force {want}")
        return "unchecked", ""
    raise ValueError(kind)
