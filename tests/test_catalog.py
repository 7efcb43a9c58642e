import itertools
import json
import pathlib
import random

import pytest

from finalg.core import (Algebra, AlgebraError, OperationTable, is_malcev, parse_algebra,
                         product, serialize_algebra)
from finalg.congruence import Partition, all_congruences
from finalg import catalog, structure


def test_names_fixed_order_and_count():
    names = catalog.names()
    assert len(names) == 47
    assert names[:3] == ["S", "M", "Z2aff"]
    assert names[3:8] == ["T1N", "T2N", "T3N", "T4N", "T5N"]
    assert names[8:12] == ["T1S", "T2S", "T1P", "T2P"]
    assert names[12:27] == [f"T{i}C" for i in range(1, 16)]
    assert names[27:45] == [f"T4,{i}" for i in range(1, 19)]
    assert names[45:] == ["Z4aff", "Z2xZ2aff"]


def test_get_unknown_name():
    with pytest.raises(catalog.UnknownNameError):
        catalog.get("nope")


def test_z3aff_alias(alg):
    entry = catalog.get("Z3aff")
    assert entry.name == "T5N"
    want = tuple((x - y + z) % 3 for x, y, z in itertools.product(range(3), repeat=3))
    assert entry.op().values == want


def test_every_entry_idempotent_and_factual(entries):
    for entry in entries.values():
        assert entry.algebra.is_idempotent()
        assert catalog.check_facts(entry) == []


def test_golden_files_round_trip(entries):
    for name, entry in entries.items():
        text = serialize_algebra(catalog.get(name).algebra)
        back = parse_algebra(text)
        assert [o.values for o in back.operations] == [
            o.values for o in entry.algebra.operations
        ]


def test_build_algebra_spot_values(alg):
    assert catalog.build_algebra("T4,1").op("g")(0, 0, 3) == 0
    assert catalog.build_algebra("T4,7").op("t")(0, 1) == 2
    assert catalog.build_algebra("T4,5").op("g")(0, 1, 2) == 0


def test_a_transcription_without_one_completion_names_the_entry(monkeypatch):
    pairs, values = catalog._CYC4["T4,1"]
    conflicting = {**values, (0, 0, 1): 1}  # maj on {0,1} has g(0,0,1) = 0
    loose = {args: v for args, v in values.items() if args != (1, 2, 3)}  # one orbit free
    for slip, what in ((conflicting, "no"), (loose, "more than one")):
        monkeypatch.setitem(catalog._CYC4, "T4,1", (pairs, slip))
        monkeypatch.setattr(catalog, "_TABLE", {})
        catalog._fill()
        with pytest.raises(catalog.CatalogIntegrityError,
                           match=f"^T4,1: {what} completion of its transcription$"):
            catalog.build_algebra("T4,1")


def test_t412_is_negated_sum(alg):
    want = tuple((-(x + y + z)) % 4 for x, y, z in itertools.product(range(4), repeat=3))
    assert alg("T4,12").op("g").values == want


def test_letter_maps():
    assert catalog.get("T4,14").letter_map == {"a": 0, "b": 1, "c": 2, "d": 3}
    assert catalog.get("T4,13").letter_map is not None
    assert catalog.get("T4,10").letter_map is None


def test_t413_example_consistency(alg):
    p = catalog.t413_malcev_table()
    assert is_malcev(p)
    for perm in (catalog.T413_SIGMA, catalog.T413_TAU):
        for args in p.all_args():
            mapped = tuple(perm[x] for x in args)
            assert p.eval(mapped) == perm[p.eval(args)]
    # the group tables are abelian groups
    for tbl in (catalog.T413_PLUS_A, catalog.T413_PLUS_B):
        assert all(tbl[i][j] == tbl[j][i] for i in range(4) for j in range(4))
        assert all(
            tbl[tbl[i][j]][k] == tbl[i][tbl[j][k]]
            for i in range(4) for j in range(4) for k in range(4)
        )
    # composing the cyclic operation out of p reproduces the catalog derivation
    g = alg("T4,13").op("g")

    def gp(x, y, z):
        return g(g(x, y, y), g(y, z, z), g(z, x, x))

    def gstar(x, y, z):
        return p(p(x, y, z), p(y, z, x), p(z, x, y))

    assert all(gp(*a) == gstar(*a) for a in itertools.product(range(4), repeat=3))


def test_term_equivalent_reflexive(alg):
    assert catalog.term_equivalent(alg("T4,10"), alg("T4,10")) is True


def test_term_equivalent_t412_z4aff(alg):
    assert catalog.term_equivalent(alg("T4,12"), alg("Z4aff")) is True


def test_term_equivalent_s_m_false(alg):
    assert catalog.term_equivalent(alg("S"), alg("M")) is False


def test_equivalent_up_to_iso_relabeling(alg):
    a = alg("T4,10")
    perm = (2, 0, 3, 1)
    b = catalog.transport(a, perm)
    got, conclusive = catalog.equivalent_up_to_iso(a, b)
    assert conclusive and got is not None
    # the found bijection really transports b onto a's clone
    assert catalog.term_equivalent(a, catalog.transport(b, got)) is True


def test_equivalent_up_to_iso_t49_product(alg):
    prod = product([alg("M"), alg("Z2aff")])
    perm, conclusive = catalog.equivalent_up_to_iso(alg("T4,9"), prod)
    assert conclusive and perm is not None


def test_equivalent_up_to_iso_t1n_t2n_absent(alg):
    perm, conclusive = catalog.equivalent_up_to_iso(alg("T1N"), alg("T2N"))
    assert conclusive and perm is None


def test_transported_fingerprint_is_the_fingerprint_of_the_transport(entries):
    for entry in entries.values():
        a = entry.algebra
        n = a.domain
        perms = list(itertools.permutations(range(n)))
        if n == 4:
            perms = [(1, 2, 3, 0)]
        fp = catalog.invariant_fingerprint(a)
        for p in perms:
            want = catalog.invariant_fingerprint(catalog.transport(a, p))
            assert catalog._transport_fingerprint(fp, p, n) == want, (entry.name, p)


def test_renamed_copy_hits_the_fingerprint_cache(alg, monkeypatch):
    a = alg("T4,10")
    fp = catalog.invariant_fingerprint(a)
    renamed = Algebra(4, [OperationTable("h", 3, 4, a.operations[0].values)],
                      label="copy")

    def recompute(*args, **kwargs):
        raise AssertionError("fingerprint recomputed")

    monkeypatch.setattr(catalog, "all_subuniverses", recompute)
    monkeypatch.setattr(catalog, "free_algebra", recompute)
    assert catalog.invariant_fingerprint(renamed) is fp


@pytest.fixture
def fresh_fingerprints():
    """An empty fingerprint store during the test, and again after it, so
    that no fingerprint made under a patched budget outlives the test."""
    catalog._fp_cache.clear()
    yield
    catalog._fp_cache.clear()


# an idempotent binary operation on 3 elements whose edge 0->1 no element
# of Clo_2's first step witnesses, only a longer term
_DEEP_EDGE = Algebra(3, (OperationTable("t", 2, 3, (0, 2, 2, 1, 1, 2, 0, 1, 2)),))


def every_entry_and_a_relabeling(extra=()):
    named = [(name, catalog.get(name).algebra) for name in catalog.names() + ["Z3aff"]]
    for name, a in named + list(extra):
        yield name, a
        yield f"{name} reversed", catalog.transport(a, tuple(reversed(range(a.domain))))


def closure_edges(a):
    """The semilattice edges, one A^2 closure per ordered pair."""
    return {(x, y) for x, y in itertools.permutations(range(a.domain), 2)
            if structure.semilattice_edge(a, x, y)[0] is True}


def test_fingerprint_edges_are_the_semilattice_edges(fresh_fingerprints):
    for label, a in every_entry_and_a_relabeling():
        fp = catalog.invariant_fingerprint(a)
        assert fp["clo2"] is not None, label
        assert fp["semilattice_edges"] == closure_edges(a), label


def test_a_cut_short_clo2_falls_back_to_the_edge_closures(fresh_fingerprints, monkeypatch):
    # at 1 step every Clo_2 closure here stops early: most edges are
    # witnessed by that prefix, and _DEEP_EDGE's 0->1 only by its own closure
    monkeypatch.setattr(catalog, "_FP_BUDGET", 1)
    for label, a in every_entry_and_a_relabeling([("deep edge", _DEEP_EDGE)]):
        fp = catalog.invariant_fingerprint(a)
        assert fp["clo2"] is None, label
        assert fp["semilattice_edges"] == closure_edges(a), label
    assert (0, 1) in catalog.invariant_fingerprint(_DEEP_EDGE)["semilattice_edges"]


def test_a_complete_clo2_runs_no_edge_closure(fresh_fingerprints, monkeypatch):
    def closure(*args, **kwargs):
        raise AssertionError("semilattice_edge called")

    monkeypatch.setattr(catalog, "semilattice_edge", closure)
    for label, a in every_entry_and_a_relabeling():
        assert catalog.invariant_fingerprint(a)["clo2"] is not None, label


def lexicographic_scan(a, b):
    """equivalent_up_to_iso without the fingerprint screen."""
    conclusive = True
    for perm in itertools.permutations(range(a.domain)):
        r = catalog.term_equivalent(a, catalog.transport(b, perm))
        if r is True:
            return perm, True
        if r is None:
            conclusive = False
    return None, conclusive


def test_screen_changes_no_answer(entries, alg):
    pairs = [(alg("T4,9"), product([alg("M"), alg("Z2aff")]))]
    for entry in entries.values():
        a = entry.algebra
        if a.domain <= 3:
            pairs.append((a, catalog.transport(a, tuple(range(a.domain))[::-1])))
    for a, b in pairs:
        assert catalog.equivalent_up_to_iso(a, b) == lexicographic_scan(a, b), a.label


def full_transport_screen(a, b, max_steps=None):
    """equivalent_up_to_iso without the shape screen: every bijection
    transports b's whole fingerprint before it is compared with a's."""
    fa, fb = catalog.invariant_fingerprint(a), catalog.invariant_fingerprint(b)
    conclusive = True
    for perm in itertools.permutations(range(a.domain)):
        if catalog._fingerprints_differ(fa, catalog._transport_fingerprint(fb, perm, a.domain)):
            continue
        r = catalog.term_equivalent(a, catalog.transport(b, perm), max_steps=max_steps)
        if r is True:
            return perm, True
        if r is None:
            conclusive = False
    return None, conclusive


# the per-closure budget of the iso-classify benchmark workload
_ISO_STEPS = 20_000_000


def test_the_shape_screen_keeps_every_answer(entries):
    # every equal-domain pair of entries (3 + 276 + 190), and each entry
    # against a seeded relabeling of itself
    rng = random.Random(18)
    algs = [e.algebra for e in entries.values()]
    pairs = [(a, b) for a, b in itertools.combinations(algs, 2) if a.domain == b.domain]
    pairs += [(a, catalog.transport(a, rng.choice(list(itertools.permutations(range(a.domain))))))
              for a in algs]
    rejected = found = 0
    for a, b in pairs:
        shapes = [catalog._fingerprint_shape(catalog.invariant_fingerprint(x)) for x in (a, b)]
        rejected += catalog._fingerprints_differ(*shapes)
        got = catalog.equivalent_up_to_iso(a, b, max_steps=_ISO_STEPS)
        assert got == full_transport_screen(a, b, max_steps=_ISO_STEPS), (a.label, b.label)
        found += got[0] is not None
    # the screen answers 451 of the 469 pairs; T4,12 ~ Z4aff and every
    # relabeling are found
    assert len(pairs) == 469 + 47
    assert rejected == 451 and found == 1 + 47
    # the Clo_2 sizes stage grows b's closure against a's Clo_2 when neither
    # fingerprint is stored: T4,16 and T4,18, the one pair that only the
    # Clo_2 sizes separate, in both argument orders (T4,16's closure
    # completes below T4,18's 72 elements; T4,18's stops at 17)
    t416, t418 = catalog.get("T4,16").algebra, catalog.get("T4,18").algebra
    for a, b in ((t418, t416), (t416, t418)):
        catalog._fp_cache.clear()
        assert catalog.equivalent_up_to_iso(a, b, max_steps=_ISO_STEPS) == \
            full_transport_screen(a, b, max_steps=_ISO_STEPS) == (None, True)


# each relabeled control (the last bijection in lex order that changes the
# tables) and the bijection the scan finds for it
_ISO_CONTROLS = {"T1N": (2, 1, 0), "T3N": (2, 1, 0), "T1C": (2, 1, 0), "T2N": (2, 1, 0),
                 "T4,3": (3, 2, 1, 0), "T4,9": (0, 1, 3, 2), "T4,13": (0, 1, 2, 3),
                 "T4,15": (3, 1, 2, 0)}


def test_the_isomorphism_screen_keeps_its_work(monkeypatch):
    # criterion 5's 429 pairs from an empty fingerprint store, then the
    # relabeled controls: no pair is equivalent or inconclusive, T4,18's
    # Clo_2 is only ever grown one element past T4,16's, and 29 fingerprints
    # are computed for the pairs (40 with the controls)
    names = catalog.names()
    t418 = catalog.get("T4,18").algebra
    unbounded = []
    free = catalog.free_algebra

    def spy(alg, k, **kw):
        if alg.operations == t418.operations and "stop_predicate" not in kw:
            unbounded.append(kw)
        return free(alg, k, **kw)

    monkeypatch.setattr(catalog, "free_algebra", spy)
    catalog._fp_cache.clear()
    for family in (names[3:27], names[27:45]):
        for a, b in itertools.combinations(family, 2):
            got = catalog.equivalent_up_to_iso(catalog.get(a).algebra, catalog.get(b).algebra,
                                               max_steps=_ISO_STEPS)
            assert got == (None, True), (a, b, got)
    assert unbounded == [] and len(catalog._fp_cache) == 29
    for name, found in _ISO_CONTROLS.items():
        a = catalog.get(name).algebra
        perm = max(p for p in itertools.permutations(range(a.domain))
                   if catalog.transport(a, p).operations != a.operations)
        got = catalog.equivalent_up_to_iso(a, catalog.transport(a, perm), max_steps=_ISO_STEPS)
        assert got == (found, True), name
    assert len(catalog._fp_cache) == 40


def test_the_shape_is_the_same_after_any_relabeling(entries):
    for entry in entries.values():
        a = entry.algebra
        shape = catalog._fingerprint_shape(catalog.invariant_fingerprint(a))
        for p in itertools.permutations(range(a.domain)):
            b = catalog.transport(a, p)
            assert catalog._fingerprint_shape(catalog.invariant_fingerprint(b)) == shape, \
                (entry.name, p)


def test_a_budget_below_one_is_rejected_before_any_screen(alg):
    # T4,9 and T4,10 differ in shape, and a clone exclusion separates them
    # before any closure runs: neither answer may hide a bad budget
    for steps in (0, -1):
        for decide in (catalog.equivalent_up_to_iso, catalog.term_equivalent):
            with pytest.raises(AlgebraError, match=f"max_steps must be at least 1, got {steps}"):
                decide(alg("T4,9"), alg("T4,10"), max_steps=steps)
        # and an entry of another domain, answered without a bijection
        with pytest.raises(AlgebraError, match=f"max_steps must be at least 1, got {steps}"):
            catalog.equivalent_to_entry(alg("T4,9"), "S", max_steps=steps)


def test_verify_subdirect_t41(alg):
    r = catalog.verify_subdirect(
        alg("T4,1"),
        Partition.parse("{0,1,2}{3}", 4),
        Partition.parse("{0}{1,3}{2}", 4),
        "S", "T1N",
    )
    assert r is True


def test_verify_subdirect_t47_spec_example(alg):
    r = catalog.verify_subdirect(
        alg("T4,7"),
        Partition.parse("{0,3}{1}{2}", 4),
        Partition.parse("{0,1,2}{3}", 4),
        "Z3aff", "S",
    )
    assert r is True


def test_verify_subdirect_meet_failure(alg):
    r = catalog.verify_subdirect(
        alg("T4,1"),
        Partition.parse("{0,1,2}{3}", 4),
        Partition.parse("{0,1}{2}{3}", 4),
        "S", "T4N",
    )
    assert r is False  # congruences but the meet is not the identity


def test_t411_subdirect_decomposition(alg):
    # found computationally: both three-class congruences are proper, meet to
    # the identity, and both quotients are copies of T3N
    r = catalog.verify_subdirect(
        alg("T4,11"),
        Partition.parse("{0,2}{1}{3}", 4),
        Partition.parse("{0}{1,3}{2}", 4),
        "T3N", "T3N",
    )
    assert r is True


def test_t2p_shape(alg):
    op = alg("T2P").op("g")
    from finalg.core import is_conservative, restrict, is_minority

    assert is_conservative(op)
    for pair in ((0, 1), (1, 2), (0, 2)):
        assert is_minority(restrict(op, pair))
    for args in itertools.permutations(range(3)):
        assert op.eval(args) == args[0]


def test_pair_table_kinds():
    t = catalog.pair_table("min2", (0, 2), arity=2)
    assert t(0, 1) == 1 and t(0, 0) == 0  # bottom is original label 2 -> local 1
    t = catalog.pair_table("maj", (0, 1))
    assert t(0, 1, 1) == 1
    t = catalog.pair_table("aff", (1, 3))
    assert t(0, 1, 1) == 0 and t(0, 0, 1) == 1


def test_subdirect_irreducibility_of_the_rest(alg):
    # apart from the five with explicit presentations, T4,9 (a direct
    # product) and T4,11 (see above), no two nontrivial congruences of a
    # four-element entry meet to the identity
    reducible = {"T4,1", "T4,2", "T4,3", "T4,4", "T4,7", "T4,9", "T4,11"}
    for i in range(1, 19):
        name = f"T4,{i}"
        a = alg(name)
        congs = [
            c for c in all_congruences(a)
            if not c.is_identity() and not c.is_full()
        ]
        decomposes = any(
            c1.meet(c2).is_identity()
            for c1, c2 in itertools.combinations(congs, 2)
        )
        assert decomposes == (name in reducible), name


def test_entry_metadata_matches_the_recorded_values():
    # (looked-up name, name, source, letter map, facts) of every entry and
    # of the alias, in catalog order; a dropped, added or reordered fact
    # shows here even where check_facts still passes
    path = pathlib.Path(__file__).parent / "data" / "catalog_entries.json"
    want = json.loads(path.read_text())
    got = [[key, e.name, e.source, e.letter_map, e.facts]
           for key in catalog.names() + ["Z3aff"] for e in [catalog.get(key)]]
    assert json.loads(json.dumps(got)) == want
