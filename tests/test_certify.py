import dataclasses
import json
import pathlib

import pytest

from finalg.core import AlgebraError, OperationTable, ParseError, is_cyclic, projection
from finalg import catalog, certify, structure, subpower
from finalg.certify import Assertion
from finalg.congruence import Partition, is_congruence

from conftest import run_capped

DATA = pathlib.Path(__file__).parent / "data"


def test_parse_certificate_shapes():
    cert = certify.parse_certificate(
        "algebra T4,10\n"
        "# note: example\n"
        "is-congruence {0,2}{1,3}\n"
        "edge 0,1 majority witness={0,2}{1,3}\n"
        "simple false\n"
        "two-generated 0,1\n"
        "cyclic-count 3 == 2\n"
        "sg-excludes 2 0,0;0,1;1,0 :: 1,1\n"
    )
    assert cert.algebra_name == "T4,10"
    assert [a.kind for a in cert.assertions] == [
        "is-congruence", "edge", "simple", "two-generated",
        "cyclic-count", "sg-excludes",
    ]
    assert cert.notes == ["example"]


def test_parse_rejects_garbage():
    with pytest.raises(AlgebraError):
        certify.parse_certificate("algebra S\nfrobnicate 1 2\n")
    with pytest.raises(AlgebraError):
        certify.parse_certificate("simple true\n")  # assertion before header
    with pytest.raises(AlgebraError):
        certify.parse_certificate("algebra S\n")  # no assertions
    for line in ("absorbs 0 x true", "edge", "quotient-equiv {0}{1}",
                 "cyclic-count 3 ==", "subdirect a b", "clone-contains x: 0 1",
                 "frobnicate 1 2", "simple maybe", "taylor", "cyclic-count 3 < 2",
                 "unique-op :: arity 3", "edge 0,1,2 majority", "edge 0,1 majority {0}{1}",
                 "term-equiv S T1N", "edge 0,1 bogus", "cyclic-count 3 == -1",
                 "cyclic-count 3 >= -2", "two-generated 0,1,2", "two-generated 0"):
        with pytest.raises(ParseError, match=r"\(line 2\)"):
            certify.parse_certificate(f"algebra S\n{line}\n")
    # one header of one word, before any assertion
    for text, why in (
        ("algebra T4,1\nsimple false\nalgebra S\nsimple false\n",
         "second algebra header (the first names T4,1) (line 3)"),
        ("algebra\nsimple false\n", "algebra header needs one name, got '' (line 1)"),
        ("algebra S T1N\nsimple false\n",
         "algebra header needs one name, got 'S T1N' (line 1)"),
        ("simple true\nalgebra S\n", "assertion before algebra header (line 1)"),
    ):
        with pytest.raises(ParseError) as info:
            certify.parse_certificate(text)
        assert str(info.value) == why


@pytest.mark.parametrize("line, bad", [
    ("is-congruence {0,1}{2,3", "unbalanced braces in '{0,1}{2,3'"),
    ("quotient-equiv {0,1}x{2,3} S", "bad partition syntax: '{0,1}x{2,3}'"),
    ("class-equiv {0,1}{} 0,1 S", "empty block in '{0,1}{}'"),
    ("subdirect {0,1}{2,3} {0,2}{1,a} S S", "bad block '1,a' in '{0,2}{1,a}'"),
    ("edge 0,1 majority witness={0,0}{9}", "element 0 repeated in '{0,0}{9}'"),
    ("edge 0,1 majority witness={0,2}{1,2}", "element 2 repeated in '{0,2}{1,2}'"),
    ("is-congruence {0,0}{1}{2}{3}", "element 0 repeated in '{0,0}{1}{2}{3}'"),
], ids=["is-congruence", "quotient-equiv", "class-equiv", "subdirect", "edge-in-a-block",
        "edge-across-blocks", "is-congruence-repeat"])
def test_a_malformed_partition_is_a_parse_error_with_its_line(line, bad):
    with pytest.raises(ParseError) as info:
        certify.parse_certificate(f"algebra T4,1\n{line}\n")
    assert info.value.line == 2
    assert str(info.value).endswith(f": {bad} (line 2)")


def test_a_partition_outside_the_domain_fails_at_replay():
    cert = certify.parse_certificate("algebra T4,1\nis-congruence {0,1}{2,3,4}\n")
    (r,) = certify.check_certificate(cert)
    assert (r.status, r.detail) == ("fail", "error: blocks do not partition range(4)")


def test_a_generating_pair_outside_the_domain_is_an_error_record():
    cert = certify.parse_certificate("algebra T4,1\ntwo-generated 0,9\n")
    (r,) = certify.check_certificate(cert)
    assert (r.status, r.detail) == ("fail", "error: element 9 out of range for domain 4")


def test_an_edge_witness_outside_the_domain_is_an_error_record():
    # not a verdict on the edge: the witness names no block of Sg{0, 1}
    cert = certify.parse_certificate("algebra T4,10\nedge 0,1 majority witness={0,2}{1,3}{7}\n")
    (r,) = certify.check_certificate(cert)
    assert (r.status, r.detail) == ("fail", "error: element 7 out of range for domain 4")


def test_a_huge_arity_is_an_error_record():
    # one budget step keeps a regression cheap
    cert = certify.parse_certificate("algebra T1N\ncyclic-count 11 == 1\nabsorbs 0,1 11 true\n")
    assert [(r.status, r.detail) for r in certify.check_certificate(cert, max_steps=1)] == [
        ("fail", f"error: {what} arity 11 gives 3**11 argument cells, above the 65536 limit")
        for what in ("cyclic_terms", "absorption")
    ]
    # arity 40, with no budget: its cells would not fit in memory, so the
    # replay runs under a memory cap and a timeout
    code, out, err = run_capped(["-c", (
        "from finalg import certify\n"
        "cert = certify.parse_certificate("
        "'algebra T1N\\ncyclic-count 40 == 1\\nabsorbs 0,1 40 true\\n')\n"
        "for r in certify.check_certificate(cert):\n"
        "    print(r.detail)\n")], timeout=10)
    assert code == 0, err
    assert out.splitlines() == [
        f"error: {what} arity 40 gives 3**40 argument cells, above the 65536 limit"
        for what in ("cyclic_terms", "absorption")
    ]


def test_t410_certificate_passes():
    cert = next(c for c in certify.shipped_certificates()
                if c.algebra_name == "T4,10")
    results = certify.check_certificate(cert)
    assert all(r.status == "pass" for r in results)
    kinds = {r.kind for r in results}
    assert "edge" in kinds and "simple" in kinds


def test_t412_certificate_passes():
    cert = next(c for c in certify.shipped_certificates()
                if c.algebra_name == "T4,12")
    results = certify.check_certificate(cert)
    assert all(r.status == "pass" for r in results)
    assert "term-equiv" in {r.kind for r in results}


def test_corrupted_certificate_fails_with_counterexample():
    cert = certify.parse_certificate(
        "algebra T4,10\nis-congruence {0,1}{2,3}\n"
    )
    results = certify.check_certificate(cert)
    assert results[0].status == "fail"
    assert "violation" in results[0].detail


def test_tuple_entries_outside_the_domain_fail():
    cert = certify.parse_certificate(
        "algebra S\n"
        "sg-excludes 1 0 :: 256\n"
        "sg-excludes 1 0 :: -1\n"
        "sg-excludes 1 0 :: 5\n"
        "sg-contains 1 0 :: 256\n"
    )
    assert [(r.status, r.detail) for r in certify.check_certificate(cert)] == [
        ("fail", "error: tuple entry 256 out of range"),
        ("fail", "error: tuple entry -1 out of range"),
        ("fail", "error: tuple entry 5 out of range"),
        ("fail", "error: target entry 256 out of range"),
    ]


def test_wrong_expectation_fails():
    cert = certify.parse_certificate("algebra T5N\ncyclic-count 3 == 1\n")
    (r,) = certify.check_certificate(cert)
    assert r.status == "fail" and "0 cyclic terms" in r.detail


def test_every_four_element_cert_has_simple_and_generators():
    for cert in certify.shipped_certificates():
        if cert.algebra_name.startswith("T4,"):
            kinds = [a.kind for a in cert.assertions]
            assert "simple" in kinds
            assert "two-generated" in kinds


def test_records_are_machine_readable():
    cert = certify.parse_certificate("algebra S\nsimple true\n")
    (r,) = certify.check_certificate(cert)
    record = r.record
    assert set(record) == {"id", "status", "detail", "millis"}
    assert record["id"] == "S#0"


def test_strict_mode_counts_inconclusive():
    # T4,10 has cyclic terms, so no local obstruction decides the count
    cert = certify.parse_certificate("algebra T4,10\ncyclic-count 3 == 99\n")
    ok, results = certify.run_suite([cert], max_steps=1000, strict=False)
    assert ok and results[0].status == "inconclusive"
    ok, _ = certify.run_suite([cert], max_steps=1000, strict=True)
    assert not ok


def test_unique_op_assertion_inline():
    cert = certify.parse_certificate(
        "algebra M\n"
        "unique-op expect=@self :: arity 3; idempotent; cyclic; "
        "value 0,0,1 := 0; value 0,1,1 := 1\n"
    )
    (r,) = certify.check_certificate(cert)
    assert r.status == "pass"


def test_unique_op_directive_errors_name_the_certificate():
    # a directive head the search spec does not know, a `domain` (the
    # algebra's) or no `arity` is rejected by the parser, with the line of
    # the assertion in the certificate
    for directives, why in (
        ("arity 3; idempotent; bogus", "unknown directive 'bogus'"),
        ("arity 3; domain 4; idempotent", "the domain is the algebra's, not a directive"),
        ("idempotent; cyclic", "needs an arity directive"),
    ):
        with pytest.raises(ParseError) as info:
            certify.parse_certificate(
                f"algebra T4,1\n# note: x\nunique-op expect=@self :: {directives}\n")
        assert info.value.line == 3 and str(info.value).endswith(f": {why} (line 3)")
    # an error that needs the domain names the directive by its text and by
    # its position in the `::` list, not by a line of a spec nobody wrote
    cert = certify.parse_certificate(
        "algebra T4,1\n"
        "unique-op expect=@self :: arity 3; idempotent; restrict 0,7 := 0 0 0 0 0 0 0 1\n"
        "unique-op expect=@self :: arity 3;; idempotent; cyclic; value 0,1 := 2\n")
    assert [r.detail for r in certify.check_certificate(cert)] == [
        "error: malformed restrict directive '0,7 := 0 0 0 0 0 0 0 1': element 7 outside "
        "domain 4 (directive 3 of the :: list)",
        "error: malformed value directive '0,1 := 2': 2 arguments for arity 3 "
        "(directive 5 of the :: list)",
    ]


def test_unique_op_budget_stop_is_inconclusive():
    # T4,1's uniqueness argument tries 36 orbit values; a stop before the
    # second solution has been ruled out decides nothing
    (a,) = [a for c in certify.shipped_certificates() if c.algebra_name == "T4,1"
            for a in c.assertions if a.kind == "unique-op"]
    alg = catalog.get("T4,1").algebra
    assert certify.check_assertion(alg, a, max_steps=35) == ("inconclusive", "budget")
    assert certify.check_assertion(alg, a, max_steps=36) == ("pass", "unique solution matches")


def test_format_report_modes():
    cert = certify.parse_certificate("algebra S\nsimple true\n")
    _, results = certify.run_suite([cert])
    text = certify.format_report(results)
    assert "summary: pass=1" in text
    records = json.loads(certify.format_report(results, json_mode=True))
    assert records[0]["status"] == "pass"


def test_full_shipped_suite_passes():
    ok, results = certify.run_suite()
    failures = [r for r in results if r.status == "fail"]
    assert ok and not failures
    assert len(results) >= 300
    assert {r.cert for r in results} == set(catalog.names()) - {"Z3aff"} | {"T5N"}
    # `alg verify --suite paper --json` records, timings left out, must not move
    golden = json.loads((DATA / "paper_suite_records.json").read_text())
    records = [{k: r.record[k] for k in ("id", "status", "detail")} for r in results]
    assert records == golden


def test_budgeted_suite_records_do_not_move():
    # the same replay at 1,000 steps: 11 records are inconclusive, so a change
    # in where the budget reaches shows here (the pin above never meets one)
    _, results = certify.run_suite(max_steps=1000)
    golden = json.loads((DATA / "paper_suite_records_steps1000.json").read_text())
    records = [{k: r.record[k] for k in ("id", "status", "detail")} for r in results]
    assert records == golden
    assert sum(r["status"] == "inconclusive" for r in golden) == 11


def test_isomorphism_kinds_obey_max_steps():
    t1n = catalog.get("T1N").algebra
    for a in (Assertion("quotient-equiv", ("{0}{1}{2}", "T1N")),
              Assertion("class-equiv", ("{0,1,2}", (0, 1, 2), "T1N"))):
        assert certify.check_assertion(t1n, a) == ("pass", "bijection (0, 1, 2)")
        assert certify.check_assertion(t1n, a, max_steps=1) == ("inconclusive", "budget")
    t41 = catalog.get("T4,1").algebra
    a = Assertion("subdirect", ("{0,1,2}{3}", "{0}{1,3}{2}", "S", "T1N"))
    assert certify.check_assertion(t41, a) == ("pass", "{0,1,2}{3} x {0}{1,3}{2}")
    assert certify.check_assertion(t41, a, max_steps=1) == ("inconclusive", "budget")


def _wrong_link(gset, i=-1):
    """The witness link of element i (the last by default) with one parent
    index changed so that it no longer produces that element."""
    i %= len(gset.elements)
    op_i, parents = gset.witnesses[i]
    op = gset.base.operations[op_i]
    for j in range(len(parents)):
        for q in range(i):
            bad = parents[:j] + (q,) + parents[j + 1:]
            got = bytes(op(*col) for col in zip(*(gset.elements[p] for p in bad)))
            if got != gset.elements[i]:
                return op_i, bad
    raise AssertionError("no wrong link")


@pytest.fixture
def wrong_links(monkeypatch):
    """A mutant closure engine: a closure records a wrong parent index for
    each element it was looking for and found, every target it holds and
    the element its predicate stopped on.  (One closure may answer several
    targets: the edge walk's semilattice pair closure looks for two loops,
    and the one a record reads need not be the last element.)"""
    real_closure, real_stop_test = subpower._closure, subpower._stop_test
    looked_for = {}  # stop test -> the targets it was made with, as bytes
    corrupted = []

    def stop_test(targets, stop_predicate):
        stop_for = real_stop_test(targets, stop_predicate)
        looked_for[stop_for] = [bytes(t) for t in targets or ()]
        return stop_for

    def closure(base, m, gen_list, cap, stop_for, max_steps):
        gset = real_closure(base, m, gen_list, cap, stop_for, max_steps)
        found = [gset.position[t] for t in looked_for.get(stop_for, ()) if t in gset.position]
        if gset.stop_reason == "predicate":
            found.append(len(gset) - 1)
        found = [i for i in found if gset.witnesses[i] is not None]
        for i in found:
            gset.witnesses[i] = _wrong_link(gset, i)
        if found:
            corrupted.append(gset)
        return gset

    monkeypatch.setattr(subpower, "_stop_test", stop_test)
    monkeypatch.setattr(subpower, "_closure", closure)
    yield corrupted


@pytest.mark.parametrize("kind", ["absorbs", "edge", "sg-contains", "clone-contains", "taylor"])
def test_a_wrong_witness_link_fails_the_replay(wrong_links, kind):
    # the first shipped assertion of the kind whose pass rests on a term
    cert, a = next((c, a) for c in certify.shipped_certificates() for a in c.assertions
                   if a.kind == kind and a.args[-1] is not False)
    alg = catalog.get(cert.algebra_name).algebra
    assert certify.check_assertion(alg, a) == ("fail", "witness does not replay")
    if kind == "sg-contains":
        assert len(wrong_links) == 1  # one closure, one wrong parent index


@pytest.mark.parametrize("rel", ["==", ">="])
def test_a_wrong_link_to_a_cyclic_term_fails_the_replay(monkeypatch, rel):
    # the first shipped count of each relation that finds a cyclic term; the
    # mutant engine breaks the link of the first cyclic element of a Clo_3,
    # whose parents, not cyclic, keep their terms
    cert, a = next((c, a) for c in certify.shipped_certificates() for a in c.assertions
                   if a.kind == "cyclic-count" and a.args[1] == rel and a.args[2] >= 1)
    alg = catalog.get(cert.algebra_name).algebra
    n = alg.domain
    assert certify.check_assertion(alg, a)[0] == "pass"
    real = subpower._closure

    def closure(*args):
        gset = real(*args)
        if gset.exponent == n**3:
            i = next((i for i, e in enumerate(gset.elements)
                      if is_cyclic(OperationTable("t", 3, n, tuple(e)))), None)
            if i is not None:
                gset.witnesses[i] = _wrong_link(gset, i)
        return gset

    monkeypatch.setattr(subpower, "_closure", closure)
    assert certify.check_assertion(alg, a) == ("fail", "witness does not replay")


@pytest.mark.parametrize("mutate", [
    lambda found, n: found[:-1] + found[:1],
    lambda found, n: [(projection(3, 0, n), subpower.TermTree.variable(0)), *found[1:]],
], ids=["two equal tables", "a table that is not cyclic"])
def test_a_corrupted_cyclic_count_fails_the_replay(monkeypatch, mutate):
    # each mutant's terms still give its tables; T4,5 has four cyclic terms
    t45 = catalog.get("T4,5").algebra
    a = Assertion("cyclic-count", (3, "==", 4))
    assert certify.check_assertion(t45, a) == ("pass", "exactly 4")
    real = certify.cyclic_term_witnesses

    def witnesses(*args, **kwargs):
        found, complete = real(*args, **kwargs)
        return mutate(found, t45.domain), complete

    monkeypatch.setattr(certify, "cyclic_term_witnesses", witnesses)
    assert certify.check_assertion(t45, a) == ("fail", "witness does not replay")


def test_a_semilattice_edge_keeps_its_direction():
    # on the semilattice S, 1 -> 0 is an edge and 0 -> 1 is not
    s = catalog.get("S").algebra
    for blocks in (None, ((0,), (1,))):
        assert certify.check_assertion(s, Assertion("edge", ((1, 0), "semilattice", blocks))) \
            == ("pass", "1->0 semilattice witness={0}{1}")
        assert certify.check_assertion(s, Assertion("edge", ((0, 1), "semilattice", blocks))) \
            == ("fail", "no semilattice edge on (0, 1)")


def test_an_edge_with_its_witness_stops_before_the_whole_algebra(monkeypatch):
    # T4,10's pair {1, 2} is checked on its quotients, coarsest first: the
    # walk stops at the asserted majority record, before any closure in A^6
    # over the 4-element algebra itself (the identity quotient comes last)
    closures = []
    inner = subpower.generate

    def spy(base, m, *args, **kwargs):
        closures.append((base.domain, m))
        return inner(base, m, *args, **kwargs)

    monkeypatch.setattr(subpower, "generate", spy)
    t410 = catalog.get("T4,10").algebra
    a = Assertion("edge", ((1, 2), "majority", ((0, 2), (1, 3))))
    assert certify.check_assertion(t410, a) == ("pass", "1-2 majority witness={0,2}{1,3}")
    assert (2, 6) in closures and (4, 6) not in closures


def _mutant_forest(monkeypatch, mutate):
    """is_taylor with `mutate` applied to the edge list of its last report."""
    real = structure.is_taylor

    def is_taylor(alg, max_steps=None):
        verdict, reports = real(alg, max_steps=max_steps)
        uni, connected, edges = reports[-1]
        return verdict, reports[:-1] + [(uni, connected, mutate(edges))]

    monkeypatch.setattr(structure, "is_taylor", is_taylor)


@pytest.mark.parametrize("mutate", [
    lambda edges: [dataclasses.replace(edges[0], term=subpower.TermTree.variable(0)),
                   *edges[1:]],
    lambda edges: edges[1:],
], ids=["wrong term", "missing edge"])
def test_a_corrupted_forest_fails_the_taylor_replay(monkeypatch, mutate):
    t410 = catalog.get("T4,10").algebra
    a = Assertion("taylor", (True,))
    assert certify.check_assertion(t410, a) == ("pass", "taylor=True")
    _mutant_forest(monkeypatch, mutate)
    assert certify.check_assertion(t410, a) == ("fail", "witness does not replay")


@pytest.mark.parametrize("blocks", ["{0,1}{2}{3}", "{0}{1}{2}{3}", "{0,1,2,3}"],
                         ids=["not a congruence", "identity", "full"])
def test_a_wrong_simplicity_witness_fails_the_replay(monkeypatch, blocks):
    t414 = catalog.get("T4,14").algebra
    a = Assertion("simple", (False,))
    assert certify.check_assertion(t414, a) == ("pass", "witness congruence {0,3}{1}{2}")
    witness = Partition.parse(blocks, 4)
    assert is_congruence(t414, witness)[0] == (blocks != "{0,1}{2}{3}")
    monkeypatch.setattr(certify, "simplicity_witness", lambda alg: witness)
    assert certify.check_assertion(t414, a) == ("fail", "witness congruence does not replay")
