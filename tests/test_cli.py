import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from finalg import catalog
from finalg.core import serialize_algebra
from finalg.cli import main

from conftest import run_capped

DATA = pathlib.Path(__file__).parent / "data"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _ = run(["catalog", "list"], capsys)
    assert code == 0
    names = out.splitlines()
    assert len(names) == 47 and names[0] == "S"


def test_cong_simple_t414(capsys):
    code, out, _ = run(["cong", "@T4,14", "--simple"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "simple=false"
    assert lines[1] == "{0,3}{1}{2}"


def test_cong_without_a_question_is_a_usage_error(capsys):
    code, out, err = run(["cong", "@T4,14"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: cong needs --principal A B, --all or --simple\n"


def test_cyclic_count_t1n(capsys):
    code, out, _ = run(["cyclic", "@T1N", "--arity", "3", "--count"], capsys)
    assert code == 0 and out.strip() == "1"


def test_cyclic_count_decided_by_a_local_obstruction(capsys):
    # the global closures stop on their budgets (T4,17's Clo_3 has 960
    # elements); the rotation obstruction at (0, 0, 1) decides both
    code, out, _ = run(["--max-steps", "150000", "cyclic", "@T4,16", "--limit", "1",
                        "--count"], capsys)
    assert code == 0 and out == "0\n"
    code, out, _ = run(["cyclic", "@T4,17", "--count"], capsys)
    assert code == 0 and out == "0\n"


def test_info(capsys):
    code, out, _ = run(["info", "@T4,7"], capsys)
    assert code == 0
    assert "domain 4" in out
    assert "op t arity=2" in out and "commutative" in out


def test_sg_export(capsys):
    code, out, _ = run(["sg", "@T4N", "--power", "1", "--gens", "1;2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "exponent 1" and lines[1] == "count 3"


def test_absorb(capsys):
    code, out, _ = run(["absorb", "@T3N", "--subset", "0,2", "--arity", "3"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "absorbs=true subuniverse=true"


def test_edges_pair(capsys):
    code, out, _ = run(["edges", "@T4,10", "--pair", "0", "1"], capsys)
    assert code == 0
    assert "majority witness={0,2}{1,3}" in out


def test_taylor(capsys):
    code, out, _ = run(["taylor", "@S"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "taylor=true"


def test_rab(capsys):
    code, out, _ = run(["rab", "@T4,7", "3", "1"], capsys)
    assert code == 0
    assert any(line.startswith("loop 2 ") for line in out.splitlines())


def test_rab_obeys_max_steps(capsys):
    # Sg{(0,1),(1,0)} stops on its step budget after 3 elements
    code, out, _ = run(["--max-steps", "1", "rab", "@T4,10", "0", "1"], capsys)
    assert code == 3
    assert out.splitlines()[:2] == ["kind=inconclusive", "size=3"]


def test_equiv(capsys, tmp_path):
    code, out, _ = run(["equiv", "@T4,12", "@Z4aff"], capsys)
    assert code == 0 and out.strip() == "term-equivalent"
    code, out, _ = run(["equiv", "@S", "@M"], capsys)
    assert code == 0 and out.strip() == "not-term-equivalent"
    # transport and the isomorphism scan read one relabeling map: a
    # relabeled T4,13 is found again along the same bijection
    path = tmp_path / "t413_relabeled.alg"
    path.write_text(serialize_algebra(catalog.transport(catalog.get("T4,13").algebra,
                                                        (0, 2, 1, 3))))
    assert run(["equiv", "--iso", "@T4,13", str(path)], capsys) == \
        (0, "equivalent-up-to-iso 0,2,1,3\n", "")


def test_equiv_iso_of_algebras_of_different_sizes(capsys):
    # no bijection between a 4-element and a 3-element algebra: a
    # conclusive "no", while one clone on two domains stays a usage error
    assert run(["equiv", "--iso", "@T4,13", "@T1N"], capsys) == (0, "not-equivalent\n", "")
    code, out, err = run(["equiv", "@T4,13", "@T1N"], capsys)
    assert code == 2 and out == "" and "requires equal domains" in err


def test_clone_member(capsys, tmp_path):
    path = tmp_path / "z4.alg"
    path.write_text(serialize_algebra(catalog.get("Z4aff").algebra))
    code, out, _ = run(["clone", "@T4,12", "--member", f"{path}:g"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "member"


def test_clone_member_of_another_domain_is_an_error(capsys, tmp_path):
    # either way round: exit 2 with the domain mismatch, no traceback
    for algebra, other in (("@T4,5", "T1N"), ("@T1N", "T4,5")):
        path = tmp_path / "other.alg"
        path.write_text(serialize_algebra(catalog.get(other).algebra))
        code, out, err = run(["clone", algebra, "--member", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: clone_membership: domain mismatch\n"


def test_search_spec_file(capsys, tmp_path):
    spec = tmp_path / "maj.spec"
    spec.write_text(
        "domain 2\narity 3\nidempotent\ncyclic\n"
        "value 0,0,1 := 0\nvalue 0,1,1 := 1\n"
    )
    code, out, _ = run(["search", "--spec", str(spec)], capsys)
    assert code == 0
    assert out.strip() == "0 0 0 1 0 1 1 1"
    code, out, _ = run(["search", "--spec", str(spec), "--count"], capsys)
    assert code == 0 and out.strip() == "1"
    # `restrict` and `value` pin cells and `commutative` folds each cell
    # with its swap, so a change in how a directive reaches the search
    # shows as another count
    for text, count in (
            ("domain 3\narity 2\nidempotent\ncommutative\nrestrict 0,1 := 0 0 0 1\n", 9),
            ("domain 3\narity 3\nidempotent\ncyclic\nrestrict 0,2 := 0 0 0 1 0 1 1 1\n"
             "value 0,1,2 := 1\n", 243),
            ("domain 4\narity 2\nidempotent\ncommutative\n"
             "restrict 0,1,2 := 0 2 1 2 1 0 1 0 2\nvalue 3,0 := 0\npartition {0,3}{1}{2}\n", 1),
            ("domain 3\narity 3\nidempotent\ncyclic\n", 6561)):
        spec.write_text(text)
        assert run(["search", "--spec", str(spec), "--count"], capsys) == (0, f"{count}\n", "")


def test_search_stops_on_the_step_budget(capsys, tmp_path):
    # 4**20 candidate tables: unbudgeted, the walk would run for hours; a
    # step is one value tried, so where the budget stops is exact
    spec = tmp_path / "big.spec"
    spec.write_text("domain 4\narity 3\nidempotent\ncyclic\n")
    for steps, count in ((100, "63+"), (1000, "738+"), (12_345, "9247+")):
        code, out, _ = run(["--max-steps", str(steps), "search", "--spec", str(spec), "--count"],
                           capsys)
        assert (code, out) == (3, f"{count}\n")
    code, out, _ = run(["--max-steps", "1000", "search", "--spec", str(spec)], capsys)
    assert code == 3 and len(out.splitlines()) == 738


def test_search_with_a_large_relation_stops_on_the_step_budget(capsys, tmp_path):
    # all 125 triples over 5 elements at arity 4: a leaf's relation walk
    # spends the budget one combination at a time
    every = " ".join(f"{x},{y},{z}" for x in range(5) for y in range(5) for z in range(5))
    spec = tmp_path / "rel.spec"
    spec.write_text(f"domain 5\narity 4\nidempotent\nsymmetric\npreserves 3 : {every}\n")
    code, out, _ = run(["--max-steps", "70", "search", "--spec", str(spec), "--count"], capsys)
    assert (code, out) == (3, "0+\n")


def test_catalog_show_and_export(capsys):
    code, out, _ = run(["catalog", "show", "T4,14"], capsys)
    assert code == 0
    assert "letters a=0 b=1 c=2 d=3" in out
    code, out, _ = run(["catalog", "export", "T4,7"], capsys)
    assert code == 0 and out.startswith("domain 4")


def test_usage_errors(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 2


@pytest.mark.parametrize("action", ["show", "export"])
def test_catalog_show_and_export_need_a_name(capsys, action):
    code, out, err = run(["catalog", action], capsys)
    assert (code, out) == (2, "")
    assert err == "error: catalog show/export need a NAME\n"


def test_missing_file_reports_failure(capsys):
    code, _, err = run(["info", "/nonexistent/file.alg"], capsys)
    assert code == 1 and "error:" in err


def test_inconclusive_exit_code(capsys):
    code, out, _ = run(
        ["--max-steps", "100", "clone", "@T4,16", "--arity", "3"], capsys
    )
    assert code == 3
    assert "truncated" in out


def test_max_steps_leaves_subuniverses_whole(capsys):
    # a cut-off Sg is not a subuniverse: only the A^m closures are budgeted
    code, out, err = run(["--max-steps", "1", "taylor", "@T4,10"], capsys)
    assert code == 3 and out.splitlines()[-1] == "taylor=inconclusive"
    assert out.splitlines()[-2].startswith("subuniverse {0,1,2,3} ")
    assert err == ""
    code, _, err = run(["--max-steps", "1", "edges", "@T4,10", "--pair", "0", "1"], capsys)
    assert code == 3 and err == ""
    # the element budget is gone: --cap is a usage error
    code, out, _ = run(["--cap", "2", "taylor", "@T4,10"], capsys)
    assert code == 2 and out == ""


def test_output_stability(capsys):
    code1, out1, _ = run(["edges", "@T4,7"], capsys)
    code2, out2, _ = run(["edges", "@T4,7"], capsys)
    assert code1 == code2 == 0 and out1 == out2


def test_edges_lists_every_record_finest_witness_first(capsys):
    # every record of every pair, each pair's records by witnessing
    # congruence in all_congruences order (identity first)
    code, out, _ = run(["edges", "@T4,7"], capsys)
    assert code == 0 and out.splitlines() == [
        "0-1 strong-affine witness={0}{1}{2} term=t(y, t(x, z))",
        "0-2 strong-affine witness={0}{1}{2} term=t(y, t(x, z))",
        "3->0 semilattice witness={0}{3} term=t(x, y)",
        "1-2 strong-affine witness={0}{1}{2} term=t(y, t(x, z))",
        "1-3 weak-affine witness={0,3}{1}{2} term=t(y, t(x, z))",
        "3->1 weak-semilattice witness={0,1,2}{3} term=t(x, y)",
        "2-3 weak-affine witness={0,3}{1}{2} term=t(y, t(x, z))",
        "3->2 weak-semilattice witness={0,1,2}{3} term=t(x, y)",
    ]


def test_parse_partition_argument_anywhere(capsys):
    # principal congruence output uses the canonical partition syntax
    code, out, _ = run(["cong", "@T4,10", "--principal", "0", "2"], capsys)
    assert code == 0 and out.strip() == "{0,2}{1,3}"


def test_sg_bad_generator_text_is_an_error(capsys):
    code, out, err = run(["sg", "@T4N", "--power", "2", "--gens", "0,x"], capsys)
    assert code == 2 and out == ""
    assert "error: bad generator list '0,x'" in err


def test_cong_principal_out_of_range_is_an_error(capsys):
    code, out, err = run(["cong", "@T4,10", "--principal", "0", "5"], capsys)
    assert code == 2 and out == ""
    assert "error: element 5 out of range for domain 4" in err


def test_non_ascii_algebra_file_is_an_error(capsys, tmp_path):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"domain 2\nop f 2\n0 1\n\xc3\xa9 1\n")
    code, out, err = run(["info", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {path}: non-ASCII byte 0xc3 (line 4)\n"


def test_duplicate_operation_name_is_an_error_with_its_line(capsys, tmp_path):
    path = tmp_path / "twice.alg"
    path.write_text("domain 2\nop f 1\n0 1\n# again\nop f 1\n1 0\n")
    code, out, err = run(["info", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "error: duplicate operation name 'f' (line 5)\n"


def test_a_catalog_entry_without_one_completion_exits_1(capsys, monkeypatch):
    pairs, values = catalog._CYC4["T4,1"]
    monkeypatch.setitem(catalog._CYC4, "T4,1", (pairs, {**values, (0, 0, 1): 1}))
    monkeypatch.setattr(catalog, "_TABLE", {})
    monkeypatch.setattr(catalog, "_cache", {})
    catalog._fill()
    code, out, err = run(["info", "@T4,1"], capsys)
    assert code == 1 and out == ""
    assert err == "error: T4,1: no completion of its transcription\n"


def test_edges_graph_components(capsys):
    code, out, _ = run(["edges", "@T4,7", "--graph"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "components {0,1,2,3}"


def test_search_spec_errors_name_the_line(capsys, tmp_path):
    spec = tmp_path / "bad.spec"
    for line, why in (
        ("value 0,x := 1", "invalid literal for int() with base 10: 'x'"),
        ("perm (0 9)", "element 9 outside domain 3"),
        ("preserves 2 : 0,x", "invalid literal for int() with base 10: 'x'"),
        ("value 0,5 := 1", "element 5 outside domain 3"),
        ("preserves 2 : 0,1 1,5", "element 5 outside domain 3"),
        ("preserves 3 : 0,1", "a tuple is not of length 3"),
        ("perm (0 1)(1 2)", "an element is repeated in the cycles"),
        ("restrict 0,1 := 0 0 1", "a 2-element subset at arity 2 takes 4 values, got 3"),
        ("restrict 0,1 := 0 0 0 2",
         "a 2-element subset takes values 0 to 1 (positions in the subset), got 2"),
        ("restrict 0,1,2 := 0 0 0 0 0 0 0 0 -1",
         "a 3-element subset takes values 0 to 2 (positions in the subset), got -1"),
        ("partition {0,1,0}{2}", "element 0 repeated in '{0,1,0}{2}'"),
    ):
        spec.write_text(f"domain 3\narity 2\n{line}\n")
        code, out, err = run(["search", "--spec", str(spec)], capsys)
        head, _, rest = line.partition(" ")
        assert code == 2 and out == ""
        assert err == f"error: malformed {head} directive {rest!r}: {why} (line 3)\n"
        assert "operation r" not in err  # the spec names no operation r


def test_search_spec_repeats_and_stray_text_name_the_line(capsys, tmp_path):
    from finalg.core import ParseError
    from finalg.search import parse_constraint_file

    spec = tmp_path / "strict.spec"
    cases = [("domain 3\narity 2\ndomain 2", "repeated domain directive", 3),
             ("domain 3\narity 2\narity 3", "repeated arity directive", 3),
             ("domain 3\ncap 4\narity 2\ncap 5", "repeated cap directive", 4),
             ("domain 3\narity 2\nfrobnicate 1", "unknown directive 'frobnicate'", 3),
             ("domain x\narity 2", "bad integer in directive", 1)]
    cases += [(f"domain 3\narity 2\n{law} extra", f"{law} takes no arguments, got 'extra'", 3)
              for law in ("idempotent", "cyclic", "symmetric", "commutative")]
    for text, why, line in cases:
        spec.write_text(f"{text}\n")
        code, out, err = run(["search", "--spec", str(spec)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {why} (line {line})\n"
        with pytest.raises(ParseError) as info:
            parse_constraint_file(text)
        assert info.value.line == line


def test_pair_arguments_out_of_range_name_the_element(capsys):
    for argv, bad in ((["edges", "@S", "--pair", "0", "9"], 9),
                      (["edges", "@S", "--pair", "9", "9"], 9),
                      (["rab", "@S", "0", "7"], 7),
                      (["rab", "@T4,10", "4", "0"], 4)):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        domain = 4 if "@T4,10" in argv else 2
        assert err == f"error: element {bad} out of range for domain {domain}\n"


def test_search_spec_cap_below_one_is_an_error(capsys, tmp_path):
    spec = tmp_path / "cap.spec"
    for cap in ("0", "-1"):
        spec.write_text(f"domain 2\narity 2\nidempotent\ncap {cap}\n")
        for count in ([], ["--count"]):
            code, out, err = run(["search", "--spec", str(spec), *count], capsys)
            assert code == 2 and out == ""
            assert err == f"error: cap must be at least 1, got {cap} (line 4)\n"


def test_search_spec_domain_or_arity_below_one_is_an_error(capsys, tmp_path):
    spec = tmp_path / "size.spec"
    for text, why in (("domain 2\narity -2", "arity must be at least 1, got -2 (line 2)"),
                      ("domain 2\narity 0", "arity must be at least 1, got 0 (line 2)"),
                      ("domain 0\narity 2", "domain must be at least 1, got 0 (line 1)")):
        spec.write_text(f"{text}\nidempotent\n")
        for count in ([], ["--count"]):
            code, out, err = run(["search", "--spec", str(spec), *count], capsys)
            assert code == 2 and out == ""
            assert err == f"error: {why}\n"


def test_search_spec_out_of_range_sizes_name_the_line(capsys, tmp_path):
    spec = tmp_path / "size.spec"
    for text, why in (
            ("domain 6\narity 2\n", "search supports domain 1 to 5, got 6 (line 1)"),
            ("domain 3\narity 5\n", "search supports arity 1 to 4, got 5 (line 2)"),
            ("domain 3\narity 3\ncommutative\n",
             "commutative requires arity 2, got arity 3 (line 3)")):
        spec.write_text(text)
        for count in ([], ["--count"]):
            code, out, err = run(["search", "--spec", str(spec), *count], capsys)
            assert code == 2 and out == ""
            assert err == f"error: {why}\n"


@pytest.mark.parametrize(("flags", "golden"), [
    ([], "paper_suite_records.json"),
    (["--max-steps", "1000"], "paper_suite_records_steps1000.json")])
def test_verify_suite_paper_json_keeps_the_recorded_verdicts(capsys, flags, golden):
    # `alg verify --suite paper --json`, unbudgeted and at 1,000 steps (where
    # 11 records are inconclusive): the records, timings left out, are the
    # recorded ones, and the exit code is 0
    code, out, err = run([*flags, "verify", "--suite", "paper", "--json"], capsys)
    want = json.loads((DATA / golden).read_text())
    assert (code, err) == (0, "")
    assert [{k: r[k] for k in ("id", "status", "detail")} for r in json.loads(out)] == want
    assert len(want) == 317


def test_verify_budget_defaults_to_the_assertion_steps(capsys, monkeypatch):
    from finalg import certify

    seen = []

    def record(certs=None, max_steps=None, strict=False):
        seen.append(max_steps)
        return True, []

    monkeypatch.setattr(certify, "run_suite", record)
    monkeypatch.setattr(certify, "format_report", lambda results, json_mode: "")
    assert run(["verify"], capsys)[0] == 0
    assert run(["--max-steps", "1000", "verify"], capsys)[0] == 0
    assert seen == [certify.DEFAULT_ASSERTION_STEPS, 1000]


def test_domain_above_256_is_an_error(capsys, tmp_path):
    path = tmp_path / "big.alg"
    path.write_text("domain 257\nop f 1\n" + " ".join(map(str, range(257))) + "\n")
    code, out, err = run(["sg", str(path), "--power", "1", "--gens", "256"], capsys)
    assert code == 2 and out == ""
    assert "256-element limit" in err


def test_cyclic_max_steps_below_one_is_an_error(capsys):
    for steps in ("0", "-5"):
        code, out, err = run(["--max-steps", steps, "cyclic", "@T4,10", "--arity", "3"],
                             capsys)
        assert code == 2 and out == ""
        assert err == f"error: max_steps must be at least 1, got {steps}\n"


@pytest.mark.parametrize("argv", [
    ["equiv", "@T4,9", "@T4,10"],
    ["equiv", "@T4,9", "@T4,10", "--iso"],
    ["equiv", "@S", "@M"],
    ["catalog", "list"],
], ids=["term-equivalence", "isomorphism", "a closure", "no closure"])
def test_max_steps_below_one_is_an_error_on_every_path(capsys, argv):
    # the first two are decided without a closure (a clone exclusion, the
    # fingerprint shapes); the budget is rejected before any verb runs
    for steps in ("0", "-3"):
        code, out, err = run(["--max-steps", steps, *argv], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: max_steps must be at least 1, got {steps}\n"


def test_cyclic_limit_below_one_is_an_error(capsys):
    code, out, err = run(["cyclic", "@T4,10", "--arity", "3", "--limit", "0"], capsys)
    assert code == 2 and out == ""
    assert err == "error: cyclic_terms limit must be at least 1, got 0\n"


@pytest.mark.parametrize("argv, what", [
    (["clone", "@T1N", "--arity", "11"], "free_algebra"),
    (["clone", "@T1N", "--arity", "11", "--list"], "free_algebra"),
    (["cyclic", "@T1N", "--arity", "11", "--count"], "cyclic_terms"),
])
def test_a_huge_arity_is_an_error(capsys, argv, what):
    # one budget step keeps a regression cheap
    code, out, err = run(["--max-steps", "1", *argv], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {what} arity 11 gives 3**11 argument cells, above the 65536 limit\n"


@pytest.mark.parametrize("argv", [
    ["clone", "@T1N", "--arity", "40"],
    ["cyclic", "@T1N", "--arity", "40"],
    ["clone", "@T1N", "--arity", "11", "--list"],
])
def test_a_huge_arity_exits_2_at_once_under_a_memory_cap(argv):
    # a huge arity is rejected before any cell is listed, with no budget; a
    # regression would hang or exhaust the memory, so the run is capped
    code, out, err = run_capped(["-m", "finalg.cli", *argv], timeout=10)
    assert (code, out) == (2, ""), err
    assert "argument cells, above the 65536 limit" in err


def test_a_closure_past_its_byte_ceiling_is_truncated(capsys, monkeypatch):
    # the ceiling lowered to 10 of Clo_3's 13 elements
    from finalg import subpower

    monkeypatch.setattr(subpower, "MAX_BYTES", 27 * 10)
    code, out, _ = run(["clone", "@T1N", "--arity", "3"], capsys)
    assert (code, out) == (3, "count 10 (truncated)\n")
    # Clo_10 of a 3-element algebra has 59,049-byte elements: under a memory
    # cap the closure stops on subpower.MAX_BYTES, with 2,272 elements,
    # instead of running out of memory
    code, out, err = run_capped(["-m", "finalg.cli", "clone", "@T1N", "--arity", "10"],
                                timeout=60)
    assert (code, out) == (3, "count 2272 (truncated)\n"), err


def test_absorb_bad_subset_text_is_an_error(capsys):
    for text in ("a", ",", "0,,1"):
        code, out, err = run(["absorb", "@S", "--subset", text, "--arity", "2"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: bad subset {text!r}: expected integers like 0,2\n"


@pytest.mark.parametrize("subset, message", [
    ("0,7", "element 7 out of range for domain 2"),
    ("-1", "element -1 out of range for domain 2"),
    ("0,0", "element 0 repeated in subset"),
    ("1,0,1", "element 1 repeated in subset"),
])
def test_absorb_subset_outside_the_domain_or_repeated_is_an_error(capsys, subset, message):
    code, out, err = run(["absorb", "@S", "--subset", subset, "--arity", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_verify_unknown_suite_is_a_usage_error(capsys):
    code, out, err = run(["verify", "--suite", "other"], capsys)
    assert code == 2 and out == ""
    assert "invalid choice: 'other'" in err


# ---------------------------------------------------------------------------
# argv fuzz: every command line ends in exit code 0, 1, 2 or 3, never in an
# exception.  The examples stay cheap: catalog entries of at most 3
# elements, arities and powers of at most 3 and at most 10,000 steps.

_SMALL = [f"@{n}" for n in catalog.names() if catalog.get(n).algebra.domain <= 3]
_ALGEBRAS = st.sampled_from([*_SMALL, "@NOPE", "no/such/file.alg"])
_SMALL_INTS = st.sampled_from(("2", "1", "3", "0", "-1"))
_TUPLE_TEXT = st.lists(_SMALL_INTS, min_size=1, max_size=3).map(",".join)
_INT_TEXT = st.one_of(_TUPLE_TEXT, st.lists(_TUPLE_TEXT, min_size=1, max_size=3).map(";".join),
                      st.text(alphabet="0123,;-x ", max_size=6))
_STEPS = st.one_of(st.integers(1, 10_000), st.sampled_from((0, -1))).map(str)


@st.composite
def argvs(draw):
    a = draw(_ALGEBRAS)

    def n():
        return draw(_SMALL_INTS)

    def flag(*tokens):
        return list(tokens) if draw(st.booleans()) else []

    verbs = {
        "info": lambda: [a],
        "sg": lambda: [a, "--power", n(), "--gens", draw(_INT_TEXT)],
        "clone": lambda: [a, "--arity", n(), *flag("--list"),
                          *flag("--member", draw(_ALGEBRAS) + draw(st.sampled_from(("", ":f"))))],
        "cyclic": lambda: [a, "--arity", n(), *flag("--limit", n()), *flag("--list")],
        "cong": lambda: [a, *flag("--principal", n(), n()), *flag("--all"), *flag("--simple")],
        "absorb": lambda: [a, "--subset", draw(_INT_TEXT), "--arity", n()],
        "edges": lambda: [a, *flag("--pair", n(), n()), *flag("--graph")],
        "taylor": lambda: [a],
        "rab": lambda: [a, n(), n()],
        "equiv": lambda: [a, draw(_ALGEBRAS), *flag("--iso")],
        "catalog": lambda: [draw(st.sampled_from(("list", "show", "export", "frob"))),
                            *flag(draw(_ALGEBRAS)[1:])],
        "search": lambda: ["--spec", "no/such/file.spec", *flag("--count")],
        "verify": lambda: ["--suite", "other", *flag("--strict"), *flag("--json")],
    }
    verb = draw(st.sampled_from(sorted(verbs)))
    argv = ["--max-steps", draw(_STEPS), verb, *verbs[verb]()]
    if draw(st.integers(0, 3)) == 0:  # a token left out; --max-steps still bounds the work
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@given(argvs())
@example(["--max-steps", "10000", "absorb", "@S", "--subset", "a", "--arity", "2"])
@example(["--max-steps", "10000", "absorb", "@S", "--subset", ",", "--arity", "2"])
@settings(max_examples=150, deadline=None)
def test_any_command_line_exits_with_a_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
