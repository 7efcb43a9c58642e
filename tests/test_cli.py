from finalg import catalog
from finalg.cli import main


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


def test_cyclic_count_t1n(capsys):
    code, out, _ = run(["cyclic", "@T1N", "--arity", "3", "--count"], capsys)
    assert code == 0 and out.strip() == "1"


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


def test_equiv(capsys):
    code, out, _ = run(["equiv", "@T4,12", "@Z4aff"], capsys)
    assert code == 0 and out.strip() == "term-equivalent"
    code, out, _ = run(["equiv", "@S", "@M"], capsys)
    assert code == 0 and out.strip() == "not-term-equivalent"


def test_clone_member(capsys, tmp_path):
    path = tmp_path / "z4.alg"
    path.write_text(catalog.export_entry("Z4aff"))
    code, out, _ = run(["clone", "@T4,12", "--member", f"{path}:g"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "member"


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


def test_catalog_show_and_export(capsys):
    code, out, _ = run(["catalog", "show", "T4,14"], capsys)
    assert code == 0
    assert "letters a=0 b=1 c=2 d=3" in out
    code, out, _ = run(["catalog", "export", "T4,7"], capsys)
    assert code == 0 and out.startswith("domain 4")


def test_usage_errors(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 2
    code, _, _ = run(["catalog", "show"], capsys)
    assert code == 2


def test_missing_file_reports_failure(capsys):
    code, _, err = run(["info", "/nonexistent/file.alg"], capsys)
    assert code == 1 and "error:" in err


def test_inconclusive_exit_code(capsys):
    code, out, _ = run(
        ["--max-steps", "100", "clone", "@T4,16", "--arity", "3"], capsys
    )
    assert code == 3
    assert "truncated" in out


def test_cap_leaves_subuniverses_whole(capsys):
    # a cut-off Sg is not a subuniverse: only the A^m closures are capped
    code, out, err = run(["--cap", "2", "taylor", "@T4,10"], capsys)
    assert code == 3 and out.splitlines()[-1] == "taylor=inconclusive"
    assert err == ""
    code, _, err = run(["--cap", "2", "edges", "@T4,10", "--pair", "0", "1"], capsys)
    assert code == 3 and err == ""


def test_output_stability(capsys):
    code1, out1, _ = run(["edges", "@T4,7"], capsys)
    code2, out2, _ = run(["edges", "@T4,7"], capsys)
    assert code1 == code2 == 0 and out1 == out2


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


def test_edges_graph_components(capsys):
    code, out, _ = run(["edges", "@T4,7", "--graph"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "components {0,1,2,3}"
