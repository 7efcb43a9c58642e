import json
import pathlib

import pytest

from finalg.core import AlgebraError, ParseError
from finalg import catalog, certify

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
                 "cyclic-count 3 ==", "subdirect a b", "clone-contains x: 0 1"):
        with pytest.raises(ParseError, match=r"\(line 2\)"):
            certify.parse_certificate(f"algebra S\n{line}\n")


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
    cert = certify.parse_certificate("algebra T4,16\ncyclic-count 3 == 99\n")
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
