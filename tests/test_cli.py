"""Command-line surface: exit codes, report stability, file formats."""

import json
import os

import pytest

from lipeq.cli import main
from lipeq.specfile import spec_to_doc, save_doc

from conftest import make_one45, make_endratio_spec
from fractions import Fraction


@pytest.fixture
def one45_file(tmp_path):
    path = tmp_path / "one45.json"
    save_doc(spec_to_doc(make_one45()), str(path))
    return str(path)


@pytest.fixture
def notequiv_file(tmp_path):
    spec = make_endratio_spec(Fraction(1, 2), Fraction(1, 3),
                              r2=Fraction(1, 12))
    path = tmp_path / "ne.json"
    save_doc(spec_to_doc(spec), str(path))
    return str(path)


class TestAnalyze:
    def test_equivalent_exit_zero(self, one45_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", one45_file, "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "equivalent"
        w = report["witnesses"][0]
        assert (w["letter"], w["side"], w["k"], w["k_prime"],
                tuple(w["word"])) == (2, "right", 2, 0, (2, 1))

    def test_not_equivalent_exit_one(self, notequiv_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", notequiv_file, "-o", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["verdict"] == "not_equivalent"
        assert "log" in report["reason"]

    def test_reports_reproducible(self, one45_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["analyze", one45_file, "-o", str(a)])
        main(["analyze", one45_file, "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_is_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 3

    def test_spec_without_ratios_is_error(self, tmp_path):
        doc = spec_to_doc(make_one45())
        del doc["ratios"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 3

    def test_spec_with_malformed_base_is_error(self, tmp_path):
        doc = spec_to_doc(make_one45())
        doc["bases"] = [{"name": "g", "value": "abc"}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 3

    def test_spec_that_is_a_list_is_error(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps([spec_to_doc(make_one45())]))
        assert main(["analyze", str(path)]) == 3

    def test_bad_budget_flag(self, one45_file):
        with pytest.raises(SystemExit):
            main(["analyze", one45_file, "--budget", "nonsense"])


class TestCertify:
    def test_deterministic_output(self, one45_file, tmp_path):
        a = tmp_path / "a.cert"
        b = tmp_path / "b.cert"
        assert main(["certify", one45_file, "-o", str(a)]) == 0
        assert main(["certify", one45_file, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_not_equivalent_exit_one(self, notequiv_file, tmp_path):
        out = tmp_path / "x.cert"
        assert main(["certify", notequiv_file, "-o", str(out)]) == 1
        assert not out.exists()


class TestVerify:
    def test_valid_certificate(self, one45_file, tmp_path):
        cert = tmp_path / "c.json"
        main(["certify", one45_file, "-o", str(cert)])
        out = tmp_path / "v.json"
        assert main(["verify", one45_file, "--cert", str(cert),
                     "--depth", "3", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["certificate_valid"]
        assert report["distortion"]["c_low"] > 0

    def test_tampered_certificate(self, one45_file, tmp_path):
        cert = tmp_path / "c.json"
        main(["certify", one45_file, "-o", str(cert)])
        doc = json.loads(cert.read_text())
        doc["edges"][0]["pieces"][0]["ratio"] = "1/7"
        cert.write_text(json.dumps(doc))
        assert main(["verify", one45_file, "--cert", str(cert)]) == 3


class TestPartition:
    def test_s_family(self, one45_file, tmp_path):
        out = tmp_path / "p.json"
        assert main(["partition", one45_file, "--k", "1",
                     "--family", "S", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["pieces"]) == 3
        assert doc["norm"]["exactness"] == "exact"

    def test_depth_cap_is_error(self, one45_file):
        assert main(["partition", one45_file, "--k", "30",
                     "--family", "S"]) == 3

    def test_k_zero_is_error(self, one45_file):
        assert main(["partition", one45_file, "--k", "0",
                     "--family", "S"]) == 3

    def test_e_family_requires_mu(self, one45_file):
        with pytest.raises(SystemExit):
            main(["partition", one45_file, "--k", "2", "--family", "E"])


class TestRender:
    def test_svg_written(self, one45_file, tmp_path):
        out = tmp_path / "x.svg"
        assert main(["render", one45_file, "--levels", "2",
                     "--with-dust", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert "rect" in text

    def test_negative_levels_is_error(self, one45_file):
        assert main(["render", one45_file, "--levels", "-1"]) == 3

    def test_deterministic(self, one45_file, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        main(["render", one45_file, "-o", str(a)])
        main(["render", one45_file, "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()
