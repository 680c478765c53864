"""Command-line surface: exit codes, report stability, file formats."""

import copy
import itertools
import json
import os
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lipeq.certify
import lipeq.check
import lipeq.cli
import lipeq.patches
import lipeq.specfile
from lipeq.certify import (build_certificate, cert_to_doc, cert_from_doc,
                           distortion_report, leaf_counts)
from lipeq.cli import main
from lipeq.specfile import spec_to_doc, save_doc, format_value

from conftest import (make_one45, make_endratio_spec, make_equal_spec,
                      four_map_doc, closed_form_certificate,
                      make_declared_spec, random_equal_spec,
                      random_unequal_spec)
from fractions import Fraction


@pytest.fixture
def one45_file(tmp_path):
    path = tmp_path / "one45.json"
    save_doc(spec_to_doc(make_one45()), str(path))
    return str(path)


@pytest.fixture
def ninths_file(tmp_path):
    path = tmp_path / "ninths.json"
    save_doc(spec_to_doc(make_equal_spec(4, 9, [0, 3, 4, 8])), str(path))
    return str(path)


@pytest.fixture
def notequiv_file(tmp_path):
    spec = make_endratio_spec(Fraction(1, 2), Fraction(1, 3),
                              r2=Fraction(1, 12))
    path = tmp_path / "ne.json"
    save_doc(spec_to_doc(spec), str(path))
    return str(path)


# read back from its JSON text, as a certificate file is: ``cert_to_doc``
# shares one rule list between the pieces that use it, and the malformed
# documents below must each differ from the intact one at one node
ONE45_CERT = json.loads(json.dumps(
    cert_to_doc(make_one45(), build_certificate(make_one45()))))
# the certificate from the closed-form witness, right (2, 1) with k = 2,
# which the tests below that pin its numbers read
ONE45_CF_CERT = json.loads(json.dumps(
    cert_to_doc(make_one45(), closed_form_certificate(make_one45()))))
ONE45_DEPTH5_REPORT = """{
 "certificate_valid": true,
 "depth": 5,
 "distortion": {
  "c_high": 976590.5,
  "c_low": 0.012195121951219513,
  "exactness": "approx(float64)"
 },
 "format": "lipeq-report",
 "leaf_pieces": 734,
 "version": 1,
 "vertices": 6
}
"""


def closed_form_cert_file(directory):
    """Path of the closed-form {1,4,5} certificate, written to
    ``directory``."""
    cert = os.path.join(str(directory), "c.json")
    save_doc(ONE45_CF_CERT, cert)
    return cert


def verify_doc(spec_file, directory, doc):
    """Exit status of ``lipeq verify`` on a certificate document."""
    cert = os.path.join(str(directory), "c.json")
    with open(cert, "w") as fh:
        json.dump(doc, fh)
    return main(["verify", spec_file, "--cert", cert])


def json_paths(node, path=()):
    """Every position in a JSON tree, as a path of keys and indices."""
    yield path
    if isinstance(node, dict):
        for k in sorted(node):
            yield from json_paths(node[k], path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from json_paths(v, path + (i,))


CERT_PATHS = list(json_paths(ONE45_CERT))
SPEC_WITH_BASE = dict(spec_to_doc(make_one45()), bases=[
    {"name": "g", "value": "0.618", "digits": 3}])
SPEC_PATHS = list(json_paths(SPEC_WITH_BASE))
# a million characters of input, to be quoted in an error line
MEGA = "x" * 1000000
# stand-ins of every JSON type, letters outside 1..3 and malformed
# numbers among them
RETYPES = (None, True, 0, -1, 4, 2, 1.5, "x", "", [], [1], [[]], {},
           "1/0", "-1/5", "g^x", "0.5", "1/5*g")


# not two integers, or max_word < 1, or max_exp < 0
MALFORMED_BUDGETS = ("a,b", "1.5,2", "x,y", "nonsense", "4", "1,2,3",
                     "-3,4", "0,5", "5,-1")


def mutate(doc, path, how, arg):
    """The document with the node at ``path`` deleted, truncated to its
    first ``arg`` entries or characters, or replaced by RETYPES[arg]."""
    bad = copy.deepcopy(doc)
    if not path:
        return RETYPES[arg % len(RETYPES)] if how == "retype" else [bad]
    holder = bad
    for k in path[:-1]:
        holder = holder[k]
    last = path[-1]
    if how == "delete":
        del holder[last]
    elif how == "truncate" and isinstance(holder[last], (list, str)):
        holder[last] = holder[last][:arg % max(1, len(holder[last]))]
    else:
        holder[last] = RETYPES[arg % len(RETYPES)]
    return bad


def proof_part(doc):
    """What the verdict rests on: the vertex sets and the edge rules."""
    cert = cert_from_doc(doc, 3)
    return ({k: (v.t_words, v.d_words) for k, v in cert.vertices.items()},
            {k: [(p.target, p.t_rules, p.d_rules) for p in e.pieces]
             for k, e in cert.edges.items()})


class TestAnalyze:
    def test_equivalent_exit_zero(self, one45_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", one45_file, "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "equivalent"
        w = report["witnesses"][0]
        assert (w["letter"], w["side"], w["k"], w["k_prime"],
                tuple(w["word"])) == (2, "left", 1, 0, (2,))
        # the closed form, which the search's shorter witness beat
        w = ONE45_CF_CERT["witnesses"][0]
        assert (w["letter"], w["side"], w["k"], w["k_prime"],
                tuple(w["word"])) == (2, "right", 2, 0, (2, 1))

    def test_reports_the_witness_certify_uses(self, one45_file, tmp_path):
        out = tmp_path / "report.json"
        cert = tmp_path / "c.json"
        assert main(["analyze", one45_file, "-o", str(out)]) == 0
        assert main(["certify", one45_file, "-o", str(cert)]) == 0
        assert (json.loads(out.read_text())["witnesses"]
                == json.loads(cert.read_text())["witnesses"])

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

    @pytest.mark.parametrize("flag, verdict", [(True, "not_equivalent"),
                                               (False, "unknown")])
    def test_mu_independent_decides_four_map_obstruction(self, tmp_path,
                                                          flag, verdict):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(four_map_doc(mu_independent=flag)))
        out = tmp_path / "r.json"
        main(["analyze", str(path), "--budget", "4,8", "-o", str(out)])
        assert json.loads(out.read_text())["verdict"] == verdict

    @pytest.mark.parametrize("value", ["false", 0, 1, [0], None])
    def test_non_boolean_mu_independent_is_error(self, tmp_path, capsys,
                                                 value):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(four_map_doc(mu_independent=value)))
        assert main(["analyze", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "mu_independent" in err

    def test_spec_that_is_a_list_is_error(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps([spec_to_doc(make_one45())]))
        assert main(["analyze", str(path)]) == 3

    def test_spec_that_is_not_json_is_error(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec_to_doc(make_one45()))[:-7])
        assert main(["analyze", str(path)]) == 3

    @pytest.mark.parametrize("field, value", [
        ("ratios", ["1/5", "1/0", "1/5"]),
        ("ratios", ["1/5", "-1/5", "1/5"]),
        ("ratios", ["1/5", "0", "1/5"]),
        ("translations", ["0", "3/0", "4/5"]),
        ("bases", True),
        ("bases", [{"name": "g", "value": "0.6", "digits": "3"}]),
        ("bases", [{"name": "g", "value": "1/0"}]),
    ])
    def test_malformed_spec_field_is_error(self, tmp_path, field, value):
        doc = spec_to_doc(make_one45())
        doc[field] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 3

    @pytest.mark.parametrize("field, value", [
        ("bases", [{"name": "g", "value": "0.6", "digits": 10 ** 9}]),
        ("ratios", ["1/5*g^1000000000", "1/5", "1/5"]),
    ])
    def test_unbounded_spec_integer_refused_at_once(self, tmp_path, capsys,
                                                    field, value):
        # 10**digits and g^exponent would not finish
        doc = dict(SPEC_WITH_BASE, **{field: value})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert main(["analyze", str(path)]) == 3
        assert time.perf_counter() - t0 < 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert "over the limit" in out.err

    def test_long_number_literal_refused_at_once(self, tmp_path, capsys):
        # a 5000-digit denominator: over Python's int-string limit, which
        # Fraction raised as a traceback, and factored for seconds where
        # there is no such limit
        doc = dict(spec_to_doc(make_one45()),
                   ratios=["1/3", "1/" + "7" * 5000, "1/3"],
                   translations=["0", "1/3", "2/3"])
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert main(["analyze", str(path)]) == 3
        assert time.perf_counter() - t0 < 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert "over the limit" in out.err

    @pytest.mark.parametrize("change, reason", [
        ({"ratios": ["1/5*", "1/5", "1/5"]}, "factor expected"),
        ({"ratios": ["1/3", "*".join(["1/3"] * 100000), "1/3"],
          "translations": ["0", "1/3", "2/3"]},
         "coefficient over the limit"),
        ({"bases": [{"name": "g", "value": "0." + "6" * 100000,
                     "digits": 3}]}, "digits on one side"),
    ], ids=["trailing-star", "long-product", "long-base-value"])
    def test_spec_reading_refusal_is_one_line(self, tmp_path, capsys,
                                              change, reason):
        # a trailing "*" ran off the end of the token list (IndexError),
        # a long product of short literals passed Python's int-string
        # limit when it was written (ValueError), and a long base value
        # reached that limit with a message about sys.set_int_max_str_digits
        doc = dict(SPEC_WITH_BASE, **change)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert main(["analyze", str(path)]) == 3
        assert time.perf_counter() - t0 < 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert reason in out.err
        assert len(out.err.encode()) <= 200

    @pytest.mark.parametrize("change", [
        {"ratios": ["1/5#" + MEGA, "1/5", "1/5"]},
        {"ratios": ["1/5*" + MEGA, "1/5", "1/5"]},
        {"ratios": [MEGA + "^51", "1/5", "1/5"],
         "bases": [{"name": MEGA, "value": "0.5", "digits": 3}]},
        {"bases": [{"name": MEGA, "value": "0.5", "digits": -1}]},
        {"bases": [{"name": MEGA, "value": "0.05", "digits": 1}]},
        {"bases": [{"name": "g", "value": MEGA}]},
        {MEGA: 1},
        {"version": MEGA},
        {"mu_independent": MEGA},
        {"role": MEGA},
    ], ids=["expression", "undeclared-base", "exponent", "base-digits",
            "base-positive", "base-value", "unknown-field", "version",
            "mu-independent", "role"])
    def test_error_line_quotes_a_bounded_excerpt(self, tmp_path, capsys,
                                                 change):
        # each message echoed the whole offending input
        doc = dict(spec_to_doc(make_one45()), **change)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert len(out.err.encode()) <= 200

    def test_deeply_nested_spec_is_error(self, tmp_path, capsys):
        # the JSON reader recurses once per nesting level
        path = tmp_path / "s.json"
        path.write_text("[" * 200000)
        assert main(["analyze", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "error: system description nests too deeply to read\n"

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, len(SPEC_PATHS) - 1),
           st.sampled_from(("delete", "truncate", "retype")),
           st.integers(0, 50))
    def test_fuzzed_spec_documents(self, tmp_path, at, how, arg):
        bad = mutate(SPEC_WITH_BASE, SPEC_PATHS[at], how, arg)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(bad))
        assert main(["analyze", str(path), "--budget", "4,8",
                     "-o", str(tmp_path / "r.json")]) in (0, 1, 2, 3)

    def test_bad_budget_flag(self, one45_file):
        with pytest.raises(SystemExit):
            main(["analyze", one45_file, "--budget", "nonsense"])

    @pytest.mark.parametrize("raw", MALFORMED_BUDGETS)
    def test_malformed_budget_flag(self, one45_file, capsys, raw):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", one45_file, "--budget=" + raw])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: --budget") and err.count("\n") == 1


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

    def test_depth_report_expands_once(self, one45_file, tmp_path, capsys,
                                       monkeypatch):
        cert = closed_form_cert_file(tmp_path)
        calls = []

        def counting(real):
            def expand_map(*args):
                calls.append(args[2])
                return real(*args)
            return expand_map

        for mod in (lipeq.cli, lipeq.certify):
            monkeypatch.setattr(mod, "expand_map",
                                counting(mod.expand_map))
        capsys.readouterr()
        assert main(["verify", one45_file, "--cert", str(cert),
                     "--depth", "5"]) == 0
        assert calls == [5]
        # the report of the code that expanded the certificate twice
        assert capsys.readouterr().out == ONE45_DEPTH5_REPORT

    @pytest.mark.parametrize("argv", [["--depth", "-1"]], ids=["depth-1"])
    def test_negative_argument_is_error(self, one45_file, tmp_path, capsys,
                                        argv):
        cert = tmp_path / "c.json"
        main(["certify", one45_file, "-o", str(cert)])
        capsys.readouterr()
        assert main(["verify", one45_file, "--cert", str(cert)] + argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: --") and out.err.count("\n") == 1

    def test_pairs_flag_refused(self, one45_file, tmp_path, capsys,
                                monkeypatch):
        # the depth report reads the neighbours in each coordinate order,
        # which give the extremes over all pairs, and samples no pairs;
        # the sample's size flag is gone, and the parser refuses it
        cert = tmp_path / "c.json"
        main(["certify", one45_file, "-o", str(cert)])
        loaded = []
        monkeypatch.setattr(lipeq.cli.specfile, "load_spec",
                            lambda *args: loaded.append(args))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["verify", one45_file, "--cert", str(cert),
                  "--depth", "0", "--pairs", str(10 ** 12)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pairs" in capsys.readouterr().err
        assert loaded == []

    def test_pairs_at_limit_accepted(self, one45_file, tmp_path, capsys,
                                     monkeypatch):
        # the report covers all pairs of leaf hull points with no sample
        # size to bound; at a leaf limit equal to the depth's exact leaf
        # count it is still made, and it equals distortion_report's
        cert = tmp_path / "c.json"
        main(["certify", one45_file, "-o", str(cert)])
        loaded = cert_from_doc(json.loads(cert.read_text()))
        limit = list(itertools.islice(leaf_counts(loaded), 4))[3]
        monkeypatch.setattr(lipeq.cli, "MAX_EXPAND_LEAVES", limit)
        capsys.readouterr()
        assert main(["verify", one45_file, "--cert", str(cert),
                     "--depth", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["leaf_pieces"] == limit
        got = report["distortion"]
        assert ((got["c_low"], got["c_high"])
                == distortion_report(make_one45(), loaded, 3))
        monkeypatch.setattr(lipeq.cli, "MAX_EXPAND_LEAVES", limit - 1)
        assert main(["verify", one45_file, "--cert", str(cert),
                     "--depth", "3"]) == 3

    def test_depth_one_reports_two_leaves(self, one45_file, tmp_path,
                                          capsys):
        cert = tmp_path / "c.json"
        main(["certify", one45_file, "-o", str(cert)])
        capsys.readouterr()
        assert main(["verify", one45_file, "--cert", str(cert),
                     "--depth", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["leaf_pieces"] == 2
        got = report["distortion"]
        assert ((got["c_low"], got["c_high"])
                == distortion_report(make_one45(), cert_from_doc(
                    json.loads(cert.read_text())), 1))

    def test_depth_over_leaf_budget_refused(self, one45_file, tmp_path,
                                            capsys, monkeypatch):
        cert = closed_form_cert_file(tmp_path)
        expanded = []
        monkeypatch.setattr(lipeq.cli, "expand_map",
                            lambda *args: expanded.append(args))
        capsys.readouterr()
        t0 = time.perf_counter()
        assert main(["verify", one45_file, "--cert", str(cert),
                     "--depth", "9"]) == 3
        assert time.perf_counter() - t0 < 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err == ("error: --depth 9 needs at least 1197562 leaf "
                           "pieces (1197562 at depth 9), over the limit of "
                           "1000000\n")
        assert main(["verify", one45_file, "--cert", str(cert),
                     "--depth", "1000000000"]) == 3
        assert capsys.readouterr().err == (
            "error: --depth 1000000000 needs at least 1197562 leaf pieces "
            "(1197562 at depth 9), over the limit of 1000000\n")
        assert expanded == []

    def test_depth_under_leaf_budget_expands(self, one45_file, tmp_path,
                                             monkeypatch):
        cert = tmp_path / "c.json"
        main(["certify", one45_file, "-o", str(cert)])
        # depth 2 has 5 leaves: a limit of 5 still expands it, and
        # refuses depth 3
        monkeypatch.setattr(lipeq.cli, "MAX_EXPAND_LEAVES", 5)
        assert main(["verify", one45_file, "--cert", str(cert),
                     "--depth", "2"]) == 0
        assert main(["verify", one45_file, "--cert", str(cert),
                     "--depth", "3"]) == 3

    def test_tampered_certificate(self, one45_file, tmp_path):
        cert = tmp_path / "c.json"
        main(["certify", one45_file, "-o", str(cert)])
        doc = json.loads(cert.read_text())
        doc["edges"][0]["pieces"][0]["ratio"] = "1/7"
        cert.write_text(json.dumps(doc))
        assert main(["verify", one45_file, "--cert", str(cert)]) == 3


class TestVerifyMalformed:
    """``lipeq verify`` on malformed certificates: exit 3, no traceback."""

    def test_empty_rule_list(self, one45_file, tmp_path):
        doc = copy.deepcopy(ONE45_CERT)
        doc["edges"][0]["pieces"][0]["t_rules"] = []
        assert verify_doc(one45_file, tmp_path, doc) == 3

    def test_rule_letter_above_n(self, one45_file, tmp_path):
        doc = copy.deepcopy(ONE45_CERT)
        doc["edges"][0]["pieces"][0]["t_rules"][0][1] = [4]
        assert verify_doc(one45_file, tmp_path, doc) == 3

    @pytest.mark.parametrize("letter", [True, 1.0], ids=["true", "1.0"])
    @pytest.mark.parametrize("side,part", [("t_rules", 0), ("t_rules", 1),
                                           ("d_rules", 0), ("d_rules", 1)],
                             ids=["t-strip", "t-add", "d-strip", "d-add"])
    def test_rule_letter_not_an_int(self, one45_file, tmp_path, capsys,
                                    side, part, letter):
        doc = copy.deepcopy(ONE45_CERT)
        rule = doc["edges"][0]["pieces"][0][side][0]
        rule[part] = rule[part] + [letter]
        capsys.readouterr()
        assert verify_doc(one45_file, tmp_path, doc) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: edge ") and err.count("\n") == 1
        assert "is not a word, a list of integer letters" in err

    def test_missing_vertices(self, one45_file, tmp_path):
        doc = copy.deepcopy(ONE45_CERT)
        del doc["vertices"]
        assert verify_doc(one45_file, tmp_path, doc) == 3

    def test_document_that_is_a_list(self, one45_file, tmp_path):
        assert verify_doc(one45_file, tmp_path, [ONE45_CERT]) == 3

    def test_witness_letter_zero(self, one45_file, tmp_path):
        # letter 0 used to be read as letter n through negative indexing
        doc = copy.deepcopy(ONE45_CERT)
        doc["witnesses"][0]["word"] = [2, 0]
        assert verify_doc(one45_file, tmp_path, doc) == 3

    @pytest.mark.parametrize("change, status", [
        # a second record for letter 2, ahead of the valid one: the
        # reader refuses a letter with two witnesses
        (lambda doc: doc["witnesses"].insert(0, {
            "side": "right", "letter": 2, "k": 0, "k_prime": 0,
            "word": [1, 1, 1], "source": "file"}), 3),
        # the witnesses and (p, q) are build notes: without them the
        # graph still proves the equivalence, and the kernel accepts it
        (lambda doc: (doc.pop("witnesses"), doc.update(p=1, q=1)), 0),
        (lambda doc: doc.update(witnesses=[]), 0)],
        ids=["bogus-duplicate", "missing-p1", "empty"])
    def test_witness_records_are_notes(self, one45_file, tmp_path, capsys,
                                       change, status):
        doc = copy.deepcopy(ONE45_CERT)
        change(doc)
        capsys.readouterr()
        assert verify_doc(one45_file, tmp_path, doc) == status
        if status:
            with pytest.raises(lipeq.certify.CertificateError,
                               match="witness for letter 2 appears twice"):
                lipeq.certify.verify_cert_doc(make_one45(), doc)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert proof_part(doc) == proof_part(ONE45_CERT)

    def test_not_json(self, one45_file, tmp_path):
        cert = tmp_path / "c.json"
        cert.write_text(json.dumps(ONE45_CERT)[:-3])
        assert main(["verify", one45_file, "--cert", str(cert)]) == 3

    def test_deeply_nested(self, one45_file, tmp_path, capsys):
        # the JSON reader recurses once per nesting level
        cert = tmp_path / "c.json"
        cert.write_text("[" * 200000)
        assert main(["verify", one45_file, "--cert", str(cert)]) == 3
        err = capsys.readouterr().err
        assert err == "error: certificate nests too deeply to read\n"

    def test_vertex_index_true_refused(self, one45_file, tmp_path, capsys):
        # true equals 1 and hashes as 1, so a graph whose keys, sources
        # and targets all say true for 1 would check as the intact one
        doc = copy.deepcopy(ONE45_CERT)

        def bool_key(key):
            return [True if k == 1 else k for k in key]

        for v in doc["vertices"]:
            v["key"] = bool_key(v["key"])
        for e in doc["edges"]:
            e["source"] = bool_key(e["source"])
            for piece in e["pieces"]:
                piece["target"] = bool_key(piece["target"])
        assert any(True in v["key"] for v in doc["vertices"])
        capsys.readouterr()
        assert verify_doc(one45_file, tmp_path, doc) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a nonempty list of names and numbers" in err

    # the stored exponents are build notes, read as integers and never
    # evaluated: the graph alone is the proof
    @pytest.mark.parametrize("change", [
        {"p": 7}, {"p": -3}, {"q": 1}, {"p0": 5}, {"q0": 0},
        # a multiple of (p0, q0) = (1, 1), but not past the witness
        # depth k' + |word| = 2
        {"p": 2, "q": 2}],
        ids=lambda c: ",".join("%s=%s" % kv for kv in c.items()))
    def test_stored_exponents_are_notes(self, one45_file, tmp_path, change):
        doc = dict(ONE45_CF_CERT, **change)
        assert verify_doc(one45_file, tmp_path, doc) == 0
        assert proof_part(doc) == proof_part(ONE45_CF_CERT)

    # a power of rho_end with a huge exponent would take time and memory
    # that grow with the exponent; no check evaluates a stored witness,
    # so its exponents cost nothing
    @pytest.mark.parametrize("witness, pq", [
        ({"k": 10 ** 9}, {}),
        ({"k": 10 ** 18}, {}),
        ({"k_prime": 10 ** 9}, {"p": 10 ** 9 + 2, "q": 10 ** 9 + 2})],
        ids=["k=1e9", "k=1e18", "k_prime=1e9"])
    def test_huge_witness_exponent_accepted_at_once(self, one45_file,
                                                    tmp_path, witness, pq):
        doc = copy.deepcopy(ONE45_CERT)
        doc["witnesses"][0].update(witness)
        doc.update(pq)
        t0 = time.perf_counter()
        assert verify_doc(one45_file, tmp_path, doc) == 0
        assert time.perf_counter() - t0 < 1

    def test_intact_document_accepted(self, one45_file, tmp_path):
        assert verify_doc(one45_file, tmp_path, ONE45_CERT) == 0

    def test_intact_read_formats_no_label(self, one45_file, tmp_path,
                                          monkeypatch):
        # a vertex or edge label is formatted only for an error line
        def refuse(where):
            raise AssertionError("label formatted: %s" % (where,))

        monkeypatch.setattr(lipeq.check, "_label", refuse)
        monkeypatch.setattr(lipeq.check, "_quote", refuse)
        assert verify_doc(one45_file, tmp_path, ONE45_CERT) == 0

    @pytest.mark.parametrize("change", [
        lambda d: d["edges"][0]["pieces"][0]["t_rules"][0].__setitem__(
            1, [1] * 100000 + [True]),
        lambda d: d["vertices"][0]["t_words"].__setitem__(
            0, [1] * 100000 + [True]),
        lambda d: d["vertices"][0].update(key=[MEGA], t_words=[[True]]),
        lambda d: d["vertices"].append(dict(d["vertices"][0], key=[MEGA]))
        or d["vertices"].append(dict(d["vertices"][0], key=[MEGA])),
        lambda d: d["edges"][0].update(source=[1] * 100000)
        or d["edges"][0]["pieces"][0].update(t_rules=[]),
        lambda d: d["edges"][0]["pieces"][0].update(target=[MEGA]),
        lambda d: d["edges"][0]["pieces"][0].update(target=[1] * 100000),
        lambda d: d["vertices"].append(dict(d["vertices"][0], key=[MEGA],
                                            t_words=[[9]])),
        lambda d: d["witnesses"][0].update(word=[9] * 100000),
        lambda d: d["witnesses"][0].update(word=[1] * 100000 + [True]),
    ], ids=["rule-word", "vertex-word", "vertex-key", "vertex-twice",
            "edge-source", "target-name", "target-letters", "letter-range",
            "witness-range", "witness-word"])
    def test_error_line_quotes_a_bounded_excerpt(self, one45_file, tmp_path,
                                                 capsys, change):
        # each message echoed the whole offending value: a rule word of
        # 100,000 letters made a 300,074-byte line
        doc = copy.deepcopy(ONE45_CERT)
        change(doc)
        capsys.readouterr()
        assert verify_doc(one45_file, tmp_path, doc) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("error: ")
        assert len(out.err.encode()) <= 200

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, len(CERT_PATHS) - 1),
           st.sampled_from(("delete", "truncate", "retype")),
           st.integers(0, 50))
    def test_fuzzed_documents(self, one45_file, tmp_path, at, how, arg):
        bad = mutate(ONE45_CERT, CERT_PATHS[at], how, arg)
        status = verify_doc(one45_file, tmp_path, bad)
        assert status in (0, 3)
        if status == 0:
            # accepted: the mutation left the proof itself unchanged
            assert proof_part(bad) == proof_part(ONE45_CERT)


def left_heavy_random(kind, seed):
    """A seeded random spec of ``kind``, mirrored if need be so that
    rho_1 >= rho_n, as the partition families need."""
    rng = random.Random(seed)
    spec = (random_equal_spec(rng) if kind == "equal"
            else random_unequal_spec(rng))
    return spec if spec.rho[0] >= spec.rho[-1] else spec.mirror()


HULL_SPECS = [make_one45, make_declared_spec] + [
    (lambda kind=kind, seed=seed: left_heavy_random(kind, seed))
    for kind in ("equal", "unequal") for seed in range(3)]
HULL_IDS = ["one45", "declared"] + ["%s%d" % (kind, seed)
                                    for kind in ("equal", "unequal")
                                    for seed in range(3)]


NORM_SPECS = [make_one45, lambda: make_equal_spec(4, 9, [0, 3, 4, 8]),
              lambda: make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                         r2=Fraction(1, 3)),
              make_declared_spec]
NORM_IDS = ["one45", "ninths", "endratio", "declared"]


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

    @pytest.mark.parametrize("family", ["C", "S", "T"])
    def test_k_over_set_budget_refused(self, one45_file, capsys,
                                       monkeypatch, family):
        built = []
        for name in ("c_family", "partition_S", "partition_T"):
            monkeypatch.setattr(lipeq.patches, name,
                                lambda *args: built.append(args))
        t0 = time.perf_counter()
        assert main(["partition", one45_file, "--k", "40",
                     "--family", family]) == 3
        assert time.perf_counter() - t0 < 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "error: --k 40 needs at least 2391484 sets (2391484 at level "
            "14), over the limit of 1000000\n")
        assert built == []

    def test_e_family_over_set_budget_refused(self, ninths_file, capsys,
                                              monkeypatch):
        built = []
        monkeypatch.setattr(lipeq.patches, "e_family",
                            lambda *args: built.append(args))
        t0 = time.perf_counter()
        assert main(["partition", ninths_file, "--k", "40", "--family", "E",
                     "--mu", "1/4,1/4,1/4,1/4"]) == 3
        assert time.perf_counter() - t0 < 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "error: --k 40 needs at least 2796203 sets (2796203 at level "
            "11), over the limit of 1000000\n")
        assert built == []

    def test_k_under_set_budget_builds(self, one45_file, ninths_file,
                                       monkeypatch):
        # 13 C-sets at level 3 on {1,4,5}, 11 E-members at level 2
        monkeypatch.setattr(lipeq.cli, "MAX_EXPAND_LEAVES", 13)
        for family in "CST":
            assert main(["partition", one45_file, "--k", "3",
                         "--family", family]) == 0
            assert main(["partition", one45_file, "--k", "4",
                         "--family", family]) == 3
        mu = ["--mu", "1/4,1/4,1/4,1/4"]
        assert main(["partition", ninths_file, "--k", "2",
                     "--family", "E"] + mu) == 0
        monkeypatch.setattr(lipeq.cli, "MAX_EXPAND_LEAVES", 10)
        assert main(["partition", ninths_file, "--k", "2",
                     "--family", "E"] + mu) == 3

    @pytest.mark.parametrize("family", ["C", "S", "T"])
    def test_system_without_touching_letter_is_error(self, tmp_path,
                                                     capsys, family):
        path = tmp_path / "dust.json"
        save_doc({"format": "lipeq-spec", "version": 1, "role": "dust",
                  "ratios": ["1/5"] * 3,
                  "translations": ["0", "2/5", "4/5"]}, str(path))
        assert main(["partition", str(path), "--k", "2",
                     "--family", family]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "error: the touching-zone families C, S and T need a touching "
            "letter; this system has none\n")

    @pytest.mark.parametrize("make", HULL_SPECS, ids=HULL_IDS)
    @pytest.mark.parametrize("family", ["S", "T"])
    def test_hull_text(self, tmp_path, capsys, make, family):
        # the "lo" and "hi" strings are written from the grid integers;
        # they are the text of the exact hull ends
        spec = make()
        path = tmp_path / "spec.json"
        save_doc(spec_to_doc(spec), str(path))
        for k in (1, 2, 3):
            assert main(["partition", str(path), "--k", str(k),
                         "--family", family]) == 0
            doc = json.loads(capsys.readouterr().out)
            for piece in doc["pieces"]:
                first, last = (tuple(w) for w in (piece["words"][0],
                                                  piece["words"][-1]))
                assert piece["lo"] == format_value(spec.cyl_lo(first))
                assert piece["hi"] == format_value(spec.cyl_hi(last))

    @pytest.mark.parametrize("make", NORM_SPECS, ids=NORM_IDS)
    @pytest.mark.parametrize("family", ["S", "T"])
    def test_norm_text(self, tmp_path, capsys, make, family):
        # the written norm and hulls come from one read of each piece's
        # ends; the norm is the text of partition_norm, and the words
        # are the pieces; the declared-base spec has q = 1
        spec = make()
        path = tmp_path / "spec.json"
        save_doc(spec_to_doc(spec), str(path))
        for k in (1, 2, 3):
            assert main(["partition", str(path), "--k", str(k),
                         "--family", family]) == 0
            doc = json.loads(capsys.readouterr().out)
            pieces = (lipeq.patches.partition_S(spec, k)[-1]
                      if family == "S" else
                      lipeq.patches.partition_T(spec, k))
            assert doc["norm"] == {
                "value": format_value(
                    lipeq.patches.partition_norm(spec, pieces)),
                "exactness": "exact"}
            assert [[tuple(w) for w in piece["words"]]
                    for piece in doc["pieces"]] == [list(p) for p in pieces]

    def test_k_zero_is_error(self, one45_file):
        assert main(["partition", one45_file, "--k", "0",
                     "--family", "S"]) == 3

    def test_e_family_requires_mu(self, ninths_file, capsys):
        assert main(["partition", ninths_file, "--k", "2",
                     "--family", "E"]) == 3
        assert capsys.readouterr().err.count("error:") == 1

    @pytest.mark.parametrize("mu", [
        "a,b",                      # not fractions
        "1/2,1/2",                  # two weights
        "1/4,1/4,1/4,1/5",          # sum 19/20
        "1,0,0,0",                  # a zero weight
        "1/2,3/4,-1/4,0",           # a negative weight
        "1/4,1/4,1/4,1/4,0",        # five weights
        "1/0,1/4,1/4,1/4",          # zero denominator
    ])
    def test_e_family_malformed_mu(self, ninths_file, capsys, mu):
        assert main(["partition", ninths_file, "--k", "2", "--family", "E",
                     "--mu", mu]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: --mu") and err.count("\n") == 1

    def test_e_family(self, ninths_file, capsys):
        assert main(["partition", ninths_file, "--k", "3", "--family", "E",
                     "--mu", "1/4, 1/4, 1/4, 0.25"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [len(lvl) for lvl in doc["levels"]] == [3, 11, 43]
        # m_i, m2 + m3 and m1*m2/(m2 + m3), m1*m3/(m2 + m3) at m_i = 1/4
        assert doc["measure_ratios"] == ["1/2", "1/4", "1/8"]


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

    @pytest.mark.parametrize("width", ["0", "-5"])
    def test_nonpositive_width_is_error(self, one45_file, capsys, width):
        assert main(["render", one45_file, "--width", width]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("error:") == 1

    def test_width_over_the_limit_is_error(self, one45_file, capsys):
        # a float bar position overflowed at this width
        width = "1" + "0" * 400
        assert main(["render", one45_file, "--width", width]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "error: --width must be in 1..%d, got %s\n"
            % (lipeq.cli.MAX_RENDER_WIDTH, width))
        assert main(["render", one45_file, "--levels", "1", "--width",
                     str(lipeq.cli.MAX_RENDER_WIDTH)]) == 0

    @pytest.mark.parametrize("dust, bars, level", [
        ([], 1000044, 1567), (["--with-dust"], 1000408, 786)])
    def test_levels_over_the_limit_is_error(self, one45_file, capsys,
                                            dust, bars, level):
        # a row draws at most min(3^l, 640) bars at level l on {1,4,5} at
        # the default width: 1 + 3 + ... + 243 = 364 at levels 0..5, then
        # 640 a level
        t0 = time.perf_counter()
        assert main(["render", one45_file, "--levels", "2000"] + dust) == 3
        assert time.perf_counter() - t0 < 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "error: --levels 2000 needs at least %d bars (%d at level %d), "
            "over the limit of 1000000\n" % (bars, bars, level))

    def test_levels_below_a_pixel_are_counted_by_the_width(self, one45_file,
                                                           capsys):
        # 3^13 bars would pass the limit, but at most 640 a level are one
        # pixel wide; levels 5-13 are narrower and add no bar
        assert main(["render", one45_file, "--levels", "13"]) == 0
        deep = capsys.readouterr().out
        assert main(["render", one45_file, "--levels", "4"]) == 0
        assert deep.count("<rect") == capsys.readouterr().out.count(
            "<rect") == 121

    def test_deterministic(self, one45_file, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        main(["render", one45_file, "-o", str(a)])
        main(["render", one45_file, "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDocumentText:
    """Every document is the standard library's indented, sorted-key
    encoding of itself, byte for byte."""

    @pytest.mark.parametrize("spec", ["one45", "endratio64"])
    def test_output_matches_stdlib_encoding(self, spec, tmp_path, capsys,
                                            monkeypatch):
        spec_file = str(tmp_path / "spec.json")
        save_doc(spec_to_doc(make_one45() if spec == "one45" else
                             make_endratio_spec(Fraction(1, 4),
                                                Fraction(1, 8),
                                                r2=Fraction(1, 8))),
                 spec_file)
        docs = []

        def recording(doc):
            docs.append(doc)
            return real(doc)

        real = lipeq.specfile.dump_doc
        monkeypatch.setattr(lipeq.specfile, "dump_doc", recording)
        cert = str(tmp_path / "cert.json")
        commands = [["certify", spec_file, "-o", cert],
                    ["analyze", spec_file], ["certify", spec_file],
                    ["verify", spec_file, "--cert", cert, "--depth", "2"]]
        commands += [["partition", spec_file, "--k", "2", "--family", f]
                     for f in "STC"]
        texts = []
        for argv in commands:
            assert main(argv) == 0
            texts.append(capsys.readouterr().out)
        with open(cert) as fh:
            texts[0] = fh.read()
        assert len(docs) == len(texts)
        for doc, text in zip(docs, texts):
            assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"
