"""Byte-identity of ``lipeq certify`` and ``lipeq verify --depth`` output.

``golden_certify.json`` holds the SHA-256 of the certificate text that
``lipeq certify`` writes from the closed-form witnesses (the verdict of
``conftest.closed_form_verdict``) on {1,4,5}, the end-ratio spec that
certifies at (p, q) = (6, 4), and the 20 seed-31 equal-ratio specs of
acceptance criterion 3, recorded before validation moved off the tiling
engines.  ``golden_verify.json`` holds the SHA-256 of the standard output
of ``lipeq verify --depth D`` on those closed-form certificates of
{1,4,5} (D = 5), the (6, 4) end-ratio spec (D = 3) and four seed-31 specs
(D = 2), keyed ``label@D``, recorded before the depth report took its
points from the leaves' similarities.  ``golden_certify_decided.json``
holds, for the same specs and cases, the digests of ``lipeq certify``
and of ``lipeq verify --depth D`` on the certificate it writes, which
uses the witnesses that ``decide`` picks (``decided_cases``).
``golden_partition.json`` holds the SHA-256 of the standard output of
``lipeq partition --family F --k K`` for F in S, T, C and K = 1..4 on
{1,4,5}, 1/9*{0,3,4,8} and the end-ratio spec that certifies at (9, 6),
and for F in S, T and K = 1..3 on the declared-base spec, keyed
``label/FK``, recorded before cylinder maps moved to an integer grid.
``golden_partition_k5.json`` holds the same digests for F in S, T at
K = 5 on {1,4,5} and the (9, 6) end-ratio spec, the deepest levels the
partition benchmark runs, recorded before ``gap_partition`` and
``partition_norm`` moved to the grid.
``golden_certify_left.json`` holds both the ``lipeq certify`` digest and
the ``lipeq verify --depth 2`` digest (keyed ``label@2``) of three specs
whose certificates use left witnesses (``left_specs``), recorded before
the two sides of the construction became one code path.  Its
``left-closed`` certificate holds the closed-form left witness, which
``decide`` picked then; the search finds the same word (2, 3), and the
certificate differs only in the witness's ``source``, so that digest is
of the certificate of ``conftest.closed_form_verdict``
(``CLOSED_FORM_CASES``).

These four certificate files pin certificates whose traces list every
word of a range, as ``tstar.trace`` did before it walked the range's
maximal cylinders; their tests and regeneration modes build with
``test_tstar.ref_trace`` in its place (fixture ``word_trace``).
``golden_certify_cover.json`` holds the digest of every case of the four
files (``certificate_cases``, keyed ``file/key``) as the cover trace
builds it; 42 of its 62 digests differ from the word-by-word ones.
``golden_certify_witness.json`` holds the ``lipeq certify`` digests
(``witness_specs``) of ``left-closed``, now with the searched witness,
and of ratios 1/8, 1/8, 1/4, whose right witness (1,) ``decide`` picks
over the left (3, 2) now that it searches both sides for each letter;
both were recorded with the cover trace.

A change that only makes certification, verification or partitioning
faster, or that merges code paths, must leave every digest as it is.
Regenerate the files only for a deliberate change of a document format;
a deliberate change of the certificates built keeps the old digests
checked, as above, and records the new ones in a new file:

    PYTHONPATH=src python3 tests/test_golden.py certify \
        > tests/golden_certify.json
    PYTHONPATH=src python3 tests/test_golden.py verify \
        > tests/golden_verify.json
    PYTHONPATH=src python3 tests/test_golden.py partition \
        > tests/golden_partition.json
    PYTHONPATH=src python3 tests/test_golden.py partition5 \
        > tests/golden_partition_k5.json
    PYTHONPATH=src python3 tests/test_golden.py left \
        > tests/golden_certify_left.json
    PYTHONPATH=src python3 tests/test_golden.py decided \
        > tests/golden_certify_decided.json
    PYTHONPATH=src python3 tests/test_golden.py cover \
        > tests/golden_certify_cover.json
    PYTHONPATH=src python3 tests/test_golden.py witness \
        > tests/golden_certify_witness.json
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction

import pytest

import lipeq.tstar
from lipeq import IfsSpec, cert_to_doc
from lipeq.cli import main
from lipeq.specfile import dump_doc, save_doc, spec_to_doc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import (make_one45, make_endratio_spec,  # noqa
                      random_equal_spec, make_equal_spec, make_declared_spec,
                      closed_form_certificate)
from test_tstar import ref_trace  # noqa

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_certify.json")
GOLDEN_VERIFY = os.path.join(HERE, "golden_verify.json")
GOLDEN_PARTITION = os.path.join(HERE, "golden_partition.json")
GOLDEN_PARTITION_K5 = os.path.join(HERE, "golden_partition_k5.json")
GOLDEN_LEFT = os.path.join(HERE, "golden_certify_left.json")
GOLDEN_DECIDED = os.path.join(HERE, "golden_certify_decided.json")
GOLDEN_COVER = os.path.join(HERE, "golden_certify_cover.json")
GOLDEN_WITNESS = os.path.join(HERE, "golden_certify_witness.json")
# the ``left`` keys whose recorded certificate held a closed-form witness
# that ``decide`` no longer picks
CLOSED_FORM_CASES = ("left-closed",)
# (label, depth) of every recorded ``lipeq verify --depth`` report
VERIFY_CASES = (("one45", 5), ("endratio64", 3), ("eq31-00", 2),
                ("eq31-02", 2), ("eq31-03", 2), ("eq31-07", 2))


def golden_specs():
    """(label, spec) of every recorded certificate."""
    out = [("one45", make_one45()),
           ("endratio64", make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                             r2=Fraction(1, 8)))]
    rng = random.Random(31)
    out += [("eq31-%02d" % i, random_equal_spec(rng)) for i in range(20)]
    return out


def rational_spec(ratios, translations):
    return IfsSpec([Fraction(r) for r in ratios],
                   [Fraction(t) for t in translations], role="touching")


def left_specs():
    """(label, spec) of the specs whose certificates hold left witnesses:
    a closed-form left witness at letter 1 (word (2, 3), (p, q) = (3, 3)),
    a searched one at letter 2 (word (4,)), and a left witness at letter
    1 beside a right one at letter 4."""
    return [("left-closed", rational_spec(["1/4", "1/3", "1/4"],
                                           ["0", "1/4", "3/4"])),
            ("left-search", rational_spec(["1/27", "1/6", "1/2", "1/9"],
                                         ["0", "7/54", "8/27", "8/9"])),
            ("left-and-right",
             rational_spec(["1/3", "1/8", "1/9", "1/8", "1/27"],
                           ["0", "1/3", "16/27", "181/216", "26/27"]))]


def witness_specs():
    """(label, spec) of ``golden_certify_witness.json``: ``left-closed``,
    and ratios 1/8, 1/8, 1/4 touching at letter 2, where the right
    witness (1,) beats the left (3, 2) and the certificate has 88 pieces
    in place of 184, at (p, q) = (4, 6) either way."""
    return [left_specs()[0],
            ("right-beats-left", rational_spec(["1/8", "1/8", "1/4"],
                                               ["0", "5/8", "3/4"]))]


def left_cases():
    """(key, spec, depth) of every digest in ``golden_certify_left.json``:
    depth None for ``lipeq certify``, 2 for ``lipeq verify --depth 2``."""
    return ([(label, spec, None) for label, spec in left_specs()]
            + [("%s@2" % label, spec, 2) for label, spec in left_specs()])


def decided_cases():
    """(key, spec, depth) of every digest in ``golden_certify_decided.json``:
    ``lipeq certify`` on every spec of ``golden_specs`` (depth None) and
    ``lipeq verify --depth`` on the cases of ``VERIFY_CASES``."""
    return ([(label, spec, None) for label, spec in golden_specs()]
            + verify_cases())


def cli_digest(spec, depth, directory):
    """The ``lipeq certify`` digest (depth None) or the ``lipeq verify
    --depth`` digest of ``spec``, through the command line."""
    if depth is None:
        return certify_digest(spec, os.path.join(directory, "spec.json"))
    return verify_digest(spec, depth, directory)


def stdout_digest(argv):
    """SHA-256 of the standard output of ``lipeq ARGV``, which must
    exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def certify_digest(spec, path):
    """SHA-256 of the standard output of ``lipeq certify`` on ``spec``."""
    save_doc(spec_to_doc(spec), path)
    return stdout_digest(["certify", path])


def verify_digest(spec, depth, directory):
    """SHA-256 of the standard output of ``lipeq verify --depth`` on the
    certificate that ``lipeq certify`` writes for ``spec``."""
    path = os.path.join(directory, "spec.json")
    cert = os.path.join(directory, "cert.json")
    save_doc(spec_to_doc(spec), path)
    assert main(["certify", path, "-o", cert]) == 0
    return stdout_digest(["verify", path, "--cert", cert,
                          "--depth", str(depth)])


def closed_form_text(spec):
    """What ``lipeq certify`` writes to standard output when the verdict
    holds the closed-form witnesses."""
    return dump_doc(cert_to_doc(spec, closed_form_certificate(spec))) + "\n"


def closed_form_certify_digest(spec):
    return hashlib.sha256(closed_form_text(spec).encode()).hexdigest()


def closed_form_verify_digest(spec, depth, directory):
    """SHA-256 of the standard output of ``lipeq verify --depth`` on the
    closed-form certificate of ``spec``."""
    path = os.path.join(directory, "spec.json")
    cert = os.path.join(directory, "cert.json")
    save_doc(spec_to_doc(spec), path)
    with open(cert, "w") as fh:
        fh.write(closed_form_text(spec))
    return stdout_digest(["verify", path, "--cert", cert,
                          "--depth", str(depth)])


def verify_cases():
    specs = dict(golden_specs())
    return [("%s@%d" % (label, depth), specs[label], depth)
            for label, depth in VERIFY_CASES]


def partition_specs():
    """(label, spec) of the rational specs of ``lipeq partition``
    reports."""
    return [("one45", make_one45()),
            ("ninths", make_equal_spec(4, 9, [0, 3, 4, 8])),
            ("endratio96", make_endratio_spec(Fraction(1, 4),
                                              Fraction(1, 8),
                                              r2=Fraction(1, 3)))]


def partition_cases():
    """(key, spec, family, k) of every report in
    ``golden_partition.json``."""
    out = [("%s/%s%d" % (label, fam, k), spec, fam, k)
           for label, spec in partition_specs()
           for fam in ("S", "T", "C") for k in range(1, 5)]
    out += [("declared/%s%d" % (fam, k), make_declared_spec(), fam, k)
            for fam in ("S", "T") for k in range(1, 4)]
    return out


def partition_k5_cases():
    """(key, spec, family, k) of every report in
    ``golden_partition_k5.json``."""
    return [("%s/%s5" % (label, fam), spec, fam, 5)
            for label, spec in partition_specs()
            if label in ("one45", "endratio96")
            for fam in ("S", "T")]


def partition_digest(spec, family, k, path):
    """SHA-256 of the standard output of ``lipeq partition`` on
    ``spec``."""
    save_doc(spec_to_doc(spec), path)
    return stdout_digest(["partition", path, "--k", str(k),
                          "--family", family])


def certificate_cases():
    """(file, key, spec, depth) of every digest of the four certificate
    files, ``certify``, ``verify``, ``left`` and ``decided``."""
    return ([("certify", label, spec, None) for label, spec in golden_specs()]
            + [("verify",) + case for case in verify_cases()]
            + [("left",) + case for case in left_cases()]
            + [("decided",) + case for case in decided_cases()])


def certificate_digest(name, key, spec, depth, directory):
    """The digest that the certificate file ``name`` records for the case
    ``key``."""
    if name == "certify" or (name == "left" and key in CLOSED_FORM_CASES):
        return closed_form_certify_digest(spec)
    if name == "verify":
        return closed_form_verify_digest(spec, depth, directory)
    return cli_digest(spec, depth, directory)


@pytest.fixture
def word_trace(monkeypatch):
    """Build traces word by word, as ``tstar.trace`` did when the four
    certificate files were recorded."""
    monkeypatch.setattr(lipeq.tstar, "trace", ref_trace)


def test_golden_file_covers_every_spec():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(label for label, _ in golden_specs())


@pytest.mark.parametrize("label,spec", golden_specs(),
                         ids=[label for label, _ in golden_specs()])
def test_certify_output_unchanged(label, spec, tmp_path, word_trace):
    with open(GOLDEN) as fh:
        want = json.load(fh)[label]
    assert closed_form_certify_digest(spec) == want


def test_golden_verify_file_covers_every_case():
    with open(GOLDEN_VERIFY) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(key for key, _, _ in verify_cases())


@pytest.mark.parametrize("key,spec,depth", verify_cases(),
                         ids=[key for key, _, _ in verify_cases()])
def test_verify_output_unchanged(key, spec, depth, tmp_path, word_trace):
    with open(GOLDEN_VERIFY) as fh:
        want = json.load(fh)[key]
    assert closed_form_verify_digest(spec, depth, str(tmp_path)) == want


def test_golden_left_file_covers_every_case():
    with open(GOLDEN_LEFT) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(key for key, _, _ in left_cases())


@pytest.mark.parametrize("key,spec,depth", left_cases(),
                         ids=[key for key, _, _ in left_cases()])
def test_left_witness_output_unchanged(key, spec, depth, tmp_path, word_trace):
    with open(GOLDEN_LEFT) as fh:
        want = json.load(fh)[key]
    assert certificate_digest("left", key, spec, depth,
                              str(tmp_path)) == want


def test_golden_decided_file_covers_every_case():
    with open(GOLDEN_DECIDED) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(key for key, _, _ in decided_cases())


@pytest.mark.parametrize("key,spec,depth", decided_cases(),
                         ids=[key for key, _, _ in decided_cases()])
def test_decided_witness_output_unchanged(key, spec, depth, tmp_path,
                                          word_trace):
    with open(GOLDEN_DECIDED) as fh:
        want = json.load(fh)[key]
    assert cli_digest(spec, depth, str(tmp_path)) == want


def test_golden_cover_file_covers_every_case():
    with open(GOLDEN_COVER) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted("%s/%s" % (name, key)
                                    for name, key, _, _
                                    in certificate_cases())


@pytest.mark.parametrize("name,key,spec,depth", certificate_cases(),
                         ids=["%s/%s" % (name, key) for name, key, _, _
                              in certificate_cases()])
def test_cover_trace_output_unchanged(name, key, spec, depth, tmp_path):
    with open(GOLDEN_COVER) as fh:
        want = json.load(fh)["%s/%s" % (name, key)]
    assert certificate_digest(name, key, spec, depth, str(tmp_path)) == want


def test_golden_witness_file_covers_every_spec():
    with open(GOLDEN_WITNESS) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(label for label, _ in witness_specs())


@pytest.mark.parametrize("label,spec", witness_specs(),
                         ids=[label for label, _ in witness_specs()])
def test_witness_choice_output_unchanged(label, spec, tmp_path):
    with open(GOLDEN_WITNESS) as fh:
        want = json.load(fh)[label]
    assert cli_digest(spec, None, str(tmp_path)) == want


def test_golden_partition_file_covers_every_case():
    with open(GOLDEN_PARTITION) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(key for key, _, _, _ in partition_cases())


@pytest.mark.parametrize("key,spec,family,k", partition_cases(),
                         ids=[key for key, _, _, _ in partition_cases()])
def test_partition_output_unchanged(key, spec, family, k, tmp_path):
    with open(GOLDEN_PARTITION) as fh:
        want = json.load(fh)[key]
    assert partition_digest(spec, family, k,
                            str(tmp_path / "spec.json")) == want


def test_golden_partition_k5_file_covers_every_case():
    with open(GOLDEN_PARTITION_K5) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(key for key, _, _, _
                                    in partition_k5_cases())


@pytest.mark.parametrize("key,spec,family,k", partition_k5_cases(),
                         ids=[key for key, _, _, _ in partition_k5_cases()])
def test_partition_k5_output_unchanged(key, spec, family, k, tmp_path):
    with open(GOLDEN_PARTITION_K5) as fh:
        want = json.load(fh)[key]
    assert partition_digest(spec, family, k,
                            str(tmp_path / "spec.json")) == want


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        if sys.argv[1:] == ["cover"]:
            digests = {"%s/%s" % (name, key):
                       certificate_digest(name, key, spec, depth, d)
                       for name, key, spec, depth in certificate_cases()}
        elif sys.argv[1:] == ["witness"]:
            digests = {label: cli_digest(spec, None, d)
                       for label, spec in witness_specs()}
        elif sys.argv[1:] in (["partition"], ["partition5"]):
            cases = (partition_cases() if sys.argv[1] == "partition"
                     else partition_k5_cases())
            digests = {key: partition_digest(spec, fam, k,
                                             os.path.join(d, "spec.json"))
                       for key, spec, fam, k in cases}
        else:
            want = (sys.argv[1] if sys.argv[1:] in (["verify"], ["left"],
                                                     ["decided"])
                    else "certify")
            lipeq.tstar.trace = ref_trace
            digests = {key: certificate_digest(name, key, spec, depth, d)
                       for name, key, spec, depth in certificate_cases()
                       if name == want}
    print(json.dumps(digests, indent=1, sort_keys=True))
