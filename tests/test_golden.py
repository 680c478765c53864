"""Byte-identity of ``lipeq certify`` and ``lipeq verify --depth`` output.

``golden_certify.json`` holds the SHA-256 of the standard output of
``lipeq certify`` on {1,4,5}, the end-ratio spec that certifies at
(p, q) = (6, 4), and the 20 seed-31 equal-ratio specs of acceptance
criterion 3, recorded before validation moved off the tiling engines.
``golden_verify.json`` holds the SHA-256 of the standard output of
``lipeq verify --depth D`` on certificates of {1,4,5} (D = 5), the (6, 4)
end-ratio spec (D = 3) and four seed-31 specs (D = 2), keyed
``label@D``, recorded before the depth report took its points from the
leaves' similarities.  A change that only makes certification or
verification faster must leave every digest as it is.  Regenerate the
files only for a deliberate change of a document format:

    PYTHONPATH=src python3 tests/test_golden.py certify \
        > tests/golden_certify.json
    PYTHONPATH=src python3 tests/test_golden.py verify \
        > tests/golden_verify.json
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

from lipeq.cli import main
from lipeq.specfile import save_doc, spec_to_doc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import make_one45, make_endratio_spec, random_equal_spec  # noqa

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_certify.json")
GOLDEN_VERIFY = os.path.join(HERE, "golden_verify.json")
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


def verify_cases():
    specs = dict(golden_specs())
    return [("%s@%d" % (label, depth), specs[label], depth)
            for label, depth in VERIFY_CASES]


def test_golden_file_covers_every_spec():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(label for label, _ in golden_specs())


@pytest.mark.parametrize("label,spec", golden_specs(),
                         ids=[label for label, _ in golden_specs()])
def test_certify_output_unchanged(label, spec, tmp_path):
    with open(GOLDEN) as fh:
        want = json.load(fh)[label]
    assert certify_digest(spec, str(tmp_path / "spec.json")) == want


def test_golden_verify_file_covers_every_case():
    with open(GOLDEN_VERIFY) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(key for key, _, _ in verify_cases())


@pytest.mark.parametrize("key,spec,depth", verify_cases(),
                         ids=[key for key, _, _ in verify_cases()])
def test_verify_output_unchanged(key, spec, depth, tmp_path):
    with open(GOLDEN_VERIFY) as fh:
        want = json.load(fh)[key]
    assert verify_digest(spec, depth, str(tmp_path)) == want


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        if sys.argv[1:] == ["verify"]:
            digests = {key: verify_digest(spec, depth, d)
                       for key, spec, depth in verify_cases()}
        else:
            digests = {label: certify_digest(spec,
                                             os.path.join(d, "spec.json"))
                       for label, spec in golden_specs()}
    print(json.dumps(digests, indent=1, sort_keys=True))
