"""Byte-identity of ``lipeq certify`` output.

``golden_certify.json`` holds the SHA-256 of the standard output of
``lipeq certify`` on {1,4,5}, the end-ratio spec that certifies at
(p, q) = (6, 4), and the 20 seed-31 equal-ratio specs of acceptance
criterion 3, recorded before validation moved off the tiling engines.
A change that only makes certification faster must leave every digest
as it is.  Regenerate the file only for a deliberate change of the
certificate format:

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden_certify.json
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

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_certify.json")


def golden_specs():
    """(label, spec) of every recorded certificate."""
    out = [("one45", make_one45()),
           ("endratio64", make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                             r2=Fraction(1, 8)))]
    rng = random.Random(31)
    out += [("eq31-%02d" % i, random_equal_spec(rng)) for i in range(20)]
    return out


def certify_digest(spec, path):
    """SHA-256 of the standard output of ``lipeq certify`` on ``spec``."""
    save_doc(spec_to_doc(spec), path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["certify", path]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


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


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        digests = {label: certify_digest(spec, os.path.join(d, "spec.json"))
                   for label, spec in golden_specs()}
    print(json.dumps(digests, indent=1, sort_keys=True))
