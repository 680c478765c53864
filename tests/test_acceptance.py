"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS line on
success (pytest -s shows them; a failure fails the test as usual).
"""

import copy
import json
import math
import random
import time
from fractions import Fraction

import pytest

from lipeq import (IfsSpec, decide, verify_witness, build_certificate,
                   verify_certificate, cert_to_doc, verify_cert_doc,
                   expand_map, distortion_report,
                   canonical_dust, moran_dimension)
from lipeq import cylsets
from lipeq.exactnum import ExactRatio, DeclaredBase
from lipeq.patches import (partition_S, partition_T, partition_norm,
                           c_family, e_ratio_set)

from conftest import (make_one45, make_equal_spec, make_endratio_spec,
                      random_equal_spec, verify_expansion,
                      closed_form_witnesses)


def report(num, name):
    print("ACCEPTANCE %d (%s): PASS" % (num, name))


def test_criterion_1_standard_instance():
    """{1,4,5}-set analyzes to Equivalent with exact witnesses: the
    closed-form right one, and the shorter left one that decide picks."""
    start = time.time()
    spec = make_one45()
    w = closed_form_witnesses(spec)[2]
    assert w.side == "right"
    # the witness identity rho_2 rho_3^k = rho_3 rho_3^k' rho_w, exactly
    verify_witness(spec, w)
    lhs = spec.ratio_word((2,) + (3,) * w.k)
    rhs = spec.ratio_word((3,) + (3,) * w.kp + w.word)
    assert lhs == rhs
    verdict = decide(spec)
    assert verdict.status == "equivalent"
    w = verdict.witnesses[2]
    assert (w.side, w.k, w.kp, w.word) == ("left", 1, 0, (2,))
    # the witness identity rho_3 rho_1^k = rho_2 rho_1^k' rho_w, exactly
    verify_witness(spec, w)
    lhs = spec.ratio_word((3,) + (1,) * w.k)
    rhs = spec.ratio_word((2,) + (1,) * w.kp + w.word)
    assert lhs == rhs
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(1, "standard instance, %.2fs" % elapsed)


def test_criterion_2_end_ratio_dichotomy():
    """(1/4, 1/8) end ratios: Equivalent; (1/2, 1/3): NotEquivalent."""
    start = time.time()
    rng = random.Random(2024)
    for _ in range(10):
        spec = make_endratio_spec(Fraction(1, 4), Fraction(1, 8), rng)
        assert decide(spec).status == "equivalent", spec.rho
    for _ in range(10):
        spec = make_endratio_spec(Fraction(1, 2), Fraction(1, 3), rng)
        assert decide(spec).status == "not_equivalent", spec.rho
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(2, "end-ratio dichotomy, %.2fs" % elapsed)


def test_criterion_3_certificate_soundness_suite():
    """Certificates validate on {1,4,5} and 20 random equal-ratio specs.

    verify_certificate is the kernel alone: exact tilings on both sides,
    piece ratio equality and cycle contraction.  The stored exponents
    and witnesses are build notes that it does not read.  The per-edge
    measure identity at the similarity dimension follows from the exact
    tilings and is not checked on its own.
    """
    specs = [make_one45()]
    rng = random.Random(31)
    while len(specs) < 21:
        specs.append(random_equal_spec(rng))
    failures = 0
    for spec in specs:
        verdict = decide(spec)
        assert verdict.status == "equivalent"
        cert = build_certificate(spec, verdict)
        if not verify_certificate(spec, cert):
            failures += 1
    assert failures == 0
    report(3, "certificate soundness on %d specs" % len(specs))


def test_criterion_4_distortion_stability():
    """Distortion bounds stable across depths 4..6; depth-5 bijectivity."""
    start = time.time()
    spec = make_one45()
    cert = build_certificate(spec)
    bounds = {d: distortion_report(spec, cert, d) for d in (4, 5, 6)}
    for lo, hi in bounds.values():
        assert lo > 0
    for a, b in ((4, 5), (5, 6)):
        lo_a, hi_a = bounds[a]
        lo_b, hi_b = bounds[b]
        assert abs(lo_b - lo_a) < 0.10 * lo_a
        assert abs(hi_b - hi_a) < 0.10 * hi_a
    pieces = expand_map(spec, cert, 5)
    assert verify_expansion(spec, pieces)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(4, "distortion stability, %.2fs" % elapsed)


def _partition_suite(spec, kmax=5):
    n = spec.n
    levels = partition_S(spec, kmax)
    # touching-zone families: pairwise disjoint within each level, the
    # nesting dichotomy across levels, and containment in the partition
    fams = [[cylsets.canonicalize(n, ws) for ws in c_family(spec, k)]
            for k in range(1, kmax + 1)]
    for fam in fams:
        for i, a in enumerate(fam):
            for b in fam[i + 1:]:
                assert not _word_sets_intersect(n, a, b)
    for upper, lower in zip(fams, fams[1:]):
        for child in lower:
            for parent in upper:
                inside = cylsets.word_subset(n, child, parent)
                disjoint = not _word_sets_intersect(n, child, parent)
                assert inside or disjoint
    for fam, pieces in zip(fams, levels):
        canon_pieces = {tuple(sorted(p)) for p in pieces}
        for ws in fam:
            assert tuple(sorted(ws)) in canon_pieces
    # refinement of consecutive partitions
    for coarse, fine in zip(levels, levels[1:]):
        for piece in fine:
            assert sum(cylsets.word_subset(n, piece, c)
                       for c in coarse) == 1
    # strictly decreasing gap-refined norms
    norms = [partition_norm(spec, partition_T(spec, k))
             for k in range(1, kmax + 1)]
    for a, b in zip(norms, norms[1:]):
        assert b < a


def _word_sets_intersect(n, a, b):
    for u in a:
        for v in b:
            k = min(len(u), len(v))
            if u[:k] == v[:k]:
                return True
    return False


def test_criterion_5_partition_suite():
    """Partition families verified exactly on three specs, k <= 5."""
    specs = [make_one45(),
             make_equal_spec(4, 9, [0, 3, 4, 8]),
             make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                r2=Fraction(1, 3))]
    for spec in specs:
        _partition_suite(spec, kmax=5)
    report(5, "partition suite on 3 specs")


def test_criterion_6_measure_ratio_set():
    """Measure ratios across nested four-map families, closed form."""
    mu = [Fraction(1, 4), Fraction(3, 10), Fraction(1, 5), Fraction(1, 4)]
    rho = [m * m for m in mu]
    t2 = Fraction(1, 8)
    spec = IfsSpec(rho, [Fraction(0), t2, t2 + rho[1], 1 - rho[3]],
                   role="touching")
    assert spec.touching.letters == frozenset({2})
    assert spec.ratios[0] == spec.ratios[3]
    m1, m2, m3, m4 = mu
    want = {m1, m2, m3, m2 + m3,
            m1 * m2 / (m2 + m3), m1 * m3 / (m2 + m3)}
    for k in (2, 3, 4, 5):
        assert e_ratio_set(spec, k, mu) == want
    report(6, "measure-ratio set, k <= 5")


def test_criterion_7_dimension_solver():
    """Moran equation residual below 1e-12 on 1000 random ratio lists."""
    rng = random.Random(77)
    for _ in range(1000):
        count = rng.randrange(2, 7)
        fracs = [Fraction(rng.randrange(1, 60), rng.randrange(61, 200))
                 for _ in range(count)]
        s = moran_dimension([ExactRatio(f) for f in fracs])
        residual = abs(sum(float(f) ** s for f in fracs) - 1.0)
        assert residual <= 1e-12, (fracs, residual)
    # closed forms
    s = moran_dimension([ExactRatio(Fraction(1, 5))] * 3)
    assert abs(s - math.log(3) / math.log(5)) <= 1e-10
    g = DeclaredBase("g", "0.61803398874989484820458683436563811772",
                     digits=35)
    s = moran_dimension([ExactRatio(1, (("g", 1),)),
                         ExactRatio(1, (("g", 2),))], env={"g": g})
    assert abs(s - 1.0) <= 1e-10
    report(7, "dimension solver, 1000 random lists")


def _other(rng, values, cur):
    """A value of ``values`` other than ``cur``, so the field changes."""
    return rng.choice([v for v in values if Fraction(v) != Fraction(cur)])


def test_criterion_8_mutation_regression():
    """100 random single-field certificate mutations, 100 detections."""
    spec = make_one45()
    cert = build_certificate(spec)
    doc = cert_to_doc(spec, cert)
    rng = random.Random(1234)
    detected = 0
    for _ in range(100):
        d = copy.deepcopy(doc)
        kind = rng.choice(["ratio", "offset", "target"])
        edge = rng.choice(d["edges"])
        piece = rng.choice(edge["pieces"])
        # every new value differs from the current one, so that no draw
        # leaves the certificate intact
        if kind == "ratio":
            piece["ratio"] = _other(rng, ["1/7", "2/5", "1/125"],
                                    piece["ratio"])
        elif kind == "offset":
            field = rng.choice(["t_offset", "d_offset"])
            piece[field] = _other(rng, ["3/11", "1/2", "7/25"], piece[field])
        else:
            cur = tuple(piece["target"])
            piece["target"] = rng.choice(
                [list(v["key"]) for v in d["vertices"]
                 if tuple(v["key"]) != cur])
        try:
            verify_cert_doc(spec, d)
        except Exception:
            detected += 1
    assert detected == 100
    report(8, "mutation regression, %d/100 detected" % detected)
