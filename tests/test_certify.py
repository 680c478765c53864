"""Certificate construction, validation, serialization, expansion and
distortion estimation."""

import copy
import json
import random
from fractions import Fraction

import pytest

from lipeq import (IfsSpec, decide, build_certificate, verify_certificate,
                   cert_to_doc, cert_from_doc, verify_cert_doc,
                   expand_map, verify_expansion, distortion_report,
                   identity_certificate, canonical_json,
                   CertificateError, SpecError, canonical_dust)
from lipeq.certify import compose_rules, apply_rules, choose_pq, rules_affine

from conftest import make_one45, make_endratio_spec, random_equal_spec


class TestRuleAlgebra:
    def test_apply(self):
        rules = (((2,), (2, 3, 3)), ((3,), (3, 1, 1)))
        assert apply_rules(rules, (2, 1)) == (2, 3, 3, 1)
        assert apply_rules(rules, (3, 2)) == (3, 1, 1, 2)

    def test_no_match_raises(self):
        with pytest.raises(CertificateError):
            apply_rules((((2,), (2, 3)),), (1, 1))

    def test_compose_matches_pointwise(self):
        outer = (((2,), (2, 3, 3)), ((3,), (3, 1, 1)))
        inner = (((), (3, 2)),)
        comp = compose_rules(outer, inner)
        for word in [(), (1,), (2, 3), (3, 1, 2)]:
            assert (apply_rules(comp, word)
                    == apply_rules(outer, apply_rules(inner, word)))

    def test_compose_longer_strip(self):
        outer = (((2,), (2, 3)),)
        inner = (((1,), (2,)),)
        comp = compose_rules(outer, inner)
        assert apply_rules(comp, (1, 2)) == (2, 3, 2)


class TestSimilarityMemo:
    def test_warm_spec_rejects_every_mutant(self, one45):
        # the acceptance-8 mutations, validated against one spec object
        # whose memo already holds every piece's similarity
        cert = build_certificate(one45)
        doc = cert_to_doc(one45, cert)
        verify_cert_doc(one45, doc)
        rng = random.Random(8)
        for kind in ("ratio", "offset", "target"):
            for _ in range(10):
                d = copy.deepcopy(doc)
                piece = rng.choice(rng.choice(d["edges"])["pieces"])
                if kind == "ratio":
                    piece["ratio"] = rng.choice(
                        [r for r in ("1/7", "2/5", "1/125")
                         if r != piece["ratio"]])
                elif kind == "offset":
                    field = rng.choice(["t_offset", "d_offset"])
                    piece[field] = rng.choice(
                        [o for o in ("3/11", "1/2", "7/25")
                         if o != piece[field]])
                else:
                    piece["target"] = rng.choice(
                        [v["key"] for v in d["vertices"]
                         if v["key"] != piece["target"]])
                with pytest.raises(SpecError):
                    verify_cert_doc(one45, d)
        verify_cert_doc(one45, doc)

    def test_disagreeing_rules_raise_on_every_call(self, one45):
        # equal ratios 1/5, offsets 0 and 3/5
        rules = (((), (1,)), ((), (2,)))
        for _ in range(2):
            with pytest.raises(CertificateError):
                rules_affine(one45, rules, "test")


class TestOne45Certificate:
    def test_shape(self, one45):
        cert = build_certificate(one45)
        assert (cert.p, cert.q) == (3, 3)
        assert len(cert.vertices) == 6
        keys = set(cert.vertices)
        assert keys == {("whole",), ("comp1", 1), ("comp1", 2),
                        ("touch2", 2), ("touch3", 2), ("touch4", 2)}

    def test_piece_counts(self, one45):
        cert = build_certificate(one45)
        counts = {k: len(e.pieces) for k, e in cert.edges.items()}
        assert counts[("whole",)] == 2
        assert counts[("comp1", 1)] == 2
        assert counts[("comp1", 2)] == 3
        assert counts[("touch2", 2)] == 10

    def test_touch2_level2_words(self, one45):
        cert = build_certificate(one45)
        v = cert.vertices[("touch2", 2)]
        assert set(v.t_words) == {(2, 2), (2, 3), (3, 1)}

    def test_validates(self, one45):
        cert = build_certificate(one45)
        assert verify_certificate(one45, cert)

    def test_touch4_self_piece_ratio(self, one45):
        # the recursion around the touching point steps down by
        # rho^(p + q) = (1/5)^6
        cert = build_certificate(one45)
        edge = cert.edges[("touch4", 2)]
        self_pieces = [p for p in edge.pieces if p.target == ("touch4", 2)]
        assert len(self_pieces) == 1
        strip, add = self_pieces[0].t_rules[0]
        r = one45.ratio_word(add) / one45.ratio_word(strip)
        assert r.as_fraction() == Fraction(1, 5 ** 6)


class TestChoosePq:
    def test_one45(self, one45):
        v = decide(one45)
        p, q, p0, q0 = choose_pq(one45, v.witnesses)
        assert (p0, q0) == (1, 1)
        assert (p, q) == (3, 3)

    def test_unequal_end_ratios(self):
        spec = make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                  r2=Fraction(1, 3))
        v = decide(spec)
        p, q, p0, q0 = choose_pq(spec, v.witnesses)
        assert (p0, q0) == (3, 2)
        assert p % 3 == 0 and q % 2 == 0
        assert min(p, q) > max(w.kp + len(w.word)
                               for w in v.witnesses.values())


class TestSerialization:
    def test_round_trip_bit_exact(self, one45):
        cert = build_certificate(one45)
        doc = cert_to_doc(one45, cert)
        blob = canonical_json(doc)
        cert2 = cert_from_doc(json.loads(blob))
        assert canonical_json(cert_to_doc(one45, cert2)) == blob

    def test_verify_doc(self, one45):
        cert = build_certificate(one45)
        doc = cert_to_doc(one45, cert)
        verify_cert_doc(one45, doc)

    def test_wrong_spec_rejected(self, one45):
        cert = build_certificate(one45)
        doc = cert_to_doc(one45, cert)
        other = make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                   r2=Fraction(1, 3))
        with pytest.raises(CertificateError):
            verify_cert_doc(other, doc)


class TestMutationDetection:
    def test_random_single_field_mutations(self, one45):
        cert = build_certificate(one45)
        doc = cert_to_doc(one45, cert)
        rng = random.Random(99)
        for _ in range(30):
            d = copy.deepcopy(doc)
            kind = rng.choice(["ratio", "offset", "target"])
            piece = rng.choice(rng.choice(d["edges"])["pieces"])
            if kind == "ratio":
                piece["ratio"] = "1/7"
            elif kind == "offset":
                piece[rng.choice(["t_offset", "d_offset"])] = "3/11"
            else:
                cur = tuple(piece["target"])
                piece["target"] = rng.choice(
                    [list(v["key"]) for v in d["vertices"]
                     if tuple(v["key"]) != cur])
            with pytest.raises(Exception):
                verify_cert_doc(one45, d)

    def test_hull_mutation_detected(self, one45):
        cert = build_certificate(one45)
        doc = cert_to_doc(one45, cert)
        d = copy.deepcopy(doc)
        d["vertices"][2]["t_lo"] = "1/9"
        with pytest.raises(CertificateError):
            verify_cert_doc(one45, d)


class TestExpansion:
    def test_leaves_tile_both_sides(self, one45):
        cert = build_certificate(one45)
        for depth in (1, 2, 3):
            pieces = expand_map(one45, cert, depth)
            assert verify_expansion(one45, cert, pieces)

    def test_leaf_count_growth(self, one45):
        cert = build_certificate(one45)
        sizes = [len(expand_map(one45, cert, d)) for d in (1, 2, 3)]
        assert sizes[0] == 2
        assert sizes[0] < sizes[1] < sizes[2]


class TestDistortion:
    def test_stability(self, one45):
        cert = build_certificate(one45)
        lo4, hi4 = distortion_report(one45, cert, 4)
        lo5, hi5 = distortion_report(one45, cert, 5)
        assert lo4 > 0
        assert abs(lo5 - lo4) <= 0.1 * lo4
        assert abs(hi5 - hi4) <= 0.1 * hi4

    def test_identity_certificate_is_isometry(self, one45):
        dust = canonical_dust(one45.ratios, one45.bases)
        cert = identity_certificate(dust)
        lo, hi = distortion_report(dust, cert, 3)
        assert lo == hi == 1.0


class TestOtherSpecs:
    def test_random_equal_ratio_specs(self):
        rng = random.Random(7)
        for _ in range(6):
            spec = random_equal_spec(rng)
            v = decide(spec)
            assert v.status == "equivalent"
            cert = build_certificate(spec, v)
            expected = 1 + len(spec.blocks()) \
                + 3 * len(spec.touching.letters)
            assert len(cert.vertices) == expected

    def test_unequal_ratio_certificate(self):
        spec = make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                  r2=Fraction(1, 3))
        cert = build_certificate(spec)
        assert verify_certificate(spec, cert)

    def test_not_equivalent_has_no_certificate(self):
        spec = make_endratio_spec(Fraction(1, 2), Fraction(1, 3),
                                  r2=Fraction(1, 12))
        with pytest.raises(CertificateError):
            build_certificate(spec)

    def test_identity_needs_dust(self, one45):
        with pytest.raises(CertificateError):
            identity_certificate(one45)
