"""Certificate construction, validation, serialization, expansion and
distortion estimation."""

import copy
import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lipeq import (IfsSpec, decide, build_certificate, verify_certificate,
                   cert_to_doc, cert_from_doc, verify_cert_doc,
                   expand_map, distortion_report, canonical_json,
                   CertificateError, SpecError, canonical_dust)
import lipeq.certify
from lipeq import check, cylsets, tstar
from lipeq.certify import (MAX_PQ_MULTIPLE, compose_rules, choose_pq,
                           leaf_counts, leaf_hulls)
from lipeq.check import (apply_rules, rules_affine, rule_affine, Certificate,
                         Edge, Piece, Vertex)
from lipeq.decide import (SearchBudget, Witness, closed_form_witnesses,
                          verify_witness, witness_letters, _admissible)
from lipeq.exactnum import SymValue, mult_dependence
from lipeq.patches import patch_words
from lipeq import specfile
from lipeq.specfile import format_value
from lipeq.tstar import Context, _hole_fits

from conftest import (make_one45, make_endratio_spec, make_equal_spec,
                      random_equal_spec,
                      random_unequal_spec, random_fuzz_spec,
                      make_declared_spec, closed_form_certificate,
                      identity_certificate, verify_expansion)
from test_cylsets import shares_end
from test_golden import golden_specs, left_specs
from test_tstar import cover_fault


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

    @pytest.mark.parametrize("make", [make_one45, make_declared_spec],
                             ids=["one45", "declared"])
    def test_grid_strings_are_the_exact_ones(self, make):
        # the strings of a usual rule and the hulls are formatted off the
        # grid; they equal those of rules_affine and cyl_lo / cyl_hi
        spec = make()
        pair = (spec, spec.dust())
        for k in range(4):
            words = list(itertools.product(range(1, spec.n + 1), repeat=k))
            for w in words:
                rules = (((), w),)
                want = (specfile.format_ratio(rules_affine(spec, rules)[0]),)
                for system in pair:
                    want += tuple(map(format_value,
                                      rules_affine(system, rules)[1:]))
                assert check.piece_strings(
                    pair, Piece(("v",), rules, rules), ({}, {}), "") == want
            vertex = Vertex(("v",), words[len(words) // 2:], words[::-1])
            want = ()
            for system, ws in zip(pair, vertex.words):
                want += (format_value(min(map(system.cyl_lo, ws))),
                         format_value(max(map(system.cyl_hi, ws))))
            assert vertex.hull_strings(pair) == want

    def test_equal_rule_tuples_share_one_list(self, one45):
        cert = build_certificate(one45)
        doc = cert_to_doc(one45, cert)
        lists = {}
        for ed in doc["edges"]:
            for pd in ed["pieces"]:
                for name in ("t_rules", "d_rules"):
                    rules = json.dumps(pd[name])
                    assert lists.setdefault(rules, pd[name]) is pd[name]
        assert len(lists) < sum(2 * len(e.pieces)
                                for e in cert.edges.values())
        assert doc == json.loads(json.dumps(doc))

    def test_every_stored_string_of_every_piece_compared(self, one45):
        # the strings of a rule set are formatted once, for the first
        # piece that uses it; a wrong string on any later piece with the
        # same rule sets is still found
        doc = json.loads(json.dumps(cert_to_doc(one45,
                                                build_certificate(one45))))
        seen = set()
        later = []
        for ei, ed in enumerate(doc["edges"]):
            for pi, pd in enumerate(ed["pieces"]):
                key = json.dumps([pd["t_rules"], pd["d_rules"]])
                if key in seen:
                    later.append((ei, pi))
                seen.add(key)
        assert later
        for name in check.PIECE_STRINGS:
            for ei, pi in later:
                d = copy.deepcopy(doc)
                d["edges"][ei]["pieces"][pi][name] = "7/11"
                with pytest.raises(CertificateError,
                                   match="stored %s mismatches" % name):
                    verify_cert_doc(one45, d)
        verify_cert_doc(one45, doc)

    def test_disagreeing_rules_raise_on_every_call(self, one45):
        # equal ratios 1/5, offsets 0 and 3/5
        rules = (((), (1,)), ((), (2,)))
        for _ in range(2):
            with pytest.raises(CertificateError):
                rules_affine(one45, rules, "test")


class TestOne45Certificate:
    """The certificate of {1,4,5} from its closed-form witness, right
    (2, 1) with k = 2, and the one from the witness ``decide`` picks."""

    def test_shape(self, one45):
        cert = closed_form_certificate(one45)
        assert (cert.p, cert.q) == (3, 3)
        assert len(cert.vertices) == 6
        keys = set(cert.vertices)
        assert keys == {("whole",), ("comp1", 1), ("comp1", 2),
                        ("touch2", 2), ("touch3", 2), ("touch4", 2)}

    def test_piece_counts(self, one45):
        cert = closed_form_certificate(one45)
        counts = {k: len(e.pieces) for k, e in cert.edges.items()}
        assert counts[("whole",)] == 2
        assert counts[("comp1", 1)] == 2
        assert counts[("comp1", 2)] == 3
        assert counts[("touch2", 2)] == 10

    def test_touch2_level2_words(self, one45):
        cert = closed_form_certificate(one45)
        v = cert.vertices[("touch2", 2)]
        assert set(v.t_words) == {(2, 2), (2, 3), (3, 1)}

    def test_validates(self, one45):
        cert = closed_form_certificate(one45)
        assert verify_certificate(one45, cert)

    def test_touch4_self_piece_ratio(self, one45):
        # the recursion around the touching point steps down by
        # rho^(p + q) = (1/5)^6
        cert = closed_form_certificate(one45)
        edge = cert.edges[("touch4", 2)]
        self_pieces = [p for p in edge.pieces if p.target == ("touch4", 2)]
        assert len(self_pieces) == 1
        strip, add = self_pieces[0].t_rules[0]
        r = one45.ratio_word(add) / one45.ratio_word(strip)
        assert r.value() == Fraction(1, 5 ** 6)

    def test_decided_witness_certificate(self, one45):
        # left (2,) with k = 1 has k' + |word| = 1, so (p, q) = (2, 2)
        # passes the depth bound; the closed form's 2 needs (3, 3)
        cert = build_certificate(one45)
        w = cert.witnesses[2]
        assert (w.side, w.k, w.kp, w.word) == ("left", 1, 0, (2,))
        assert (cert.p, cert.q) == (2, 2)
        assert sum(len(e.pieces) for e in cert.edges.values()) == 63
        assert sum(len(e.pieces) for e in
                   closed_form_certificate(one45).edges.values()) == 83
        assert verify_certificate(one45, cert)


def _spec(ratios, translations):
    return IfsSpec([Fraction(r) for r in ratios],
                   [Fraction(t) for t in translations], role="touching")


# Their closed-form witnesses are words of 4 to 9 letters.  Traced word
# by word, their hole traces ranged over more than 60,000 words, so
# ``lipeq certify --budget 12,40`` exited 3 with "trace range too large"
# while they were the witnesses used; their covers hold a few dozen
# cylinders.
GEN5_18 = _spec(["1/8", "1/32", "1/15", "1/36", "1/32", "1/4"],
                ["0", "1/8", "1349/4320", "2311/4320", "23/32", "3/4"])
TRACE_CAP_EXAMPLE = _spec(["1/27", "1/3", "2/11", "1/9"],
                          ["0", "133/891", "430/891", "8/9"])
CAP_SPECS = [GEN5_18, GEN5_18.mirror(), TRACE_CAP_EXAMPLE,
             TRACE_CAP_EXAMPLE.mirror()]
CAP_IDS = ["gen5-18", "gen5-18-mirror", "trace-cap", "trace-cap-mirror"]


def _certifies(spec):
    """``lipeq certify --budget 12,40`` then ``lipeq verify`` on the
    certificate's JSON text; returns the certificate."""
    verdict = decide(spec, SearchBudget(12, 40))
    assert verdict.status == "equivalent"
    cert = build_certificate(spec, verdict)
    verify_cert_doc(spec, json.loads(json.dumps(cert_to_doc(spec, cert))))
    return cert


@pytest.mark.parametrize("spec", CAP_SPECS, ids=CAP_IDS)
def test_cheapest_witnesses_certify(spec):
    _certifies(spec)


@pytest.mark.parametrize("spec", CAP_SPECS, ids=CAP_IDS)
def test_closed_form_witnesses_certify(spec):
    assert verify_certificate(spec, closed_form_certificate(spec))


# Ten specs of a fuzz run like ``conftest.random_fuzz_spec`` whose
# ``lipeq certify --budget 12,40`` exited 3 with "trace range too large"
# while traces went word by word: each has a witness of 7 to 10 letters.
LONG_WITNESS_SPECS = [
    _spec(["1/9", "2/9", "1/16", "1/6", "1/27"],
          ["0", "1/9", "317/432", "43/54", "26/27"]),
    _spec(["1/125", "2/15", "1/4", "2/25", "1/125"],
          ["0", "1/125", "53/375", "391/600", "124/125"]),
    _spec(["1/5", "2/27", "1/4", "3/25", "1/5"],
          ["0", "1/5", "1901/5400", "17/25", "4/5"]),
    _spec(["1/125", "2/5", "1/22", "1/8", "1/25"],
          ["0", "1/125", "51/125", "167/200", "24/25"]),
    _spec(["1/9", "2/27", "1/25", "3/16", "1/9"],
          ["0", "8743/32400", "8143/16200", "8791/16200", "8/9"]),
    _spec(["1/125", "1/4", "2/5", "1/125"],
          ["0", "171/500", "74/125", "124/125"]),
    _spec(["1/8", "3/16", "1/9", "1/8"], ["0", "83/144", "55/72", "7/8"]),
    _spec(["1/125", "3/16", "1/2", "2/25", "1/125"],
          ["0", "1/125", "2039/6000", "114/125", "124/125"]),
    _spec(["1/25", "2/5", "1/9", "1/8", "1/5"],
          ["0", "1/25", "11/25", "27/40", "4/5"]),
    _spec(["1/27", "1/6", "2/19", "2/27", "1/27"],
          ["0", "211/342", "134/171", "8/9", "26/27"]),
]


@pytest.mark.parametrize(
    "spec", LONG_WITNESS_SPECS + [s.mirror() for s in LONG_WITNESS_SPECS],
    ids=(["long-%d" % k for k in range(10)]
         + ["long-%d-mirror" % k for k in range(10)]))
def test_long_witness_specs_certify(spec):
    _certifies(spec)


def test_certificate_grows_with_the_cover():
    # traced word by word, this certificate held 391,738 pieces
    spec = _spec(["1/2", "3/16", "1/24", "1/14", "1/8"],
                 ["0", "1/2", "11/16", "45/56", "7/8"])
    cert = _certifies(spec)
    assert (cert.p, cert.q) == (18, 6)
    assert sum(len(e.pieces) for e in cert.edges.values()) <= 10000


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_fuzz_equivalent_verdicts_certify(seed):
    # time-boxed by the example count: over the 2,400 specs of fuzz
    # seeds 1-6, decide took at most 0.01 s and a build at most 0.4 s
    spec = random_fuzz_spec(random.Random(seed))
    if decide(spec, SearchBudget(12, 40)).status == "equivalent":
        _certifies(spec)


def touching_digit_sets(m):
    """The digit sets D of {0..m-1} holding 0 and m-1, with at least one
    pair of consecutive digits (a touch) and one gap."""
    for k in range(1, m - 1):
        for inner in itertools.combinations(range(1, m - 1), k):
            digits = (0,) + inner + (m - 1,)
            steps = {b - a for a, b in zip(digits, digits[1:])}
            if 1 in steps and max(steps) > 1:
                yield digits


@pytest.mark.parametrize("m, count", [(4, 2), (5, 5), (6, 12), (7, 26),
                                      (8, 55)])
def test_xi_xiong_grid_sets_certify(m, count):
    # Xi and Xiong (C. R. Acad. Sci. Paris 348, 2010): a totally
    # disconnected set with digits D and equal ratios 1/m is Lipschitz
    # equivalent to its dust; these are all such sets with hull [0, 1]
    # and m <= 8, 100 in all
    sets = list(touching_digit_sets(m))
    assert len(sets) == count
    for digits in sets:
        spec = make_equal_spec(len(digits), m, digits)
        verdict = decide(spec)
        assert verdict.status == "equivalent", digits
        build_certificate(spec, verdict)  # validates what it builds


class TestChoosePq:
    def test_one45(self, one45):
        p, q, p0, q0 = choose_pq(one45, closed_form_witnesses(one45))
        assert (p0, q0) == (1, 1)
        assert (p, q) == (3, 3)
        assert choose_pq(one45, decide(one45).witnesses) == (2, 2, 1, 1)

    def test_unequal_end_ratios(self):
        spec = make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                  r2=Fraction(1, 3))
        v = decide(spec)
        p, q, p0, q0 = choose_pq(spec, v.witnesses)
        assert (p0, q0) == (3, 2)
        assert p % 3 == 0 and q % 2 == 0
        assert min(p, q) > max(w.kp + len(w.word)
                               for w in v.witnesses.values())

    # choose_pq is the one owner of (p, q), and build_certificate builds
    # once at the multiple it returns.  On these six specs the first
    # multiple past the witnesses' depth fails the hole engines' own
    # condition: endratio64's left witness (3,) with k' = 0 at (3, 2) is
    # q - 1 letters n, and so is the seed-31 specs' word at (2, 2).
    @pytest.mark.parametrize("label, pq", [
        ("endratio64", (6, 4)), ("eq31-00", (3, 3)), ("eq31-07", (3, 3)),
        ("eq31-14", (3, 3)), ("eq31-15", (3, 3)), ("eq31-16", (3, 3))])
    def test_certificate_built_at_chosen_pq(self, label, pq):
        spec = dict(golden_specs())[label]
        v = decide(spec)
        assert choose_pq(spec, v.witnesses)[:2] == pq
        cert = build_certificate(spec, v)
        assert (cert.p, cert.q) == pq

    def test_generated_certificates_built_at_chosen_pq(self):
        rng = random.Random(13)
        built = past_floor = 0
        for k in range(20):
            spec = (random_unequal_spec if k % 2 else random_equal_spec)(rng)
            for s in (spec, spec.mirror()):
                v = decide(s, SearchBudget(12, 40))
                if v.status != "equivalent":
                    continue
                p, q, p0, q0 = choose_pq(s, v.witnesses)
                cert = build_certificate(s, v)
                assert (cert.p, cert.q) == (p, q)
                built += 1
                need = max(w.depth for w in v.witnesses.values())
                past_floor += p // p0 > need // min(p0, q0) + 1
        assert built == 20 and past_floor >= 1

    @pytest.mark.parametrize("q", [2, 3])
    def test_restrictions_refuse_what_the_hole_engine_refuses(self, q):
        # mirrored {1,4,5}: a left witness for letter 1 whose word is
        # q - 1 letters n with k' = 0 passes the depth bound at (q, q),
        # where ``_hole_fits`` refuses it, and tiles at (q + 1, q + 1)
        spec = make_one45().mirror()
        w = Witness("left", 1, q - 1, 0, (spec.n,) * (q - 1), "search")
        verify_witness(spec, w)
        assert choose_pq(spec, {1: w})[:2] == (q + 1, q + 1)

    def test_matches_the_selection_with_patch_checks(self):
        rng = random.Random(1)
        chosen = 0
        for _ in range(60):
            spec = random_fuzz_spec(rng)
            v = decide(spec, SearchBudget(12, 40))
            if v.status == "equivalent":
                assert choose_pq(spec, v.witnesses) == \
                    choose_pq_with_patch_checks(spec, v.witnesses)
                chosen += 1
        assert chosen >= 20


def patch_disjointness(spec, side, i, kp, j, p, q):
    """The paper's patch-disjointness conditions on the hole of a ``side``
    witness for touching letter ``i`` with (k', j) at (p, q), checked word
    by word: the hole patch against the boundary patches around it, on T
    and on D.  Raises SpecError on an overlap or a shared endpoint."""
    n = spec.n
    near, _, end = witness_letters(side, i, n)
    opp = n + 1 - end
    depth = q if end == 1 else p
    dust = spec.dust()
    hole_t = patch_words(spec, (near,) + (opp,) * (2 * depth) + j, kp, end)
    tail_t = patch_words(spec, (near,), 3 * depth, opp)
    cylsets.check_disjoint_groups(spec, [hole_t, tail_t])
    cylsets.check_disjoint_groups(dust, [hole_t, tail_t])
    hole_d = patch_words(spec, (near,) + j, kp, end)
    near_d = patch_words(spec, (near,), depth, opp)
    cylsets.check_disjoint_groups(dust, [hole_d, near_d])


def choose_pq_with_patch_checks(spec, witnesses):
    """The selection as it stood with the patch-disjointness conditions
    checked after ``_hole_fits`` at every candidate (p, q)."""
    p0, q0 = mult_dependence(spec.ratios[0], spec.ratios[-1])
    need = max(w.depth for w in witnesses.values())
    for m in range(need // min(p0, q0) + 1, MAX_PQ_MULTIPLE + 1):
        p, q = m * p0, m * q0
        try:
            for i, w in sorted(witnesses.items()):
                end = witness_letters(w.side, i, spec.n)[2]
                if not _hole_fits(spec.n, p, q, end, w.kp, w.word):
                    raise SpecError("needs larger (p, q)")
                patch_disjointness(spec, w.side, i, w.kp, w.word, p, q)
            return p, q, p0, q0
        except SpecError:
            continue
    raise CertificateError("no admissible (p, q)")


# choose_pq admits (p, q) by ``_hole_fits`` alone; its docstring argues
# that the patch-disjointness conditions then hold on every witness,
# whatever the witness identity and the ratios.  These tests check that
# on words that need not be witnesses, at the first six multiples.
class TestHoleFitsImpliesPatchDisjointness:
    def _holes(self, spec, rng):
        """(side, i, k', j, p, q) over both sides and every touching
        letter at m = 1..6: random words j with an admissible last letter
        and k' in 0..3 where ``_hole_fits`` holds, and the boundary words
        opp^(depth - 2) and opp^(depth - 1) with k' = 0."""
        n = spec.n
        p0, q0 = mult_dependence(spec.ratios[0], spec.ratios[-1])
        fits = refused = 0
        for m, side, i in itertools.product(range(1, 7), ("left", "right"),
                                            sorted(spec.touching.letters)):
            p, q = m * p0, m * q0
            end = witness_letters(side, i, n)[2]
            opp = n + 1 - end
            depth = q if opp == n else p
            if depth >= 3:
                short, long_ = (opp,) * (depth - 2), (opp,) * (depth - 1)
                assert _hole_fits(n, p, q, end, 0, short) == \
                    (depth - 2 < min(p, q))
                assert not _hole_fits(n, p, q, end, 0, long_)
                refused += 1
                if depth - 2 < min(p, q):
                    yield side, i, 0, short, p, q
            last = [c for c in range(1, n + 1) if _admissible(spec, side, c)]
            for _ in range(6):
                kp = rng.randrange(4)
                j = tuple(rng.randrange(1, n + 1)
                          for _ in range(rng.randrange(min(p, q) + 1)))
                j += (rng.choice(last),)
                if _hole_fits(n, p, q, end, kp, j):
                    fits += 1
                    yield side, i, kp, j, p, q
        assert fits > 0 and refused > 0

    def _check(self, spec, rng):
        checked = 0
        for hole in self._holes(spec, rng):
            patch_disjointness(spec, *hole)
            checked += 1
        return checked

    @pytest.mark.parametrize("mirror", [False, True])
    def test_one45(self, mirror):
        spec = make_one45().mirror() if mirror else make_one45()
        assert self._check(spec, random.Random(5)) > 0

    def test_unequal_end_ratios(self):
        spec = make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                  r2=Fraction(1, 3))
        for s in (spec, spec.mirror()):
            assert self._check(s, random.Random(7)) > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fuzz_specs(self, seed):
        rng = random.Random(seed)
        for _ in range(8):
            assert self._check(random_fuzz_spec(rng), rng) > 0


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

    def test_swapped_d_rules_rejected_by_ratio_check(self, one45):
        # two pieces with one target and different ratios swap their
        # D-side rules: both unions stay the same, only the per-piece
        # ratio equality sees it
        cert = build_certificate(one45)
        key = ("touch2", 2)
        pieces = list(cert.edges[key].pieces)
        a, b = pieces[0], pieces[2]
        assert a.target == b.target
        assert (rules_affine(one45, a.t_rules)[0]
                != rules_affine(one45, b.t_rules)[0])
        pieces[0] = Piece(a.target, a.t_rules, b.d_rules)
        pieces[2] = Piece(b.target, b.t_rules, a.d_rules)
        bad = copy.copy(cert)
        bad.edges = dict(cert.edges)
        bad.edges[key] = Edge(key, pieces)
        with pytest.raises(CertificateError,
                           match=r"^\('touch2', 2\) piece 0: T and D "
                                 r"ratios differ$"):
            verify_certificate(one45, bad)

    def test_hull_mutation_detected(self, one45):
        cert = build_certificate(one45)
        doc = cert_to_doc(one45, cert)
        d = copy.deepcopy(doc)
        d["vertices"][2]["t_lo"] = "1/9"
        with pytest.raises(CertificateError):
            verify_cert_doc(one45, d)


def make_endratio64():
    """End ratios 1/4, 1/8 and middle ratio 1/8: certifies at (6, 4)."""
    return make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                              r2=Fraction(1, 8))


def declared_dust():
    spec = make_declared_spec()
    return canonical_dust(spec.ratios, spec.bases)


def word_scan_hulls(spec, pieces):
    """Reference leaf hulls: the extremes of ``cyl_lo`` and ``cyl_hi``
    over each leaf's words, the scan the depth report made before it took
    its hulls from the leaves' similarities."""
    dust = spec.dust()
    return [(min(spec.cyl_lo(w) for w in pc.t_words),
             max(spec.cyl_hi(w) for w in pc.t_words),
             min(dust.cyl_lo(w) for w in pc.d_words),
             max(dust.cyl_hi(w) for w in pc.d_words)) for pc in pieces]


def ref_distortion_report(spec, cert, depth, sample_pairs=4000, seed=7):
    """Reference depth report: word-scan hulls, Fraction sorting and one
    Fraction quotient per pair."""
    pts = set()
    for t_lo, t_hi, d_lo, d_hi in word_scan_hulls(
            spec, expand_map(spec, cert, depth)):
        pts.add((t_lo, d_lo))
        pts.add((t_hi, d_hi))
    orders = [sorted(pts, key=lambda p: p[0]),
              sorted(pts, key=lambda p: p[1])]
    pairs = [ab for order in orders for ab in zip(order, order[1:])]
    lst = orders[0]
    m = len(lst)
    rng = random.Random(seed)
    for _ in range(min(sample_pairs, m * (m - 1) // 2)):
        a = rng.randrange(m)
        b = rng.randrange(m)
        if a != b:
            pairs.append((lst[a], lst[b]))
    quotients = [float(abs(a[1] - b[1]) / abs(a[0] - b[0]))
                 for a, b in pairs if a[0] != b[0] and a[1] != b[1]]
    return min(quotients), max(quotients)


def hull_cases():
    """(label, spec, certificate, deepest depth) of the hull tests."""
    one45 = make_one45()
    dust = one45.dust()
    return [("one45", one45, build_certificate(one45), 4),
            ("endratio64", make_endratio64(),
             build_certificate(make_endratio64()), 4),
            ("identity", dust, identity_certificate(dust), 4),
            ("declared-identity", declared_dust(),
             identity_certificate(declared_dust()), 3),
            ("declared", make_declared_spec(),
             build_certificate(make_declared_spec()), 3)]


HULL_CASES = hull_cases()


class TestExpansion:
    def test_leaves_tile_both_sides(self, one45):
        cert = build_certificate(one45)
        for depth in (1, 2, 3):
            pieces = expand_map(one45, cert, depth)
            assert verify_expansion(one45, pieces)

    def test_leaf_count_growth(self, one45):
        cert = build_certificate(one45)
        sizes = [len(expand_map(one45, cert, d)) for d in (1, 2, 3)]
        assert sizes[0] == 2
        assert sizes[0] < sizes[1] < sizes[2]

    @pytest.mark.parametrize("make,depths", [(make_one45, 7),
                                             (make_endratio64, 5)],
                             ids=["one45", "endratio64"])
    def test_leaf_counts_predict_expansion(self, make, depths):
        spec = make()
        cert = build_certificate(spec)
        counts = leaf_counts(cert)
        for depth in range(depths):
            assert next(counts) == len(expand_map(spec, cert, depth))

    def test_leaf_counts_of_one45(self, one45):
        counts = leaf_counts(closed_form_certificate(one45))
        assert [next(counts) for _ in range(11)] == [
            1, 2, 5, 20, 117, 734, 4657, 29608, 188297, 1197562, 7616509]


class TestLeafHulls:
    @pytest.mark.parametrize("label,spec,cert,deepest", HULL_CASES,
                             ids=[c[0] for c in HULL_CASES])
    def test_similarity_hull_equals_word_scan(self, label, spec, cert,
                                              deepest):
        for depth in range(1, deepest + 1):
            pieces = expand_map(spec, cert, depth)
            assert (leaf_hulls((spec, spec.dust()), cert, pieces)
                    == word_scan_hulls(spec, pieces)), depth

    @pytest.mark.parametrize("make,depth,seed,pairs", [
        (make_one45, 3, 7, 4000), (make_one45, 4, 11, 500),
        (make_endratio64, 3, 7, 4000), (make_endratio64, 2, 3, 10)],
        ids=["one45-3", "one45-4", "endratio64-3", "endratio64-2"])
    def test_report_matches_fraction_reference(self, make, depth, seed,
                                               pairs):
        spec = make()
        cert = build_certificate(spec)
        assert (distortion_report(spec, cert, depth, sample_pairs=pairs,
                                  seed=seed)
                == ref_distortion_report(spec, cert, depth,
                                         sample_pairs=pairs, seed=seed))


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

    def test_symbolic_identity_certificate_is_isometry(self):
        # SymValue coordinates take the generic quotient path
        dust = declared_dust()
        assert isinstance(dust.t[1], SymValue)
        assert distortion_report(dust, identity_certificate(dust),
                                 2) == (1.0, 1.0)


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
        # the level-1 cylinders of a touching spec share points, so the
        # kernel's tiling check refuses its identity certificate
        with pytest.raises(SpecError, match="touch at a point"):
            identity_certificate(one45)


# ---------------------------------------------------------------------------
# the retired measure identity

def ref_measure_failures(spec, cert):
    """Edges that break the per-edge measure identity, exactly, for an
    equal-ratio spec: the check ``verify_certificate`` used to make.  The
    measure of a word list is the sum of n^-|w| over its words, and a
    piece adds n^-(|add| - |strip|) times its target's measure."""
    n = spec.n
    measure = {key: sum(Fraction(1, n ** len(w)) for w in v.t_words)
               for key, v in cert.vertices.items()}
    bad = []
    for key, edge in cert.edges.items():
        total = Fraction(0)
        for piece in edge.pieces:
            strip, add = piece.t_rules[0]
            total += (Fraction(1, n ** (len(add) - len(strip)))
                      * measure[piece.target])
        if total != measure[key]:
            bad.append(key)
    return bad


def measure_mutants(cert):
    """(name, certificate) for every retargeted piece, every piece whose
    rules all gain a letter at the end of ``add`` (on both sides, so the
    T and D ratios stay equal), every piece dropped from an edge with
    three or more pieces, and every piece listed twice.  A duplicate
    leaves both unions unchanged: only the disjointness checks see it."""
    def with_pieces(key, pieces):
        m = copy.copy(cert)
        m.edges = dict(cert.edges)
        m.edges[key] = Edge(key, pieces)
        return m

    for key, edge in sorted(cert.edges.items()):
        for pi, piece in enumerate(edge.pieces):
            before, after = edge.pieces[:pi], edge.pieces[pi + 1:]
            for other in sorted(cert.vertices):
                if other != piece.target:
                    yield ("retarget %r/%d to %r" % (key, pi, other),
                           with_pieces(key, before + [Piece(
                               other, piece.t_rules, piece.d_rules)] + after))
            longer = Piece(piece.target,
                           [(s, a + (1,)) for s, a in piece.t_rules],
                           [(s, a + (1,)) for s, a in piece.d_rules])
            yield ("longer add %r/%d" % (key, pi),
                   with_pieces(key, before + [longer] + after))
            if len(edge.pieces) >= 3:
                yield "drop %r/%d" % (key, pi), with_pieces(key,
                                                            before + after)
            yield ("duplicate %r/%d" % (key, pi),
                   with_pieces(key, edge.pieces + [piece]))


class TestMeasureIdentityImplied:
    """``verify_certificate`` no longer checks the measure identity; the
    exact tilings imply it (argument in its docstring)."""

    def test_built_certificates_satisfy_it(self):
        rng = random.Random(31)
        for spec in [make_one45()] + [random_equal_spec(rng)
                                      for _ in range(4)]:
            cert = build_certificate(spec)
            assert ref_measure_failures(spec, cert) == []

    def test_mutants_it_caught_are_still_rejected(self, one45):
        cert = build_certificate(one45)
        kinds = set()
        for name, m in measure_mutants(cert):
            if not ref_measure_failures(one45, m):
                continue        # measures still add up: not its target
            kinds.add(name.split()[0])
            with pytest.raises(SpecError):
                verify_certificate(one45, m)
        assert kinds == {"retarget", "longer", "drop", "duplicate"}


# ---------------------------------------------------------------------------
# the kernel over the pair (spec, spec.dust())

def with_sides(cert, vertex, piece, digests):
    """``cert`` with every vertex and piece replaced by ``vertex(v)`` and
    ``piece(p)``, and the digests ``digests``; the template is kept."""
    return Certificate(
        {k: vertex(v) for k, v in cert.vertices.items()},
        {k: Edge(k, [piece(p) for p in e.pieces])
         for k, e in cert.edges.items()}, *digests,
        p=cert.p, q=cert.q, p0=cert.p0, q0=cert.q0,
        witnesses=cert.witnesses)


def test_whole_vertex_checked_on_the_d_side(one45):
    # every D word, and both halves of every D rule, prefixed with (1,):
    # a certificate of T against psi_1(D), whose whole vertex is ((1,),)
    # on the D side
    cert = build_certificate(one45)
    pre = (1,)
    bad = with_sides(
        cert, lambda v: Vertex(v.key, v.t_words,
                               [pre + w for w in v.d_words]),
        lambda p: Piece(p.target, p.t_rules,
                        [(pre + s, pre + a) for s, a in p.d_rules]),
        (cert.spec_digest, cert.dust_digest))
    assert bad.vertices[("whole",)].d_words == ((1,),)
    with pytest.raises(CertificateError, match="whole-set vertex on the D"):
        verify_certificate(one45, bad)


@pytest.mark.parametrize("make", [make_one45, make_endratio64,
                                  make_declared_spec],
                         ids=["one45", "endratio64", "declared"])
def test_swapped_sides_check_on_the_swapped_pair(make):
    spec = make()
    cert = build_certificate(spec)
    swapped = with_sides(
        cert, lambda v: Vertex(v.key, v.d_words, v.t_words),
        lambda p: Piece(p.target, p.d_rules, p.t_rules),
        (cert.dust_digest, cert.spec_digest))
    assert check.check_certificate((spec.dust(), spec), swapped)
    with pytest.raises(CertificateError, match="different T-side"):
        check.check_certificate((spec, spec.dust()), swapped)


def is_twin(cert, edge):
    """Has ``edge`` the same words on both sides: its source's and each
    target's words, and each piece's rules?"""
    return all(v.t_words == v.d_words for v in
               [cert.vertices[edge.source]]
               + [cert.vertices[p.target] for p in edge.pieces]) and all(
        p.t_rules == p.d_rules for p in edge.pieces)


def test_d_side_tiled_on_every_edge_that_is_not_a_twin(one45, monkeypatch):
    # the T side of every edge is tiled, and the D side of every edge
    # whose words differ from its T side's; the D side of a twin edge
    # tiles with its T side (check 4 of the ``check`` docstring)
    cert = build_certificate(one45)
    differ = [e for e in cert.edges.values() if not is_twin(cert, e)]
    assert 0 < len(differ) < len(cert.edges)
    real = cylsets.check_disjoint_groups
    seen = []

    def recording(system, groups):
        seen.append(system.role)
        return real(system, groups)

    monkeypatch.setattr(cylsets, "check_disjoint_groups", recording)
    verify_certificate(one45, cert)
    assert seen.count("touching") == len(cert.edges)
    assert seen.count("dust") == len(differ)


def test_a_fault_on_the_d_side_of_a_twin_edge_is_refused(one45):
    # move one D-side piece of each twin edge one letter deeper: the edge
    # is no longer a twin, its T side still tiles, and its D side leaves
    # a hole
    cert = build_certificate(one45)
    twins = [k for k, e in cert.edges.items() if is_twin(cert, e)]
    assert twins
    for key in twins:
        edge = cert.edges[key]
        bad = copy.copy(cert)
        bad.edges = dict(cert.edges)
        piece = edge.pieces[0]
        (strip, add), = piece.d_rules
        bad.edges[key] = Edge(key, [Piece(piece.target, piece.t_rules,
                                          (((strip, add + (1,))),))]
                              + edge.pieces[1:])
        with pytest.raises(CertificateError,
                           match=r"^D-side tiling mismatch at %s$"
                           % re.escape(repr(key))):
            verify_certificate(one45, bad)


# ---------------------------------------------------------------------------
# the build path validates once

def _shift_block(ctx, pairs):
    """Move the first block piece to the neighbouring block."""
    i = next(k for k, (_, key) in enumerate(pairs) if key[0] == "comp1")
    prefix, (_, idx) = pairs[i]
    idx = idx + 1 if idx < ctx.c1 else idx - 1
    return pairs[:i] + [(prefix, ("comp1", idx))] + pairs[i + 1:]


ENGINE_FAULTS = {
    "drop": lambda ctx, pls: pls[:-1],
    "duplicate": lambda ctx, pls: pls + pls[:1],
    "shift": _shift_block,
}


ENGINES = ("ldiff", "rdiff", "hole_diff", "block_decompose")
SET_CHECKS = ("canonicalize", "word_subset", "check_disjoint_groups")


class TestBuildPath:
    def test_no_engine_self_check(self, one45, monkeypatch):
        # the engines only construct: no cylinder-set check runs inside
        # them, while validation still makes its own
        depth = [0]
        inside, outside = [], []

        def engine(real):
            def wrapped(*args):
                depth[0] += 1
                try:
                    return real(*args)
                finally:
                    depth[0] -= 1
            return wrapped

        def check(name, real):
            def wrapped(*args):
                (inside if depth[0] else outside).append(name)
                return real(*args)
            return wrapped

        # certify imports the engines by name; ``Context.along`` and
        # ``hole_diff`` call ldiff and rdiff in tstar
        for name in ENGINES:
            monkeypatch.setattr(lipeq.certify, name,
                                engine(getattr(lipeq.certify, name)))
        for name in ("ldiff", "rdiff"):
            monkeypatch.setattr(tstar, name, engine(getattr(tstar, name)))
        for name in SET_CHECKS:
            monkeypatch.setattr(cylsets, name,
                                check(name, getattr(cylsets, name)))
        build_certificate(one45)
        assert inside == []
        assert "check_disjoint_groups" in outside

    @pytest.mark.parametrize("fault", sorted(ENGINE_FAULTS))
    def test_engine_fault_rejected_by_validation(self, one45, monkeypatch,
                                                 fault):
        real = lipeq.certify.block_decompose

        def faulty(ctx, idx):
            return ENGINE_FAULTS[fault](ctx, real(ctx, idx))

        monkeypatch.setattr(lipeq.certify, "block_decompose", faulty)
        with pytest.raises(SpecError):
            build_certificate(one45)

    @pytest.mark.parametrize("fault", sorted(ENGINE_FAULTS))
    def test_same_fault_rejected_by_oracle(self, one45, fault):
        # the engine oracle of the tests catches what validation catches
        ctx = Context(one45, 3, 3)
        for idx in range(1, ctx.c1 + 1):
            pls = tstar.block_decompose(ctx, idx)
            target = ctx.family_words(("comp1", idx))
            assert cover_fault(ctx, pls, target) is None
            assert cover_fault(ctx, ENGINE_FAULTS[fault](ctx, pls),
                               target) is not None


    # The engines check none of their arguments: each docstring in
    # ``tstar`` names its precondition and the code that establishes it.
    # These wrappers assert every one at each engine call of the build.
    @staticmethod
    def precondition_oracle(monkeypatch):
        """Wrap ``ldiff``, ``rdiff``, ``trace`` and ``hole_diff`` wherever
        the build reaches them; returns the calls counted per engine."""
        calls = dict.fromkeys(("ldiff", "rdiff", "trace", "hole_diff"), 0)

        def diff(name, real):
            def wrapped(ctx, base, u, v):
                calls[name] += 1
                assert u < v
                return real(ctx, base, u, v)
            return wrapped

        def trace(ctx, u, v, real=tstar.trace):
            calls["trace"] += 1
            spec, n = ctx.spec, ctx.spec.n
            a = u + (1,) * (len(v) - len(u))
            b = v + (n,) * (len(u) - len(v))
            assert len(a) == len(b) and a <= b
            assert not shares_end(spec, a, 1) and not shares_end(spec, b, n)
            cyls = tstar._cover(n, a, b)
            for x, y in zip(cyls, cyls[1:]):
                m = next(k for k in range(len(x)) if x[k] != y[k])
                sa, sb = len(x) - m - 1, len(y) - m - 1
                if x[m] in ctx.touch and (sa, sb) != (0, 0):
                    assert sa < ctx.q and sb < ctx.p
            return real(ctx, u, v)

        def hole_diff(ctx, end, i, kp, j, real=tstar.hole_diff):
            calls["hole_diff"] += 1
            side = "left" if end == 1 else "right"
            assert _admissible(ctx.spec, side, j[-1])
            assert _hole_fits(ctx.spec.n, ctx.p, ctx.q, end, kp, j)
            return real(ctx, end, i, kp, j)

        wrappers = {"ldiff": diff("ldiff", tstar.ldiff),
                    "rdiff": diff("rdiff", tstar.rdiff),
                    "trace": trace, "hole_diff": hole_diff}
        for name, fn in wrappers.items():
            monkeypatch.setattr(tstar, name, fn)
            if hasattr(lipeq.certify, name):
                monkeypatch.setattr(lipeq.certify, name, fn)
        return calls

    @pytest.mark.parametrize("source", ["golden", "fuzz-1", "fuzz-2"])
    def test_engine_preconditions_hold(self, monkeypatch, source):
        # the certified specs of the golden files, or those of 100 draws
        # of ``random_fuzz_spec``, each with its mirror
        if source == "golden":
            specs = [s for _, s in golden_specs() + left_specs()]
        else:
            rng = random.Random(int(source[-1]))
            specs = [random_fuzz_spec(rng) for _ in range(100)]
        calls = self.precondition_oracle(monkeypatch)
        built = 0
        for spec in (s for b in specs for s in (b, b.mirror())):
            verdict = decide(spec, SearchBudget(12, 40))
            if verdict.status == "equivalent":
                build_certificate(spec, verdict)
                built += 1
        assert built >= 40
        assert all(calls.values()), calls


# ---------------------------------------------------------------------------
# piece similarities

def ref_rule_affine(system, rule):
    """The general formula: psi_add o psi_strip^-1 for every rule."""
    strip, add = rule
    r = system.ratio_word(add) / system.ratio_word(strip)
    scale = r.value(system.bases)
    offset = system.cyl_lo(add) - scale * system.cyl_lo(strip)
    return r, scale, offset


class TestRuleAffine:
    @pytest.mark.parametrize("make", [make_declared_spec, make_one45],
                             ids=["declared", "one45"])
    def test_matches_general_formula(self, make):
        spec = make()
        words = [()] + [w + (a,) for w in [(), (1,), (2,), (2, 3), (3, 2)]
                        for a in (1, 2, 3)]
        rules = [((), w) for w in words]
        rules += [((1,), (1, 2, 2)), ((2,), (2, 1)), ((3, 2), (3,))]
        for system in (spec, spec.dust()):
            for rule in rules:
                got = rule_affine(system, rule)
                want = ref_rule_affine(system, rule)
                assert got[0] == want[0]
                for a, b in zip(got[1:], want[1:]):
                    assert type(a) is type(b), rule
                    assert format_value(a) == format_value(b), rule
        if make is make_declared_spec:
            # a rational ratio with a symbolic offset, and a symbolic ratio
            r, scale, offset = rule_affine(spec, ((), (2,)))
            assert not r.sym and isinstance(offset, SymValue)
            assert rule_affine(spec, ((), (1,)))[0].sym
