"""Spec validation, touching structure, cylinder geometry."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lipeq import IfsSpec, SpecError, canonical_dust
from lipeq.exactnum import ExactRatio
from lipeq.ifs import words_touch
from lipeq.specfile import spec_to_doc

from conftest import (make_one45, make_equal_spec, random_equal_spec,
                      make_endratio_spec, make_declared_spec,
                      random_unequal_spec)
import random


def ref_affine(spec, word):
    """(scale, offset) of psi_word by the Fraction recursion along the
    word, the reference for the integer grid."""
    s, o = Fraction(1), Fraction(0)
    for a in word:
        s, o = s * spec.rho[a - 1], o + s * spec.t[a - 1]
    return s, o


def same(a, b):
    """Equal in value and in type, element by element."""
    return (len(a) == len(b)
            and all(type(x) is type(y) and x == y for x, y in zip(a, b)))


class TestValidation:
    def test_needs_three_maps(self):
        with pytest.raises(SpecError):
            IfsSpec([Fraction(1, 3)] * 2, [Fraction(0), Fraction(2, 3)])

    def test_first_map_fixes_zero(self):
        with pytest.raises(SpecError):
            IfsSpec([Fraction(1, 5)] * 3,
                    [Fraction(1, 10), Fraction(3, 5), Fraction(4, 5)])

    def test_last_map_hits_one(self):
        with pytest.raises(SpecError):
            IfsSpec([Fraction(1, 5)] * 3,
                    [Fraction(0), Fraction(3, 5), Fraction(7, 10)])

    def test_overlap_rejected(self):
        with pytest.raises(SpecError):
            IfsSpec([Fraction(2, 5)] * 3,
                    [Fraction(0), Fraction(1, 5), Fraction(3, 5)])

    def test_touching_role_needs_touch(self):
        with pytest.raises(SpecError):
            IfsSpec([Fraction(1, 5)] * 3,
                    [Fraction(0), Fraction(2, 5), Fraction(4, 5)],
                    role="touching")

    def test_touching_role_needs_gap(self):
        with pytest.raises(SpecError):
            IfsSpec([Fraction(1, 3)] * 3,
                    [Fraction(0), Fraction(1, 3), Fraction(2, 3)],
                    role="touching")

    def test_dust_role_rejects_touch(self):
        with pytest.raises(SpecError):
            IfsSpec([Fraction(1, 5)] * 3,
                    [Fraction(0), Fraction(1, 5), Fraction(4, 5)],
                    role="dust")

    def test_ratio_must_be_contractive(self):
        with pytest.raises(SpecError):
            IfsSpec([Fraction(1, 5), Fraction(1, 5), Fraction(1)],
                    [Fraction(0), Fraction(3, 5), Fraction(0)])


class TestTouchingStructure:
    def test_one45(self):
        spec = make_one45()
        st_ = spec.touching
        assert st_.letters == frozenset({2})
        assert st_.alpha == 1
        assert st_.beta == 2

    def test_initial_run(self):
        # touching pairs (1,2) and (2,3): first non-touching letter is 3
        spec = make_equal_spec(4, 7, [0, 1, 2, 6])
        assert spec.touching.letters == frozenset({1, 2})
        assert spec.touching.alpha == 3
        assert spec.touching.beta == 1

    def test_blocks(self):
        spec = make_one45()
        assert spec.blocks() == [(1, 1), (2, 3)]
        spec2 = make_equal_spec(4, 7, [0, 1, 2, 6])
        assert spec2.blocks() == [(1, 3), (4, 4)]


class TestCylinders:
    def test_affine_composition(self):
        spec = make_one45()
        lo, hi = spec.cyl_interval((2, 3))
        assert lo == Fraction(3, 5) + Fraction(4, 25)
        assert hi == Fraction(4, 5)

    def test_ratio_word(self):
        spec = make_one45()
        r = spec.ratio_word((1, 2, 3))
        assert r.value() == Fraction(1, 125)

    @given(st.lists(st.lists(st.integers(min_value=1, max_value=3),
                             max_size=8).map(tuple),
                    min_size=1, max_size=12),
           st.booleans())
    def test_cached_ratio_word_is_letter_product(self, words, declared):
        # one spec object per example, so later words reuse the prefixes
        # cached by earlier ones
        spec = (make_declared_spec() if declared else
                make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                   r2=Fraction(1, 3)))
        for w in words + words[::-1]:
            r = ExactRatio(1)
            for a in w:
                r = r * spec.ratios[a - 1]
            assert spec.ratio_word(w) == r

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32), st.booleans())
    def test_ratio_word_shared_with_dust(self, seed, declared):
        # a system and its dust share one ratio_word cache: a rational
        # system reads each ratio off its own grid, whose q the dust does
        # not share, and a declared-base one multiplies letter ratios;
        # either system may ask for a word first
        rng = random.Random(seed)
        spec = make_declared_spec() if declared else random_unequal_spec(rng)
        pair = [spec, spec.dust()]
        words = [tuple(rng.randrange(1, spec.n + 1)
                       for _ in range(rng.randrange(0, 9)))
                 for _ in range(10)]
        for w in words + [w[:len(w) // 2] for w in words] + words:
            r = ExactRatio(1)
            for a in w:
                r = r * spec.ratios[a - 1]
            rng.shuffle(pair)
            for system in pair:
                got = system.ratio_word(w)
                assert got == r and got.scalar == r.scalar, w
                assert type(got.scalar) is Fraction

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.sampled_from(["touching", "dust", "declared",
                            "declared-dust"]))
    def test_grid_matches_fraction_recursion(self, seed, kind):
        rng = random.Random(seed)
        if kind.startswith("declared"):
            spec = make_declared_spec()
            if kind == "declared-dust":
                spec = spec.dust()
        else:
            spec = random_unequal_spec(rng, role=kind)
        words = [()] + [tuple(rng.randrange(1, spec.n + 1)
                              for _ in range(rng.randrange(1, 9)))
                        for _ in range(12)]
        # prefixes first and last, so both cold and warm grid entries
        for w in words + [w[:len(w) // 2] for w in words] + words:
            s, o = ref_affine(spec, w)
            assert same(spec.affine(w), (s, o)), w
            assert same(spec.cyl_interval(w), (o, o + s)), w
            assert same((spec.cyl_lo(w),), (o,)), w
            assert same((spec.cyl_hi(w),), (o + s,)), w

    def test_empty_word_is_identity(self):
        spec = make_one45()
        assert spec.cyl_interval(()) == (Fraction(0), Fraction(1))

    @given(st.integers(min_value=0, max_value=2 ** 32))
    def test_cylinder_nesting(self, seed):
        rng = random.Random(seed)
        spec = random_equal_spec(rng)
        word = tuple(rng.randrange(1, spec.n + 1)
                     for _ in range(rng.randrange(1, 6)))
        lo, hi = spec.cyl_interval(word)
        plo, phi = spec.cyl_interval(word[:-1])
        assert plo <= lo < hi <= phi


class TestWordsTouch:
    def test_touching_cylinders(self):
        spec = make_one45()
        assert words_touch(spec, (2,), (3,))
        assert words_touch(spec, (2, 3), (3, 1))
        assert words_touch(spec, (1, 2, 3, 3), (1, 3, 1, 1))

    def test_non_touching(self):
        spec = make_one45()
        assert not words_touch(spec, (1,), (2,))
        assert not words_touch(spec, (2, 1), (2, 2))
        assert not words_touch(spec, (2, 3, 3), (3, 1, 2))

    def test_prefix_comparable_raises(self):
        spec = make_one45()
        with pytest.raises(ValueError):
            words_touch(spec, (2,), (2, 3))

    def test_matches_exact_endpoints(self):
        spec = make_one45()
        words = [(a, b) for a in range(1, 4) for b in range(1, 4)]
        for i, u in enumerate(words):
            for v in words[i + 1:]:
                expected = spec.cyl_hi(u) == spec.cyl_lo(v)
                assert words_touch(spec, u, v) == expected


class TestMirror:
    def test_mirror_of_one45(self):
        spec = make_one45()
        m = spec.mirror()
        assert m.t == (Fraction(0), Fraction(1, 5), Fraction(4, 5))
        assert m.touching.letters == frozenset({1})

    def test_mirror_involution(self):
        rng = random.Random(5)
        for _ in range(10):
            spec = random_equal_spec(rng)
            mm = spec.mirror().mirror()
            assert mm.t == spec.t
            assert mm.ratios == spec.ratios


class TestCanonicalDust:
    def test_equal_gaps(self):
        spec = make_one45()
        dust = canonical_dust(spec.ratios, spec.bases)
        assert dust.role == "dust"
        # two gaps of (1 - 3/5) / 2 each
        assert dust.t == (Fraction(0), Fraction(2, 5), Fraction(4, 5))

    def test_dust_is_built_once_per_spec(self):
        spec = make_declared_spec()
        dust = spec.dust()
        assert spec.dust() is dust
        assert spec_to_doc(dust) == spec_to_doc(
            canonical_dust(spec.ratios, spec.bases))

    def test_no_touching(self):
        rng = random.Random(11)
        for _ in range(10):
            spec = random_equal_spec(rng)
            dust = canonical_dust(spec.ratios, spec.bases)
            assert dust.touching is None or not dust.touching.letters
