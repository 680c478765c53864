"""Word-level cylinder set algebra: canonical forms, subsets, exact
distances and separateness.

The ``ref_*`` functions are the earlier prefix-scanning versions of the
algebra, kept here as the reference the sorted-order versions must agree
with.  ``ref_subtract``, ``ref_complement_words`` and ``is_separate``
also build the exact oracle that ``test_tstar`` holds the tiling engines
to, and ``shares_end`` picks the trace ranges it tests them on, so they
are tested here in their own right."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lipeq import SpecError
from lipeq.exactnum import ExactRatio
from lipeq.ifs import canonical_dust, words_touch
from lipeq.cylsets import (canonicalize, word_subset,
                           check_disjoint_groups, set_distance,
                           set_diam)

from conftest import make_one45, random_equal_spec


def union_equal(n, a, b):
    """Do the word lists a and b cover the same union?"""
    return canonicalize(n, a) == canonicalize(n, b)


def refine_word(n, w, depth):
    """All extensions of w to the given length."""
    out = [w]
    while out and len(out[0]) < depth:
        out = [u + (a,) for u in out for a in range(1, n + 1)]
    return out


def is_separate(spec, words):
    """Is union(words) positively separated from the rest of T?

    Returns (flag, distance, diameter); distance is None when the set is
    all of T.  Exact.
    """
    ws = canonicalize(spec.n, words)
    comp = ref_complement_words(spec.n, ws)
    if not comp:
        return (True, None, set_diam(spec, ws))
    # adjacency scan: the complement is also a finite cylinder union, so
    # the distance is the smallest hull gap between the two families
    try:
        check_disjoint_groups(spec, [ws, comp])
    except SpecError:
        return (False, 0, set_diam(spec, ws))
    d = set_distance(spec, ws, comp)
    return (d > 0, d, set_diam(spec, ws))


def shares_end(spec, word, end):
    """Does T_word share its endpoint on the side of ``end`` (1 the left,
    n the right) with a cylinder outside it?

    True iff word = w + (j,) + end...end with j touching on that side:
    j - 1 a touching letter for end 1, j one for end n.
    """
    k = len(word)
    while k and word[k - 1] == end:
        k -= 1
    if k == 0:
        return False
    j = word[k - 1]
    return (j - 1 if end == 1 else j) in spec.touching.letters


# ---------------------------------------------------------------------------
# reference algorithms: a prefix scan per word, repeated sibling sweeps

def ref_canonicalize(n, words):
    ws = set(words)
    out = set()
    for w in ws:
        if any(w[:k] in ws for k in range(len(w))):
            continue
        out.add(w)
    changed = True
    while changed:
        changed = False
        by_parent = {}
        for w in out:
            if w:
                by_parent.setdefault(w[:-1], set()).add(w[-1])
        for parent, kids in by_parent.items():
            if len(kids) == n:
                for a in kids:
                    out.discard(parent + (a,))
                out.add(parent)
                changed = True
    return tuple(sorted(out))


def ref_subtract(n, a, b):
    a = ref_canonicalize(n, a)
    b = ref_canonicalize(n, b)
    if not b:
        return a
    out = []
    maxb = max(len(w) for w in b)
    bset = set(b)

    def descend(w):
        if w in bset:
            return
        if len(w) >= maxb or not any(u[:len(w)] == w for u in bset):
            if any(w[:len(u)] == u for u in bset):
                return
            out.append(w)
            return
        for c in range(1, n + 1):
            descend(w + (c,))

    for w in a:
        descend(w)
    got = ref_canonicalize(n, out)
    if ref_canonicalize(n, tuple(got) + tuple(b)) != a:
        raise SpecError("subtrahend is not contained in the set")
    return got


def ref_word_subset(n, a, b):
    b = ref_canonicalize(n, b)
    bset = set(b)
    maxb = max((len(w) for w in b), default=0)

    def covered(w):
        if any(w[:len(u)] == u for u in bset):
            return True
        if len(w) >= maxb:
            return False
        return all(covered(w + (c,)) for c in range(1, n + 1))

    return all(covered(w) for w in ref_canonicalize(n, a))


def ref_complement_words(n, words):
    words = ref_canonicalize(n, words)
    if words == ((),):
        return ()
    wset = set(words)
    out = []

    def descend(w):
        if w in wset:
            return
        if not any(u[:len(w)] == w for u in wset):
            out.append(w)
            return
        for c in range(1, n + 1):
            descend(w + (c,))

    if () in wset:
        return ()
    for c in range(1, n + 1):
        descend((c,))
    return ref_canonicalize(n, out)


def ref_set_distance(spec, a, b):
    best = None
    alos = sorted(spec.cyl_interval(w) for w in canonicalize(spec.n, a))
    blos = sorted(spec.cyl_interval(w) for w in canonicalize(spec.n, b))
    for lo1, hi1 in alos:
        for lo2, hi2 in blos:
            if hi1 <= lo2:
                d = lo2 - hi1
            elif hi2 <= lo1:
                d = lo1 - hi2
            else:
                raise SpecError("sets overlap; no distance")
            if best is None or d < best:
                best = d
    return best


def ref_check_disjoint_groups(spec, groups):
    """The two-pass version: an overlap scan, then the shared-endpoint
    scan over the distinct words with a set of owning groups per word.

    It tests a word for a shared endpoint only against the next distinct
    word, so it misses T_w touching another group when words below w in
    its own group sort between them: [[(2,), (2, 1)], [(3,)]] on {1,4,5}
    passes it, though T_2 and T_3 share the point 3/5."""
    tagged = []
    for gi, g in enumerate(groups):
        for w in g:
            tagged.append((w, gi))
    tagged.sort()
    for i, (w, gi) in enumerate(tagged):
        for j in range(i + 1, len(tagged)):
            u, gj = tagged[j]
            if u[:len(w)] != w:
                break
            if gj != gi:
                raise SpecError("piece overlap: %r and %r" % (w, u))
    flat = sorted(set(w for w, _ in tagged))
    owner = {}
    for w, gi in tagged:
        owner.setdefault(w, set()).add(gi)
    for a, b in zip(flat, flat[1:]):
        if a == b[:len(a)]:
            continue
        if words_touch(spec, a, b) and owner[a] != owner[b]:
            if not owner[a] & owner[b]:
                raise SpecError("pieces touch at a point: %r | %r" % (a, b))
    return None


def _family(stem, n, depth):
    words = [stem]
    for _ in range(depth):
        words = [w + (a,) for w in words for a in range(1, n + 1)]
    return words


@st.composite
def word_lists(draw, n):
    """Word lists over 1..n: random words (the empty word among them),
    duplicates, words below other words, and complete sibling families
    several levels deep, some of them spoilt."""
    word = st.lists(st.integers(1, n), max_size=4).map(tuple)
    words = draw(st.lists(word, max_size=10))
    for stem in draw(st.lists(word, max_size=3)):
        family = _family(stem, n, draw(st.integers(1, 3 if n <= 3 else 2)))
        # complete, one member left out, or one member swapped for one
        # of its children
        i = draw(st.integers(0, len(family) - 1))
        kind = draw(st.sampled_from(("complete", "short", "deeper")))
        if kind == "short":
            family.pop(i)
        elif kind == "deeper":
            family[i] += (draw(st.integers(1, n)),)
        words += family
    for w in draw(st.lists(st.sampled_from(words), max_size=3)
                  if words else st.just([])):
        words += [w, w + (draw(st.integers(1, n)),)]
    return draw(st.permutations(words))


@st.composite
def n_and_lists(draw, count):
    n = draw(st.integers(2, 5))
    return (n,) + tuple(draw(word_lists(n)) for _ in range(count))


def random_canonical_set(rng, n, max_depth=4):
    """A canonical nonempty word set: random refinement of the root."""
    words = [()]
    for _ in range(rng.randrange(0, 4)):
        w = rng.choice(words)
        if len(w) >= max_depth:
            continue
        words.remove(w)
        kids = [w + (a,) for a in range(1, n + 1)]
        rng.shuffle(kids)
        words.extend(kids[:rng.randrange(1, n + 1)])
    return canonicalize(n, words)


class TestAgainstReference:
    """The sorted-order algebra agrees with the prefix-scan reference."""

    @settings(max_examples=120, deadline=None)
    @given(n_and_lists(1))
    def test_canonicalize(self, case):
        n, words = case
        assert canonicalize(n, words) == ref_canonicalize(n, words)

    @settings(max_examples=120, deadline=None)
    @given(n_and_lists(2), st.booleans())
    def test_word_subset(self, case, from_b):
        n, a, b = case
        if from_b and b:
            # refinements of words of b: often inside, sometimes equal
            a = [w + u for w in b[:3] for u in a[:2]] + b[1:2]
        assert word_subset(n, a, b) == ref_word_subset(n, a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32))
    def test_set_distance(self, seed):
        rng = random.Random(seed)
        spec = random_equal_spec(rng) if seed % 3 else make_one45()
        n = spec.n
        # split a random prefix-free family into two disjoint sets
        words = random_canonical_set(rng, n, max_depth=5)
        words = [u for w in words for u in refine_word(n, w, len(w) + 1)]
        side = [rng.random() < 0.5 for _ in words]
        a = [w for w, s in zip(words, side) if s]
        b = [w for w, s in zip(words, side) if not s]
        assert set_distance(spec, a, b) == ref_set_distance(spec, a, b)
        if a and b:
            # a word of b below a word of a is an overlap for both
            c = b + [a[0] + (1,)]
            with pytest.raises(SpecError):
                ref_set_distance(spec, a, c)
            with pytest.raises(SpecError):
                set_distance(spec, a, c)


# touching specs and their dusts, each with the touching letters of the
# touching spec: adjacent cylinders across them touch on T, never on D
DISJOINT_SYSTEMS = [
    (system, spec.touching.letters)
    for spec in [make_one45()] + [random_equal_spec(random.Random(s))
                                  for s in (3, 12)]
    for system in (spec, spec.dust())]


@st.composite
def group_families(draw):
    """(system, groups): a random refinement of the whole set dealt out
    to one to four groups, plus duplicate words within a group and across
    groups, words below other words, and a pair of words on the two sides
    of a touching letter, each put in a random group."""
    spec, touch = draw(st.sampled_from(DISJOINT_SYSTEMS))
    n = spec.n
    words = [()]
    for _ in range(draw(st.integers(0, 6))):
        w = words.pop(draw(st.integers(0, len(words) - 1)))
        if len(w) >= 4:
            words.append(w)
            continue
        words.extend(w + (a,) for a in range(1, n + 1))
    count = draw(st.integers(1, 4))
    group = st.integers(0, count - 1)
    groups = [[] for _ in range(count)]
    for w in words:
        groups[draw(group)].append(w)
    for kind in draw(st.lists(st.sampled_from(
            ("same", "other", "below", "touch")), max_size=4)):
        w = draw(st.sampled_from(words))
        gi = draw(group)
        if kind == "same":
            next(g for g in groups if w in g).append(w)
        elif kind == "other":
            groups[gi].append(w)
        elif kind == "below":
            groups[gi].append(w + (draw(st.integers(1, n)),))
        else:
            i = draw(st.sampled_from(sorted(touch)))
            k = draw(st.integers(0, 2))
            groups[gi].append(w + (i,) + (n,) * k)
            groups[draw(group)].append(w + (i + 1,) + (1,) * k)
    return spec, [draw(st.permutations(g)) for g in groups]


def hull_check(spec, groups):
    """Exact oracle: cylinders of different groups meet iff their closed
    hulls do.  Two cylinders are nested or meet at most in a hull
    endpoint, and 0 and 1 lie in the attractor, so a shared hull point is
    a shared point of the sets."""
    hulls = [(spec.cyl_lo(w), spec.cyl_hi(w), gi)
             for gi, g in enumerate(groups) for w in g]
    for a, (lo1, hi1, g1) in enumerate(hulls):
        for lo2, hi2, g2 in hulls[a + 1:]:
            if g1 != g2 and max(lo1, lo2) <= min(hi1, hi2):
                raise SpecError("groups %d and %d meet" % (g1, g2))


def _outcome(check, spec, groups):
    try:
        check(spec, groups)
    except Exception as e:
        return type(e)
    return None


class TestCanonicalize:
    def test_descendants_dropped(self):
        assert canonicalize(3, [(1,), (1, 2), (1, 2, 3)]) == ((1,),)

    def test_complete_siblings_merge(self):
        assert canonicalize(3, [(2, 1), (2, 2), (2, 3)]) == ((2,),)

    def test_merge_cascades_to_root(self):
        words = [(a, b) for a in range(1, 4) for b in range(1, 4)]
        assert canonicalize(3, words) == ((),)

    def test_partial_siblings_kept(self):
        assert canonicalize(3, [(2, 1), (2, 3)]) == ((2, 1), (2, 3))

    def test_sibling_run_with_a_deeper_member_kept(self):
        words = ((2, 1), (2, 2, 1), (2, 3))
        assert canonicalize(3, words) == words
        assert canonicalize(3, words + ((2, 2, 2), (2, 2, 3))) == ((2,),)

    def test_union_equal_across_refinement(self):
        assert union_equal(3, [(1,), (2,)],
                           [(1, a) for a in (1, 2, 3)] + [(2,)])


class TestSubtract:
    """``ref_subtract``, which builds the engines' targets."""

    def test_simple(self):
        assert ref_subtract(3, [(1,)], [(1, 2)]) == ((1, 1), (1, 3))

    def test_full_cancellation(self):
        assert ref_subtract(3, [(2,)], [(2,)]) == ()

    def test_not_contained_raises(self):
        with pytest.raises(SpecError):
            ref_subtract(3, [(1,)], [(2,)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32))
    def test_subtract_then_union_restores(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(3, 6)
        a = random_canonical_set(rng, n)
        # carve out a random refinement-subset of a
        parts = []
        for w in a:
            parts.extend(refine_word(n, w, 1))
        b = canonicalize(n, rng.sample(parts, max(1, len(parts) // 2)))
        rest = ref_subtract(n, a, b)
        assert union_equal(n, list(rest) + list(b), a)

    def test_word_subset(self):
        assert word_subset(3, [(1, 2)], [(1,)])
        assert word_subset(3, [(1,)], [(1,)])
        assert not word_subset(3, [(1,)], [(1, 2)])
        assert not word_subset(3, [(2, 1)], [(1,)])
        assert word_subset(3, [(1, 1), (1, 2), (1, 3)], [(1,)])


class TestComplement:
    """``ref_complement_words``, on which ``is_separate`` rests."""

    def test_root_has_empty_complement(self):
        assert ref_complement_words(3, [()]) == ()

    def test_single_cylinder(self):
        assert sorted(ref_complement_words(3, [(2,)])) == [(1,), (3,)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32))
    def test_partition_property(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(3, 6)
        a = random_canonical_set(rng, n)
        comp = ref_complement_words(n, a)
        assert union_equal(n, list(a) + list(comp), [()])


class TestDistances:
    def test_set_distance(self):
        spec = make_one45()
        # gap between T_1 and T_2 is 3/5 - 1/5
        assert set_distance(spec, [(1,)], [(2,)]) == Fraction(2, 5)

    def test_touching_sets_distance_zero(self):
        spec = make_one45()
        assert set_distance(spec, [(2,)], [(3,)]) == 0

    def test_set_diam(self):
        spec = make_one45()
        assert set_diam(spec, [(2,), (3,)]) == Fraction(2, 5)
        assert set_diam(spec, [(1,)]) == Fraction(1, 5)


class TestDisjointGroups:
    def test_nested_words_of_one_group_pass(self):
        spec = make_one45()
        check_disjoint_groups(spec, [[(2,), (2, 3)], [(1,)]])

    def test_overlap_detected(self):
        spec = make_one45()
        with pytest.raises(SpecError):
            check_disjoint_groups(spec, [[(1,)], [(1, 2)]])

    def test_shared_endpoint_detected(self):
        spec = make_one45()
        with pytest.raises(SpecError):
            check_disjoint_groups(spec, [[(2,)], [(3,)]])

    def test_ok_groups(self):
        spec = make_one45()
        check_disjoint_groups(spec, [[(1,)], [(2,), (3,)]])


    @settings(max_examples=300, deadline=None)
    @given(group_families())
    def test_agrees_with_reference(self, case):
        # same outcome and exception class as the two-pass reference,
        # except where the reference misses a touch below a nested word;
        # the hull oracle decides every family
        spec, groups = case
        got = _outcome(check_disjoint_groups, spec, groups)
        assert got == _outcome(hull_check, spec, groups)
        ref = _outcome(ref_check_disjoint_groups, spec, groups)
        if got != ref:
            assert (got, ref) == (SpecError, None)
            assert any(u[:len(w)] == w for g in groups
                       for w in g for u in g if u != w)

    def test_fixed_families(self):
        # a clean tiling, a duplicate within a group and across groups,
        # a nested word across groups, a touching pair across groups on T
        # that is harmless on the dust, and a touch behind a nested word
        # of the same group, which only the reference misses
        spec = make_one45()
        cases = [([[(1,)], [(2,), (3,)]], None, None, False),
                 ([[(1,), (1,)], [(2,), (3,)]], None, None, False),
                 ([[(1,)], [(2,), (3,), (1,)]], SpecError, SpecError, False),
                 ([[(3,), (2, 1)], [(2,)]], SpecError, SpecError, False),
                 ([[(2, 3, 3)], [(3, 1, 1)], [(1,)]], SpecError, None, False),
                 ([[(2,), (2, 1)], [(3,)]], SpecError, None, True)]
        for groups, on_t, on_dust, ref_misses in cases:
            for system, want in ((spec, on_t), (spec.dust(), on_dust)):
                assert _outcome(check_disjoint_groups, system,
                                groups) == want, groups
                assert _outcome(hull_check, system, groups) == want, groups
                ref = _outcome(ref_check_disjoint_groups, system, groups)
                assert ref == (None if ref_misses else want), groups


    @settings(max_examples=300, deadline=None)
    @given(group_families())
    def test_returns_the_canonical_union(self, case):
        # whenever the groups pass, the result is their union in
        # canonical form, duplicate and nested words included
        spec, groups = case
        try:
            got = check_disjoint_groups(spec, groups)
        except SpecError:
            return
        assert got == canonicalize(spec.n, [w for g in groups for w in g])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 5).flatmap(
        lambda n: word_lists(n).map(lambda ws: (n, ws))),
        st.integers(1, 3), st.randoms())
    def test_union_of_any_words_on_a_dust(self, case, count, rng):
        # words of one list dealt out to groups on a dust with the same
        # alphabet: complete sibling families several levels deep merge
        # as in canonicalize, and a word below another stays out
        n, words = case
        dust = canonical_dust([ExactRatio(Fraction(1, 2 * n))] * n)
        groups = [[] for _ in range(count)]
        for w in words:
            groups[rng.randrange(count)].append(w)
        try:
            got = check_disjoint_groups(dust, groups)
        except SpecError:
            return
        assert got == canonicalize(n, words)


class TestSeparateness:
    def test_blocks_are_separate(self):
        spec = make_one45()
        for first, last in spec.blocks():
            flag, dist, diam = is_separate(
                spec, [(a,) for a in range(first, last + 1)])
            assert flag and dist > 0

    def test_half_touching_pair_not_separate(self):
        spec = make_one45()
        flag, dist, diam = is_separate(spec, [(2,)])
        assert not flag and dist == 0

    def test_closed_form_matches_direct(self):
        # a copy of a level-1 block at a prefix is separate from the rest
        # of T unless it is the first block and the prefix shares its left
        # endpoint outside, or the last block and the prefix shares its
        # right endpoint outside: the closed form ``shares_end`` along 1
        # and along n, which the trace ranges of ``test_tstar`` rely on,
        # against the complement scan
        spec = make_one45()
        blocks = spec.blocks()
        prefixes = [(), (1,), (2,), (3,), (2, 3), (3, 1), (1, 2, 3)]
        for prefix in prefixes:
            for bi, (first, last) in enumerate(blocks, 1):
                words = [prefix + (a,) for a in range(first, last + 1)]
                touches = ((bi == 1 and shares_end(spec, prefix, 1))
                           or (bi == len(blocks)
                               and shares_end(spec, prefix, spec.n)))
                assert is_separate(spec, words)[0] == (not touches)

    @pytest.mark.parametrize("end", ["1", "n"])
    def test_shares_end_matches_the_neighbouring_cylinders(self, end):
        # T_w shares its endpoint on the side of ``end`` with a cylinder
        # outside it iff a cylinder of the same length ends (end 1) or
        # begins (end n) exactly there
        rng = random.Random(17)
        for spec in [make_one45()] + [random_equal_spec(rng)
                                      for _ in range(6)]:
            n = spec.n
            e = 1 if end == "1" else n
            for length in range(4):
                words = list(itertools.product(range(1, n + 1),
                                               repeat=length))
                los = {spec.cyl_lo(w) for w in words}
                his = {spec.cyl_hi(w) for w in words}
                for w in words:
                    shared = (spec.cyl_lo(w) in his if e == 1
                              else spec.cyl_hi(w) in los)
                    assert shares_end(spec, w, e) == shared
