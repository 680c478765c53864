"""Placement engines for touching-zone decompositions.

The engines only construct.  ``cover_fault`` is the exact oracle that
these tests hold them to: the placed pieces are pairwise point-disjoint,
each block piece is separate from the rest of the attractor, and their
union is the engine's target word set, built here with the reference
subtraction of ``test_cylsets``.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lipeq import SpecError, cylsets
from lipeq.patches import left_patch_words, right_patch_words
from lipeq.decide import _admissible
from lipeq.tstar import (Context, Placement, DepthError, ldiff, rdiff,
                         trace, hole_diff_left, hole_diff_right,
                         block_decompose, _cover, _hole_fits)

from conftest import make_one45, random_equal_spec, random_unequal_spec
from test_cylsets import is_separate, ref_subtract, union_equal


def ctx45(p=3, q=3):
    return Context(make_one45(), p, q)


def placement_words(ctx, pl):
    """The words of a placed family member."""
    return tuple(pl.prefix + w for w in ctx.family_words(pl.fam, pl.idx))


def cover_fault(ctx, placements, target):
    """Why ``placements`` do not tile the word set ``target`` exactly, or
    None when they do.  The pieces must be pairwise point-disjoint, each
    block piece separate from the rest of the attractor (the exact
    ``is_separate``), and their union must equal the target with no
    residue."""
    spec = ctx.spec
    groups = [placement_words(ctx, pl) for pl in placements]
    for pl, words in zip(placements, groups):
        if pl.fam == 1 and not is_separate(spec, words)[0]:
            return "block piece %r not separate" % (pl,)
    try:
        cylsets.check_disjoint_groups(spec, groups)
    except SpecError as e:
        return str(e)
    if not union_equal(spec.n, [w for g in groups for w in g], target):
        return "union differs from the target"
    return None


# the target word set of each engine call

def ldiff_target(spec, base, u, v):
    return ref_subtract(spec.n, left_patch_words(spec, base, u),
                        left_patch_words(spec, base, v))


def rdiff_target(spec, base, u, v):
    return ref_subtract(spec.n, right_patch_words(spec, base, u),
                        right_patch_words(spec, base, v))


def trace_target(spec, u, v):
    """The words from u to v at their common length, u padded along
    letter 1 and v along letter n, in lexicographic order."""
    n = spec.n
    m = max(len(u), len(v))
    u = u + (1,) * (m - len(u))
    v = v + (n,) * (m - len(v))
    c = 0
    while c < m and u[c] == v[c]:
        c += 1
    return [u[:c] + w
            for w in itertools.product(range(1, n + 1), repeat=m - c)
            if u[c:] <= w <= v[c:]]


def ref_trace(ctx, u, v):
    """The trace word by word: every word of [u, v] at their common
    length adds blocks 2..c1-1, and each pair of consecutive words a joint
    with one trailing count s for both sides.  Certificates were built
    this way before ``trace`` walked the range's maximal cylinders; the
    golden files that pin those certificates build them with it."""
    n = ctx.spec.n
    if len(u) < len(v):
        u = u + (1,) * (len(v) - len(u))
    elif len(v) < len(u):
        v = v + (n,) * (len(u) - len(v))
    words = trace_target(ctx.spec, u, v)
    out = [Placement(words[0], 1, 1)]
    for w in words:
        out.extend(Placement(w, 1, j) for j in range(2, ctx.c1))
    for a, b in zip(words, words[1:]):
        m = 0
        while a[m] == b[m]:
            m += 1
        g = a[m]
        s = len(a) - m - 1
        if g not in ctx.touch:
            out.append(Placement(a, 1, ctx.c1))
            out.append(Placement(b, 1, 1))
        elif s == 0:
            out.append(Placement(a[:m], 2, g))
        else:
            if s >= ctx.q or s >= ctx.p:
                raise DepthError("joint pair with %d trailing letters "
                                 "needs p, q > %d" % (s, s))
            out.extend(rdiff(ctx, a, 0, ctx.q - s))
            out.extend(ldiff(ctx, b, 0, ctx.p - s))
            out.append(Placement(a[:m], 3, g))
    out.append(Placement(words[-1], 1, ctx.c1))
    return out


def hole_left_target(spec, q, i, kp, j):
    n = spec.n
    hole = left_patch_words(spec, (i,) + (n,) * (2 * q) + j, kp)
    return ref_subtract(n, right_patch_words(spec, (i,), q),
                        right_patch_words(spec, (i,), 3 * q) + hole)


def hole_right_target(spec, p, i, kp, j):
    hole = right_patch_words(spec, (i + 1,) + (1,) * (2 * p) + j, kp)
    return ref_subtract(spec.n, left_patch_words(spec, (i + 1,), p),
                        left_patch_words(spec, (i + 1,), 3 * p) + hole)


class TestContext:
    def test_one45_shape(self):
        ctx = ctx45()
        assert ctx.c1 == 2
        assert ctx.alpha == 1
        assert ctx.beta == 2
        assert sorted(ctx.touch) == [2]

    def test_family_words(self):
        ctx = ctx45()
        assert ctx.family_words(1, 1) == ((1,),)
        assert ctx.family_words(1, 2) == ((2,), (3,))
        # the level-2 neighbourhood joins the facing patches
        assert set(ctx.family_words(2, 2)) == {(2, 2), (2, 3), (3, 1)}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32), st.booleans(),
           st.integers(1, 4), st.integers(1, 4))
    def test_touching_families_are_patch_unions(self, seed, equal, p, q):
        # family 2 is R_0(T_i) + L_0(T_{i+1}) and family 3 is
        # R_q(T_i) + L_p(T_{i+1}), spelled here letter by letter
        rng = random.Random(seed)
        spec = (random_equal_spec(rng) if equal
                else random_unequal_spec(rng))
        ctx = Context(spec, p, q)
        n, a, b = spec.n, ctx.alpha, ctx.beta
        for i in sorted(ctx.touch):
            for fam, k, kp in ((2, 0, 0), (3, q, p)):
                want = (tuple((i,) + (n,) * k + (l,)
                              for l in range(n - b + 1, n + 1))
                        + tuple((i + 1,) + (1,) * kp + (l,)
                                for l in range(1, a + 1)))
                assert want == (right_patch_words(spec, (i,), k)
                                + left_patch_words(spec, (i + 1,), kp))
                assert ctx.family_words(fam, i) == want
        free = next(i for i in range(1, n) if i not in ctx.touch)
        for fam in (2, 3):
            with pytest.raises(SpecError, match="must touch"):
                ctx.family_words(fam, free)

    def test_patches(self):
        spec = make_one45()
        assert right_patch_words(spec, (2,), 2) == ((2, 3, 3, 2),
                                                     (2, 3, 3, 3))
        assert left_patch_words(spec, (3,), 2) == ((3, 1, 1, 1),)


class TestOracle:
    def test_rejects_residue_overlap_and_touching_blocks(self):
        ctx = ctx45()
        pls = block_decompose(ctx, 2)
        target = ctx.family_words(1, 2)
        assert cover_fault(ctx, pls, target) is None
        assert cover_fault(ctx, pls[1:], target) is not None
        assert cover_fault(ctx, pls + pls[:1], target) is not None
        # the second block under prefix 2 ends at psi_2(1) = psi_3(0)
        piece = Placement((2,), 1, 2)
        assert "not separate" in cover_fault(ctx, [piece],
                                             [(2, 2), (2, 3)])


class TestDiffAnnuli:
    def test_ldiff_covers_annulus(self):
        ctx = ctx45()
        pls = ldiff(ctx, (3,), 0, 3)
        assert cover_fault(ctx, pls, ldiff_target(ctx.spec, (3,), 0, 3)) \
            is None

    def test_rdiff_covers_annulus(self):
        ctx = ctx45()
        pls = rdiff(ctx, (2,), 1, 3)
        assert cover_fault(ctx, pls, rdiff_target(ctx.spec, (2,), 1, 3)) \
            is None

    def test_random_specs(self):
        rng = random.Random(23)
        for _ in range(8):
            spec = random_equal_spec(rng)
            ctx = Context(spec, 3, 3)
            base = (rng.randrange(1, spec.n + 1),)
            assert cover_fault(ctx, ldiff(ctx, base, 0, 2),
                               ldiff_target(spec, base, 0, 2)) is None
            assert cover_fault(ctx, rdiff(ctx, base, 0, 2),
                               rdiff_target(spec, base, 0, 2)) is None


class TestTrace:
    def test_gap_and_touch_cases(self):
        ctx = ctx45()
        # spans a touching point and a gap inside cylinder (2,)
        pls = trace(ctx, (2, 1), (2, 3, 1))
        assert cover_fault(ctx, pls, trace_target(ctx.spec, (2, 1),
                                                  (2, 3, 1))) is None

    def test_close_touch_range_tiles_by_its_cover(self):
        ctx = ctx45(2, 2)
        # word by word, the pair (2,3,3) | (3,1,1) joins two trailing
        # levels below the touching point, more than p = q = 2 absorb;
        # the cover joins (2,) to (3,1), with trailing counts 0 and 1
        u, v = (2, 1), (3, 2, 1)
        assert _cover(3, (2, 1, 1), v) == [(2,), (3, 1), (3, 2, 1)]
        with pytest.raises(DepthError):
            ref_trace(ctx, u, v)
        assert cover_fault(ctx, trace(ctx, u, v),
                           trace_target(ctx.spec, u, v)) is None

    def test_depth_error_on_close_touch(self):
        # the cover (2,3,2) < (2,3,3) < (3,1) meets the touching point
        # with s_a = 2 letters n on the left and s_b = 1 letter 1 on the
        # right: the joint needs q > 2 and p > 1
        u, v = (2, 3, 2), (3, 1)
        assert _cover(3, u, (3, 1, 3)) == [(2, 3, 2), (2, 3, 3), (3, 1)]
        for p, q in ((2, 2), (3, 2)):
            with pytest.raises(DepthError):
                trace(ctx45(p, q), u, v)
        ctx = ctx45(2, 3)
        assert cover_fault(ctx, trace(ctx, u, v),
                           trace_target(ctx.spec, u, v)) is None

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32), st.booleans())
    def test_cover_and_word_traces_tile_their_target(self, seed, equal):
        rng = random.Random(seed)
        spec = random_equal_spec(rng) if equal else random_unequal_spec(rng)
        ctx = Context(spec, 3, 3)
        for u, v in (_trace_args(rng, ctx), _mixed_trace_args(rng, ctx)):
            target = trace_target(spec, u, v)
            for engine in (trace, ref_trace):
                assert cover_fault(ctx, engine(ctx, u, v), target) is None


class TestHoleDiff:
    def test_left_on_mirror(self):
        spec = make_one45().mirror()
        ctx = Context(spec, 3, 3)
        pls = hole_diff_left(ctx, 1, 0, (2, 3))
        assert cover_fault(ctx, pls,
                           hole_left_target(spec, 3, 1, 0, (2, 3))) is None

    def test_right_on_one45(self):
        ctx = ctx45()
        pls = hole_diff_right(ctx, 2, 0, (2, 1))
        assert cover_fault(ctx, pls,
                           hole_right_target(ctx.spec, 3, 2, 0, (2, 1))) \
            is None

    def test_depth_error_when_too_deep(self):
        ctx = ctx45(2, 2)
        with pytest.raises(DepthError):
            hole_diff_right(ctx, 2, 0, (2, 1))

    # k' = 0 with j = n...n (left) or 1...1 (right) of length q - 1 or
    # p - 1 passes the depth bound k' + |j| < min(p, q) but leaves the
    # last annuli empty.  The engine raises DepthError there, and
    # certify.choose_pq refuses such a (p, q) by the same condition, so
    # it moves on to a larger multiple, here (q + 1, q + 1), where the
    # same word tiles its target.

    @pytest.mark.parametrize("q", [2, 3])
    def test_left_run_of_q_minus_1_letters_n_is_too_deep(self, q):
        spec = make_one45().mirror()
        j = (spec.n,) * (q - 1)
        with pytest.raises(DepthError):
            hole_diff_left(Context(spec, q, q), 1, 0, j)
        ctx = Context(spec, q + 1, q + 1)
        assert cover_fault(ctx, hole_diff_left(ctx, 1, 0, j),
                           hole_left_target(spec, q + 1, 1, 0, j)) is None

    @pytest.mark.parametrize("p", [2, 3])
    def test_right_run_of_p_minus_1_letters_1_is_too_deep(self, p):
        spec = make_one45()
        j = (1,) * (p - 1)
        with pytest.raises(DepthError):
            hole_diff_right(Context(spec, p, p), 2, 0, j)
        ctx = Context(spec, p + 1, p + 1)
        assert cover_fault(ctx, hole_diff_right(ctx, 2, 0, j),
                           hole_right_target(spec, p + 1, 2, 0, j)) is None

    # _hole_fits is the one depth condition of both engines, and
    # certify.choose_pq admits (p, q) by it alone.  Where it holds, the
    # engine tiles its target, so neither its own guard nor the joint
    # guard of ``trace`` fires on the build path; elsewhere the engine
    # raises DepthError.
    @pytest.mark.parametrize("mirror", [False, True])
    def test_engines_tile_exactly_where_the_hole_fits(self, mirror):
        spec = make_one45().mirror() if mirror else make_one45()
        n = spec.n
        i = min(spec.touching.letters)
        words = [(c,) for c in range(1, n + 1)]
        words += [(a, c) for a in range(1, n + 1) for c in range(1, n + 1)]
        seen = set()
        for p, q, kp, side, j in itertools.product(
                (2, 3, 4), (2, 3, 4), (0, 1), ("left", "right"), words):
            if not _admissible(spec, side, j[-1]):
                continue
            ctx = Context(spec, p, q)
            end, engine = ((1, hole_diff_left) if side == "left"
                           else (n, hole_diff_right))
            fits = _hole_fits(n, p, q, end, kp, j)
            seen.add(fits)
            if not fits:
                with pytest.raises(DepthError):
                    engine(ctx, i, kp, j)
            elif side == "left":
                assert cover_fault(ctx, engine(ctx, i, kp, j),
                                   hole_left_target(spec, q, i, kp, j)) \
                    is None
            else:
                assert cover_fault(ctx, engine(ctx, i, kp, j),
                                   hole_right_target(spec, p, i, kp, j)) \
                    is None
        assert seen == {True, False}


class TestBlockDecompose:
    def test_single_letter_block(self):
        ctx = ctx45()
        pls = block_decompose(ctx, 1)
        # cylinder (1,) splits into scaled copies of both level-1 blocks
        assert {pl.idx for pl in pls if pl.fam == 1} == {1, 2}
        assert cover_fault(ctx, pls, ctx.family_words(1, 1)) is None

    def test_multi_letter_block(self):
        ctx = ctx45()
        pls = block_decompose(ctx, 2)
        assert cover_fault(ctx, pls, [(2,), (3,)]) is None


# ---------------------------------------------------------------------------
# every engine on random specs

def _word(rng, n, lo, hi):
    return tuple(rng.randrange(1, n + 1) for _ in range(rng.randrange(lo,
                                                                      hi)))


def _trace_args(rng, ctx):
    """A word range whose first word shares no left endpoint and whose
    last word shares no right endpoint with the rest of T, so that the
    range is separated from the rest: a random range at depth 2 inside
    a block under a random prefix, else a whole level-1 block."""
    spec = ctx.spec
    prefix = _word(rng, spec.n, 0, 2)
    b, e = rng.choice(ctx.blocks)
    for _ in range(10):
        x = prefix + (rng.randrange(b, e + 1), rng.randrange(1, spec.n + 1))
        y = prefix + (rng.randrange(b, e + 1), rng.randrange(1, spec.n + 1))
        x, y = min(x, y), max(x, y)
        if not (cylsets.sigma_L_star(spec, x)
                or cylsets.sigma_R_star(spec, y)):
            return x, y
    return (b,), (e,)


def _mixed_trace_args(rng, ctx):
    """A word range whose cover mixes cylinder lengths: from P b t to
    P e, for a random prefix P, a block b..e of two or more letters and
    a tail t that is not all 1s, so that the cover opens with a cylinder
    longer than |P| + 1 and closes with P e.  Neither end shares an
    endpoint with the rest of T."""
    spec = ctx.spec
    n = spec.n
    b, e = rng.choice([(b, e) for b, e in ctx.blocks if b < e])
    while True:
        prefix = _word(rng, n, 0, 2)
        u = prefix + (b,) + _word(rng, n, 1, 3)
        v = prefix + (e,)
        if (any(x != 1 for x in u[len(prefix) + 1:])
                and not cylsets.sigma_L_star(spec, u)
                and not cylsets.sigma_R_star(spec, v)):
            break
    lengths = {len(c) for c in _cover(n, u, v + (n,) * (len(u) - len(v)))}
    assert len(lengths) > 1
    return u, v


def _hole_word(rng, spec, admissible):
    """A one-letter substitution word, an admissible letter.  (A longer
    word multiplies the words of the traces in the hole differences by
    n per letter; the two-letter cases are tested on their own above.)"""
    return (rng.choice([c for c in range(1, spec.n + 1) if admissible(c)]),)


class TestEnginesAgainstOracle:
    # each example checks up to a few hundred block pieces, each with
    # the exact complement scan of ``is_separate``
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32), st.booleans())
    def test_every_engine_tiles_its_target(self, seed, equal):
        rng = random.Random(seed)
        spec = random_equal_spec(rng) if equal else random_unequal_spec(rng)
        n = spec.n
        p = q = 3
        ctx = Context(spec, p, q)
        touch = sorted(spec.touching.letters)

        base = _word(rng, n, 0, 3)
        u = rng.randrange(0, 3)
        v = rng.randrange(u + 1, 4)
        calls = [(ldiff(ctx, base, u, v), ldiff_target(spec, base, u, v)),
                 (rdiff(ctx, base, u, v), rdiff_target(spec, base, u, v))]
        calls += [(block_decompose(ctx, idx), ctx.family_words(1, idx))
                  for idx in range(1, ctx.c1 + 1)]
        a, b = _trace_args(rng, ctx)
        calls.append((trace(ctx, a, b), trace_target(spec, a, b)))

        i = rng.choice(touch)
        kp = rng.randrange(0, 2)
        j = _hole_word(rng, spec, lambda c: c != 1 and c - 1 not in touch)
        calls.append((hole_diff_left(ctx, i, kp, j),
                      hole_left_target(spec, q, i, kp, j)))
        j = _hole_word(rng, spec, lambda c: c != n and c not in touch)
        calls.append((hole_diff_right(ctx, i, kp, j),
                      hole_right_target(spec, p, i, kp, j)))

        for placements, target in calls:
            assert placements
            assert cover_fault(ctx, placements, target) is None
