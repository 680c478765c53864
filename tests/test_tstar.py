"""Tiling engines for touching-zone decompositions.

The engines only construct, and check neither their arguments nor their
output.  ``cover_fault`` is the exact oracle that these tests hold them
to: the placed pieces are pairwise point-disjoint, each block piece is
separate from the rest of the attractor, and their union is the engine's
target word set, built here with the reference subtraction of
``test_cylsets``.  Every call here meets the engine's precondition;
``test_certify`` checks that the build path does too.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lipeq import SpecError, cylsets
from lipeq.patches import patch_words, zone_words
from lipeq.decide import _admissible
from lipeq.tstar import (Context, ldiff, rdiff, trace, hole_diff,
                         block_decompose, _cover, _hole_fits, _leading_run)

from conftest import (make_one45, random_equal_spec, random_fuzz_spec,
                      random_unequal_spec)
from test_cylsets import is_separate, ref_subtract, shares_end, union_equal


def ctx45(p=3, q=3):
    return Context(make_one45(), p, q)


def placement_words(ctx, pair):
    """The words of an engine's (prefix, vertex key) pair: the vertex's
    words under the prefix."""
    prefix, key = pair
    return tuple(prefix + w for w in ctx.family_words(key))


def cover_fault(ctx, pairs, target):
    """Why the engine's ``pairs`` do not tile the word set ``target``
    exactly, or None when they do.  The pieces must be pairwise
    point-disjoint, each block piece separate from the rest of the
    attractor (the exact ``is_separate``), and their union must equal the
    target with no residue."""
    spec = ctx.spec
    groups = [placement_words(ctx, pr) for pr in pairs]
    for pr, words in zip(pairs, groups):
        if pr[1][0] == "comp1" and not is_separate(spec, words)[0]:
            return "block piece %r not separate" % (pr,)
    try:
        cylsets.check_disjoint_groups(spec, groups)
    except SpecError as e:
        return str(e)
    if not union_equal(spec.n, [w for g in groups for w in g], target):
        return "union differs from the target"
    return None


# the target word set of each engine call

def ldiff_target(spec, base, u, v):
    return ref_subtract(spec.n, patch_words(spec, base, u, 1),
                        patch_words(spec, base, v, 1))


def rdiff_target(spec, base, u, v):
    return ref_subtract(spec.n, patch_words(spec, base, u, spec.n),
                        patch_words(spec, base, v, spec.n))


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


class JointTooDeep(Exception):
    """A joint of ``ref_trace`` needs a deeper (p, q)."""


def ref_trace(ctx, u, v):
    """The trace word by word: every word of [u, v] at their common
    length adds blocks 2..c1-1, and each pair of consecutive words a joint
    with one trailing count s for both sides.  Certificates were built
    this way before ``trace`` walked the range's maximal cylinders; the
    golden files that pin those certificates build them with it.  Raises
    JointTooDeep at a joint whose trailing count s is not below p and
    q."""
    n = ctx.spec.n
    if len(u) < len(v):
        u = u + (1,) * (len(v) - len(u))
    elif len(v) < len(u):
        v = v + (n,) * (len(u) - len(v))
    words = trace_target(ctx.spec, u, v)
    out = [(words[0], ("comp1", 1))]
    for w in words:
        out.extend((w, ("comp1", j)) for j in range(2, ctx.c1))
    for a, b in zip(words, words[1:]):
        m = 0
        while a[m] == b[m]:
            m += 1
        g = a[m]
        s = len(a) - m - 1
        if g not in ctx.touch:
            out.append((a, ("comp1", ctx.c1)))
            out.append((b, ("comp1", 1)))
        elif s == 0:
            out.append((a[:m], ("touch2", g)))
        else:
            if s >= ctx.q or s >= ctx.p:
                raise JointTooDeep("joint pair with %d trailing letters "
                                   "needs p, q > %d" % (s, s))
            out.extend(rdiff(ctx, a, 0, ctx.q - s))
            out.extend(ldiff(ctx, b, 0, ctx.p - s))
            out.append((a[:m], ("touch3", g)))
    out.append((words[-1], ("comp1", ctx.c1)))
    return out


def hole_target(spec, p, q, end, i, kp, j):
    """The target of ``hole_diff`` along ``end``: R_q(T_i) minus
    (R_3q(T_i) union L_kp(T_{i n^2q j})) along 1, and its mirror image
    L_p(T_{i+1}) minus (L_3p(T_{i+1}) union R_kp(T_{(i+1) 1^2p j})) along
    n."""
    n = spec.n
    if end == 1:
        near, opp, depth = (i,), n, q
    else:
        near, opp, depth = (i + 1,), 1, p
    hole = patch_words(spec, near + (opp,) * (2 * depth) + j, kp, end)
    return ref_subtract(n, patch_words(spec, near, depth, opp),
                        patch_words(spec, near, 3 * depth, opp) + hole)


# the two ends of a spec, by name, for tests parametrized over both
ENDS = ("1", "n")


def end_letter(spec, end):
    return 1 if end == "1" else spec.n


def reflect(n, word):
    """The word of the mirrored spec (``IfsSpec.mirror``) whose cylinder
    is the reflection of T_word: each letter c becomes n + 1 - c."""
    return tuple(n + 1 - c for c in word)


class TestContext:
    def test_one45_shape(self):
        ctx = ctx45()
        assert ctx.c1 == 2
        assert ctx.alpha == 1
        assert ctx.beta == 2
        assert sorted(ctx.touch) == [2]

    def test_family_words(self):
        ctx = ctx45()
        assert ctx.family_words(("comp1", 1)) == ((1,),)
        assert ctx.family_words(("comp1", 2)) == ((2,), (3,))
        # the level-2 neighbourhood joins the facing patches
        assert set(ctx.family_words(("touch2", 2))) == {(2, 2), (2, 3),
                                                        (3, 1)}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32), st.booleans(),
           st.integers(1, 4), st.integers(1, 4))
    def test_touching_families_are_patch_unions(self, seed, equal, p, q):
        # touch2 is R_0(T_i) + L_0(T_{i+1}) and touch3 is
        # R_q(T_i) + L_p(T_{i+1}), spelled here letter by letter
        rng = random.Random(seed)
        spec = (random_equal_spec(rng) if equal
                else random_unequal_spec(rng))
        ctx = Context(spec, p, q)
        n, a, b = spec.n, ctx.alpha, ctx.beta
        for i in sorted(ctx.touch):
            for kind, k, kp in (("touch2", 0, 0), ("touch3", q, p)):
                want = (tuple((i,) + (n,) * k + (l,)
                              for l in range(n - b + 1, n + 1))
                        + tuple((i + 1,) + (1,) * kp + (l,)
                                for l in range(1, a + 1)))
                assert want == zone_words(spec, i, k, kp)
                assert ctx.family_words((kind, i)) == want

    def test_patches(self):
        spec = make_one45()
        assert patch_words(spec, (2,), 2, 3) == ((2, 3, 3, 2),
                                                  (2, 3, 3, 3))
        assert patch_words(spec, (3,), 2, 1) == ((3, 1, 1, 1),)

    @pytest.mark.parametrize("end", ENDS)
    def test_along(self, end):
        # the patch-difference engine and depth of the patches along end
        ctx = ctx45(2, 3)
        e = end_letter(ctx.spec, end)
        assert ctx.along(e) == ((ldiff, 2) if e == 1 else (rdiff, 3))

    @pytest.mark.parametrize("end", ENDS)
    def test_patch_words_spelled_out(self, end):
        # L_k(T_w) is w 1^k x for x in 1..alpha, R_k(T_w) is w n^k x for
        # x in n-beta+1..n, both in spatial order
        rng = random.Random(7)
        for _ in range(20):
            spec = random_unequal_spec(rng)
            n, st = spec.n, spec.touching
            e = end_letter(spec, end)
            last = (range(1, st.alpha + 1) if e == 1
                    else range(n - st.beta + 1, n + 1))
            w, k = _word(rng, n, 0, 3), rng.randrange(0, 4)
            got = patch_words(spec, w, k, e)
            assert got == tuple(w + (e,) * k + (x,) for x in last)
            assert list(got) == sorted(got)


class TestOracle:
    def test_rejects_residue_overlap_and_touching_blocks(self):
        ctx = ctx45()
        pls = block_decompose(ctx, 2)
        target = ctx.family_words(("comp1", 2))
        assert cover_fault(ctx, pls, target) is None
        assert cover_fault(ctx, pls[1:], target) is not None
        assert cover_fault(ctx, pls + pls[:1], target) is not None
        # the second block under prefix 2 ends at psi_2(1) = psi_3(0)
        piece = ((2,), ("comp1", 2))
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
        with pytest.raises(JointTooDeep):
            ref_trace(ctx, u, v)
        assert cover_fault(ctx, trace(ctx, u, v),
                           trace_target(ctx.spec, u, v)) is None

    def test_close_touch_joint_needs_q_up_to_its_run(self):
        # the cover (2,3,2) < (2,3,3) < (3,1) meets the touching point
        # with s_a = 2 letters n on the left and s_b = 1 letter 1 on the
        # right.  At q = 1 the touch3 piece overlaps the first block;
        # from q = s_a the range is tiled, as it is from p = s_b.
        # certify.choose_pq promises s_a < q and s_b < p, which is more.
        u, v = (2, 3, 2), (3, 1)
        assert _cover(3, u, (3, 1, 3)) == [(2, 3, 2), (2, 3, 3), (3, 1)]
        for p, q in itertools.product((1, 2, 3), (1, 2, 3)):
            ctx = ctx45(p, q)
            fault = cover_fault(ctx, trace(ctx, u, v),
                                trace_target(ctx.spec, u, v))
            assert (fault is None) == (q >= 2)

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
        pls = hole_diff(ctx, 1, 1, 0, (2, 3))
        assert cover_fault(ctx, pls,
                           hole_target(spec, 3, 3, 1, 1, 0, (2, 3))) is None

    def test_right_on_one45(self):
        ctx = ctx45()
        pls = hole_diff(ctx, 3, 2, 0, (2, 1))
        assert cover_fault(ctx, pls,
                           hole_target(ctx.spec, 3, 3, 3, 2, 0, (2, 1))) \
            is None

    def test_hole_fits_refuses_a_hole_too_deep(self):
        # k' + |j| = 2 is not below min(p, q) = 2
        assert not _hole_fits(3, 2, 2, 3, 0, (2, 1))
        assert _hole_fits(3, 3, 3, 3, 0, (2, 1))

    # k' = 0 with j = n...n (left) or 1...1 (right) of length q - 1 or
    # p - 1 passes the depth bound k' + |j| < min(p, q) but leaves the
    # last annuli of the hole's side empty.  certify.choose_pq refuses
    # such a (p, q) by ``_hole_fits``, so it moves on to a larger
    # multiple, here (q + 1, q + 1), where the same word tiles its
    # target.

    @staticmethod
    def last_annuli(ctx, end, i, j):
        """The patch difference that ``hole_diff`` places past the hole
        on its near side."""
        opp = ctx.spec.n + 1 - end
        near = (i,) if end == 1 else (i + 1,)
        diff, depth = ctx.along(opp)
        s = _leading_run(j, opp)
        return diff(ctx, near, 2 * depth + s + 1, 3 * depth)

    @pytest.mark.parametrize("q", [2, 3])
    def test_left_run_of_q_minus_1_letters_n_is_too_deep(self, q):
        spec = make_one45().mirror()
        j = (spec.n,) * (q - 1)
        assert not _hole_fits(spec.n, q, q, 1, 0, j)
        assert self.last_annuli(Context(spec, q, q), 1, 1, j) == []
        ctx = Context(spec, q + 1, q + 1)
        assert _hole_fits(spec.n, q + 1, q + 1, 1, 0, j)
        assert cover_fault(ctx, hole_diff(ctx, 1, 1, 0, j),
                           hole_target(spec, q + 1, q + 1, 1, 1, 0, j)) \
            is None

    @pytest.mark.parametrize("p", [2, 3])
    def test_right_run_of_p_minus_1_letters_1_is_too_deep(self, p):
        spec = make_one45()
        j = (1,) * (p - 1)
        assert not _hole_fits(spec.n, p, p, 3, 0, j)
        assert self.last_annuli(Context(spec, p, p), 3, 2, j) == []
        ctx = Context(spec, p + 1, p + 1)
        assert _hole_fits(spec.n, p + 1, p + 1, 3, 0, j)
        assert cover_fault(ctx, hole_diff(ctx, 3, 2, 0, j),
                           hole_target(spec, p + 1, p + 1, 3, 2, 0, j)) \
            is None

    # _hole_fits is the depth condition of hole_diff along both ends, and
    # certify.choose_pq admits (p, q) by it alone.  Where it holds, the
    # engine tiles its target exactly.  The condition is stricter than
    # the engine needs: most holes it refuses tile too, and it refuses
    # every one that does not (a cover fault).  ``choose_pq`` needs it
    # for the whole construction, not for this engine alone.
    @pytest.mark.parametrize("mirror", [False, True])
    def test_engines_tile_exactly_where_the_hole_fits(self, mirror):
        spec = make_one45().mirror() if mirror else make_one45()
        n = spec.n
        i = min(spec.touching.letters)
        words = [(c,) for c in range(1, n + 1)]
        words += [(a, c) for a in range(1, n + 1) for c in range(1, n + 1)]
        counts = {"fits": 0, "refused, tiles": 0, "refused, fault": 0}
        for p, q, kp, side, j in itertools.product(
                (2, 3, 4), (2, 3, 4), (0, 1), ("left", "right"), words):
            if not _admissible(spec, side, j[-1]):
                continue
            ctx = Context(spec, p, q)
            end = 1 if side == "left" else n
            fault = cover_fault(ctx, hole_diff(ctx, end, i, kp, j),
                                hole_target(spec, p, q, end, i, kp, j))
            if _hole_fits(n, p, q, end, kp, j):
                assert fault is None
                counts["fits"] += 1
            elif fault is None:
                counts["refused, tiles"] += 1
            else:
                counts["refused, fault"] += 1
                # the faults: j = 1 1 at p = 2 along n, n n at q = 2
                # along 1
                opp = n + 1 - end
                assert j == (opp, opp) and (q if end == 1 else p) == 2
        assert counts == {"fits": 51, "refused, tiles": 87,
                          "refused, fault": 6}

    @pytest.mark.parametrize("end", ENDS)
    def test_tiles_its_target_on_fuzz_specs(self, end):
        rng = random.Random(11)
        for _ in range(4):
            spec = random_fuzz_spec(rng)
            e = end_letter(spec, end)
            side = "left" if e == 1 else "right"
            n = spec.n
            ctx = Context(spec, 3, 3)
            j = _word(rng, n, 0, 2)
            j += (rng.choice([c for c in range(1, n + 1)
                              if _admissible(spec, side, c)]),)
            for i in sorted(spec.touching.letters):
                assert cover_fault(ctx, hole_diff(ctx, e, i, 0, j),
                                   hole_target(spec, 3, 3, e, i, 0, j)) \
                    is None


class TestBlockDecompose:
    def test_single_letter_block(self):
        ctx = ctx45()
        pls = block_decompose(ctx, 1)
        # cylinder (1,) splits into scaled copies of both level-1 blocks
        assert {key for _, key in pls} == {("comp1", 1), ("comp1", 2)}
        assert cover_fault(ctx, pls, ctx.family_words(("comp1", 1))) is None

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
        if not (shares_end(spec, x, 1) or shares_end(spec, y, spec.n)):
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
                and not shares_end(spec, u, 1)
                and not shares_end(spec, v, n)):
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
        calls += [(block_decompose(ctx, idx),
                   ctx.family_words(("comp1", idx)))
                  for idx in range(1, ctx.c1 + 1)]
        a, b = _trace_args(rng, ctx)
        calls.append((trace(ctx, a, b), trace_target(spec, a, b)))

        i = rng.choice(touch)
        kp = rng.randrange(0, 2)
        j = _hole_word(rng, spec, lambda c: c != 1 and c - 1 not in touch)
        calls.append((hole_diff(ctx, 1, i, kp, j),
                      hole_target(spec, p, q, 1, i, kp, j)))
        j = _hole_word(rng, spec, lambda c: c != n and c not in touch)
        calls.append((hole_diff(ctx, n, i, kp, j),
                      hole_target(spec, p, q, n, i, kp, j)))

        for pairs, target in calls:
            assert pairs
            assert cover_fault(ctx, pairs, target) is None


# ---------------------------------------------------------------------------
# the two ends are mirror images

MIRROR_SOURCES = ("one45", "fuzz-1", "fuzz-2")


def mirror_specs(source):
    """{1,4,5}, or six draws of ``random_fuzz_spec`` at seed 1 or 2, each
    followed by its mirror."""
    if source == "one45":
        base = [make_one45()]
    else:
        rng = random.Random(int(source[-1]))
        base = [random_fuzz_spec(rng) for _ in range(6)]
    return [s for b in base for s in (b, b.mirror())]


def placed_word_set(ctx, pairs):
    """The canonical words of the union of an engine's ``pairs``, as a
    set."""
    return set(cylsets.canonicalize(
        ctx.spec.n, [w for pr in pairs for w in placement_words(ctx, pr)]))


class TestMirror:
    """Reflecting every letter c to n + 1 - c maps each cylinder of a
    spec onto the mirrored cylinder of ``spec.mirror()``, and each
    construction along end 1 onto the same construction along n."""

    @pytest.mark.parametrize("source", MIRROR_SOURCES)
    def test_patch_words(self, source):
        rng = random.Random(3)
        for spec in mirror_specs(source):
            n, m = spec.n, spec.mirror()
            for _ in range(10):
                w, k = _word(rng, n, 0, 3), rng.randrange(0, 4)
                # reflection reverses the spatial order
                want = tuple(reflect(n, x)
                             for x in reversed(patch_words(spec, w, k, 1)))
                assert patch_words(m, reflect(n, w), k, n) == want

    @pytest.mark.parametrize("source", MIRROR_SOURCES)
    def test_shares_end(self, source):
        for spec in mirror_specs(source):
            n, m = spec.n, spec.mirror()
            for length in range(4):
                for w in itertools.product(range(1, n + 1), repeat=length):
                    for end in (1, n):
                        assert shares_end(spec, w, end) == \
                            shares_end(m, reflect(n, w), n + 1 - end)

    @pytest.mark.parametrize("source", MIRROR_SOURCES)
    def test_hole_diff(self, source):
        rng = random.Random(5)
        tiled = 0
        for spec in mirror_specs(source):
            n, m = spec.n, spec.mirror()
            left = [c for c in range(1, n + 1)
                    if _admissible(spec, "left", c)]
            for i in sorted(spec.touching.letters):
                p, q = rng.randrange(2, 5), rng.randrange(2, 5)
                kp = rng.randrange(0, 2)
                j = _word(rng, n, 0, 2) + (rng.choice(left),)
                # (p, q) swap: along n the near patch descends p, along 1 q
                ctx, ctx_m = Context(spec, p, q), Context(m, q, p)
                jm = reflect(n, j)
                assert _hole_fits(n, p, q, 1, kp, j) == \
                    _hole_fits(n, q, p, n, kp, jm)
                want = {reflect(n, w) for w in placed_word_set(
                    ctx, hole_diff(ctx, 1, i, kp, j))}
                assert placed_word_set(
                    ctx_m, hole_diff(ctx_m, n, n - i, kp, jm)) == want
                tiled += 1
        assert tiled
