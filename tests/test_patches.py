"""Partition families around touching points and the measure-ratio
family for four-map systems."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lipeq import IfsSpec, SpecError
from lipeq.patches import (tau, c_set_words, c_family, c_family_sizes,
                           partition_S, partition_T, partition_norm, delta_k,
                           e_family, e_family_sizes, e_ratio_set,
                           measure_words,
                           simple_decomposition, gap_partition,
                           _e_parents)
from lipeq import cylsets, patches

from conftest import (make_one45, make_equal_spec, make_endratio_spec,
                      random_equal_spec, random_unequal_spec,
                      make_declared_spec)
from test_cylsets import random_canonical_set, union_equal


def ref_partition_S(spec, k):
    """partition_S placing each touching-zone set by testing it against
    every piece, the reference for the prefix-indexed placement."""
    levels = []
    current = [((),)]
    for level in range(1, k + 1):
        csets = c_family(spec, level)
        nxt = []
        for piece in current:
            inside = [c for c in csets
                      if cylsets.word_subset(spec.n, c, piece)]
            if not inside:
                nxt.append(piece)
            else:
                nxt.extend(simple_decomposition(spec, piece, inside))
        nxt.sort(key=lambda p: hull(spec, p)[0])
        levels.append(nxt)
        current = nxt
    return levels


def hull(spec, piece):
    """(least left end, greatest right end) over the words of a piece,
    exact values from ``cyl_lo`` and ``cyl_hi``."""
    return (min(spec.cyl_lo(w) for w in piece),
            max(spec.cyl_hi(w) for w in piece))


def level1_gaps(spec):
    """g_c = psi_{c+1}(0) - psi_c(1) for c = 1..n-1, exact values."""
    return [spec.t[c] - (spec.t[c - 1] + spec.rho[c - 1])
            for c in range(1, spec.n)]


def ref_gap_partition(spec, words, delta):
    """gap_partition by refining into atoms and scanning the hull ends of
    every pair of neighbouring atoms, the reference for the walk on the
    grid.  Exact values throughout: scales from ``affine``, ends from
    ``cyl_lo`` and ``cyl_hi``.  Returns the canonical word tuple of each
    piece, in spatial order."""
    gmax = max(level1_gaps(spec))

    def expand(w):
        s, _ = spec.affine(w)
        if s * gmax < delta:
            return [w]
        out = []
        for c in range(1, spec.n + 1):
            out.extend(expand(w + (c,)))
        return out

    atoms = []
    for w in cylsets.canonicalize(spec.n, words):
        atoms.extend(expand(w))
    atoms.sort()
    runs = []
    buf = [atoms[0]]
    for u, v in zip(atoms, atoms[1:]):
        if spec.cyl_lo(v) - spec.cyl_hi(u) >= delta:
            runs.append(buf)
            buf = []
        buf.append(v)
    runs.append(buf)
    return [cylsets.canonicalize(spec.n, run) for run in runs]


SPEC_KINDS = ["equal", "unequal", "declared"]


def spec_of_kind(rng, kind):
    """A random equal-ratio or unequal spec, or the declared-base one."""
    return {"equal": lambda: random_equal_spec(rng),
            "unequal": lambda: random_unequal_spec(rng),
            "declared": make_declared_spec}[kind]()


def left_heavy(spec):
    """``spec`` or its mirror, whichever has rho_1 >= rho_n, as tau
    needs."""
    return spec if spec.rho[0] >= spec.rho[-1] else spec.mirror()


class TestTau:
    def test_equal_ratios(self):
        spec = make_one45()
        assert tau(spec, 1) == 1
        assert tau(spec, 4) == 4

    def test_unequal(self):
        # rho_1 = 1/3, rho_n = 1/9: two left steps per right step
        spec = IfsSpec([Fraction(1, 3), Fraction(1, 5), Fraction(1, 9)],
                       [Fraction(0), Fraction(1, 3), Fraction(8, 9)],
                       role="touching")
        assert tau(spec, 1) == 2
        assert tau(spec, 3) == 6


class TestCSets:
    def test_cross_touching_hull(self):
        spec = make_one45()
        words = c_set_words(spec, 1)
        lo = min(spec.cyl_lo(w) for w in words)
        hi = max(spec.cyl_hi(w) for w in words)
        # the touching point 4/5 is interior to the hull
        assert lo < Fraction(4, 5) < hi

    def test_family_sizes_grow_by_prefixing(self):
        spec = make_one45()
        assert len(c_family(spec, 1)) == 1
        assert len(c_family(spec, 2)) == 1 + spec.n

    @pytest.mark.parametrize("make", [make_one45,
                                      lambda: make_equal_spec(4, 9,
                                                              [0, 3, 4, 8])],
                             ids=["one45", "ninths"])
    def test_predicted_sizes(self, make):
        spec = make()
        n = spec.n
        got = [len(c_family(spec, k)) for k in range(1, 6)]
        sizes = c_family_sizes(spec)
        assert got == [next(sizes) for _ in range(5)]
        assert got == [(n ** k - 1) // (n - 1) for k in range(1, 6)]


class TestPartitionS:
    def test_one45_first_level_has_three_pieces(self):
        spec = make_one45()
        assert len(partition_S(spec, 1)[-1]) == 3

    def test_levels_partition_everything(self):
        spec = make_one45()
        for pieces in partition_S(spec, 3):
            cylsets.check_disjoint_groups(spec, pieces)
            assert union_equal(spec.n, [w for p in pieces for w in p],
                               [()])

    def test_refinement(self):
        spec = make_one45()
        levels = partition_S(spec, 3)
        for coarse, fine in zip(levels, levels[1:]):
            for piece in fine:
                parents = [c for c in coarse
                           if cylsets.word_subset(spec.n, piece, c)]
                assert len(parents) == 1

    def test_c_sets_appear_in_partition(self):
        spec = make_one45()
        for k in (1, 2, 3):
            pieces = partition_S(spec, k)[-1]
            for ws in c_family(spec, k):
                target = cylsets.canonicalize(spec.n, ws)
                assert any(tuple(sorted(p)) == tuple(sorted(target))
                           for p in pieces)


    def test_indexed_placement_matches_exhaustive(self):
        specs = [make_one45(), make_equal_spec(4, 9, [0, 3, 4, 8]),
                 make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                    r2=Fraction(1, 3))]
        for spec in specs:
            got = partition_S(spec, 4)
            want = ref_partition_S(spec, 4)
            assert got == want


class TestPartitionT:
    def test_level1_gap_bound_kept_on_spec(self):
        # a spec that has partitioned before partitions like a new one
        makers = [lambda: make_equal_spec(4, 9, [0, 3, 4, 8]),
                  lambda: make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                             r2=Fraction(1, 3))]
        for make in makers:
            warm = make()
            for k in (1, 2, 3):
                assert partition_T(warm, k) == partition_T(make(), k)

    def test_norm_strictly_decreasing(self):
        spec = make_one45()
        norms = [partition_norm(spec, partition_T(spec, k))
                 for k in (1, 2, 3)]
        assert norms[0] > norms[1] > norms[2]

    def test_norm_bounded_by_delta_scale(self):
        spec = make_one45()
        for k in (1, 2, 3):
            pieces = partition_T(spec, k)
            cylsets.check_disjoint_groups(spec, pieces)
            assert union_equal(spec.n, [w for p in pieces for w in p],
                               [()])


class TestPartitionTOneWalk:
    @pytest.mark.parametrize("kind,seed",
                             [(kind, seed) for kind in ("equal", "unequal")
                              for seed in range(8)] + [("declared", 0)])
    def test_pieces_equal_reference_per_S_piece(self, kind, seed):
        # partition_T splits every S_k piece with one walk and one
        # threshold table; piece for piece it is the reference split of
        # each S_k piece on its own, so no piece sees another's state
        spec = left_heavy(spec_of_kind(random.Random(seed), kind))
        for k in (1, 2, 3):
            d = delta_k(spec, k)
            want = sorted((ref for piece in partition_S(spec, k)[-1]
                           for ref in ref_gap_partition(spec, piece, d)),
                          key=lambda r: r[0])
            assert partition_T(spec, k) == want


class TestGapPartition:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.sampled_from(SPEC_KINDS), st.booleans())
    def test_walk_matches_atom_scan(self, seed, kind, on_a_gap):
        rng = random.Random(seed)
        spec = spec_of_kind(rng, kind)
        words = random_canonical_set(rng, spec.n, max_depth=3)
        if on_a_gap:
            # a delta equal to a gap of some cylinder, where >= decides
            w = tuple(rng.randrange(1, spec.n + 1)
                      for _ in range(rng.randrange(0, 3)))
            c = rng.choice([i for i in range(1, spec.n)
                            if i not in spec.touching.letters])
            g = spec.t[c] - (spec.t[c - 1] + spec.rho[c - 1])
            delta = spec.affine(w)[0] * g
        else:
            delta = Fraction(1, rng.randrange(2, 300))
        assert (gap_partition(spec, words, delta)
                == ref_gap_partition(spec, words, delta))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.sampled_from(SPEC_KINDS))
    def test_delta_equal_to_a_gap_between_input_words(self, seed, kind):
        # two input words of different lengths, whose ends the walk
        # scales to the longer length; the gap between them qualifies at
        # delta equal to it and not above
        rng = random.Random(seed)
        spec = spec_of_kind(rng, kind)
        while True:
            u, v = sorted(tuple(rng.randrange(1, spec.n + 1)
                                for _ in range(m))
                          for m in rng.sample(range(1, 4), 2))
            if v[:len(u)] != u and spec.cyl_lo(v) > spec.cyl_hi(u):
                break
        words = (u, v)
        gap = spec.cyl_lo(v) - spec.cyl_hi(u)
        for delta, split in ((gap, True), (gap * Fraction(1001, 1000),
                                           False)):
            got = gap_partition(spec, words, delta)
            assert got == ref_gap_partition(spec, words, delta)
            joined = any(any(w[:len(u)] == u for w in ws)
                         and any(w[:len(v)] == v for w in ws)
                         for ws in got)
            assert joined != split

    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(-1)],
                             ids=["zero", "negative"])
    def test_nonpositive_delta_is_refused(self, delta):
        # every cylinder holds a gap >= delta, so the walk would descend
        # without end
        with pytest.raises(SpecError, match="delta > 0"):
            gap_partition(make_one45(), ((),), delta)


class TestLevelsOnTheGrid:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.sampled_from(SPEC_KINDS))
    def test_spatial_order_and_norm(self, seed, kind):
        # the levels are sorted by first word, which on disjoint canonical
        # pieces is sorting by left end, and the norm read off the grid
        # is the largest diameter
        spec = left_heavy(spec_of_kind(random.Random(seed), kind))
        levels = partition_S(spec, 3)
        for k in (1, 2, 3):
            for pieces in (levels[k - 1], partition_T(spec, k)):
                hulls = [hull(spec, p) for p in pieces]
                assert all(a[0] < b[0] for a, b in zip(hulls, hulls[1:]))
                want = max(hi - lo for lo, hi in hulls)
                got = partition_norm(spec, pieces)
                assert got == want and type(got) is type(want)


class TestPiecesCanonical:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32), st.booleans())
    def test_every_piece_is_canonical(self, seed, equal):
        # the runs of simple_decomposition and gap_partition are never
        # canonicalized after they are built
        rng = random.Random(seed)
        spec = left_heavy(random_equal_spec(rng) if equal
                          else random_unequal_spec(rng))
        levels = partition_S(spec, 3)
        for k in (1, 2, 3):
            for pieces in (levels[k - 1], partition_T(spec, k)):
                for p in pieces:
                    assert p == cylsets.canonicalize(spec.n, p)


ACCEPTANCE5_SPECS = (make_one45, lambda: make_equal_spec(4, 9, [0, 3, 4, 8]),
                     lambda: make_endratio_spec(Fraction(1, 4),
                                                Fraction(1, 8),
                                                r2=Fraction(1, 3)))


class TestCanonicalInputs:
    @pytest.mark.parametrize("make", ACCEPTANCE5_SPECS,
                             ids=["one45", "ninths", "endratio"])
    def test_partition_passes_canonical_sets(self, make, monkeypatch):
        # simple_decomposition and the gap walk do not canonicalize their
        # input; every set the partition builders pass them must already
        # be canonical, and so must every c_family set
        spec = make()
        seen = []
        decompose, splitter = simple_decomposition, patches._gap_splitter

        def simple(spec_, parent, marked):
            seen.append(parent)
            seen.extend(marked)
            return decompose(spec_, parent, marked)

        def gaps(spec_, delta):
            walk = splitter(spec_, delta)

            def split(words):
                seen.append(words)
                return walk(words)
            return split

        monkeypatch.setattr(patches, "simple_decomposition", simple)
        monkeypatch.setattr(patches, "_gap_splitter", gaps)
        for k in range(1, 6):
            partition_T(spec, k)
            seen.extend(c_family(spec, k))
        assert seen
        for ws in seen:
            assert ws == cylsets.canonicalize(spec.n, ws)


class TestSimpleDecomposition:
    def test_marked_sets_become_pieces(self):
        spec = make_one45()
        marked = [c_set_words(spec, 1)]
        pieces = simple_decomposition(spec, [()], marked)
        sorted_marked = tuple(sorted(marked[0]))
        assert any(tuple(sorted(p)) == sorted_marked for p in pieces)

    def test_hull_must_meet_parent_only_in_marked_set(self):
        spec = make_one45()
        # the hull of {T_21, T_23} holds T_22, which is left unmarked
        with pytest.raises(SpecError, match="outside the set"):
            simple_decomposition(spec, [()], [[(2, 1), (2, 3)]])

    def test_marked_set_must_lie_in_parent(self):
        spec = make_one45()
        with pytest.raises(SpecError, match="not inside parent"):
            simple_decomposition(spec, [(1,), (2,)], [[(2, 1), (3,)]])

    def test_marked_hulls_must_be_disjoint(self):
        spec = make_one45()
        # interleaved marked sets break a run
        with pytest.raises(SpecError, match="outside the set"):
            simple_decomposition(spec, [()], [[(1,), (3,)], [(2,)]])

    @pytest.mark.parametrize("marked", [[[(2,)], [(2, 1)]],
                                        [[(2, 1)], [(2,)]],
                                        [[(2,)], [(2,)]]],
                             ids=["nested", "nested-reversed", "repeated"])
    def test_nested_marked_sets_refused(self, marked):
        # a marked set below another marked word is never reached
        spec = make_one45()
        with pytest.raises(SpecError, match="marked sets overlap"):
            simple_decomposition(spec, [()], marked)

    @pytest.mark.parametrize("marked, match", [
        # T_2 and T_3 meet at psi_2(1) = psi_3(0)
        ([[(2,)], [(3,)]], "pieces touch"),
        # (1, 2) lies below the other marked word (1,)
        ([[(1,)], [(1, 2), (2,)]], "piece overlap")],
        ids=["shared-endpoint", "partly-nested"])
    def test_marked_sets_that_meet_refused_by_the_final_check(self, marked,
                                                              match):
        spec = make_one45()
        with pytest.raises(SpecError, match=match):
            simple_decomposition(spec, [()], marked)

    def test_hulls_of_pieces(self):
        # the hull that ``piece_hulls`` reads, the left end of the first
        # word to the right end of the last, is the hull of all the
        # piece's words
        spec = make_one45()
        for pieces in (partition_S(spec, 3)[-1], partition_T(spec, 3)):
            for piece in pieces:
                assert (spec.cyl_lo(piece[0]), spec.cyl_hi(piece[-1])) \
                    == hull(spec, piece)

    def test_lost_atom_does_not_cover_the_parent(self, monkeypatch):
        # an atom dropped from the refinement leaves pieces that are
        # disjoint but miss part of the parent
        spec = make_one45()
        real = patches._refine_past

        def lossy(n, w, mark_words, mark_of, out):
            real(n, w, mark_words, mark_of, out)
            if w == ():         # the parent word, after its refinement
                out.pop()

        monkeypatch.setattr(patches, "_refine_past", lossy)
        with pytest.raises(SpecError, match="does not cover the parent"):
            simple_decomposition(spec, [()], [c_set_words(spec, 1)])

    def test_cover_is_exact(self):
        spec = make_one45()
        pieces = simple_decomposition(spec, [()], [c_set_words(spec, 1)])
        cylsets.check_disjoint_groups(spec, pieces)
        assert union_equal(spec.n, [w for p in pieces for w in p], [()])


def old_simple_decomposition(spec, parent_words, marked):
    """``simple_decomposition`` as it checked itself before its one-pass
    check: a ``covered`` loop over the marked words first, and at the end
    the disjointness scan of ``check_disjoint_groups``, whose canonical
    union must be the parent.  The reference for the one-pass check; it
    refines through ``patches._refine_past`` as the package does."""
    n = spec.n
    parent_words = tuple(parent_words)
    for m in marked:
        if not all(cylsets.covered(parent_words, w) for w in m):
            raise SpecError("marked set not inside parent")
    tagged = sorted((w, k) for k, m in enumerate(marked) for w in m)
    mark_words = tuple(w for w, _ in tagged)
    mark_of = tuple(k for _, k in tagged)
    runs = []
    for w in parent_words:
        patches._refine_past(n, w, mark_words, mark_of, runs)
    out_pieces, buf, emitted, prev = [], [], set(), None
    for w, o in runs:
        if o is None:
            buf.append(w)
        elif o != prev:
            if o in emitted:
                raise SpecError("outside the set")
            if buf:
                out_pieces.append(tuple(buf))
                buf = []
            out_pieces.append(tuple(marked[o]))
            emitted.add(o)
        prev = o
    if buf:
        out_pieces.append(tuple(buf))
    if len(emitted) < len(marked):
        raise SpecError("marked sets overlap")
    if cylsets.check_disjoint_groups(spec, out_pieces) != parent_words:
        raise SpecError("decomposition does not cover the parent")
    return out_pieces


def refine_randomly(rng, n, w, depth):
    """Sorted words that tile T_w: w split into its children, each child
    split again, down to ``depth`` more letters at random."""
    if not depth or rng.random() < 0.4:
        return [w]
    return [x for c in range(1, n + 1)
            for x in refine_randomly(rng, n, w + (c,), depth - 1)]


DECOMPOSITION_FAULTS = ["none", "adjacent", "nested", "partly-nested",
                        "outside", "dropped-atom"]


def decomposition_case(rng, fault):
    """(spec, parent, marked, drop): a random canonical parent, marked
    sets cut as disjoint runs of a random refinement of it, canonicalized,
    and one ``fault``.  "adjacent" marks every run, so neighbouring
    marked sets touch where their boundary words do; "nested" marks a
    word below or at a marked word; "partly-nested" marks such a word
    together with an unmarked atom; "outside" adds to a marked set a word
    the parent does not cover; "dropped-atom" sets ``drop``, the index,
    modulo the atom count, of an atom that the refinement loses.  With
    "none" a case can still be refused, where a marked set touches a
    neighbour."""
    kind = rng.choice(["equal", "unequal", "declared", "dust"])
    spec = (random_unequal_spec(rng, role="dust") if kind == "dust"
            else spec_of_kind(rng, kind))
    n = spec.n
    parent = random_canonical_set(rng, n, max_depth=2)
    atoms = [x for w in parent for x in refine_randomly(rng, n, w, 2)]
    cuts = sorted(rng.sample(range(len(atoms) + 1),
                             min(len(atoms) + 1, rng.randrange(2, 7))))
    runs = [atoms[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]
    step = 1 if fault == "adjacent" else 2
    start = rng.randrange(min(2, len(runs)))
    marked = [cylsets.canonicalize(n, r) for r in runs[start::step]]
    unmarked = [w for r in runs[start + 1::2] for w in r]
    words = [w for m in marked for w in m]
    drop = None
    if fault in ("nested", "partly-nested") and words:
        w = rng.choice(words)
        inner = [w + (rng.randrange(1, n + 1),) if rng.random() < 0.7
                 else w]
        if fault == "partly-nested" and unmarked:
            inner.append(rng.choice(unmarked))
        marked.insert(rng.randrange(len(marked) + 1),
                      cylsets.canonicalize(n, inner))
    elif fault == "outside" and marked:
        for _ in range(20):
            w = tuple(rng.randrange(1, n + 1)
                      for _ in range(rng.randrange(0, 3)))
            m = rng.randrange(len(marked))
            grown = cylsets.canonicalize(n, marked[m] + (w,))
            if not cylsets.covered(parent, w) and w in grown:
                marked[m] = grown
                break
    elif fault == "dropped-atom":
        drop = rng.randrange(1000)
    return spec, parent, marked, drop


def decide_both(spec, parent, marked, drop):
    """(old, new): the outcome of ``old_simple_decomposition`` and of
    ``simple_decomposition`` on one case, the pieces or "refused"; with
    ``drop`` set, the refinement of both loses one atom."""
    real = patches._refine_past

    def lossy(n, w, mark_words, mark_of, out):
        real(n, w, mark_words, mark_of, out)
        if w == parent[-1]:     # the last parent word, after its refinement
            del out[drop % len(out)]

    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        if drop is not None:
            mp.setattr(patches, "_refine_past", lossy)
        for fn in (old_simple_decomposition, simple_decomposition):
            try:
                outcomes.append(fn(spec, parent, marked))
            except SpecError:
                outcomes.append("refused")
    return outcomes


class TestOnePassCheck:
    """``simple_decomposition`` checks its pieces in one pass; it refuses
    exactly what the old ``covered`` loop and final
    ``check_disjoint_groups`` refused, and otherwise returns the same
    pieces."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.sampled_from(DECOMPOSITION_FAULTS))
    def test_refuses_what_the_old_check_refused(self, seed, fault):
        old, new = decide_both(*decomposition_case(random.Random(seed),
                                                   fault))
        assert old == new

    @pytest.mark.parametrize("parent, marked, lost, match", [
        # (1, 1) lies below the marked word (1,), and the lost atom (2, 2)
        # has its code measure, so only the order step sees the overlap
        ([()], [[(1,)], [(1, 1), (2, 1)]], (2, 2), "piece overlap"),
        # (1,) lies outside the parent, and the lost atom (3,) has its
        # code measure, so only the cover step sees it
        ([(2,), (3,)], [[(1,), (2, 1)]], (3,), "not inside parent")],
        ids=["order", "cover"])
    def test_a_step_that_alone_refuses(self, monkeypatch, parent, marked,
                                       lost, match):
        spec = make_one45()
        real = patches._refine_past

        def lossy(n, w, mark_words, mark_of, out):
            real(n, w, mark_words, mark_of, out)
            out[:] = [a for a in out if a[0] != lost]

        monkeypatch.setattr(patches, "_refine_past", lossy)
        with pytest.raises(SpecError, match=match):
            simple_decomposition(spec, parent, marked)

    def test_cases_reach_both_outcomes(self):
        # the generator makes accepted and refused cases, and every
        # fault is refused somewhere
        seen = {fault: set() for fault in DECOMPOSITION_FAULTS}
        for seed in range(150):
            for fault in DECOMPOSITION_FAULTS:
                old, new = decide_both(*decomposition_case(
                    random.Random(seed), fault))
                assert old == new
                seen[fault].add(new == "refused")
        assert seen["none"] == {True, False}
        assert all(True in got for got in seen.values())


def four_map_spec():
    mu = [Fraction(1, 4), Fraction(3, 10), Fraction(1, 5), Fraction(1, 4)]
    rho = [m * m for m in mu]
    t2 = Fraction(1, 8)
    return IfsSpec(rho, [Fraction(0), t2, t2 + rho[1], 1 - rho[3]],
                   role="touching"), mu


class TestMeasureFamily:
    def test_level_sizes(self):
        spec, mu = four_map_spec()
        got = [len(l) for l in e_family(spec, 5)]
        assert got[:3] == [3, 11, 43]
        sizes = e_family_sizes()
        assert got == [next(sizes) for _ in range(5)]
        assert got == [(2 * 4 ** k + 1) // 3 for k in range(1, 6)]

    def test_nesting(self):
        spec, mu = four_map_spec()
        levels = e_family(spec, 3)
        for lower, upper in zip(levels[1:], levels):
            for child in lower:
                assert sum(cylsets.word_subset(4, child, parent)
                           for parent in upper) == 1

    def test_ratio_set(self):
        spec, mu = four_map_spec()
        m1, m2, m3, m4 = mu
        want = {m1, m2, m3, m2 + m3,
                m1 * m2 / (m2 + m3), m1 * m3 / (m2 + m3)}
        assert e_ratio_set(spec, 4, mu) == want

    def test_requires_shape(self):
        spec = make_one45()
        with pytest.raises(SpecError):
            e_family(spec, 2)

    def test_measure_words(self):
        spec, mu = four_map_spec()
        assert measure_words(spec, [(1,), (4,)], mu) == Fraction(1, 2)
        assert measure_words(spec, [(2, 3)], mu) == mu[1] * mu[2]


def all_pairs_parents(upper, lower):
    """For each member of ``lower``, the indices of the members of
    ``upper`` that contain it: the test of every pair."""
    return [[i for i, p in enumerate(upper)
             if cylsets.word_subset(4, child, p)] for child in lower]


class TestMeasureFamilyParents:
    def test_indexed_parents_equal_all_pairs(self):
        # levels 1..5 of e_family, so every pair of the families k = 1..5
        spec = make_equal_spec(4, 9, [0, 3, 4, 8])
        levels = e_family(spec, 5)
        for lower, upper in zip(levels[1:], levels):
            assert [[i] for i in _e_parents(spec, upper, lower)] == \
                all_pairs_parents(upper, lower)

    def test_member_outside_every_parent(self):
        spec = make_equal_spec(4, 9, [0, 3, 4, 8])
        upper = e_family(spec, 2)[0]
        with pytest.raises(SpecError):
            _e_parents(spec, upper, [((1, 1), (2, 1))])

    def test_overlapping_parents(self):
        spec = make_equal_spec(4, 9, [0, 3, 4, 8])
        with pytest.raises(SpecError):
            _e_parents(spec, [((1,),), ((1, 2), (4,))], [((1, 2, 3),)])
