"""Boundary patches, touching-zone sets and the partition hierarchy.

For a word ``w``, the left patch ``L_k(T_w)`` is the union of the first
``alpha`` subcylinders after descending k steps along letter 1, and the
right patch ``R_k(T_w)`` the mirror image along letter n, both written by
``patch_words``.  ``c_set_words(j)`` is the two-sided neighbourhood
(``zone_words``) of the distinguished touching point at depth j, the
building block of the nested partitions computed here.

Every family is a list of pieces, and a piece is its canonical word
tuple, in spatial order; each function that makes pieces says why they
are canonical as made, so none is canonicalized again.  A piece's hull
runs from ``cyl_lo`` of its first word to ``cyl_hi`` of its last, and is
read off the cylinder grid of ``IfsSpec`` only where a document writes
it, by ``piece_hulls``, which also gives the norm from the same ends; a
level that is refined again, or split at its gaps, never builds one.
Construction is exact, and each decomposition step checks its pieces
in one pass over their words (``simple_decomposition``): in order,
covered by the parent, of the parent's code measure, and not touching
across a piece boundary.  ``partition_T`` splits all S_k pieces with
one gap walk per (spec, delta), set up by ``_gap_splitter``.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import chain

from .ifs import SpecError, words_touch
from . import cylsets

# the deepest level that ``partition_S`` and ``partition_T`` build
DEPTH_CAP = 8


def patch_words(spec, word, k, end):
    """The boundary patch of T_word at depth k along ``end``, 1 or n, in
    spatial order: L_k(T_word), word 1^k followed by each letter
    1..alpha, for 1; R_k(T_word), word n^k followed by each letter
    n-beta+1..n, for n."""
    n, st = spec.n, spec.touching
    stem = word + (end,) * k
    last = (range(1, st.alpha + 1) if end == 1
            else range(n - st.beta + 1, n + 1))
    return tuple(stem + (j,) for j in last)


def zone_words(spec, i, k, kp):
    """R_k(T_i) union L_kp(T_{i+1}), the neighbourhood of the point
    psi_i(1) == psi_{i+1}(0), in spatial order."""
    return (patch_words(spec, (i,), k, spec.n)
            + patch_words(spec, (i + 1,), kp, 1))


def tau(spec, k):
    """The unique m with rho_n**k * rho_1 < rho_1**m <= rho_n**k.

    Defined when rho_1 >= rho_n; equivalently the least m with
    rho_1**m <= rho_n**k.
    """
    r1, rn = spec.rho[0], spec.rho[-1]
    if r1 < rn:
        raise SpecError("tau needs rho_1 >= rho_n; mirror the spec first")
    target = rn ** k
    m = k
    cur = r1 ** m
    while not (cur <= target):
        m += 1
        cur = cur * r1
    return m


def c_set_words(spec, j):
    """Words of the touching-zone set at depth j around the point
    psi_{i0}(1) == psi_{i0+1}(0), i0 the smallest touching letter: right
    patch at depth j on the left side, left patch at depth tau(j) on the
    right side.  A system with no touching letter has no such point,
    so the C, S and T families refuse it."""
    if not spec.touching.letters:
        raise SpecError("the touching-zone families C, S and T need a "
                        "touching letter; this system has none")
    i0 = min(spec.touching.letters)
    return cylsets.canonicalize(spec.n, zone_words(spec, i0, j, tau(spec, j)))


def simple_decomposition(spec, parent_words, marked):
    """Minimal hull-disjoint cover of ``parent_words`` containing the marked
    subsets as members: a list of canonical word tuples in spatial order.

    ``marked`` is a list of word tuples; each must be a subset of the
    parent with hull meeting the parent exactly in itself, the hulls must
    be pairwise disjoint, and each must be separated from the rest of the
    parent.  The remainder between consecutive marked hulls is grouped into
    one piece per maximal run.  Preconditions are verified exactly, and
    no hull is built: two marked sets in the parent whose hulls share
    interior points interleave in the spatial order of the atoms, which
    the run check refuses; a marked set wholly below other marked words
    is never reached, which the count refuses; and one pass over the
    emitted words, in order, refuses the rest:

    1. each word is greater than the one before it and does not begin
       with it.  In sorted order the words that begin with u follow u
       directly, so the words are pairwise prefix-incomparable;
    2. each word is covered by the parent (``cylsets.covered``);
    3. the code measures of the words and of the parent, the sums of
       n**(L - |w|) with L the longest length, are equal.  By 1 and 2 the
       words' codes are a subset of the parent's, and the rest is a
       clopen set of measure 0, which is empty: the union is the parent;
    4. ``words_touch`` is false at every boundary between two pieces.  A
       cylinder between two others has positive length, so by 1 only
       neighbouring words can share a point.

    So a marked word below another fails 1, and a marked set that shares
    an endpoint with a neighbour fails 4.

    The parent and the marked sets must be canonical, and are not
    canonicalized here.  The one caller, ``partition_S``, passes the
    words of a piece, canonical when the piece is made, and ``c_family``
    sets: prefixed copies of the canonical ``c_set_words``, and a common
    prefix keeps a set sorted, prefix-free and free of complete sibling
    families.  A run of the remainder is canonical as it comes: its atoms
    are sorted and prefix-free; no complete sibling family lies above a
    parent word, since the parent is canonical; and a split word has a
    marked word below it, which is not in the run, so its children never
    all are.
    """
    n = spec.n
    parent_words = tuple(parent_words)
    # all marked words, sorted
    tagged = sorted((w, k) for k, m in enumerate(marked) for w in m)
    mark_words = tuple(w for w, _ in tagged)
    mark_of = tuple(k for _, k in tagged)
    # refine parent words so each atom is inside or outside every marked
    # set; atoms come out in spatial order, each with its marked set
    runs = []
    for w in parent_words:
        _refine_past(n, w, mark_words, mark_of, runs)
    # verify on the way: the hull of each marked set meets the parent only
    # in itself.  Atoms are in spatial order and have positive length, so
    # an atom lies in a marked set's hull iff it comes between that set's
    # first and last atoms: each marked set must be one unbroken run.
    out_pieces = []
    buf = []
    emitted_marks = set()
    prev = None
    for w, o in runs:
        if o is None:
            buf.append(w)
        elif o != prev:
            if o in emitted_marks:
                raise SpecError("hull of marked set meets the parent "
                                "outside the set")
            if buf:
                out_pieces.append(tuple(buf))
                buf = []
            out_pieces.append(tuple(marked[o]))
            emitted_marks.add(o)
        prev = o
    if buf:
        out_pieces.append(tuple(buf))
    if len(emitted_marks) < len(marked):
        lost = min(set(range(len(marked))) - emitted_marks)
        raise SpecError("marked sets overlap: %r lies in another marked "
                        "set" % (tuple(marked[lost]),))
    # verify the pieces, steps 1-4 of the docstring
    words = tuple(chain.from_iterable(out_pieces))
    prev = None
    for w in words:
        if not cylsets.covered(parent_words, w):
            raise SpecError("marked set not inside parent")
        if prev is not None and (w <= prev or w[:len(prev)] == prev):
            what = "overlap" if w[:len(prev)] == prev else "out of order"
            raise SpecError("piece %s: %r and %r" % (what, prev, w))
        prev = w
    top = max(map(len, chain(words, parent_words)), default=0)
    if (sum(n ** (top - len(w)) for w in words)
            != sum(n ** (top - len(w)) for w in parent_words)):
        raise SpecError("decomposition does not cover the parent")
    for a, b in zip(out_pieces, out_pieces[1:]):
        if words_touch(spec, a[-1], b[0]):
            raise SpecError("pieces touch at a point: %r | %r"
                            % (a[-1], b[0]))
    return out_pieces


def _refine_past(n, w, mark_words, mark_of, out):
    """Split w until it is inside or outside every marked set, appending
    (atom, index of its marked set or None) to ``out`` in order.

    ``mark_words`` is sorted: the marked word above w is the last one not
    after w, and a marked word below w, if any, is the first one after w.
    Where they are not prefix-free, a word below another marked word is
    never reached."""
    i = bisect_right(mark_words, w)
    if i and w[:len(mark_words[i - 1])] == mark_words[i - 1]:
        out.append((w, mark_of[i - 1]))
    elif i == len(mark_words) or mark_words[i][:len(w)] != w:
        out.append((w, None))
    else:
        for c in range(1, n + 1):
            _refine_past(n, w + (c,), mark_words, mark_of, out)


def c_family(spec, k):
    """All touching-zone sets at combined depth k: prefixes of length
    k - j in front of the depth-j building block, j >= 1."""
    out = []
    for j in range(1, k + 1):
        base = c_set_words(spec, j)
        prefixes = [()]
        for _ in range(k - j):
            prefixes = [p + (a,) for p in prefixes
                        for a in range(1, spec.n + 1)]
        for p in prefixes:
            out.append(tuple(p + w for w in base))
    return out


def c_family_sizes(spec):
    """|c_family(spec, k)| for k = 1, 2, ... (an endless generator),
    exactly: level k holds the one depth-k building block and n prefixed
    copies of every set of level k - 1, so the counts run 1, n + 1,
    n^2 + n + 1, ..., (n^k - 1)/(n - 1)."""
    count = 0
    while True:
        count = spec.n * count + 1
        yield count


def _home_of(home, w):
    """``home[u]`` for the prefix u of w (w included) that is a key of
    ``home``, a map from prefix-free words; None when there is none."""
    return next((home[w[:j]] for j in range(len(w) + 1) if w[:j] in home),
                None)


def partition_S(spec, k):
    """The nested partitions S_1 .. S_k; returns a list of lists of pieces.

    S_1 splits T by the depth-1 touching-zone set; each refinement inserts
    the next generation of touching-zone sets into the pieces containing
    them.
    """
    if k < 1:
        raise ValueError("k >= 1")
    if k > DEPTH_CAP:
        raise SpecError("partition depth %d beyond cap %d" % (k, DEPTH_CAP))
    levels = []
    current = [((),)]
    for level in range(1, k + 1):
        # the pieces tile T, so exactly one prefix of a word is a word of
        # some piece; a set inside a piece has its first word below one
        # of that piece's words
        home = {w: i for i, p in enumerate(current) for w in p}
        inside = [[] for _ in current]
        for c in c_family(spec, level):
            i = _home_of(home, c[0])
            # piece words are canonical, so each word of c needs one bisect
            if i is not None and all(cylsets.covered(current[i], w)
                                     for w in c):
                inside[i].append(c)
        nxt = []
        for piece, marks in zip(current, inside):
            if not marks:
                nxt.append(piece)
            else:
                nxt.extend(simple_decomposition(spec, piece, marks))
        # the pieces' words are prefix-free, so on their first words
        # lexicographic order is spatial order (see ``cylsets``)
        nxt.sort(key=lambda p: p[0])
        levels.append(nxt)
        current = nxt
    return levels


def delta_k(spec, k):
    """Largest diameter of a touching-zone set of combined depth k."""
    rmax = max(spec.rho)
    return max(rmax ** (k - j) * cylsets.set_diam(spec, c_set_words(spec, j))
               for j in range(1, k + 1))


def gap_partition(spec, words, delta):
    """Split union(words) at every gap of length >= delta.

    A gap is a maximal open interval of the hull disjoint from the set.
    The walk runs on the grid of ``IfsSpec``: psi_w(x) = (S_w x + O_w) /
    q**|w|, and a child wc has S_wc = S_w R_c.  The level-1 gaps are the
    grid integers G_c = T_{c+1} - T_c - R_c, the gap psi_c(1)..psi_{c+1}(0)
    times q, so psi_w of gap c has length S_w G_c / q**(|w| + 1), and it
    qualifies iff S_w G_c >= delta q**(|w| + 1).  That threshold is
    computed once per word length; on a rational system S_w G_c is an
    integer, so the threshold is rounded up and every test compares two
    ints.  A declared-base system has q = 1 and runs the same walk over
    its exact values.

    The canonical words are walked once, left to right.  A cylinder w
    with S_w Gmax below the threshold, Gmax the longest level-1 gap,
    hides no qualifying gap and is kept whole as an atom; any other is
    expanded into its children.  Between the last atom below child c of
    an expanded w and the first atom below child c + 1 lies exactly
    psi_w of the level-1 gap c: the last atom below wc is w c n...n,
    whose right end is psi_wc(1) because psi_n(1) = 1, and the first
    below w(c+1) is w (c+1) 1...1, whose left end is psi_w(c+1)(0)
    because psi_1(0) = 0.  For the same reason the gap between two
    neighbouring input words u, v runs from the right end of T_u,
    (O_u + S_u) / q**|u|, to the left end of T_v, O_v / q**|v|; both ends
    are scaled to the longer word's length m and the difference is
    tested against the threshold of length m.

    ``words`` must be canonical; it is not canonicalized here.
    ``partition_T`` passes the words of each S_k piece, canonical when
    the piece is made, to one walk set up by ``_gap_splitter``, and this
    function runs that same walk on one set.  Each run of atoms between
    two qualifying gaps is then canonical: no complete sibling family
    lies above an input word, and an expanded cylinder has its
    qualifying gap between children argmax G and argmax G + 1, so its
    children never all share a run.
    """
    return _gap_splitter(spec, delta)(words)


def _gap_splitter(spec, delta):
    """The walk of ``gap_partition`` for one (spec, delta): the letter
    scales, the gaps, Gmax and the threshold of each word length are
    computed once, and the returned ``split(words)`` walks one canonical
    set with them.  A threshold depends only on (spec, delta) and the
    length, so the table is shared by every set; each call keeps its
    atoms and pieces to itself."""
    if delta <= 0:
        raise SpecError("gap_partition needs delta > 0, got %s" % delta)
    n = spec.n
    letters = [spec.grid((c,)) for c in range(1, n + 1)]
    q = letters[0][2]
    scale = [r for r, _, _ in letters]
    gaps = [letters[c][1] - letters[c - 1][1] - letters[c - 1][0]
            for c in range(1, n)]
    gmax = max(gaps)
    if q > 1:
        # an integer grid (``IfsSpec.grid``), where only ints are
        # compared with a threshold: round it up
        a, b = delta.numerator, delta.denominator

        def threshold(m):
            return -(-a * q ** m // b)      # ceil(delta * q**m)
    else:
        def threshold(m):
            return delta * q ** m
    levels = []

    def level(m):
        """The threshold for words of length m, computed once."""
        while len(levels) <= m:
            levels.append(threshold(len(levels)))
        return levels[m]

    def split(words):
        pieces = []
        run = []

        def walk(w, s, m):
            nonlocal run
            t = level(m + 1)
            if s * gmax < t:
                run.append(w)
                return
            for c in range(1, n):
                walk(w + (c,), s * scale[c - 1], m + 1)
                if s * gaps[c - 1] >= t:
                    pieces.append(tuple(run))
                    run = []
            walk(w + (n,), s * scale[n - 1], m + 1)

        prev = None
        for w in words:
            s, o, d = spec.grid(w)
            if prev is not None:
                ps, po, pd, pm = prev
                top = max(d, pd)
                if (o * (top // d) - (po + ps) * (top // pd)
                        >= level(max(len(w), pm))):
                    pieces.append(tuple(run))
                    run = []
            walk(w, s, len(w))
            prev = (s, o, d, len(w))
        pieces.append(tuple(run))
        return pieces

    return split


def partition_T(spec, k):
    """Refinement of S_k splitting every piece at gaps >= delta_k, all
    pieces by one walk (``_gap_splitter``)."""
    levels = partition_S(spec, k)
    split = _gap_splitter(spec, delta_k(spec, k))
    out = []
    for piece in levels[-1]:
        out.extend(split(piece))
    out.sort(key=lambda p: p[0])
    return out


def piece_hulls(spec, pieces):
    """The hull of each piece and the largest piece diameter, exact:
    (ends, norm).

    A piece runs from the left end of its first word to the right end of
    its last, O_u / q**|u| to (O_v + S_v) / q**|v| on the grid of
    ``IfsSpec``; canonical words are in spatial order, so these are the
    least and greatest ends of all its words.  ``ends`` holds (lo, dlo,
    hi, dhi) for each piece, its hull lo / dlo to hi / dhi, each end read
    off the grid once.  Over the common denominator D = q**m, m the
    longest of these words, every diameter is one numerator, so the
    pieces compare as integers on a rational system and one ``Fraction``
    is built at the end.  A declared-base system has D = 1 and compares
    its exact values."""
    grid = spec.grid
    ends = []
    for p in pieces:
        _, lo, dlo = grid(p[0])
        s, o, dhi = grid(p[-1])
        ends.append((lo, dlo, o + s, dhi))
    top = max(max(dlo, dhi) for _, dlo, _, dhi in ends)
    best = max(hi * (top // dhi) - lo * (top // dlo)
               for lo, dlo, hi, dhi in ends)
    return ends, best * Fraction(1, top)


def partition_norm(spec, pieces):
    """Largest piece diameter, exact, as ``piece_hulls`` computes it."""
    return piece_hulls(spec, pieces)[1]


# ---------------------------------------------------------------------------
# the four-map family with a single interior touching letter

def e_bridge_words(k):
    """The two-cylinder bridge across the touching point, depth k."""
    return ((2,) + (4,) * k, (3,) + (1,) * k)


def e_family(spec, k):
    """Nested measure-theoretic families for n == 4, touching letter 2.

    Level 1 is {T_1, T_4, bridge_0}; each next level copies the previous
    one into maps 1 and 4, copies it into maps 2 and 3 with the cylinder
    absorbed by the new bridge removed, and adds the new bridge.  Returns
    the list of levels, each a list of canonical word tuples.
    """
    st = spec.touching
    if spec.n != 4 or st.letters != frozenset({2}):
        raise SpecError("family defined for n == 4 with touching letter 2")
    levels = []
    cur = [((1,),), ((4,),), cylsets.canonicalize(4, e_bridge_words(0))]
    levels.append(cur)
    for lvl in range(2, k + 1):
        j = lvl - 1
        nxt = []
        for a in (1, 4):
            for m in cur:
                nxt.append(tuple((a,) + w for w in m))
        drop2 = ((2,) + (4,) * j,)
        drop3 = ((3,) + (1,) * j,)
        for a, drop in ((2, drop2), (3, drop3)):
            for m in cur:
                shifted = tuple((a,) + w for w in m)
                # both sides are canonical, so equal sets are equal tuples
                if shifted == drop:
                    continue
                nxt.append(shifted)
        nxt.append(cylsets.canonicalize(4, e_bridge_words(j)))
        levels.append(nxt)
        cur = nxt
    return levels


def e_family_sizes():
    """The member counts of the levels of ``e_family``, level 1 first (an
    endless generator), exactly: 3, then |L_k| = 4|L_{k-1}| - 1, that is
    (2 * 4^k + 1)/3.

    Level k prefixes every member of L_{k-1} with each of the four maps,
    drops exactly two of the shifted members and adds one bridge.  Exactly
    two drop: the members of a level are pairwise disjoint, and L_{k-1}
    holds the single cylinders T_{4...4} and T_{1...1} of length k - 1
    (level 1 holds T_4 and T_1, and the copies into maps 4 and 1 carry them
    one level down), so one shifted member equals T_{2 4...4} and one
    equals T_{3 1...1}."""
    count = 3
    while True:
        yield count
        count = 4 * count - 1


def measure_words(spec, words, mu):
    """Exact self-similar measure of a cylinder union, mu a weight list."""
    mu = [Fraction(m) for m in mu]
    if sum(mu) != 1:
        raise ValueError("weights must sum to 1")
    total = Fraction(0)
    for w in cylsets.canonicalize(spec.n, words):
        m = Fraction(1)
        for a in w:
            m *= mu[a - 1]
        total += m
    return total


def _e_parents(spec, upper, lower):
    """The index in ``upper`` of the member that contains each member of
    ``lower``, for consecutive levels of ``e_family``.

    The members of ``upper`` are checked pairwise disjoint, so a nonempty
    member of ``lower`` lies in at most one of them.  Their canonical
    words together are then prefix-free, and a member that contains a
    child has a word that is a prefix of the child's first word, so the
    prefixes of that word name the only candidate; the exact
    ``word_subset`` decides it.
    """
    cylsets.check_disjoint_groups(spec, upper)
    home = {w: i for i, m in enumerate(upper) for w in m}
    parents = []
    for child in lower:
        i = _home_of(home, child[0])
        if i is None or not cylsets.word_subset(4, child, upper[i]):
            raise SpecError("family member without a unique parent")
        parents.append(i)
    return parents


def e_ratio_set(spec, k, mu):
    """Measure ratios mu(child)/mu(parent) across consecutive family levels."""
    levels = e_family(spec, k)
    ratios = set()
    for lower, upper in zip(levels[1:], levels):
        for child, i in zip(lower, _e_parents(spec, upper, lower)):
            ratios.add(measure_words(spec, child, mu)
                       / measure_words(spec, upper[i], mu))
    return ratios
