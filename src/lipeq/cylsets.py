"""Finite unions of cylinders of an attractor, as canonical word sets.

A set is a sorted tuple of words, pairwise non-comparable under the prefix
order.  Canonical form merges every complete family of siblings into its
parent, so equality of canonical forms decides equality of the unions.
All operations are exact.

The algebra rests on one invariant.  The maps preserve orientation and
their images lie left to right, so on a prefix-free word set the
lexicographic order is the spatial (address) order; and in any sorted
word list the words that begin with w sit in one contiguous run right
after w.  So a set is canonicalized in one pass over its sorted words,
the word of a canonical set above a given word is found by ``bisect``,
and a canonical set's hull runs from its first word to its last.
"""

import heapq
from bisect import bisect_right

from .ifs import words_touch, SpecError


def canonicalize(n, words):
    """Canonical form: prefix-free, complete sibling sets merged.

    One pass over the sorted words with a stack: a word below or equal to
    the top of the stack is dropped, since an ancestor sorts right before
    its descendants, and n siblings on top of the stack collapse into
    their parent (``_merge_siblings``).  Sorting words that are already
    in order takes one linear pass.
    """
    out = []
    for w in sorted(words):
        if out and w[:len(out[-1])] == out[-1]:
            continue
        out.append(w)
        if w and w[-1] == n:
            _merge_siblings(n, out)
    return tuple(out)


def _merge_siblings(n, out):
    """Collapse complete sibling families on top of the sorted,
    prefix-free stack ``out``, whose last word has just been pushed and
    ends in letter n.  A merged parent may complete a family in turn."""
    w = out[-1]
    k = len(w)
    # the run out[-n:] is sorted, so when its first and last words are
    # children of one parent, every word between begins with that parent
    # too; all of length k, they are the n children
    while (k and w[-1] == n and len(out) >= n
           and out[-n][:-1] == w[:-1]
           and all(len(u) == k for u in out[-n:])):
        del out[-n:]
        w = w[:-1]
        k -= 1
        out.append(w)


def covered(ws, w):
    """Is some word of canonical ``ws`` a prefix of w (w included)?  Only
    the last word not after w can be: a prefix u of w sorts before w, and
    a word between u and w would begin with u.  By ``word_subset``'s
    argument this decides whether T_w lies inside union(ws)."""
    i = bisect_right(ws, w)
    return i > 0 and w[:len(ws[i - 1])] == ws[i - 1]


def word_subset(n, a, b):
    """Is union(a) a subset of union(b)?  Word-level, exact.

    A cylinder lies inside a canonical union iff a word of the union is a
    prefix of its word: otherwise the words of the union below it cover
    it, and the deepest of them needs all its siblings, which canonical
    form forbids.  So each word of a costs one bisect.
    """
    b = canonicalize(n, b)
    return all(covered(b, w) for w in a)


def check_disjoint_groups(spec, groups):
    """Verify that the unions in ``groups`` are pairwise disjoint as point
    sets, and return their union in canonical form.  Words within one
    group may touch each other; across groups both prefix overlap and
    shared endpoints are violations, which raise SpecError naming the
    offending pair.

    One pass over the tagged words in sorted order.  The words that begin
    with w follow it contiguously, so overlap is a scan of that run for
    another group.  Once the scan passes, the run belongs to w's group,
    and T_w can share its right endpoint only with the first word u after
    the run: a later word lies beyond T_u, or inside it and in u's group.
    (T_w's left endpoint is the right endpoint of the word whose run ends
    at w.)  The scan then jumps past the run.  A word x of the run needs
    no test of its own: its run lies inside w's, and T_x can touch a word
    of another group only at u, where T_x ends no later than T_w, so T_w
    touches u as well and has already been tested.  Without touching
    letters (a dust) no two cylinders touch, and that test is skipped.

    The words the scan stops at are the union's words not below another,
    in sorted order, so merging sibling families as ``canonicalize`` does
    gives the canonical union without a second sort.
    """
    tagged = sorted((w, gi) for gi, g in enumerate(groups) for w in g)
    touching = bool(spec.touching.letters)
    n = spec.n
    m = len(tagged)
    out = []
    i = 0
    while i < m:
        w, gi = tagged[i]
        k = len(w)
        j = i + 1
        while j < m and tagged[j][0][:k] == w:
            if tagged[j][1] != gi:
                raise SpecError("piece overlap: %r and %r"
                                % (w, tagged[j][0]))
            j += 1
        if touching and j < m:
            u, gj = tagged[j]
            if gj != gi and words_touch(spec, w, u):
                raise SpecError("pieces touch at a point: %r | %r" % (w, u))
        out.append(w)
        if k and w[-1] == n:
            _merge_siblings(n, out)
        i = j
    return tuple(out)


def set_distance(spec, a, b):
    """Exact distance between two disjoint cylinder unions (may be 0 when
    they touch).

    Canonical words come in hull order, so one merge of the two interval
    lists visits them left to right.  The distance is the least gap
    between neighbours from different sets.  An overlap shows at the
    first interval of one set after an interval of the other: it starts
    before that neighbour ends.
    """
    sides = [[(spec.cyl_interval(w), s) for w in canonicalize(spec.n, ws)]
             for s, ws in enumerate((a, b))]
    best = None
    prev_hi = prev_side = None
    for (lo, hi), s in heapq.merge(*sides):
        if prev_side is not None and prev_side != s:
            d = lo - prev_hi
            if d < 0:
                raise SpecError("sets overlap; no distance")
            if best is None or d < best:
                best = d
        prev_hi, prev_side = hi, s
    return best


def set_diam(spec, words):
    ws = canonicalize(spec.n, words)
    return spec.cyl_hi(ws[-1]) - spec.cyl_lo(ws[0])
