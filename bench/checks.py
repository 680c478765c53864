"""Output checks that do not use the code under test.

A word w over the letters 1..n addresses the n-adic interval
[0.w, 0.w + n^-|w|) of [0, 1), with digit a - 1 for letter a.  Two
cylinders overlap as word sets exactly when one word is a prefix of the
other, which is exactly when their address intervals overlap.  So tiling,
disjointness and containment of cylinder unions reduce to interval
arithmetic, independent of ``lipeq.cylsets``.  Intervals are kept as
integers in units of n^-DEPTH.

Witness identities are re-checked over plain ``Fraction`` products read
from the spec document, independent of ``lipeq.exactnum``.

Every check returns ``None`` when it holds and a short reason otherwise.
"""

import bisect
from fractions import Fraction

DEPTH = 64   # deeper than any word the workloads produce


def interval(n, word):
    if len(word) > DEPTH:
        raise ValueError("word longer than %d letters" % DEPTH)
    lo = 0
    for a in word:
        lo = lo * n + a - 1
    scale = n ** (DEPTH - len(word))
    return lo * scale, (lo + 1) * scale


def merged(n, words):
    """The union of the words' address intervals as sorted disjoint runs."""
    out = []
    for lo, hi in sorted(interval(n, w) for w in words):
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1][1] = hi
        else:
            out.append([lo, hi])
    return out


def groups_disjoint(n, groups):
    """No word of one group overlaps a word of another group."""
    tagged = sorted((interval(n, w), gi)
                    for gi, g in enumerate(groups) for w in g)
    reach = None  # (hi, group) of the interval reaching furthest so far
    for (lo, hi), gi in tagged:
        if reach is not None and lo < reach[0] and gi != reach[1]:
            return "groups %d and %d overlap" % (reach[1], gi)
        if reach is None or hi > reach[0]:
            reach = (hi, gi)
    return None


def tiles_whole(n, groups):
    """The groups are pairwise disjoint and together cover all of T."""
    reason = groups_disjoint(n, groups)
    if reason:
        return reason
    runs = merged(n, [w for g in groups for w in g])
    if runs != [[0, n ** DEPTH]]:
        return "union is not the whole set"
    return None


class Runs:
    """Disjoint labelled runs, from groups that must not overlap, with a
    lookup of the run that holds an interval."""

    def __init__(self, n, groups):
        runs = []
        for gi, g in enumerate(groups):
            runs.extend((lo, hi, gi) for lo, hi in merged(n, g))
        runs.sort()
        self.los = [r[0] for r in runs]
        self.runs = runs

    def home(self, lo, hi):
        """The label of the run holding [lo, hi); None if it meets no run;
        -1 if it meets a run without lying inside it."""
        k = bisect.bisect_right(self.los, lo) - 1
        if k >= 0 and lo < self.runs[k][1]:
            return self.runs[k][2] if hi <= self.runs[k][1] else -1
        if k + 1 < len(self.runs) and self.runs[k + 1][0] < hi:
            return -1
        return None


def refines(n, fine, coarse):
    """Every fine piece lies inside exactly one coarse piece.  The coarse
    pieces must be pairwise disjoint."""
    runs = Runs(n, coarse)
    for i, piece in enumerate(fine):
        homes = {runs.home(*interval(n, w)) for w in piece}
        if len(homes) != 1 or None in homes or -1 in homes:
            return "piece %d does not lie in one coarser piece" % i
    return None


def nested_or_disjoint(n, children, parents):
    """Each child set is inside or disjoint from each parent set.  The
    parent sets must be pairwise disjoint."""
    runs = Runs(n, parents)
    for ci, child in enumerate(children):
        homes = {runs.home(*interval(n, w)) for w in child}
        if -1 in homes or (len(homes) > 1):
            return "set %d straddles its parents" % ci
    return None


def _rationals(doc, key):
    return [Fraction(s) for s in doc[key]]


def touching_letters(spec_doc):
    r = _rationals(spec_doc, "ratios")
    t = _rationals(spec_doc, "translations")
    return {i for i in range(1, len(r)) if t[i - 1] + r[i - 1] == t[i]}


def witness(spec_doc, w):
    """The substitution identity of one reported witness, exactly."""
    r = _rationals(spec_doc, "ratios")
    n = len(r)
    touch = touching_letters(spec_doc)
    i, k, kp, word = w["letter"], w["k"], w["k_prime"], w["word"]
    if i not in touch:
        return "letter %d does not touch" % i
    if not word or k < 0 or kp < 0:
        return "malformed witness for letter %d" % i
    prod = Fraction(1)
    for a in word:
        prod *= r[a - 1]
    last = word[-1]
    if w["side"] == "left":
        ok = last != 1 and (last - 1) not in touch
        lhs = r[i] * r[0] ** k
        rhs = r[i - 1] * r[0] ** kp * prod
    elif w["side"] == "right":
        ok = last != n and last not in touch
        lhs = r[i - 1] * r[n - 1] ** k
        rhs = r[i] * r[n - 1] ** kp * prod
    else:
        return "unknown side %r" % w["side"]
    if not ok:
        return "inadmissible last letter %d" % last
    if lhs != rhs:
        return "identity fails for letter %d" % i
    return None
