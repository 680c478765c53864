"""Deciding bi-Lipschitz equivalence with the dust counterpart.

The pipeline is:

1. a necessary condition: the left and right boundary contraction ratios
   must be multiplicatively dependent;
2. an obstruction for the special four-map shape with one interior
   touching letter and equal end ratios, driven by a user assertion that
   the two middle weights are algebraically independent;
3. a sufficient condition: every touching letter must be substitutable,
   i.e. admit an exact ratio identity letting one side of the touching
   point absorb the other (verified exactly on every reported witness).

Witness search runs over exponent vectors of the ratios, each packed into
one integer.  Suffix tables hold the distinct exponent sums that letter
multisets of each length reach, split by whether the multiset holds an
admissible letter.  The first length at which such a sum meets a goal is
the minimal witness length, and a greedy walk over the tables recovers
the lexicographically first multiset of that length: the one that an
enumeration of multisets in length-then-lexicographic order meets first.
Time and memory follow the number of distinct sums, not of multisets, and
while the length is sought each length's tables are dropped as the next
length's are built.  The tables depend on the spec and the side only, so
``decide`` shares them across the touching letters, keeping the lengths
that found witnesses have walked.

The tables keep only the sums that can still complete to a goal.  A sum
of r letters that reaches a goal g with at most K = max_word - r more
letters differs from g, in each coordinate, by K letters' worth at most:
so it lies in a box that the goals of the side's touching letters and
the least and greatest exponent entries fix, and every other sum is
dropped.  Every sum that a test of the search asks about lies in that
box, so the answers, and every witness and status, are those of the
full tables (the argument is in ``_SideTables``); a search whose tables
run empty stops there, exhausted.  At the default budget (40, 60), an
exhausted search on a six-map spec over five primes (ratios 1/4, 1/6,
1/10, 1/14, 1/22, 1/8) takes about 3 ms and a peak RSS of 20 MB on a
2-core x86-64 host, against 2.6 s and 264 MB with every reachable sum
kept; enumerating its 9.4 M multisets would take an estimated 270-350 s.

``decide`` searches each touching letter on both sides and keeps the
witness of smaller k' + |word|, the depth that the certificate's (p, q)
must exceed; the right side only looks for words short enough to win.

A definitive "no witness exists" answer is only produced when the
rational relaxation of the lattice problem is infeasible.  An exact
phase-1 simplex over a fraction-free integer tableau, with Bland's rule,
decides every relaxation; where it finds none feasible, ``farkas_vector``
gives the integer vector y that proves it (y.A_j <= 0 on the nonnegative
columns, y.A_j == 0 on the free one, y.b > 0), computed only when asked
for.  Budget exhaustion yields "unknown".
"""

from collections import Counter

from .exactnum import to_exponent_vector, mult_dependence
from .ifs import SpecError


class Witness:
    """An exact substitution identity for touching letter ``i``:

        rho_far * rho_end**k == rho_near * rho_end**kp * rho_word

    with (near, far, end) = ``witness_letters(side, i, n)``, that is
    (i, i+1, 1) on side "left" and (i+1, i, n) on side "right".
    """

    def __init__(self, side, i, k, kp, word, source):
        self.side = side
        self.i = i
        self.k = k
        self.kp = kp
        self.word = tuple(word)
        self.source = source

    @property
    def depth(self):
        """k' + |word|: min(p, q) of a certificate must exceed it."""
        return self.kp + len(self.word)

    def as_dict(self):
        return {"side": self.side, "letter": self.i, "k": self.k,
                "k_prime": self.kp, "word": list(self.word),
                "source": self.source}

    def __repr__(self):
        return ("Witness(%s, i=%d, k=%d, k'=%d, word=%s, %s)"
                % (self.side, self.i, self.k, self.kp, self.word,
                   self.source))


def witness_letters(side, i, n):
    """(near, far, end) of a ``side`` witness for touching letter ``i``:
    the letter whose cylinder carries the substitute word (near), the
    neighbour whose patch the word replaces (far), and the boundary letter
    that the replaced patches descend along (end).  The two sides are
    mirror images: (i, i+1, 1) and (i+1, i, n)."""
    if side == "left":
        return i, i + 1, 1
    if side == "right":
        return i + 1, i, n
    raise SpecError("unknown side %r" % side)


def verify_witness(spec, w):
    """Exact check of the substitution identity; also the admissibility of
    the last letter.  Returns True or raises SpecError.  The sides are
    compared as exponent vectors (``to_exponent_vector``), where
    rho_end**k is k times a vector: linear in the digits of k and k'."""
    rho = spec.ratios
    if w.i not in spec.touching.letters:
        raise SpecError("letter %d does not touch its neighbour" % w.i)
    if not w.word:
        raise SpecError("witness word must be nonempty")
    if w.k < 0 or w.kp < 0:
        raise SpecError("negative exponent in witness")
    last = w.word[-1]
    near, far, end = witness_letters(w.side, w.i, spec.n)
    if not _admissible(spec, w.side, last):
        raise SpecError("inadmissible final letter %d for a %s witness"
                        % (last, w.side))
    terms = Counter({far: 1})  # the letters of lhs / rhs, with exponents
    terms.subtract((near,) + w.word)
    terms[end] += w.k - w.kp
    quotient = Counter()
    for letter, m in terms.items():
        for key, e in to_exponent_vector(rho[letter - 1]).items():
            quotient[key] += m * e
    if any(quotient.values()):
        raise SpecError("witness identity fails exactly: %r" % w)
    return True


# ---------------------------------------------------------------------------
# exact rational feasibility (phase-1 simplex)

def _standard_form(eqs, nonneg, nvars):
    """The rows (coeffs + [rhs]) of sum(c*x) == rhs over nonnegative
    columns only, each with rhs >= 0, and the sign each row was multiplied
    by.  A free variable x_j (j not in ``nonneg``) becomes x_j+ in column
    j and x_j- in a column after the first ``nvars``; a row with rhs < 0
    is negated."""
    free = [j for j in range(nvars) if j not in nonneg]
    rows, signs = [], []
    for c, r in eqs:
        if r < 0:
            row = [-v for v in c]
            row += [c[j] for j in free]
            row.append(-r)
            signs.append(-1)
        else:
            row = list(c)
            row += [-c[j] for j in free]
            row.append(r)
            signs.append(1)
        rows.append(row)
    return rows, signs


def _phase_one(rows, carry=False):
    """Phase-1 simplex on standard-form ``rows``: None when they have a
    nonnegative solution, else the final objective row.

    The objective is the sum of one artificial variable per row, and the
    first basis is the artificials.  Entering column and leaving row
    follow Bland's rule (Math. Oper. Res. 2, 1977): the lowest column
    whose entry lowers the objective, and among the rows of least ratio
    the lowest basic index, the artificial of row i counting as column
    N + i.  An artificial that leaves never re-enters: forcing it to 0
    keeps every feasible point, so the answer stands.

    The tableau is fraction-free (Edmonds, J. Res. NBS 71B, 1967; Bareiss,
    Math. Comp. 22, 1968): it holds D times the true entries, where D > 0
    is the determinant of the basis, and a pivot on p replaces every other
    row by (p*row - f*pivot_row) / D, an exact division, and D by p.
    With ``carry`` the artificial columns ride along, and at an
    infeasible end the objective row holds D*y' on them, where y' is the
    phase-1 dual (see ``farkas_vector``); without it they are never
    stored."""
    m = len(rows)
    ncols = len(rows[0]) - 1 if rows else 0
    if carry:
        tab = [row[:-1] + [int(i == k) for k in range(m)] + row[-1:]
               for i, row in enumerate(rows)]
    else:
        tab = [list(row) for row in rows]
    # objective row: the sum of the rows, so that entry j > 0 means x_j
    # can enter, and the last entry is D times the sum of the artificials
    obj = [sum(col) for col in zip(*tab)] if tab else [0]
    tab.append(obj)
    basis = list(range(ncols, ncols + m))
    d = 1
    while obj[-1]:
        for c in range(ncols):
            if obj[c] > 0:
                break
        else:
            return obj
        # the objective is bounded below by 0, so column c has a
        # positive entry
        r = None
        for i in range(m):
            a = tab[i][c]
            if a > 0:
                if r is None:
                    r, ar, br = i, a, tab[i][-1]
                    continue
                lhs, rhs = tab[i][-1] * ar, br * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r, ar, br = i, a, tab[i][-1]
        pivot = tab[r]
        for row in tab:
            if row is not pivot:
                f = row[c]
                if f:
                    row[:] = [(ar * x - f * y) // d
                              for x, y in zip(row, pivot)]
                elif ar != d:
                    row[:] = [ar * x // d for x in row]
        d = ar
        basis[r] = c
    return None


def _infeasible(eqs, nonneg, nvars):
    """True when integer rows (coeffs, rhs), meaning sum(c*x) == rhs with
    x_j >= 0 for j in ``nonneg``, have no rational solution."""
    return _phase_one(_standard_form(eqs, set(nonneg), nvars)[0]) is not None


def farkas_vector(eqs, nonneg, nvars):
    """None when the system of ``_infeasible`` has a rational solution,
    else an integer vector y, one entry per row, proving it has none:
    y.A_j <= 0 for every column j in ``nonneg``, y.A_j == 0 for every
    other column, and y.b > 0.  (A solution x would give
    0 < y.b = sum_j (y.A_j) x_j <= 0.)

    The phase-1 simplex is run again with the artificial columns carried
    along: at its end, the objective row over column j is D times
    y'.A'_j <= 0, where y' = c_B B^-1 is its dual and A' the standard
    form (free columns split, so both y'.A_j and -y'.A_j are <= 0), over
    the artificial of row i it is D*y'_i, and its last entry is D times
    the positive objective y'.b'.  y is D*y' with the signs of the
    negated rows restored."""
    rows, signs = _standard_form(eqs, set(nonneg), nvars)
    obj = _phase_one(rows, carry=True)
    if obj is None:
        return None
    ncols = len(rows[0]) - 1
    return [s * v for s, v in zip(signs, obj[ncols:ncols + len(rows)])]


# ---------------------------------------------------------------------------
# witness search over reachable exponent sums

class SearchBudget:
    def __init__(self, max_word=40, max_exp=60):
        self.max_word = max_word
        self.max_exp = max_exp


def _admissible(spec, side, letter):
    st = spec.touching
    if side == "left":
        return letter != 1 and (letter - 1) not in st.letters
    return letter != spec.n and letter not in st.letters


def _arrange_word(spec, side, multiset):
    """Ascending word with one admissible letter moved to the end."""
    word = sorted(multiset)
    if _admissible(spec, side, word[-1]):
        return tuple(word)
    for idx in range(len(word) - 1, -1, -1):
        if _admissible(spec, side, word[idx]):
            letter = word.pop(idx)
            return tuple(word + [letter])
    return None


def _longer_sums(prev, codes, adm, box, consume=False):
    """Suffix tables one length up.

    ``prev[a]`` is the pair (sums without an admissible letter, sums with
    one) over the multisets of length r - 1 drawn from letters a+1..n
    (0-based ``a``); the result holds the same pairs for length r.  A
    multiset from a+1..n either has no letter a+1, or it is letter a+1
    added to a shorter multiset from a+1..n.  ``box`` is the triple
    (P, Q, G) of ``_SideTables.box``, and a new sum z is kept only if its
    guard bits pass: (z + P) & G == G and (Q - z) & G == G.  With
    ``consume``, each ``prev[a]`` is dropped from ``prev`` once it
    has been read, so the two lengths are never both whole in memory."""
    n = len(codes)
    p0, q0, g = box
    out = [None] * n + [(frozenset(), frozenset())]
    for a in range(n - 1, -1, -1):
        plain, flagged = out[a + 1]
        e = codes[a]
        below = prev[a]
        if consume:
            prev[a] = None
        # z + P == x + (e + P) and Q - z == (Q - e) - x
        p, q = e + p0, q0 - e
        plain_up = {x + e for x in below[0]
                    if (x + p) & g == g and (q - x) & g == g}
        flagged_up = {x + e for x in below[1]
                      if (x + p) & g == g and (q - x) & g == g}
        below = None
        if adm[a]:
            out[a] = (plain, flagged | plain_up | flagged_up)
        else:
            out[a] = (plain | plain_up, flagged | flagged_up)
    return out


class _SideTables:
    """What the witness search needs of one (spec, side), whatever the
    touching letter: the exponent vectors of the ratios, their packing into
    ints, each letter's code and admissibility, and the suffix tables of
    the lengths that found witnesses have walked (``levels[r]`` for
    r = 0, 1, ...).  ``decide`` shares one per side across the letters.

    Each exponent vector becomes one int: its digits in the balanced base
    B = 2**b, with 2**(b-2) > bound.  The packing is linear, and it maps a
    vector to 0 only if every entry, lying in [-bound, bound], is 0.  Every
    test of the search asks whether a sum s of at most max_word letters
    equals a goal g = target + delta*anchor, |delta| <= max_exp, where the
    target is the difference of two letters' vectors and the anchor is one
    letter's vector (the walk asks it as "is g - t in a table" for
    s = t + a table sum); so each entry of s - g is within
    bound = (max_word + 2 + max_exp) * top, with top the largest
    exponent, and equal codes mean equal vectors.  Two goals may share a
    code, but then no sum has it.

    The tables keep only the sums that can still complete to a goal of
    some touching letter of the side within max_word letters.  Let
    lo_j = min(0, min_t e_tj), hi_j = max(0, max_t e_tj), and let
    [Gmin_j, Gmax_j] span entry j of every goal target_i + delta*anchor,
    |delta| <= E_i, of every touching letter i of the side, where E_i is
    the delta range that ``goals`` trims to at cap max_word.  A sum x of
    r letters is kept iff, with K = max_word - r, for every j

        L_j = Gmin_j - K*hi_j <= x_j <= Gmax_j - K*lo_j = U_j.

    The result is exact:

    * if x completes to a goal g at a length R <= max_word, then g - x is
      a sum of at most K letters, so g_j - x_j lies in [K*lo_j, K*hi_j]
      and x is in the box;
    * so the box holds every sum the search asks about: the first-length
      test asks whether a goal itself is a sum of r letters (0 more
      letters), and the walk asks whether g - t is a sum of ``left``
      letters, t being a prefix of length - left <= max_word - left
      letters;
    * if x is in the box at length r, x - e_a is in it at length r - 1,
      since lo_j <= e_aj <= hi_j; so R[a][r] = R[a+1][r] u (R[a][r-1] +
      e_a), restricted to the box, is the full table restricted to the
      box, by induction over r and a, and a table is empty at one length
      only if it is empty at every longer one.

    The box is sound for every letter of the side and every cap up to
    max_word, so the tables stay shared.  It is tested on packed codes:
    with G = pack([2**(b-1)] * d), P_r = G - pack(L) and
    Q_r = G + pack(U), z + P_r has the field x_j - L_j + 2**(b-1) in
    (0, 2**b) at digit j, since |x_j - L_j| <= 2*bound < 2**(b-1); no
    field carries into the next, and its top bit, a bit of G, is set iff
    x_j >= L_j.  Q_r - z likewise tests x_j <= U_j.  P_r and Q_r are
    built once per length.
    """

    def __init__(self, spec, side, budget):
        self.spec = spec
        self.side = side
        self.budget = budget
        vecs = [to_exponent_vector(r) for r in spec.ratios]
        keys = sorted({k for v in vecs for k in v}, key=str)
        self.exps = [[v.get(k, 0) for k in keys] for v in vecs]
        self.top = top = max(abs(x) for e in self.exps for x in e)
        bound = (budget.max_word + 2 + budget.max_exp) * top
        self.shift = bound.bit_length() + 2
        self.codes = [self.pack(e) for e in self.exps]
        self.adm = [_admissible(spec, side, t) for t in range(1, spec.n + 1)]
        self.levels = [[({0}, frozenset())] * (spec.n + 1)]
        self._bounds = None

    def pack(self, vec):
        code = 0
        for x in reversed(vec):
            code = (code << self.shift) + x
        return code

    def goals(self, i, cap):
        """(target, anchor, max_exp) of letter ``i``: its goals are
        target + delta*anchor for |delta| <= max_exp.  A sum of at most
        ``cap`` letters has every entry within cap * top, so it can equal
        a goal only if, for every j with anchor_j != 0,
        |delta * anchor_j| <= cap * top + |target_j|: the budget's
        max_exp is trimmed to the deltas within that."""
        near, far, end = witness_letters(self.side, i, self.spec.n)
        exps = self.exps
        target = [a - b for a, b in zip(exps[far - 1], exps[near - 1])]
        anchor = exps[end - 1]
        max_exp = min([self.budget.max_exp]
                      + [(cap * self.top + abs(x)) // abs(y)
                         for x, y in zip(target, anchor) if y])
        return target, anchor, max_exp

    def box(self, r):
        """(P_r, Q_r, G) of the box test at length r; the bounds are built
        on the first call."""
        if self._bounds is None:
            cols = list(zip(*self.exps))
            gmin, gmax = [], []
            for i in sorted(self.spec.touching.letters):
                target, anchor, m = self.goals(i, self.budget.max_word)
                gmin.append([x - m * abs(y) for x, y in zip(target, anchor)])
                gmax.append([x + m * abs(y) for x, y in zip(target, anchor)])
            self._bounds = ([min(c) for c in cols], [max(c) for c in cols],
                            [min(c) for c in zip(*gmin)],
                            [max(c) for c in zip(*gmax)])
        mn, mx, gmin, gmax = self._bounds
        k = self.budget.max_word - r
        lower = [g - k * max(0, h) for g, h in zip(gmin, mx)]
        upper = [g - k * min(0, m) for g, m in zip(gmax, mn)]
        return self.guards(lower, upper)

    def guards(self, lower, upper):
        """(P, Q, G) such that the packed sum z of at most max_word letters
        has lower_j <= entry j <= upper_j for every j iff
        (z + P) & G == G and (Q - z) & G == G, for bounds within
        [-bound, bound]."""
        g = self.pack([1 << (self.shift - 1)] * len(lower))
        return g - self.pack(lower), g + self.pack(upper), g

    def first_length(self, goal, cap):
        """The least length r <= ``cap`` at which a multiset holding an
        admissible letter sums to a code in ``goal``, or None.

        On success ``levels`` holds the lengths below r, which the walk
        reads.  Beyond the levels already kept, each length is built from
        the one before, which it consumes, so an exhausted search keeps
        nothing new and holds at most one length and a part of the next;
        it stops at the first length whose tables are empty.
        """
        levels, codes, adm = self.levels, self.codes, self.adm
        level = levels[0]
        for r in range(1, cap + 1):
            if r < len(levels):
                level = levels[r]
            else:  # consume the level before, unless it is a kept one
                level = _longer_sums(level, codes, adm, self.box(r),
                                     r > len(levels))
                if not (level[0][0] or level[0][1]):
                    return None
            if not goal.keys().isdisjoint(level[0][1]):
                break
        else:
            return None
        del level
        while len(levels) < r:
            levels.append(_longer_sums(levels[-1], codes, adm,
                                       self.box(len(levels))))
        return r


def find_witness(spec, i, side, budget=None, *, tables=None, cap=None):
    """Search a substitution witness for touching letter ``i``.

    Returns (witness, status) where status is "found", "none" (proved
    impossible over the rationals) or "exhausted".  "none" means that the
    rational relaxation, sum_t m_t e_t - delta*anchor == target with
    m_t >= 0 and sum_t m_t >= 1, is infeasible, which the phase-1 simplex
    of ``_infeasible`` decides exactly; ``farkas_vector`` of the same rows
    gives its proof, which the search itself neither needs nor builds.

    The witness is the first multiset of letters, in
    word-length-then-lexicographic order, whose exponent sum equals
    target + delta * anchor for some |delta| <= max_exp and which holds an
    admissible letter; its word is the sorted multiset with one admissible
    letter moved to the end, and its exponents are the minimal
    nonnegative pair realizing delta.

    The search runs over exponent sums, not multisets.  Suffix table
    R[a][r] holds the sums of the r-letter multisets drawn from letters
    a..n, split by whether they hold an admissible letter.  The minimal
    length L is the first r at which R[1][r] meets a goal; a greedy walk
    over the tables up to L - 1 then picks, position by position, the
    smallest letter that still has a completion, which is the
    lexicographically first multiset of length L.  Time and memory follow
    the number of distinct sums, not of multisets; while L is sought only
    the tables of one length and a part of the next are live, and the
    tables hold only the sums that can still reach a goal of a touching
    letter of the side (``_SideTables``), so ``i`` must be one.

    ``decide`` shares one ``_SideTables`` of (spec, side) and its budget
    across letters as ``tables``; ``cap`` bounds words below max_word.
    """
    tab = tables or _SideTables(spec, side, budget or SearchBudget())
    cap = tab.budget.max_word if cap is None else cap
    n = spec.n
    if not any(tab.adm):
        return (None, "none")
    if i not in spec.touching.letters:
        raise SpecError("letter %d does not touch its neighbour" % i)
    exps = tab.exps
    target, anchor, max_exp = tab.goals(i, cap)

    # rational relaxation: sum m_t e_t - delta*anchor == target,
    # m_t >= 0, sum m_t >= 1 (an equality with a nonnegative slack).
    # Infeasible => no witness at any budget.
    eqs = [([-anchor[j]] + [e[j] for e in exps] + [0], target[j])
           for j in range(len(target))]
    eqs.append(([0] + [-1] * n + [1], -1))
    if _infeasible(eqs, nonneg=range(1, n + 2), nvars=n + 2):
        return (None, "none")

    t, a = tab.pack(target), tab.pack(anchor)
    goal = {t + d * a: d for d in range(-max_exp, max_exp + 1)}
    length = tab.first_length(goal, cap)
    if length is None:
        return (None, "exhausted")

    tables, codes, adm = tab.levels, tab.codes, tab.adm
    s, flagged, b, multi = 0, False, 0, []
    for left in range(length - 1, -1, -1):
        while True:
            t = s + codes[b]
            f = flagged or adm[b]
            plain, with_adm = tables[left][b]
            if any((g - t) in with_adm or (f and (g - t) in plain)
                   for g in goal):
                break
            b += 1
        multi.append(b + 1)
        s, flagged = t, f
    delta = goal[s]
    w = Witness(side, i, max(delta, 0), max(-delta, 0),
                _arrange_word(spec, side, multi), "search")
    verify_witness(spec, w)
    return (w, "found")


# ---------------------------------------------------------------------------
# necessary condition and the four-map obstruction

class NecessaryResult:
    def __init__(self, ok, pq, detail):
        self.ok = ok
        self.pq = pq
        self.detail = detail


def check_necessary(spec):
    """The boundary ratios must satisfy rho_1**p == rho_n**q exactly."""
    pq = mult_dependence(spec.ratios[0], spec.ratios[-1])
    if pq is None:
        return NecessaryResult(
            False, None,
            "log rho_1 / log rho_n is irrational: the end ratios admit no "
            "common power")
    return NecessaryResult(True, pq, "rho_1**%d == rho_n**%d" % pq)


def branch4_obstruction(spec):
    """The four-map obstruction: equal end ratios, single interior
    touching letter, and middle weights asserted algebraically
    independent.  Returns a reason string when it applies, else None."""
    st = spec.touching
    if spec.n != 4 or st.letters != frozenset({2}):
        return None
    if spec.ratios[0] != spec.ratios[3]:
        return None
    if not spec.mu_independent:
        return None
    return ("end ratios are equal and the middle measure weights are "
            "declared algebraically independent; no bi-Lipschitz map to "
            "the dust counterpart exists")


# ---------------------------------------------------------------------------
# verdict

class Verdict:
    STATUS = ("equivalent", "not_equivalent", "unknown")

    def __init__(self, status, reason, necessary, witnesses, unresolved):
        self.status = status
        self.reason = reason
        self.necessary = necessary
        self.witnesses = witnesses
        self.unresolved = unresolved

    def __repr__(self):
        return "Verdict(%s: %s)" % (self.status, self.reason)


def decide(spec, budget=None):
    """Full decision pipeline; returns a Verdict.

    "equivalent" always comes with one verified witness per touching
    letter; "not_equivalent" only from the necessary condition or the
    four-map obstruction; anything else is "unknown".

    Each touching letter is searched on the left, then on the right for
    words shorter than the left witness's ``Witness.depth``, which (p, q)
    must exceed; it gets the witness of smaller depth, and a tie goes to
    the left.  The searches of one side share one ``_SideTables``.
    """
    if spec.role != "touching":
        raise SpecError("decision applies to touching systems")
    budget = budget or SearchBudget()
    nec = check_necessary(spec)
    if not nec.ok:
        return Verdict("not_equivalent", nec.detail, nec, {}, [])
    reason4 = branch4_obstruction(spec)
    if reason4:
        return Verdict("not_equivalent", reason4, nec, {}, [])
    tables = {}
    witnesses = {}
    unresolved = []
    for i in sorted(spec.touching.letters):
        w = None
        cap = budget.max_word
        for side in ("left", "right"):
            if cap < 1:
                break
            if side not in tables:
                tables[side] = _SideTables(spec, side, budget)
            got, _ = find_witness(spec, i, side, tables=tables[side],
                                  cap=cap)
            if got is not None and (w is None or got.depth < w.depth):
                w = got
                cap = min(cap, w.depth - 1)
        if w is None:
            unresolved.append(i)
        else:
            witnesses[i] = w
    if not unresolved:
        return Verdict("equivalent",
                       "every touching letter substitutable", nec,
                       witnesses, [])
    return Verdict("unknown",
                   "touching letters %s lack a witness within budget"
                   % unresolved, nec, witnesses, unresolved)
