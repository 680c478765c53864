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
while the length is sought only the tables of two lengths are live.  At
the default budget (40, 60), an exhausted search on a six-map spec over
five primes (ratios 1/4, 1/6, 1/10, 1/14, 1/22, 1/8) takes about 4 s and
a traced peak of 261 MB on a 2-core x86-64 host; enumerating its 9.4 M
multisets would take an estimated 270-350 s.

A definitive "no witness exists" answer is only produced when the
rational relaxation of the lattice problem is infeasible, shown by
Fourier-Motzkin elimination over integer rows; budget exhaustion yields
"unknown".
"""

import math

from .exactnum import (ExactRatio, to_exponent_vector, mult_dependence)
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
    the last letter.  Returns True or raises SpecError."""
    rho = spec.ratios
    if w.i not in spec.touching.letters:
        raise SpecError("letter %d does not touch its neighbour" % w.i)
    if not w.word:
        raise SpecError("witness word must be nonempty")
    if w.k < 0 or w.kp < 0:
        raise SpecError("negative exponent in witness")
    last = w.word[-1]
    rj = spec.ratio_word(w.word)
    near, far, end = witness_letters(w.side, w.i, spec.n)
    if not _admissible(spec, w.side, last):
        raise SpecError("inadmissible final letter %d for a %s witness"
                        % (last, w.side))
    lhs = rho[far - 1] * rho[end - 1].pow_int(w.k)
    rhs = rho[near - 1] * rho[end - 1].pow_int(w.kp) * rj
    if lhs != rhs:
        raise SpecError("witness identity fails exactly: %r" % w)
    return True


# ---------------------------------------------------------------------------
# exact rational feasibility (Fourier-Motzkin)

def _fm_feasible(eqs, nonneg, nvars):
    """Feasibility over the rationals of integer rows (coeffs, rhs) meaning
    sum(c*x) == rhs, with x_j >= 0 for j in nonneg.  Small systems only.

    Fourier-Motzkin elimination on integer inequality rows, each divided
    by the gcd of its entries and kept in a set, so that scaled copies of
    one row merge.  Past 4000 rows the answer is "feasible": callers only
    conclude anything from infeasibility, so giving up stays sound."""
    def row(c, r):
        g = math.gcd(*c, r)
        if g > 1:
            return tuple(v // g for v in c), r // g
        return tuple(c), r

    ineqs = set()  # (coeffs, rhs) meaning sum(c*x) <= rhs
    for c, r in eqs:
        ineqs.add(row(c, r))
        ineqs.add(row([-v for v in c], -r))
    for j in nonneg:
        c = [0] * nvars
        c[j] = -1
        ineqs.add((tuple(c), 0))

    for var in range(nvars):
        pos, neg, new = [], [], set()
        for c, r in ineqs:
            if c[var] > 0:
                pos.append((c, r))
            elif c[var] < 0:
                neg.append((c, r))
            else:
                new.add((c, r))
        for cp, rp in pos:
            a = cp[var]
            for cn, rn in neg:
                b = -cn[var]
                new.add(row([b * u + a * v for u, v in zip(cp, cn)],
                             b * rp + a * rn))
        ineqs = new
        if len(ineqs) > 4000:
            return True
    return all(r >= 0 for c, r in ineqs)


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


def _longer_sums(prev, codes, adm):
    """Suffix tables one length up.

    ``prev[a]`` is the pair (sums without an admissible letter, sums with
    one) over the multisets of length r - 1 drawn from letters a+1..n
    (0-based ``a``); the result holds the same pairs for length r.  A
    multiset from a+1..n either has no letter a+1, or it is letter a+1
    added to a shorter multiset from a+1..n."""
    n = len(codes)
    out = [None] * n + [(frozenset(), frozenset())]
    for a in range(n - 1, -1, -1):
        plain, flagged = out[a + 1]
        e = codes[a]
        plain_up = {x + e for x in prev[a][0]}
        flagged_up = {x + e for x in prev[a][1]}
        if adm[a]:
            out[a] = (plain, flagged | plain_up | flagged_up)
        else:
            out[a] = (plain | plain_up, flagged | flagged_up)
    return out


def find_witness(spec, i, side, budget=None):
    """Search a substitution witness for touching letter ``i``.

    Returns (witness, status) where status is "found", "none" (proved
    impossible over the rationals) or "exhausted".  The witness is the
    first multiset of letters, in word-length-then-lexicographic order,
    whose exponent sum equals target + delta * anchor for some
    |delta| <= max_exp and which holds an admissible letter; its word is
    the sorted multiset with one admissible letter moved to the end, and
    its exponents are the minimal nonnegative pair realizing delta.

    The search runs over exponent sums, not multisets.  Suffix table
    R[a][r] holds the sums of the r-letter multisets drawn from letters
    a..n, split by whether they hold an admissible letter.  The minimal
    length L is the first r at which R[1][r] meets a goal; a greedy walk
    over the tables up to L - 1 then picks, position by position, the
    smallest letter that still has a completion, which is the
    lexicographically first multiset of length L.  Time and memory follow
    the number of distinct sums, not of multisets; while L is sought only
    the tables of two lengths are live.
    """
    budget = budget or SearchBudget()
    vecs = [to_exponent_vector(r) for r in spec.ratios]
    n = spec.n
    near, far, end = witness_letters(side, i, n)
    upper, lower, end = vecs[far - 1], vecs[near - 1], vecs[end - 1]
    adm = [_admissible(spec, side, t) for t in range(1, n + 1)]
    if not any(adm):
        return (None, "none")

    keys = sorted({k for v in vecs for k in v}, key=str)
    exps = [[v.get(k, 0) for k in keys] for v in vecs]
    target = [upper.get(k, 0) - lower.get(k, 0) for k in keys]
    anchor = [end.get(k, 0) for k in keys]

    # rational relaxation: sum m_t e_t - delta*anchor == target,
    # m_t >= 0, sum m_t >= 1 (an equality with a nonnegative slack).
    # Infeasible => no witness at any budget.
    eqs = [([-anchor[j]] + [e[j] for e in exps] + [0], target[j])
           for j in range(len(keys))]
    eqs.append(([0] + [-1] * n + [1], -1))
    if not _fm_feasible(eqs, nonneg=list(range(1, n + 2)), nvars=n + 2):
        return (None, "none")

    # Each exponent vector becomes one int: its digits in the balanced base
    # B = 2*bound + 1.  The packing is linear, and it maps a vector to 0
    # only if every entry, lying in [-bound, bound], is 0.  Every test
    # below asks whether a sum s of at most max_word letters equals a goal
    # g = target + delta*anchor, |delta| <= max_exp (the walk asks it as
    # "is g - t in a table" for s = t + a table sum); each entry of s - g
    # is within bound, so equal codes mean equal vectors.  Two goals may
    # share a code, but then no sum has it.
    bound = (budget.max_word * max(abs(x) for e in exps for x in e)
             + max(map(abs, target))
             + budget.max_exp * max(map(abs, anchor)))
    base = 2 * bound + 1

    def pack(vec):
        code = 0
        for x in reversed(vec):
            code = code * base + x
        return code

    codes = [pack(e) for e in exps]
    goal = {pack(target) + d * pack(anchor): d
            for d in range(-budget.max_exp, budget.max_exp + 1)}
    empty = [({0}, frozenset())] * (n + 1)

    level = empty
    for length in range(1, budget.max_word + 1):
        level = _longer_sums(level, codes, adm)
        if not goal.keys().isdisjoint(level[0][1]):
            break
    else:
        return (None, "exhausted")

    tables = [empty]
    for _ in range(1, length):
        tables.append(_longer_sums(tables[-1], codes, adm))
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
# necessary condition and fast-path witnesses

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


def _all_dependent(ratios):
    """Pairwise multiplicative dependence of a list; returns True/False."""
    base = ratios[0]
    for r in ratios[1:]:
        if mult_dependence(base, r) is None:
            return False
    # pairwise follows from dependence on a common anchor
    return True


def closed_form_witnesses(spec):
    """Closed-form witnesses when enough ratios share a common power.

    Witnesses of one side exist for every touching letter when rho_1,
    rho_n, rho_anchor and rho_near of every touching letter are pairwise
    multiplicatively dependent: with (near, far, end) from
    ``witness_letters``, the word is far, near^(w-1), anchor^u, where
    rho_near**w and rho_anchor**u are the powers of rho_end that match.
    The right side, anchor alpha, is tried before the left, anchor
    n - beta + 1.  Returns a dict letter -> Witness, or None when neither
    condition holds.
    """
    st = spec.touching
    n = spec.n
    rho = spec.ratios
    for side, anchor in (("right", st.alpha), ("left", n - st.beta + 1)):
        subs = [(i,) + witness_letters(side, i, n) for i in sorted(st.letters)]
        if not _all_dependent([rho[0], rho[n - 1], rho[anchor - 1]]
                              + [rho[near - 1] for _, near, _, _ in subs]):
            continue
        out = {}
        for i, near, far, end in subs:
            ua, va = mult_dependence(rho[anchor - 1], rho[end - 1])
            wb, vb = mult_dependence(rho[near - 1], rho[end - 1])
            v = va * vb // math.gcd(va, vb)
            u = ua * (v // va)
            wexp = wb * (v // vb)
            word = (far,) + (near,) * (wexp - 1) + (anchor,) * u
            w = Witness(side, i, 2 * v, 0, word, "fastpath")
            verify_witness(spec, w)
            out[i] = w
        return out
    return None


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
    fast = closed_form_witnesses(spec)
    if fast is not None:
        return Verdict("equivalent",
                       "every touching letter substitutable (closed-form "
                       "witnesses)", nec, fast, [])
    witnesses = {}
    unresolved = []
    for i in sorted(spec.touching.letters):
        w = None
        for side in ("left", "right"):
            got, status = find_witness(spec, i, side, budget)
            if got is not None:
                w = got
                break
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
