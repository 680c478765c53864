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

Witness search runs over exponent vectors of the ratios.  A definitive
"no witness exists" answer is only produced when the rational relaxation
of the lattice problem is infeasible; budget exhaustion yields "unknown".
"""

from fractions import Fraction
from itertools import combinations_with_replacement
import math

from .exactnum import (ExactRatio, to_exponent_vector, mult_dependence)
from .ifs import SpecError


class Witness:
    """An exact substitution identity for touching letter ``i``.

    side "left":  rho_{i+1} * rho_1**k == rho_i * rho_1**kp * rho_word
    side "right": rho_i * rho_n**k == rho_{i+1} * rho_n**kp * rho_word
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


def verify_witness(spec, w):
    """Exact check of the substitution identity; also the admissibility of
    the last letter.  Returns True or raises SpecError."""
    st = spec.touching
    rho = spec.ratios
    i = w.i
    if i not in st.letters:
        raise SpecError("letter %d does not touch its neighbour" % i)
    if not w.word:
        raise SpecError("witness word must be nonempty")
    if w.k < 0 or w.kp < 0:
        raise SpecError("negative exponent in witness")
    last = w.word[-1]
    rj = spec.ratio_word(w.word)
    if w.side == "left":
        if last == 1 or (last - 1) in st.letters:
            raise SpecError("inadmissible final letter %d for a left "
                            "witness" % last)
        lhs = rho[i] * rho[0].pow_int(w.k)          # rho_{i+1} rho_1^k
        rhs = rho[i - 1] * rho[0].pow_int(w.kp) * rj
    elif w.side == "right":
        if last == spec.n or last in st.letters:
            raise SpecError("inadmissible final letter %d for a right "
                            "witness" % last)
        lhs = rho[i - 1] * rho[spec.n - 1].pow_int(w.k)
        rhs = rho[i] * rho[spec.n - 1].pow_int(w.kp) * rj
    else:
        raise SpecError("unknown side %r" % w.side)
    if lhs != rhs:
        raise SpecError("witness identity fails exactly: %r" % w)
    return True


# ---------------------------------------------------------------------------
# exact rational feasibility (Fourier-Motzkin)

def _fm_feasible(eqs, nonneg, nvars):
    """Feasibility over the rationals of eq rows (coeffs, rhs) meaning
    sum(c*x) == rhs, with x_j >= 0 for j in nonneg.  Small systems only."""
    ineqs = []  # (coeffs, rhs) meaning sum(c*x) <= rhs
    for c, r in eqs:
        ineqs.append((list(c), Fraction(r)))
        ineqs.append(([-v for v in c], -Fraction(r)))
    for j in nonneg:
        row = [Fraction(0)] * nvars
        row[j] = Fraction(-1)
        ineqs.append((row, Fraction(0)))

    for var in range(nvars):
        pos, neg, rest = [], [], []
        for c, r in ineqs:
            if c[var] > 0:
                pos.append((c, r))
            elif c[var] < 0:
                neg.append((c, r))
            else:
                rest.append((c, r))
        new = rest
        for cp, rp in pos:
            for cn, rn in neg:
                f = -cn[var] / cp[var]
                c2 = [cn[k] + f * cp[k] for k in range(nvars)]
                r2 = rn + f * rp
                new.append((c2, r2))
        # dedupe trivially
        ineqs = []
        seen = set()
        for c, r in new:
            key = (tuple(c), r)
            if key not in seen:
                seen.add(key)
                ineqs.append((c, r))
        if len(ineqs) > 4000:
            # keep it sound: give up on proving infeasibility
            return True
    return all(r >= 0 for c, r in ineqs)


# ---------------------------------------------------------------------------
# exponent-vector tooling

def _vec_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) - v
        if out[k] == 0:
            del out[k]
    return out


def _vec_add_scaled(a, b, m):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + m * v
        if out[k] == 0:
            del out[k]
    return out


def _parallel_int_factor(d, e):
    """delta with d == delta * e, or None (d, e exponent dicts, e != 0)."""
    if not d:
        return 0
    if set(d) != set(e):
        return None
    k0 = next(iter(e))
    if d[k0] % e[k0] != 0:
        return None
    delta = d[k0] // e[k0]
    for k in e:
        if d[k] != delta * e[k]:
            return None
    return delta


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


def find_witness(spec, i, side, budget=None, max_factor_bits=64):
    """Search a substitution witness for touching letter ``i``.

    Returns (witness, status) where status is "found", "none" (proved
    impossible over the rationals) or "exhausted".  The first witness in
    word-length-then-lexicographic order is returned; exponents are the
    minimal nonnegative pair realizing the required difference.
    """
    budget = budget or SearchBudget()
    vecs = [to_exponent_vector(r, max_factor_bits) for r in spec.ratios]
    n = spec.n
    if side == "left":
        target0 = _vec_sub(vecs[i], vecs[i - 1])   # e_{i+1} - e_i
        anchor = vecs[0]
    else:
        target0 = _vec_sub(vecs[i - 1], vecs[i])
        anchor = vecs[n - 1]
    letters = [t for t in range(1, n + 1)]
    if not any(_admissible(spec, side, t) for t in letters):
        return (None, "none")

    # rational relaxation: sum m_t e_t - delta*anchor == target0,
    # m_t >= 0, sum m_t >= 1.  Infeasible => no witness at any budget.
    keys = sorted({k for v in vecs for k in v} | set(target0) | set(anchor),
                  key=str)
    nv = n + 1  # delta, m_1..m_n
    eqs = []
    for key in keys:
        row = [Fraction(-anchor.get(key, 0))]
        row += [Fraction(vecs[t].get(key, 0)) for t in range(n)]
        eqs.append((row, Fraction(target0.get(key, 0))))
    # sum m >= 1 as equality with slack: use inequality via extra var
    row = [Fraction(0)] + [Fraction(-1)] * n
    slack = row + [Fraction(1)]
    eqs2 = [(c + [Fraction(0)], r) for c, r in eqs]
    eqs2.append((slack, Fraction(-1)))
    if not _fm_feasible(eqs2, nonneg=list(range(1, nv)) + [nv],
                        nvars=nv + 1):
        return (None, "none")

    for total in range(1, budget.max_word + 1):
        for multi in combinations_with_replacement(letters, total):
            if not any(_admissible(spec, side, t) for t in multi):
                continue
            vec = {}
            for t in multi:
                vec = _vec_add_scaled(vec, vecs[t - 1], 1)
            d = _vec_sub(vec, target0)
            delta = _parallel_int_factor(d, anchor)
            if delta is None or abs(delta) > budget.max_exp:
                continue
            word = _arrange_word(spec, side, multi)
            if word is None:
                continue
            k = max(delta, 0)
            kp = max(-delta, 0)
            w = Witness(side, i, k, kp, word, "search")
            verify_witness(spec, w)
            return (w, "found")
    return (None, "exhausted")


# ---------------------------------------------------------------------------
# necessary condition and fast-path witnesses

class NecessaryResult:
    def __init__(self, ok, pq, detail):
        self.ok = ok
        self.pq = pq
        self.detail = detail


def check_necessary(spec, max_factor_bits=64):
    """The boundary ratios must satisfy rho_1**p == rho_n**q exactly."""
    pq = mult_dependence(spec.ratios[0], spec.ratios[-1], max_factor_bits)
    if pq is None:
        return NecessaryResult(
            False, None,
            "log rho_1 / log rho_n is irrational: the end ratios admit no "
            "common power")
    return NecessaryResult(True, pq, "rho_1**%d == rho_n**%d" % pq)


def _all_dependent(ratios, max_factor_bits=64):
    """Pairwise multiplicative dependence of a list; returns True/False."""
    base = ratios[0]
    for r in ratios[1:]:
        if mult_dependence(base, r, max_factor_bits) is None:
            return False
    # pairwise follows from dependence on a common anchor
    return True


def closed_form_witnesses(spec, max_factor_bits=64):
    """Closed-form witnesses when enough ratios share a common power.

    Right-side witnesses exist for every touching letter when rho_1, rho_n,
    rho_alpha and every rho_{i+1} (i touching) are pairwise multiplicatively
    dependent; the mirror condition yields left-side witnesses.  Returns a
    dict letter -> Witness, or None when neither condition holds.
    """
    st = spec.touching
    n = spec.n
    rho = spec.ratios

    def dep(a, b):
        return mult_dependence(a, b, max_factor_bits)

    # right-side family
    cond1 = [rho[0], rho[n - 1], rho[st.alpha - 1]] + \
            [rho[i] for i in sorted(st.letters)]
    if _all_dependent(cond1, max_factor_bits):
        out = {}
        for i in sorted(st.letters):
            ua, va = dep(rho[st.alpha - 1], rho[n - 1])
            wb, vb = dep(rho[i], rho[n - 1])
            v = va * vb // math.gcd(va, vb)
            u = ua * (v // va)
            wexp = wb * (v // vb)
            word = (i,) + (i + 1,) * (wexp - 1) + (st.alpha,) * u
            w = Witness("right", i, 2 * v, 0, word, "fastpath")
            verify_witness(spec, w)
            out[i] = w
        return out
    cond2 = [rho[0], rho[n - 1], rho[n - st.beta]] + \
            [rho[i - 1] for i in sorted(st.letters)]
    if _all_dependent(cond2, max_factor_bits):
        out = {}
        for i in sorted(st.letters):
            ua, va = dep(rho[n - st.beta], rho[0])
            wb, vb = dep(rho[i - 1], rho[0])
            v = va * vb // math.gcd(va, vb)
            u = ua * (v // va)
            wexp = wb * (v // vb)
            word = (i + 1,) + (i,) * (wexp - 1) + (n - st.beta + 1,) * u
            w = Witness("left", i, 2 * v, 0, word, "fastpath")
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


def decide(spec, budget=None, max_factor_bits=64):
    """Full decision pipeline; returns a Verdict.

    "equivalent" always comes with one verified witness per touching
    letter; "not_equivalent" only from the necessary condition or the
    four-map obstruction; anything else is "unknown".
    """
    if spec.role != "touching":
        raise SpecError("decision applies to touching systems")
    budget = budget or SearchBudget()
    nec = check_necessary(spec, max_factor_bits)
    if not nec.ok:
        return Verdict("not_equivalent", nec.detail, nec, {}, [])
    reason4 = branch4_obstruction(spec)
    if reason4:
        return Verdict("not_equivalent", reason4, nec, {}, [])
    fast = closed_form_witnesses(spec, max_factor_bits)
    if fast is not None:
        return Verdict("equivalent",
                       "every touching letter substitutable (closed-form "
                       "witnesses)", nec, fast, [])
    witnesses = {}
    unresolved = []
    for i in sorted(spec.touching.letters):
        w = None
        for side in ("left", "right"):
            got, status = find_witness(spec, i, side, budget,
                                       max_factor_bits)
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
