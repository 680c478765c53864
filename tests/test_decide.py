"""Decision pipeline: necessary condition, witness search and
verification, the closed-form witnesses that the tests build, four-map
obstruction, and the exact phase-1 simplex behind every "none".

The ``ref_*`` functions are the earlier witness search, which enumerated
letter multisets, and its Fourier-Motzkin test over Fractions, kept here
as the references that the search over exponent sums and the simplex
must agree with."""

import importlib
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lipeq import IfsSpec, decide, verify_witness, Witness, SearchBudget
from lipeq.decide import (check_necessary, find_witness, branch4_obstruction,
                          _admissible, _arrange_word, _infeasible,
                          farkas_vector, _standard_form,
                          _SideTables, _longer_sums, witness_letters)
from lipeq.exactnum import ExactRatio, DeclaredBase, to_exponent_vector
from lipeq.ifs import SpecError

from conftest import (make_one45, make_equal_spec, make_endratio_spec,
                      random_equal_spec, random_unequal_spec,
                      random_fuzz_spec, closed_form_witnesses)

# the module: ``lipeq.decide`` names the function that the package exports
decide_module = importlib.import_module("lipeq.decide")


# ---------------------------------------------------------------------------
# reference: multiset enumeration and Fraction Fourier-Motzkin

def ref_fm_feasible(eqs, nonneg, nvars):
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
        ineqs = []
        seen = set()
        for c, r in new:
            key = (tuple(c), r)
            if key not in seen:
                seen.add(key)
                ineqs.append((c, r))
        if len(ineqs) > 4000:
            raise AssertionError("the reference gives up past 4000 rows")
    return all(r >= 0 for c, r in ineqs)


def ref_vec_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) - v
        if out[k] == 0:
            del out[k]
    return out


def ref_vec_add_scaled(a, b, m):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + m * v
        if out[k] == 0:
            del out[k]
    return out


def ref_parallel_int_factor(d, e):
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


def ref_find_witness(spec, i, side, budget=None):
    budget = budget or SearchBudget()
    vecs = [to_exponent_vector(r) for r in spec.ratios]
    n = spec.n
    if side == "left":
        target0 = ref_vec_sub(vecs[i], vecs[i - 1])
        anchor = vecs[0]
    else:
        target0 = ref_vec_sub(vecs[i - 1], vecs[i])
        anchor = vecs[n - 1]
    letters = [t for t in range(1, n + 1)]
    if not any(_admissible(spec, side, t) for t in letters):
        return (None, "none")
    keys = sorted({k for v in vecs for k in v} | set(target0) | set(anchor),
                  key=str)
    nv = n + 1
    eqs = []
    for key in keys:
        row = [Fraction(-anchor.get(key, 0))]
        row += [Fraction(vecs[t].get(key, 0)) for t in range(n)]
        eqs.append((row, Fraction(target0.get(key, 0))))
    row = [Fraction(0)] + [Fraction(-1)] * n
    slack = row + [Fraction(1)]
    eqs2 = [(c + [Fraction(0)], r) for c, r in eqs]
    eqs2.append((slack, Fraction(-1)))
    if not ref_fm_feasible(eqs2, nonneg=list(range(1, nv)) + [nv],
                           nvars=nv + 1):
        return (None, "none")
    for total in range(1, budget.max_word + 1):
        for multi in combinations_with_replacement(letters, total):
            if not any(_admissible(spec, side, t) for t in multi):
                continue
            vec = {}
            for t in multi:
                vec = ref_vec_add_scaled(vec, vecs[t - 1], 1)
            d = ref_vec_sub(vec, target0)
            delta = ref_parallel_int_factor(d, anchor)
            if delta is None or abs(delta) > budget.max_exp:
                continue
            word = _arrange_word(spec, side, multi)
            if word is None:
                continue
            w = Witness(side, i, max(delta, 0), max(-delta, 0), word,
                        "search")
            verify_witness(spec, w)
            return (w, "found")
    return (None, "exhausted")


def _smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


INTERIOR = [k for k in range(6, 37) if _smooth(k)]
END_PAIRS = [(Fraction(1, a), Fraction(1, b))
             for a, b in ((4, 8), (8, 4), (9, 27), (4, 16), (8, 8), (2, 3))]


def random_decide_spec(rng):
    """n in 3..6, end ratios from END_PAIRS (the last pair independent),
    interior ratios 1/k for {2,3,5}-smooth k in 6..36, and a random
    touching pattern with at least one touch and one gap."""
    while True:
        n = rng.randrange(3, 7)
        first, last = rng.choice(END_PAIRS)
        ratios = ([first] + [Fraction(1, rng.choice(INTERIOR))
                             for _ in range(n - 2)] + [last])
        touch = [rng.random() < 0.5 for _ in range(n - 1)]
        if sum(ratios) >= 1 or all(touch) or not any(touch):
            continue
        gap = (1 - sum(ratios)) / touch.count(False)
        ts = [Fraction(0)]
        for i in range(n - 1):
            ts.append(ts[-1] + ratios[i] + (0 if touch[i] else gap))
        return IfsSpec(ratios, ts, role="touching")


class TestNecessary:
    def test_equal_end_ratios(self):
        nec = check_necessary(make_one45())
        assert nec.ok and nec.pq == (1, 1)

    def test_dependent_end_ratios(self):
        spec = make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                  r2=Fraction(1, 3))
        nec = check_necessary(spec)
        assert nec.ok and nec.pq == (3, 2)

    def test_independent_end_ratios(self):
        spec = make_endratio_spec(Fraction(1, 2), Fraction(1, 3),
                                  r2=Fraction(1, 12))
        assert not check_necessary(spec).ok


class TestWitnessVerification:
    def test_one45_right_witness(self):
        spec = make_one45()
        w = Witness("right", 2, 2, 0, (2, 1), "manual")
        verify_witness(spec, w)

    def test_wrong_diameter_rejected(self):
        spec = make_one45()
        with pytest.raises(Exception):
            verify_witness(spec, Witness("right", 2, 3, 0, (2, 1), "manual"))

    def test_inadmissible_last_letter_rejected(self):
        spec = make_one45()
        # rho_2 rho_3^2 = rho_3 rho_1 rho_2 holds but a right witness
        # must not end in a touching letter
        with pytest.raises(Exception):
            verify_witness(spec, Witness("right", 2, 2, 0, (1, 2), "manual"))

    @pytest.mark.parametrize("k, kp", [(10 ** 9, 0), (10 ** 18, 0),
                                       (0, 10 ** 9)],
                             ids=["k=1e9", "k=1e18", "k_prime=1e9"])
    def test_huge_exponent_refused_at_once(self, k, kp):
        # a power of rho_end with a huge exponent would take time and
        # memory that grow with the exponent; an exponent vector does not
        t0 = time.perf_counter()
        with pytest.raises(SpecError, match="witness identity fails exactly"):
            verify_witness(make_one45(), Witness("left", 2, k, kp, (2,),
                                                 "manual"))
        assert time.perf_counter() - t0 < 1

    def test_left_witness(self):
        # mirror of the standard example touches at letter 1
        spec = make_one45().mirror()
        w = Witness("left", 1, 2, 0, (2, 3), "manual")
        verify_witness(spec, w)


class TestSearch:
    def test_search_agrees_with_fastpath(self):
        spec = make_one45()
        w, status = find_witness(spec, 2, "right", SearchBudget())
        assert status == "found"
        verify_witness(spec, w)

    def test_minimal_witness_preferred(self):
        # the search finds the one-letter witness rho_2 rho_3 = rho_3 rho_1
        spec = make_one45()
        w, status = find_witness(spec, 2, "right", SearchBudget(1, 1))
        assert status == "found" and w.word == (1,)

    def test_exhausted_budget(self):
        spec = make_endratio_spec(Fraction(1, 4), Fraction(1, 8),
                                  r2=Fraction(1, 3))
        w, status = find_witness(spec, 1, "left", SearchBudget(1, 1))
        assert w is None
        assert status == "exhausted"

    def test_sound_no(self):
        # end ratios 1/2, 1/3 admit no witness at all; the rational
        # relaxation proves it rather than exhausting the budget
        spec = make_endratio_spec(Fraction(1, 2), Fraction(1, 3),
                                  r2=Fraction(1, 12))
        w, status = find_witness(spec, 1, "right", SearchBudget())
        assert w is None and status == "none"


class TestFastpath:
    def test_one45(self):
        ws = closed_form_witnesses(make_one45())
        assert set(ws) == {2}
        assert ws[2].side == "right"
        assert ws[2].k == 2 and ws[2].kp == 0 and ws[2].word == (2, 1)

    def test_random_equal_ratio_specs(self):
        rng = random.Random(3)
        for _ in range(15):
            spec = random_equal_spec(rng)
            ws = closed_form_witnesses(spec)
            assert set(ws) == set(spec.touching.letters)
            for w in ws.values():
                verify_witness(spec, w)


class TestVerdicts:
    def test_one45_equivalent(self, one45):
        v = decide(one45)
        assert v.status == "equivalent"
        assert set(v.witnesses) == {2}

    def test_dichotomy_positive(self):
        rng = random.Random(17)
        for _ in range(5):
            spec = make_endratio_spec(Fraction(1, 4), Fraction(1, 8), rng)
            assert decide(spec).status == "equivalent"

    def test_dichotomy_negative(self):
        rng = random.Random(18)
        for _ in range(5):
            spec = make_endratio_spec(Fraction(1, 2), Fraction(1, 3), rng)
            v = decide(spec)
            assert v.status == "not_equivalent"

    def test_verdict_witnesses_verified(self):
        rng = random.Random(19)
        for _ in range(10):
            spec = random_equal_spec(rng)
            v = decide(spec)
            assert v.status == "equivalent"
            for w in v.witnesses.values():
                verify_witness(spec, w)


class TestBranch4:
    def make_branch4(self):
        # four maps, rho_1 = rho_4, touching exactly at letter 2, with
        # the measure-independence flag set by the user
        g = DeclaredBase(
            "g", "0.21931712193719233471", digits=18)
        rho = [ExactRatio(Fraction(1, 8)), ExactRatio(1, (("g", 1),)),
               ExactRatio(1, (("g", 1),)), ExactRatio(Fraction(1, 8))]
        t2 = Fraction(1, 4)
        gval = rho[1].value({"g": g})
        t = [Fraction(0), t2, t2 + gval, Fraction(7, 8)]
        return IfsSpec(rho, t, role="touching", bases={"g": g},
                       mu_independent=True)

    def test_obstruction_fires(self):
        spec = self.make_branch4()
        assert branch4_obstruction(spec)
        v = decide(spec)
        assert v.status == "not_equivalent"

    def test_without_flag_not_concluded_negative(self):
        spec = self.make_branch4()
        spec.mu_independent = False
        assert not branch4_obstruction(spec)


def outcome(result):
    w, status = result
    return status, (w.as_dict() if w else None)


class TestSearchAgreesWithReference:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32), st.booleans(),
           st.integers(1, 10), st.integers(0, 8), st.integers(0, 99))
    def test_generated_specs(self, seed, equal, max_word, max_exp, pick):
        rng = random.Random(seed)
        spec = random_equal_spec(rng) if equal else random_decide_spec(rng)
        letters = sorted(spec.touching.letters)
        i = letters[pick % len(letters)]
        side = ("left", "right")[pick // len(letters) % 2]
        budget = SearchBudget(max_word, max_exp)
        assert (outcome(find_witness(spec, i, side, budget))
                == outcome(ref_find_witness(spec, i, side, budget)))

    def test_seeded_specs_every_letter_and_side(self):
        rng = random.Random(7)
        statuses = set()
        for _ in range(12):
            spec = random_decide_spec(rng)
            for i in sorted(spec.touching.letters):
                for side in ("left", "right"):
                    budget = SearchBudget(8, 5)
                    got = outcome(find_witness(spec, i, side, budget))
                    assert got == outcome(ref_find_witness(spec, i, side,
                                                           budget))
                    statuses.add(got[0])
        assert statuses == {"found", "none", "exhausted"}

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_no_admissible_letter(self, side):
        # every letter touches its right neighbour, which a valid IfsSpec
        # never has, so the spec is a stand-in with just what the search
        # reads
        spec = SimpleNamespace(
            n=3, ratios=[ExactRatio(Fraction(1, 4))] * 3,
            touching=SimpleNamespace(letters=frozenset({1, 2})))
        assert find_witness(spec, 1, side) == (None, "none")
        assert ref_find_witness(spec, 1, side) == (None, "none")

    def test_lex_first_of_two_minimal_multisets(self):
        # letters 1 and 3 share the ratio 1/8, so both {1,1,4} and {1,3,4}
        # give rho_4 rho_5^4 == rho_5 rho_word, and no shorter multiset
        # does; the lexicographically first one wins
        spec = IfsSpec([Fraction(1, 8), Fraction(1, 15), Fraction(1, 8),
                        Fraction(1, 20), Fraction(1, 4)],
                       [Fraction(0), Fraction(19, 60), Fraction(23, 40),
                        Fraction(7, 10), Fraction(3, 4)], role="touching")
        assert spec.touching.letters == {3, 4}
        verify_witness(spec, Witness("right", 4, 4, 0, (3, 4, 1), "manual"))
        w, status = find_witness(spec, 4, "right", SearchBudget(2, 60))
        assert status == "exhausted"
        w, status = find_witness(spec, 4, "right")
        assert status == "found"
        assert (w.k, w.kp, w.word) == (4, 0, (1, 4, 1))
        assert outcome((w, status)) == outcome(
            ref_find_witness(spec, 4, "right"))


def cost(w):
    return w.kp + len(w.word)


def expected_witness(spec, i, budget):
    """The witness that ``decide`` must pick for letter ``i``: the first
    that ``find_witness`` finds on each side, uncapped, and of those the
    one of smaller ``cost``, the left on a tie."""
    best = None
    for side in ("left", "right"):
        got, _ = find_witness(spec, i, side, budget)
        if got is not None and (best is None or cost(got) < cost(best)):
            best = got
    return best


class TestCheapestWitness:
    def test_one45_takes_the_shorter_left_witness(self, one45):
        w = decide(one45).witnesses[2]
        assert (w.side, w.k, w.kp, w.word, w.source) == (
            "left", 1, 0, (2,), "search")
        assert cost(closed_form_witnesses(one45)[2]) == 2

    def test_tie_goes_to_the_left(self, one45):
        # the uncapped searches find a witness of cost 1 on each side
        left, _ = find_witness(one45, 2, "left")
        right, _ = find_witness(one45, 2, "right")
        assert (left.word, right.word) == ((2,), (1,))
        assert cost(left) == cost(right) == 1
        assert decide(one45).witnesses[2].as_dict() == left.as_dict()

    def test_right_beats_a_found_left_witness(self):
        spec = IfsSpec([Fraction(1, 8), Fraction(1, 8), Fraction(1, 4)],
                       [Fraction(0), Fraction(5, 8), Fraction(3, 4)],
                       role="touching")
        left, _ = find_witness(spec, 2, "left")
        assert (left.k, left.kp, left.word) == (2, 0, (3, 2))
        w = decide(spec).witnesses[2]
        assert (w.side, w.k, w.kp, w.word, w.source) == (
            "right", 1, 0, (1,), "search")

    def test_unknown_when_the_search_finds_nothing(self, one45):
        # the search budget admits no word at all; the closed form
        # (2, 1) exists, but is no witness path of ``decide``
        v = decide(one45, SearchBudget(1, 0))
        assert (v.status, v.unresolved, v.witnesses) == ("unknown", [2], {})
        assert closed_form_witnesses(one45)[2].word == (2, 1)

    def test_choice_on_generated_specs(self):
        rng = random.Random(23)
        picked, sides = set(), set()
        for k in range(45):
            spec = (random_equal_spec, random_decide_spec,
                    random_unequal_spec)[k % 3](rng)
            budget = SearchBudget(10, 30)
            v = decide(spec, budget)
            if v.status == "not_equivalent":
                continue
            for i in sorted(spec.touching.letters):
                want = expected_witness(spec, i, budget)
                got = v.witnesses.get(i)
                assert (got and got.as_dict()) == (want and want.as_dict())
                if got:
                    verify_witness(spec, got)
                    picked.add(got.source)
                    sides.add(got.side)
        assert picked == {"search"}
        assert sides == {"left", "right"}


class TestGoalClip:
    def test_exponent_budget_beyond_reach(self, one45, monkeypatch):
        # a sum of at most 2 letters has small exponents, so only a few
        # deltas can match a goal; max_exp 10**9 finds what 10**4 does
        # over as few goals.  The guard fails a search that would build
        # 2 * 10**9 + 1 goals, rather than let it exhaust memory.
        def small_range(*args):
            got = range(*args)
            assert len(got) <= 10 ** 5, "goal table of %d deltas" % len(got)
            return got

        monkeypatch.setattr(decide_module, "range", small_range,
                            raising=False)
        want = decide(one45, SearchBudget(2, 10 ** 4))
        got = decide(one45, SearchBudget(2, 10 ** 9))
        assert got.status == want.status == "equivalent"
        assert ({i: w.as_dict() for i, w in got.witnesses.items()}
                == {i: w.as_dict() for i, w in want.witnesses.items()})

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32), st.booleans(),
           st.integers(1, 6), st.integers(0, 99))
    def test_clipped_search_agrees_with_reference(self, seed, equal,
                                                  max_word, pick):
        # the reference enumerates multisets, whatever max_exp is
        rng = random.Random(seed)
        spec = random_equal_spec(rng) if equal else random_decide_spec(rng)
        letters = sorted(spec.touching.letters)
        i = letters[pick % len(letters)]
        side = ("left", "right")[pick // len(letters) % 2]
        budget = SearchBudget(max_word, 10 ** 9)
        assert (outcome(find_witness(spec, i, side, budget))
                == outcome(ref_find_witness(spec, i, side, budget)))


class TestSharedTables:
    def test_shared_tables_agree_with_fresh_searches(self):
        # letters, sides and caps in a random order over one table per
        # side, each answer checked against a search on fresh tables
        rng = random.Random(29)
        statuses = set()
        for k in range(16):
            spec = (random_decide_spec if k % 2 else random_equal_spec)(rng)
            budget = SearchBudget(9, 20)
            tables = {side: _SideTables(spec, side, budget)
                      for side in ("left", "right")}
            queries = [(i, side, cap)
                       for i in sorted(spec.touching.letters)
                       for side in ("left", "right")
                       for cap in (1, 3, 9)]
            rng.shuffle(queries)
            for i, side, cap in queries:
                got = outcome(find_witness(spec, i, side,
                                           tables=tables[side], cap=cap))
                assert got == outcome(find_witness(
                    spec, i, side, SearchBudget(cap, budget.max_exp)))
                statuses.add(got[0])
        assert statuses == {"found", "none", "exhausted"}

    def test_only_walked_levels_kept(self):
        # {1,4,5}: a right witness for letter 2 has length 1 at the least
        # (rho_2 rho_3 == rho_3 rho_1), so its walk reads the length-0
        # level alone; an exhausted search keeps no level
        spec = make_one45()
        tab = _SideTables(spec, "right", SearchBudget(3, 0))
        assert find_witness(spec, 2, "right", tables=tab) == (
            None, "exhausted")
        assert len(tab.levels) == 1
        tab = _SideTables(spec, "right", SearchBudget(3, 1))
        w, status = find_witness(spec, 2, "right", tables=tab)
        assert status == "found" and w.word == (1,)
        assert len(tab.levels) == 1
        spec = IfsSpec([Fraction(1, 8), Fraction(1, 15), Fraction(1, 8),
                        Fraction(1, 20), Fraction(1, 4)],
                       [Fraction(0), Fraction(19, 60), Fraction(23, 40),
                        Fraction(7, 10), Fraction(3, 4)], role="touching")
        tab = _SideTables(spec, "right", SearchBudget())
        w, status = find_witness(spec, 4, "right", tables=tab)
        assert status == "found" and len(w.word) == 3
        assert len(tab.levels) == 3
        # a search that reads them, or one capped below them, keeps them
        again, _ = find_witness(spec, 4, "right", tables=tab)
        assert again.as_dict() == w.as_dict()
        assert find_witness(spec, 4, "right", tables=tab, cap=2) == (
            None, "exhausted")
        assert len(tab.levels) == 3


def box_bounds(tab, r):
    """L and U of the box at length r, from its definition: every entry
    of every goal of every touching letter of the side, less K = max_word
    - r times the largest and the least entry a letter can add."""
    cols = list(zip(*tab.exps))
    lo = [min(0, *c) for c in cols]
    hi = [max(0, *c) for c in cols]
    ends = []
    for i in tab.spec.touching.letters:
        target, anchor, m = tab.goals(i, tab.budget.max_word)
        ends += [[x + d * y for x, y in zip(target, anchor)] for d in (-m, m)]
    k = tab.budget.max_word - r
    return ([min(c) - k * h for c, h in zip(zip(*ends), hi)],
            [max(c) - k * v for c, v in zip(zip(*ends), lo)])


def full_tables(tab, length):
    """The suffix tables without the box, by enumeration: entry [r][a] is
    the pair (plain, flagged) of the packed sums of the r-letter multisets
    drawn from letters a+1..n (0-based ``a``); and the vector of each
    packed sum."""
    n = len(tab.codes)
    levels, vectors = [], {}
    for r in range(length + 1):
        level = []
        for a in range(n + 1):
            pair = (set(), set())
            for multi in combinations_with_replacement(range(a, n), r):
                code = sum(tab.codes[t] for t in multi)
                vectors[code] = [sum(tab.exps[t][j] for t in multi)
                                 for j in range(len(tab.exps[0]))]
                pair[any(tab.adm[t] for t in multi)].add(code)
            level.append(pair)
        levels.append(level)
    return levels, vectors


def completing(tab, full, r):
    """The packed sums x of r letters that reach some goal of a touching
    letter of the side with at most max_word - r more letters, of any
    kind; the goals here span the budget's whole max_exp."""
    spec, budget = tab.spec, tab.budget
    goals = set()
    for i in spec.touching.letters:
        near, far, end = witness_letters(tab.side, i, spec.n)
        t = tab.codes[far - 1] - tab.codes[near - 1]
        goals |= {t + d * tab.codes[end - 1]
                  for d in range(-budget.max_exp, budget.max_exp + 1)}
    return {g - y for k in range(budget.max_word - r + 1)
            for y in full[k][0][0] | full[k][0][1] for g in goals}


def sums_built(monkeypatch):
    """A list that collects, for each length that ``first_length``
    builds, the summed sizes of its tables."""
    sizes = []
    longer = decide_module._longer_sums

    def record(*args, **kwargs):
        out = longer(*args, **kwargs)
        sizes.append(sum(len(part) for pair in out for part in pair))
        return out

    monkeypatch.setattr(decide_module, "_longer_sums", record)
    return sizes


# Six maps over five primes, touching after letters 1, 3 and 5: at the
# default budget (40, 60), tables of every reachable sum held 10.7 M sums
# over the 40 lengths of an exhausted search for letter 1 (left), built
# in 2.6 s with a peak RSS of 264 MB.
SIX_MAP = IfsSpec(
    [Fraction(1, m) for m in (4, 6, 10, 14, 22, 8)],
    [Fraction(t) for t in ("0", "1/4", "9931/18480", "11779/18480",
                           "73/88", "7/8")],
    role="touching")


class TestBoxPrune:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(["left", "right"]),
           st.integers(1, 40), st.integers(0, 60) | st.just(10 ** 6),
           st.data())
    def test_guard_bits_agree_with_unpacked_bounds(self, seed, side,
                                                   max_word, max_exp, data):
        # any bounds within the packing's bound and any vector that a sum
        # of at most max_word letters can be, the extremes drawn often
        spec = random_fuzz_spec(random.Random(seed))
        tab = _SideTables(spec, side, SearchBudget(max_word, max_exp))
        bound = (max_word + 2 + max_exp) * tab.top
        reach = max_word * tab.top
        d = len(tab.exps[0])

        def entries(m):
            return data.draw(st.lists(
                st.sampled_from([-m, m]) | st.integers(-m, m),
                min_size=d, max_size=d))

        lower, upper, x = entries(bound), entries(bound), entries(reach)
        p, q, g = tab.guards(lower, upper)
        z = tab.pack(x)
        assert ((z + p) & g == g and (q - z) & g == g) == all(
            lo <= v <= up for lo, v, up in zip(lower, x, upper))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(["left", "right"]),
           st.integers(1, 40), st.integers(0, 60) | st.just(10 ** 6),
           st.data())
    def test_box_at_each_length(self, seed, side, max_word, max_exp, data):
        # the box's guards test its defining bounds
        spec = random_fuzz_spec(random.Random(seed))
        tab = _SideTables(spec, side, SearchBudget(max_word, max_exp))
        r = data.draw(st.integers(1, max_word))
        assert tab.box(r) == tab.guards(*box_bounds(tab, r))

    def test_kept_tables_hold_every_completing_sum(self):
        # the kept tables are subsets of the full ones, and they hold
        # every full-table sum that can still reach a goal
        rng = random.Random(31)
        kept_total = full_total = 0
        empty = 0
        for k in range(24):
            spec = (random_decide_spec, random_equal_spec,
                    random_fuzz_spec)[k % 3](rng)
            budget = SearchBudget(rng.randrange(1, 7), rng.randrange(0, 5))
            for side in ("left", "right"):
                tab = _SideTables(spec, side, budget)
                full, vectors = full_tables(tab, budget.max_word)
                level = tab.levels[0]
                for r in range(1, budget.max_word + 1):
                    level = _longer_sums(level, tab.codes, tab.adm,
                                         tab.box(r))
                    reach = completing(tab, full, r)
                    lower, upper = box_bounds(tab, r)
                    for kept_pair, full_pair in zip(level, full[r]):
                        for kept, every in zip(kept_pair, full_pair):
                            assert kept <= every
                            assert every & reach <= kept
                            # exactly the full sums inside the box
                            assert kept == {x for x in every if all(
                                lo <= v <= up for lo, v, up in
                                zip(lower, vectors[x], upper))}
                            kept_total += len(kept)
                            full_total += len(every)
                    empty += not (level[0][0] or level[0][1])
        assert 0 < kept_total < full_total and empty > 0

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("shared", [False, True])
    def test_letter_that_does_not_touch_refused(self, one45, side, shared):
        # the box holds the sums that can reach a goal of a touching
        # letter only, so a search for another letter could answer
        # "exhausted" where the full tables hold a witness
        tables = _SideTables(one45, side, SearchBudget()) if shared else None
        for i in (1, 3):
            with pytest.raises(SpecError, match="letter %d does not touch"
                               % i):
                find_witness(one45, i, side, tables=tables)

    def test_search_stops_at_empty_tables(self, one45, monkeypatch):
        # every ratio of {1,4,5} is 1/5, so with max_exp 0 the one goal
        # is the zero vector, which no nonempty multiset reaches: the box
        # holds no sum from length 1 on, and the search stops there
        sizes = sums_built(monkeypatch)
        assert find_witness(one45, 2, "right", SearchBudget(40, 0)) == (
            None, "exhausted")
        assert sizes == [0]

    def test_six_map_at_the_default_budget(self, monkeypatch):
        # 3,679 sums are kept
        sizes = sums_built(monkeypatch)
        assert find_witness(SIX_MAP, 1, "left") == (None, "exhausted")
        assert len(sizes) == 40 and sum(sizes) < 10 ** 4
        v = decide(SIX_MAP)
        assert v.status == "unknown" and v.unresolved == [1, 3, 5]

    def test_many_branch_at_the_default_budget(self, monkeypatch):
        # 57,158 sums are kept over the 80 lengths that decide builds; the
        # full tables did not fit in 1 GB
        sizes = sums_built(monkeypatch)
        v = decide(MANY_BRANCH)
        assert v.status == "unknown"
        assert v.unresolved == [1, 4, 5, 6, 7, 9]
        assert sum(sizes) < 10 ** 6


def check_farkas(eqs, nonneg, nvars, y):
    """y proves that no rational x with x_j >= 0 for j in ``nonneg``
    solves the rows (coeffs, rhs): y.A_j <= 0 on those columns,
    y.A_j == 0 on the others, and y.b > 0."""
    assert len(y) == len(eqs) and all(type(v) is int for v in y)
    for j in range(nvars):
        dot = sum(v * c[j] for v, (c, _) in zip(y, eqs))
        assert dot <= 0 if j in nonneg else dot == 0
    assert sum(v * r for v, (_, r) in zip(y, eqs)) > 0


def simplex_feasible(eqs, nonneg, nvars):
    """The simplex's answer; on an infeasible system its Farkas vector
    is built and checked."""
    feasible = not _infeasible(eqs, nonneg, nvars)
    y = farkas_vector(eqs, nonneg, nvars)
    assert (y is None) == feasible
    if y is not None:
        check_farkas(eqs, nonneg, nvars, y)
    return feasible


def dantzig_cycles(eqs, steps=50):
    """Whether the phase-1 simplex of ``_phase_one`` revisits a basis
    when its entering column is the one of largest objective entry in
    place of Bland's lowest one (all columns nonnegative; Fraction
    tableau, same ratio test and tie rule)."""
    rows = _standard_form(eqs, set(range(len(eqs[0][0]))),
                          len(eqs[0][0]))[0]
    ncols = len(rows[0]) - 1
    tab = [[Fraction(v) for v in row] for row in rows]
    obj = [sum(col) for col in zip(*tab)]
    basis = list(range(ncols, ncols + len(tab)))
    seen = {tuple(basis)}
    for _ in range(steps):
        c = max(range(ncols), key=lambda j: (obj[j], -j))
        if obj[-1] == 0 or obj[c] <= 0:
            return False
        r = min((i for i in range(len(tab)) if tab[i][c] > 0),
                key=lambda i: (tab[i][-1] / tab[i][c], basis[i]))
        tab[r] = [v / tab[r][c] for v in tab[r]]
        for row in tab + [obj]:
            if row is not tab[r]:
                row[:] = [x - row[c] * y for x, y in zip(row, tab[r])]
        basis[r] = c
        if tuple(basis) in seen:
            return True
        seen.add(tuple(basis))
    return False


def relaxations(monkeypatch):
    """A list that collects the rows of every rational test
    ``find_witness`` makes, with the answer, as (eqs, nonneg, nvars,
    infeasible)."""
    calls = []
    test = decide_module._infeasible

    def record(eqs, nonneg, nvars):
        got = test(eqs, nonneg, nvars)
        calls.append((eqs, list(nonneg), nvars, got))
        return got

    monkeypatch.setattr(decide_module, "_infeasible", record)
    return calls


class TestPhaseOneSimplex:
    def test_agrees_with_fraction_reference(self):
        # at most 3 variables and 3 equations keep every elimination
        # under the reference's 4000-row limit
        rng = random.Random(11)
        seen = {True: 0, False: 0}
        for _ in range(600):
            nvars = rng.randrange(1, 4)
            eqs = [([rng.randrange(-3, 4) for _ in range(nvars)],
                    rng.randrange(-4, 5))
                   for _ in range(rng.randrange(1, 4))]
            nonneg = [j for j in range(nvars) if rng.random() < 0.7]
            got = simplex_feasible(eqs, nonneg, nvars)
            ref = ref_fm_feasible(
                [([Fraction(v) for v in c], Fraction(r)) for c, r in eqs],
                nonneg, nvars)
            assert got == ref
            seen[got] += 1
        assert min(seen.values()) > 100

    def test_scaled_and_contradictory_rows(self):
        # 2x + 4y == 6 and x + 2y == 3 are one constraint; x, y >= 0
        assert simplex_feasible([([2, 4], 6), ([1, 2], 3)], [0, 1], 2)
        assert not simplex_feasible([([2, 4], 6), ([1, 2], 4)], [0, 1], 2)
        assert not simplex_feasible([([1, 1], -1)], [0, 1], 2)
        # with y free, x + y == -1 has the solution (0, -1)
        assert simplex_feasible([([1, 1], -1)], [0], 2)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fuzz_relaxations_agree_with_reference(self, seed,
                                                   monkeypatch):
        # every rational test that decide makes on 200 fuzz specs
        calls = relaxations(monkeypatch)
        rng = random.Random(seed)
        for _ in range(200):
            decide(random_fuzz_spec(rng), SearchBudget(12, 40))
        for eqs, nonneg, nvars, infeasible in calls:
            assert simplex_feasible(eqs, nonneg, nvars) == (not infeasible)
            assert ref_fm_feasible(eqs, nonneg, nvars) == (not infeasible)
        assert min(sum(c[3] for c in calls),
                   sum(not c[3] for c in calls)) > 100

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_planted_feasible_point(self, data):
        nvars = data.draw(st.integers(1, 6))
        nonneg = data.draw(st.sets(st.integers(0, nvars - 1)))
        den = data.draw(st.integers(1, 4))
        x = [data.draw(st.integers(0 if j in nonneg else -6, 6))
             for j in range(nvars)]
        rows = data.draw(st.lists(
            st.lists(st.integers(-5, 5), min_size=nvars, max_size=nvars),
            min_size=1, max_size=4))
        # A (x / den) == b with A = den * rows and b = rows . x
        eqs = [([den * v for v in c], sum(v * u for v, u in zip(c, x)))
               for c in rows]
        assert simplex_feasible(eqs, nonneg, nvars)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_planted_farkas_vector(self, data):
        nvars = data.draw(st.integers(1, 6))
        nonneg = data.draw(st.sets(st.integers(0, nvars - 1)))
        m = data.draw(st.integers(1, 4))
        y = data.draw(st.lists(st.integers(-3, 3), min_size=m,
                               max_size=m))
        k = data.draw(st.integers(0, m - 1))
        y[k] = data.draw(st.sampled_from([-1, 1]))
        # every row but k is free; row k sets y.A_j and y.b to a drawn
        # value of the right sign, which y_k = +-1 keeps integral
        eqs = [[[data.draw(st.integers(-5, 5)) for _ in range(nvars)],
                data.draw(st.integers(-5, 5))] for _ in range(m)]
        for j in range(nvars):
            want = data.draw(st.integers(-4, 0)) if j in nonneg else 0
            rest = sum(y[i] * eqs[i][0][j] for i in range(m) if i != k)
            eqs[k][0][j] = (want - rest) * y[k]
        want = data.draw(st.integers(1, 4))
        rest = sum(y[i] * eqs[i][1] for i in range(m) if i != k)
        eqs[k][1] = (want - rest) * y[k]
        check_farkas(eqs, nonneg, nvars, y)
        assert not simplex_feasible(eqs, nonneg, nvars)

    @pytest.mark.parametrize("eqs, nonneg, nvars", [
        # zero right-hand sides: x = 0 solves them
        ([([1, -2, 3], 0), ([2, 1, -1], 0)], [0, 1, 2], 3),
        ([([1, 1, 1], 0), ([1, -1, 0], 0)], [0, 1], 3),
        # a zero row with a zero and a nonzero right-hand side
        ([([0, 0], 0), ([1, -1], 2)], [0, 1], 2),
        ([([0, 0], 0), ([0, 0], 1)], [0, 1], 2),
        # repeated rows, consistent and not
        ([([1, 2, -1], 3), ([1, 2, -1], 3), ([1, 2, -1], 3)], [0, 1, 2], 3),
        ([([1, 2, -1], 3), ([1, 2, -1], 3), ([-1, -2, 1], 3)], [0, 1, 2],
         3),
        ([([1, 1], 2), ([2, 2], 4), ([1, 1], 2), ([1, -1], 0)], [0, 1], 2),
        # tied ratio tests: x0 enters against rows of equal ratio
        ([([1, 1, 0], 1), ([1, 0, 1], 1), ([2, 1, 1], 2)], [0, 1, 2], 3),
        ([([1, 1, 0], 0), ([1, 0, 1], 0), ([1, 1, 1], 1)], [0, 1, 2], 3),
        ([([1, 1, 0], 1), ([2, 0, 1], 2), ([1, -1, 1], 3)], [0, 1, 2], 3),
        ([([2, -1, 0], 0), ([3, 0, -1], 0), ([1, 1, 1], -1)], [0, 1, 2],
         3),
    ])
    def test_degenerate_systems(self, eqs, nonneg, nvars):
        assert (simplex_feasible(eqs, nonneg, nvars)
                == ref_fm_feasible(eqs, nonneg, nvars))

    def test_terminates_where_the_largest_entry_cycles(self):
        # Beale's cycling example in Chvatal's form (rows and objective
        # doubled, slacks x4, x5 explicit) as a phase-1 system: the first
        # two rows have right-hand side 0, and the third makes the sum of
        # the rows the doubled objective.  Entering by largest objective
        # entry, the simplex pivots six times at value 0 and returns to
        # its basis; Bland's rule terminates.  Fourier-Motzkin gives up
        # on these 6 variables, so the reference is a planted point.
        objective = [20, -114, -18, -48, 0, 0]
        r1 = [1, -11, -5, 18, 2, 0]
        r2 = [1, -3, -1, 2, 0, 2]
        r3 = [c - a - b for c, a, b in zip(objective, r1, r2)]
        eqs = [(r1, 0), (r2, 0), (r3, 1)]
        x = [Fraction(1, 2), 0, Fraction(1, 2), 0, 1, 0]
        assert all(sum(v * u for v, u in zip(c, x)) == r for c, r in eqs)
        assert dantzig_cycles(eqs)
        assert simplex_feasible(eqs, range(6), 6)


# Ten maps like a fuzz draw, with middle ratios a/b for b in [20, 60):
# Fourier-Motzkin gave up past 4000 rows on the rational test of letter
# 4 (left), and its search then ran to the budget.
MANY_BRANCH = IfsSpec(
    [Fraction(r) for r in ("1/25", "1/22", "1/33", "2/45", "2/59", "1/11",
                           "1/18", "2/33", "1/28", "1/5")],
    [Fraction(t) for t in ("0", "1/25", "281429/1362900", "40641/113575",
                           "411199/1022175", "445849/1022175",
                           "538774/1022175", "132347/227150", "107/140",
                           "4/5")],
    role="touching")


class TestManyBranches:
    def test_given_up_letter_is_none(self, monkeypatch):
        calls = relaxations(monkeypatch)
        assert find_witness(MANY_BRANCH, 4, "left",
                            SearchBudget(12, 40)) == (None, "none")
        (eqs, nonneg, nvars, infeasible), = calls
        assert infeasible and not simplex_feasible(eqs, nonneg, nvars)

    def test_decide_stays_unknown(self, monkeypatch):
        calls = relaxations(monkeypatch)
        v = decide(MANY_BRANCH, SearchBudget(12, 40))
        assert v.status == "unknown"
        assert v.unresolved == [1, 4, 5, 6, 7, 9]
        for eqs, nonneg, nvars, infeasible in calls:
            assert simplex_feasible(eqs, nonneg, nvars) == (not infeasible)
