import math
import random
from fractions import Fraction

import pytest

from lipeq import IfsSpec, Verdict, build_certificate, cylsets
from lipeq.check import (Certificate, Edge, Piece, Vertex,
                         check_certificate, system_digest)
from lipeq.decide import (Witness, check_necessary, verify_witness,
                          witness_letters)
from lipeq.exactnum import DeclaredBase, ExactRatio, mult_dependence


def make_one45():
    """Ratios 1/5 at translations 0, 3/5, 4/5: the standard touching
    example whose points have base-5 digits {0, 3, 4}."""
    return IfsSpec([Fraction(1, 5)] * 3,
                   [Fraction(0), Fraction(3, 5), Fraction(4, 5)],
                   role="touching")


def make_equal_spec(n, m, slots):
    """Equal ratios 1/m with maps at grid positions slots/m."""
    return IfsSpec([Fraction(1, m)] * n,
                   [Fraction(k, m) for k in slots],
                   role="touching")


def random_equal_spec(rng):
    """Random valid equal-ratio touching spec with n in 3..6."""
    n = rng.randrange(3, 7)
    while True:
        m = rng.randrange(2 * n, 3 * n + 4)
        inner = sorted(rng.sample(range(1, m - 1), n - 2))
        slots = [0] + inner + [m - 1]
        if len(set(slots)) < n:
            continue
        diffs = [b - a for a, b in zip(slots, slots[1:])]
        if any(d == 1 for d in diffs) and any(d > 1 for d in diffs):
            return make_equal_spec(n, m, slots)


def make_endratio_spec(r1, r3, rng=None, r2=None):
    """n = 3 spec touching at letter 1 with prescribed end ratios."""
    if r2 is None:
        rng = rng or random.Random(0)
        while True:
            r2 = Fraction(rng.randrange(1, 20), rng.randrange(21, 60))
            if r1 + r2 + r3 < 1:
                break
    return IfsSpec([r1, r2, r3], [Fraction(0), r1, 1 - r3],
                   role="touching")


def make_declared_spec():
    """Ratios g, 1/5, g with g a declared base; touching at letter 1."""
    g = DeclaredBase("g", "0.20710678118654752440", digits=18)
    rg = ExactRatio(1, (("g", 1),))
    gval = rg.value({"g": g})
    return IfsSpec([rg, ExactRatio(Fraction(1, 5)), rg],
                   [Fraction(0), gval, 1 - gval], role="touching",
                   bases={"g": g})


def four_map_doc(**fields):
    """Spec document with ratios 1/5, 1/7, 1/9, 1/5 at translations 0,
    1/3, 10/21, 4/5: equal end ratios and letter 2 the one touching
    letter, the shape of the four-map obstruction.  ``fields`` are
    added to the document."""
    return dict({"format": "lipeq-spec", "version": 1, "role": "touching",
                 "ratios": ["1/5", "1/7", "1/9", "1/5"],
                 "translations": ["0", "1/3", "10/21", "4/5"]}, **fields)


@pytest.fixture
def one45():
    return make_one45()


def closed_form_witnesses(spec):
    """Closed-form witnesses when enough ratios share a common power.

    Witnesses of one side exist for every touching letter when rho_1,
    rho_n, rho_anchor and rho_near of every touching letter are pairwise
    multiplicatively dependent: with (near, far, end) from
    ``witness_letters``, the word is far, near^(w-1), anchor^u, where
    rho_near**w and rho_anchor**u are the powers of rho_end that match.
    The right side, anchor alpha, is tried before the left, anchor
    n - beta + 1.  Returns a dict letter -> Witness of source
    "fastpath", or None when neither condition holds.  ``decide`` never
    picks these; the tests use them to build long witnesses.
    """
    st = spec.touching
    n = spec.n
    rho = spec.ratios
    for side, anchor in (("right", st.alpha), ("left", n - st.beta + 1)):
        subs = [(i,) + witness_letters(side, i, n) for i in sorted(st.letters)]
        # pairwise dependence follows from dependence on a common anchor
        base, *rest = dict.fromkeys(
            [rho[0], rho[n - 1], rho[anchor - 1]]
            + [rho[near - 1] for _, near, _, _ in subs])
        if any(mult_dependence(base, r) is None for r in rest):
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


def closed_form_verdict(spec):
    """The "equivalent" verdict whose witnesses are the closed-form ones
    of every touching letter, whatever ``decide`` would pick.  The
    golden files and the tests that pin the closed-form construction
    build their certificates from it."""
    return Verdict("equivalent",
                   "every touching letter substitutable (closed-form "
                   "witnesses)", check_necessary(spec),
                   closed_form_witnesses(spec), [])


def closed_form_certificate(spec):
    return build_certificate(spec, closed_form_verdict(spec))


def identity_certificate(system):
    """The identity certificate over the pair (system, system): the whole
    set tiled by its n level-1 cylinders, checked by the kernel alone."""
    pieces = [Piece(("whole",), (((), (i,)),), (((), (i,)),))
              for i in range(1, system.n + 1)]
    digest = system_digest(system)
    cert = Certificate({("whole",): Vertex(("whole",), ((),), ((),))},
                       {("whole",): Edge(("whole",), pieces)},
                       digest, digest)
    check_certificate((system, system), cert)
    return cert


def verify_expansion(spec, pieces):
    """Exact piecewise bijectivity of an ``expand_map`` result: the leaf
    T-sets tile T and the leaf D-sets tile D, with no shared points across
    pieces."""
    for system, side in ((spec, "t_words"), (spec.dust(), "d_words")):
        words = [getattr(pc, side) for pc in pieces]
        assert cylsets.check_disjoint_groups(system, words) == ((),), side
    return True


def random_unequal_spec(rng, role="touching"):
    """Random valid spec with n in 3..5, unequal ratios and unequal gaps.

    A touching spec touches after at least one letter and leaves a gap
    after another; a dust leaves a gap after every letter."""
    while True:
        n = rng.randrange(3, 6)
        ratios = [Fraction(rng.randrange(1, 4), rng.randrange(4, 4 * n + 8))
                  for _ in range(n)]
        if role == "dust":
            touch = [False] * (n - 1)
        else:
            touch = [rng.random() < 0.5 for _ in range(n - 1)]
            if all(touch) or not any(touch):
                continue
        spec = _gapped_spec(rng, ratios, touch, role)
        if spec is not None:
            return spec


def random_fuzz_spec(rng):
    """Random touching spec with n in 3..5 whose end ratios are powers of
    one integer in {2, 3, 5}, so that they are multiplicatively dependent.
    The middle ratios are random a/b, each letter but the last touches the
    next or leaves a random gap (at least one of each), and half of the
    specs are mirrored."""
    while True:
        n = rng.randrange(3, 6)
        base = rng.choice((2, 3, 5))
        first, last = (Fraction(1, base ** rng.randrange(1, 4))
                       for _ in range(2))
        ratios = ([first]
                  + [Fraction(rng.randrange(1, 4), rng.randrange(4, 28))
                     for _ in range(n - 2)]
                  + [last])
        touch = [rng.random() < 0.5 for _ in range(n - 1)]
        if all(touch) or not any(touch):
            continue
        spec = _gapped_spec(rng, ratios, touch, "touching")
        if spec is not None:
            return spec.mirror() if rng.random() < 0.5 else spec


def _gapped_spec(rng, ratios, touch, role):
    """The spec with these ratios laid out from 0 to 1: letter i touches
    letter i + 1 where touch[i] holds, and is followed by a random share
    of the slack 1 - sum(ratios) elsewhere.  None when there is no
    slack."""
    slack = 1 - sum(ratios)
    if slack <= 0:
        return None
    weights = [0 if t else rng.randrange(1, 5) for t in touch]
    ts = [Fraction(0)]
    for r, w in zip(ratios, weights):
        ts.append(ts[-1] + r + slack * Fraction(w, sum(weights)))
    return IfsSpec(ratios, ts, role=role)
