"""The kernel over pairs of dusts of different dimension: it accepts none.

Equally spaced dusts whose ratios are all 1/m have dimension log a / log m
for a maps, so two of them with a != b maps are not bi-Lipschitz
equivalent, and a graph that ``check.check_certificate`` accepts over
such a pair is a kernel bug.  The graphs drawn here are near-valid
candidates, not random junk: each side of every edge places copies of
vertices at the leaves of a complete prefix code over that side's
alphabet, mostly the two codes with as many leaves, so a rule that
strips the target's word tiles the source exactly and every ratio is a
power of 1/m.  The same drawing over a pair of one dimension finds a
graph the kernel accepts, so the refusals are the theorem's, not the
generator's.  One field of the dimension-mismatch probe, redrawn, is
refused too."""

from fractions import Fraction
import math

from hypothesis import HealthCheck, find, given, settings, strategies as st

from lipeq.check import (Certificate, Edge, Piece, Vertex,
                         check_certificate, system_digest)
from lipeq.exactnum import ExactRatio
from lipeq.ifs import SpecError, canonical_dust

from test_check import EVEN, FOUR, UNEVEN, one_sided_certificate


# (m, a) -> the equally spaced dust of a maps of ratio 1/m, a in 3..m-1
DUSTS = {(m, a): canonical_dust([ExactRatio(Fraction(1, m))] * a)
         for m in range(5, 9) for a in range(3, m)}


def accepted(pair, cert):
    """Whether the kernel accepts; it may refuse only by its own errors."""
    try:
        return check_certificate(pair, cert)
    except SpecError:          # CertificateError, or a failed disjointness
        return False


@st.composite
def unequal_dusts(draw):
    """Two dusts of ``DUSTS`` with one ratio 1/m and a != b maps."""
    m = draw(st.integers(5, 8))
    a, b = draw(st.lists(st.integers(3, m - 1), min_size=2, max_size=2,
                         unique=True))
    return DUSTS[m, a], DUSTS[m, b]


def prefix_code(draw, n, expansions):
    """A complete prefix code over 1..n: the leaves of the tree grown from
    the empty word by ``expansions`` times replacing a drawn leaf with
    its n children."""
    leaves = [()]
    for _ in range(expansions):
        word = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        leaves += [word + (c,) for c in range(1, n + 1)]
    return leaves


@st.composite
def near_valid(draw, pair):
    """A graph over ``pair``: the whole vertex and up to two more, each
    with one drawn word per side.  Each edge pairs the leaves of a
    complete prefix code on each side, in order of length or in a drawn
    order.  The two codes have as many leaves, or, as drawn, grow from
    independent draws and leave the surplus of one unpaired, which only
    the tiling check refuses.  A piece targets a drawn vertex,
    and on each side adds the source's word and its leaf and strips the
    target's word or nothing, as drawn."""
    a, b = (system.n for system in pair)
    g = math.gcd(a - 1, b - 1)
    keys = [("whole",)] + [("v", j)
                           for j in range(1, draw(st.integers(0, 2)) + 1)]
    words = {("whole",): ((), ())}
    for key in keys[1:]:
        words[key] = tuple(draw(st.lists(st.integers(1, n), min_size=1,
                                         max_size=2).map(tuple))
                           for n in (a, b))
    edges = {}
    for key in keys:
        # e expansions give 1 + e(a - 1) leaves on the left, f give
        # 1 + f(b - 1) on the right: as many for e = t(b - 1)/g and
        # f = t(a - 1)/g
        t = draw(st.integers(1, 2))
        matched = draw(st.booleans())
        codes = [prefix_code(draw, n, t * (other - 1) // g if matched
                             else draw(st.integers(1, 3)))
                 for n, other in ((a, b), (b, a))]
        if draw(st.booleans()):
            codes = [sorted(code, key=len) for code in codes]
        else:
            codes[1] = draw(st.permutations(codes[1]))
        pieces = []
        for leaves in zip(*codes):
            target = draw(st.sampled_from(keys))
            pieces.append(Piece(target, *[
                ((words[target][side] if draw(st.booleans()) else (),
                  words[key][side] + leaf),)
                for side, leaf in enumerate(leaves)]))
        edges[key] = Edge(key, pieces)
    vertices = {k: Vertex(k, [t], [d]) for k, (t, d) in words.items()}
    return Certificate(vertices, edges, *map(system_digest, pair))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_no_graph_joins_dusts_of_different_dimension(data):
    pair = data.draw(unequal_dusts())
    assert not accepted(pair, data.draw(near_valid(pair)))


def test_the_same_drawing_is_accepted_at_one_dimension():
    # EVEN and UNEVEN: three maps of ratio 1/5 each, spaced differently
    pair = (EVEN, UNEVEN)
    find(near_valid(pair), lambda cert: accepted(pair, cert),
         settings=settings(max_examples=2000, database=None))


@st.composite
def redrawn_probe(draw):
    """The dimension-mismatch probe (``one_sided_certificate``) on EVEN
    and FOUR, either way round, with one field redrawn: one side's word
    list of a vertex, or the target or one side's rules of a piece, over
    that side's letters."""
    pair = draw(st.sampled_from([(EVEN, FOUR), (FOUR, EVEN)]))
    cert = one_sided_certificate(pair, draw(st.sampled_from(["tonly",
                                                             "donly"])))
    side = draw(st.integers(0, 1))
    word = st.lists(st.integers(1, pair[side].n), max_size=3).map(tuple)
    field = draw(st.sampled_from(("words", "target", "rules")))
    if field == "words":
        key = draw(st.sampled_from(sorted(cert.vertices)))
        sides = list(cert.vertices[key].words)
        sides[side] = draw(st.lists(word, max_size=4))
        cert.vertices[key] = Vertex(key, *sides)
        return pair, cert
    key = draw(st.sampled_from(sorted(cert.edges)))
    pieces = list(cert.edges[key].pieces)
    i = draw(st.integers(0, len(pieces) - 1))
    if field == "target":
        target = draw(st.sampled_from(sorted(cert.vertices)))
        pieces[i] = Piece(target, *pieces[i].rules)
    else:
        rules = list(pieces[i].rules)
        rules[side] = draw(st.lists(st.tuples(word, word), min_size=1,
                                    max_size=2))
        pieces[i] = Piece(pieces[i].target, *rules)
    cert.edges[key] = Edge(key, pieces)
    return pair, cert


@settings(max_examples=300, deadline=None)
@given(redrawn_probe())
def test_a_redrawn_probe_is_refused(probe):
    assert not accepted(*probe)
