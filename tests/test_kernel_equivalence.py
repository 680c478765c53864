"""The kernel against a reference kernel that runs every check.

``check.check_certificate`` takes checks 5-7 of a usual piece from its
word, and check 4 on the D side of a twin edge from the T side, by the
arguments of the ``check`` docstring.  ``reference_check`` below is the
kernel without either shortcut: ``rules_affine`` on every piece and the
tiling of both sides of every edge.  On valid certificates and on their
mutants, over pairs with one ratio tuple and pairs without, the kernel
must return or raise exactly as the reference does, with the same
message.  Every mutant's words stay over their side's letters 1..n, a
rule that the kernel checks first and the reference leaves out."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lipeq import check, cylsets, specfile
from lipeq.certify import build_certificate
from lipeq.check import (Certificate, CertificateError, Edge, Piece, Vertex,
                         check_certificate, piece_images, rules_affine)
from lipeq.exactnum import ExactRatio
from lipeq.ifs import IfsSpec

from conftest import make_declared_spec, make_equal_spec, make_one45
from test_check import (EVEN, FIFTH, FOUR, UNEVEN, one_sided_certificate,
                        split_whole, two_vertex_certificate)


def reference_check(pair, cert):
    """``check.check_certificate`` with every check run: the kernel as it
    was before the usual-piece and twin-edge shortcuts."""
    docs = [specfile.spec_to_doc(system) for system in pair]
    for side, doc, digest in zip(check.SIDES, docs,
                                 (cert.spec_digest, cert.dust_digest)):
        if digest != specfile.doc_digest(doc):
            raise CertificateError("certificate was built for a different "
                                   "%s-side system" % side)
    if docs[0].get("bases") != docs[1].get("bases"):
        raise CertificateError("the two systems declare different bases")
    vertices = cert.vertices
    whole = vertices.get(("whole",))
    for i, side in enumerate(check.SIDES):
        if whole is None or whole.words[i] != ((),):
            raise CertificateError("missing or malformed whole-set vertex "
                                   "on the %s side" % side)
    for key, vertex in vertices.items():
        for words, side in zip(vertex.words, check.SIDES):
            if not words:
                raise CertificateError("vertex %r has no %s-side word"
                                       % (key, side))
    if set(cert.edges) != set(vertices):
        raise CertificateError("every vertex needs exactly one edge")
    one = ExactRatio(1)
    bases = pair[0].bases
    ratio1_edges = []
    for key, edge in cert.edges.items():
        if edge.source != key:
            raise CertificateError("edge source mismatch at %r" % (key,))
        if len(edge.pieces) < 2:
            raise CertificateError("edge at %r has fewer than 2 pieces"
                                   % (key,))
        pieces = edge.pieces
        targets = []
        for piece in pieces:
            tgt = vertices.get(piece.target)
            if tgt is None:
                raise CertificateError("unknown target %r" % (piece.target,))
            targets.append(tgt.words)
        ratios = []
        for i, system in enumerate(pair):
            ratios.append([rules_affine(system, p.rules[i], (key, pi))[0]
                           for pi, p in enumerate(pieces)])
            groups = [piece_images(p.rules[i], words[i])
                      for p, words in zip(pieces, targets)]
            if (cylsets.check_disjoint_groups(system, groups)
                    != cylsets.canonicalize(system.n, vertices[key].words[i])):
                raise CertificateError("%s-side tiling mismatch at %r"
                                       % (check.SIDES[i], key))
        for pi, (r, rd) in enumerate(zip(*ratios)):
            if r != rd:
                raise CertificateError("%s: T and D ratios differ"
                                       % check._label((key, pi)))
            if r.interval(bases)[1] > 1:
                raise CertificateError("%s: expanding piece"
                                       % check._label((key, pi)))
            if r == one:
                ratio1_edges.append((key, pieces[pi].target))
    check.check_ratio1_acyclic(ratio1_edges)
    return True


def outcome(kernel, pair, cert):
    """True, or the type and message of what ``kernel`` raises."""
    try:
        return kernel(pair, cert)
    except Exception as e:       # any failure must be the reference's
        return type(e).__name__, str(e)


# the whole set as its three level-1 cylinders on both sides
LEVEL1 = [(1,), (2,), (3,)]


# a dust of ratios 1/5, 1/4, 1/5: EVEN's alphabet and no touching letter,
# another ratio tuple
WIDE = IfsSpec([FIFTH, Fraction(1, 4), FIFTH],
               [Fraction(0), Fraction(7, 20), Fraction(4, 5)], role="dust")
ONE45 = make_one45()
# four maps of ratio 1/10 touching after letters 1 and 2
TWO_TOUCH = make_equal_spec(4, 10, [0, 1, 2, 9])


def _built(spec):
    return (spec, spec.dust()), build_certificate(spec)


def _swapped(spec):
    """A certificate of ``spec`` with its sides swapped, over (dust,
    spec): its D side touches where its T side does not."""
    (_, dust), cert = _built(spec)
    return (dust, spec), Certificate(
        {k: Vertex(k, v.d_words, v.t_words)
         for k, v in cert.vertices.items()},
        {k: Edge(k, [Piece(p.target, p.d_rules, p.t_rules)
                     for p in e.pieces]) for k, e in cert.edges.items()},
        cert.dust_digest, cert.spec_digest)


# name -> (pair, certificate): certificates the mutants start from
BASES = {
    "one45": _built(ONE45),
    "declared": _built(make_declared_spec()),
    "two-touch": _built(TWO_TOUCH),
    "one45-swapped": _swapped(ONE45),
    "even-uneven": ((EVEN, UNEVEN), two_vertex_certificate((EVEN, UNEVEN))),
    "uneven-even": ((UNEVEN, EVEN), two_vertex_certificate((UNEVEN, EVEN))),
    "dimension-probe": ((EVEN, FOUR),
                        one_sided_certificate((EVEN, FOUR), "tonly")),
    # refused on ratios, with another ratio tuple on the right
    "even-wide": ((EVEN, WIDE), split_whole((EVEN, WIDE), LEVEL1, LEVEL1)),
    # refused on the D side, which touches where the T side does not
    "even-one45": ((EVEN, ONE45),
                   split_whole((EVEN, ONE45), LEVEL1, LEVEL1)),
    # refused on the D side, whose alphabet is larger
    "even-four": ((EVEN, FOUR), split_whole((EVEN, FOUR), LEVEL1, LEVEL1)),
}


@pytest.mark.parametrize("name", sorted(BASES))
def test_bases_as_the_reference(name):
    pair, cert = BASES[name]
    assert outcome(check_certificate, pair, cert) == \
        outcome(reference_check, pair, cert)


@pytest.mark.parametrize("name, message", [
    ("even-wide", r"^\('whole',\) piece 1: T and D ratios differ$"),
    ("even-one45", r"^pieces touch at a point: \(2,\) \| \(3,\)$"),
    ("even-four", r"^D-side tiling mismatch at \('whole',\)$")])
def test_each_guard_of_a_shortcut_is_needed(name, message):
    # without the one-ratio-tuple guard the kernel would accept even-wide;
    # without the same-n-and-touching guard, even-one45 and even-four,
    # the last a pair of dusts of different dimension
    pair, cert = BASES[name]
    with pytest.raises(check.SpecError, match=message):
        check_certificate(pair, cert)


# ---------------------------------------------------------------------------
# mutants

def _copy(cert):
    return Certificate(dict(cert.vertices), dict(cert.edges),
                       cert.spec_digest, cert.dust_digest)


def _set_piece(cert, key, i, piece):
    pieces = list(cert.edges[key].pieces)
    pieces[i] = piece
    cert.edges[key] = Edge(key, pieces)


def _changed_word(draw, word, n):
    """``word`` with a letter of 1..n appended, its last letter dropped,
    or its last letter replaced."""
    how = draw(st.sampled_from(("append", "drop", "replace")))
    if how == "append" or not word:
        return tuple(word) + (draw(st.integers(1, n)),)
    if how == "drop":
        return tuple(word[:-1])
    return tuple(word[:-1]) + (draw(st.integers(1, n)),)


def _is_twin(cert, edge):
    return all(cert.vertices[k].t_words == cert.vertices[k].d_words
               for k in [edge.source] + [p.target for p in edge.pieces]
               if k in cert.vertices) and all(
        p.t_rules == p.d_rules for p in edge.pieces)


def mutate(draw, pair, cert):
    """One mutation of ``cert`` over ``pair``, drawn with ``draw``."""
    cert = _copy(cert)
    keys = sorted(cert.edges, key=repr)
    key = draw(st.sampled_from(keys))
    pieces = cert.edges[key].pieces
    if not pieces:
        return cert
    i = draw(st.integers(0, len(pieces) - 1))
    piece = pieces[i]
    kind = draw(st.sampled_from(("retarget", "drop", "duplicate", "swap",
                                 "cross", "d-word", "splice")))
    if kind == "retarget":
        target = draw(st.sampled_from(sorted(cert.vertices, key=repr)))
        _set_piece(cert, key, i, Piece(target, *piece.rules))
    elif kind == "drop":
        cert.edges[key] = Edge(key, pieces[:i] + pieces[i + 1:])
    elif kind == "duplicate":
        j = draw(st.integers(0, len(pieces)))
        cert.edges[key] = Edge(key, pieces[:j] + [piece] + pieces[j:])
    elif kind == "swap":
        _set_piece(cert, key, i, Piece(piece.target, piece.d_rules,
                                       piece.t_rules))
    elif kind == "cross":
        # a T-side rule of a piece of any edge becomes this piece's D rule
        other = draw(st.sampled_from(
            [p for k in keys for p in cert.edges[k].pieces]))
        if max((max(w, default=0) for r in other.t_rules for w in r),
               default=0) <= pair[1].n:
            _set_piece(cert, key, i, Piece(piece.target, piece.t_rules,
                                           other.t_rules))
    elif kind == "d-word":
        # one D-side word of a twin edge: of its source or of a D rule
        twins = [k for k in keys if cert.edges[k].pieces
                 and cert.vertices[k].d_words
                 and _is_twin(cert, cert.edges[k])]
        if twins:
            key = draw(st.sampled_from(twins))
            pieces = cert.edges[key].pieces
            n = pair[1].n
            if draw(st.booleans()):
                v = cert.vertices[key]
                words = list(v.d_words)
                j = draw(st.integers(0, len(words) - 1))
                words[j] = _changed_word(draw, words[j], n)
                cert.vertices[key] = Vertex(key, v.t_words, words)
            else:
                i = draw(st.integers(0, len(pieces) - 1))
                piece = pieces[i]
                rules = list(piece.d_rules)
                j = draw(st.integers(0, len(rules) - 1))
                strip, add = rules[j]
                rules[j] = (strip, _changed_word(draw, add, n))
                _set_piece(cert, key, i, Piece(piece.target, piece.t_rules,
                                               rules))
    else:
        # the vertices and edges of another certificate over a pair with
        # the same alphabets, at the keys the two share
        ns = (pair[0].n, pair[1].n)
        donors = [name for name, (p, _) in sorted(BASES.items())
                  if (p[0].n, p[1].n) == ns]
        other = BASES[draw(st.sampled_from(donors))][1]
        shared = sorted(set(other.edges) & set(cert.edges), key=repr)
        for k in draw(st.lists(st.sampled_from(shared), min_size=1,
                               max_size=3)):
            cert.vertices[k] = other.vertices[k]
            cert.edges[k] = other.edges[k]
    return cert


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutants_as_the_reference(data):
    name = data.draw(st.sampled_from(sorted(BASES)))
    pair, cert = BASES[name]
    for _ in range(data.draw(st.integers(1, 3))):
        cert = mutate(data.draw, pair, cert)
    assert outcome(check_certificate, pair, cert) == \
        outcome(reference_check, pair, cert)


def test_mutants_reach_both_verdicts():
    # the suite is a comparison only if the mutants are both accepted and
    # refused: count both over a fixed sample
    verdicts = set()
    rng = random.Random(3)
    for name in sorted(BASES):
        pair, cert = BASES[name]
        for key, edge in sorted(cert.edges.items(), key=repr):
            i = rng.randrange(len(edge.pieces))
            bad = _copy(cert)
            piece = edge.pieces[i]
            _set_piece(bad, key, i, Piece(piece.target, piece.d_rules,
                                          piece.t_rules))
            verdicts.add(outcome(check_certificate, pair, bad) is True)
    assert verdicts == {True, False}
