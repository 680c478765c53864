"""Graph-directed decomposition certificates and their expansion.

A certificate pairs the touching attractor T with its equally spaced dust
counterpart D through a finite vertex family: the whole sets, the level-1
connected blocks, and three nested neighbourhoods of each touching point.
Every vertex carries a T-side and a D-side cylinder set and exactly one
edge whose pieces tile both sides by similar copies of other vertices
with identical ratios piece by piece.  Matching tilings with equal ratios
force the two sides to be bi-Lipschitz equivalent, so a certificate that
validates is a machine-checkable witness of equivalence.

Everything is constructed *and* re-verified with exact arithmetic; any
mismatch raises instead of producing an unsound certificate.
"""

from fractions import Fraction
import math
import random

from .exactnum import ExactRatio, mult_dependence
from .ifs import SpecError
from . import cylsets, specfile
from .decide import decide, verify_witness, witness_letters, Witness
from .patches import left_patch_words, right_patch_words
from .tstar import (Context, Placement, DepthError, ldiff, rdiff,
                    hole_diff_left, hole_diff_right, block_decompose,
                    _hole_fits)

CERT_FORMAT = "lipeq-certificate"
CERT_VERSION = 1
# the most multiples of the end-ratio dependence that ``choose_pq`` tries
MAX_PQ_MULTIPLE = 16


class CertificateError(SpecError):
    pass


# ---------------------------------------------------------------------------
# word rewrite rules

def apply_rules(rules, word):
    for strip, add in rules:
        if word[:len(strip)] == strip:
            return add + word[len(strip):]
    raise CertificateError("no rule matches word %r" % (word,))


def compose_rules(outer, inner):
    """Rules applying ``inner`` then ``outer``."""
    out = []
    for s2, a2 in inner:
        for s1, a1 in outer:
            if len(a2) >= len(s1):
                if a2[:len(s1)] == s1:
                    out.append((s2, a1 + a2[len(s1):]))
            else:
                if s1[:len(a2)] == a2:
                    out.append((s2 + s1[len(a2):], a1))
    if not out:
        raise CertificateError("rule composition has empty domain")
    # drop rules shadowed by an identical earlier strip
    seen = set()
    res = []
    for s, a in out:
        if s not in seen:
            seen.add(s)
            res.append((s, a))
    return tuple(res)


def rule_affine(system, rule):
    """Exact (ratio, scale, offset) of x -> psi_add(psi_strip^(-1)(x)).

    The usual rule ((), add) with a rational ratio is psi_add itself: its
    scale is the ratio's scalar and its offset psi_add(0).  Symbolic
    ratios take the general formula, which keeps the type, and so the
    formatted string, of a symbolic offset."""
    strip, add = rule
    if not strip:
        r = system.ratio_word(add)
        if not r.sym:
            return r, r.scalar, system.cyl_lo(add)
    r = system.ratio_word(add) / system.ratio_word(strip)
    scale = r.value(system.bases)
    offset = system.cyl_lo(add) - scale * system.cyl_lo(strip)
    return r, scale, offset


def rules_affine(system, rules, where=""):
    """Common affine of a rule set; all rules must agree exactly.

    Results are kept on ``system``, keyed by the rule tuple, so each
    piece's similarity is derived once per system; a rule set whose rules
    disagree is never stored and raises on every call.  ``where`` names
    the rule set in that error: a label, or the (vertex key, piece index)
    of a certificate piece, formatted only when the error is raised."""
    cache = system._rules_cache
    got = cache.get(rules)
    if got is not None:
        return got
    r0, s0, o0 = rule_affine(system, rules[0])
    for rule in rules[1:]:
        r, s, o = rule_affine(system, rule)
        if r != r0 or s != s0 or o != o0:
            raise CertificateError(
                "%s: rules describe different similarities" % _label(where))
    if len(cache) < 400000:
        cache[rules] = (r0, s0, o0)
    return r0, s0, o0


def _label(where):
    if isinstance(where, tuple):
        return "%r piece %d" % where
    return where


# ---------------------------------------------------------------------------
# data model

class Vertex:
    def __init__(self, key, t_words, d_words):
        self.key = tuple(key)
        self.t_words = tuple(t_words)
        self.d_words = tuple(d_words)

    def hulls(self, spec, dust):
        t_lo = min(spec.cyl_lo(w) for w in self.t_words)
        t_hi = max(spec.cyl_hi(w) for w in self.t_words)
        d_lo = min(dust.cyl_lo(w) for w in self.d_words)
        d_hi = max(dust.cyl_hi(w) for w in self.d_words)
        return t_lo, t_hi, d_lo, d_hi


class Piece:
    """One piece of an edge: a copy of vertex ``target`` placed by the
    rule sets ``t_rules`` and ``d_rules``, each a sequence of (strip, add)
    pairs of word tuples.  A tuple of rules is kept as it is."""

    def __init__(self, target, t_rules, d_rules):
        self.target = tuple(target)
        self.t_rules = tuple(t_rules)
        self.d_rules = tuple(d_rules)


class Edge:
    def __init__(self, source, pieces):
        self.source = tuple(source)
        self.pieces = list(pieces)


class Certificate:
    def __init__(self, p, q, p0, q0, witnesses, vertices, edges,
                 spec_digest, dust_digest):
        self.p = p
        self.q = q
        self.p0 = p0
        self.q0 = q0
        self.witnesses = dict(witnesses)   # letter -> Witness
        self.vertices = dict(vertices)     # key -> Vertex
        self.edges = dict(edges)           # key -> Edge
        self.spec_digest = spec_digest
        self.dust_digest = dust_digest


def _fam_key(pl):
    return {1: ("comp1", pl.idx), 2: ("touch2", pl.idx),
            3: ("touch3", pl.idx)}[pl.fam]


def _std_piece(pl):
    rules = (((), pl.prefix),)
    return Piece(_fam_key(pl), rules, rules)


# ---------------------------------------------------------------------------
# (p, q) selection

def _along(letter, p, q):
    """(patch words, patch-difference engine, depth) of the patches that
    descend along ``letter``, which is 1 or n: L_k, ``ldiff`` and p along
    1, R_k, ``rdiff`` and q along n."""
    if letter == 1:
        return left_patch_words, ldiff, p
    return right_patch_words, rdiff, q


def check_pq_restrictions(spec, dust, witnesses, p, q):
    """The displayed patch-disjointness conditions for a candidate (p, q),
    after the depth conditions of the hole engines (``tstar._hole_fits``).

    Exact word-level verification; raises on any violation."""
    n = spec.n
    for i, w in sorted(witnesses.items()):
        kp, j = w.kp, w.word
        near, _, end = witness_letters(w.side, i, n)
        if not _hole_fits(n, p, q, end, kp, j):
            raise DepthError("witness %r needs larger (p, q)" % (w,))
        opp = n + 1 - end
        hole_patch = _along(end, p, q)[0]
        near_patch, _, depth = _along(opp, p, q)
        hole_t = hole_patch(spec, (near,) + (opp,) * (2 * depth) + j, kp)
        tail_t = near_patch(spec, (near,), 3 * depth)
        cylsets.check_disjoint_groups(spec, [hole_t, tail_t])
        cylsets.check_disjoint_groups(dust, [hole_t, tail_t])
        hole_d = hole_patch(spec, (near,) + j, kp)
        near_d = near_patch(spec, (near,), depth)
        cylsets.check_disjoint_groups(dust, [hole_d, near_d])


def _pq_floor(witnesses):
    """min(p, q) must exceed this: the deepest witness."""
    return max((w.depth for w in witnesses.values()), default=0)


def choose_pq(spec, witnesses):
    """Smallest multiple (p, q) of the base dependence (p0, q0) past the
    witnesses' depth that passes ``check_pq_restrictions``, exactly.

    This is the one place where (p, q) is decided; ``build_certificate``
    builds at it once.  The hole engines accept it, as it passes their
    own condition (``tstar._hole_fits``), and so does the joint guard of
    ``tstar.trace``, which they call: each joint inside a hole's trace
    ranges has at most max(k' + |j|, 1) < min(p, q) trailing letters."""
    pq0 = mult_dependence(spec.ratios[0], spec.ratios[-1])
    if pq0 is None:
        raise CertificateError("end ratios are multiplicatively independent")
    p0, q0 = pq0
    dust = spec.dust()
    for m in range(_pq_floor(witnesses) // min(p0, q0) + 1,
                   MAX_PQ_MULTIPLE + 1):
        p, q = m * p0, m * q0
        try:
            check_pq_restrictions(spec, dust, witnesses, p, q)
            return p, q, p0, q0
        except SpecError:
            continue
    raise CertificateError("no admissible (p, q) within %d multiples"
                           % MAX_PQ_MULTIPLE)


# ---------------------------------------------------------------------------
# vertices and edges

def build_vertices(ctx, witnesses):
    spec = ctx.spec
    n = spec.n
    out = {}
    out[("whole",)] = Vertex(("whole",), ((),), ((),))
    for idx in range(1, ctx.c1 + 1):
        ws = ctx.family_words(1, idx)
        out[("comp1", idx)] = Vertex(("comp1", idx), ws, ws)
    for i in sorted(ctx.touch):
        w2 = ctx.family_words(2, i)
        out[("touch2", i)] = Vertex(("touch2", i), w2, w2)
        w3 = ctx.family_words(3, i)
        out[("touch3", i)] = Vertex(("touch3", i), w3, w3)
        wit = witnesses[i]
        near, far, end = witness_letters(wit.side, i, n)
        hole_patch = _along(end, ctx.p, ctx.q)[0]
        near_patch, _, depth = _along(n + 1 - end, ctx.p, ctx.q)
        near_words = near_patch(spec, (near,), depth)
        t4 = near_words + hole_patch(spec, (far,), wit.k)
        d4 = near_words + hole_patch(spec, (near,) + wit.word, wit.kp)
        out[("touch4", i)] = Vertex(("touch4", i),
                                    cylsets.canonicalize(n, t4),
                                    cylsets.canonicalize(n, d4))
    return out


def decompose_vertex(ctx, witnesses, vkey):
    """The Edge for one vertex, per the constructive decompositions.

    Every placement the tiling engines return becomes a piece of this
    edge, unchecked.  ``verify_certificate``, which ``build_certificate``
    runs on every certificate it returns, checks that the edge's pieces
    are pairwise point-disjoint with union the source vertex, on the T
    and on the D side.  That alone suffices: validity needs only pairwise
    disjoint pieces within each vertex, the contract under which ``lipeq
    verify`` accepts a stored certificate, and not the separateness of a
    block piece from the rest of the attractor.

    The touch3 and touch4 edges of a witness follow from its letters
    (``witness_letters``): the near patch descends along the boundary
    letter opposite ``end``, the far side and the hole along ``end``.
    Both edges hold the same hole pieces, which the hole engine computes
    once per letter into ``ctx.holes``.
    """
    spec = ctx.spec
    n, p, q, c1 = spec.n, ctx.p, ctx.q, ctx.c1
    kind = vkey[0]
    if kind == "whole":
        pieces = [Piece(("comp1", j), (((), ()),), (((), ()),))
                  for j in range(1, c1 + 1)]
        return Edge(vkey, pieces)
    if kind == "comp1":
        return Edge(vkey, [_std_piece(pl) for pl in
                           block_decompose(ctx, vkey[1])])
    i = vkey[1]
    wit = witnesses[i]
    k, kp, j = wit.k, wit.kp, wit.word
    if kind == "touch2":
        pls = (rdiff(ctx, (i,), 0, q)
               + ldiff(ctx, (i + 1,), 0, p)
               + [Placement((), 3, i)])
        return Edge(vkey, [_std_piece(pl) for pl in pls])

    near, far, end = witness_letters(wit.side, i, n)
    opp = n + 1 - end
    _, diff, depth = _along(end, p, q)
    near_depth = _along(opp, p, q)[2]
    block = 1 if end == 1 else c1
    near_rule = ((near,), (near,) + (opp,) * (2 * near_depth))
    rec_t = (near_rule, ((far,), (far,) + (end,) * (2 * depth)))
    rec_d = (near_rule,)
    if i not in ctx.holes:
        hole_diff = hole_diff_left if end == 1 else hole_diff_right
        ctx.holes[i] = [_std_piece(pl) for pl in hole_diff(ctx, i, kp, j)]
    pieces = list(ctx.holes[i])
    sub_t = near_rule[1] + j + (end,) * kp  # the replaced patch
    if kind == "touch3":
        # the pieces in spatial order: the hole lies on the near side
        diff_pieces = [_std_piece(pl) for pl in
                       diff(ctx, (far,), depth, 2 * depth + k)]
        if near < far:
            pieces += diff_pieces
        else:
            pieces = diff_pieces + pieces
        sub_d = (far,) + (end,) * (2 * depth + k)
    else:
        for pl in diff(ctx, (), 0, 2 * depth):
            pieces.append(Piece(
                _fam_key(pl),
                (((), (far,) + (end,) * k + pl.prefix),),
                (((), (near,) + j + (end,) * kp + pl.prefix),)))
        sub_d = (near,) + j + (end,) * (2 * depth + kp)
    pieces.append(Piece(("comp1", block), (((), sub_t),), (((), sub_d),)))
    pieces.append(Piece(("touch4", i), rec_t, rec_d))
    return Edge(vkey, pieces)


def build_certificate(spec, verdict=None):
    """Construct and fully validate the certificate for a spec whose
    verdict is Equivalent."""
    if verdict is None:
        verdict = decide(spec)
    if verdict.status != "equivalent":
        raise CertificateError("no certificate: verdict is %s (%s)"
                               % (verdict.status, verdict.reason))
    witnesses = verdict.witnesses
    p, q, p0, q0 = choose_pq(spec, witnesses)
    ctx = Context(spec, p, q)
    vertices = build_vertices(ctx, witnesses)
    edges = {key: decompose_vertex(ctx, witnesses, key) for key in vertices}
    cert = Certificate(p, q, p0, q0, witnesses, vertices, edges,
                       specfile.doc_digest(specfile.spec_to_doc(spec)),
                       specfile.doc_digest(specfile.spec_to_doc(spec.dust())))
    verify_certificate(spec, cert)
    return cert


# ---------------------------------------------------------------------------
# validation

def _piece_images(rules, words):
    """The words of ``words`` rewritten by ``rules``.  The usual single
    rule ((), add) prefixes every word with ``add``."""
    if len(rules) == 1 and not rules[0][0]:
        add = rules[0][1]
        return tuple([add + w for w in words])
    return tuple([apply_rules(rules, w) for w in words])


def _check_pq(spec, cert):
    """The stored exponents are those the construction chooses from:
    (p0, q0) the end-ratio dependence, (p, q) a positive multiple of it,
    and min(p, q) past the witnesses' depth bound."""
    pq0 = mult_dependence(spec.ratios[0], spec.ratios[-1])
    if (cert.p0, cert.q0) != pq0:
        raise CertificateError("stored (p0, q0) = (%d, %d) is not the "
                               "end-ratio dependence %r"
                               % (cert.p0, cert.q0, pq0))
    m = cert.p // cert.p0
    if m < 1 or (cert.p, cert.q) != (m * cert.p0, m * cert.q0):
        raise CertificateError("stored (p, q) = (%d, %d) is not a positive "
                               "multiple of (p0, q0)" % (cert.p, cert.q))
    need = _pq_floor(cert.witnesses)
    if min(cert.p, cert.q) <= need:
        raise CertificateError("stored p, q must exceed %d" % need)


def verify_certificate(spec, cert):
    """Re-verify every certificate invariant from scratch.

    Checks: one witness per touching letter, the stored (p0, q0) and
    (p, q) against the end ratios and the witnesses, vertex keys and
    1 + c1 + 3|touching| count, exact edge tilings on the T and D sides,
    per-piece ratio equality, and contraction around every cycle.
    Raises CertificateError (or the SpecError of a failed disjointness
    check) on the first violation.
    This is the one exact validator of a certificate: ``build_certificate``
    runs it on everything it builds, and the tiling engines only
    construct.

    The measure identity at the similarity dimension s, that the natural
    measure of each source is the sum over its pieces of r^s times the
    measure of the piece's target, is implied and not checked.
    ``rules_affine`` makes every rule of a piece describe one similarity
    phi of ratio r, and a rule (strip, add) maps the cylinder of a target
    word w to phi(T_w), so the piece's T-side image is phi(target) and has
    r^s times the target's measure.  The exact T-side tiling makes the
    images of an edge's pieces pairwise point-disjoint with union equal
    to the source, so their measures add up to the source's.

    Each piece's similarity is derived from its rules once per command:
    ``rules_affine`` keeps the result on ``spec`` and on ``spec.dust()``,
    where serialization (``cert_to_doc``) and the stored-string comparison
    of ``verify_cert_doc`` find it again.
    """
    dust = spec.dust()
    if cert.spec_digest != specfile.doc_digest(specfile.spec_to_doc(spec)):
        raise CertificateError("certificate was built for a different spec")
    if cert.dust_digest != specfile.doc_digest(specfile.spec_to_doc(dust)):
        raise CertificateError("dust digest mismatch")
    ctx = Context(spec, cert.p, cert.q)
    if set(cert.witnesses) != ctx.touch:
        raise CertificateError("witness letters %s are not the touching "
                               "letters %s" % (sorted(cert.witnesses),
                                               sorted(ctx.touch)))
    _check_pq(spec, cert)
    expected = 1 + ctx.c1 + 3 * len(ctx.touch)
    if spec.role == "touching" and len(cert.vertices) != expected:
        raise CertificateError("expected %d vertices, found %d"
                               % (expected, len(cert.vertices)))
    if set(cert.edges) != set(cert.vertices):
        raise CertificateError("every vertex needs exactly one edge")
    if ("whole",) not in cert.vertices or \
            cert.vertices[("whole",)].t_words != ((),):
        raise CertificateError("missing or malformed whole-set vertex")
    for i, w in cert.witnesses.items():
        verify_witness(spec, w)

    n = spec.n
    one = ExactRatio(1)
    vertices = cert.vertices
    ratio1_edges = []
    # id(ratio) -> (ratio, is it 1?): the rule sets of a system share
    # their ratio objects through ``rules_affine``, so each is tested once
    checked_ratios = {}
    for key, edge in cert.edges.items():
        if edge.source != key:
            raise CertificateError("edge source mismatch at %r" % (key,))
        src = vertices[key]
        if len(edge.pieces) < 2:
            raise CertificateError("edge at %r has fewer than 2 pieces"
                                   % (key,))
        t_groups, d_groups = [], []
        for pi, piece in enumerate(edge.pieces):
            tgt = vertices.get(piece.target)
            if tgt is None:
                raise CertificateError("unknown target %r" % (piece.target,))
            rt = rules_affine(spec, piece.t_rules, (key, pi))[0]
            rd = rules_affine(dust, piece.d_rules, (key, pi))[0]
            # a spec and its dust share one ratio-word table, so equal
            # ratios of the usual rules are one object
            if rt is not rd and rt != rd:
                raise CertificateError("%s: T and D ratios differ"
                                       % _label((key, pi)))
            seen = checked_ratios.get(id(rt))
            if seen is None:
                if rt.interval(spec.bases)[1] > 1:
                    raise CertificateError("%s: expanding piece"
                                           % _label((key, pi)))
                seen = checked_ratios[id(rt)] = (rt, rt == one)
            if seen[1]:
                ratio1_edges.append((key, piece.target))
            t_groups.append(_piece_images(piece.t_rules, tgt.t_words))
            d_groups.append(_piece_images(piece.d_rules, tgt.d_words))
        if (cylsets.check_disjoint_groups(spec, t_groups)
                != cylsets.canonicalize(n, src.t_words)):
            raise CertificateError("T-side tiling mismatch at %r" % (key,))
        if (cylsets.check_disjoint_groups(dust, d_groups)
                != cylsets.canonicalize(n, src.d_words)):
            raise CertificateError("D-side tiling mismatch at %r" % (key,))
    _check_ratio1_acyclic(ratio1_edges)
    return True


def _check_ratio1_acyclic(pairs):
    graph = {}
    for a, b in pairs:
        graph.setdefault(a, []).append(b)
    state = {}

    def dfs(v):
        state[v] = 1
        for w in graph.get(v, ()):
            if state.get(w) == 1:
                raise CertificateError("cycle of ratio-1 pieces")
            if w not in state:
                dfs(w)
        state[v] = 2

    for v in list(graph):
        if v not in state:
            dfs(v)


# ---------------------------------------------------------------------------
# expansion and distortion

class ExpandPiece:
    __slots__ = ("vkey", "t_words", "d_words", "t_scale", "t_offset",
                 "d_scale", "d_offset")

    def __init__(self, vkey, t_words, d_words, t_scale, t_offset,
                 d_scale, d_offset):
        self.vkey = vkey
        self.t_words = t_words
        self.d_words = d_words
        self.t_scale = t_scale
        self.t_offset = t_offset
        self.d_scale = d_scale
        self.d_offset = d_offset


def expand_map(spec, cert, depth):
    """Unroll the certificate recursion ``depth`` times.

    Returns the list of leaf pieces, each pairing a T-side cylinder union
    with a D-side one through explicit increasing similarities.

    ``cert`` must have passed ``verify_certificate``, and then the leaves
    tile T and D with equal ratios on both sides, so neither is checked
    here.  Validation shows that on each side the piece images of every
    edge are pairwise point-disjoint and their union is the source.  All
    rules of a rule set describe one injective similarity
    (``rules_affine``).  ``compose_rules`` rewrites each word as the two
    rule sets do in turn.  So, by induction on the depth, the leaves tile
    T and D: at depth 0 the one leaf is the whole set on both sides, and
    the children of a leaf are the images of its vertex's pieces under
    the leaf's injective similarity, pairwise point-disjoint with union
    the leaf.  Each leaf's two ratios are products of equal piece ratios.
    ``verify_expansion`` checks the tiling of a result directly.
    """
    dust = spec.dust()
    ident = (((), ()),)
    leaves = [(("whole",), ident, ident)]
    for _ in range(depth):
        nxt = []
        for vkey, tr, dr in leaves:
            for piece in cert.edges[vkey].pieces:
                nxt.append((piece.target,
                            compose_rules(tr, piece.t_rules),
                            compose_rules(dr, piece.d_rules)))
        leaves = nxt
    out = []
    for vkey, tr, dr in leaves:
        v = cert.vertices[vkey]
        ts, to = rules_affine(spec, tr, "expand")[1:]
        ds, do = rules_affine(dust, dr, "expand")[1:]
        out.append(ExpandPiece(
            vkey,
            _piece_images(tr, v.t_words),
            _piece_images(dr, v.d_words),
            ts, to, ds, do))
    return out


def leaf_counts(cert):
    """The leaf counts of ``expand_map(spec, cert, d)`` for d = 0, 1, 2, ...
    (an endless generator), exactly: e_whole M^d 1 for the piece-count
    matrix M of the certificate, whose (u, v) entry is the number of
    pieces of u's edge that target v.  Needs a validated certificate:
    every target is a vertex with an edge."""
    counts = {("whole",): 1}
    while True:
        yield sum(counts.values())
        nxt = {}
        for key, c in counts.items():
            for piece in cert.edges[key].pieces:
                nxt[piece.target] = nxt.get(piece.target, 0) + c
        counts = nxt


def verify_expansion(spec, cert, pieces):
    """Exact piecewise bijectivity: leaf T-sets tile T, leaf D-sets tile
    D, with no shared points across pieces."""
    dust = spec.dust()
    if cylsets.check_disjoint_groups(spec, [p.t_words for p in pieces]) \
            != ((),):
        raise CertificateError("expansion T-side does not tile T")
    if cylsets.check_disjoint_groups(dust, [p.d_words for p in pieces]) \
            != ((),):
        raise CertificateError("expansion D-side does not tile D")
    return True


def leaf_hulls(spec, cert, pieces):
    """(t_lo, t_hi, d_lo, d_hi), the T-hull and D-hull of each leaf of
    ``pieces`` (an ``expand_map`` result), from its similarities.

    A leaf's T-hull is (t_scale*t_lo + t_offset, t_scale*t_hi + t_offset)
    for the T-hull (t_lo, t_hi) of its vertex, and its D-hull likewise.
    This is an exact identity.  ``rules_affine`` makes every rule of the
    leaf describe one increasing similarity phi, and a rule (strip, add)
    maps the cylinder of a vertex word w = strip + u, psi_strip(T_u), to
    psi_add(T_u) = phi(T_w).  So ``cyl_lo`` and ``cyl_hi`` of every image
    word are phi of those of w, and phi, being increasing, maps the least
    and greatest of them to the least and greatest of the images.  Each
    vertex's hulls are found once, by ``Vertex.hulls``."""
    dust = spec.dust()
    hulls = {}
    out = []
    for pc in pieces:
        h = hulls.get(pc.vkey)
        if h is None:
            h = hulls[pc.vkey] = cert.vertices[pc.vkey].hulls(spec, dust)
        t_lo, t_hi, d_lo, d_hi = h
        ts, to, ds, do = pc.t_scale, pc.t_offset, pc.d_scale, pc.d_offset
        out.append((ts * t_lo + to, ts * t_hi + to,
                    ds * d_lo + do, ds * d_hi + do))
    return out


def distortion_report(spec, cert, depth, sample_pairs=4000, seed=7,
                      pieces=None):
    """Empirical bi-Lipschitz bounds of the finite-depth correspondence.

    Each leaf contributes both hull endpoint pairs (left of T-set with
    left of D-set, right with right); the hulls come from the leaves'
    similarities (``leaf_hulls``).  The ratio extremes are taken over all
    consecutive pairs in both coordinate orders, where they are attained,
    plus a seeded random sample of long-range pairs.  ``pieces`` is
    ``expand_map(spec, cert, depth)`` when the caller has it already;
    otherwise it is computed here.

    All coordinates and differences are exact; only the quotients are
    floats, each the correctly rounded value of an exact quotient, so
    arbitrarily close points are handled safely.  When every coordinate
    is a Fraction, each side is written over one common denominator
    (D_T and D_D): the points are sorted by their integer numerators, and
    dy/dx is formed as (dY*D_T) / (dX*D_D), an int true division that
    rounds once.  The points and their order are those of the set of
    hull endpoints, so ties sort and the seeded sample draws as they
    would over the exact coordinates.
    """
    if pieces is None:
        pieces = expand_map(spec, cert, depth)
    pts = set()
    for t_lo, t_hi, d_lo, d_hi in leaf_hulls(spec, cert, pieces):
        pts.add((t_lo, d_lo))
        pts.add((t_hi, d_hi))
    pts = list(pts)
    if all(type(x) is Fraction and type(y) is Fraction for x, y in pts):
        den_t = math.lcm(*[x.denominator for x, _ in pts])
        den_d = math.lcm(*[y.denominator for _, y in pts])
        pts = [(x.numerator * (den_t // x.denominator),
                y.numerator * (den_d // y.denominator)) for x, y in pts]

        def quotient(dx, dy):
            return (dy * den_t) / (dx * den_d)
    else:
        def quotient(dx, dy):
            if isinstance(dx, Fraction) and isinstance(dy, Fraction):
                return float(dy / dx)
            return float(dy) / float(dx)
    pairs = []
    orders = [sorted(pts, key=lambda p: p[0]),
              sorted(pts, key=lambda p: p[1])]
    for order in orders:
        pairs.extend(zip(order, order[1:]))
    lst = orders[0]
    m = len(lst)
    rng = random.Random(seed)
    for _ in range(min(sample_pairs, m * (m - 1) // 2)):
        a = rng.randrange(m)
        b = rng.randrange(m)
        if a != b:
            pairs.append((lst[a], lst[b]))
    c_low = c_high = None
    for a, b in pairs:
        dx = abs(a[0] - b[0])
        dy = abs(a[1] - b[1])
        if dx == 0 or dy == 0:
            continue
        r = quotient(dx, dy)
        if c_low is None or r < c_low:
            c_low = r
        if c_high is None or r > c_high:
            c_high = r
    if c_low is None:
        raise CertificateError("no usable point pairs at depth %d" % depth)
    return (c_low, c_high)


def identity_certificate(spec):
    """The trivial self-certificate of a dust spec (sanity baseline)."""
    if spec.role != "dust":
        raise CertificateError("identity certificate needs a dust spec")
    whole = Vertex(("whole",), ((),), ((),))
    pieces = [Piece(("whole",), (((), (i,)),), (((), (i,)),))
              for i in range(1, spec.n + 1)]
    digest = specfile.doc_digest(specfile.spec_to_doc(spec))
    return Certificate(1, 1, 1, 1, {}, {("whole",): whole},
                       {("whole",): Edge(("whole",), pieces)},
                       digest, digest)


# ---------------------------------------------------------------------------
# serialization

def cert_to_doc(spec, cert):
    """The certificate as a JSON document (a tree of dicts, lists, strs
    and ints), for ``specfile.dump_doc``.

    Each distinct rule tuple becomes one JSON rule list, and every piece
    that uses the tuple holds that same list object; so does a piece whose
    ``t_rules`` is its ``d_rules``.  The ratio, scale and offset strings
    are formatted once per distinct (side, rule set).  An in-place edit of
    one piece's rules therefore changes every piece that shares the list:
    copy the document through JSON text first (``copy.deepcopy`` keeps the
    sharing), as a certificate read from a file already is."""
    dust = spec.dust()
    vertices = []
    for key in sorted(cert.vertices):
        v = cert.vertices[key]
        t_lo, t_hi, d_lo, d_hi = v.hulls(spec, dust)
        vertices.append({
            "key": list(key),
            "t_words": [list(w) for w in v.t_words],
            "d_words": [list(w) for w in v.d_words],
            "t_lo": specfile.format_value(t_lo),
            "t_hi": specfile.format_value(t_hi),
            "d_lo": specfile.format_value(d_lo),
            "d_hi": specfile.format_value(d_hi),
        })
    rule_lists, t_text, d_text = {}, {}, {}
    edges = []
    for key in sorted(cert.edges):
        edge = cert.edges[key]
        pieces = []
        for piece in edge.pieces:
            tr, dr = piece.t_rules, piece.d_rules
            ratio, t_scale, t_offset = _piece_strings(spec, tr, t_text,
                                                      "serialize")
            d_scale, d_offset = _piece_strings(dust, dr, d_text,
                                               "serialize")[1:]
            t_list = _rule_list(tr, rule_lists)
            pieces.append({
                "target": list(piece.target),
                "ratio": ratio,
                "t_rules": t_list,
                "d_rules": t_list if dr is tr else _rule_list(dr,
                                                              rule_lists),
                "t_scale": t_scale,
                "t_offset": t_offset,
                "d_scale": d_scale,
                "d_offset": d_offset,
            })
        edges.append({"source": list(key), "pieces": pieces})
    return {
        "format": CERT_FORMAT,
        "version": CERT_VERSION,
        "spec_digest": cert.spec_digest,
        "dust_digest": cert.dust_digest,
        "p": cert.p, "q": cert.q, "p0": cert.p0, "q0": cert.q0,
        "witnesses": [cert.witnesses[i].as_dict()
                      for i in sorted(cert.witnesses)],
        "vertices": vertices,
        "edges": edges,
    }


def _rule_list(rules, memo):
    """The JSON list of a rule tuple, built once per tuple in ``memo``."""
    got = memo.get(rules)
    if got is None:
        got = memo[rules] = [[list(s), list(a)] for s, a in rules]
    return got


def _piece_strings(system, rules, memo, where):
    """The exact strings (ratio, scale, offset) of the similarity that
    ``rules`` describe on ``system``, formatted once per rule set in
    ``memo``, a dict kept for one side of one document."""
    got = memo.get(rules)
    if got is None:
        r, scale, offset = rules_affine(system, rules, where)
        got = memo[rules] = (specfile.format_ratio(r),
                             specfile.format_value(scale),
                             specfile.format_value(offset))
    return got


def _field(d, name, kind, where):
    """``d[name]``, which must hold a value of JSON type ``kind``."""
    v = d.get(name)
    if not isinstance(v, kind) or isinstance(v, bool):
        raise CertificateError("%s: %r must be %s" % (
            where, name, {int: "an integer", str: "a string",
                          list: "a list", dict: "an object"}[kind]))
    return v


def _records(d, name, where):
    """``d[name]`` as a list of JSON objects."""
    out = _field(d, name, list, where)
    if not all(isinstance(r, dict) for r in out):
        raise CertificateError("%s: every entry of %r must be an object"
                               % (where, name))
    return out


def _word(v, n, where):
    """A word: a list of letters in 1..n (n None: any positive letter).
    A JSON letter is an int; ``true`` and ``1.0`` are not letters."""
    if type(v) is list and (not v or (
            set(map(type, v)) <= {int} and min(v) >= 1
            and (n is None or max(v) <= n))):
        return tuple(v)
    raise CertificateError("%s: %r is not a word over the letters 1..%s"
                           % (where, v, n if n else "n"))


def _words(d, name, n, where):
    ws = _field(d, name, list, where)
    if not ws:
        raise CertificateError("%s: %r is empty" % (where, name))
    return [_word(w, n, where) for w in ws]


def _rules(d, name, n, where, seen):
    """A nonempty tuple of (strip, add) word pairs: the one in ``seen``
    equal to it, if any, so equal rule sets of a document share a tuple."""
    rules = _field(d, name, list, where)
    if not rules:
        raise CertificateError("%s: %r is empty" % (where, name))
    out = []
    for r in rules:
        if type(r) is not list or len(r) != 2:
            raise CertificateError("%s: a rule is a [strip, add] pair"
                                   % where)
        out.append((_word(r[0], n, where), _word(r[1], n, where)))
    out = tuple(out)
    return seen.setdefault(out, out)


def _key(d, name, where):
    key = _field(d, name, list, where)
    if not key or not all(isinstance(k, (str, int)) for k in key):
        raise CertificateError("%s: %r must be a nonempty list of names "
                               "and numbers" % (where, name))
    return tuple(key)


# the exact strings stored with each piece, compared by verify_cert_doc
PIECE_STRINGS = ("ratio", "t_scale", "t_offset", "d_scale", "d_offset")


def cert_from_doc(doc, n=None):
    """Read a certificate document.  Its shape is checked first: every
    field present with its JSON type, nonempty word and rule lists, vertex
    keys, edge sources and witness letters unique, and every letter of a
    word, rule or witness an int (not ``true``, not ``1.0``) in 1..n (when
    n is given).
    Any violation raises CertificateError.

    The checks cost few Python calls per piece: a word is one
    ``set(map(type, ...))`` and one ``min``/``max``, the five exact
    strings of a piece are tested in one pass (``_field`` runs only to
    name a failure), and the rule tuples built here are the ones the
    ``Piece`` keeps.  Equal rule lists, which most pieces repeat, become
    one tuple, as ``cert_to_doc`` wrote them from one list."""
    if not isinstance(doc, dict) or doc.get("format") != CERT_FORMAT:
        raise CertificateError("not a certificate document")
    if doc.get("version") != CERT_VERSION:
        raise CertificateError("unsupported certificate version")
    witnesses = {}
    for w in (_records(doc, "witnesses", "certificate")
              if "witnesses" in doc else []):
        where = "witness"
        letter = _field(w, "letter", int, where)
        if letter in witnesses:
            raise CertificateError("witness for letter %d appears twice"
                                   % letter)
        witnesses[letter] = Witness(
            _field(w, "side", str, where), letter,
            _field(w, "k", int, where), _field(w, "k_prime", int, where),
            _word(w.get("word"), n, where),
            _field(w, "source", str, where) if "source" in w else "file")
    vertices = {}
    for v in _records(doc, "vertices", "certificate"):
        key = _key(v, "key", "vertex")
        where = "vertex %r" % (key,)
        if key in vertices:
            raise CertificateError("%s appears twice" % where)
        for name in ("t_lo", "t_hi", "d_lo", "d_hi"):
            _field(v, name, str, where)
        vertices[key] = Vertex(key, _words(v, "t_words", n, where),
                               _words(v, "d_words", n, where))
    edges = {}
    rule_sets = {}
    for e in _records(doc, "edges", "certificate"):
        key = _key(e, "source", "edge")
        where = "edge %r" % (key,)
        if key in edges:
            raise CertificateError("%s appears twice" % where)
        pieces = []
        for pd in _records(e, "pieces", where):
            if not all(type(pd.get(name)) is str for name in PIECE_STRINGS):
                for name in PIECE_STRINGS:
                    _field(pd, name, str, where)
            pieces.append(Piece(_key(pd, "target", where),
                                _rules(pd, "t_rules", n, where, rule_sets),
                                _rules(pd, "d_rules", n, where, rule_sets)))
        edges[key] = Edge(key, pieces)
    p, q, p0, q0 = (_field(doc, name, int, "certificate")
                    for name in ("p", "q", "p0", "q0"))
    return Certificate(p, q, p0, q0, witnesses, vertices, edges,
                       _field(doc, "spec_digest", str, "certificate"),
                       _field(doc, "dust_digest", str, "certificate"))


def verify_cert_doc(spec, doc):
    """Validate a deserialized certificate, including the stored exact
    strings (hulls, scales, offsets, ratios) against recomputation."""
    cert = cert_from_doc(doc, spec.n)
    verify_certificate(spec, cert)
    dust = spec.dust()
    for vd in doc["vertices"]:
        v = cert.vertices[tuple(vd["key"])]
        t_lo, t_hi, d_lo, d_hi = v.hulls(spec, dust)
        for name, val in (("t_lo", t_lo), ("t_hi", t_hi),
                          ("d_lo", d_lo), ("d_hi", d_hi)):
            if vd[name] != specfile.format_value(val):
                raise CertificateError("stored %s of %r does not match"
                                       % (name, vd["key"]))
    t_text, d_text = {}, {}
    for ed in doc["edges"]:
        edge = cert.edges[tuple(ed["source"])]
        for pd, piece in zip(ed["pieces"], edge.pieces):
            want = (_piece_strings(spec, piece.t_rules, t_text, "verify")
                    + _piece_strings(dust, piece.d_rules, d_text,
                                     "verify")[1:])
            stored = (pd["ratio"], pd["t_scale"], pd["t_offset"],
                      pd["d_scale"], pd["d_offset"])
            if stored != want:
                name = next(name for name, a, b in
                            zip(PIECE_STRINGS, stored, want) if a != b)
                raise CertificateError(
                    "stored %s mismatches recomputation in edge %r"
                    % (name, ed["source"]))
    return cert
