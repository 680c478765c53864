"""Graph-directed decomposition certificates: build, expand, serialize.

A certificate pairs the touching attractor T with its equally spaced dust
counterpart D through a finite vertex family: the whole sets, the level-1
connected blocks, and three nested neighbourhoods of each touching point.
Every vertex carries a T-side and a D-side cylinder set and exactly one
edge whose pieces tile both sides by similar copies of other vertices
with identical ratios piece by piece.  The kernel in ``check`` states
what that proves and checks it exactly over the pair (spec, spec.dust());
``verify_certificate`` adds the paper's template checks.
"""

from collections import namedtuple
from fractions import Fraction
import math
import random

from .exactnum import mult_dependence
from . import check, cylsets
from .check import (Certificate, CertificateError, Edge, Piece, Vertex,
                    piece_images, read_field, read_records, read_word,
                    rules_affine)
from .decide import decide, verify_witness, witness_letters, Witness
from .patches import patch_words
from .tstar import (Context, ldiff, rdiff, hole_diff, block_decompose,
                    _hole_fits)

# the most multiples of the end-ratio dependence that ``choose_pq`` tries
MAX_PQ_MULTIPLE = 16


def _std_piece(pair):
    """The piece of an engine's (prefix, vertex key) pair: the vertex
    placed under psi_prefix on both sides."""
    prefix, key = pair
    rules = (((), prefix),)
    return Piece(key, rules, rules)


# ---------------------------------------------------------------------------
# (p, q) selection

def _pq_floor(witnesses):
    """min(p, q) must exceed this: the deepest witness."""
    return max((w.depth for w in witnesses.values()), default=0)


def choose_pq(spec, witnesses):
    """Smallest multiple (p, q) of the base dependence (p0, q0) past the
    witnesses' depth at which every witness passes the hole engines' own
    depth condition ``tstar._hole_fits``, exactly.

    This is the one place where (p, q) is decided; ``build_certificate``
    builds at it once, and the engines rely on it unchecked: it gives
    each joint of a hole's trace the valid ranges R_s_a minus R_q and
    L_s_b minus L_p.  The joint lies between P g n^s_a and P (g+1) 1^s_b,
    prefixes of the consecutive words P g n^s and P (g+1) 1^s of the
    range, so s_a, s_b <= s, and inside a hole's trace ranges
    s <= max(k' + |j|, 1) < min(p, q): so s_a < q and s_b < p.

    The condition also keeps each hole patch clear of the boundary patches
    around it, which the paper asks of (p, q).  Take a left witness for
    touching letter i (near i, end 1, opp n, depth q; a right witness is
    the mirror image, opp 1 and depth p).  The pairs are L_k'(T_{i n^2q j})
    against R_3q(T_i), on T and on D, and L_k'(T_{i j}) against R_q(T_i),
    on D.  Past the common prefix (i n^2q, or i) a hole word is j 1^k' x
    with x <= alpha, at most k' + |j| + 1 <= q letters, and a patch word
    is n^q y with y >= n - beta + 1, q + 1 letters.  A touching system
    leaves a gap, so alpha, beta <= n - 1: x != n, the hole word is not
    all n, and neither word is a prefix of the other.  They first differ
    where the hole word has c < n and the patch word n; a shared endpoint
    (``ifs.words_touch``) would need the patch word to go on with 1s only,
    and it goes on with n or ends in y >= 2.  So the cylinder sets are
    disjoint on both systems, whatever the witness identity and the
    ratios."""
    pq0 = mult_dependence(spec.ratios[0], spec.ratios[-1])
    if pq0 is None:
        raise CertificateError("end ratios are multiplicatively independent")
    p0, q0 = pq0
    n = spec.n
    for m in range(_pq_floor(witnesses) // min(p0, q0) + 1,
                   MAX_PQ_MULTIPLE + 1):
        p, q = m * p0, m * q0
        if all(_hole_fits(n, p, q, witness_letters(w.side, i, n)[2],
                          w.kp, w.word)
               for i, w in witnesses.items()):
            return p, q, p0, q0
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
        ws = ctx.family_words(("comp1", idx))
        out[("comp1", idx)] = Vertex(("comp1", idx), ws, ws)
    for i in sorted(ctx.touch):
        for key in (("touch2", i), ("touch3", i)):
            ws = ctx.family_words(key)
            out[key] = Vertex(key, ws, ws)
        wit = witnesses[i]
        near, far, end = witness_letters(wit.side, i, n)
        opp = n + 1 - end
        near_words = patch_words(spec, (near,), ctx.along(opp)[1], opp)
        t4 = near_words + patch_words(spec, (far,), wit.k, end)
        d4 = near_words + patch_words(spec, (near,) + wit.word, wit.kp, end)
        out[("touch4", i)] = Vertex(("touch4", i),
                                    cylsets.canonicalize(n, t4),
                                    cylsets.canonicalize(n, d4))
    return out


def decompose_vertex(ctx, witnesses, vkey):
    """The Edge for one vertex, per the constructive decompositions.

    Every pair the tiling engines return becomes a piece of this
    edge, unchecked: ``verify_certificate``, which ``build_certificate``
    runs on every certificate, checks that on each side the pieces are
    pairwise point-disjoint with union the source.  Validity needs no
    more; not, in particular, the separateness of a block piece from the
    rest of the attractor.

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
        ident = (((), ()),)
        return Edge(vkey, [Piece(("comp1", j), ident, ident)
                           for j in range(1, c1 + 1)])
    if kind == "comp1":
        return Edge(vkey, [_std_piece(pr) for pr in
                           block_decompose(ctx, vkey[1])])
    i = vkey[1]
    wit = witnesses[i]
    k, kp, j = wit.k, wit.kp, wit.word
    if kind == "touch2":
        pairs = (rdiff(ctx, (i,), 0, q)
                 + ldiff(ctx, (i + 1,), 0, p)
                 + [((), ("touch3", i))])
        return Edge(vkey, [_std_piece(pr) for pr in pairs])

    near, far, end = witness_letters(wit.side, i, n)
    opp = n + 1 - end
    diff, depth = ctx.along(end)
    near_depth = ctx.along(opp)[1]
    block = 1 if end == 1 else c1
    near_rule = ((near,), (near,) + (opp,) * (2 * near_depth))
    rec_t = (near_rule, ((far,), (far,) + (end,) * (2 * depth)))
    rec_d = (near_rule,)
    if i not in ctx.holes:
        ctx.holes[i] = [_std_piece(pr)
                        for pr in hole_diff(ctx, end, i, kp, j)]
    pieces = list(ctx.holes[i])
    sub_t = near_rule[1] + j + (end,) * kp  # the replaced patch
    if kind == "touch3":
        # the pieces in spatial order: the hole lies on the near side
        diff_pieces = [_std_piece(pr) for pr in
                       diff(ctx, (far,), depth, 2 * depth + k)]
        if near < far:
            pieces += diff_pieces
        else:
            pieces = diff_pieces + pieces
        sub_d = (far,) + (end,) * (2 * depth + k)
    else:
        for prefix, key in diff(ctx, (), 0, 2 * depth):
            pieces.append(Piece(
                key,
                (((), (far,) + (end,) * k + prefix),),
                (((), (near,) + j + (end,) * kp + prefix),)))
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
    cert = Certificate(vertices, edges, *map(check.system_digest,
                                             (spec, spec.dust())),
                       p=p, q=q, p0=p0, q0=q0, witnesses=witnesses)
    verify_certificate(spec, cert)
    return cert


# ---------------------------------------------------------------------------
# the template profile

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
    """Validate ``cert`` for ``spec``: the kernel ``check.check_certificate``
    on (spec, spec.dust()), which alone carries what a valid certificate
    proves (first, so a certificate for another spec fails on its
    digests), then the paper's template: one witness per touching letter,
    each passing ``verify_witness``; the stored (p0, q0) and (p, q); and,
    for a touching spec, 1 + c1 + 3|touching| vertices.  Raises on the
    first violation.  ``build_certificate`` runs this on all it builds."""
    check.check_certificate((spec, spec.dust()), cert)
    touch = spec.touching.letters
    if set(cert.witnesses) != touch:
        raise CertificateError("witness letters %s are not the touching "
                               "letters %s" % (sorted(cert.witnesses),
                                               sorted(touch)))
    for w in cert.witnesses.values():
        verify_witness(spec, w)
    _check_pq(spec, cert)
    expected = 1 + len(spec.blocks()) + 3 * len(touch)
    if spec.role == "touching" and len(cert.vertices) != expected:
        raise CertificateError("expected %d vertices, found %d"
                               % (expected, len(cert.vertices)))
    return True


# ---------------------------------------------------------------------------
# expansion and distortion

def compose_rules(outer, inner):
    """Rules applying ``inner`` then ``outer``."""
    out = []
    for s2, a2 in inner:
        for s1, a1 in outer:
            if a2[:len(s1)] == s1:
                out.append((s2, a1 + a2[len(s1):]))
            elif s1[:len(a2)] == a2:
                out.append((s2 + s1[len(a2):], a1))
    if not out:
        raise CertificateError("rule composition has empty domain")
    # drop rules shadowed by an identical earlier strip
    res = {}
    for s, a in out:
        res.setdefault(s, a)
    return tuple(res.items())


ExpandPiece = namedtuple("ExpandPiece", "vkey t_words d_words t_scale "
                                        "t_offset d_scale d_offset")


def expand_map(spec, cert, depth):
    """Unroll the certificate recursion ``depth`` times: the leaf pieces,
    each pairing a T-side cylinder union with a D-side one through
    explicit increasing similarities.  ``cert`` must have passed
    ``verify_certificate``; then the leaves tile T and D with equal
    ratios, so neither is checked here.  By induction: at depth 0 the one
    leaf is the whole set on both sides, and the children of a leaf are
    the images of its vertex's pieces under the leaf's similarity
    (``compose_rules``), which the kernel's tiling check makes pairwise
    point-disjoint with union the leaf."""
    dust = spec.dust()
    ident = (((), ()),)
    leaves = [(("whole",), ident, ident)]
    for _ in range(depth):
        nxt = []
        for vkey, tr, dr in leaves:
            for piece in cert.edges[vkey].pieces:
                pt, pd = piece.rules
                nxt.append((piece.target, compose_rules(tr, pt),
                            compose_rules(dr, pd)))
        leaves = nxt
    out = []
    for vkey, tr, dr in leaves:
        tw, dw = cert.vertices[vkey].words
        ts, to = rules_affine(spec, tr, "expand")[1:]
        ds, do = rules_affine(dust, dr, "expand")[1:]
        out.append(ExpandPiece(vkey, piece_images(tr, tw),
                               piece_images(dr, dw), ts, to, ds, do))
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


def leaf_hulls(pair, cert, pieces):
    """(t_lo, t_hi, d_lo, d_hi), the T-hull and D-hull of each leaf of
    ``pieces`` (an ``expand_map`` result on ``pair`` = (spec,
    spec.dust())), from its similarities.

    A leaf's T-hull is (t_scale*t_lo + t_offset, t_scale*t_hi + t_offset)
    for the T-hull (t_lo, t_hi) of its vertex (``Vertex.hulls``, once per
    vertex), and its D-hull likewise, exactly: a rule (strip, add) of the
    leaf maps the cylinder of a vertex word w to phi(T_w) for the leaf's
    one increasing similarity phi, which keeps the least and greatest
    ends."""
    hulls = {}
    out = []
    for pc in pieces:
        h = hulls.get(pc.vkey)
        if h is None:
            h = hulls[pc.vkey] = cert.vertices[pc.vkey].hulls(pair)
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
    pair = (spec, spec.dust())
    pts = set()
    for t_lo, t_hi, d_lo, d_hi in leaf_hulls(pair, cert, pieces):
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


# ---------------------------------------------------------------------------
# serialization

def cert_to_doc(spec, cert):
    """The certificate as a JSON document (a tree of dicts, lists, strs
    and ints), for ``specfile.dump_doc``.

    Each distinct rule tuple becomes one JSON rule list, and every piece
    that uses the tuple holds that same list object; so does a piece whose
    ``t_rules`` is its ``d_rules``.  The ratio, scale and offset strings
    are formatted once per distinct (side, rule set) by
    ``check.piece_strings``: those of a usual rule ((), w), and the
    vertex hulls (``Vertex.hull_strings``), straight from the integers of
    ``IfsSpec.grid``, which the kernel does not compute for them.  An
    in-place edit of one piece's rules therefore changes every piece that
    shares the list: copy the document through JSON text first
    (``copy.deepcopy`` keeps the sharing), as a certificate read from a
    file already is."""
    pair = (spec, spec.dust())
    vertices = []
    for key in sorted(cert.vertices):
        v = cert.vertices[key]
        t_lo, t_hi, d_lo, d_hi = v.hull_strings(pair)
        vertices.append({"key": list(key), "t_lo": t_lo, "t_hi": t_hi,
                         "d_lo": d_lo, "d_hi": d_hi,
                         "t_words": [list(w) for w in v.t_words],
                         "d_words": [list(w) for w in v.d_words]})
    rule_lists, memos = {}, ({}, {})
    edges = []
    for key in sorted(cert.edges):
        pieces = []
        for piece in cert.edges[key].pieces:
            tr, dr = piece.rules
            ratio, t_scale, t_offset, d_scale, d_offset = (
                check.piece_strings(pair, piece, memos, "serialize"))
            t_list = _rule_list(tr, rule_lists)
            pieces.append({
                "target": list(piece.target), "ratio": ratio,
                "t_rules": t_list,
                "d_rules": t_list if dr is tr else _rule_list(dr, rule_lists),
                "t_scale": t_scale, "t_offset": t_offset,
                "d_scale": d_scale, "d_offset": d_offset})
        edges.append({"source": list(key), "pieces": pieces})
    return {
        "format": check.CERT_FORMAT,
        "version": check.CERT_VERSION,
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


def cert_from_doc(doc, n=None):
    """Read a certificate document: the graph by ``check.cert_from_doc``,
    then p, q, p0, q0 and the witness records, checked as the graph is:
    letters unique and every letter of a word an int in 1..n.  n is the
    spec's alphabet, and so its dust's, which has the spec's ratios: each
    side's words are read against (spec.n, spec.dust().n) = (n, n)."""
    cert = check.cert_from_doc(doc, (n, n))
    witnesses = cert.witnesses
    where = "witness"
    for w in (read_records(doc, "witnesses", "certificate")
              if "witnesses" in doc else []):
        letter = read_field(w, "letter", int, where)
        if letter in witnesses:
            raise CertificateError("witness for letter %d appears twice"
                                   % letter)
        witnesses[letter] = Witness(
            read_field(w, "side", str, where), letter,
            read_field(w, "k", int, where),
            read_field(w, "k_prime", int, where),
            read_word(w.get("word"), n, where),
            read_field(w, "source", str, where) if "source" in w else "file")
    cert.p, cert.q, cert.p0, cert.q0 = (
        read_field(doc, name, int, "certificate")
        for name in ("p", "q", "p0", "q0"))
    return cert


def verify_cert_doc(spec, doc):
    """Validate a deserialized certificate, including the stored exact
    strings (hulls, scales, offsets, ratios) against recomputation."""
    cert = cert_from_doc(doc, spec.n)
    verify_certificate(spec, cert)
    check.check_stored((spec, spec.dust()), doc, cert)
    return cert
