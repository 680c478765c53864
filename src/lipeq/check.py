"""The certificate kernel: one exact check over a pair of systems.

A certificate over a pair (L, R) of self-similar systems, with attractors
K_L and K_R, is a finite graph.  A vertex v names a set on each side: A_v,
the union of the cylinders of K_L at its left words, and B_v likewise in
K_R.  Each vertex has one edge, a list of pieces.  A piece places a copy
of a target vertex u on each side by a set of rules (strip, add), which
rewrite a word strip + x as add + x and describe one similarity
(``rules_affine``): phi_i(A_u) on the left, chi_i(B_u) on the right.

Theorem.  If ``check_certificate((L, R), cert)`` returns, then K_L and
K_R are bi-Lipschitz equivalent, and so are A_v and B_v at every vertex.

It checks, each check written once as a loop over the two sides:
  1. the digests are those of L and R, which declare the same bases, so
     equal symbolic ratios are equal numbers;
  2. the whole vertex is the empty word on both sides: A = K_L, B = K_R;
  3. every vertex has a word on each side: A_v and B_v are nonempty;
  4. every edge tiles exactly on both sides: the images of its pieces are
     pairwise point-disjoint and their union is the source;
  5. phi_i and chi_i have one ratio r_i, exactly;
  6. no r_i exceeds 1; and 7. the pieces of ratio 1 form no cycle.

The kernel owns 3.  ``cert_from_doc`` refuses an empty word list as well,
but only as a check of a document's shape; a certificate built in code
reaches the kernel without it.  Every word is taken to be over its
side's letters 1..n: ``cert_from_doc`` checks that of a document, and
the kernel does not check it again.

Two kinds of check follow from others, and are not run:
  * Checks 5-7 of a usual piece, one placed by the one rule ((), w) on
    both sides of a pair with one ratio tuple (L's r_c are R's).  On
    each side its similarity is psi_w, of ratio r_w, the product of r_c
    over the letters c of w: the same product on both sides (5).
    ``IfsSpec`` validates every r_c as certainly in (0, 1), so r_w < 1
    when w is nonempty (6), and r_w = 1, a piece that check 7 takes in,
    exactly when w is empty.
  * Check 4 on the D side of a twin edge, one whose source, targets and
    rules have the same words on both sides, when L and R have the same
    n and every touching letter of R is one of L.
    ``cylsets.check_disjoint_groups`` reads only the words, n and the
    touching letters.  On the D side it scans the same words in the same
    order as on the T side.  It finds an overlap where the T scan does,
    and a touch (``ifs.words_touch``, combinatorial in n and the touching
    letters) only where the T scan finds one too.  It returns the same
    union, compared with the same source words.  So once the T side
    tiles, the D side tiles.
Every other piece and edge is checked in full, in the same order, so a
refused certificate gets the message it would get with both checks run.

Proof.  By 6 and 7 every cycle of the graph holds a piece of ratio below
1, so the images along an infinite path of pieces shrink to a point.  By
4, a point of A_v lies in the images of exactly one infinite path from
v, and a point of B_v likewise.  By 3 the images along every path are
nonempty compact sets on both sides, so each side's nested images meet
in one point; f maps the left point of a path to its right point, a
bijection of A_v onto B_v.  The images are compact, so the pieces of an
edge lie at positive distances; let d be the least, over all edges and
both sides, and D the largest diameter of a vertex set.  Points x != y
of A_v share k pieces, of ratio product r, and then part at two pieces
of one edge: d r <= |x - y| <= D r, and by 5 the same holds for
|f(x) - f(y)|.  So f is bi-Lipschitz with constant D / d, and by 2 it
maps K_L onto K_R.

The measure identity at the similarity dimension s, that each source's
natural measure is the sum over its pieces of r_i^s times the target's,
is implied and not checked: a rule (strip, add) maps the cylinder of a
target word w to phi_i(T_w), so a piece's image is phi_i(A_u), of r_i^s
times A_u's measure, and by 4 an edge's images add up to its source.
"""

from fractions import Fraction
from operator import itemgetter

from . import cylsets, specfile
from .exactnum import ExactRatio
from .ifs import SpecError
from .specfile import _grid_text

CERT_FORMAT = "lipeq-certificate"
CERT_VERSION = 1
# the side names in messages: T, the left system, and D, the right one
SIDES = ("T", "D")
# the exact strings stored with each piece, compared by check_stored
PIECE_STRINGS = ("ratio", "t_scale", "t_offset", "d_scale", "d_offset")
_stored = itemgetter(*PIECE_STRINGS)


class CertificateError(SpecError):
    pass


# ---------------------------------------------------------------------------
# word rewrite rules and their similarities

def apply_rules(rules, word):
    for strip, add in rules:
        if word[:len(strip)] == strip:
            return add + word[len(strip):]
    raise CertificateError("no rule matches word %r" % (word,))


def rule_affine(system, rule):
    """Exact (ratio, scale, offset) of x -> psi_add(psi_strip^(-1)(x)).
    The usual rule ((), add) with a rational ratio is psi_add itself.
    Symbolic ratios take the general formula, which keeps the type, and
    so the formatted string, of a symbolic offset."""
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

    Results are kept on ``system``, keyed by the rule tuple; a rule set
    whose rules disagree is never stored and raises on every call.
    ``where`` names the rule set in that error: a label, or the (vertex
    key, piece index) of a certificate piece, formatted only then."""
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


def piece_images(rules, words):
    """The words of ``words`` rewritten by ``rules``.  The usual single
    rule ((), add) prefixes every word with ``add``."""
    if len(rules) == 1 and not rules[0][0]:
        add = rules[0][1]
        return tuple([add + w for w in words])
    return tuple([apply_rules(rules, w) for w in words])


# ---------------------------------------------------------------------------
# data model: ``words`` and ``rules`` hold one entry per side of the pair

class Vertex:
    def __init__(self, key, t_words, d_words):
        self.key = tuple(key)
        self.words = (tuple(t_words), tuple(d_words))

    t_words = property(lambda self: self.words[0])
    d_words = property(lambda self: self.words[1])

    def ends(self, pair):
        """Each side's hull as (lo, hi, den), running from lo / den to
        hi / den, read off the grid of ``IfsSpec`` once per word.  den is
        the largest q**|w| of the side's words, so on a rational system
        every end is an integer over it and the least and greatest
        compare as integers; a declared-base system has den = 1 and
        compares its exact values."""
        out = []
        for system, words in zip(pair, self.words):
            cells = [system.grid(w) for w in words]
            den = max(d for _, _, d in cells)
            out.append((
                min(o if d == den else o * (den // d) for _, o, d in cells),
                max(o + s if d == den else (o + s) * (den // d)
                    for s, o, d in cells),
                den))
        return out

    def hulls(self, pair):
        """(t_lo, t_hi, d_lo, d_hi): the hull of each side's set, exact,
        from ``ends``."""
        return tuple(Fraction(v, den) if type(v) is int else v
                     for lo, hi, den in self.ends(pair) for v in (lo, hi))

    def hull_strings(self, pair):
        """The exact strings of ``hulls``, formatted from ``ends`` with no
        ``Fraction``."""
        return tuple(_grid_text(v, den)
                     for lo, hi, den in self.ends(pair) for v in (lo, hi))


class Piece:
    """One piece of an edge: a copy of vertex ``target`` placed by the
    rule sets ``t_rules`` and ``d_rules``, each a sequence of (strip, add)
    pairs of word tuples.  A tuple of rules is kept as it is."""

    def __init__(self, target, t_rules, d_rules):
        self.target = tuple(target)
        self.rules = (tuple(t_rules), tuple(d_rules))

    t_rules = property(lambda self: self.rules[0])
    d_rules = property(lambda self: self.rules[1])


class Edge:
    def __init__(self, source, pieces):
        self.source = tuple(source)
        self.pieces = list(pieces)


class Certificate:
    """The graph and the digests of its pair, and the template data (p, q,
    p0, q0, witnesses) that the kernel carries and ``certify`` checks."""

    def __init__(self, vertices, edges, spec_digest, dust_digest, p=None,
                 q=None, p0=None, q0=None, witnesses=()):
        self.vertices = dict(vertices)     # key -> Vertex
        self.edges = dict(edges)           # key -> Edge
        self.spec_digest, self.dust_digest = spec_digest, dust_digest
        self.p, self.q, self.p0, self.q0 = p, q, p0, q0
        self.witnesses = dict(witnesses)   # letter -> decide.Witness


def system_digest(system):
    return specfile.doc_digest(specfile.spec_to_doc(system))


# ---------------------------------------------------------------------------
# the kernel

def check_certificate(pair, cert):
    """Check ``cert`` over ``pair`` = (left, right) exactly, as the module
    docstring lists; raise CertificateError (or the SpecError of a failed
    disjointness check) on the first violation.  A usual piece takes
    checks 5-7 from its word, and the D side of a twin edge takes check 4
    from its T side, each by the argument of the module docstring."""
    docs = [specfile.spec_to_doc(system) for system in pair]
    for side, doc, digest in zip(SIDES, docs,
                                 (cert.spec_digest, cert.dust_digest)):
        if digest != specfile.doc_digest(doc):
            raise CertificateError("certificate was built for a different "
                                   "%s-side system" % side)
    if docs[0].get("bases") != docs[1].get("bases"):
        raise CertificateError("the two systems declare different bases")
    vertices = cert.vertices
    whole = vertices.get(("whole",))
    for i, side in enumerate(SIDES):
        if whole is None or whole.words[i] != ((),):
            raise CertificateError("missing or malformed whole-set vertex "
                                   "on the %s side" % side)
    for key, vertex in vertices.items():
        for words, side in zip(vertex.words, SIDES):
            if not words:
                raise CertificateError("vertex %r has no %s-side word"
                                       % (key, side))
    if set(cert.edges) != set(vertices):
        raise CertificateError("every vertex needs exactly one edge")

    left, right = pair
    one_ratio_tuple = left.ratios == right.ratios
    # the vertices with the same words on both sides, when a twin edge's
    # D-side tiling is its T-side one
    if left.n == right.n and right.touching.letters <= left.touching.letters:
        twins = {key: v.words[0] == v.words[1]
                 for key, v in vertices.items()}
    else:
        twins = dict.fromkeys(vertices, False)
    one = ExactRatio(1)
    bases = left.bases
    ratio1_edges = []
    # id(ratio) -> (ratio, is it 1?): the rule sets of a system share
    # their ratio objects through ``rules_affine``, so each is tested once
    checked_ratios = {}
    for key, edge in cert.edges.items():
        if edge.source != key:
            raise CertificateError("edge source mismatch at %r" % (key,))
        if len(edge.pieces) < 2:
            raise CertificateError("edge at %r has fewer than 2 pieces"
                                   % (key,))
        pieces = edge.pieces
        targets = []
        # per piece: the word w of a usual piece, ((), w) on both sides,
        # else None
        usual = []
        twin = twins[key]
        for piece in pieces:
            tgt = vertices.get(piece.target)
            if tgt is None:
                raise CertificateError("unknown target %r" % (piece.target,))
            targets.append(tgt.words)
            tr, dr = piece.rules
            same = tr is dr or tr == dr
            twin = twin and same and twins[piece.target]
            usual.append(tr[0][1] if same and one_ratio_tuple and len(tr) == 1
                         and not tr[0][0] else None)
        ratios = []
        for i, system in enumerate(pair):
            ratios.append([None if w is not None else
                           rules_affine(system, p.rules[i], (key, pi))[0]
                           for pi, (p, w) in enumerate(zip(pieces, usual))])
            if i and twin:
                break
            groups = [piece_images(p.rules[i], words[i])
                      for p, words in zip(pieces, targets)]
            if (cylsets.check_disjoint_groups(system, groups)
                    != cylsets.canonicalize(system.n, vertices[key].words[i])):
                raise CertificateError("%s-side tiling mismatch at %r"
                                       % (SIDES[i], key))
        for pi, (r, rd, w) in enumerate(zip(*ratios, usual)):
            if r is None:
                if not w:
                    ratio1_edges.append((key, pieces[pi].target))
                continue
            if r != rd:
                raise CertificateError("%s: T and D ratios differ"
                                       % _label((key, pi)))
            seen = checked_ratios.get(id(r))
            if seen is None:
                if r.interval(bases)[1] > 1:
                    raise CertificateError("%s: expanding piece"
                                           % _label((key, pi)))
                seen = checked_ratios[id(r)] = (r, r == one)
            if seen[1]:
                ratio1_edges.append((key, pieces[pi].target))
    check_ratio1_acyclic(ratio1_edges)
    return True


def check_ratio1_acyclic(pairs):
    """Raise unless the (source, target) ``pairs`` form no cycle: Kahn's
    algorithm removes the vertices no remaining pair enters, in a loop,
    so a chain of any length is checked without recursion."""
    succ, indeg = {}, {}
    for a, b in pairs:
        succ.setdefault(a, []).append(b)
        indeg.setdefault(a, 0)
        indeg[b] = indeg.get(b, 0) + 1
    ready = [v for v, d in indeg.items() if d == 0]
    left = len(indeg)
    while ready:
        left -= 1
        for w in succ.get(ready.pop(), ()):
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    if left:
        raise CertificateError("cycle of ratio-1 pieces")


# ---------------------------------------------------------------------------
# the document format: exact strings and reading

def piece_strings(pair, piece, memos, where):
    """The exact strings of ``PIECE_STRINGS`` for ``piece`` on ``pair``:
    the left ratio and each side's scale and offset, formatted once per
    rule set in that side's dict of ``memos``, kept for one document."""
    (left, right), (tr, dr), (tm, dm) = pair, piece.rules, memos
    return (_strings(left, tr, tm, where)
            + _strings(right, dr, dm, where)[1:])


def _strings(system, rules, memo, where):
    """(ratio, scale, offset) strings of a rule set.  The usual rule
    ((), w) is psi_w = (S x + O) / D on the grid of ``IfsSpec``, so its
    ratio and scale are S / D and its offset O / D, formatted with no
    ``Fraction``; any other rule set goes through ``rules_affine``."""
    got = memo.get(rules)
    if got is None:
        if len(rules) == 1 and not rules[0][0]:
            s, o, d = system.grid(rules[0][1])
            scale = _grid_text(s, d)
            got = (scale, scale, _grid_text(o, d))
        else:
            r, scale, offset = rules_affine(system, rules, where)
            got = (specfile.format_ratio(r),
                   specfile.format_value(scale),
                   specfile.format_value(offset))
        memo[rules] = got
    return got


def check_stored(pair, doc, cert):
    """Compare the exact strings stored in ``doc`` (hulls, ratios, scales,
    offsets) with their recomputation from ``cert``, read from ``doc``
    and checked on ``pair``.  The hulls (``Vertex.hull_strings``) and the
    strings of a usual rule ((), w) are formatted off the grid of
    ``IfsSpec``, one ``gcd`` each and no ``Fraction``; every other rule
    set goes through ``rules_affine``, as ``cert_to_doc`` wrote it."""
    for vd in doc["vertices"]:
        hulls = cert.vertices[tuple(vd["key"])].hull_strings(pair)
        for name, text in zip(("t_lo", "t_hi", "d_lo", "d_hi"), hulls):
            if vd[name] != text:
                raise CertificateError("stored %s of %r does not match"
                                       % (name, vd["key"]))
    memos = ({}, {})
    for ed in doc["edges"]:
        edge = cert.edges[tuple(ed["source"])]
        for pd, piece in zip(ed["pieces"], edge.pieces):
            want = piece_strings(pair, piece, memos, "verify")
            stored = _stored(pd)
            if stored != want:
                name = next(name for name, a, b in
                            zip(PIECE_STRINGS, stored, want) if a != b)
                raise CertificateError(
                    "stored %s mismatches recomputation in edge %r"
                    % (name, ed["source"]))


def read_field(d, name, kind, where):
    """``d[name]``, which must hold a value of JSON type ``kind``."""
    v = d.get(name)
    if not isinstance(v, kind) or isinstance(v, bool):
        raise CertificateError("%s: %r must be %s" % (
            where, name, {int: "an integer", str: "a string",
                          list: "a list", dict: "an object"}[kind]))
    return v


def read_records(d, name, where):
    """``d[name]`` as a list of JSON objects."""
    out = read_field(d, name, list, where)
    if not all(isinstance(r, dict) for r in out):
        raise CertificateError("%s: every entry of %r must be an object"
                               % (where, name))
    return out


def read_word(v, n, where):
    """A word: a list of letters in 1..n (n None: any positive letter).
    A JSON letter is an int; ``true`` and ``1.0`` are not letters."""
    if type(v) is list and (not v or (
            set(map(type, v)) <= {int} and min(v) >= 1
            and (n is None or max(v) <= n))):
        return tuple(v)
    raise CertificateError("%s: %r is not a word over the letters 1..%s"
                           % (where, v, n if n else "n"))


def _words(d, name, n, where):
    ws = read_field(d, name, list, where)
    if not ws:
        raise CertificateError("%s: %r is empty" % (where, name))
    return [read_word(w, n, where) for w in ws]


def _rules(d, name, n, where, seen):
    """A nonempty tuple of (strip, add) word pairs: the one in ``seen``
    equal to it, if any, so equal rule sets of a document share a tuple."""
    rules = read_field(d, name, list, where)
    if not rules:
        raise CertificateError("%s: %r is empty" % (where, name))
    out = []
    for r in rules:
        if type(r) is not list or len(r) != 2:
            raise CertificateError("%s: a rule is a [strip, add] pair"
                                   % where)
        out.append((read_word(r[0], n, where), read_word(r[1], n, where)))
    out = tuple(out)
    return seen.setdefault(out, out)


def _key(d, name, where):
    key = read_field(d, name, list, where)
    # a bool is an int to isinstance, and no vertex index
    if not key or not set(map(type, key)) <= {str, int}:
        raise CertificateError("%s: %r must be a nonempty list of names "
                               "and numbers" % (where, name))
    return tuple(key)


def cert_from_doc(doc, ns=(None, None)):
    """Read the graph and digests of a certificate document, whose shape
    is checked: every field present with its JSON type, nonempty word and
    rule lists, vertex keys and edge sources unique, and every letter an
    int (not ``true``, not ``1.0``) in 1..n for the n of its side, T or D,
    in ``ns`` (any positive letter where it is None): the two systems of
    a pair may have different alphabets.  Any violation raises
    CertificateError.  ``certify.cert_from_doc`` reads
    the template fields.  A nonempty word list is a shape rule here; the
    kernel owns the rule that every vertex has a word on each side.

    A word costs one ``set(map(type, ...))`` and one ``min``/``max``, and
    a piece's five exact strings one pass (``read_field`` runs only to
    name a failure).  Equal rule lists, which most pieces repeat, become
    one tuple, as ``cert_to_doc`` wrote them from one list."""
    if not isinstance(doc, dict) or doc.get("format") != CERT_FORMAT:
        raise CertificateError("not a certificate document")
    if doc.get("version") != CERT_VERSION:
        raise CertificateError("unsupported certificate version")
    t_n, d_n = ns
    vertices = {}
    for v in read_records(doc, "vertices", "certificate"):
        key = _key(v, "key", "vertex")
        where = "vertex %r" % (key,)
        if key in vertices:
            raise CertificateError("%s appears twice" % where)
        for name in ("t_lo", "t_hi", "d_lo", "d_hi"):
            read_field(v, name, str, where)
        vertices[key] = Vertex(key, _words(v, "t_words", t_n, where),
                               _words(v, "d_words", d_n, where))
    edges = {}
    rule_sets = {}
    for e in read_records(doc, "edges", "certificate"):
        key = _key(e, "source", "edge")
        where = "edge %r" % (key,)
        if key in edges:
            raise CertificateError("%s appears twice" % where)
        pieces = []
        for pd in read_records(e, "pieces", where):
            if not all(type(pd.get(name)) is str for name in PIECE_STRINGS):
                for name in PIECE_STRINGS:
                    read_field(pd, name, str, where)
            pieces.append(Piece(_key(pd, "target", where),
                                _rules(pd, "t_rules", t_n, where, rule_sets),
                                _rules(pd, "d_rules", d_n, where, rule_sets)))
        edges[key] = Edge(key, pieces)
    return Certificate(vertices, edges,
                       read_field(doc, "spec_digest", str, "certificate"),
                       read_field(doc, "dust_digest", str, "certificate"))
