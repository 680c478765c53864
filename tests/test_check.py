"""The certificate kernel ``lipeq.check`` on its own: certificates built by
hand over an explicit pair of systems, the ratio-1 cycle check, and the
package modules the kernel may import.  Nothing here uses the builder."""

import ast
import os
from fractions import Fraction

import pytest

from lipeq.check import (CERT_FORMAT, CERT_VERSION, PIECE_STRINGS,
                         Certificate, CertificateError, Edge, Piece, Vertex,
                         cert_from_doc, check_certificate,
                         check_ratio1_acyclic, system_digest)
from lipeq.exactnum import DeclaredBase, ExactRatio
from lipeq.ifs import IfsSpec, canonical_dust

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src", "lipeq")
# the package modules the kernel may reach, and those it must not
KERNEL_IMPORTS = {"ifs", "cylsets", "exactnum", "specfile"}
ENGINES = {"tstar", "patches", "decide"}

FIFTH = Fraction(1, 5)
# two dusts with the ratios 1/5, 1/5, 1/5: equally spaced, and with gaps
# 1/10 and 1/2
EVEN = IfsSpec([FIFTH] * 3, [Fraction(0), Fraction(2, 5), Fraction(4, 5)],
               role="dust")
UNEVEN = IfsSpec([FIFTH] * 3, [Fraction(0), Fraction(3, 10), Fraction(4, 5)],
                 role="dust")


def rule(add):
    return (((), add),)


def two_vertex_certificate(pair, whole_d_add=(2,)):
    """The whole set is the ends E = T_1 u T_3 (a ratio-1 copy of E) and
    the middle T_2 (a copy of the whole); E is T_1 u T_3, two copies of
    the whole.  ``whole_d_add`` places the D side of the middle piece."""
    ident = rule(())
    vertices = {("whole",): Vertex(("whole",), [()], [()]),
                ("ends",): Vertex(("ends",), [(1,), (3,)], [(1,), (3,)])}
    edges = {("whole",): Edge(("whole",), [
                 Piece(("ends",), ident, ident),
                 Piece(("whole",), rule((2,)), rule(whole_d_add))]),
             ("ends",): Edge(("ends",), [
                 Piece(("whole",), rule((1,)), rule((1,))),
                 Piece(("whole",), rule((3,)), rule((3,)))])}
    return Certificate(vertices, edges, *map(system_digest, pair))


class TestTwoVertexCertificate:
    def test_checks_on_its_pair(self):
        pair = (EVEN, UNEVEN)
        assert check_certificate(pair, two_vertex_certificate(pair))
        assert check_certificate(pair[::-1],
                                 two_vertex_certificate(pair[::-1]))

    def test_checked_only_on_the_pair_of_its_digests(self):
        cert = two_vertex_certificate((EVEN, UNEVEN))
        with pytest.raises(CertificateError, match="different D-side"):
            check_certificate((EVEN, EVEN), cert)
        with pytest.raises(CertificateError, match="different T-side"):
            check_certificate((UNEVEN, UNEVEN), cert)

    def test_a_piece_that_breaks_the_tiling_is_refused(self):
        pair = (EVEN, UNEVEN)
        with pytest.raises(CertificateError,
                           match=r"^D-side tiling mismatch at \('whole',\)"):
            check_certificate(pair, two_vertex_certificate(pair, (2, 2)))

    def test_whole_vertex_must_be_the_whole_set_on_both_sides(self):
        pair = (EVEN, UNEVEN)
        cert = two_vertex_certificate(pair)
        whole = cert.vertices[("whole",)]
        cert.vertices[("whole",)] = Vertex(("whole",), whole.t_words,
                                           [(1,)])
        with pytest.raises(CertificateError, match="on the D side"):
            check_certificate(pair, cert)

    def test_expanding_piece_is_refused(self):
        # T_1 as a copy of the vertex T_11 at ratio 5: every edge tiles,
        # and the one cycle contracts, but a piece expands
        pair = (EVEN, EVEN)
        cert = two_vertex_certificate(pair)
        grow = (((1, 1), (1,)),)
        cert.vertices[("deep",)] = Vertex(("deep",), [(1, 1)], [(1, 1)])
        cert.edges[("whole",)] = Edge(("whole",), [
            Piece(("deep",), grow, grow)] + [
            Piece(("whole",), rule((c,)), rule((c,))) for c in (2, 3)])
        cert.edges[("deep",)] = Edge(("deep",), [
            Piece(("whole",), rule((1, 1, c)), rule((1, 1, c)))
            for c in (1, 2, 3)])
        with pytest.raises(CertificateError,
                           match=r"^\('whole',\) piece 0: expanding piece$"):
            check_certificate(pair, cert)


# four maps of ratio 1/5: with EVEN, a pair of dusts of dimensions
# log 3 / log 5 and log 4 / log 5, which no bi-Lipschitz map joins
FOUR = IfsSpec([FIFTH] * 4, [Fraction(0), Fraction(4, 15), Fraction(8, 15),
                             Fraction(4, 5)], role="dust")


def one_sided_certificate(pair, first):
    """A false certificate over ``pair``: the whole set is the vertex
    "tonly", the whole left set with no right word, and "donly", the
    whole right set with no left word, each by the identity; "tonly" is
    the left system's n copies of itself and "donly" the right's.  Every
    edge tiles on both sides, since a side with no word unions to no
    word, every ratio is 1/5 on both sides, and the ratio-1 pieces form
    no cycle.  ``first`` names the one-sided vertex listed first."""
    left, right = pair
    ident = rule(())
    one_sided = {
        ("tonly",): (Vertex(("tonly",), [()], []), Edge(("tonly",), [
            Piece(("tonly",), rule((j,)), rule((1,)))
            for j in range(1, left.n + 1)])),
        ("donly",): (Vertex(("donly",), [], [()]), Edge(("donly",), [
            Piece(("donly",), rule((1,)), rule((j,)))
            for j in range(1, right.n + 1)]))}
    order = [(first,)] + [k for k in one_sided if k != (first,)]
    vertices = {("whole",): Vertex(("whole",), [()], [()])}
    edges = {("whole",): Edge(("whole",), [Piece(k, ident, ident)
                                           for k in order])}
    for key in order:
        vertices[key], edges[key] = one_sided[key]
    return Certificate(vertices, edges, *map(system_digest, pair))


@pytest.mark.parametrize("first, side", [("tonly", "D"), ("donly", "T")])
def test_a_vertex_with_no_word_on_a_side_is_refused(first, side):
    # without the rule the kernel accepts this certificate, and so
    # "proves" two dusts of different dimension equivalent: the proof's
    # map needs a nonempty image on the right of every left point
    for pair in ((EVEN, FOUR), (FOUR, EVEN)):
        with pytest.raises(CertificateError,
                           match=r"^vertex \('%s',\) has no %s-side word$"
                           % (first, side)):
            check_certificate(pair, one_sided_certificate(pair, first))


def graph_doc(cert):
    """The document of ``cert`` as ``cert_from_doc`` reads it, with "0"
    for every exact string: only ``check_stored`` compares those."""
    zero = dict.fromkeys(("t_lo", "t_hi", "d_lo", "d_hi"), "0")
    return {"format": CERT_FORMAT, "version": CERT_VERSION,
            "spec_digest": cert.spec_digest,
            "dust_digest": cert.dust_digest,
            "vertices": [dict(zero, key=list(k),
                              t_words=[list(w) for w in v.t_words],
                              d_words=[list(w) for w in v.d_words])
                         for k, v in cert.vertices.items()],
            "edges": [{"source": list(k), "pieces": [
                dict(dict.fromkeys(PIECE_STRINGS, "0"),
                     target=list(p.target),
                     t_rules=[[list(s), list(a)] for s, a in p.t_rules],
                     d_rules=[[list(s), list(a)] for s, a in p.d_rules])
                for p in e.pieces]} for k, e in cert.edges.items()]}


def split_whole(pair, t_adds, d_adds):
    """The whole set as copies of itself placed by the usual rules of
    ``t_adds`` on the left and ``d_adds`` on the right."""
    return Certificate({("whole",): Vertex(("whole",), [()], [()])},
                       {("whole",): Edge(("whole",), [
                           Piece(("whole",), rule(t), rule(d))
                           for t, d in zip(t_adds, d_adds)])},
                       *map(system_digest, pair))


@pytest.mark.parametrize("pair, ns", [((EVEN, FOUR), (3, 4)),
                                      ((FOUR, EVEN), (4, 3))])
def test_each_side_is_read_against_its_own_alphabet(pair, ns):
    # seven copies of the whole on each side: EVEN's 1, 2, 31, 32, 331,
    # 332, 333 and FOUR's 1, 2, 3, 41, 42, 43, 44, which tile both sides
    # at different ratios
    three = [(1,), (2,), (3, 1), (3, 2), (3, 3, 1), (3, 3, 2), (3, 3, 3)]
    four = [(1,), (2,), (3,), (4, 1), (4, 2), (4, 3), (4, 4)]
    words = {3: three, 4: four}
    doc = graph_doc(split_whole(pair, *(words[s.n] for s in pair)))
    cert = cert_from_doc(doc, ns)
    with pytest.raises(CertificateError, match=r"^\('whole',\) piece 2: "
                                               "T and D ratios differ$"):
        check_certificate(pair, cert)
    for wrong in ((3, 3), ns[::-1]):
        with pytest.raises(CertificateError,
                           match=r"is not a word over the letters 1\.\.3$"):
            cert_from_doc(doc, wrong)
    cert_from_doc(doc)      # no alphabet: any positive letter


def declared_dust(value):
    """The dust of the ratios g, 1/5, g for a declared base g = value."""
    rg = ExactRatio(1, (("g", 1),))
    return canonical_dust([rg, ExactRatio(FIFTH), rg],
                          {"g": DeclaredBase("g", value)})


def identity(pair):
    """Each side's whole set tiled by its three level-1 cylinders."""
    pieces = [Piece(("whole",), rule((c,)), rule((c,))) for c in (1, 2, 3)]
    return Certificate({("whole",): Vertex(("whole",), [()], [()])},
                       {("whole",): Edge(("whole",), pieces)},
                       *map(system_digest, pair))


def test_symbolic_ratios_compare_only_under_the_same_bases():
    # g = 0.2 and g = 0.25 give the same symbolic ratios but not the
    # same numbers, so the identity would claim a false equivalence
    same = (declared_dust("0.2"), declared_dust("0.2"))
    assert check_certificate(same, identity(same))
    pair = (declared_dust("0.2"), declared_dust("0.25"))
    with pytest.raises(CertificateError, match="different bases"):
        check_certificate(pair, identity(pair))


class TestRatio1Cycles:
    N = 10000

    def test_long_chain_is_acyclic(self):
        check_ratio1_acyclic([(i, i + 1) for i in range(self.N)])

    def test_long_cycle_is_refused(self):
        with pytest.raises(CertificateError, match="cycle of ratio-1"):
            check_ratio1_acyclic([(i, (i + 1) % self.N)
                                  for i in range(self.N)])

    @pytest.mark.parametrize("pairs, cyclic", [
        ([], False),
        ([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], False),
        ([("a", "b"), ("a", "b")], False),
        ([("a", "a")], True),
        ([("x", "a"), ("a", "b"), ("b", "a"), ("b", "y")], True)],
        ids=["empty", "diamond", "repeated", "loop", "two-cycle"])
    def test_small_graphs(self, pairs, cyclic):
        if cyclic:
            with pytest.raises(CertificateError):
                check_ratio1_acyclic(pairs)
        else:
            check_ratio1_acyclic(pairs)


# ---------------------------------------------------------------------------
# the import boundary

def package_imports(module):
    """The package modules that the source of ``module`` imports."""
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").startswith("lipeq")):
            name = node.module if node.level else node.module[6:]
            if name:
                out.add(name.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("lipeq."))
    return out


def import_closure(module):
    """Every package module that ``module`` reaches through imports."""
    seen, todo = set(), [module]
    while todo:
        for name in package_imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_closure_detector_sees_the_engines():
    assert ENGINES | KERNEL_IMPORTS | {"check"} <= import_closure("certify")
    assert import_closure("exactnum") == set()


def test_kernel_reaches_no_engine():
    closure = import_closure("check")
    assert closure <= KERNEL_IMPORTS
    assert not closure & ENGINES


def test_tiling_engines_reach_no_search():
    # the engines rely on the witness checks of ``decide`` and on
    # ``certify.choose_pq`` without calling either
    assert package_imports("tstar") == {"patches"}
    closure = import_closure("tstar")
    assert closure <= {"patches", "cylsets", "ifs", "exactnum"}
    assert "decide" not in closure
