"""Decomposing patch differences and interval traces into vertex copies.

Every set that the certificate construction meets is rewritten as a
disjoint union of copies of three vertex kinds of the certificate:

* ("comp1", j): the level-1 connected block j (1..c1);
* ("touch2", i): the two-sided neighbourhood of a touching point at
  depth 0, R_0(T_i) union L_0(T_{i+1});
* ("touch3", i): the deep neighbourhood R_q(T_i) union L_p(T_{i+1}).

Each engine returns a list of pairs (prefix word, vertex key): the piece
is the image of the vertex's words under psi_prefix.  The engines
construct and check neither their arguments nor their output.  No
argument comes from outside the program: ``certify`` computes each one
from a validated spec, a witness that passed ``decide.verify_witness``
and the (p, q) of ``certify.choose_pq``, and each engine's docstring
names its precondition and the code that establishes it.  Whatever the
engines return, ``build_certificate`` runs the kernel, whose exact
tiling check can refuse a wrong piece list but never accept one.  The
tests hold each engine to its target with an exact oracle, and to its
preconditions on the build path.
"""

from .patches import zone_words


class Context:
    """Spec plus the fixed decomposition parameters."""

    def __init__(self, spec, p, q):
        self.spec = spec
        self.p = p
        self.q = q
        self.blocks = spec.blocks()
        self.c1 = len(self.blocks)
        st = spec.touching
        self.alpha = st.alpha
        self.beta = st.beta
        self.touch = st.letters
        self.holes = {}  # touching letter -> its hole pieces (certify)

    def family_words(self, key):
        """Relative (prefix ()) canonical words of the vertex ``key``: a
        level-1 block for ("comp1", j), or R_k(T_i) union L_k'(T_{i+1})
        with (k, k') = (0, 0) for ("touch2", i) and (q, p) for
        ("touch3", i).  Keys come from ``certify.build_vertices``."""
        kind = key[0]
        if kind == "comp1":
            b, e = self.blocks[key[1] - 1]
            return tuple((a,) for a in range(b, e + 1))
        k, kp = (0, 0) if kind == "touch2" else (self.q, self.p)
        return zone_words(self.spec, key[1], k, kp)

    def along(self, end):
        """(patch-difference engine, depth) of the patches that descend
        along ``end``, which is 1 or n: ``ldiff`` and p along 1,
        ``rdiff`` and q along n."""
        if end == 1:
            return ldiff, self.p
        return rdiff, self.q


# ---------------------------------------------------------------------------
# patch differences

def ldiff(ctx, base, u, v):
    """Pairs tiling L_u(T_base) minus L_v(T_base), u < v: from 0 < p, q
    in ``certify``, s_b < p in ``trace`` and ``_hole_fits`` in
    ``hole_diff``."""
    a, c1 = ctx.alpha, ctx.c1
    out = []
    for k in range(u, v):
        if a == 1:
            w = base + (1,) * (k + 1)
            out.extend((w, ("comp1", j)) for j in range(2, c1 + 1))
        else:
            w = base + (1,) * k
            out.extend((w, ("touch2", l)) for l in range(1, a))
            out.extend((w + (l,), ("comp1", j))
                       for l in range(1, a + 1) for j in range(2, c1))
            out.append((w + (a,), ("comp1", c1)))
    return out


def rdiff(ctx, base, u, v):
    """Pairs tiling R_u(T_base) minus R_v(T_base), u < v as in
    ``ldiff``."""
    n = ctx.spec.n
    b, c1 = ctx.beta, ctx.c1
    out = []
    for k in range(u, v):
        if b == 1:
            w = base + (n,) * (k + 1)
            out.extend((w, ("comp1", j)) for j in range(1, c1))
        else:
            w = base + (n,) * k
            out.extend((w, ("touch2", l)) for l in range(n - b + 1, n))
            out.extend((w + (l,), ("comp1", j))
                       for l in range(n - b + 1, n + 1)
                       for j in range(2, c1))
            out.append((w + (n - b + 1,), ("comp1", 1)))
    return out


# ---------------------------------------------------------------------------
# interval traces

def _cover(n, u, v):
    """The cylinders C_1 < ... < C_r that tile the words from u to v at
    their common length L: the maximal ones below the common prefix P of
    u and v (u itself when u = v), in lexicographic order.

    Each side of the range adds one cylinder and at most n - 1 per level
    below the letter after P, and the letters strictly between u's and
    v's letters after P add at most n - 2: so r <= n + 2(n - 1)(L - |P| -
    1) <= 2(n - 1)L, where the range can hold n^(L - |P|) words.
    Consecutive cylinders read P' g n^s_a and P' (g+1) 1^s_b, P' their
    common prefix.  ``trace`` pads u and v to one length, and
    ``hole_diff`` writes each range with u <= v.
    """
    m = 0
    while m < len(u) and u[m] == v[m]:
        m += 1
    if m == len(u):
        return [u]
    # u[:i] and v[:j]: u without its trailing 1s, v without its trailing
    # ns, each keeping its letter after P
    i = len(u)
    while i > m + 1 and u[i - 1] == 1:
        i -= 1
    j = len(v)
    while j > m + 1 and v[j - 1] == n:
        j -= 1
    out = [u[:i]]
    for k in range(i - 1, m, -1):
        out.extend(u[:k] + (x,) for x in range(u[k] + 1, n + 1))
    out.extend(u[:m] + (x,) for x in range(u[m] + 1, v[m]))
    for k in range(m + 1, j):
        out.extend(v[:k] + (x,) for x in range(1, v[k]))
    out.append(v[:j])
    return out


def trace(ctx, u, v):
    """Pairs tiling [psi_u(0), psi_v(1)] intersected with T.

    u and v are words; the shorter one is padded (u along letter 1, v
    along letter n, neither changing its relevant endpoint).  The segment
    must be separated from the rest of T, and every joint below a
    touching letter needs s_a < q and s_b < p: ``hole_diff`` says why
    both hold for its ranges, the only ones traced.

    The segment is the union of T_C over the maximal cylinders C of
    [u, v] (``_cover``), so the pieces grow with the cover and not with
    the range.  Each C adds blocks 2..c1-1 of psi_C, the first C its
    block 1 and the last its block c1.  At the joint of C = P g n^s_a
    and C' = P (g+1) 1^s_b: block c1 of C and block 1 of C' if g does
    not touch; else the touch2 piece at P if s_a = s_b = 0; else the
    touch3 piece at P with R_s_a(T_Pg) minus R_q(T_Pg) and
    L_s_b(T_P(g+1)) minus L_p(T_P(g+1)).
    """
    n = ctx.spec.n
    if len(u) < len(v):
        u = u + (1,) * (len(v) - len(u))
    elif len(v) < len(u):
        v = v + (n,) * (len(u) - len(v))
    cyls = _cover(n, u, v)
    out = [(cyls[0], ("comp1", 1))]
    for w in cyls:
        out.extend((w, ("comp1", j)) for j in range(2, ctx.c1))
    for a, b in zip(cyls, cyls[1:]):
        m = 0
        while a[m] == b[m]:
            m += 1
        g = a[m]
        sa, sb = len(a) - m - 1, len(b) - m - 1
        if g not in ctx.touch:
            out.append((a, ("comp1", ctx.c1)))
            out.append((b, ("comp1", 1)))
        elif sa == sb == 0:
            out.append((a[:m], ("touch2", g)))
        else:
            out.extend(rdiff(ctx, a, 0, ctx.q - sa))
            out.extend(ldiff(ctx, b, 0, ctx.p - sb))
            out.append((a[:m], ("touch3", g)))
    out.append((cyls[-1], ("comp1", ctx.c1)))
    return out


# ---------------------------------------------------------------------------
# the deep-patch difference with a hole

def _leading_run(word, letter):
    s = 0
    while s < len(word) and word[s] == letter:
        s += 1
    return s


def _hole_fits(n, p, q, end, kp, j):
    """Whether ``hole_diff`` along ``end`` tiles its target at (p, q):
    k' + |j| < min(p, q), and j does not open with depth - 1 copies of
    the letter opposite ``end`` (depth q along n, p along 1), which with
    k' = 0 would leave the last annuli of the hole's side empty."""
    opp = n + 1 - end
    depth = q if opp == n else p
    return (kp + len(j) < min(p, q)
            and j[:depth - 1] != (opp,) * (depth - 1))


def hole_diff(ctx, end, i, kp, j):
    """Pairs tiling the near patch of touching letter i minus its
    deep copy and the hole of j, a substitution word on the side of
    ``end`` (``decide.witness_letters``): along 1, R_q(T_i) minus
    (R_3q(T_i) union L_kp(T_{i [n]^2q j})); along n the mirror image,
    L_p(T_{i+1}) minus (L_3p(T_{i+1}) union R_kp(T_{(i+1) [1]^2p j})).
    Each trace range is written for end 1 and reversed for end n.

    ``certify.choose_pq`` admits (p, q) only where ``_hole_fits`` holds,
    which keeps both ``diff`` ranges nonempty and, by its docstring,
    s_a < q and s_b < p at every trace joint.  Each trace range starts
    and stops beside a gap of T: its words close on alpha, alpha + 1,
    n - beta or n - beta + 1, next to the gaps that bound the first and
    last level-1 blocks, or on j's last letter stepped toward ``end``,
    which ``decide.verify_witness`` found admissible."""
    n = ctx.spec.n
    opp = n + 1 - end
    near = (i,) if end == 1 else (i + 1,)
    diff, depth = ctx.along(opp)
    order = 1 if end == 1 else -1
    u = j[:-1] + (j[-1] - order,)   # the last letter steps toward end
    s = _leading_run(j, opp)
    # per boundary letter: its patch letter farthest from it, and the
    # letter just past its patch
    rim = {1: (ctx.alpha, ctx.alpha + 1),
           n: (n - ctx.beta + 1, n - ctx.beta)}
    inner, past = rim[opp]
    out = diff(ctx, near, depth, 2 * depth - 1)
    w1 = near + (opp,) * (2 * depth - 1)
    out.extend(trace(ctx, *(w1 + (inner,), w1 + (opp,) + u)[::order]))
    out.extend(diff(ctx, near, 2 * depth + s + 1, 3 * depth))
    w2 = near + (opp,) * (2 * depth + s)
    hole = w2 + j[s:] + (end,) * kp + (rim[end][1],)
    out.extend(trace(ctx, *(hole, w2 + (opp, past))[::order]))
    return out


def block_decompose(ctx, idx):
    """One level-1 block rewritten through its own children.

    A single-letter block becomes the full child block list; a multi
    letter block merges each internal touching pair into a touch2
    piece.
    """
    b, e = ctx.blocks[idx - 1]
    c1 = ctx.c1
    if b == e:
        out = [((b,), ("comp1", j)) for j in range(1, c1 + 1)]
    else:
        out = [((b,), ("comp1", 1))]
        out.extend(((l,), ("comp1", j))
                   for l in range(b, e + 1) for j in range(2, c1))
        out.extend(((), ("touch2", l)) for l in range(b, e))
        out.append(((e,), ("comp1", c1)))
    return out
