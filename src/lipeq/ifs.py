"""Self-similar systems on [0,1]: validation, cylinders, level-1 blocks.

A system is a list of orientation-preserving contractions
``psi_i(x) = r_i * x + t_i`` whose images tile [0,1] from left to right
without overlapping interiors.  Two roles are supported:

* ``touching`` -- adjacent images may share an endpoint; at least one pair
  must, at least one gap must be positive, and the images span [0,1].
* ``dust`` -- all gaps strictly positive (the equally spaced canonical
  counterpart built by :func:`canonical_dust` is the main example).

Words are tuples of 1-based letters.  ``T_w`` denotes the cylinder of the
attractor addressed by word ``w``.

Cylinder maps live on an integer grid.  Let q be the least common
denominator of all ratios and translations of a rational system, and
``R_c = q * r_c``, ``T_c = q * t_c`` its integer letters.  Then

    psi_w(x) = (S_w * x + O_w) / q**|w|,
    S_wc = S_w * R_c,    O_wc = q * O_w + S_w * T_c,

with S and O integers, since psi_wc(x) = psi_w(r_c x + t_c) and
q**|wc| = q * q**|w|.  The identity holds term by term over the
integers, so a cylinder's scale and ends are exact: each is one
normalized ``Fraction`` built from the grid, equal to the one the
``Fraction`` recursion gives.  A system with a declared base runs the
same recursion with q = 1 over its own exact values.
"""

from fractions import Fraction
from math import lcm

from .exactnum import ExactRatio


class SpecError(Exception):
    pass


class TouchingStructure:
    """Which letters touch their right neighbour, and the boundary runs.

    ``letters`` is the set of i with psi_i(1) == psi_{i+1}(0).
    ``alpha`` is the first letter not in the set (the initial touching run
    is 1..alpha-1), ``beta`` the symmetric count at the right end.
    """

    def __init__(self, letters, n):
        self.letters = frozenset(letters)
        self.n = n
        a = 1
        while a in self.letters:
            a += 1
        self.alpha = a
        b = 1
        while n - b in self.letters:
            b += 1
        self.beta = b

    def __repr__(self):
        return ("TouchingStructure(letters=%s, alpha=%d, beta=%d)"
                % (sorted(self.letters), self.alpha, self.beta))


class IfsSpec:
    """Validated self-similar system.

    ratios: tuple of ExactRatio.
    translations: tuple of exact values (Fraction, or a symbolic sum
    from exactnum).
    bases: dict name -> DeclaredBase for any symbolic constants.
    role: "touching" or "dust".
    """

    def __init__(self, ratios, translations, role="touching", bases=None,
                 mu_independent=False):
        self.ratios = tuple(r if isinstance(r, ExactRatio) else ExactRatio(r)
                            for r in ratios)
        self.bases = dict(bases or {})
        self.role = role
        self.n = len(self.ratios)
        self.mu_independent = mu_independent
        self.rho = tuple(r.value(self.bases) for r in self.ratios)
        self.t = tuple(translations)
        self._init_grid()
        self._ratio_cache = {(): ExactRatio(1)}
        # check.rules_affine results, keyed by rule tuple (successes only)
        self._rules_cache = {}
        self._dust = None
        self._validate()
        self.touching = TouchingStructure(
            [i for i in range(1, self.n)
             if self.t[i - 1] + self.rho[i - 1] == self.t[i]],
            self.n)

    def _init_grid(self):
        """The letters (R, T), q and the cache of the cylinder grid; see
        the module docstring.  ``_grid`` maps a word w to (S_w, O_w)."""
        vals = self.rho + self.t
        self._on_grid = all(isinstance(v, (int, Fraction)) for v in vals)
        if self._on_grid:
            q = lcm(*(v.denominator for v in vals))
            self._q = q
            self._R = tuple(v.numerator * (q // v.denominator)
                            for v in self.rho)
            self._T = tuple(v.numerator * (q // v.denominator)
                            for v in self.t)
            self._grid = {(): (1, 0)}
        else:
            self._q = 1
            self._R = self.rho
            self._T = self.t
            self._grid = {(): (Fraction(1), Fraction(0))}

    def _validate(self):
        n = self.n
        if n < 3:
            raise SpecError("need at least three maps, got %d" % n)
        for i, r in enumerate(self.ratios):
            lo, hi = r.interval(self.bases)
            if not (lo > 0 and hi < 1):
                raise SpecError("ratio %d not certainly in (0,1)" % (i + 1))
        if self.t[0] != 0:
            raise SpecError("first map must fix 0")
        if self.t[n - 1] + self.rho[n - 1] != 1:
            raise SpecError("last map must send 1 to 1")
        gaps = []
        for i in range(n - 1):
            g = self.t[i + 1] - (self.t[i] + self.rho[i])
            if g < 0:
                raise SpecError("images %d and %d overlap" % (i + 1, i + 2))
            gaps.append(0 if g == 0 else 1)
        if self.role == "touching":
            if all(g > 0 for g in gaps):
                raise SpecError("touching system needs a shared endpoint")
            if all(g == 0 for g in gaps):
                raise SpecError(
                    "images fill [0,1] with no gap; that is the unit "
                    "interval, out of scope")
        elif self.role == "dust":
            if any(g == 0 for g in gaps):
                raise SpecError("dust system must have all gaps positive")
        else:  # an excerpt: the role may come from a file, of any length
            role = ascii(self.role)
            raise SpecError("unknown role %s" % (
                role if len(role) <= 60 else role[:60] + "..."))

    # -- basic geometry ----------------------------------------------------

    def _cell(self, word):
        """(S_word, O_word) on the grid, for a nonempty word not in
        ``_grid``, each prefix cached on the way.  Commonly its parent
        word[:-1] is cached, and one step gives it; else the parent is
        built first, forward from the longest cached prefix (the empty
        word always is).  No recursion, so a word's length is not
        bounded by the interpreter's stack."""
        grid = self._grid
        n = len(word) - 1
        got = grid.get(word[:n])
        if got is None:
            k = n - 1
            while (got := grid.get(word[:k])) is None:
                k -= 1
            s, o = got
            for k in range(k, n):
                i = word[k] - 1
                got = s, o = s * self._R[i], o * self._q + s * self._T[i]
                if len(grid) < 400000:
                    grid[word[:k + 1]] = got
        s, o = got
        i = word[n] - 1
        res = (s * self._R[i], o * self._q + s * self._T[i])
        if len(grid) < 400000:
            grid[word] = res
        return res

    def grid(self, word):
        """(S, O, D) with psi_word(x) = (S * x + O) / D, D = q**|word|.

        On a rational system S, O and D are the integers of the module
        docstring, and q >= 2, since the ratios lie strictly between 0
        and 1.  A declared-base system has q = 1, so D = 1 and S, O are
        its exact values.  For a letter c, ``grid((c,))`` is
        (R_c, T_c, q)."""
        s, o = self._grid.get(word) or self._cell(word)
        return s, o, self._q ** len(word)

    def affine(self, word):
        """(scale, offset) of psi_word, exact.

        psi_word(x) = (S * x + O) / q**|word| with integers S, O from the
        grid of the module docstring; the identity is exact because each
        step multiplies the numerators and the denominator by integers.
        So the scale and the offset are each one normalized ``Fraction``.
        A declared-base system has q = 1 and returns its grid values."""
        s, o = self._grid.get(word) or self._cell(word)
        if self._on_grid:
            d = self._q ** len(word)
            return (Fraction(s, d), Fraction(o, d))
        return (s, o)

    def cyl_interval(self, word):
        s, o = self._grid.get(word) or self._cell(word)
        if self._on_grid:
            d = self._q ** len(word)
            return (Fraction(o, d), Fraction(o + s, d))
        return (o, o + s)

    def cyl_lo(self, word):
        s, o = self._grid.get(word) or self._cell(word)
        if self._on_grid:
            return Fraction(o, self._q ** len(word))
        return o

    def cyl_hi(self, word):
        s, o = self._grid.get(word) or self._cell(word)
        if self._on_grid:
            return Fraction(o + s, self._q ** len(word))
        return o + s

    def ratio_word(self, word):
        """Contraction ratio of psi_word as an ExactRatio, cached by word.

        On a rational system it is read off the grid, S_word / q**|word|
        (the module docstring), one ``ExactRatio`` per new word.  A
        declared-base system multiplies the letter ratios along the
        prefixes, one product per prefix not seen before.  Both give the
        product of the letter ratios, so a system and its dust, which
        share this cache (``dust``), may fill it in either order."""
        cache = self._ratio_cache
        got = cache.get(word)
        if got is not None:
            return got
        if self._on_grid:
            s, _ = self._grid.get(word) or self._cell(word)
            r = ExactRatio(Fraction(s, self._q ** len(word)))
            if len(cache) < 400000:
                cache[word] = r
            return r
        k = len(word) - 1
        while word[:k] not in cache:
            k -= 1
        r = cache[word[:k]]
        for k in range(k, len(word)):
            r = r * self.ratios[word[k] - 1]
            if len(cache) < 400000:
                cache[word[:k + 1]] = r
        return r

    def dust(self):
        """The equally spaced dust counterpart (:func:`canonical_dust`),
        built on first use and kept with this system.  It has the same
        ratio tuple, so the two share one ``ratio_word`` table."""
        if self._dust is None:
            self._dust = canonical_dust(self.ratios, self.bases)
            self._dust._ratio_cache = self._ratio_cache
        return self._dust

    # -- level-1 connected blocks -------------------------------------------

    def blocks(self):
        """Partition of letters 1..n into maximal touching runs.

        Returns a list of (first, last) letter pairs, left to right.  These
        are the connected components of the level-1 picture.
        """
        out = []
        b = 1
        for i in range(1, self.n + 1):
            if i == self.n or i not in self.touching.letters:
                out.append((b, i))
                b = i + 1
        return out

    def mirror(self):
        """The left-right reflection about 1/2, same role."""
        n = self.n
        ratios = tuple(self.ratios[n - 1 - i] for i in range(n))
        one = Fraction(1)
        ts = tuple(one - self.t[n - 1 - i] - self.rho[n - 1 - i]
                   for i in range(n))
        return IfsSpec(ratios, ts, role=self.role, bases=self.bases,
                       mu_independent=self.mu_independent)


def words_touch(spec, u, v):
    """True iff cylinders T_u (left) and T_v (right) share an endpoint.

    Purely combinatorial: after the common prefix, u must continue with a
    touching letter then all-n, and v with the successor letter then all-1.
    Assumes u lexicographically precedes v and neither is a prefix of the
    other.
    """
    m = 0
    while m < len(u) and m < len(v) and u[m] == v[m]:
        m += 1
    if m == len(u) or m == len(v):
        raise ValueError("prefix-comparable words")
    a, b = u[m], v[m]
    if b != a + 1 or a not in spec.touching.letters:
        return False
    return (all(x == spec.n for x in u[m + 1:])
            and all(x == 1 for x in v[m + 1:]))


def canonical_dust(ratios, bases=None):
    """Equally spaced dust system with the given contraction vector.

    Gaps all equal (1 - sum r_i) / (n - 1); requires that sum to be
    certainly below 1.
    """
    ratios = tuple(ratios)
    n = len(ratios)
    bases = dict(bases or {})
    rho = [r.value(bases) for r in ratios]
    total = rho[0]
    for v in rho[1:]:
        total = total + v
    slack = 1 - total
    if slack <= 0:
        raise SpecError("ratios sum to 1 or more; no dust counterpart")
    gap = slack * Fraction(1, n - 1)
    ts = []
    pos = Fraction(0)
    for i in range(n):
        ts.append(pos)
        pos = pos + rho[i] + gap
    return IfsSpec(ratios, tuple(ts), role="dust", bases=bases)
