"""Exact arithmetic for contraction ratios and interval endpoints.

Two kinds of exact numbers appear in this package:

* ``ExactRatio`` -- a positive number of the form ``scalar * prod(base**e)``
  where the scalar is a rational and the bases are user-declared constants
  assumed multiplicatively independent of each other and of the primes.
  Contraction ratios are always of this shape.

* ``SymValue`` -- a finite sum of such monomials with rational coefficients.
  Interval endpoints (translations, cylinder endpoints) live here when a
  spec involves declared bases; purely rational specs just use ``Fraction``.

This module is the one place that knows the exact-value types.  A
``SymValue`` meets ``Fraction`` and ``int`` in ``+``, ``-``, ``*`` and
every comparison from either side, and takes nonnegative ``int`` powers,
so code elsewhere writes plain operators on whichever type it holds.

Comparisons on symbolic values are certified with rational interval
arithmetic built from the declared decimal enclosures.  When an enclosure
cannot separate two values and the values are not structurally identical,
an ``UncertifiableComparisonError`` is raised rather than guessing.
"""

from fractions import Fraction
import math
import random
from types import MappingProxyType


class ExactError(Exception):
    pass


class FactorizationError(ExactError):
    """An integer could not be factored within ``MAX_FACTOR_BITS``."""


class UncertifiableComparisonError(ExactError):
    """Declared enclosures are too coarse to order two symbolic values."""


# ---------------------------------------------------------------------------
# integer factorization: trial division + Pollard rho

_SMALL_PRIME_BOUND = 100000
# the largest composite cofactor, in bits, that Pollard rho is tried on
MAX_FACTOR_BITS = 64

def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n, rng):
    while True:
        c = rng.randrange(1, n)
        x = rng.randrange(0, n)
        y = x
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n):
    """Factor a positive integer into a dict {prime: exponent}.

    Raises FactorizationError when a composite cofactor larger than
    ``MAX_FACTOR_BITS`` bits resists trial division, instead of stalling.
    """
    if n <= 0:
        raise ValueError("factorize needs a positive integer")
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    # simple wheel-ish trial division
    while d * d <= n and d < _SMALL_PRIME_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n == 1:
        return out
    rng = random.Random(0xfac7)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        if m.bit_length() > MAX_FACTOR_BITS:
            raise FactorizationError(
                "composite factor with %d bits exceeds the %d-bit bound"
                % (m.bit_length(), MAX_FACTOR_BITS))
        d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return out


# ---------------------------------------------------------------------------
# declared symbolic bases

# the most decimal digits of a declared enclosure.  Validation raises
# enclosures to the exponents of the ratios, so this bounds the size of
# those powers together with ``specfile.MAX_EXPONENT`` and
# ``specfile.MAX_BASES``.
MAX_DIGITS = 50


class DeclaredBase:
    """A named positive constant with a decimal enclosure.

    The user asserts that distinct declared bases are multiplicatively
    independent from each other and from the rationals; the package trusts
    that assertion for exponent-vector computations and records it in
    reports.  ``value_str`` is a decimal literal; the enclosure is
    value +/- 10**-digits where ``digits`` defaults to the number of
    fractional digits supplied.
    """

    def __init__(self, name, value_str, digits=None):
        self.name = name
        self.value_str = value_str
        if digits is None:
            digits = len(value_str.split(".")[1]) if "." in value_str else 0
        if digits > MAX_DIGITS:
            raise ValueError("an enclosure of %d digits is over the limit "
                             "of %d" % (digits, MAX_DIGITS))
        v = Fraction(value_str)
        self.digits = digits
        eps = Fraction(1, 10 ** digits) if digits else Fraction(1)
        self.lo = v - eps
        self.hi = v + eps
        if self.lo <= 0:
            raise ValueError("a declared base must be certainly positive")

    def interval(self):
        return (self.lo, self.hi)

    def __repr__(self):
        return "DeclaredBase(%r, %r)" % (self.name, self.value_str)


# interval helpers: closed rational intervals (lo, hi).  Every interval
# that reaches them is positive.  ``_mono_interval`` is their one caller,
# and it builds each interval as a product of integer powers of declared
# enclosures, which ``DeclaredBase`` makes positive (it rejects lo <= 0).
# A power of a positive interval is positive, and so is a product of
# positive intervals; the product's ends are the products of the ends.

def _iv_mul(a, b):
    return (a[0] * b[0], a[1] * b[1])


def _iv_pow(iv, e):
    """iv**e, exactly; for e < 0 the reciprocal swaps the ends."""
    lo, hi = iv
    if e < 0:
        return (hi ** e, lo ** e)
    return (lo ** e, hi ** e)


def _mono_interval(mono, env):
    iv = (Fraction(1), Fraction(1))
    for name, e in mono:
        base = env[name]
        iv = _iv_mul(iv, _iv_pow(base.interval(), e))
    return iv


# ---------------------------------------------------------------------------
# ExactRatio

def _norm_sym(sym):
    return tuple(sorted((k, v) for k, v in sym.items() if v != 0))


class ExactRatio:
    """Positive exact number: rational scalar times a product of declared
    bases raised to integer powers.  Rational iff the product part is empty.
    """

    # _vec: the exponent vector, filled by ``to_exponent_vector``
    __slots__ = ("scalar", "sym", "_vec")

    def __init__(self, scalar, sym=()):
        scalar = scalar if type(scalar) is Fraction else Fraction(scalar)
        if scalar <= 0:
            raise ValueError("ExactRatio scalar must be positive")
        self.scalar = scalar
        self.sym = _norm_sym(dict(sym))

    def __mul__(self, other):
        if not isinstance(other, ExactRatio):
            return NotImplemented
        sym = dict(self.sym)
        for k, v in other.sym:
            sym[k] = sym.get(k, 0) + v
        return ExactRatio(self.scalar * other.scalar, sym)

    def __truediv__(self, other):
        if not isinstance(other, ExactRatio):
            return NotImplemented
        sym = dict(self.sym)
        for k, v in other.sym:
            sym[k] = sym.get(k, 0) - v
        return ExactRatio(self.scalar / other.scalar, sym)

    def pow_int(self, e):
        if not isinstance(e, int):
            raise TypeError("integer exponent required")
        if e == 0:
            return ExactRatio(1)
        return ExactRatio(self.scalar ** e, {k: v * e for k, v in self.sym})

    def __eq__(self, other):
        if not isinstance(other, ExactRatio):
            return NotImplemented
        # structural equality is sound under the independence assertion
        return self.scalar == other.scalar and self.sym == other.sym

    def __hash__(self):
        return hash((self.scalar, self.sym))

    def interval(self, env=None):
        if not self.sym:
            return (self.scalar, self.scalar)
        iv = _mono_interval(self.sym, env or {})
        return (self.scalar * iv[0], self.scalar * iv[1])

    def to_float(self, env=None):
        lo, hi = self.interval(env)
        return float((lo + hi) / 2)

    def value(self, env=None):
        """Exact value as a Fraction (rational case) or SymValue."""
        if not self.sym:
            return self.scalar
        return SymValue({self.sym: self.scalar}, env)

    def __repr__(self):
        if not self.sym:
            return "ExactRatio(%s)" % self.scalar
        return "ExactRatio(%s, %r)" % (self.scalar, dict(self.sym))


def ratio_cmp(a, b, env=None):
    """Certified three-way comparison of two ExactRatios: -1, 0 or 1."""
    if a == b:
        return 0
    alo, ahi = a.interval(env)
    blo, bhi = b.interval(env)
    if ahi < blo:
        return -1
    if bhi < alo:
        return 1
    # same monomial, different scalar: compare scalars exactly
    if a.sym == b.sym:
        return -1 if a.scalar < b.scalar else 1
    raise UncertifiableComparisonError(
        "enclosures of %r and %r overlap; declare more digits" % (a, b))


# ---------------------------------------------------------------------------
# symbolic exact reals (sums of monomials)

class SymValue:
    """Finite sum of rational multiples of base monomials.

    Supports +, -, * with other SymValues, Fractions and ints, nonnegative
    int powers, and certified comparisons.  Equality of identical
    canonical forms is exact; otherwise the difference's enclosure must
    separate from zero or an UncertifiableComparisonError is raised.
    """

    __slots__ = ("terms", "env")

    def __init__(self, terms, env):
        self.terms = {m: Fraction(c) for m, c in terms.items() if c != 0}
        self.env = env

    @classmethod
    def wrap(cls, x, env):
        if isinstance(x, SymValue):
            return x
        return cls({(): Fraction(x)}, env)

    def _binop(self, other, f):
        o = SymValue.wrap(other, self.env)
        terms = dict(self.terms)
        for m, c in o.terms.items():
            terms[m] = f(terms.get(m, Fraction(0)), c)
        return SymValue(terms, self.env or o.env)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return SymValue.wrap(other, self.env) - self

    def __neg__(self):
        return SymValue({m: -c for m, c in self.terms.items()}, self.env)

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SymValue({m: c * other for m, c in self.terms.items()},
                            self.env)
        o = SymValue.wrap(other, self.env)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                d = dict(m1)
                for k, v in m2:
                    d[k] = d.get(k, 0) + v
                m = _norm_sym(d)
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return SymValue(terms, self.env or o.env)

    __rmul__ = __mul__

    def __pow__(self, e):
        """``self`` multiplied ``e`` times into 1, for an int e >= 0."""
        if type(e) is not int or e < 0:
            return NotImplemented
        out = SymValue({(): Fraction(1)}, self.env)
        for _ in range(e):
            out = out * self
        return out

    def interval(self):
        lo = hi = Fraction(0)
        for m, c in self.terms.items():
            ml, mh = _mono_interval(m, self.env)
            ml, mh = c * ml, c * mh
            if ml > mh:
                ml, mh = mh, ml
            lo += ml
            hi += mh
        return (lo, hi)

    def is_zero(self):
        return not self.terms

    def _sign(self):
        if not self.terms:
            return 0
        if len(self.terms) == 1 and () in self.terms:
            c = self.terms[()]
            return -1 if c < 0 else 1
        lo, hi = self.interval()
        if hi < 0:
            return -1
        if lo > 0:
            return 1
        raise UncertifiableComparisonError(
            "cannot separate %r from zero with declared enclosures" % self)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, SymValue)):
            d = self - other
            if d.is_zero():
                return True
            return d._sign() == 0
        return NotImplemented

    def __hash__(self):
        # a constant-only value equals its Fraction, so it hashes as one
        if not self.terms.keys() - {()}:
            return hash(self.terms.get((), Fraction(0)))
        return hash(frozenset(self.terms.items()))

    def __lt__(self, other):
        return (self - other)._sign() < 0

    def __le__(self, other):
        d = self - other
        return d.is_zero() or d._sign() < 0

    def __gt__(self, other):
        return (self - other)._sign() > 0

    def __ge__(self, other):
        d = self - other
        return d.is_zero() or d._sign() > 0

    def __float__(self):
        lo, hi = self.interval()
        return float((lo + hi) / 2)

    def __repr__(self):
        if not self.terms:
            return "SymValue(0)"
        bits = []
        for m, c in sorted(self.terms.items()):
            s = str(c)
            for k, v in m:
                s += "*%s^%d" % (k, v) if v != 1 else "*%s" % k
            bits.append(s)
        return "SymValue(%s)" % " + ".join(bits)


# ---------------------------------------------------------------------------
# exponent vectors and multiplicative dependence

def to_exponent_vector(r):
    """Exponent vector of an ExactRatio over primes and declared bases.

    Keys are ints (primes) and strings (declared base names); distinct keys
    are treated as multiplicatively independent.  Rational parts are fully
    factored; a huge unfactorable numerator or denominator raises
    FactorizationError.  The vector is computed once per ratio object and
    returned as a read-only mapping.
    """
    try:
        return r._vec
    except AttributeError:
        pass
    vec = {}
    num = r.scalar.numerator
    den = r.scalar.denominator
    if num != 1:
        for p, e in factorize(num).items():
            vec[p] = vec.get(p, 0) + e
    if den != 1:
        for p, e in factorize(den).items():
            vec[p] = vec.get(p, 0) - e
    for k, v in r.sym:
        vec[k] = vec.get(k, 0) + v
    r._vec = MappingProxyType({k: v for k, v in vec.items() if v != 0})
    return r._vec


def mult_dependence(a, b):
    """Smallest positive integers (p, q) with a**p == b**q, or None.

    Both arguments are ExactRatios; independence of declared bases is
    assumed as asserted at declaration time.
    """
    va = to_exponent_vector(a)
    vb = to_exponent_vector(b)
    if not va or not vb:
        return None  # one of them is 1, ratios in (0,1) never are
    if set(va) != set(vb):
        return None
    k0 = next(iter(va))
    t = Fraction(va[k0], vb[k0])  # q/p candidate
    if t <= 0:
        return None
    q, p = t.numerator, t.denominator
    if any(p * va[k] != q * vb[k] for k in va):
        return None
    assert a.pow_int(p) == b.pow_int(q)
    return (p, q)


# ---------------------------------------------------------------------------
# Moran dimension

# the residual |sum r^s - 1| at which the bisection stops
MORAN_TOL = 1e-12


def moran_dimension(ratios, env=None):
    """Similarity dimension: the s with sum(r**s) == 1.

    ``ratios`` is a list of ExactRatios (or floats) in (0,1).  Bisection on
    floats; the residual |sum r^s - 1| is driven below ``MORAN_TOL``.
    """
    vals = []
    for r in ratios:
        f = r.to_float(env) if isinstance(r, ExactRatio) else float(r)
        if not 0.0 < f < 1.0:
            raise ValueError("ratios must lie strictly inside (0,1)")
        vals.append(f)
    if len(vals) < 2:
        raise ValueError("need at least two ratios for a root in s > 0")

    def f(s):
        return math.fsum(v ** s for v in vals) - 1.0

    lo, hi = 1e-9, 1.0
    if f(lo) < 0:
        raise ValueError("ratio list sums below 1 even at s ~ 0")
    # a list with sum > 1 has its root above 1; extend the bracket
    doublings = 0
    while f(hi) > 0:
        hi *= 2
        doublings += 1
        if doublings > 64:
            raise ValueError("no root found while extending the bracket")
    for _ in range(300):
        mid = (lo + hi) / 2
        fm = f(mid)
        if abs(fm) <= MORAN_TOL:
            return mid
        if fm > 0:
            lo = mid
        else:
            hi = mid
    mid = (lo + hi) / 2
    if abs(f(mid)) <= MORAN_TOL:
        return mid
    raise ValueError("bisection failed to reach tolerance %g" % MORAN_TOL)
