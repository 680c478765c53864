"""Exact arithmetic layer: factorization, declared bases, symbolic
ratios and values, multiplicative dependence, dimension solver."""

import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lipeq.exactnum import (ExactRatio, SymValue, DeclaredBase,
                            FactorizationError,
                            UncertifiableComparisonError,
                            factorize, ratio_cmp, to_exponent_vector,
                            mult_dependence, moran_dimension)


# ---------------------------------------------------------------------------
# factorization

class TestFactorize:
    def test_small(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}

    def test_one(self):
        assert factorize(1) == {}

    def test_prime(self):
        assert factorize(101) == {101: 1}

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        assert factorize(p * q) == {p: 1, q: 1}

    def test_unfactorable_raises(self):
        # a product of two 80-bit primes is past MAX_FACTOR_BITS = 64
        n = (2 ** 82 - 99) * (2 ** 80 - 65)
        with pytest.raises(FactorizationError):
            factorize(n)

    @given(st.integers(min_value=2, max_value=10 ** 9))
    def test_roundtrip(self, n):
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            prod *= p ** e
        assert prod == n


# ---------------------------------------------------------------------------
# declared bases and symbolic ratios

def golden_env():
    # x with x + x^2 = 1, i.e. (sqrt(5)-1)/2
    b = DeclaredBase("g", "0.61803398874989484820458683436563811772", digits=35)
    return {"g": b}


class TestExactRatio:
    def test_rational_equality(self):
        assert ExactRatio(Fraction(2, 10)) == ExactRatio(Fraction(1, 5))

    def test_symbolic_structural_equality(self):
        a = ExactRatio(Fraction(1, 2), (("g", 2),))
        b = ExactRatio(Fraction(1, 2), (("g", 2),))
        c = ExactRatio(Fraction(1, 2), (("g", 3),))
        assert a == b
        assert a != c

    def test_mul_div_pow(self):
        a = ExactRatio(Fraction(1, 3), (("g", 1),))
        b = ExactRatio(Fraction(3, 4), (("g", 2),))
        assert a * b == ExactRatio(Fraction(1, 4), (("g", 3),))
        assert (a * b) / b == a
        assert a.pow_int(3) == ExactRatio(Fraction(1, 27), (("g", 3),))

    def test_interval_encloses_value(self):
        env = golden_env()
        r = ExactRatio(Fraction(1, 2), (("g", 2),))
        lo, hi = r.interval(env)
        v = Fraction("0.61803398874989484820458683436563811772") ** 2 / 2
        assert lo <= v <= hi
        assert hi - lo < Fraction(1, 10 ** 30)

    @pytest.mark.parametrize("sym", [
        (("g", 3),), (("g", -2),), (("g", 0),), (("g", 2), ("h", -3)),
        (("g", -1), ("h", -1)), (("g", 5), ("h", 1))])
    def test_interval_is_the_extreme_corners(self, sym):
        # a monomial is monotone in each base, so its interval over the
        # box of enclosures is the least and greatest value at a corner
        env = {"g": DeclaredBase("g", "0.618", digits=3),
               "h": DeclaredBase("h", "1.5", digits=1)}
        r = ExactRatio(Fraction(2, 7), sym)
        corners = [Fraction(2, 7) * math.prod(
            env[name].interval()[end] ** e for (name, e), end
            in zip(sym, ends)) for ends in
            itertools.product((0, 1), repeat=len(sym))]
        assert r.interval(env) == (min(corners), max(corners))

    def test_declared_base_must_be_positive(self):
        with pytest.raises(ValueError):
            DeclaredBase("g", "0.05", digits=1)

    def test_ratio_cmp(self):
        env = golden_env()
        g = ExactRatio(Fraction(1), (("g", 1),))
        assert ratio_cmp(g, ExactRatio(Fraction(1, 2)), env) == 1
        assert ratio_cmp(g, ExactRatio(Fraction(2, 3)), env) == -1
        assert ratio_cmp(g, g, env) == 0

    def test_ratio_cmp_uncertifiable(self):
        # one decimal digit cannot separate g from 0.618
        b = DeclaredBase("g", "0.6", digits=1)
        g = ExactRatio(Fraction(1), (("g", 1),))
        with pytest.raises(UncertifiableComparisonError):
            ratio_cmp(g, ExactRatio(Fraction(3, 5)), {"g": b})


class TestSymValue:
    def test_arithmetic(self):
        env = golden_env()
        g = SymValue.wrap(ExactRatio(Fraction(1), (("g", 1),)).value(env),
                          env)
        two_g = g + g
        assert two_g - g == g
        assert g * Fraction(2) == two_g

    def test_golden_identity(self):
        # g + g^2 differs from 1 by less than the enclosure can certify
        # nonzero, and the canonical-zero check is purely structural,
        # so equality comparisons must refuse rather than guess
        env = golden_env()
        g = ExactRatio(Fraction(1), (("g", 1),)).value(env)
        g2 = ExactRatio(Fraction(1), (("g", 2),)).value(env)
        s = SymValue.wrap(g, env) + g2
        with pytest.raises(UncertifiableComparisonError):
            s == Fraction(1)

    def test_constant_value_hashes_as_its_fraction(self):
        half = SymValue({(): Fraction(1, 2)}, {})
        assert half == Fraction(1, 2)
        assert hash(half) == hash(Fraction(1, 2))
        assert len({half, Fraction(1, 2)}) == 1
        zero = SymValue({}, {})
        assert zero == 0
        assert hash(zero) == hash(0)

    def test_abs(self):
        env = golden_env()
        g = SymValue.wrap(
            ExactRatio(Fraction(1), (("g", 1),)).value(env), env)
        assert abs(g) == g
        assert abs(Fraction(1, 2) - g) == g - Fraction(1, 2)
        assert abs(g - g).is_zero()

    def test_comparisons(self):
        env = golden_env()
        g = SymValue.wrap(
            ExactRatio(Fraction(1), (("g", 1),)).value(env), env)
        assert g > Fraction(1, 2)
        assert g < Fraction(7, 10)
        assert not g.is_zero()

    COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le,
                   operator.gt, operator.ge)

    @pytest.mark.parametrize("other", [0, 1, Fraction(1, 2), Fraction(3, 5),
                                       Fraction(5, 8)])
    def test_mixed_comparisons_from_either_side(self, other):
        # g lies within 10**-30 of 0.6180339887; a constant SymValue
        # and a zero one compare as their Fractions
        env = golden_env()
        g = ExactRatio(Fraction(1), (("g", 1),)).value(env)
        ref = Fraction("0.6180339887")
        for x, want in ((g, ref), (SymValue({(): Fraction(1, 2)}, env),
                                   Fraction(1, 2)),
                        (g - g, Fraction(0))):
            for op in self.COMPARISONS:
                assert op(x, other) == op(want, other)
                assert op(other, x) == op(other, want)

    def test_power_is_repeated_multiplication(self):
        env = golden_env()
        g = ExactRatio(Fraction(1), (("g", 1),)).value(env)
        x = Fraction(1, 3) - g
        prod = 1
        for e in range(5):
            assert (x ** e).terms == SymValue.wrap(prod, env).terms
            assert x ** e == prod
            prod = prod * x
        assert g ** 2 == ExactRatio(Fraction(1), (("g", 2),)).value(env)
        for e in (-1, 1.0):
            with pytest.raises(TypeError):
                x ** e

    def test_unseparable_pair_raises_from_either_side(self):
        # g + g^2 == 1 exactly, which no enclosure can certify
        env = golden_env()
        s = (ExactRatio(Fraction(1), (("g", 1),)).value(env)
             + ExactRatio(Fraction(1), (("g", 2),)).value(env))
        for other in (1, Fraction(1)):
            for op in self.COMPARISONS:
                with pytest.raises(UncertifiableComparisonError):
                    op(s, other)
                with pytest.raises(UncertifiableComparisonError):
                    op(other, s)


# ---------------------------------------------------------------------------
# multiplicative dependence

class TestMultDependence:
    def test_equal(self):
        r = ExactRatio(Fraction(1, 5))
        assert mult_dependence(r, r) == (1, 1)

    def test_quarter_eighth(self):
        a = ExactRatio(Fraction(1, 4))
        b = ExactRatio(Fraction(1, 8))
        assert mult_dependence(a, b) == (3, 2)

    def test_independent(self):
        a = ExactRatio(Fraction(1, 2))
        b = ExactRatio(Fraction(1, 3))
        assert mult_dependence(a, b) is None

    def test_symbolic(self):
        a = ExactRatio(Fraction(1), (("g", 2),))
        b = ExactRatio(Fraction(1), (("g", 3),))
        assert mult_dependence(a, b) == (3, 2)

    def test_symbolic_vs_rational_independent(self):
        a = ExactRatio(Fraction(1), (("g", 1),))
        b = ExactRatio(Fraction(1, 2))
        assert mult_dependence(a, b) is None

    @given(st.integers(min_value=2, max_value=30),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5))
    def test_powers_of_common_base(self, base, i, j):
        a = ExactRatio(Fraction(1, base ** i))
        b = ExactRatio(Fraction(1, base ** j))
        p, q = mult_dependence(a, b)
        assert a.pow_int(p) == b.pow_int(q)
        g = math.gcd(p, q)
        assert g == 1

    def test_exponent_vector(self):
        r = ExactRatio(Fraction(4, 45), (("g", -2),))
        assert to_exponent_vector(r) == {2: 2, 3: -2, 5: -1, "g": -2}
        # kept on the ratio, which every caller shares: read-only
        assert to_exponent_vector(r) is to_exponent_vector(r)
        with pytest.raises(TypeError):
            to_exponent_vector(r)[2] = 0


# ---------------------------------------------------------------------------
# dimension solver

class TestMoranDimension:
    def test_equal_ratios_closed_form(self):
        for n, m in ((3, 5), (4, 7), (2, 9)):
            s = moran_dimension([ExactRatio(Fraction(1, m))] * n)
            assert abs(s - math.log(n) / math.log(m)) <= 1e-10

    def test_golden_case(self):
        # two ratios x, x^2 with x + x^2 = 1 have dimension 1
        env = golden_env()
        rs = [ExactRatio(Fraction(1), (("g", 1),)),
              ExactRatio(Fraction(1), (("g", 2),))]
        assert abs(moran_dimension(rs, env=env) - 1.0) <= 1e-10

    def test_residual_bound(self):
        rs = [ExactRatio(Fraction(1, 4)), ExactRatio(Fraction(1, 3)),
              ExactRatio(Fraction(1, 8))]
        s = moran_dimension(rs)
        total = sum(float(r.value()) ** s for r in rs)
        assert abs(total - 1.0) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(min_value=Fraction(1, 50),
                                 max_value=Fraction(9, 10)),
                    min_size=2, max_size=6))
    def test_random_lists(self, fracs):
        rs = [ExactRatio(f) for f in fracs]
        s = moran_dimension(rs)
        total = sum(float(f) ** s for f in fracs)
        assert abs(total - 1.0) <= 1e-12

    def test_needs_two_ratios(self):
        with pytest.raises(Exception):
            moran_dimension([ExactRatio(Fraction(1, 2))])
