import math
import warnings

import numpy as np
import pytest

from padelab import (
    Polynomial,
    PowerSeries,
    RationalFunction,
    derivative_values,
    partial_sum,
    polynomial_gcd,
    rational_normalize,
    series_builtin,
    taylor_of_rational,
)
from padelab.errors import (
    InsufficientSeriesError,
    InvalidDenominatorError,
    PoleAtCenterError,
    PreconditionError,
    SingularCenterError,
)
from padelab.series import polynomial_divmod

from conftest import complex_normal


def poly(*coeffs):
    return Polynomial(list(coeffs))


class TestPolynomialAlgebra:
    def test_identity_expansion(self):
        product = poly(1, 1) * poly(1, -1)  # (1+z)(1-z)
        assert np.allclose(product.coefficients, [1, 0, -1])

    def test_derivative_of_cube(self):
        assert np.allclose(poly(0, 0, 0, 1).derivative().coefficients, [0, 0, 3])

    def test_antiderivative_vanishing_at_zero(self):
        anti = poly(0, 0, 3).antiderivative()
        assert np.allclose(anti.coefficients, [0, 0, 0, 1])
        assert anti(0) == 0

    def test_antiderivative_then_derivative_restores(self, rng):
        coeffs = complex_normal(rng, 7)
        p = Polynomial(coeffs)
        restored = p.antiderivative().derivative()
        assert np.allclose(restored.coefficients, p.coefficients, atol=1e-14)

    def test_horner_matches_numpy(self, rng):
        coeffs = complex_normal(rng, 6)
        p = Polynomial(coeffs)
        for z in complex_normal(rng, 5):
            assert abs(p(z) - np.polyval(coeffs[::-1], z)) < 1e-12

    def test_recentered_is_same_function(self, rng):
        p = Polynomial(complex_normal(rng, 8))
        q = p.recentered(0.7 - 0.3j)
        for z in complex_normal(rng, 6):
            assert abs(p(z) - q(z)) < 1e-10
        assert q.recentered(0.0).center == 0.0

    def test_zero_polynomial_sentinel_degree(self):
        assert Polynomial([0.0]).degree == -1
        assert poly(1, 2).degree == 1

    def test_trimming_is_scale_invariant(self):
        base = [1.0, 2.0, 1e-20]
        small = Polynomial([1e-9 * c for c in base])
        assert small.degree == Polynomial(base).degree == 1

    def test_divmod_roundtrip(self, rng):
        a = Polynomial(complex_normal(rng, 7))
        b = Polynomial(complex_normal(rng, 4))
        q, r = polynomial_divmod(a, b)
        recomposed = q * b + r
        assert np.allclose(recomposed.coefficients, a.coefficients, atol=1e-12)


class TestRationalNormalize:
    def test_common_factor_divided_out(self):
        num = poly(-1, 1) * poly(2, 1)  # (z-1)(z+2)
        den = poly(-1, 1) * poly(3, 1)  # (z-1)(z+3)
        r = rational_normalize(num, den)
        assert np.allclose(r.numerator.coefficients, [2, 1])
        assert np.allclose(r.denominator.coefficients, [3, 1])

    def test_euclid_oracle_confirms_gcd(self):
        num = poly(-1, 1) * poly(2, 1)
        den = poly(-1, 1) * poly(3, 1)
        g = polynomial_gcd(num, den)
        assert g.degree == 1
        assert abs(g(1.0)) < 1e-12

    def test_already_coprime_unchanged(self):
        r = rational_normalize(poly(2, 1), poly(3, 1))
        assert np.allclose(r.numerator.coefficients, [2, 1])
        assert np.allclose(r.denominator.coefficients, [3, 1])

    def test_zero_denominator_rejected(self):
        with pytest.raises(InvalidDenominatorError):
            rational_normalize(poly(1), Polynomial([0.0]))

    def test_idempotent(self, rng):
        num = Polynomial(complex_normal(rng, 4))
        den = Polynomial(complex_normal(rng, 3))
        once = rational_normalize(num, den)
        twice = rational_normalize(once.numerator, once.denominator)
        assert np.allclose(once.numerator.coefficients, twice.numerator.coefficients)
        assert np.allclose(once.denominator.coefficients, twice.denominator.coefficients)



class TestDerivativeValues:
    def test_pole_powers_closed_form(self, rng):
        # d^l/dz^l c (z-a)^-m = c (-1)^l (m+l-1)!/(m-1)! (z-a)^-(m+l)
        for _ in range(20):
            a = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            c = complex_normal(rng, 1)[0]
            z = a + rng.uniform(0.5, 3.0, 50) * np.exp(2j * np.pi * rng.uniform(size=50))
            for m in (1, 2, 3):
                monomial_basis = Polynomial([1.0])
                for _ in range(m):
                    monomial_basis = monomial_basis * poly(-a, 1)
                for den in (monomial_basis, Polynomial.monomial(m, 1.0, a)):
                    f = RationalFunction(Polynomial([c], den.center), den)
                    values = derivative_values(f.numerator, f.denominator, z, 6)
                    assert len(values) == 7
                    for ell, got in enumerate(values):
                        rising = math.factorial(m + ell - 1) / math.factorial(m - 1)
                        want = c * (-1) ** ell * rising / (z - a) ** (m + ell)
                        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    def test_order_zero_is_evaluation(self, rng):
        for _ in range(20):
            f = RationalFunction(Polynomial(complex_normal(rng, 5)), Polynomial(complex_normal(rng, 4)))
            z = 2.0 * complex_normal(rng, 40)
            (got,) = derivative_values(f.numerator, f.denominator, z, 0)
            assert np.array_equal(got.view(np.uint64), f(z).view(np.uint64))

    def test_matches_taylor_coefficients(self, rng):
        # R^(l)(z0) = l! a_l for the Taylor coefficients a_l of R at z0
        factorials = np.array([math.factorial(k) for k in range(5)])
        for _ in range(10):
            f = RationalFunction(Polynomial(complex_normal(rng, 6)), Polynomial(complex_normal(rng, 3)))
            z = 0.5 * complex_normal(rng, 30)
            want = np.array([taylor_of_rational(f, w, 4).coefficients * factorials for w in z]).T
            got = np.array(derivative_values(f.numerator, f.denominator, z, 4))
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    def test_pole_on_a_point_warns_nothing(self):
        f = RationalFunction(poly(1), poly(-1, 1))  # 1/(z - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = derivative_values(f.numerator, f.denominator, np.array([1.0 + 0j, 0j]), 3)
        assert [bool(np.isfinite(v[0])) for v in values] == [False] * 4
        assert [complex(v[1]) for v in values] == [-1, -1, -2, -6]


class TestTaylorOfRational:
    def test_geometric_series_at_origin(self):
        r = RationalFunction(poly(1), poly(1, -1))  # 1/(1-z)
        s = taylor_of_rational(r, 0.0, 5)
        assert np.allclose(s.coefficients, np.ones(6))

    def test_geometric_series_recentered(self):
        # independent oracle: divide 1 by the shifted denominator coefficients
        r = RationalFunction(poly(1), poly(1, -1))
        s = taylor_of_rational(r, 0.5, 3)
        den_shifted = [0.5, -1.0]  # 1 - (w + 1/2)
        oracle = []
        for n in range(4):
            value = (1.0 if n == 0 else 0.0) - (den_shifted[1] * oracle[n - 1] if n else 0.0)
            oracle.append(value / den_shifted[0])
        assert np.allclose(s.coefficients, oracle)
        assert np.allclose(s.coefficients, [2.0 ** (n + 1) for n in range(4)])

    def test_pole_at_center_rejected(self):
        r = RationalFunction(poly(1), poly(1, -1))
        with pytest.raises(PoleAtCenterError):
            taylor_of_rational(r, 1.0, 3)

    def test_reexpansion_agrees_with_direct_evaluation(self, rng):
        num = Polynomial(complex_normal(rng, 4))
        den = Polynomial(np.concatenate([complex_normal(rng, 2), [1.0]]))
        r = rational_normalize(num, den)
        zeta = 0.1 + 0.2j
        if abs(r.denominator(zeta)) < 0.3:
            zeta = -0.4j
        s = taylor_of_rational(r, zeta, 25)
        for dz in 0.02 * complex_normal(rng, 5):
            z = zeta + dz
            assert abs(s(z) - r(z)) < 1e-9 * max(1.0, abs(r(z)))


class TestPartialSum:
    def test_exp_partial_sum(self):
        s = series_builtin("exp", 0.0, 6)
        p = partial_sum(s, 2)
        assert np.allclose(p.coefficients, [1, 1, 0.5])

    def test_negative_order_gives_zero(self):
        s = series_builtin("exp", 0.0, 4)
        assert partial_sum(s, -3).is_zero

    def test_beyond_truncation_rejected(self):
        s = series_builtin("exp", 0.0, 4)
        with pytest.raises(InsufficientSeriesError):
            partial_sum(s, 7)

    def test_value_at_center_is_a0(self, rng):
        coeffs = complex_normal(rng, 8)
        s = PowerSeries(coeffs, 0.3 + 0.1j)
        for k in range(8):
            assert partial_sum(s, k)(s.center) == coeffs[0]


class TestSeriesBuiltin:
    def test_exp_coefficients(self):
        s = series_builtin("exp", 0.0, 4)
        assert np.allclose(s.coefficients, [1, 1, 1 / 2, 1 / 6, 1 / 24])

    def test_exp_beyond_float_factorials(self):
        # float(k!) overflows from k = 171 on; the coefficients below keep their bits
        for center in (0.0, 2.0 - 1.0j):
            short = series_builtin("exp", center, 170).coefficients
            long = series_builtin("exp", center, 200).coefficients
            assert np.array_equal(long[:171].view(np.uint64), short.view(np.uint64))
            for k in range(171, 201):
                assert long[k] == long[k - 1] / k

    def test_log1m_coefficients(self):
        s = series_builtin("log1m", 0.0, 3)
        assert np.allclose(s.coefficients, [0, -1, -1 / 2, -1 / 3])

    def test_geometric_coefficients(self):
        s = series_builtin("geometric", 0.0, 3)
        assert np.allclose(s.coefficients, [1, 1, 1, 1])

    def test_singular_center_rejected(self):
        with pytest.raises(SingularCenterError):
            series_builtin("log1m", 1.0, 3)

    @pytest.mark.parametrize("name", ["exp", "log1m", "geometric"])
    def test_negative_order_rejected(self, name):
        with pytest.raises(PreconditionError, match="^series order must be non-negative, got -3$"):
            series_builtin(name, 0.0, -3)


class TestCoefficientArrays:
    def test_reversed_view(self):
        coeffs = np.arange(3, dtype=complex)[::-1]
        assert Polynomial(coeffs).coefficients.tolist() == [2, 1]

    def test_stepped_slice(self):
        coeffs = np.arange(6, dtype=complex)
        assert PowerSeries(coeffs[::2]).coefficients.tolist() == [0, 2, 4]

    @pytest.mark.parametrize("bad", [
        complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0), complex(0.0, math.nan),
    ])
    @pytest.mark.parametrize("kind", [Polynomial, PowerSeries])
    def test_non_finite_part_rejected(self, kind, bad):
        coeffs = np.array([1.0, bad, 2.0, 0.0], dtype=complex)
        for arr in (coeffs, coeffs[::-1]):
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                kind(arr)


class TestSerialization:
    def test_polynomial_roundtrip(self, rng):
        p = Polynomial(complex_normal(rng, 5), center=0.2 - 0.4j)
        q = Polynomial.from_data(p.to_data())
        assert q == p

    def test_rational_roundtrip(self):
        r = RationalFunction(poly(1, 3), poly(-2, 1))
        r2 = RationalFunction.from_data(r.to_data())
        assert np.allclose(r2.numerator.coefficients, r.numerator.coefficients)
        assert np.allclose(r2.denominator.coefficients, r.denominator.coefficients)

    def test_series_roundtrip(self, rng):
        s = PowerSeries(complex_normal(rng, 6), center=1j)
        s2 = PowerSeries.from_data(s.to_data())
        assert type(s2) is PowerSeries
        assert s2.center == s.center
        assert np.array_equal(s2.coefficients, s.coefficients)
