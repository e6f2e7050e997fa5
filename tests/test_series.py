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
from padelab.series import TRIM_RTOL, _synthetic_division, polynomial_divmod

from conftest import assert_same_bits, complex_normal


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

    @pytest.mark.parametrize("center", [math.inf, complex(math.nan, 0.0), complex(0.0, -math.inf), complex(1.0, math.nan)])
    @pytest.mark.parametrize("name", ["exp", "log1m", "geometric"])
    def test_non_finite_center_rejected(self, name, center):
        with pytest.raises(PreconditionError, match="^series centre must be finite, got "):
            series_builtin(name, center, 4)

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


# Reference kernels: the separate finite check and trim, and the loops on NumPy
# arrays, that the one-pass constructor and the list loops replace.  The tests
# below hold the library to their bits.


def reference_coefficients(coefficients):
    """The constructor's finite check and trim, as separate passes."""
    arr = np.asarray(coefficients, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.size == 0:
        arr = np.zeros(1, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite")
    mags = np.abs(arr)
    scale = mags.max(-1, keepdims=True)
    n = int((arr.shape[-1] - (mags > TRIM_RTOL * scale)[..., ::-1].argmax(-1)) * (scale[..., 0] > 0))
    return arr[:n].copy() if n else np.zeros(1, dtype=complex)


def reference_synthetic_division(coefficients, a, k):
    work = np.array(coefficients, dtype=complex)
    remainders = np.zeros(k, dtype=complex)
    for r in range(min(k, len(work))):
        for i in range(len(work) - 2, -1, -1):
            work[i] = work[i] + a * work[i + 1]
        remainders[r] = work[0]
        work = work[1:]
    return work, remainders


def reference_taylor(rational, center, order):
    """The recurrence reading each coefficient through a method call, after
    the reference Taylor shift and trim."""

    def recentered(p):
        if center == p.center:
            return p.coefficients
        shifted = reference_synthetic_division(p.coefficients, center - p.center, len(p.coefficients))[1]
        return reference_coefficients(shifted)

    def coefficient(coefficients, k):
        return complex(coefficients[k]) if 0 <= k < len(coefficients) else 0j

    num, den = recentered(rational.numerator), recentered(rational.denominator)
    den_degree = len(den) - 1 if np.any(den != 0) else -1
    b0 = coefficient(den, 0)
    a = np.zeros(order + 1, dtype=complex)
    for n in range(order + 1):
        acc = coefficient(num, n)
        for m in range(1, min(n, den_degree) + 1):
            acc -= coefficient(den, m) * a[n - m]
        a[n] = acc / b0
    return a


def random_coefficient_array(rng, length):
    """Coefficients of mixed scales, with exact and negative zeros, the least
    subnormal, overflowing moduli and a trailing entry near the trim floor."""
    c = complex_normal(rng, length) * 10.0 ** rng.uniform(-6, 6, length)
    for i, (pick, coin) in enumerate(rng.integers(12, size=(length, 2)).tolist()):
        if pick == 0:
            c[i] = 0.0
        elif pick == 1:
            c[i] = complex(-0.0, c[i].imag) if coin % 2 else complex(c[i].real, -0.0)
        elif pick == 2:
            c[i] = complex(5e-324, 0.0) if coin % 2 else complex(-0.0, 5e-324)
        elif pick == 3 and coin < 3:
            c[i] = complex(1.5e308, -1.5e308) if coin % 2 else complex(-1.5e308, 1.5e308)
    scale = float(np.abs(c[:-1]).max()) if length > 1 else math.inf
    if scale < math.inf and rng.integers(2):
        # a last entry within a few ulps of TRIM_RTOL times the largest modulus
        tail = TRIM_RTOL * scale * (1.0 + int(rng.integers(-3, 4)) * 2.0**-52)
        c[-1] = complex(tail, 0.0) if rng.integers(2) else complex(0.0, -tail)
    return c


class TestKernelsKeepTheirBits:
    def test_constructor_trims_as_the_separate_passes(self):
        rng = np.random.default_rng(24)
        for case in range(20000):
            length = int(rng.integers(0, 13))
            c = random_coefficient_array(rng, length)
            if case % 50 == 0 and length:
                bad = rng.choice([math.inf, -math.inf, math.nan])
                c[rng.integers(length)] = complex(bad, 0.0) if rng.integers(2) else complex(0.0, bad)
            inputs = [c, c.tolist()]
            if length == 1:
                inputs.append(c[0])  # a 0-d input
            for arr in inputs:
                try:
                    want = reference_coefficients(arr)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=f"^{exc}$"):
                        Polynomial(arr)
                    continue
                assert_same_bits(Polynomial(arr).coefficients, want)

    @pytest.mark.parametrize("coefficients, kept", [
        ([], [0j]),
        (np.complex128(0.0), [0j]),
        ([1.5e308 + 1.5e308j, 1e-300, 0.0], [1.5e308 + 1.5e308j, 1e-300, 0.0]),
        ([1.0, 1e-13, 0.0], [1.0]),
        ([-0.0, 0.0], [0j]),
    ])
    def test_constructor_edge_cases(self, coefficients, kept):
        assert_same_bits(Polynomial(coefficients).coefficients, reference_coefficients(coefficients))
        assert Polynomial(coefficients).coefficients.tolist() == kept

    def test_synthetic_division_on_lists_keeps_the_bits(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            degree = int(rng.integers(1, 40))
            c = complex_normal(rng, degree + 1) * 10.0 ** rng.uniform(-3, 3, degree + 1)
            shift = complex(complex_normal(rng, 1)[0]) * 10.0 ** rng.uniform(-3, 1)
            k = int(rng.integers(1, degree + 3))
            # the complex shift of a Taylor expansion, and the real one of the Pellet bound
            for arr, a in ((c, shift), (np.abs(c), abs(shift))):
                got, want = _synthetic_division(arr, a, k), reference_synthetic_division(arr, a, k)
                assert_same_bits(got[0], want[0])
                assert_same_bits(got[1], want[1])

    def test_taylor_recurrence_on_lists_keeps_the_bits(self):
        rng = np.random.default_rng(7)
        for case in range(1000):
            old_center = complex(complex_normal(rng, 1)[0]) * 0.5
            num = Polynomial(complex_normal(rng, int(rng.integers(1, 12))), old_center)
            # every fourth denominator is a constant: its recurrence divides only by Python's complex division
            den_length = 1 if case % 4 == 0 else int(rng.integers(2, 8))
            den = Polynomial(complex_normal(rng, den_length), old_center)
            rational = RationalFunction(num, den, _normalized=True)
            center = old_center if case % 10 == 0 else complex(complex_normal(rng, 1)[0]) * 0.3
            order = int(rng.integers(0, 21))
            if abs(den(center)) < 1e-6 * den.coefficient_scale():
                continue
            assert_same_bits(taylor_of_rational(rational, center, order).coefficients,
                             reference_taylor(rational, center, order))


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
