import cmath
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
    rational_normalize,
    series_builtin,
    taylor_of_rational,
)
from padelab.errors import (
    InsufficientSeriesError,
    InvalidDenominatorError,
    NonFiniteValueError,
    PoleAtCenterError,
    PreconditionError,
    SingularCenterError,
)
from padelab.series import TRIM_RTOL, _root_disc_radius, _synthetic_division, denominator_poles

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


class TestRationalNormalize:
    def test_common_factor_divided_out(self):
        num = poly(-1, 1) * poly(2, 1)  # (z-1)(z+2)
        den = poly(-1, 1) * poly(3, 1)  # (z-1)(z+3)
        r = rational_normalize(num, den)
        assert np.allclose(r.numerator.coefficients, [2, 1])
        assert np.allclose(r.denominator.coefficients, [3, 1])
        # the factor divided out has degree 1 and vanishes at 1
        assert num.degree - r.numerator.degree == den.degree - r.denominator.degree == 1
        assert abs(r.denominator(1.0)) > 1.0 and abs(r.numerator(1.0)) > 1.0

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

    def test_double_common_factor_divided_out(self):
        num = poly(-1, 1) * poly(-1, 1) * poly(2, 1)  # (z-1)^2 (z+2)
        den = poly(-1, 1) * poly(-1, 1) * poly(3, 1)  # (z-1)^2 (z+3)
        r = rational_normalize(num, den)
        assert np.allclose(r.numerator.coefficients, [2, 1])
        assert np.allclose(r.denominator.coefficients, [3, 1])

    def test_factor_divided_only_to_the_numerators_order(self):
        # D's cluster at 1 has count 2, N vanishes there to order 1: k = 1 < m
        num = poly(-1, 1) * poly(-2, 1)  # (z-1)(z-2)
        den = poly(-1, 1) * poly(-1, 1) * poly(3, 1)  # (z-1)^2 (z+3)
        r = rational_normalize(num, den)
        assert np.allclose(r.numerator.coefficients, [-2, 1])
        assert np.allclose(r.denominator.coefficients, (poly(-1, 1) * poly(3, 1)).coefficients)

    def test_common_factor_of_the_zero_numerator(self):
        r = rational_normalize(Polynomial([0.0]), poly(-1, 1) * poly(3, 1))
        assert r.numerator.is_zero and r.denominator.degree == 0

    @pytest.mark.parametrize("coefficients", [[1.5e308 + 1.5e308j, 1.0], [1.0, 1.5e308 - 1.5e308j]])
    def test_overflowing_coefficient_modulus_is_a_precondition_error(self, coefficients):
        for num, den in ((Polynomial(coefficients), poly(1, 1)), (poly(1), Polynomial(coefficients))):
            with pytest.raises(PreconditionError, match="coefficient modulus"):
                rational_normalize(num, den)

    @pytest.mark.parametrize("num, den", [
        ([1.0] + [0.0] * 39 + [1.0], [-1e12, 1.0]),  # (z^40 + 1)/(z - 1e12): N(1e12) overflows
        ([1e300, 1e300], [-1e10, 1.0]),  # 1e300 (z + 1)/(z - 1e10)
    ])
    def test_overflowing_remainder_keeps_the_pole(self, num, den):
        # a remainder and its bound that both overflow decide nothing, so nothing is divided out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = rational_normalize(Polynomial(num), Polynomial(den))
        assert r.numerator.degree == len(num) - 1 and r.denominator.degree == 1

    @pytest.mark.parametrize("d", [5e-8, 1e-7, 2e-7])
    def test_shared_root_inside_a_merged_cluster_divided_out(self, d):
        # D's roots 1 and 1 + d form one cluster of count 2, whose centre near 1 + d/2
        # is no root of N = (z-1)(z-2); the member root at 1 is
        num, den = (np.polynomial.polynomial.polyfromroots(roots) for roots in ([1.0, 2.0], [1.0, 1.0 + d]))
        assert len(denominator_poles(RationalFunction(Polynomial([1.0]), Polynomial(den)))) == 1
        r = rational_normalize(Polynomial(num), Polynomial(den))
        assert r.denominator.degree == 1 and abs(-r.denominator.coefficients[0] - (1.0 + d)) < 1e-8
        assert np.allclose(r.numerator.coefficients, [-2.0, 1.0])
        assert {self.cancels(num, den, k) for k in range(-6, 7)} == {True}

    def test_shared_root_left_in_a_tight_merged_cluster(self):
        # the known limit of the rule: rounding D's coefficients moves two roots 2e-8 apart
        # by up to about sqrt(eps) (here to a complex pair 1.8e-8 from 1), and N is above
        # the 1e-9 bound at both, so the pair stays whole
        # and its double pole is reported; of 31 d spaced evenly in log from 1e-9 to 1e-6,
        # 1.6e-8, 2e-8 and 3.2e-8 behave so
        num, den = (np.polynomial.polynomial.polyfromroots(roots) for roots in ([1.0, 2.0], [1.0, 1.0 + 2e-8]))
        r = RationalFunction(Polynomial(num), Polynomial(den))
        assert (r.numerator.degree, r.denominator.degree) == (2, 2)
        assert [m for _, m, _ in denominator_poles(r)] == [2]

    def test_cluster_of_high_count_is_centred(self):
        # B^(199) of z^200 has coefficients past the largest double; B^(199) / 199! has not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = RationalFunction(poly(1), Polynomial.monomial(200))
            assert denominator_poles(r) == [(0j, 200, denominator_poles(r)[0][2])]

    # whether a common factor is divided out; z -> 2^k z scales coefficient i by 2^(-k i), exactly
    @staticmethod
    def cancels(num, den, k):
        scale = 2.0 ** (-k * np.arange(max(len(num), len(den))))
        r = rational_normalize(Polynomial(num * scale[: len(num)]), Polynomial(den * scale[: len(den)]))
        return r.denominator.degree < len(den) - 1

    def test_near_common_root_verdict_does_not_flip_under_rescaling(self):
        # N = (z-1)(z-2), D = (z-1-d)(z+3): the tolerant Euclid cancelled at d = 1e-9 for
        # k <= -2 only, at 1e-8 for k <= -4, at 1e-7 for k = -6
        num = np.polynomial.polynomial.polyfromroots([1.0, 2.0])
        verdicts = {}
        for d in (1e-9, 1e-8, 1e-7):
            den = np.polynomial.polynomial.polyfromroots([1.0 + d, -3.0])
            verdicts[d] = {self.cancels(num, den, k) for k in range(-6, 7)}
        assert verdicts == {1e-9: {True}, 1e-8: {False}, 1e-7: {False}}

    def test_seeded_near_common_roots_do_not_flip_under_rescaling(self):
        # 300 pairs sharing a root up to d in 1e-11..1e-5, with 1 to 3 other roots each;
        # the tolerant Euclid's verdict flipped in 204 of them over these k
        rng = np.random.default_rng(26)
        counts = {False: 0, True: 0}
        for _ in range(300):
            a = complex(*rng.uniform(-2.0, 2.0, 2))
            d = 10.0 ** rng.uniform(-11.0, -5.0) * np.exp(2j * np.pi * rng.uniform())
            num, den = (
                np.polynomial.polynomial.polyfromroots(
                    [root] + [complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(int(rng.integers(1, 4)))]
                )
                for root in (a, a + d)
            )
            verdicts = {self.cancels(num, den, k) for k in (-6, -3, 0, 3, 6)}
            assert len(verdicts) == 1, (a, d)
            counts[verdicts.pop()] += 1
        assert counts == {False: 158, True: 142}


class TestRootDiscRadius:
    @pytest.mark.parametrize("coefficients, pole, mult", [
        ([1e300, 1e300], 1e10, 1),  # the terms at the pole overflow
        ([1.0, 0.0, 1.0], 1e200, 2),  # rho^2 is past the largest double
        ([1.0, 0.0, 1.0], 1e200, 1),
        ([1.0, 0.0, 0.0, 1.0], 1e200, 1),  # the counted coefficient and its bound overflow: inf - inf
    ])
    def test_non_finite_terms_give_an_infinite_radius(self, coefficients, pole, mult):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _root_disc_radius(Polynomial(coefficients), complex(pole), mult) == math.inf


class TestArrayQuotient:
    def test_overflow_at_a_finite_point_raises(self):
        f = RationalFunction(poly(1, math.pi), poly(-2, 1))
        z = np.array([0.5, 1e308 + 1e308j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValueError, match=r"overflows at \(1e\+308\+1e\+308j\)"):
                f(z)

    def test_overflow_against_a_value_of_modulus_at_most_one(self):
        # 1 / z^200 at 100 is below 1e-400, z^200 / (z - 1000) at 1000.5 above 1e600:
        # 0 and the point at infinity; 1e300 / z^200 at 100 is 1e-100, undecided
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert RationalFunction(poly(1), Polynomial.monomial(200))(np.array([100.0]))[0] == 0
            assert not np.isfinite(RationalFunction(Polynomial.monomial(200), poly(-1000, 1))(np.array([1000.5]))).any()
            with pytest.raises(NonFiniteValueError, match=r"overflows at \(100\+0j\)"):
                RationalFunction(poly(1e300), Polynomial.monomial(200))(np.array([100.0]))

    def test_infinity_and_poles_keep_their_values(self):
        f = RationalFunction(poly(1, math.pi), poly(-2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = f(np.array([complex(math.inf, 0.0), complex(math.nan, 1.0), 2.0, 0.0]))
        assert not np.isfinite(values[:3]).any()
        assert values[3] == -0.5


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

    @pytest.mark.parametrize("name, center, order, index", [
        ("geometric", 1e300, 5, 2),
        ("geometric", -1e200j, 2, 2),
        ("log1m", 1e300, 5, 2),
        ("exp", 800.0, 5, 0),
        ("exp", complex(710.0, 1.0), 0, 0),
    ])
    def test_overflow_names_the_series(self, name, center, order, index):
        # these raised a bare ValueError after NumPy overflow warnings, or cmath's OverflowError
        message = (f"the {name} series at centre {complex(center)!r} overflows at order {order}: "
                   f"coefficient {index} is not finite")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError) as raised:
                series_builtin(name, center, order)
        assert str(raised.value) == message

    @pytest.mark.parametrize("name, center, order", [
        ("exp", 0.0, 12), ("exp", 0.5 - 2.0j, 30), ("exp", 700.0, 12), ("exp", complex(-700.0, 3.0), 12),
        ("log1m", 0.5 - 2.0j, 12), ("log1m", 1e100, 2),
        ("geometric", 0.5 - 2.0j, 12), ("geometric", -1e150j, 2),
    ])
    def test_finite_coefficients_keep_their_bits(self, name, center, order):
        # the formulas without the overflow check; at -1e150j the last geometric
        # coefficient is 1 / inf = 0, finite, and comes without a warning
        center, n = complex(center), np.arange(order + 1)
        w = 1.0 - center
        with np.errstate(over="ignore", invalid="ignore"):
            if name == "exp":
                want = np.full(order + 1, cmath.exp(center)) / np.array([math.factorial(k) for k in n], dtype=float)
            elif name == "log1m":
                want = np.concatenate([[cmath.log(w)], -1.0 / (n[1:] * w ** n[1:])])
            else:
                want = 1.0 / w ** (n + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = series_builtin(name, center, order).coefficients
        assert_same_bits(got, want)


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
