import cmath

import numpy as np
import pytest

from padelab import (
    CompactSample,
    PadeApproximant,
    Polynomial,
    PowerSeries,
    RationalFunction,
    circle_sample,
    common_zero_margin,
    evaluate_extended,
    hankel_determinant,
    normality,
    pade_construct,
    rational_normalize,
    taylor_of_rational,
)
from padelab.errors import (
    DegeneratePadeError,
    IndeterminateValueError,
    InsufficientSeriesError,
    InvalidSampleError,
)
from padelab.samples import segment_sample
from padelab.series import series_builtin

from conftest import complex_normal, divide_series_ext


class TestHankel:
    def test_exp_one_one(self):
        s = series_builtin("exp", 0.0, 3)
        assert abs(hankel_determinant(s, 1, 1) - 1.0) < 1e-14

    def test_geometric_one_two_vanishes(self):
        s = series_builtin("geometric", 0.0, 3)
        assert abs(hankel_determinant(s, 1, 2)) < 1e-14

    def test_q_zero_is_one(self, rng):
        s = PowerSeries(complex_normal(rng, 5))
        assert hankel_determinant(s, 3, 0) == 1.0

    def test_short_series_rejected(self):
        s = series_builtin("exp", 0.0, 2)
        with pytest.raises(InsufficientSeriesError):
            hankel_determinant(s, 3, 2)

    def test_negative_index_coefficients_are_zero(self):
        # p < q makes the window reach below index 0
        s = PowerSeries([1.0, 2.0, 3.0])
        det = hankel_determinant(s, 0, 2)
        # rows: (a_{-1}, a_0), (a_0, a_1) = (0, 1), (1, 2)
        assert abs(det - (0 * 2 - 1 * 1)) < 1e-14


class TestNormality:
    def test_exp_is_normal(self):
        assert normality(series_builtin("exp", 0.0, 3), 1, 1)

    def test_geometric_one_two_not_normal(self):
        result = normality(series_builtin("geometric", 0.0, 3), 1, 2)
        assert not result
        assert result.determinant == 0

    def test_rational_instance_normal(self):
        # (1+2z)/(1-z) has exact numerator and denominator degree 1
        phi = RationalFunction(Polynomial([1, 2]), Polynomial([1, -1]))
        s = taylor_of_rational(phi, 0.0, 2)
        assert normality(s, 1, 1)


class TestPadeConstruct:
    def test_exp_one_one_matches_linear_system(self):
        s = series_builtin("exp", 0.0, 3)
        approx = pade_construct(s, 1, 1)
        # independent oracle: solve a_1 + b_1 a_0 ... the 2x2 linear Pade system
        # for (1+n1 z)/(1+d1 z): d1 from a_2 + d1 a_1 = 0; n1 = a_1 + d1 a_0
        a = s.coefficients
        d1 = -a[2] / a[1]
        n1 = a[1] + d1 * a[0]
        b0 = approx.denominator(0.0)
        assert np.allclose(approx.numerator.coefficients / b0, [1.0, n1])
        assert np.allclose(approx.denominator.coefficients / b0, [1.0, d1])
        assert approx.normal

    def test_geometric_zero_one(self):
        s = series_builtin("geometric", 0.0, 2)
        approx = pade_construct(s, 0, 1)
        # cross multiplication: numerator == (1-z) * geometric partial sums
        b0 = approx.denominator(0.0)
        assert np.allclose(approx.numerator.coefficients / b0, [1.0])
        assert np.allclose(approx.denominator.coefficients / b0, [1.0, -1.0])

    def test_q_zero_gives_partial_sum(self, rng):
        s = PowerSeries(complex_normal(rng, 6))
        approx = pade_construct(s, 2, 0)
        assert np.allclose(approx.numerator.coefficients, s.coefficients[:3])
        assert approx.denominator.coefficients.tolist() == [1.0]
        assert approx.normal

    def test_degenerate_pair_raises(self):
        s = series_builtin("geometric", 0.0, 3)
        with pytest.raises(DegeneratePadeError):
            pade_construct(s, 1, 2)

    def test_order_matching_seeded(self, rng):
        """Taylor(A/B) reproduces the source coefficients through p+q."""
        checked = 0
        while checked < 40:
            p = int(rng.integers(1, 7))
            q = int(rng.integers(1, 7))
            coeffs = complex_normal(rng, p + q + 1)
            s = PowerSeries(coeffs)
            result = normality(s, p, q)
            if abs(result.determinant) <= 1e-8 * max(
                1.0, max(abs(c) for c in coeffs) ** q
            ):
                continue
            approx = pade_construct(s, p, q)
            taylor = divide_series_ext(approx.numerator, approx.denominator, p + q)
            scale = max(1.0, np.abs(coeffs).max())
            assert np.abs(taylor - coeffs).max() < 1e-9 * scale
            assert approx.numerator.degree <= p
            assert approx.denominator.degree <= q
            checked += 1

    def test_self_reproduction_three_regimes(self, rng):
        """A rational function is its own approximant in all three order regimes."""
        for _ in range(15):
            k = int(rng.integers(0, 5))
            lam = int(rng.integers(0, 5))
            num = Polynomial(np.concatenate([complex_normal(rng, k), [1.0 + 0.5j]]))
            den = Polynomial(np.concatenate([complex_normal(rng, lam), [1.0]]))
            phi = rational_normalize(num, den)
            k, lam = phi.numerator.degree, phi.denominator.degree
            zeta = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            if abs(phi.denominator(zeta)) < 0.2:
                continue
            for p, q in [(k, lam), (k + 2, lam), (k, lam + 2)]:
                s = taylor_of_rational(phi, zeta, p + q)
                approx = pade_construct(s, p, q)
                b_at = approx.denominator(zeta)
                src_num = phi.numerator.recentered(zeta)
                src_den = phi.denominator.recentered(zeta)
                src_scale = src_den(zeta)
                got_num = approx.numerator.coefficients / b_at
                got_den = approx.denominator.coefficients / b_at
                want_num = src_num.coefficients / src_scale
                want_den = src_den.coefficients / src_scale
                scale = max(1.0, np.abs(want_num).max(), np.abs(want_den).max())
                assert np.abs(_pad(got_num, len(want_num)) - want_num).max() < 1e-9 * scale
                assert np.abs(_pad(got_den, len(want_den)) - want_den).max() < 1e-9 * scale

    def test_scaling_equivariance_pointwise(self, rng):
        coeffs = complex_normal(rng, 7)
        s = PowerSeries(coeffs)
        c = 2.5 - 1.25j
        scaled = PowerSeries(c * coeffs)
        a1 = pade_construct(s, 3, 3)
        a2 = pade_construct(scaled, 3, 3)
        for z in 0.3 * complex_normal(rng, 6):
            v1 = a1.numerator(z) / a1.denominator(z)
            v2 = a2.numerator(z) / a2.denominator(z)
            assert abs(v2 - c * v1) < 1e-8 * max(1.0, abs(c * v1))


def _pad(arr, n):
    out = np.zeros(n, dtype=complex)
    out[: len(arr)] = arr[:n] if len(arr) >= n else arr
    return out


class TestCommonZeroMargin:
    def test_exp_pair_clear_on_unit_circle(self):
        approx = pade_construct(series_builtin("exp", 0.0, 3), 1, 1)
        sample = circle_sample(0.0, 1.0, 64)
        margin = common_zero_margin(approx, sample)
        assert margin
        assert margin.min_value > 0.1

    def test_artificial_common_zero(self):
        approx = PadeApproximant(
            1, 1, 0.0, Polynomial([0, 1]), Polynomial([0, 1]), 1.0, False
        )
        sample = segment_sample(0.0, 1.0, 5)
        margin = common_zero_margin(approx, sample)
        assert not margin
        assert margin.min_value == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidSampleError):
            CompactSample(np.array([]), "empty", 1.0)


class TestEvalExtended:
    def test_pole_value_is_infinity(self):
        approx = pade_construct(series_builtin("exp", 0.0, 3), 1, 1)
        value = evaluate_extended(approx, 2.0)
        assert type(value) is complex and not cmath.isfinite(value)

    def test_center_value_matches_a0(self):
        approx = pade_construct(series_builtin("exp", 0.0, 3), 1, 1)
        assert abs(evaluate_extended(approx, 0.0) - 1.0) < 1e-14

    def test_indeterminate_point_rejected(self):
        approx = PadeApproximant(
            1, 1, 0.0, Polynomial([0, 1]), Polynomial([0, 1]), 1.0, False
        )
        with pytest.raises(IndeterminateValueError):
            evaluate_extended(approx, 0.0)


class TestPadeCall:
    def test_is_the_rational_quotient(self):
        assert PadeApproximant.__call__ is RationalFunction.__call__

    def test_agrees_with_rational_function_bit_for_bit(self, rng):
        approx = pade_construct(series_builtin("exp", 0.0, 8), 4, 4)
        # the same pair, unnormalized, as a RationalFunction
        r = RationalFunction(approx.numerator, approx.denominator, _normalized=True)
        z = complex_normal(rng, 33) * 3.0
        assert np.array_equal(approx(z).view(np.uint64), r(z).view(np.uint64))
        for w in z[:5]:
            got, want = approx(complex(w)), r(complex(w))
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


class TestPadeSerialization:
    def test_roundtrip(self):
        approx = pade_construct(series_builtin("exp", 0.0, 3), 1, 1)
        again = PadeApproximant.from_data(approx.to_data())
        assert again.p == approx.p and again.q == approx.q
        assert again.normal == approx.normal
        assert np.allclose(again.numerator.coefficients, approx.numerator.coefficients)
