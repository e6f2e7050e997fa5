import cmath
import math
import random
import sys

import numpy as np
import pytest

from padelab import (
    Polynomial,
    RationalFunction,
    chordal,
    chordal_array,
    circle_sample,
    dyadic_round,
    rationalize_coefficients,
    sup_chordal,
    values_on,
)
from padelab.errors import PrecisionTooCoarseError

from conftest import complex_normal


# every non-finite complex is the one point at infinity
INFINITIES = [math.inf, np.inf, complex(math.inf, math.nan), complex(0, -math.inf)]


class TestChordal:
    def test_infinity_to_infinity(self):
        assert all(chordal(x, y) == 0.0 for x in INFINITIES for y in INFINITIES)

    def test_zero_to_infinity(self):
        assert all(chordal(x, 0.0) == 1.0 for x in INFINITIES)

    def test_zero_to_one(self):
        assert abs(chordal(0.0, 1.0) - 1.0 / math.sqrt(2.0)) < 1e-15

    def test_large_finite_values_do_not_overflow(self):
        # |a|^2 overflows a double above about 1.34e154
        assert abs(chordal(1e200, 0.0) - 1.0) < 1e-15
        assert chordal(1e200, 1e200) == 0.0
        assert abs(chordal(1e200, -1e200) - 2e-200) < 1e-15 * 2e-200
        assert chordal(1e200, math.inf) == 1e-200
        assert chordal(1e300, 3e299j) == chordal(3e299j, 1e300)

    def test_symmetry_exact(self, rng):
        pts = complex_normal(rng, 50) * rng.exponential(5.0, 50)
        for a, b in zip(pts[:25], pts[25:]):
            assert chordal(a, b) == chordal(b, a)

    def test_bounded_by_euclidean(self, rng):
        pts = complex_normal(rng, 40)
        for a, b in zip(pts[:20], pts[20:]):
            assert chordal(a, b) <= abs(a - b) + 1e-15

    def test_triangle_inequality_with_infinity(self, rng):
        points = np.append(complex_normal(rng, 30) * 3.0, np.inf)  # inf is the point at infinity
        d = chordal_array(points[:, None], points[None, :])
        # d[a, c] <= d[a, b] + d[b, c] over all 31^3 triples (a, b, c)
        assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-12)
        spot = list(points[:4]) + [math.inf]
        for a in spot:
            for b in spot:
                for c in spot:
                    assert chordal(a, c) <= chordal(a, b) + chordal(b, c) + 1e-12

    def test_moebius_inversion_symmetry(self, rng):
        pts = complex_normal(rng, 40) * 2.0
        for a, b in zip(pts[:20], pts[20:]):
            if abs(a) < 1e-3 or abs(b) < 1e-3:
                continue
            assert abs(chordal(1 / a, 1 / b) - chordal(a, b)) < 1e-12


class TestSupChordal:
    def test_equal_functions(self):
        sample = circle_sample(0.0, 1.0, 16)
        f = lambda z: z * z
        assert sup_chordal(f, f, sample).value == 0.0

    def test_near_pole_close_to_infinity(self):
        sample = circle_sample(2.0, 1e-6, 16)
        f = lambda z: 1.0 / (z - 2.0)
        result = sup_chordal(f, math.inf, sample)
        assert result.value < 1e-5

    def test_constant_infinity_on_every_point(self):
        points = circle_sample(0.0, 1.0, 8).points
        values = values_on(math.inf, points)
        assert values.shape == points.shape and np.all(values == math.inf)

    def test_reduces_to_pointwise_chordal(self):
        sample = circle_sample(0.0, 1e-30, 1)
        # single sample at ~0: chordal(z, z+1) there is chordal(0, 1)
        result = sup_chordal(lambda z: z, lambda z: z + 1, sample)
        assert abs(result.value - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_mesh_metadata_attached(self):
        sample = circle_sample(0.0, 1.0, 64)
        result = sup_chordal(lambda z: z, lambda z: z + 0.1, sample)
        assert result.mesh == sample.mesh
        assert result.label == sample.label


class TestRationalize:
    def pi_rational(self):
        return RationalFunction(Polynomial([1.0, math.pi]), Polynomial([-2.0, 1.0]))

    def test_dyadic_fixed_point(self):
        r = RationalFunction(Polynomial([0.5, 0.25]), Polynomial([-2.0, 1.0]))
        rounded = rationalize_coefficients(r, 10)
        assert np.array_equal(rounded.numerator.coefficients, r.numerator.coefficients)
        assert np.array_equal(rounded.denominator.coefficients, r.denominator.coefficients)

    def test_pi_rational_high_precision(self):
        r = self.pi_rational()
        sample = circle_sample(0.0, 1.0, 720)
        rounded = rationalize_coefficients(r, 40)
        assert sup_chordal(r, rounded, sample).value < 1e-6

    def test_sup_non_increasing_in_precision(self):
        r = self.pi_rational()
        sample = circle_sample(0.0, 1.0, 720)
        sups = [
            sup_chordal(r, rationalize_coefficients(r, bits), sample).value
            for bits in (8, 16, 24, 32, 40)
        ]
        assert all(b <= a for a, b in zip(sups, sups[1:]))

    def test_rounded_values_are_dyadic(self):
        value = dyadic_round(math.pi + 1j * math.e, 12)
        assert value.real * 2**12 == round(value.real * 2**12)
        assert value.imag * 2**12 == round(value.imag * 2**12)

    def test_bits_kept_wherever_the_scaled_rounding_was_defined(self):
        # reference: round(x 2^bits) / 2^bits in double, compared wherever it is
        # defined: 2^bits, x 2^bits and the quotient do not overflow
        def reference(x, bits):
            scale = 2.0**bits
            with np.errstate(over="ignore"):
                return round(x * scale) / scale

        gen = random.Random(23)
        parts = [gen.choice((-1, 1)) * gen.random() * 2.0 ** gen.randint(-70, 70) for _ in range(300)]
        parts += [n / 2 for n in range(-6, 7)]
        parts += [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, sys.float_info.max, -sys.float_info.max, 2.0**1023]
        compared = 0
        for bits in range(-8, 61):
            for x in parts:
                value = np.complex128(complex(x, parts[gen.randrange(len(parts))]))
                try:
                    want = complex(reference(value.real, bits), reference(value.imag, bits))
                except OverflowError:
                    continue
                if cmath.isfinite(want):
                    got = dyadic_round(value, bits)
                    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (x, bits)
                    compared += 1
        assert compared > 0.95 * 69 * len(parts)

    @pytest.mark.parametrize("bits", [1074, 1100, 2000])
    def test_every_double_is_dyadic_at_2_to_minus_1074(self, bits):
        for x in (math.pi, 5e-324, -0.0, 1e-300, sys.float_info.max):
            assert dyadic_round(complex(x, -x), bits) == complex(x, -x)

    @pytest.mark.parametrize("bits", [1023, 1024])
    def test_finest_normal_precisions_round(self, bits):
        for x in (1e-300, -3e-305, 5e-324, 2.0**-1000 + 2.0**-1040):
            got = dyadic_round(complex(x, 0.0), bits).real
            assert math.ldexp(got, bits) == round(math.ldexp(got, bits))
            assert abs(got - x) <= 2.0 ** (-bits - 1)

    @pytest.mark.parametrize("bits", [-1100, -2000])
    def test_coarsest_precisions_round_to_zero(self, bits):
        assert dyadic_round(complex(sys.float_info.max, -1.0), bits) == 0
        with pytest.raises(PrecisionTooCoarseError, match=rf"^denominator rounds to zero at 2\^{-bits}$"):
            rationalize_coefficients(self.pi_rational(), bits)

    def test_rounding_past_the_largest_double_rejected(self):
        # the nearest multiple of 2^1024 to the largest double is 2^1024
        with pytest.raises(PrecisionTooCoarseError, match="rounds past the largest double at 2\\^1024$"):
            dyadic_round(complex(sys.float_info.max, 0.0), -1024)

    def test_collapsed_denominator_rejected(self):
        # a monic denominator cannot collapse, so build an unnormalized pair
        unnormalized = RationalFunction(
            Polynomial([1.0]), Polynomial([1e-9]), _normalized=True
        )
        with pytest.raises(PrecisionTooCoarseError):
            rationalize_coefficients(unnormalized, 8)
