import math

import numpy as np
import pytest

from padelab import (
    INFINITY,
    Polynomial,
    RationalFunction,
    chordal,
    chordal_array,
    circle_sample,
    dyadic_round,
    rationalize_coefficients,
    sup_chordal,
)
from padelab.errors import PrecisionTooCoarseError

from conftest import complex_normal


class TestChordal:
    def test_infinity_to_infinity(self):
        assert chordal(INFINITY, INFINITY) == 0.0

    def test_zero_to_infinity(self):
        assert chordal(0.0, INFINITY) == 1.0

    def test_zero_to_one(self):
        assert abs(chordal(0.0, 1.0) - 1.0 / math.sqrt(2.0)) < 1e-15

    def test_large_finite_values_do_not_overflow(self):
        # |a|^2 overflows a double above about 1.34e154
        assert abs(chordal(1e200, 0.0) - 1.0) < 1e-15
        assert chordal(1e200, 1e200) == 0.0
        assert abs(chordal(1e200, -1e200) - 2e-200) < 1e-15 * 2e-200
        assert chordal(1e200, INFINITY) == 1e-200
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
        spot = list(points[:4]) + [INFINITY]
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
        result = sup_chordal(f, INFINITY, sample)
        assert result.value < 1e-5

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

    def test_collapsed_denominator_rejected(self):
        # a monic denominator cannot collapse, so build an unnormalized pair
        unnormalized = RationalFunction(
            Polynomial([1.0]), Polynomial([1e-9]), _normalized=True
        )
        with pytest.raises(PrecisionTooCoarseError):
            rationalize_coefficients(unnormalized, 8)
