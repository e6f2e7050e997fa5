import cmath
import math

import numpy as np
import pytest

from padelab import (
    arg_cauchy_gaps,
    boundary_arg,
    boundary_integrand,
    comparator_value,
    divergence_experiment,
    orthocircle_invariants,
    pinch_map,
    pinch_map_derivative,
    singular_inner,
)
import padelab.blowup
from padelab.errors import PreconditionError, QuadratureError, SingularPointError


class TestPinchMap:
    def test_value_at_one_is_zero(self):
        assert pinch_map(1.0) == 0.0

    def test_value_at_minus_one(self):
        assert abs(pinch_map(-1.0) - (-2.0)) < 1e-15

    def test_value_at_zero(self):
        assert abs(pinch_map(0.0) - (-math.exp(-1.0))) < 1e-15

    def test_derivative_formula(self):
        z = 0.3 + 0.4j
        expected = singular_inner(z) * (z - 3.0) / (z - 1.0)
        assert abs(pinch_map_derivative(z) - expected) == 0.0
        # finite-difference cross check
        h = 1e-6
        fd = (pinch_map(z + h) - pinch_map(z - h)) / (2 * h)
        assert abs(pinch_map_derivative(z) - fd) < 1e-8

    def test_derivative_singular_at_one(self):
        with pytest.raises(SingularPointError):
            pinch_map_derivative(1.0)

    def test_half_plane_restriction(self):
        with pytest.raises(PreconditionError):
            pinch_map(2.0 + 0.5j)


class TestOrthocircleInvariants:
    def test_unit_circle_case(self):
        inv = orthocircle_invariants(1.0, 64)
        assert inv.re_variation < 1e-10
        assert inv.modulus_variation < 1e-10
        assert abs(inv.re_constant) < 1e-12
        assert abs(math.exp(inv.re_constant) - 1.0) < 1e-12

    def test_half_radius_constancy(self):
        inv = orthocircle_invariants(0.5, 64)
        assert inv.re_variation < 1e-10
        assert inv.modulus_variation < 1e-7 * math.exp(inv.re_constant) + 1e-10
        # measured constant: the orthocircle of radius r centered at 1-r
        # carries Re((z+1)/(z-1)) = 1 - 1/r
        assert abs(inv.re_constant - (1.0 - 1.0 / 0.5)) < 1e-10

    def test_measured_constant_across_radii(self):
        for r in (0.25, 2.0, 7.5):
            inv = orthocircle_invariants(r, 128)
            assert inv.re_variation < 1e-10
            assert abs(inv.re_constant - (1.0 - 1.0 / r)) < 1e-9

    def test_single_sample_has_zero_variation(self):
        inv = orthocircle_invariants(0.5, 1)
        assert inv.re_variation == 0.0
        assert inv.modulus_variation == 0.0


class TestBoundaryIntegrand:
    def test_modulus_asymptotics(self):
        t = 1e-6
        ratio = abs(boundary_integrand(t)) * t * abs(math.log(t)) / 2.0
        assert abs(ratio - 1.0) < 0.1

    def test_argument_converges(self):
        # the argument settles like arctan((pi/2)/|ln t|); the dyadic gap near
        # t = 1e-7 measures 3.98e-3 (computed with the stable evaluator)
        gap = abs(boundary_arg(1e-7) - boundary_arg(5e-8))
        assert 3e-3 < gap < 5e-3
        tiny_gap = abs(boundary_arg(1e-14) - boundary_arg(5e-15))
        assert tiny_gap < gap  # still shrinking

    def test_direct_and_stable_agree_at_interior_point(self):
        # oracle: the formula evaluated as written, e^{it} - 1 by subtraction
        t = math.pi / 2.0
        eit = cmath.exp(1j * t)
        direct = eit * (eit - 3.0) / (eit - 1.0) / cmath.log(1.0 - eit)
        assert abs(direct - boundary_integrand(t)) < 1e-12
        assert abs(direct) < 10.0

    def test_domain_endpoints_rejected(self):
        for t in (0.0, -0.5, math.pi):
            with pytest.raises(PreconditionError):
                boundary_integrand(t)


class TestArgCauchyProperty:
    def test_gaps_shrink_monotonically(self):
        gaps = arg_cauchy_gaps(50, 5)
        values = [g for _, g in gaps]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_gap_crosses_1e3_near_k48(self):
        gaps = dict(arg_cauchy_gaps(50, 40))
        assert gaps[47] > 1e-3
        assert gaps[48] < 1e-3

    def test_gap_at_k25_measured(self):
        # the k = 25 dyadic gap is 3.46e-3; the asymptotic law is
        # gap(k) ~ (pi/2) ln 2 / (k ln 2)^2
        gaps = dict(arg_cauchy_gaps(25, 25))
        assert abs(gaps[25] - 3.459e-3) < 2e-5
        law = (math.pi / 2.0) * math.log(2.0) / (25 * math.log(2.0)) ** 2
        assert abs(gaps[25] - law) < 0.15 * law


@pytest.fixture(scope="module")
def report():
    return divergence_experiment([1e-2, 1e-3, 1e-4, 1e-5], t0=0.5)


class TestDivergenceExperiment:

    def test_comparator_closed_form(self):
        # the comparator is the exact integral of 1/(t ln(1/t))
        value = comparator_value(1e-3, 0.5)
        exact = 2.0 * (math.log(math.log(1e3)) - math.log(math.log(2.0)))
        assert abs(value - exact) < 1e-14

    def test_partial_integrals_grow(self, report):
        i_values = [r.I for r in report.rows]
        assert all(b > a for a, b in zip(i_values, i_values[1:]))
        j_values = [r.J for r in report.rows]
        assert all(b >= a for a, b in zip(j_values, j_values[1:]))

    def test_j_tracks_comparator(self, report):
        for row in report.rows:
            if row.eps <= 1e-4:
                assert 0.75 <= row.J / row.comparator <= 1.25

    def test_half_mass_inequality(self, report):
        assert report.half_mass_I >= 0.5 * report.half_mass_J - 1e-9

    def test_quadrature_against_plain_grid(self):
        # independent oracle: trapezoid rule on a fine log-spaced grid
        t0, eps = 0.5, 1e-3
        s = np.linspace(math.log(1 / t0), math.log(1 / eps), 20001)
        t = np.exp(-s)
        values = np.array([boundary_integrand(x) for x in t]) * t
        trapz = np.trapezoid(values, s)
        report = divergence_experiment([eps], t0=t0)
        assert abs(report.rows[0].I - abs(trapz)) < 1e-6

    def test_unresolved_integrand_raises(self, monkeypatch):
        # a jump at t = 0.1 (not a bisection point in s) keeps the piece
        # around it from converging; the integral must raise, not return
        # its last estimate (0.4 - 8.5e-11, off by more than tol = 1e-11)
        monkeypatch.setattr(padelab.blowup, "boundary_integrand",
                            lambda t: 1 + 0j if t > 0.1 else 0j)
        with pytest.raises(QuadratureError):
            divergence_experiment([1e-2, 1e-4], 0.5)

    def test_precondition_errors(self):
        with pytest.raises(PreconditionError):
            divergence_experiment([1e-2, 1e-2], t0=0.5)
        with pytest.raises(PreconditionError):
            divergence_experiment([0.9], t0=0.5)
