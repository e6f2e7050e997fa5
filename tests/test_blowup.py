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
from padelab.blowup import DIVERGENCE_TOL
from padelab.domains import adaptive_gauss_legendre
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
        for t in (0.0, -0.5, math.pi, math.nan):
            with pytest.raises(PreconditionError):
                boundary_integrand(t)
            with pytest.raises(PreconditionError):
                boundary_integrand(np.array([[0.1, 0.2], [t, 0.3]]))

    def test_tiny_t_is_off_the_branch_cut(self):
        # at t = 2^-537 the rounded real part of 1 - e^{it}, 2 sin^2(t/2), is -0.0;
        # h is then (2i/t) / (ln t - i pi/2) to within O(t)
        t = 2.0**-537
        want = (2j / t) / (math.log(t) - 0.5j * math.pi)
        got = boundary_integrand(t)
        assert abs(got - want) <= 1e-15 * abs(want)
        assert boundary_integrand(np.array([t, 0.25])).tolist() == [got, boundary_integrand(0.25)]

    def test_t_beyond_double_precision_rejected(self):
        # sin(t/2) underflows to 0 at the smallest subnormal; 2/t overflows below about 1e-308
        for t in (5e-324, 1e-310):
            with pytest.raises(PreconditionError, match="not finite in double precision"):
                boundary_integrand(t)

    def test_array_equals_float_calls_bit_for_bit(self):
        # more than 2^14 values: NumPy reuses temporaries that large in place
        t = np.concatenate([np.linspace(1e-3, 3.14, 8192), np.exp(-np.linspace(0.0, 40.0, 8292))])
        values = boundary_integrand(t)
        one_by_one = np.array([boundary_integrand(float(x)) for x in t])
        assert values.shape == t.shape
        assert values.tobytes() == one_by_one.tobytes()
        assert type(boundary_integrand(0.25)) is complex
        assert boundary_integrand(t.reshape(2, -1)).tobytes() == values.tobytes()


class TestArgCauchyProperty:
    def test_gaps_shrink_monotonically(self):
        gaps = arg_cauchy_gaps(50, 5)
        values = [g for _, g in gaps]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_gap_crosses_1e3_near_k48(self):
        gaps = dict(arg_cauchy_gaps(50, 40))
        assert gaps[47] > 1e-3
        assert gaps[48] < 1e-3

    def test_gaps_equal_point_by_point_args(self):
        gaps = arg_cauchy_gaps(60, 3)
        args = [boundary_arg(2.0 ** -k) for k in range(3, 62)]
        assert gaps == [(k, abs(b - a)) for k, a, b in zip(range(3, 61), args, args[1:])]

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

    def test_joint_piece_matches_separate_runs(self):
        # one run of the pair (h t, |h| t) against one run per component, in
        # s = ln(1/t); each meets DIVERGENCE_TOL
        t0, eps = 0.5, 1e-4
        report = divergence_experiment([eps], t0=t0)

        def h_t(s):
            t = np.exp(-s)
            return boundary_integrand(t) * t

        def abs_h_t(s):
            t = np.exp(-s)
            return np.abs(boundary_integrand(t)) * t

        s_lo, s_hi = math.log(1.0 / t0), math.log(1.0 / eps)
        i_alone = adaptive_gauss_legendre(h_t, s_lo, s_hi, DIVERGENCE_TOL)
        j_alone = adaptive_gauss_legendre(abs_h_t, s_lo, s_hi, DIVERGENCE_TOL)
        assert abs(report.rows[0].I - abs(i_alone)) <= DIVERGENCE_TOL
        assert abs(report.rows[0].J - j_alone.real) <= DIVERGENCE_TOL

    def test_rows_are_sequential_sums_of_the_pieces(self, monkeypatch):
        # the longest eps list of the benchmark's divergence operations:
        # 1e-2 down to 1e-30, 4 per decade, as `padelab divergence` spaces it
        count = 28 * 4 + 1
        eps_list = [1e-2 * (1e-30 / 1e-2) ** (i / (count - 1)) for i in range(count)]
        engine_runs = []

        def recorded(s_lo, s_hi):
            pairs = log_substituted_pairs(s_lo, s_hi)
            engine_runs.append(pairs)
            return pairs

        log_substituted_pairs = padelab.blowup._log_substituted_pairs
        monkeypatch.setattr(padelab.blowup, "_log_substituted_pairs", recorded)
        report = divergence_experiment(eps_list, t0=0.5)
        (pairs,) = engine_runs
        pieces = pairs[:-1].tolist()  # the last pair is the half-mass window
        assert len(pieces) == len(report.rows) == count

        total_i = total_j = 0j
        kahan_i = kahan_j = carry_i = carry_j = 0j
        for row, (piece_i, piece_j) in zip(report.rows, pieces):
            total_i += piece_i
            total_j += piece_j
            assert row.I == abs(total_i) and row.J == total_j.real
            # Kahan-summed reference: the plain sum stays far inside DIVERGENCE_TOL of it
            y_i, y_j = piece_i - carry_i, piece_j - carry_j
            t_i, t_j = kahan_i + y_i, kahan_j + y_j
            carry_i, carry_j = (t_i - kahan_i) - y_i, (t_j - kahan_j) - y_j
            kahan_i, kahan_j = t_i, t_j
            assert abs(row.I - abs(kahan_i)) <= 1e-13
            assert abs(row.J - kahan_j.real) <= 1e-13

    def test_unresolved_integrand_raises(self, monkeypatch):
        # a jump at t = 0.1 (not a bisection point in s) keeps the piece
        # around it from converging; the integral must raise, not return
        # its last estimate (0.4 - 8.5e-11, off by more than tol = 1e-11)
        monkeypatch.setattr(padelab.blowup, "boundary_integrand",
                            lambda t: np.where(t > 0.1, 1 + 0j, 0j))
        with pytest.raises(QuadratureError):
            divergence_experiment([1e-2, 1e-4], 0.5)

    def test_precondition_errors(self):
        with pytest.raises(PreconditionError):
            divergence_experiment([1e-2, 1e-2], t0=0.5)
        with pytest.raises(PreconditionError):
            divergence_experiment([0.9], t0=0.5)
