"""Array evaluation agrees bit for bit with point-by-point evaluation.

Each reference below is the per-point loop the package ran before it
evaluated whole sample arrays: the scalar Horner loop of
``Polynomial.__call__`` and the scalar formulas of the chordal metric, the
common-zero margin, the extended-plane evaluation and the certificate,
whose derivative values run the Leibniz recurrence of
``series.derivative_values`` one point at a time in scalar arithmetic.
The Hankel and cofactor blocks of the Pade construction, sliced from the
coefficient array, are compared with the per-entry loop that filled them.
Results are compared by their bits, so a changed last bit or sign of zero
fails.
"""

import cmath
import math

import numpy as np
import pytest

from padelab import (
    CompactSample,
    PadeApproximant,
    Polynomial,
    PowerSeries,
    RationalFunction,
    chordal,
    chordal_array,
    circle_sample,
    common_zero_margin,
    derivative_values,
    disc_grid_sample,
    evaluate_extended,
    evaluate_extended_array,
    normality,
    pade_construct,
    segment_sample,
    sup_chordal,
    two_set_poly_fit,
    universality_certificate,
    universality_pipeline,
)
from padelab.construct import CenterRecord
from padelab.errors import IndeterminateValueError
from padelab.pade import (
    COMMON_ZERO_RTOL,
    NORMALITY_RTOL,
    _coefficient_block,
    _lu_determinant,
)

from conftest import complex_normal


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def random_coefficients(rng, degree):
    """Coefficients with moduli spread over 1e-5..1e5 and random phases."""
    return complex_normal(rng, degree + 1) * 10.0 ** rng.uniform(-5.0, 5.0, degree + 1)


def random_center(rng):
    return complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0))


# --- scalar references ---------------------------------------------------------------


def chordal_loop(a, b) -> float:
    """A non-finite point is infinity."""
    za, zb = complex(a), complex(b)
    if not cmath.isfinite(za) and not cmath.isfinite(zb):
        return 0.0
    if not cmath.isfinite(za):
        return 1.0 / math.sqrt(1.0 + abs(zb) ** 2)
    if not cmath.isfinite(zb):
        return 1.0 / math.sqrt(1.0 + abs(za) ** 2)
    value = abs(za - zb) / (math.sqrt(1.0 + abs(za) ** 2) * math.sqrt(1.0 + abs(zb) ** 2))
    return min(value, 1.0)


def sup_chordal_loop(f, g, points):
    best, arg = -1.0, points[0]
    for z in points:
        d = chordal_loop(f(z), g(z))
        if d > best:
            best, arg = d, z
    return best, complex(arg)


def common_zero_margin_loop(approx, points):
    best, arg = math.inf, points[0]
    for z in points:
        v = abs(approx.numerator(z)) ** 2 + abs(approx.denominator(z)) ** 2
        if v < best:
            best, arg = v, z
    return float(best), complex(arg)


def evaluate_extended_loop(approx, z) -> complex:
    a, b = approx.numerator(z), approx.denominator(z)
    if not abs(a) ** 2 + abs(b) ** 2 > (COMMON_ZERO_RTOL * approx.scale()) ** 2:
        raise IndeterminateValueError(f"numerator and denominator both vanish at {z}")
    return a / b if b != 0 else complex(math.inf)


def derivative_values_loop(num, den, z, order):
    """R(z), R'(z), ..., R^(order)(z) at one point, by the Leibniz rule on D R = N."""
    n = [num.derivative(k)(z) for k in range(order + 1)]
    d = [den.derivative(k)(z) for k in range(order + 1)]
    values = []
    for ell in range(order + 1):
        acc = n[ell]
        for k in range(1, ell + 1):
            acc -= math.comb(ell, k) * d[k] * values[ell - k]
        values.append(acc / d[0])
    return values


def coefficient_block_loop(series, p, q, columns):
    """Rows i = 1..q of (a_{p-q+i}, ..., a_{p-q+i+columns-1}), one entry at a time."""
    block = np.zeros((q, columns), dtype=complex)
    for i in range(1, q + 1):
        for j in range(columns):
            block[i - 1, j] = series.coefficient(p - q + i + j)
    return block


def normality_threshold_loop(series, p, q):
    mags = [abs(series.coefficient(i)) for i in range(max(p - q + 1, 0), p + q)]
    return NORMALITY_RTOL * max(1.0, max(mags, default=0.0) ** q)


def certificate_records_loop(f, centers, k_sample, delta_sample, target, p, q, ell_max):
    f_derivs = [derivative_values_loop(f.numerator, f.denominator, z, ell_max) for z in delta_sample.points]
    records = []
    for zeta in centers.points:
        series = f.taylor_at(zeta, p + q)
        norm = normality(series, p, q)
        approx = pade_construct(series, p, q)
        threshold = (COMMON_ZERO_RTOL * approx.scale()) ** 2
        margin_k, _ = common_zero_margin_loop(approx, k_sample.points)
        margin_d, _ = common_zero_margin_loop(approx, delta_sample.points)
        chordal_sup = max(
            chordal_loop(evaluate_extended_loop(approx, z), target(z)) for z in k_sample.points
        ) if margin_k > threshold else math.inf
        a_derivs = [
            derivative_values_loop(approx.numerator, approx.denominator, z, ell_max)
            for z in delta_sample.points
        ]
        deriv_sups = [
            max(abs(a[ell] - fd[ell]) for a, fd in zip(a_derivs, f_derivs)) for ell in range(ell_max + 1)
        ]
        records.append(CenterRecord(
            complex(zeta), norm.determinant, norm.is_normal,
            margin_k if margin_k > threshold else 0.0,
            margin_d if margin_d > threshold else 0.0,
            chordal_sup, tuple(deriv_sups),
        ))
    return tuple(records)


# --- Horner kernel -----------------------------------------------------------------------


class TestHornerKernel:
    def test_polynomial_and_series_match_scalar_loop(self, rng):
        for _ in range(60):
            degree = int(rng.integers(0, 41))
            coeffs, center = random_coefficients(rng, degree), random_center(rng)
            points = center + 2.0 * complex_normal(rng, 57)
            for f in (Polynomial(coeffs, center), PowerSeries(coeffs, center)):
                assert_same_bits(f(points), np.array([f(complex(z)) for z in points]))
                grid = points[:12].reshape(3, 4)
                assert_same_bits(f(grid), np.array([[f(complex(z)) for z in row] for row in grid]))

    def test_zero_polynomial(self):
        points = np.array([0.5 - 1j, -2.0 + 0j])
        assert_same_bits(Polynomial.zero(0.5j)(points), np.array([0j, 0j]))

    def test_rational_and_pade_match_scalar_loop(self, rng):
        for _ in range(40):
            center = random_center(rng)
            num = Polynomial(random_coefficients(rng, int(rng.integers(0, 21))), center)
            den = Polynomial(random_coefficients(rng, int(rng.integers(0, 21))), center)
            r = RationalFunction(num, den)
            approx = PadeApproximant(0, 0, center, num, den, 1.0 + 0j, True)
            points = center + 2.0 * complex_normal(rng, 57)
            for f in (r, approx):
                assert_same_bits(f(points), np.array([f(complex(z)) for z in points]))


    def test_derivative_values_match_scalar_recurrence(self, rng):
        for _ in range(30):
            center = random_center(rng)
            num = Polynomial(random_coefficients(rng, int(rng.integers(0, 13))), center)
            den = Polynomial(random_coefficients(rng, int(rng.integers(0, 5))), center)
            order = int(rng.integers(0, 7))
            points = center + 2.0 * complex_normal(rng, 57)
            want = np.array([derivative_values_loop(num, den, complex(z), order) for z in points]).T.copy()
            assert_same_bits(np.array(derivative_values(num, den, points, order)), want)


# --- chordal metric and its sampled sup ---------------------------------------------------


class TestChordalKernel:
    def test_matches_scalar_formula(self, rng):
        # x * x and x ** 2 differ in about one square in a thousand, so take many
        n = 20000
        a = complex_normal(rng, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        b = complex_normal(rng, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        a[::7] = np.inf
        b[::11] = complex(np.nan, 0.0)
        want = np.array([chordal_loop(x, y) for x, y in zip(a, b)])
        assert_same_bits(chordal_array(a, b), want)
        assert_same_bits(np.array([chordal(x, y) for x, y in zip(a[:400], b[:400])]), want[:400])

    def test_sup_matches_loop(self, rng):
        sample = circle_sample(0.3, 1.1, 301)
        for _ in range(10):
            f = RationalFunction(Polynomial(complex_normal(rng, 3)), Polynomial(complex_normal(rng, 3)))
            g = RationalFunction(Polynomial(complex_normal(rng, 2)), Polynomial(complex_normal(rng, 4)))
            got = sup_chordal(f, g, sample)
            assert (got.value, got.at) == sup_chordal_loop(f, g, sample.points)

    def test_sup_ties_take_first_point(self):
        # chordal(z, -z) = 2|z| / (1 + |z|^2): equal at the four corners, 1 on |z| = 1
        f, g = Polynomial([0.0, 1.0]), Polynomial([0.0, -1.0])
        for sample in (disc_grid_sample(0.0, 1.0, 5), circle_sample(0.0, 1.0, 16)):
            d = [chordal_loop(f(z), g(z)) for z in sample.points]
            assert d.count(max(d)) > 1
            got = sup_chordal(f, g, sample)
            assert (got.value, got.at) == sup_chordal_loop(f, g, sample.points)

    def test_sup_against_constant_infinity(self):
        f = RationalFunction(Polynomial([1.0]), Polynomial([0.0, 1.0]))  # pole on the centre point
        sample = disc_grid_sample(0.0, 1.0, 3)
        got = sup_chordal(f, math.inf, sample)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = sup_chordal_loop(f, lambda z: math.inf, sample.points)
        assert (got.value, got.at) == want


# --- Pade evaluation on arrays ---------------------------------------------------------------


def random_pade(rng):
    center = random_center(rng) / 4.0
    r = RationalFunction(Polynomial(complex_normal(rng, 4)), Polynomial(complex_normal(rng, 3)))
    return pade_construct(r.taylor_at(center, 8), 5, 3)


class TestPadeArrays:
    def test_common_zero_margin_matches_loop(self, rng):
        sample = circle_sample(0.1j, 0.8, 97)
        for _ in range(10):
            approx = random_pade(rng)
            got = common_zero_margin(approx, sample)
            assert (got.min_value, got.at) == common_zero_margin_loop(approx, sample.points)

    def test_common_zero_margin_at_common_zero(self):
        approx = PadeApproximant(1, 1, 0.0, Polynomial([0, 1]), Polynomial([0, 1]), 1.0, False)
        sample = segment_sample(-1.0, 1.0, 5)
        got = common_zero_margin(approx, sample)
        assert (got.min_value, got.at) == common_zero_margin_loop(approx, sample.points) == (0.0, 0j)

    def test_evaluate_extended_matches_loop(self, rng):
        approx = pade_construct(PowerSeries([1.0, 1.0, 0.5, 1.0 / 6.0]), 1, 1)  # pole at 2
        points = np.concatenate([complex_normal(rng, 40) * 3.0, [2.0 + 0j, 0j]])
        values = evaluate_extended_array(approx, points)
        want = np.array([evaluate_extended_loop(approx, z) for z in points])
        assert want[-2] == math.inf
        assert_same_bits(values, want)
        assert_same_bits(np.array([evaluate_extended(approx, z) for z in points]), want)

    def test_evaluation_raises_exactly_where_margin_is_not_clear(self):
        def check_rule(approx, z):
            margin = common_zero_margin(approx, CompactSample(z, "points", 1.0))
            try:
                values = evaluate_extended_array(approx, z)
            except IndeterminateValueError:
                assert not margin.clear
                return False
            assert margin.clear
            a, b = approx.numerator(z), approx.denominator(z)
            assert_same_bits(values[b != 0], a[b != 0] / b[b != 0])
            assert np.all(values[b == 0] == math.inf)
            return True

        # the approximants of the certificate of `universality --target
        # pi-z-plus-1-over-z-minus-2`; at 2.25 both A and B are small
        target = RationalFunction(Polynomial([1.0, math.pi]), Polynomial([-2.0, 1.0]))
        k, grid = circle_sample(2.0, 0.25, 64), disc_grid_sample(0.0, 0.5, 9)
        result = universality_pipeline(target, Polynomial([0, 0, 1.0]), k, grid, grid, 2.0, 0.25, s=10)
        p, q = result.certificate.p, result.certificate.q
        points = np.concatenate([k.points, grid.points, [2.25 + 0j]])
        for zeta in grid.points:
            approx = pade_construct(result.function.taylor_at(zeta, p + q), p, q)
            assert check_rule(approx, points)
            assert check_rule(approx, np.array([2.25 + 0j]))
        # a pair sharing the zero 0.5, approached from clear to not clear, and
        # a pole where only B vanishes, exactly
        shared = Polynomial([-0.5, 1.0])
        common = PadeApproximant(2, 1, 0.0, shared * Polynomial([1.0, 2.0]), shared, 1.0, False)
        outcomes = {check_rule(common, np.array([0.5 + 10.0**-e])) for e in np.arange(0.0, 16.0, 0.5)}
        assert outcomes == {True, False}
        assert not check_rule(common, np.array([0.5 + 0j]))
        exp_11 = pade_construct(PowerSeries([1.0, 1.0, 0.5, 1.0 / 6.0]), 1, 1)  # pole at 2
        assert check_rule(exp_11, np.array([2.0 + 0j, 0j, 1j]))

    def test_evaluate_extended_common_zero_raises(self):
        approx = PadeApproximant(1, 1, 0.0, Polynomial([0, 1]), Polynomial([0, 1]), 1.0, False)
        with pytest.raises(IndeterminateValueError, match=r"vanish at 0j"):
            evaluate_extended_array(approx, np.array([0.5 + 0j, 0j, 0.25 + 0j]))


# --- Pade coefficient windows -----------------------------------------------------------------


class TestCoefficientWindows:
    # (0, 3), (1, 4) and (2, 5) reach back to a_{-2}: their windows start with zeros
    ORDERS = [(0, 1), (1, 1), (0, 3), (1, 4), (2, 5), (3, 3), (5, 2), (9, 4), (12, 12)]

    def test_blocks_match_entry_loop(self, rng):
        for p, q in self.ORDERS:
            series = PowerSeries(random_coefficients(rng, p + q), random_center(rng))
            for columns in (q, q + 1):
                assert_same_bits(_coefficient_block(series, p, q, columns),
                                 coefficient_block_loop(series, p, q, columns))

    def test_normality_matches_entry_loop(self, rng):
        for p, q in self.ORDERS + [(4, 0)]:
            series = PowerSeries(random_coefficients(rng, p + q), random_center(rng))
            norm = normality(series, p, q)
            assert norm.threshold == normality_threshold_loop(series, p, q)
            if q:
                want = complex(_lu_determinant(coefficient_block_loop(series, p, q, q)))
                assert_same_bits(np.array([norm.determinant]), np.array([want]))

    def test_construct_takes_normality_from_its_cofactors(self, rng):
        for p, q in self.ORDERS + [(4, 0)]:
            series = PowerSeries(random_coefficients(rng, p + q), random_center(rng))
            approx, norm = pade_construct(series, p, q), normality(series, p, q)
            assert_same_bits(np.array([approx.hankel_value]), np.array([norm.determinant]))
            assert approx.normal is norm.is_normal


# --- fit and certificate -------------------------------------------------------------------


class TestConstructArrays:
    def test_fit_residual_matches_loop(self):
        k = circle_sample(2.0, 0.25, 64)
        grid = disc_grid_sample(0.0, 0.5, 9)
        targets = [lambda z: z * z, lambda z: 2 * z]
        poly, report = two_set_poly_fit(k, lambda z: 1.0 / (z - 1.4), grid, targets, 40, 0.1)
        worst = max(abs(poly(z) - complex(1.0 / (z - 1.4))) for z in k.points)
        for order, target in enumerate(targets):
            dp = poly.derivative(order)
            worst = max(worst, max(abs(dp(z) - complex(target(z))) for z in grid.points))
        assert report.residual == worst

    def test_certificate_records_match_loop(self):
        target = RationalFunction(Polynomial([1.0]), Polynomial([-2.0, 1.0]))
        k = circle_sample(2.0, 0.25, 32)
        grid = disc_grid_sample(0.0, 0.5, 5)
        result = universality_pipeline(target, Polynomial([0, 0, 1.0]), k, grid, grid, 2.0, 0.25, s=5)
        cert = result.certificate
        assert cert.e_set_member and cert.t_set_member
        want = certificate_records_loop(result.function, grid, k, grid, target, cert.p, cert.q, 3)
        assert cert.records == want

    def test_certificate_rejects_on_common_zero_in_k(self):
        # at the centre 0 the (2, 1) determinant pair of 1 + z^3 is (w, w), whose
        # common zero is a point of K: a rejection, not an exception
        f = RationalFunction(Polynomial([1.0, 0.0, 0.0, 1.0]), Polynomial([1.0]))
        grid, delta = disc_grid_sample(0.0, 0.5, 3), circle_sample(0.0, 0.3, 8)
        cert = universality_certificate(f, grid, grid, delta, f, 2, 1, s=5, max_derivative_order=2)
        origin = [r for r in cert.records if r.center == 0]
        assert len(origin) == 1 and origin[0].margin_on_k == 0.0 and origin[0].chordal_sup_on_k == math.inf
        assert not cert.e_set_member and cert.sup_chordal_on_k == math.inf
        assert cert.records == certificate_records_loop(f, grid, grid, delta, f, 2, 1, 2)
