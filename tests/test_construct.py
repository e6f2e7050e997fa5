import cmath
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from padelab import (
    CirclePath,
    CompactSample,
    Polynomial,
    PowerSeries,
    RationalFunction,
    antiderivative_cascade,
    circle_sample,
    denominator_poles,
    disc_grid_sample,
    moment_test,
    path_integral,
    principal_parts,
    residue_correction,
    series_builtin,
    two_set_poly_fit,
    universality_certificate,
    universality_pipeline,
    volterra_apply,
)
from padelab import construct
from padelab.errors import (
    FitFailureError,
    IndeterminateValueError,
    PerturbationDegenerateError,
    PoleNotInListError,
    PoleOnBoundaryError,
    PreconditionError,
    RootFindingError,
    VerificationError,
)

from conftest import complex_normal


def rational(num, den):
    return RationalFunction(Polynomial(num), Polynomial(den))


def per_degree_fit(k, k_target, grid, l_targets, tol):
    """Reference degree search: a fresh constraint matrix and QR at every degree.

    Returns (degree, polynomial) for the first degree that meets tol on the
    samples and on their 4x refinements, or None; it has no rank fallback.
    """
    points = np.concatenate([k.points, grid.points])
    shift = complex(points.mean())
    scale = max(1.0, float(np.abs(points - shift).max()))
    targets = [k_target(k.points)] + [target(grid.points) for target in l_targets]
    b = np.concatenate(targets)
    for degree in range(41):
        a = np.vstack([construct._derivative_rows(k.points, degree, 0, shift, scale)] + [
            construct._derivative_rows(grid.points, degree, order, shift, scale)
            for order in range(len(l_targets))
        ])
        norms = np.linalg.norm(a, axis=0)
        q, r = np.linalg.qr(a / norms)
        coeffs = np.linalg.solve(r, q.conj().T @ b) / norms
        poly = Polynomial(coeffs / scale ** np.arange(degree + 1), shift).recentered(0.0)
        values = [poly(k.points)] + [poly.derivative(order)(grid.points) for order in range(len(l_targets))]
        res = max(np.max(np.abs(v - t)) for v, t in zip(values, targets))
        if res <= tol and construct._verify_on_refined(poly, k, k_target, grid, l_targets, res) <= tol:
            return degree, poly
    return None


class TestTwoSetPolyFit:
    def test_polynomial_target_recovered_exactly(self):
        grid = disc_grid_sample(0.0, 0.5, 9)
        poly, report = two_set_poly_fit(
            None, None, grid, [lambda z: z * z, lambda z: 2 * z, lambda z: 2.0],
            max_degree=40, tol=1e-9,
        )
        assert report.degree == 2
        assert report.residual < 1e-12
        assert np.allclose(poly.coefficients, [0, 0, 1], atol=1e-12)

    def test_two_disjoint_sets_feasible(self):
        # pole of the K target is 0.35 away from the sample circle
        k = circle_sample(2.0, 0.25, 64)
        grid = disc_grid_sample(0.0, 0.5, 9)
        poly, report = two_set_poly_fit(
            k, lambda z: 1.0 / (z - 1.4), grid, [lambda z: z * z, lambda z: 2 * z],
            max_degree=40, tol=0.1,
        )
        assert report.verified_residual <= 0.1
        assert report.degree <= 25

    def test_near_pole_target_reports_failure(self):
        # the K target's pole sits 0.05 off the sample circle; no polynomial
        # of degree <= 40 gets anywhere near tol, and the error says how far
        k = circle_sample(2.0, 0.25, 64)
        grid = disc_grid_sample(0.0, 0.5, 9)
        with pytest.raises(FitFailureError) as err:
            two_set_poly_fit(
                k, lambda z: 1.0 / (z - 1.7), grid, [lambda z: z * z, lambda z: 2 * z],
                max_degree=40, tol=0.1,
            )
        assert err.value.best_residual > 1.0

    def test_incompatible_targets_at_degree_one(self):
        k = circle_sample(2.0, 0.25, 16)
        grid = disc_grid_sample(0.0, 0.5, 5)
        with pytest.raises(FitFailureError):
            two_set_poly_fit(
                k, lambda z: 5.0, grid, [lambda z: -5.0], max_degree=1, tol=0.1
            )

    def test_search_stops_at_the_degrees_the_rows_determine(self, monkeypatch):
        # 4 points on K plus values and derivatives at 4 centres: 12 rows
        # determine degree <= 11, below the cap of 40.  Degree 11 interpolates
        # the rows, so it reaches the refined check, which it fails by more
        # than degree 10's least-squares residual
        k = circle_sample(2.0, 0.25, 4)
        grid = disc_grid_sample(0.0, 0.5, 2)
        assert len(k) == 4 and len(grid) == 4
        verified = []
        verify = construct._verify_on_refined

        def recording(poly, *args):
            verified.append(poly.degree)
            return verify(poly, *args)

        monkeypatch.setattr(construct, "_verify_on_refined", recording)
        with pytest.raises(FitFailureError, match=r"degree <= 11 \(the most that 12 constraint rows determine\)") as err:
            two_set_poly_fit(
                k, lambda z: 1.0 / (z - 1.4), grid, [lambda z: z * z, lambda z: 2 * z],
                max_degree=40, tol=1e-9,
            )
        assert verified == [11]
        assert err.value.best_degree == 10

    @pytest.mark.parametrize("l_sample", [None, disc_grid_sample(0.0, 0.5, 2)])
    def test_no_constraint_rows_rejected(self, l_sample):
        with pytest.raises(PreconditionError, match="^at least one constraint set is required$"):
            two_set_poly_fit(None, None, l_sample, [], max_degree=5, tol=0.1)

    def test_failure_reports_the_smallest_residual_of_the_search(self):
        # degree 7 interpolates the 8 points and passes the coarse check, but
        # is off by 14.3 on the refined circle; degree 6 came closer
        with pytest.raises(FitFailureError, match="best residual 2.09444 at degree 6$") as err:
            two_set_poly_fit(circle_sample(0, 1, 8), lambda z: 1 / (z - 1.05), None, [], 40, 0.1)
        assert err.value.best_residual == pytest.approx(2.0944, abs=1e-4)
        assert err.value.best_degree == 6

    def test_repeated_points_take_the_least_squares_fallback(self, monkeypatch):
        # two distinct points make the columns of degree >= 2 dependent, so
        # the rank test hands degrees 2 and 3 to lstsq; no polynomial does
        # better than the midpoint of the conflicting values
        k = CompactSample(np.array([0, 0, 0.5, 0.5]), "repeated", 0.5)
        widths = []
        lstsq = np.linalg.lstsq

        def counting(a, b, **kwargs):
            widths.append(a.shape[1])
            return lstsq(a, b, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitFailureError) as err:
                two_set_poly_fit(k, np.array([0, 1, 0, 1.0]), None, [], 40, 0.4)
        assert widths == [3, 4]
        assert err.value.best_residual == pytest.approx(0.5)

    def test_one_factorization_serves_every_degree(self, monkeypatch):
        # Against the per-degree LAPACK reference, on the first 40 seeded
        # targets of this kind, the accepted degree was the same wherever
        # either accepted (one target failed in both) and the coefficients
        # differed by at most 1.9e-6 of the largest: the column-scaled
        # Vandermonde amplifies rounding differences that much.
        factored, lapack_qr = [], []
        householder_r, qr = construct._householder_r, np.linalg.qr

        def counting(a):
            factored.append(a.shape)
            return householder_r(a)

        def counting_qr(a, *args, **kwargs):
            lapack_qr.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(construct, "_householder_r", counting)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        rng = random.Random(12)
        for _ in range(8):
            a = 2.0 + cmath.rect(rng.uniform(0.6, 1.2), rng.uniform(0.0, 2.0 * math.pi))
            p = Polynomial([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)])
            k = circle_sample(2.0, 0.25, rng.choice([32, 64, 128]))
            grid = disc_grid_sample(0.0, 0.5, rng.choice([3, 5, 7]))
            factored.clear()
            lapack_qr.clear()
            poly, report = two_set_poly_fit(k, lambda z: 1 / (z - a), grid, [p, p.derivative()], 40, 0.1)
            # one factorization at the cap's width, 41 columns plus the targets
            assert factored == [(len(k) + 2 * len(grid), 42)] and lapack_qr == []
            degree, reference = per_degree_fit(k, lambda z: 1 / (z - a), grid, [p, p.derivative()], 0.1)
            assert report.degree == degree
            scale = np.max(np.abs(reference.coefficients))
            assert np.max(np.abs(poly.coefficients - reference.coefficients)) <= 1e-5 * scale
        factored.clear()
        with pytest.raises(FitFailureError):
            two_set_poly_fit(circle_sample(0, 1, 8), lambda z: 1 / (z - 1.05), None, [], 40, 0.1)
        assert factored == [(8, 9)]

    def test_factorization_matches_lapack(self, rng):
        # R agrees with LAPACK's up to a unit phase per row, and the appended
        # column is Q^H b with LAPACK's Q under the same phases
        a = complex_normal(rng, 60).reshape(20, 3)
        b = complex_normal(rng, 20)
        r = construct._householder_r(np.column_stack([a, b]))
        q_ref, r_ref = np.linalg.qr(a)
        phases = np.diag(r)[:3] / np.diag(r_ref)
        assert np.allclose(np.abs(phases), 1.0, atol=1e-14)
        assert np.allclose(r[:3, :3], phases[:, None] * r_ref, atol=1e-13)
        assert np.allclose(r[:3, 3], phases * (q_ref.conj().T @ b), atol=1e-13)
        assert np.allclose(r[3:, :3], 0.0, atol=1e-13)
        assert np.isclose(np.linalg.norm(r[3:, 3]), np.linalg.norm(b - q_ref @ (q_ref.conj().T @ b)))


class TestUniversalityCertificate:
    def test_rational_equal_to_own_approximant(self):
        phi = rational([1.0, 2.0], [1.0, -1.0])  # (1+2z)/(1-z)
        centers = disc_grid_sample(0.0, 0.3, 3)
        k = circle_sample(3.0, 0.5, 16)
        cert = universality_certificate(
            phi, centers, k, centers, phi, phi.numerator.degree,
            phi.denominator.degree, s=10, max_derivative_order=2,
        )
        assert cert.e_set_member
        assert cert.t_set_member
        assert cert.sup_chordal_on_k < 1e-9

    def test_hankel_zero_reported_with_witness(self):
        geometric = rational([1.0], [1.0, -1.0])
        centers = disc_grid_sample(0.0, 0.2, 2)
        k = circle_sample(3.0, 0.5, 8)
        cert = universality_certificate(
            geometric, centers, k, centers, geometric, 1, 2, s=10,
            max_derivative_order=1,
        )
        assert not cert.e_set_member
        assert all(abs(h) < 1e-12 for h in cert.hankel_values)

    @pytest.mark.parametrize("s", [0, -1])
    def test_s_below_one_rejected_before_any_approximant(self, s, monkeypatch):
        def no_approximant(*args):
            raise AssertionError("an approximant was built")

        monkeypatch.setattr(construct, "pade_construct", no_approximant)
        phi = rational([1.0, 2.0], [1.0, -1.0])
        grid = disc_grid_sample(0.0, 0.3, 3)
        with pytest.raises(PreconditionError, match=f"^s must be at least 1, got {s}$"):
            universality_certificate(phi, grid, circle_sample(3.0, 0.5, 16), grid, phi, 1, 1, s)


def universality_population(seed, count):
    """Seeded pipeline runs around a pole near 2: (target, K, centre grid, s).

    The targets cycle through three kinds: (c0 + c1 z)/(z - a) with
    |a - 2| <= 0.15; 1/((z - r1)(z - r2)) with both roots within 0.15 of 2;
    and 1/((z - a)(z - b)) with |a - 2| <= 0.15 and 1.2 <= |b| <= 1.8.
    """
    rng = random.Random(seed)

    def near_two():
        return 2.0 + cmath.rect(rng.uniform(0.0, 0.15), rng.uniform(0.0, 2.0 * math.pi))

    def unit_box():
        return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))

    for i in range(count):
        if i % 3 == 0:
            target = rational([unit_box(), unit_box()], [-near_two(), 1.0])
        else:
            a = near_two()
            b = near_two() if i % 3 == 1 else cmath.rect(rng.uniform(1.2, 1.8), rng.uniform(0.0, 2.0 * math.pi))
            target = rational([1.0], [a * b, -(a + b), 1.0])
        k = circle_sample(2.0, 0.25, rng.choice([32, 64, 128]))
        grid = disc_grid_sample(0.0, 0.5, rng.choice([3, 5, 7, 9]))
        yield target, k, grid, rng.choice([5, 10, 20])


def run_pipeline(target, k, grid, s):
    return universality_pipeline(target, Polynomial([0, 0, 1.0]), k, grid, grid, 2.0, 0.25, s)


@pytest.fixture
def certificate_calls(monkeypatch):
    calls = []
    certificate = construct.universality_certificate

    def counting(*args, **kwargs):
        calls.append(args)
        return certificate(*args, **kwargs)

    monkeypatch.setattr(construct, "universality_certificate", counting)
    return calls


class TestUniversalityPipeline:
    def test_two_pole_target_rejects_after_one_certificate(self, certificate_calls):
        target = rational([1.0], np.polynomial.polynomial.polyfromroots([1.92, 2.08]))
        k, grid = circle_sample(2.0, 0.25, 16), disc_grid_sample(0.0, 0.5, 2)
        with pytest.raises(PerturbationDegenerateError, match="^no perturbation size satisfied the certificate"):
            run_pipeline(target, k, grid, 10)
        assert len(certificate_calls) == 1

    def test_fit_alone_accepts_where_the_perturbation_fails_normality(self, certificate_calls):
        # the fit plus d z^T at d = 1e-3 tol / max(1, sup |z|^T) fails normality here
        target, k, grid, s = list(universality_population(1, 11))[10]
        result = run_pipeline(target, k, grid, s)
        assert [call[5] for call in certificate_calls] == [11]
        assert (result.certificate.p, result.certificate.q) == (11, 2)

    def test_pi_target_certifies_fit_plus_singular_part(self, certificate_calls):
        target = rational([1.0, math.pi], [-2.0, 1.0])
        result = run_pipeline(target, circle_sample(2.0, 0.25, 64), disc_grid_sample(0.0, 0.5, 9), 10)
        assert len(certificate_calls) == 1
        expected = result.singular_part + result.fitted
        assert result.function.numerator == expected.numerator
        assert result.function.denominator == expected.denominator
        assert result.certificate.p == result.function.numerator.degree == result.fitted.degree + 1

    def test_population_without_indeterminate_values(self, certificate_calls):
        outcomes = []
        for target, k, grid, s in universality_population(1, 12):
            before = len(certificate_calls)
            try:
                run_pipeline(target, k, grid, s)
                outcomes.append("accepted")
            except (PerturbationDegenerateError, FitFailureError) as exc:
                outcomes.append(type(exc).__name__)
            except IndeterminateValueError as exc:
                pytest.fail(f"verdict turned into an exception: {exc}")
            # a run that fails the fit makes no certificate call
            assert len(certificate_calls) - before == (outcomes[-1] != "FitFailureError")
        assert "accepted" in outcomes


class TestPrincipalParts:
    def test_two_poles_one_inside(self):
        r = rational([1.0], [-2.0, 1.0]) + rational([1.0], [5.0, 1.0])
        mu = principal_parts(r, (2.0, 1.0))
        assert np.allclose(mu.numerator.coefficients, [1.0])
        assert np.allclose(mu.denominator.coefficients, [-2.0, 1.0])

    def test_polynomial_has_no_principal_part(self):
        r = rational([1.0, 2.0, 3.0], [1.0])
        assert principal_parts(r, (0.0, 1.0)).numerator.is_zero

    def test_double_pole_is_its_own_principal_part(self):
        r = rational([1.0], np.convolve([-2.0, 1.0], [-2.0, 1.0]))
        mu = principal_parts(r, (2.0, 1.0))
        for z in (2.5, 2.0 + 0.4j):
            assert abs(mu(z) - r(z)) < 1e-10

    def test_pole_on_the_boundary_rejected(self):
        with pytest.raises(PoleOnBoundaryError, match=r"^pole \(3-0j\) lies on the region boundary$"):
            principal_parts(rational([1.0], [-3.0, 1.0]), (2.0, 1.0))

    def test_winding_number_region(self):
        r = rational([1.0], [-2.0, 1.0]) + rational([1.0], [5.0, 1.0])
        loop = circle_sample(2.0, 1.0, 64)
        mu = principal_parts(r, loop)
        assert np.allclose(mu.denominator.coefficients, [-2.0, 1.0])

    def test_pole_multiplicities_recovered(self):
        den = np.convolve(np.convolve([-1.0, 1.0], [-1.0, 1.0]), [-1.0, 1.0])
        r = rational([1.0, 3.0], den)
        poles = denominator_poles(r)
        assert len(poles) == 1
        pole, mult = poles[0]
        assert mult == 3
        assert abs(pole - 1.0) < 1e-9

    def test_inconsistent_multiplicities_raise(self):
        # a double root 4.7e-5 from a simple one: the tolerant gcd of B and B' takes
        # in the simple root, and the multiplicities found no longer sum to deg B
        den = np.polynomial.polynomial.polyfromroots([1.0, 1.0, 1.000047])
        with pytest.raises(RootFindingError, match=r"inconsistent with denominator degree 3$"):
            denominator_poles(rational([1.0], den))


class TestResidueCorrection:
    def test_simple_pole_fully_removed(self):
        r = rational([1.0], [-0.7, 1.0])
        corrected, table = residue_correction(r, [0.7], 1)
        assert abs(table[(0.7, 1)] - 1.0) < 1e-12
        assert corrected.numerator.is_zero

    def test_pure_double_pole_unchanged_at_order_one(self):
        r = rational([1.0], np.convolve([-0.7, 1.0], [-0.7, 1.0]))
        corrected, table = residue_correction(r, [0.7], 1)
        assert table[(0.7, 1)] == 0
        for z in (1.3, 0.2j):
            assert abs(corrected(z) - r(z)) < 1e-12

    def test_triple_pole_table_matches_partial_fractions(self):
        # (3z+1)/(z-1)^3 = 3/(z-1)^2 + 4/(z-1)^3
        den = np.convolve(np.convolve([-1.0, 1.0], [-1.0, 1.0]), [-1.0, 1.0])
        r = rational([1.0, 3.0], den)
        corrected, table = residue_correction(r, [1.0], 2)
        assert abs(table[(1.0, 1)]) < 1e-9
        assert abs(table[(1.0, 2)] - 3.0) < 1e-9
        moments = moment_test(corrected, CirclePath(1.0, 0.3), 2)
        assert all(abs(m) < 1e-9 for m in moments)

    def test_undeclared_pole_rejected(self):
        r = rational([1.0], [-0.7, 1.0])
        with pytest.raises(PoleNotInListError):
            residue_correction(r, [5.0], 1)

    def test_offset_listed_pole_fails_verification(self):
        # 0.7 + 5e-7 matches the pole 0.7, so the residue 1 is removed as 1/(z - a)
        # at the listed a; the order-2 moment is then 2 pi i (0.7 - a), far above 1e-9
        r = rational([1.0], [-0.7, 1.0])
        with pytest.raises(VerificationError, match=r"^moment 1 at pole \(0\.70000049+\+0j\) fails to vanish"):
            residue_correction(r, [0.7 + 5e-7], 2)


class TestAntiderivativeCascade:
    def test_inverts_differentiation(self, rng):
        f = Polynomial(complex_normal(rng, 6))
        z0 = 0.3 - 0.2j
        n = 3
        values = [f.derivative(k)(z0) for k in range(n)]
        rebuilt = antiderivative_cascade(values, f.derivative(n), z0, n)
        for z in complex_normal(rng, 5):
            assert abs(rebuilt(z) - f(z)) < 1e-12

    def test_first_order_case(self):
        p = antiderivative_cascade([0.0], Polynomial([1.0]), 0.5, 1)
        for z in (0.0, 1.0, 2j):
            assert abs(p(z) - (z - 0.5)) < 1e-14

    def test_anchoring_is_exact(self):
        values = [2.0 + 1j, -0.5]
        p = antiderivative_cascade(values, Polynomial([1.0, 1.0]), 0.25, 2)
        assert p(0.25) == values[0]
        assert p.derivative()(0.25) == values[1]

    def test_levels_tighten_geometrically(self):
        """With the top error below eps/(M+1)^n, each level stays below its budget."""
        eps, m, n = 1e-4, 2.0, 2
        top = series_builtin("exp", 0.0, 12)
        top_poly = Polynomial(top.coefficients)
        p = antiderivative_cascade([1.0, 1.0], top_poly, 0.0, n)
        grid = [r * cmath.exp(2j * math.pi * k / 20) for r in np.linspace(0.1, 1, 10) for k in range(20)]
        level = p
        for k in range(n + 1):
            sup = max(abs(level(z) - cmath.exp(z)) for z in grid)
            assert sup < eps / (m + 1.0) ** k
            level = level.derivative()


class TestVolterra:
    def test_identity_weight(self):
        f = PowerSeries([1.0, 0.0, 0.0])
        g = PowerSeries([0.0, 1.0])
        assert np.allclose(volterra_apply(f, g).coefficients, [0.0, 1.0])

    def test_linear_weight_is_anchored_antiderivative(self, rng):
        coeffs = complex_normal(rng, 10)
        f = PowerSeries(coeffs)
        g = PowerSeries(np.concatenate([[0.0, 1.0], np.zeros(10)]))
        result = volterra_apply(f, g)
        anchored = Polynomial(coeffs).antiderivative()
        assert np.array_equal(result.coefficients, anchored.coefficients)

    def test_exponential_cross_check(self):
        f = series_builtin("exp", 0.0, 30)
        result = volterra_apply(f, f)
        for z in (0.3, 0.2 + 0.4j, -0.45):
            direct = (cmath.exp(2 * z) - 1.0) / 2.0
            assert abs(result(z) - direct) < 1e-9

    def test_bilinearity(self, rng):
        f1 = PowerSeries(complex_normal(rng, 8))
        f2 = PowerSeries(complex_normal(rng, 8))
        g = PowerSeries(complex_normal(rng, 8))
        lhs = volterra_apply(PowerSeries(f1.coefficients + f2.coefficients), g)
        rhs = volterra_apply(f1, g).coefficients + volterra_apply(f2, g).coefficients
        assert np.allclose(lhs.coefficients, rhs, atol=1e-14)
        lhs_g = volterra_apply(g, PowerSeries(f1.coefficients + f2.coefficients))
        rhs_g = volterra_apply(g, f1).coefficients + volterra_apply(g, f2).coefficients
        assert np.allclose(lhs_g.coefficients, rhs_g, atol=1e-14)

    def test_mismatched_centers_rejected(self):
        with pytest.raises(PreconditionError):
            volterra_apply(PowerSeries([1.0, 1.0], 0.5), PowerSeries([0.0, 1.0]))

    def test_matches_exact_sums(self, rng):
        # c_{m+1} = sum_k a_k (m-k+1) g_{m-k+1} / (m+1), summed exactly in
        # rationals from the same doubles; a dot product of m+1 terms, one
        # product rounding and the division stay within (m+3) eps of the
        # sum of the terms' moduli
        for f_order, g_order in ((1, 1), (7, 3), (40, 41), (150, 120), (200, 200)):
            a = rng.standard_normal(f_order + 1) * 10.0 ** rng.uniform(-3.0, 3.0, f_order + 1)
            g = rng.standard_normal(g_order + 1) * 10.0 ** rng.uniform(-3.0, 3.0, g_order + 1)
            got = volterra_apply(PowerSeries(a), PowerSeries(g)).coefficients
            m_max = min(f_order, g_order - 1)
            assert len(got) == m_max + 2 and got[0] == 0
            assert not got.imag.any()
            exact_a = [Fraction(x) for x in a]
            exact_g = [Fraction(x) for x in g]
            for m in range(m_max + 1):
                terms = [exact_a[k] * (m - k + 1) * exact_g[m - k + 1] for k in range(m + 1)]
                want = sum(terms) / (m + 1)
                scale = float(sum(abs(t) for t in terms)) / (m + 1)
                assert abs(got[m + 1].real - float(want)) <= (m + 3) * 2.0**-52 * scale

    def test_quadrature_cross_check(self, rng):
        decay = 0.6 ** np.arange(20)
        f = PowerSeries(complex_normal(rng, 20) * decay)
        g = PowerSeries(complex_normal(rng, 20) * decay)
        result = volterra_apply(f, g)
        fg_prime = Polynomial(f.coefficients) * Polynomial(g.coefficients).derivative()
        from padelab import PolylinePath

        for z in (0.4, -0.3 + 0.2j):
            integral = path_integral(fg_prime, PolylinePath([0.0, z]))
            assert abs(result(z) - integral) < 1e-9
