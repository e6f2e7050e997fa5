import cmath
import math
import time
import tracemalloc

import numpy as np
import pytest

from padelab import (
    CirclePath,
    CompactSample,
    CorridorDomain,
    DiscDomain,
    DomainSpec,
    Polynomial,
    PolylinePath,
    RationalFunction,
    StarlikeDomain,
    antiderivative_at,
    bounded_path,
    circle_sample,
    construct,
    disc_grid_sample,
    moment_circle,
    moment_test,
    path_integral,
    segment_sample,
    starlike_antiderivative,
)
from padelab.domains import (
    _GL_NODES,
    MAX_BISECTIONS,
    PROFILE_SAMPLES,
    QUAD_TOL,
    _close,
    _panel_estimates,
    adaptive_gauss_legendre,
)
from padelab.errors import (
    InvalidSampleError,
    PathOutsideDomainError,
    PoleOnBoundaryError,
    PreconditionError,
    QuadratureError,
)

from conftest import complex_normal


def wiggly_profile(x):
    """Top boundary with unbounded oscillation density near x = 0."""
    return 1.0 + 0.1 * math.sin(50.0 / (x + 0.01))


class TestContainment:
    def test_unit_disc(self):
        disc = DiscDomain(0.0, 1.0)
        assert disc.contains(0.5)
        assert not disc.contains(1.5)

    def test_corridor(self):
        dom = CorridorDomain(lambda x: 1.0, 0.0)
        assert dom.contains(0.5 + 0.5j)
        assert not dom.contains(0.5 + 2.0j)
        assert not dom.contains(-0.1 + 0.5j)

    def test_starlike_unit_profile_matches_disc(self, rng):
        star = StarlikeDomain(0.0, lambda theta: 1.0)
        disc = DiscDomain(0.0, 1.0)
        for z in complex_normal(rng, 40):
            assert star.contains(z) == disc.contains(z)

    def test_profile_array_is_copied(self):
        # the domain keeps its own read-only samples; the caller's array stays writable
        a = np.ones(64)
        star = StarlikeDomain(0, a)
        corridor = CorridorDomain(a, 0.0)
        diameter = star.diameter
        a[0] = 2.0
        assert star.profile[0] == 1.0 and corridor.profile[0] == 1.0
        assert star.diameter == diameter
        assert not star.profile.flags.writeable


BAD_DISCS = [(math.nan, 1.0), (math.inf, 1.0), (complex(0.0, -math.inf), 1.0),
             (0.0, math.inf), (0.0, math.nan), (0.0, 0.0), (0.0, -1.0)]


class TestNonFiniteGeometry:
    # a precondition error before any arithmetic, so no RuntimeWarning either
    @pytest.mark.parametrize("center, radius", BAD_DISCS)
    @pytest.mark.parametrize("make, what, error", [
        (CirclePath, "a circle path", PreconditionError),
        (DiscDomain, "a disc domain", PreconditionError),
        (lambda c, r: circle_sample(c, r, 10), "a circle sample", InvalidSampleError),
        (lambda c, r: disc_grid_sample(c, r, 3), "a disc grid", InvalidSampleError),
    ])
    def test_disc_needs_a_finite_centre_and_radius(self, make, what, error, center, radius):
        with pytest.raises(error, match=f"^{what} needs a finite centre and a positive finite radius, got centre "):
            make(center, radius)

    # finite geometry whose points or diameter overflow: |centre| + 2 radius is inf
    @pytest.mark.parametrize("center, radius", [(1e308, 1e308), (0.0, 1e308), (complex(1.3e308, 1.3e308), 1.0)])
    @pytest.mark.parametrize("make, what, error", [
        (CirclePath, "a circle path", PreconditionError),
        (DiscDomain, "a disc domain", PreconditionError),
        (lambda c, r: circle_sample(c, r, 10), "a circle sample", InvalidSampleError),
        (lambda c, r: disc_grid_sample(c, r, 3), "a disc grid", InvalidSampleError),
    ])
    def test_disc_whose_points_or_diameter_overflow(self, make, what, error, center, radius):
        with pytest.raises(error, match=rf"^{what} overflows: \|centre\| \+ 2 radius is not finite, got centre "):
            make(center, radius)

    def test_largest_discs_keep_finite_points_and_diameter(self):
        # |centre| + 2 radius just below the largest double; the suite turns any RuntimeWarning into an error
        assert DiscDomain(0.0, 8.9e307).diameter < math.inf
        assert np.isfinite(circle_sample(1e308, 3.9e307, 10).points).all()
        assert np.isfinite(disc_grid_sample(complex(1e308, 0.0), 3.9e307, 3).points).all()

    @pytest.mark.parametrize("a, b", [(-1e308, 1e308), (0.0, complex(1.5e308, 1.5e308))])
    def test_segment_whose_length_overflows(self, a, b):
        with pytest.raises(InvalidSampleError, match=r"^segment overflows: \|b - a\| is not finite, got "):
            segment_sample(a, b, 5)

    def test_longest_segment_keeps_finite_points_and_mesh(self):
        sample = segment_sample(-8e307, 8e307, 5)
        assert np.isfinite(sample.points).all() and sample.mesh == 4e307

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (complex(math.nan, 0.0), 1.0), (0.0, complex(1.0, -math.inf))])
    def test_segment_needs_finite_endpoints(self, a, b):
        with pytest.raises(InvalidSampleError, match="^segment endpoints must be finite, got "):
            segment_sample(a, b, 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_sample_points_must_be_finite(self, bad):
        with pytest.raises(InvalidSampleError, match="^compact sample points must be finite$"):
            CompactSample(np.array([0.0, bad, 1.0]), "points", 0.5)


class TestBoundedPath:
    def test_disc_straight_segment(self):
        disc = DiscDomain(0.0, 1.0)
        path, budget = bounded_path(disc, -0.9, 0.9)
        assert abs(path.length - 1.8) < 1e-12
        assert budget == 2.0
        assert path.length <= budget

    def test_starlike_two_segments_through_center(self):
        star = StarlikeDomain(0.0, lambda theta: 1.0)
        path, budget = bounded_path(star, 0.9j, 0.9)
        assert len(path.vertices) == 3
        assert abs(path.length - 1.8) < 1e-12
        assert budget == 2.0 * star.diameter
        assert abs(budget - 4.0) < 1e-6

    def test_corridor_path_under_wiggly_profile(self):
        dom = CorridorDomain(wiggly_profile, 0.0)
        a = complex(0.1, 0.9 * dom.height_at(0.1))
        b = complex(0.9, 0.9 * dom.height_at(0.9))
        path, budget = bounded_path(dom, a, b)
        assert path.length <= budget
        assert budget == 2.0 * (dom.profile.max() - 0.0) + 1.0

    def test_endpoint_outside_rejected(self):
        disc = DiscDomain(0.0, 1.0)
        with pytest.raises(PathOutsideDomainError):
            bounded_path(disc, 0.0, 3.0)


def scalar_contains(dom, z) -> bool:
    """The point-by-point membership test that the array test replaced."""
    z = complex(z)
    if isinstance(dom, DiscDomain):
        return abs(z - dom.center) < dom.radius
    n = len(dom.profile)
    if isinstance(dom, CorridorDomain):
        x, y = z.real, z.imag
        if not (0.0 < x < 1.0 and dom.floor < y):
            return False
        t = min(max(x, 0.0), 1.0) * (n - 1)
        i = min(int(math.floor(t)), n - 2)
        frac = t - i
        return y < float((1.0 - frac) * dom.profile[i] + frac * dom.profile[i + 1])
    w = z - dom.center
    if w == 0:
        return True
    if cmath.isnan(w):
        return False  # the scalar test raised ValueError here; the array test reads outside
    x = (math.atan2(w.imag, w.real) % (2.0 * math.pi)) / (2.0 * math.pi) * n
    i = int(math.floor(x)) % n
    frac = x - math.floor(x)
    return abs(w) < float((1.0 - frac) * dom.profile[i] + frac * dom.profile[(i + 1) % n])


def scalar_path_error(dom, a, b):
    """The message of the node-by-node check that the array check replaced, or None."""
    for point in (a, b):
        if not scalar_contains(dom, point):
            return f"endpoint {point} outside {dom.noun}"
    for u, v in PolylinePath([a, *dom.waypoints(a, b), b]).segments():
        mid, rad = (u + v) / 2.0, (v - u) / 2.0
        for x in _GL_NODES:
            z = mid + rad * x
            if not scalar_contains(dom, z):
                return f"constructed path leaves the domain at {z}"
    return None


class RaisedCorridor(CorridorDomain):
    """A corridor above the profile's low points, so that joining paths leave the domain."""

    corridor_height = 0.9


THETA = 2.0 * np.pi * np.arange(PROFILE_SAMPLES) / PROFILE_SAMPLES
ARRAY_TEST_DOMAINS = [
    RaisedCorridor(1.0 + 0.5 * np.sin(9.0 * np.linspace(0.0, 1.0, PROFILE_SAMPLES)), 0.2),
    CorridorDomain(wiggly_profile, 0.0),
    CorridorDomain(1.0 + 0.5 * np.sin(150.0 * np.linspace(0.0, 1.0, PROFILE_SAMPLES)), 0.2),
    StarlikeDomain(0.1j, 1.0 + 0.3 * np.cos(7.0 * THETA)),
    DiscDomain(0.2 - 0.1j, 0.9),
]
ARRAY_TEST_IDS = ["raised_corridor", "wiggly_corridor", "corridor", "starlike", "disc"]


class TestArrayContainment:
    @pytest.mark.parametrize("dom", ARRAY_TEST_DOMAINS, ids=ARRAY_TEST_IDS)
    def test_points_on_and_next_to_the_boundary(self, dom, rng):
        # boundary points from the scalar formulas, and their neighbours one
        # ulp inside and outside: the array test must decide each the same way
        u = rng.uniform(0.0, 1.0, 300)
        centre = getattr(dom, "center", 0.5 + 0.5j)
        if isinstance(dom, CorridorDomain):
            heights = [dom.height_at(float(x)) for x in u]
            edge = [complex(x, h) for x, h in zip(u, heights)]
        else:
            rho = (dom.profile if isinstance(dom, StarlikeDomain) else np.full(PROFILE_SAMPLES, dom.radius))
            angles = 2.0 * math.pi * u
            edge = [centre + cmath.rect(float(np.interp(t, THETA, rho)), t) for t in angles]
        points = []
        for z in edge:
            for scale in (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)):
                points += [complex(z.real, z.imag * scale), centre + (z - centre) * scale]
        points += [complex(math.nan, 0.5), complex(math.inf, 0.1), centre]
        verdicts = dom.contains(np.array(points))
        assert verdicts.dtype == bool and verdicts.shape == (len(points),)
        assert verdicts.tolist() == [scalar_contains(dom, z) for z in points]
        assert 0 < verdicts.sum() < len(points)
        assert type(dom.contains(points[0])) is bool

    @pytest.mark.parametrize("dom", ARRAY_TEST_DOMAINS, ids=ARRAY_TEST_IDS)
    def test_path_check_raises_like_the_node_by_node_check(self, dom, rng):
        raised = {"endpoint": 0, "constructed": 0, None: 0}
        for _ in range(200):
            a, b = (complex(rng.uniform(-0.3, 1.3), rng.uniform(-0.4, 1.6)) for _ in range(2))
            want = scalar_path_error(dom, a, b)
            try:
                dom.bounded_path(a, b)
                got = None
            except PathOutsideDomainError as exc:
                got = str(exc)
            assert got == want
            raised[want.split()[0] if want else None] += 1
        assert raised["endpoint"] > 0 and raised[None] > 0, raised
        if isinstance(dom, RaisedCorridor):
            assert raised["constructed"] > 0, raised


class TestPathIntegral:
    def test_closed_polyline_constant(self):
        square = PolylinePath([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
        assert abs(path_integral(lambda z: 1.0, square)) < 1e-12

    def test_linear_integrand(self):
        assert abs(path_integral(lambda z: z, PolylinePath([0.0, 1.0])) - 0.5) < 1e-14

    def test_residue_on_square_contour(self):
        square = PolylinePath([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
        value = path_integral(lambda z: 1.0 / z, square)
        assert abs(value - 2j * math.pi) < 1e-10

    def test_unresolved_integrand_raises(self):
        with pytest.raises(QuadratureError):
            path_integral(lambda z: 1.0 if z.real > 0.1 else 0.0, PolylinePath([0, 1]))

    def test_returns_complex_on_both_path_kinds(self):
        polyline = PolylinePath([0.0, 1.0 + 1j, 2.0, 2.0])
        assert type(path_integral(lambda z: z, polyline)) is complex
        assert type(path_integral(lambda z: 1.0, polyline)) is complex
        assert type(path_integral(lambda z: z * z, CirclePath(0.5, 2.0))) is complex
        # a polyline of degenerate segments only integrates to 0j
        point = PolylinePath([0.5j, 0.5j])
        assert type(path_integral(lambda z: z, point)) is complex and path_integral(lambda z: z, point) == 0

    def test_component_values_on_a_polyline(self):
        # trailing component axes pass through, each component summed in path order
        polyline = PolylinePath([0.0, 1.0, 1.0 + 1j])
        value = path_integral(lambda z: np.array([1.0, z]), polyline)
        assert value.shape == (2,)
        assert abs(value[0] - (1.0 + 1j)) < 1e-14
        assert abs(value[1] - (1.0 + 1j) ** 2 / 2.0) < 1e-14

    def test_segments_sum_in_path_order(self):
        # one batched run over the segments equals the segment-by-segment sum
        f = lambda z: cmath.exp(3j * z) / (z + 2.0)
        vertices = [0.0, 1.0 + 1j, -0.5 + 2j, -1.0, -1.0]
        total = 0j
        for a, b in zip(vertices, vertices[1:]):
            if a != b:
                total += adaptive_gauss_legendre(lambda z: np.array([f(x) for x in z.tolist()]),
                                                 a, b, QUAD_TOL / 4)
        assert path_integral(f, PolylinePath(vertices)) == total


class TestIntervalEngine:
    @staticmethod
    def components(s):
        # two components: an oscillation and a near pole at s = -0.05
        return np.stack([np.exp(40j * s), 1.0 / (s + 0.05) + 0j], axis=-1)

    def test_batch_equals_single_calls_bit_for_bit(self):
        # the intervals stop at different depths; the tree-order fold must
        # give each the bits of its own run
        lo = np.array([0.0, 0.3, -0.04, 2.0, 0.0])
        hi = np.array([1.0, 2.0, 0.5, 1.0, 1e-3])
        tol = np.array([1e-12, 1e-10, 1e-12, 1e-11, 1e-12])
        batch = adaptive_gauss_legendre(self.components, lo, hi, tol)
        assert batch.shape == (5, 2)
        for k in range(5):
            alone = adaptive_gauss_legendre(self.components, lo[k], hi[k], tol[k])
            assert alone.tobytes() == batch[k].tobytes()
        assert adaptive_gauss_legendre(self.components, lo[::-1], hi[::-1], tol[::-1]).tobytes() \
            == batch[::-1].tobytes()
        # the same values in Fortran order (as the divergence pair returns them)
        fortran = adaptive_gauss_legendre(lambda s: np.asfortranarray(self.components(s)), lo, hi, tol)
        assert fortran.tobytes() == batch.tobytes()

    def test_level_engine_sums_like_the_depth_first_recursion(self):
        # reference: the recursion the level engine replaced, one panel per
        # call of f; the engine must reproduce its sums bit for bit
        f = self.components

        def panel(lo, hi):
            return _panel_estimates(f, np.array([lo]), np.array([hi]))[0]

        def bisect(lo, hi, tol, whole, depth):
            mid = (lo + hi) / 2.0
            left, right = panel(lo, mid), panel(mid, hi)
            if _close(left + right, whole, tol).all():
                return left + right
            assert depth < MAX_BISECTIONS
            return bisect(lo, mid, tol / 2.0, left, depth + 1) + bisect(mid, hi, tol / 2.0, right, depth + 1)

        for lo, hi in ((0.0, 1.0), (-0.04, 0.5), (-0.049, 3.0)):
            want = bisect(lo, hi, 1e-12, panel(lo, hi), 0)
            assert adaptive_gauss_legendre(f, lo, hi, 1e-12).tobytes() == want.tobytes()

    def test_complex_intervals_bit_for_bit(self):
        f = lambda z: np.exp(z) * z
        lo = np.array([0.0, 1j, 0.5])
        hi = np.array([1 + 1j, -2.0, 0.5 + 3j])
        batch = adaptive_gauss_legendre(f, lo, hi, QUAD_TOL)
        for a, b, value in zip(lo, hi, batch):
            assert adaptive_gauss_legendre(f, a, b, QUAD_TOL).tobytes() == value.tobytes()
            want = cmath.exp(b) * (b - 1.0) - cmath.exp(a) * (a - 1.0)
            assert abs(value - want) < 1e-12

    def test_one_integrand_call_per_level(self):
        sizes = []

        def f(s):
            sizes.append(s.size)
            return np.exp(40j * s)

        adaptive_gauss_legendre(f, np.array([0.0, 1.0]), np.array([1.0, 3.0]), 1e-12)
        # the first call holds the whole and both halves of each interval,
        # each later one both halves of every unresolved piece: here 4
        # pieces after the first level and 4 after the second
        assert sizes == [2 * 3 * 16, 4 * 2 * 16, 4 * 2 * 16]

    def test_piece_cap_raises_fast_and_small(self):
        # every piece straddles a jump, so the live count doubles each level;
        # without the cap this ran for seconds and took gigabytes before it raised
        f = lambda s: np.sign(np.sin(1e7 * s)) + 0j
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(QuadratureError, match="^no convergence after 10 bisections: the next level would hold"):
                adaptive_gauss_legendre(f, 0.0, 1.0, 1e-12)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 50e6


class TestCircleTrapezoid:
    @pytest.mark.parametrize("k", range(-3, 4))
    def test_residue_theorem_at_every_scale(self, k):
        # f dz is invariant under z -> 2^k z, so one bound serves every scale:
        # the rule's own tolerance QUAD_TOL around 2 pi i (2 + 0) = 4 pi i
        scale = 2.0 ** k
        centre, radius = (0.3 - 0.2j) * scale, 0.7 * scale
        inside = centre + 0.4 * radius * cmath.exp(1j)
        outside = centre + 1.6 * radius * cmath.exp(2j)
        value = path_integral(lambda z: 2.0 / (z - inside) + 3.0 / (z - outside),
                              CirclePath(centre, radius))
        assert abs(value - 4j * math.pi) <= QUAD_TOL

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_pole_at_relative_gap_1e_minus_4_raises(self, side):
        # the error decays like (1 + 1e-4)^-N, still about e^-1.6 at N = 2^14
        radius = 0.8
        pole = 0.1 + radius * (1.0 + side * 1e-4) * cmath.exp(0.5j)
        with pytest.raises(QuadratureError, match="^no convergence after 16384 nodes"):
            path_integral(lambda z: 1.0 / (z - pole), CirclePath(0.1, radius))


class TestAntiderivative:
    def test_constant_integrand(self):
        disc = DiscDomain(0.0, 1.0)
        assert abs(antiderivative_at(lambda z: 1.0, disc, -0.2, 0.7) - 0.9) < 1e-13

    def test_exp_closed_form(self):
        disc = DiscDomain(0.0, 1.0)
        for z in (0.5, -0.3 + 0.6j, 0.9j):
            value = antiderivative_at(np.exp, disc, 0.0, z)
            assert abs(value - (cmath.exp(z) - 1.0)) < 1e-10

    def test_path_independence(self):
        # same endpoints, two admissible polylines inside the disc
        f = lambda z: cmath.cos(z) * z
        direct = path_integral(f, PolylinePath([-0.5, 0.6j]))
        detour = path_integral(f, PolylinePath([-0.5, -0.1 - 0.4j, 0.3, 0.6j]))
        assert abs(direct - detour) < 1e-10

    def test_starlike_radial_formula(self):
        assert abs(starlike_antiderivative(lambda z: 1.0, 0.7j) - 0.7j) < 1e-13
        assert abs(starlike_antiderivative(lambda z: 2 * z, 0.5 + 0.2j) - (0.5 + 0.2j) ** 2) < 1e-12
        z = 0.4 - 0.3j
        assert abs(starlike_antiderivative(np.exp, z) - (cmath.exp(z) - 1.0)) < 1e-9

    def test_radial_and_path_forms_agree(self):
        star = StarlikeDomain(0.0, lambda theta: 1.0)
        f = lambda z: cmath.sin(z) + z * z
        for z in (0.5, -0.2 + 0.6j):
            a = starlike_antiderivative(f, z)
            b = antiderivative_at(f, star, 0.0, z)
            assert abs(a - b) < 1e-9


class TestMomentTest:
    def test_analytic_function_all_vanish(self):
        moments = moment_test(np.exp, CirclePath(0.0, 1.0), 3)
        assert all(abs(m) < 1e-10 for m in moments)

    def test_simple_pole_residue(self):
        moments = moment_test(lambda z: 1.0 / z, CirclePath(0.0, 1.0), 1)
        assert abs(moments[0] - 2j * math.pi) < 1e-10

    def test_double_pole_obstructs_second_order(self):
        moments = moment_test(lambda z: 1.0 / z**2, CirclePath(0.0, 1.0), 2)
        assert abs(moments[0]) < 1e-10
        assert abs(moments[1] - 2j * math.pi) < 1e-10

    def test_open_path_rejected(self):
        with pytest.raises(ValueError):
            moment_test(np.exp, PolylinePath([0.0, 1.0]), 1)

    def test_closed_square(self):
        # one integral of all the moments along a polyline, a point at a time
        square = PolylinePath([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
        pole = moment_test(lambda z: 1.0 / z, square, 3)
        assert len(pole) == 3 and all(type(m) is complex for m in pole)
        assert abs(pole[0] - 2j * math.pi) < 1e-10
        assert abs(pole[1]) < 1e-10 and abs(pole[2]) < 1e-10
        assert all(abs(m) < 1e-10 for m in moment_test(cmath.exp, square, 3))
        assert moment_test(cmath.exp, PolylinePath([0.5j, 0.5j]), 2) == [0j, 0j]



def rational_from_poles(residues, poles, double=None):
    """sum r_j / (z - a_j), plus c / (z - a)^2 when double = (c, a), as one rational."""
    terms = [(r, a, 1) for r, a in zip(residues, poles)] + ([(double[0], double[1], 2)] if double else [])
    den = np.polynomial.Polynomial([1.0 + 0j])
    for _, a, m in terms:
        den = den * np.polynomial.Polynomial([-a, 1.0]) ** m
    num = np.polynomial.Polynomial([0j])
    for c, a, m in terms:
        num = num + c * (den // np.polynomial.Polynomial([-a, 1.0]) ** m)
    return RationalFunction(Polynomial(num.coef), Polynomial(den.coef))


def residue_moments(residues, poles, circle, n, double=None):
    """int z^i f dz for i < n by the residue theorem, and a scale for each."""
    terms = [(r, a, 1) for r, a in zip(residues, poles)] + ([(double[0], double[1], 2)] if double else [])
    inside = [(c, a, m) for c, a, m in terms if abs(a - circle.center) < circle.radius]
    # the residue of z^i c / (z - a)^m is c a^i for m = 1 and c i a^(i-1) for m = 2
    want = [2j * math.pi * sum(c * (a**i if m == 1 else i * a ** (i - 1) if i else 0) for c, a, m in inside)
            for i in range(n)]
    scale = [sum(abs(c) * max(1.0, abs(a)) ** i for c, a, _ in terms) for i in range(n)]
    return want, scale


class CountedRational:
    """A rational that counts the nodes it is evaluated at."""

    def __init__(self, rational):
        self.rational, self.nodes = rational, 0

    def __call__(self, z):
        self.nodes += np.size(z)
        return self.rational(z)


class TestMomentCircle:
    def test_random_rationals_keep_their_moments(self, rng):
        # 2 to 4 simple poles, none within a factor 1.4 of the circle, at
        # least one inside: the given circle converges, and most are moved
        moved = 0
        for trial in range(40):
            k = 2 + trial % 3
            circle = CirclePath(complex(*rng.uniform(-0.5, 0.5, 2)), rng.uniform(0.5, 1.5))
            moduli = np.where(np.arange(k) == 0, rng.uniform(0.0, 0.7, k),
                              rng.choice([-1.0, 1.0], k) * rng.uniform(0.0, 0.7, k))
            moduli = np.where(moduli < 0, 1.4 - moduli * 1.6, np.abs(moduli)) * circle.radius
            poles = circle.center + moduli * np.exp(1j * rng.uniform(0.0, 2 * math.pi, k))
            residues = complex_normal(rng, k)
            f = rational_from_poles(residues, poles)
            target = moment_circle(f, circle, 3)
            moved += target is not circle
            want, scale = residue_moments(residues, poles, circle, 3)
            for cycle in (circle, target):
                for got, w, sc in zip(moment_test(f, cycle, 3), want, scale):
                    assert abs(got - w) <= 1e-12 * sc
        assert moved > 10

    @pytest.mark.parametrize("gap", [1e-5, 1e-4, 3e-3])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("order", [1, 2])
    def test_near_circle_pole_within_256_nodes(self, gap, side, order):
        # a simple or double pole at relative gap from the circle, and a
        # simple pole well inside; on the given circle the rule would need
        # more than 16,384 nodes (TestCircleTrapezoid)
        circle = CirclePath(0.1 - 0.2j, 0.8)
        near = circle.center + circle.radius * (1.0 + side * gap) * cmath.exp(0.5j)
        inner = circle.center + 0.3 * circle.radius * cmath.exp(2.0j)
        if order == 1:
            residues, poles, double = [0.7 - 0.2j, -0.4 + 0.9j], [near, inner], None
        else:
            residues, poles, double = [-0.4 + 0.9j], [inner], (0.7 - 0.2j, near)
        f = CountedRational(rational_from_poles(residues, poles, double))
        target = moment_circle(f.rational, circle, 3)
        assert target.center == circle.center and target.radius != circle.radius
        moments = moment_test(f, target, 3)
        assert f.nodes <= 256
        want, scale = residue_moments(residues, poles, circle, 3, double)
        for got, w, sc in zip(moments, want, scale):
            assert abs(got - w) <= 1e-12 * sc

    def test_radius_rule(self):
        circle = CirclePath(1.0, 1.0)
        f = rational_from_poles([1.0, 1.0], [1.0 + 0.6, 1.0 + 1.05j])
        # r_in = 0.6 and r_out = 1.05: [1.2, 0.525] is empty, so sqrt(0.6 * 1.05)
        assert moment_circle(f, circle, 3).radius == pytest.approx(math.sqrt(0.6 * 1.05), rel=1e-14)
        # r_in = 0.3 clamps r = 0.5 up to 2 r_in = 0.6; r_out = 1.05 clamps r = 1 down to r_out / 2
        assert moment_circle(rational_from_poles([1.0], [1.3]), CirclePath(1.0, 0.5), 3).radius == pytest.approx(0.6)
        assert moment_circle(rational_from_poles([1.0], [2.05]), circle, 3).radius == pytest.approx(0.525)
        # every pole a factor 2 away or more: the same circle
        for f in (rational_from_poles([1.0, 2.0], [1.4, 3.2]), RationalFunction(Polynomial([1.0]), Polynomial([1.0]))):
            assert moment_circle(f, circle, 3) is circle

    def test_pole_on_the_circle_raises(self):
        f = rational_from_poles([1.0, 1.0], [2.0, 0.1])
        for radius in (2.0, 2.0 * (1.0 + 1e-9)):
            with pytest.raises(PoleOnBoundaryError, match="lies on the moment circle"):
                moment_circle(f, CirclePath(0.0, radius), 3)

    @pytest.mark.parametrize("pair", [(1.0 - 4e-6, 1.0 + 6e-6), (1.0 - 5e-6, 1.0 + 5e-6), (1.0 - 2e-6, 1.0 + 8e-6)])
    def test_merged_pair_across_the_circle_keeps_the_circle(self, pair):
        # two simple poles 1e-5 apart on either side of the circle, which a
        # tolerant gcd would merge into one double pole: the pole finder
        # resolves them, with discs below a hundredth of their gap, so the
        # circle only moves between them, and the rule fails loudly there
        # instead of returning moments of 0
        f = rational_from_poles([1.0, -1.0], list(pair))
        clusters = construct.denominator_poles(f)
        assert [m for _, m, _ in clusters] == [1, 1] and max(s for _, _, s in clusters) < 1e-7
        circle = CirclePath(0.0, 1.0)
        target = moment_circle(f, circle, 3)
        assert pair[0] < target.radius < pair[1]
        with pytest.raises(QuadratureError, match="no convergence"):
            moment_test(f, target, 3)

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_merged_pair_on_one_side_moves_the_circle(self, side):
        # the same pair 3e-5 from the circle, with a simple pole well inside:
        # both roots lie on one side, so the circle moves
        mid = 1.0 + side * 3e-5
        residues, poles = [1.0, -0.5, 0.3j], [mid - 5e-6, mid + 5e-6, 0.2j]
        f = CountedRational(rational_from_poles(residues, poles))
        clusters = construct.denominator_poles(f.rational)
        assert [m for _, m, _ in clusters] == [1, 1, 1] and max(s for _, _, s in clusters) < 1e-7
        circle = CirclePath(0.0, 1.0)
        target = moment_circle(f.rational, circle, 3)
        assert target is not circle
        moments = moment_test(f, target, 3)
        assert f.nodes <= 256
        want, scale = residue_moments(residues, poles, circle, 3)
        for got, w, sc in zip(moments, want, scale):
            assert abs(got - w) <= 1e-9 * sc

    def test_moved_circle_encloses_the_same_roots(self, rng):
        # clusters of 1 to 4 roots spread 1e-7 to 1e-2, some merged into
        # multiple poles, on circles through the cluster: a moved circle
        # never separates roots the given one kept together
        moved = 0
        for trial in range(300):
            m = 1 + trial % 4
            centre = complex(*rng.uniform(-0.3, 0.3, 2))
            p = centre + rng.choice([0.3, 1.0, 3.0]) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            spread = 10.0 ** rng.uniform(-7.0, -2.0)
            roots = list(p + spread * complex_normal(rng, m)) + list(
                centre + rng.uniform(0.2, 3.0, trial % 3) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, trial % 3)))
            circle = CirclePath(centre, abs(p - centre) + spread * rng.uniform(-3.0, 3.0))
            den = np.polynomial.polynomial.polyfromroots(roots)
            f = RationalFunction(Polynomial([1.0]), Polynomial(den))
            try:
                target = moment_circle(f, circle, 1 + trial % 5)
            except PoleOnBoundaryError:
                continue
            moved += target is not circle
            for a in roots:
                assert (abs(a - centre) < circle.radius) == (abs(a - centre) < target.radius)
        assert moved > 50

    # three-root clusters, spread about 5e-6, that the circle passes through:
    # computed in floating point, the shifted coefficients alone would give
    # discs too small to hold the cluster, and the circle would move past a root
    ROUNDING_CASES = [
        ([0.3625048990951182 - 0.9319823010190348j, 0.3624952350678903 - 0.931980103407492j,
          0.36249816389408057 - 0.9319895715063456j],
         0.2282334748340687 - 0.0021185700505367833j, 0.9395102347908437, 7),
        ([-0.16980867759051613 - 0.9854756050693732j, -0.16981397550814695 - 0.9854744003164618j,
          -0.16981236989595802 - 0.9854795908241729j],
         -0.1431300630942589 + 0.04656960824618994j, 1.0323931751209363, 2),
        ([2.814911243685138 - 1.0374370529159176j, 2.814912424556179 - 1.0374378089427905j,
          2.8149084508237037 - 1.0374439574233478j, -0.49473309728230636 - 0.5595690930657169j,
          -1.21113199557865 - 0.6950904422393404j],
         0.1784616422372422 - 0.2994126657738843j, 2.7378078377634534, 2),
    ]

    @pytest.mark.parametrize("roots, centre, radius, n", ROUNDING_CASES)
    def test_disc_radii_allow_for_rounding(self, roots, centre, radius, n):
        den = np.array([1.0 + 0j])
        for a in roots:
            den = np.convolve(den, [-a, 1.0])
        target = moment_circle(RationalFunction(Polynomial([1.0]), Polynomial(den)), CirclePath(centre, radius), n)
        for a in roots:
            assert (abs(a - centre) < radius) == (abs(a - centre) < target.radius)

    @pytest.mark.parametrize("inner", [0.6, 0.9, 0.999])
    def test_many_moments_cap_the_growth(self, inner):
        # one pole inside the unit circle and 60 moments: the moved radius
        # raises max(1, |z|)^59 by at most MOMENT_SCALE_GROWTH, so the node
        # sums' rounding stays below the rule's tolerance
        f = rational_from_poles([1.0 - 0.5j], [inner])
        circle = CirclePath(0.0, 1.0)
        target = moment_circle(f, circle, 60)
        assert 1.0 < target.radius <= construct.MOMENT_SCALE_GROWTH ** (1.0 / 59) * (1.0 + 1e-15)
        want, scale = residue_moments([1.0 - 0.5j], [inner], circle, 60)
        for got, w, sc in zip(moment_test(f, target, 60), want, scale):
            assert abs(got - w) <= 1e-12 * sc


class TestJointCircleRule:
    def test_components_stop_where_their_own_runs_stop(self):
        # poles at ratios 1.1, 2 and 8 from the circle: the components converge
        # at different doublings, and each keeps the bits of its own run
        circle = CirclePath(0.2, 1.0)
        poles = [0.2 + 1.1j, 2.2, 0.2 - 8.0]
        calls = []

        def joint(z):
            calls.append(z.size)
            return np.stack([1.0 / (z - a) for a in poles], axis=-1)

        values = path_integral(joint, circle)
        assert values.shape == (3,)
        for a, value in zip(poles, values):
            alone = path_integral(lambda z: 1.0 / (z - a), circle)
            assert np.complex128(alone).tobytes() == value.tobytes()
        # one call per doubling, up to the slowest component's
        assert calls == [64, 64, 128, 256, 512]

    def test_moments_bit_for_bit_from_one_node_set(self):
        f = rational_from_poles([0.3 + 1j, -2.0], [0.4j, 1.3])
        circle = CirclePath(0.1, 1.0)
        counted = CountedRational(f)
        joint = moment_test(counted, circle, 4)
        alone = [path_integral(lambda z, k=k: z**k * f(z), circle) for k in range(4)]
        assert np.array(joint).tobytes() == np.array(alone).tobytes()
        assert all(type(m) is complex for m in joint)
        assert counted.nodes <= 2048

    def test_unconverged_component_raises(self):
        pole = 0.1 + 0.8 * (1.0 + 1e-4) * cmath.exp(0.5j)
        with pytest.raises(QuadratureError, match="^no convergence after 16384 nodes"):
            path_integral(lambda z: np.stack([z, 1.0 / (z - pole)], axis=-1), CirclePath(0.1, 0.8))


class TestDomainSerialization:
    def test_roundtrips(self):
        for dom in (
            DiscDomain(1j, 2.0),
            StarlikeDomain(0.0, lambda theta: 1.0 + 0.2 * math.cos(theta)),
            CorridorDomain(wiggly_profile, -0.5),
        ):
            again = DomainSpec.from_data(dom.to_data())
            for z in (0.2 + 0.3j, 2.0 + 2.0j, 0.9 + 0.05j):
                assert again.contains(z) == dom.contains(z)
