import cmath
import math
import time
import tracemalloc

import numpy as np
import pytest

from padelab import (
    CirclePath,
    CorridorDomain,
    DiscDomain,
    DomainSpec,
    PolylinePath,
    StarlikeDomain,
    antiderivative_at,
    bounded_path,
    moment_test,
    path_integral,
    starlike_antiderivative,
)
from padelab.domains import (
    MAX_BISECTIONS,
    QUAD_TOL,
    _agree,
    _panel_estimates,
    adaptive_gauss_legendre,
)
from padelab.errors import PathOutsideDomainError, QuadratureError

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
            if _agree(left + right, whole, tol):
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
