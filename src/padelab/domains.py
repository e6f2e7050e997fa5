"""Plane domains, bounded joining paths and complex path integration.

Three domain shapes are supported, each with a certified bound M on the
length of the internal path joining any two of its points:

* disc: the straight segment, M = diameter;
* starlike about a center z0 (radial profile rho(theta), sampled at
  PROFILE_SAMPLES angles with linear interpolation): the two-segment path
  through z0, M = 2 * diameter;
* "corridor" domain {0 < x < 1, c < y < phi(x)} under a continuous top
  profile phi: descend to a horizontal corridor just above the floor,
  traverse, ascend; M = 2 * (max phi - c) + 1.

The corridor descends to ``c + CORRIDOR_MARGIN * (min phi - c)`` so the
path stays strictly interior for sampled profiles.

Path integrals use composite 16-node Gauss-Legendre per segment with
adaptive bisection; the node set is deterministic, so repeated runs give
identical values.  :func:`adaptive_gauss_legendre` is the package's one
quadrature engine (the divergence experiment in ``blowup`` uses it too);
a segment that does not converge within MAX_BISECTIONS bisections raises
QuadratureError rather than returning its last estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PathOutsideDomainError, QuadratureError

PROFILE_SAMPLES = 2048
CORRIDOR_MARGIN = 0.05
GAUSS_ORDER = 16
QUAD_TOL = 1e-12
MAX_BISECTIONS = 24

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)


@dataclass(frozen=True)
class PathBudget:
    """Uniform bound on joining-path length for a domain."""

    M: float


class PolylinePath:
    """Piecewise-linear path given by its ordered vertices."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        verts = [complex(v) for v in vertices]
        if len(verts) < 2:
            raise ValueError("a polyline needs at least two vertices")
        object.__setattr__(self, "vertices", tuple(verts))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PolylinePath is immutable")

    @property
    def length(self) -> float:
        return sum(abs(b - a) for a, b in zip(self.vertices, self.vertices[1:]))

    @property
    def is_closed(self) -> bool:
        scale = max(1.0, max(abs(v) for v in self.vertices))
        return abs(self.vertices[0] - self.vertices[-1]) <= 1e-12 * scale

    def segments(self):
        return list(zip(self.vertices, self.vertices[1:]))

    def to_data(self) -> dict:
        return {"vertices": [[v.real, v.imag] for v in self.vertices]}

    @classmethod
    def from_data(cls, data: dict) -> "PolylinePath":
        return cls([complex(re, im) for re, im in data["vertices"]])

    def __repr__(self):
        return f"PolylinePath({len(self.vertices)} vertices, length={self.length:.6g})"


class CirclePath:
    """Positively oriented parametric circle, for closed-cycle integrals."""

    __slots__ = ("center", "radius")

    def __init__(self, center: complex, radius: float):
        if radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", complex(center))
        object.__setattr__(self, "radius", float(radius))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CirclePath is immutable")

    @property
    def length(self) -> float:
        return 2.0 * math.pi * self.radius

    is_closed = True

    def __repr__(self):
        return f"CirclePath(center={self.center!r}, radius={self.radius})"


# --- domains -----------------------------------------------------------------


class DomainSpec:
    """Common surface for the supported domain shapes."""

    def contains(self, z: complex) -> bool:
        raise NotImplementedError

    @property
    def diameter(self) -> float:
        raise NotImplementedError

    @property
    def path_budget(self) -> PathBudget:
        """Uniform bound on the length of paths produced by bounded_path."""
        raise NotImplementedError

    def bounded_path(self, a: complex, b: complex) -> tuple[PolylinePath, PathBudget]:
        raise NotImplementedError

    def to_data(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_data(data: dict) -> "DomainSpec":
        kind = data["variant"]
        if kind == "disc":
            return DiscDomain(complex(*data["center"]), float(data["radius"]))
        if kind == "starlike":
            return StarlikeDomain(complex(*data["center"]), np.asarray(data["profile"], dtype=float))
        if kind == "corridor":
            return CorridorDomain(np.asarray(data["profile"], dtype=float), float(data["floor"]))
        raise ValueError(f"unknown domain variant {kind!r}")


def _verify_inside(domain: DomainSpec, path: PolylinePath):
    """Check path interior points at the quadrature nodes of each segment."""
    for a, b in path.segments():
        mid, rad = (a + b) / 2.0, (b - a) / 2.0
        for x in _GL_NODES:
            z = mid + rad * x
            if not domain.contains(z):
                raise PathOutsideDomainError(f"constructed path leaves the domain at {z}")


class DiscDomain(DomainSpec):
    """Open disc; joining paths are straight segments."""

    def __init__(self, center: complex, radius: float):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.center = complex(center)
        self.radius = float(radius)

    def contains(self, z: complex) -> bool:
        return abs(complex(z) - self.center) < self.radius

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @property
    def path_budget(self) -> PathBudget:
        return PathBudget(self.diameter)

    def bounded_path(self, a: complex, b: complex) -> tuple[PolylinePath, PathBudget]:
        a, b = complex(a), complex(b)
        for point in (a, b):
            if not self.contains(point):
                raise PathOutsideDomainError(f"endpoint {point} outside the disc")
        path = PolylinePath([a, b])
        budget = self.path_budget
        assert path.length <= budget.M + 1e-12
        return path, budget

    def to_data(self) -> dict:
        return {
            "variant": "disc",
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
        }

    def __repr__(self):
        return f"DiscDomain(center={self.center!r}, radius={self.radius})"


class StarlikeDomain(DomainSpec):
    """Starlike about ``center``: {center + r e^{i theta} : r < rho(theta)}.

    The profile may be a callable of theta or an array of samples over
    [0, 2 pi); it is resampled at PROFILE_SAMPLES angles and interpolated
    linearly, so all geometric predicates are reproducible.
    """

    def __init__(self, center: complex, profile):
        self.center = complex(center)
        if callable(profile):
            theta = 2.0 * np.pi * np.arange(PROFILE_SAMPLES) / PROFILE_SAMPLES
            samples = np.array([float(profile(t)) for t in theta])
        else:
            samples = np.asarray(profile, dtype=float)
        if samples.ndim != 1 or samples.size < 3:
            raise ValueError("profile needs at least three samples")
        if not np.all(samples > 0):
            raise ValueError("radial profile must be strictly positive")
        self.profile = samples
        self.profile.setflags(write=False)

    def radius_at(self, theta: float) -> float:
        n = len(self.profile)
        x = (theta % (2.0 * math.pi)) / (2.0 * math.pi) * n
        i = int(math.floor(x)) % n
        frac = x - math.floor(x)
        return float((1.0 - frac) * self.profile[i] + frac * self.profile[(i + 1) % n])

    def contains(self, z: complex) -> bool:
        w = complex(z) - self.center
        if w == 0:
            return True
        return abs(w) < self.radius_at(math.atan2(w.imag, w.real))

    @property
    def diameter(self) -> float:
        n = len(self.profile)
        opposite = np.roll(self.profile, n // 2)
        return float((self.profile + opposite).max())

    @property
    def path_budget(self) -> PathBudget:
        return PathBudget(2.0 * self.diameter)

    def bounded_path(self, a: complex, b: complex) -> tuple[PolylinePath, PathBudget]:
        a, b = complex(a), complex(b)
        for point in (a, b):
            if not self.contains(point):
                raise PathOutsideDomainError(f"endpoint {point} outside the starlike domain")
        path = PolylinePath([a, self.center, b])
        budget = self.path_budget
        assert path.length <= budget.M + 1e-12
        _verify_inside(self, path)
        return path, budget

    def to_data(self) -> dict:
        return {
            "variant": "starlike",
            "center": [self.center.real, self.center.imag],
            "profile": self.profile.tolist(),
        }

    def __repr__(self):
        return f"StarlikeDomain(center={self.center!r}, {len(self.profile)} profile samples)"


class CorridorDomain(DomainSpec):
    """Region {0 < x < 1, floor < y < phi(x)} under a continuous profile.

    ``phi`` may be a callable on [0, 1] or an array of samples; linear
    interpolation between samples defines the working boundary.  The
    profile may wiggle arbitrarily (no bounded-variation requirement);
    the corridor construction keeps joining paths short regardless.
    """

    def __init__(self, profile, floor: float):
        if callable(profile):
            xs = np.linspace(0.0, 1.0, PROFILE_SAMPLES)
            samples = np.array([float(profile(x)) for x in xs])
        else:
            samples = np.asarray(profile, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("profile needs at least two samples")
        self.floor = float(floor)
        if not self.floor < samples.min():
            raise ValueError("floor must lie strictly below the profile")
        self.profile = samples
        self.profile.setflags(write=False)

    def height_at(self, x: float) -> float:
        n = len(self.profile)
        t = min(max(x, 0.0), 1.0) * (n - 1)
        i = min(int(math.floor(t)), n - 2)
        frac = t - i
        return float((1.0 - frac) * self.profile[i] + frac * self.profile[i + 1])

    def contains(self, z: complex) -> bool:
        z = complex(z)
        x, y = z.real, z.imag
        return 0.0 < x < 1.0 and self.floor < y < self.height_at(x)

    @property
    def diameter(self) -> float:
        return math.hypot(1.0, float(self.profile.max()) - self.floor)

    @property
    def corridor_height(self) -> float:
        return self.floor + CORRIDOR_MARGIN * (float(self.profile.min()) - self.floor)

    @property
    def path_budget(self) -> PathBudget:
        return PathBudget(2.0 * (float(self.profile.max()) - self.floor) + 1.0)

    def bounded_path(self, a: complex, b: complex) -> tuple[PolylinePath, PathBudget]:
        a, b = complex(a), complex(b)
        for point in (a, b):
            if not self.contains(point):
                raise PathOutsideDomainError(f"endpoint {point} outside the corridor domain")
        yc = self.corridor_height
        path = PolylinePath([a, complex(a.real, yc), complex(b.real, yc), b])
        budget = self.path_budget
        assert path.length <= budget.M + 1e-12
        _verify_inside(self, path)
        return path, budget

    def to_data(self) -> dict:
        return {"variant": "corridor", "profile": self.profile.tolist(), "floor": self.floor}

    def __repr__(self):
        return f"CorridorDomain(floor={self.floor}, {len(self.profile)} profile samples)"


def bounded_path(domain: DomainSpec, a: complex, b: complex) -> tuple[PolylinePath, PathBudget]:
    """Joining path inside the domain together with its length budget."""
    return domain.bounded_path(a, b)


# --- quadrature ---------------------------------------------------------------


def _gauss_segment(f, a: complex, b: complex) -> complex:
    mid, rad = (a + b) / 2.0, (b - a) / 2.0
    acc = 0j
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        acc += w * f(mid + rad * x)
    return acc * rad


def adaptive_gauss_legendre(f, a: complex, b: complex, tol: float) -> complex:
    """Integral of f over the real or complex segment [a, b], to absolute tolerance tol.

    Each step compares one 16-node Gauss-Legendre estimate with the sum over
    the two halves and bisects until they agree; raises QuadratureError when
    a piece is still unresolved after MAX_BISECTIONS bisections.
    """
    return _bisect(f, a, b, tol, _gauss_segment(f, a, b), 0)


def _bisect(f, a: complex, b: complex, tol: float, whole: complex, depth: int) -> complex:
    """One step of :func:`adaptive_gauss_legendre`; ``whole`` is the parent's half."""
    mid = (a + b) / 2.0
    left, right = _gauss_segment(f, a, mid), _gauss_segment(f, mid, b)
    halves = left + right
    # relative floor: successive estimates cannot agree below roundoff scale
    if abs(halves - whole) <= max(tol, 4e-15 * abs(halves)):
        return halves
    if depth >= MAX_BISECTIONS:
        raise QuadratureError(
            f"no convergence after {MAX_BISECTIONS} bisections on [{a}, {b}]"
        )
    return _bisect(f, a, mid, tol / 2.0, left, depth + 1) + _bisect(f, mid, b, tol / 2.0, right, depth + 1)


def path_integral(f, path, tol: float = QUAD_TOL) -> complex:
    """Integral of f along a polyline or circle, to the requested tolerance."""
    if isinstance(path, CirclePath):
        def g(theta):
            z = path.center + path.radius * complex(math.cos(theta), math.sin(theta))
            dz = path.radius * complex(-math.sin(theta), math.cos(theta))
            return f(z) * dz

        pieces = np.linspace(0.0, 2.0 * math.pi, 9)
        return sum(
            adaptive_gauss_legendre(g, a, b, tol / 8.0) for a, b in zip(pieces, pieces[1:])
        )
    segments = path.segments()
    if not segments:
        return 0j
    acc = 0j
    for a, b in segments:
        if a == b:
            continue
        acc += adaptive_gauss_legendre(f, a, b, tol / max(1, len(segments)))
    return acc


def antiderivative_at(f, domain: DomainSpec, z0: complex, z: complex, tol: float = QUAD_TOL) -> complex:
    """F(z) = integral of f along the domain's bounded path from z0 to z.

    By construction |F(z)| <= M * (sup of |f| over the quadrature nodes),
    with M the domain's path budget.
    """
    z0, z = complex(z0), complex(z)
    if z0 == z:
        return 0j
    path, _ = domain.bounded_path(z0, z)
    return path_integral(f, path, tol)


def starlike_antiderivative(f, z: complex, tol: float = QUAD_TOL) -> complex:
    """Radial antiderivative ``int_0^1 f(t z) z dt`` for domains starlike about 0."""
    z = complex(z)
    if z == 0:
        return 0j
    return adaptive_gauss_legendre(lambda t: f(t * z) * z, 0.0, 1.0, tol)


def moment_test(f, cycle, n: int, tol: float = QUAD_TOL) -> list[complex]:
    """Moments ``int z^i f(z) dz`` for i = 0..n-1 over a closed cycle.

    All moments below tolerance is the criterion for f to admit a
    single-valued antiderivative of order n near the cycle.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not isinstance(cycle, CirclePath):
        if not cycle.is_closed:
            raise ValueError("moment test needs a closed cycle")
    return [path_integral(lambda z, k=i: z**k * f(z), cycle, tol) for i in range(n)]
