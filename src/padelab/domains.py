"""Plane domains, bounded joining paths and complex path integration.

Three domain shapes are supported, each with a bound M on the length of
the internal path joining any two of its points:

* disc: the straight segment, M = diameter;
* starlike about a center z0 (radial profile rho(theta), sampled at
  PROFILE_SAMPLES angles with linear interpolation): the two-segment path
  through z0, M = 2 * diameter;
* "corridor" domain {0 < x < 1, c < y < phi(x)} under a continuous top
  profile phi: descend to a horizontal corridor just above the floor,
  traverse, ascend; M = 2 * (max phi - c) + 1.

A shape supplies only its geometry, including the waypoints of its path;
:meth:`DomainSpec.bounded_path` is the one routine that builds the path
and checks it against M and against the domain.  The corridor descends to
``c + CORRIDOR_MARGIN * (min phi - c)`` so the path stays strictly
interior for sampled profiles.  The path's endpoints and the
Gauss-Legendre nodes of its segments go through one array call of the
membership test, with the arithmetic per point of a scalar test
(``math.atan2`` point by point, since NumPy's ``arctan2`` may round
differently), so the same paths are accepted and the same node is named
when one leaves the domain.

Path integrals run on NumPy arrays where the integrand allows it:

* on a :class:`CirclePath`, a doubling trapezoidal rule.  For a periodic
  analytic integrand it converges geometrically (Trefethen & Weideman,
  SIAM Review 56, 2014).  It starts at TRAPEZOID_START nodes; each
  doubling evaluates f once on the array of new nodes, until two
  successive estimates agree.  A rule that still disagrees at
  TRAPEZOID_MAX_NODES nodes, or meets a value that is not finite, raises
  QuadratureError.  So f must accept an ndarray of points on a circle.
  Its values may carry a trailing component axis: :func:`moment_test`
  takes all its moments from one node set, each component stopping at
  the doubling where its own run would stop.
  The rule converges like rho^-N, rho the ratio between the radius and
  the distance of the nearest singularity from the centre (either way
  round), so a pole within 3e-3 of a unit circle runs it to the node cap.
  ``padelab moments`` therefore takes a rational's moments on the circle
  that ``construct.moment_circle`` picks.
* on a :class:`PolylinePath`, composite 16-node Gauss-Legendre with
  adaptive bisection, all segments in one run of the engine.  There f is
  called one node at a time, so a scalar-only function such as
  ``cmath.exp`` may be integrated.

:func:`adaptive_gauss_legendre` is the package's one interval engine (the
divergence experiment in ``blowup`` uses it too).  It takes a batch of
intervals and works level by level: each level calls f once, on the nodes
of both halves of every unresolved piece, and the values may carry a
trailing component axis.  The accepted sums are folded back in the order
of a depth-first recursion, so an interval's integral does not depend on
the rest of its batch.  A piece that does not converge within
MAX_BISECTIONS bisections, or a level that would hold more than
MAX_LIVE_PER_INTERVAL pieces per input interval, raises QuadratureError
rather than returning its last estimate; the second bound keeps the memory
of a level within a fixed multiple of the batch's own.
Both rules use the acceptance test ``max(QUAD_TOL, 4e-15 |estimate|)``,
and their node sets are deterministic, so repeated runs give identical
values.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PathOutsideDomainError, PreconditionError, QuadratureError

PROFILE_SAMPLES = 2048
CORRIDOR_MARGIN = 0.05
GAUSS_ORDER = 16
QUAD_TOL = 1e-12
MAX_BISECTIONS = 24
MAX_LIVE_PER_INTERVAL = 256
TRAPEZOID_START = 64
TRAPEZOID_MAX_NODES = 2**14

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)


def checked_disc(center, radius, what: str, error=PreconditionError) -> tuple[complex, float]:
    """``(complex(center), float(radius))`` of a disc or circle named ``what``;
    ``error`` unless the centre is finite, the radius positive and finite,
    and |centre| + 2 radius finite, so that no point or diameter overflows."""
    center, radius = complex(center), float(radius)
    if not (0.0 < radius < math.inf and cmath.isfinite(center)):
        raise error(f"{what} needs a finite centre and a positive finite radius, got centre {center!r}, radius {radius!r}")
    if not math.hypot(center.real, center.imag) + 2.0 * radius < math.inf:
        raise error(f"{what} overflows: |centre| + 2 radius is not finite, got centre {center!r}, radius {radius!r}")
    return center, radius


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

    def __repr__(self):
        return f"PolylinePath({len(self.vertices)} vertices, length={self.length:.6g})"


class CirclePath:
    """Positively oriented parametric circle, for closed-cycle integrals."""

    __slots__ = ("center", "radius")

    def __init__(self, center: complex, radius: float):
        center, radius = checked_disc(center, radius, "a circle path")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

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
    """A plane domain with a uniform bound M on its joining paths.

    A shape subclasses this and supplies its geometry:

    * ``_inside(z)``: membership of the open domain for a 1-D array of
      points, which :meth:`contains` wraps;
    * ``diameter``;
    * ``path_budget``: the number M;
    * ``waypoints(a, b)``: the inner vertices of the path from a to b;
    * ``noun``: the domain's name in the endpoint error;
    * ``to_data()`` for :meth:`from_data`, and ``__repr__``.

    :meth:`bounded_path` is written once for every shape.
    """

    def bounded_path(self, a: complex, b: complex) -> tuple[PolylinePath, float]:
        """The polyline ``[a, *waypoints, b]`` inside the domain, and M.

        Raises PathOutsideDomainError when an endpoint lies outside, or when
        a Gauss-Legendre node of a segment does.
        """
        a, b = complex(a), complex(b)
        path = PolylinePath([a, *self.waypoints(a, b), b])
        segments = path.segments()
        mid = np.array([(u + v) / 2.0 for u, v in segments])
        rad = np.array([(v - u) / 2.0 for u, v in segments])
        # the endpoints and every node in one test; an endpoint that is not
        # finite lies outside, whatever its nodes compute to
        with np.errstate(invalid="ignore", over="ignore"):
            nodes = (mid[:, None] + rad[:, None] * _GL_NODES).reshape(-1)
            inside = self.contains(np.concatenate([[a, b], nodes]))
        for point, ok in zip((a, b), inside):
            if not ok:
                raise PathOutsideDomainError(f"endpoint {point} outside {self.noun}")
        budget = self.path_budget
        assert path.length <= budget + 1e-12
        outside = np.flatnonzero(~inside[2:])
        if outside.size:
            raise PathOutsideDomainError(f"constructed path leaves the domain at {complex(nodes[outside[0]])}")
        return path, budget

    def contains(self, z):
        """Membership of the open domain: a bool for a point, a bool array for an array of points."""
        points = np.asarray(z, dtype=complex)
        inside = self._inside(points.reshape(-1))
        return bool(inside[0]) if points.ndim == 0 else inside.reshape(points.shape)

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


_COUNT_WORDS = {2: "two", 3: "three"}


def _sampled_profile(profile, grid: np.ndarray, minimum: int) -> np.ndarray:
    """Read-only samples of a profile: a callable is sampled on ``grid``,
    an array is copied (the caller's stays writable and apart); fewer than
    ``minimum`` samples is an error."""
    if callable(profile):
        samples = np.array([float(profile(t)) for t in grid])
    else:
        samples = np.array(profile, dtype=float)
    if samples.ndim != 1 or samples.size < minimum:
        raise ValueError(f"profile needs at least {_COUNT_WORDS[minimum]} samples")
    samples.setflags(write=False)
    return samples


class DiscDomain(DomainSpec):
    """Open disc; joining paths are straight segments."""

    noun = "the disc"

    def __init__(self, center: complex, radius: float):
        self.center, self.radius = checked_disc(center, radius, "a disc domain")

    def _inside(self, z: np.ndarray) -> np.ndarray:
        w = z - self.center
        return np.hypot(w.real, w.imag) < self.radius

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @property
    def path_budget(self) -> float:
        return self.diameter

    def waypoints(self, a: complex, b: complex) -> tuple[complex, ...]:
        return ()

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

    noun = "the starlike domain"

    def __init__(self, center: complex, profile):
        self.center = complex(center)
        theta = 2.0 * np.pi * np.arange(PROFILE_SAMPLES) / PROFILE_SAMPLES
        self.profile = _sampled_profile(profile, theta, 3)
        if not np.all(self.profile > 0):
            raise ValueError("radial profile must be strictly positive")
        # the profile is read-only, so the widest pair of opposite radii is fixed
        self.diameter = float((self.profile + np.roll(self.profile, len(self.profile) // 2)).max())

    def radius_at(self, theta):
        """The interpolated profile at the angle theta, a float or an array of finite angles."""
        n = len(self.profile)
        x = np.remainder(theta, 2.0 * math.pi) / (2.0 * math.pi) * n
        below = np.floor(x)
        i = below.astype(np.intp) % n
        frac = x - below
        return (1.0 - frac) * self.profile[i] + frac * self.profile[(i + 1) % n]

    def _inside(self, z: np.ndarray) -> np.ndarray:
        # the centre has modulus 0, below every (positive) profile value
        w = z - self.center
        # math.atan2 point by point, since NumPy's arctan2 may round differently;
        # a NaN angle, of a NaN point, reads as 0 and the NaN modulus compares False
        theta = np.array([math.atan2(y, x) for x, y in zip(w.real.tolist(), w.imag.tolist())])
        return np.hypot(w.real, w.imag) < self.radius_at(np.nan_to_num(theta))

    @property
    def path_budget(self) -> float:
        return 2.0 * self.diameter

    def waypoints(self, a: complex, b: complex) -> tuple[complex, ...]:
        return (self.center,)

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

    noun = "the corridor domain"

    def __init__(self, profile, floor: float):
        samples = _sampled_profile(profile, np.linspace(0.0, 1.0, PROFILE_SAMPLES), 2)
        self.floor = float(floor)
        if not self.floor < samples.min():
            raise ValueError("floor must lie strictly below the profile")
        self.profile = samples

    def height_at(self, x):
        """The interpolated profile at x clamped to [0, 1] (NaN reads as 0); x a float or an array."""
        n = len(self.profile)
        t = np.fmin(np.fmax(x, 0.0), 1.0) * (n - 1)
        i = np.minimum(np.floor(t).astype(np.intp), n - 2)
        frac = t - i
        return (1.0 - frac) * self.profile[i] + frac * self.profile[i + 1]

    def _inside(self, z: np.ndarray) -> np.ndarray:
        x, y = z.real, z.imag
        return (0.0 < x) & (x < 1.0) & (self.floor < y) & (y < self.height_at(x))

    @property
    def diameter(self) -> float:
        return math.hypot(1.0, float(self.profile.max()) - self.floor)

    @property
    def corridor_height(self) -> float:
        return self.floor + CORRIDOR_MARGIN * (float(self.profile.min()) - self.floor)

    @property
    def path_budget(self) -> float:
        return 2.0 * (float(self.profile.max()) - self.floor) + 1.0

    def waypoints(self, a: complex, b: complex) -> tuple[complex, ...]:
        yc = self.corridor_height
        return complex(a.real, yc), complex(b.real, yc)

    def to_data(self) -> dict:
        return {"variant": "corridor", "profile": self.profile.tolist(), "floor": self.floor}

    def __repr__(self):
        return f"CorridorDomain(floor={self.floor}, {len(self.profile)} profile samples)"


def bounded_path(domain: DomainSpec, a: complex, b: complex) -> tuple[PolylinePath, float]:
    """Joining path inside the domain together with its length budget M."""
    return domain.bounded_path(a, b)


# --- quadrature ---------------------------------------------------------------


def _close(estimate, previous, tol):
    """The acceptance test of both rules, elementwise; tol broadcasts against estimate."""
    # relative floor: successive estimates cannot agree below roundoff scale
    return abs(estimate - previous) <= np.maximum(tol, 4e-15 * abs(estimate))


def _panel_estimates(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """16-node Gauss-Legendre estimates on the panels [lo[k], hi[k]], from one call of f.

    f gets the flat array of every panel's nodes.  Each weighted sum is
    reduced along its own contiguous row of 16 products, whatever the memory
    layout of f's values, so a panel's estimate does not depend on which
    other panels share the call.
    """
    mid, rad = (lo + hi) / 2.0, (hi - lo) / 2.0
    values = np.asarray(f((mid[:, None] + rad[:, None] * _GL_NODES).reshape(-1)))
    components = np.shape(values)[1:]
    rows = np.moveaxis(values.reshape(len(lo), GAUSS_ORDER, math.prod(components)), 1, 2)
    total = np.multiply(rows, _GL_WEIGHTS, order="C").sum(axis=-1).reshape(len(lo), *components)
    return _per_piece(rad, total) * total


def _per_piece(x: np.ndarray, like: np.ndarray) -> np.ndarray:
    """One value per piece, shaped to broadcast over the component axes of ``like``."""
    return x.reshape(-1, *(1,) * (like.ndim - 1))


def adaptive_gauss_legendre(f, a, b, tol):
    """Integrals of f over the real or complex intervals [a, b], each to absolute tolerance tol.

    a and b are scalars or 1-D arrays of one shape, and tol is a scalar or
    an array of that shape; the result is one integral, or an array with
    one integral per interval.
    f takes a flat array of nodes and returns their values, with optional
    trailing component axes, which the result then has too.

    The engine is level-synchronous (Shampine, J. Comput. Appl. Math. 211,
    2008): each level calls f once, on the 16 Gauss-Legendre nodes of both
    halves of every unresolved piece, and accepts a piece where the sum over
    its halves agrees with its whole in every component.  The others
    bisect with half their tolerance; a half becomes its child's whole.
    The accepted sums are folded back in the order of the depth-first
    recursion, left half plus right half, so an interval's integral does
    not depend on the other intervals of the batch.

    Raises QuadratureError when a piece is still unresolved after
    MAX_BISECTIONS bisections, or when a level would hold more than
    MAX_LIVE_PER_INTERVAL pieces per input interval.
    """
    scalar = np.ndim(a) == np.ndim(b) == np.ndim(tol) == 0
    lo, hi = np.atleast_1d(a, b)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("interval endpoints must be scalars or 1-D arrays of one shape")
    n = lo.size
    tol = np.zeros(n) + tol
    mid = (lo + hi) / 2.0
    panels = _panel_estimates(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
    whole, left, right = panels[:n], panels[n:2 * n], panels[2 * n:]
    levels = []
    for depth in range(MAX_BISECTIONS + 1):
        halves = left + right
        done = _close(halves, whole, _per_piece(tol, halves)).all(axis=tuple(range(1, halves.ndim)))
        levels.append((halves, done))
        live = np.flatnonzero(~done)
        if live.size == 0:
            break
        if depth == MAX_BISECTIONS:
            k = live[0]
            raise QuadratureError(
                f"no convergence after {MAX_BISECTIONS} bisections on [{lo[k].item()}, {hi[k].item()}]"
            )
        if 2 * live.size > MAX_LIVE_PER_INTERVAL * n:
            raise QuadratureError(
                f"no convergence after {depth + 1} bisections: the next level would hold "
                f"{2 * live.size} pieces, more than {MAX_LIVE_PER_INTERVAL} per interval"
            )
        # the children of a piece sit side by side, left first
        lo, hi = _interleave(lo[live], mid[live]), _interleave(mid[live], hi[live])
        whole, tol = _interleave(left[live], right[live]), np.repeat(tol[live] / 2.0, 2)
        mid = (lo + hi) / 2.0
        panels = _panel_estimates(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = panels[:lo.size], panels[lo.size:]

    value = levels.pop()[0]
    for halves, done in reversed(levels):
        halves[~done] = value[0::2] + value[1::2]
        value = halves
    return value[0] if scalar else value


def _interleave(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """first[0], second[0], first[1], second[1], ... along the leading axis."""
    return np.stack([first, second], axis=1).reshape(-1, *first.shape[1:])


def _circle_integral(f, path: CirclePath):
    """Doubling trapezoidal rule for the integral of f around a circle.

    f's values may carry trailing component axes; the result then has them
    too.  Every doubling evaluates f once for all components, and a
    component keeps the estimate of the doubling at which it alone would
    have stopped.  Each component's node sum is reduced along its own
    contiguous row, so its bits do not depend on the other components.
    """

    def node_sums(theta: np.ndarray) -> np.ndarray:
        # sums of f(z) dz/dtheta at the angles theta, one per component, from one call of f
        w = path.radius * np.exp(1j * theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.asarray(f(path.center + w))
            values = values * _per_piece(1j * w, values)
        if not np.isfinite(values).all():
            raise QuadratureError(f"integrand not finite at a node of {path}")
        rows = np.ascontiguousarray(values.reshape(theta.size, -1).T)
        return rows.sum(axis=-1).reshape(values.shape[1:])

    n = TRAPEZOID_START
    total = node_sums(2.0 * math.pi / n * np.arange(n))
    estimate = 2.0 * math.pi / n * total
    result, live = estimate, np.ones(estimate.shape, dtype=bool)
    while n < TRAPEZOID_MAX_NODES:
        # the n new nodes of the doubled rule are the midpoints of the old ones
        total = total + node_sums(2.0 * math.pi / n * (np.arange(n) + 0.5))
        n *= 2
        previous, estimate = estimate, 2.0 * math.pi / n * total
        stops = live & _close(estimate, previous, QUAD_TOL)
        result, live = np.where(stops, estimate, result), live & ~stops
        if not live.any():
            return complex(result) if result.ndim == 0 else result
    raise QuadratureError(f"no convergence after {n} nodes on {path}")


def path_integral(f, path) -> complex:
    """Integral of f along a polyline or circle, to absolute tolerance QUAD_TOL.

    On a circle f is called on ndarrays of nodes: the trapezoidal rule
    needs up to TRAPEZOID_MAX_NODES of them, too many for a Python loop.
    On a polyline f is called one node at a time, so a scalar-only
    function (``cmath.exp``, a recorder of the points it is called at) can
    be integrated along the paths of :func:`antiderivative_at`; all the
    segments go to :func:`adaptive_gauss_legendre` as one batch, each with
    tolerance QUAD_TOL divided by the number of segments, and their
    integrals are added in path order.  Trailing component axes of f's
    values carry over to the integral; a scalar f gives a ``complex``.
    """
    if isinstance(path, CirclePath):
        return _circle_integral(f, path)

    def at_nodes(z):
        return np.array([f(x) for x in z.tolist()])

    segments = path.segments()
    lo, hi = np.array([s for s in segments if s[0] != s[1]], dtype=complex).reshape(-1, 2).T
    values = adaptive_gauss_legendre(at_nodes, lo, hi, QUAD_TOL / len(segments))
    total = sum(values, np.zeros(values.shape[1:], dtype=complex))
    return complex(total) if np.ndim(total) == 0 else total


def antiderivative_at(f, domain: DomainSpec, z0: complex, z: complex) -> complex:
    """F(z) = integral of f along the domain's bounded path from z0 to z.

    By construction |F(z)| <= M * (sup of |f| over the quadrature nodes),
    with M the domain's path budget.
    """
    z0, z = complex(z0), complex(z)
    if z0 == z:
        return 0j
    path, _ = domain.bounded_path(z0, z)
    return path_integral(f, path)


def starlike_antiderivative(f, z: complex) -> complex:
    """Radial antiderivative: the integral of f along the segment [0, z],
    for domains starlike about 0."""
    return path_integral(f, PolylinePath([0.0, z]))


def moment_integrand(f, centre: complex, n: int):
    """The integrand z -> ((z - centre)^k f(z) for k = 0..n-1), on a trailing axis.

    f is called once per array of nodes, so a circle rule takes all n
    moments from one node set; each component is the product a separate
    integrand ``(z - centre)**k * f(z)`` would give.
    """

    def powers(z):
        d, values = z - centre, f(z)
        return np.stack([d**k * values for k in range(n)], axis=-1)

    return powers


def moment_test(f, cycle, n: int) -> list[complex]:
    """Moments ``int z^i f(z) dz`` for i = 0..n-1 over a closed cycle.

    All moments below tolerance is the criterion for f to admit a
    single-valued antiderivative of order n near the cycle.  All n moments
    come from one integral of :func:`moment_integrand`: on a
    :class:`CirclePath` f is called on arrays of points, once per doubling
    of the trapezoidal rule; on a closed polyline, one point at a time,
    once per node.

    The rule converges like rho^-N, where rho is the ratio of the circle's
    radius to the nearest singular modulus, so a singularity close to the
    circle costs up to TRAPEZOID_MAX_NODES nodes or raises QuadratureError.
    For a rational f, ``construct.moment_circle`` first moves the circle
    within the pole-free annulus about it, as far as the n moments'
    rounding allows, unless a cluster of roots may lie on both sides (the
    CLI's ``moments`` does this).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not cycle.is_closed:
        raise ValueError("moment test needs a closed cycle")
    # a cycle of one repeated point integrates to a scalar 0 in every moment
    return np.broadcast_to(path_integral(moment_integrand(f, 0j, n), cycle), (n,)).tolist()
