"""Numerical reproduction of the unbounded-antiderivative counterexample.

The engine is the bounded analytic function ``exp((z+1)/(z-1))`` on the
half-plane Re z <= 1: on every circle through 1 orthogonal to the real
axis, Re((z+1)/(z-1)) is constant, so the modulus of the exponential is
constant there too (on the unit circle it equals 1).  The pinch map

    (z - 1) * exp((z+1)/(z-1)),   with value 0 at z = 1,

flattens the boundary point 1, and pulling the antiderivative back to the
unit circle produces the boundary integrand

    h(t) = e^{it} ((e^{it}-3)/(e^{it}-1)) / log(1 - e^{it}),  0 < t < pi,

whose modulus behaves like 2/(t |ln t|) as t -> 0+ while arg h(t)
converges.  Consequently |int_eps^t0 h dt| grows without bound, at the
rate of ln ln(1/eps); :func:`divergence_experiment` measures exactly that.

Numerical safeguards: e^{it} - 1 is formed as 2i sin(t/2) e^{it/2} (no
cancellation), the integrals substitute t = e^{-s} so the integrand is
tame near 0, and 1 - e^{it} is asserted to stay in the right half-plane
(principal log branch unambiguous; violating that raises).  The
integrals run through :func:`padelab.domains.adaptive_gauss_legendre`,
which raises QuadratureError when a piece does not converge.

:func:`boundary_integrand` takes a float or an array of t.  One batched run
of the engine integrates every eps piece and the half-mass window together,
so each bisection level calls h once, on the nodes of all unresolved
pieces; the pair (h t, |h| t) is integrated at once, so h is evaluated once
per node.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .domains import adaptive_gauss_legendre
from .errors import PreconditionError, SingularPointError

# t0 values are restricted to (0, pi/2); partial integrals use eps < t0.

DIVERGENCE_TOL = 1e-11  # absolute tolerance of every partial integral


def singular_inner(z: complex) -> complex:
    """exp((z+1)/(z-1)); bounded by 1 on Re z <= 1, singular only at 1."""
    z = complex(z)
    if z == 1:
        raise SingularPointError("essential singularity at z = 1")
    return cmath.exp((z + 1) / (z - 1))


def pinch_map(z: complex) -> complex:
    """(z-1) exp((z+1)/(z-1)) on Re z <= 1, extended by 0 at z = 1."""
    z = complex(z)
    if z.real > 1 + 1e-12:
        raise PreconditionError(f"pinch map restricted to Re z <= 1, got {z}")
    if z == 1:
        return 0j
    return (z - 1) * singular_inner(z)


def pinch_map_derivative(z: complex) -> complex:
    """exp((z+1)/(z-1)) (z-3)/(z-1); non-zero on Re z <= 1 away from 1."""
    z = complex(z)
    if z.real > 1 + 1e-12:
        raise PreconditionError(f"pinch map restricted to Re z <= 1, got {z}")
    if z == 1:
        raise SingularPointError("derivative undefined at z = 1")
    return singular_inner(z) * (z - 3) / (z - 1)


@dataclass(frozen=True)
class OrthocircleInvariants:
    """Measured invariants on a circle through 1 orthogonal to the real axis."""

    re_variation: float
    modulus_variation: float
    re_constant: float


def orthocircle_invariants(r: float, sample_count: int) -> OrthocircleInvariants:
    """Constancy of Re((z+1)/(z-1)) and |exp((z+1)/(z-1))| on an orthocircle.

    The circle has center 1 - r and radius r > 0 (it passes through 1 and
    meets the real axis at right angles).  Sample points avoid z = 1 and
    are formed through the cancellation-free identity
    z - 1 = r (e^{i theta} - 1) = 2 i r sin(theta/2) e^{i theta/2}.
    """
    if r <= 0:
        raise PreconditionError("radius must be positive")
    if sample_count < 1:
        raise PreconditionError("need at least one sample")
    n = sample_count
    res, mods = np.empty(n), np.empty(n)
    for j in range(n):
        theta = 2.0 * math.pi * (j + 1) / (n + 1)
        w = 2j * r * math.sin(theta / 2.0) * cmath.exp(1j * theta / 2.0)  # z - 1
        ratio = (2.0 + w) / w  # (z+1)/(z-1)
        res[j] = ratio.real
        mods[j] = abs(cmath.exp(ratio)) if abs(ratio.real) < 700 else math.exp(ratio.real)
    return OrthocircleInvariants(
        float(res.max() - res.min()),
        float(mods.max() - mods.min()),
        float(res.mean()),
    )


def boundary_integrand(t):
    """h(t) = e^{it} ((e^{it}-3)/(e^{it}-1)) / log(1-e^{it}) for 0 < t < pi.

    t is a float or an array; a float gives a ``complex``, an array gives
    an array of the same shape, equal to the float calls bit for bit.
    e^{it}-1 is formed through the half-angle identity, so it keeps its
    relative accuracy as t -> 0.  Below t ~ 2.2e-162 the real part of
    1 - e^{it}, 2 sin^2(t/2) > 0, rounds to -0.0, which the log treats as +0.0.
    A t where sin(t/2) underflows to 0 or h overflows raises PreconditionError.
    """
    shape = np.shape(t)
    # 1-D even for a float: NumPy's scalar arithmetic rounds some complex
    # products differently from its array loops
    t = np.asarray(t, dtype=float).reshape(-1)
    inside = (0.0 < t) & (t < math.pi)
    if not inside.all():
        raise PreconditionError(f"boundary integrand defined for 0 < t < pi, got {t[~inside]}")
    eit = np.exp(1j * t)
    em1 = 2j * np.sin(t / 2.0) * np.exp(1j * t / 2.0)  # e^{it} - 1
    one_minus = -em1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = (eit - 3.0) / em1
        # both factors named: NumPy reuses a large temporary in place and may
        # swap the factors of a product, which can round differently
        h = eit * ratio / np.log(one_minus)
    finite = np.isfinite(h)
    if not finite.all():
        raise PreconditionError(f"boundary integrand is not finite in double precision at t = {t[~finite]}")
    return complex(h[0]) if shape == () else h.reshape(shape)


def boundary_arg(t: float) -> float:
    """arg h(t), in (-pi, pi]."""
    return cmath.phase(boundary_integrand(t))


def _boundary_args(t: np.ndarray) -> list[float]:
    """arg h at every t of a 1-D array from one call of h; each equals boundary_arg."""
    return [cmath.phase(h) for h in boundary_integrand(t).tolist()]


def arg_cauchy_gaps(k_max: int, k_min: int = 1) -> list[tuple[int, float]]:
    """Successive gaps |arg h(2^-(k+1)) - arg h(2^-k)| for k = k_min..k_max."""
    args = _boundary_args(2.0 ** -np.arange(k_min, k_max + 2))
    return [(k, abs(nxt - prev)) for k, prev, nxt in zip(range(k_min, k_max + 1), args, args[1:])]


@dataclass(frozen=True)
class DivergenceRow:
    eps: float
    I: float          # |int_eps^t0 h dt|
    J: float          # int_eps^t0 |h| dt
    comparator: float  # 2 (ln ln(1/eps) - ln ln(1/t0))
    arg_h: float      # arg h(eps)


@dataclass(frozen=True)
class DivergenceReport:
    t0: float
    rows: tuple[DivergenceRow, ...]
    half_mass_window: tuple[float, float]
    half_mass_I: float
    half_mass_J: float

    def __post_init__(self):
        eps = [row.eps for row in self.rows]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps must be strictly decreasing across rows")
        js = [row.J for row in self.rows]
        if any(b < a - 1e-12 for a, b in zip(js, js[1:])):
            raise ValueError("J must be non-decreasing as eps decreases")

    @property
    def half_mass_holds(self) -> bool:
        return self.half_mass_I >= 0.5 * self.half_mass_J - 1e-9

    def to_rows(self) -> list[dict]:
        return [
            {"eps": r.eps, "I": r.I, "J": r.J, "comparator": r.comparator, "arg_h": r.arg_h}
            for r in self.rows
        ]


def _log_substituted_pairs(s_lo, s_hi) -> np.ndarray:
    """(int h dt, int |h| dt) over t = e^{-s}, s in [s_lo[k], s_hi[k]], to DIVERGENCE_TOL.

    One batched adaptive Gauss-Legendre run integrates the pair
    (h(t) t, |h(t)| t) in s over every interval, so h is evaluated once per
    node and once per level of the engine; row k of the result is the pair
    of interval k.
    """

    def pair(s: np.ndarray) -> np.ndarray:
        t = np.exp(-s)
        h = boundary_integrand(t)
        return np.array([h * t, np.abs(h) * t]).T  # components on the last axis

    return adaptive_gauss_legendre(pair, s_lo, s_hi, DIVERGENCE_TOL)


def comparator_value(eps: float, t0: float) -> float:
    """2 (ln ln(1/eps) - ln ln(1/t0)); the growth rate of int 1/(t ln(1/t))."""
    return 2.0 * (math.log(math.log(1.0 / eps)) - math.log(math.log(1.0 / t0)))


def divergence_experiment(eps_list, t0: float = 0.5) -> DivergenceReport:
    """Partial integrals of the boundary integrand down to each eps.

    For each eps in the (strictly decreasing) list, computes
    I = |int_eps^t0 h dt| and J = int_eps^t0 |h| dt with the t = e^{-s}
    substitution (QuadratureError if a piece misses DIVERGENCE_TOL), the
    pieces summed in order from t0 down, together with the comparator
    2 (ln ln(1/eps) - ln ln(1/t0)) and arg h(eps).  Also measures the
    half-mass window: on [eps_min, t1] where the sampled arg variation of
    h stays below pi/3, it reports |int h| and int |h| (the former must
    be at least half the latter for an arg-coherent integrand).
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise PreconditionError("need at least one eps")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise PreconditionError("eps values must be strictly decreasing")
    if not 0.0 < eps_list[0] < t0 < math.pi / 2.0:
        raise PreconditionError("need 0 < eps < t0 < pi/2")
    if t0 >= 1.0:
        raise PreconditionError("comparator column needs t0 < 1")

    # the pieces between t0 > eps_1 > eps_2 > ... and the half-mass window, in one engine run
    window = _half_mass_window(eps_list[-1], t0)
    s_edges = [math.log(1.0 / t0)] + [math.log(1.0 / eps) for eps in eps_list]
    s_lo = s_edges[:-1] + [math.log(1.0 / window[1])]
    s_hi = s_edges[1:] + [math.log(1.0 / window[0])]
    pairs = _log_substituted_pairs(s_lo, s_hi)
    # cumsum adds left to right: row k is the sequential sum of pieces 0..k
    totals = np.cumsum(pairs[:-1], axis=0).tolist()
    i_win, j_win = pairs[-1].tolist()
    rows = tuple(
        DivergenceRow(eps=eps, I=abs(total_I), J=total_J.real, comparator=comparator_value(eps, t0), arg_h=arg_h)
        for eps, arg_h, (total_I, total_J) in zip(eps_list, _boundary_args(np.array(eps_list)), totals)
    )
    return DivergenceReport(t0, rows, window, abs(i_win), j_win.real)


def _half_mass_window(eps: float, t0: float) -> tuple[float, float]:
    """Largest [eps, t1] (t1 <= t0) whose sampled arg variation is < pi/3."""
    count = 400
    ss = np.linspace(math.log(1.0 / t0), math.log(1.0 / eps), count)[::-1]  # from eps upwards
    args = _boundary_args(np.exp(-ss))
    wide = np.maximum.accumulate(args) - np.minimum.accumulate(args) >= math.pi / 3.0
    kept = int(wide.argmax()) if wide.any() else count  # the first sample is always kept
    return (eps, math.exp(-ss[kept - 1]))
