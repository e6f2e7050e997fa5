"""Constructive approximation steps behind the density machinery.

This module turns existence arguments into checkable computations:

* :func:`two_set_poly_fit` -- a verified least-squares stand-in for the
  classical existence of a polynomial close to prescribed values on one
  compact set and prescribed derivative values on another, in one
  orthonormal Arnoldi basis on those rows.  Success is gated by refined
  samples; infeasibility is reported with the best residual.
* :func:`universality_certificate` -- certifies a rational function at its
  own type, where it is its own Pade approximant at every regular center:
  normality at every center from one coprimality test and the resultant
  identity for the Hankel values, no approximant built.  The common-zero
  margins and the chordal sup against a target are measured once, on the
  function itself, and aggregated into the two membership flags.
  :func:`universality_pipeline` certifies a fit plus the target's singular
  part once, at its own type, which the coefficient trim fixes.
* :func:`principal_parts` / :func:`residue_correction` -- pole-local
  corrections: the first extracts the singular part of a rational function
  inside a region, the second removes the Laurent coefficients of orders
  -1..-n at listed poles so the remainder admits an order-n single-valued
  antiderivative.  Both build one rational over a known denominator.
* :func:`antiderivative_cascade` -- repeated anchored antiderivatives
  lifting an approximation of the n-th derivative to an approximation of
  the function with geometrically tightening error levels.
* :func:`volterra_apply` -- the coefficient form of f -> antiderivative
  of f g' vanishing at 0.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .domains import CirclePath, checked_disc, moment_integrand, path_integral
from .errors import (
    CertificateRejectedError,
    FitFailureError,
    InvalidSampleError,
    PoleNotInListError,
    PoleOnBoundaryError,
    PreconditionError,
    VerificationError,
)
from .samples import CompactSample
from .series import (
    Polynomial,
    PowerSeries,
    RationalFunction,
    _factor_order,
    _horner,
    _quotient,
    _recentered_off_pole,
    _rounding_bound,
    _synthetic_division,
    _taylor_moduli,
    array_quotient,
    denominator_poles,
    derivative_values,
    modulus,
    taylor_of_rational,
    values_on,
)
from .sphere import chordal_array

# Distance below which a pole lies on a boundary, or two poles coincide.
POLE_MERGE_TOL = 1e-8
# Residual of contour-moment verification, relative to coefficient scale.
MOMENT_VERIFY_TOL = 1e-9
# Largest factor by which moment_circle may raise the scale of a moment's node
# sum: the rule's absolute tolerance QUAD_TOL leaves about 1e4 over roundoff.
MOMENT_SCALE_GROWTH = 4.0


# --- two-set polynomial fitting ------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    degree: int
    residual: float
    verified_residual: float


def _confluent_arnoldi(z: np.ndarray, orders: np.ndarray, stride: int, count: int):
    """Orthonormal columns on constraint rows, each with its polynomial in powers of z.

    Row i holds a derivative of order ``orders[i]`` at ``z[i]``; a row of
    order l >= 1 sits ``stride`` rows below its point's row of order l - 1,
    and multiplying by z maps a polynomial's rows by (z p)^(l) = z p^(l) +
    l p^(l-1).  Arnoldi on that map starts from the constant polynomial and
    orthogonalizes by classical Gram-Schmidt run twice, in ``np.einsum``
    sums: OpenBLAS threading doubled the fit's CPU time on 2 vCPUs and made
    its bits depend on the thread count.  Yields up to ``count`` pairs (q_k,
    q_k's coefficients by the same recurrence), and stops where h_(k+1,k)
    is rounding against its column of h: the rows hold no new direction.
    """
    derived = np.flatnonzero(orders)
    q = np.zeros((count, len(z)), dtype=complex)
    basis = np.zeros((count, count), dtype=complex)
    start = math.sqrt(np.count_nonzero(orders == 0))
    q[0, orders == 0], basis[0, 0] = 1.0 / start, 1.0 / start
    for k in range(count):
        if k:
            v = z * q[k - 1]
            v[derived] += orders[derived] * q[k - 1, derived - stride]
            h = np.zeros(k, dtype=complex)
            for _ in range(2):
                step = np.einsum("ji,i->j", q[:k].conj(), v)
                v -= np.einsum("j,ji->i", step, q[:k])
                h += step
            height = np.linalg.norm(v)
            if height <= len(z) * sys.float_info.epsilon * math.hypot(height, np.linalg.norm(h)):
                return
            q[k] = v / height
            basis[k, 1:] = basis[k - 1, :-1]
            basis[k] = (basis[k] - np.einsum("j,ji->i", h, basis[:k])) / height
        yield q[k], basis[k]


def two_set_poly_fit(
    k_sample: CompactSample | None,
    k_target,
    l_sample: CompactSample | None,
    l_targets,
    max_degree: int,
    tol: float,
) -> tuple[Polynomial, FitReport]:
    """Least-squares polynomial matching values on K and derivatives on L.

    ``k_target`` gives values on ``k_sample`` (array or callable);
    ``l_targets`` is a list over derivative orders 0..N of arrays or
    callables on ``l_sample``.  A callable is called once on the whole
    array of sample points (see :func:`padelab.series.values_on`).  The
    search runs degree 0, 1, ... up to max_degree or to the highest degree
    the constraint rows determine, if lower, and accepts the first whose max
    residual over all constraints is <= tol; when the samples carry
    refinement generators and the targets are callables, acceptance is
    re-verified on 4x refined samples.  Those rows (points, derivative
    order, target values) are built once per fit, at the first degree that
    reaches them (:func:`_refined_rows`): each sample is refined once and
    each callable evaluated once on its refined points, however many degrees
    are then checked, and every value is bit for bit what evaluating again
    at each degree gave.  A fit that never reaches the check refines
    nothing.

    Returns (polynomial, report); raises FitFailureError with the best
    achieved residual when no degree within the cap verifies.

    The basis is Vandermonde with Arnoldi (Brubeck, Nakatsukasa & Trefethen,
    SIAM Review 63, 2021), confluent on the derivative rows: its columns are
    orthonormal on exactly the rows the problem weighs, so degree d adds one
    coefficient, q_d^H b, and one residual subtraction to degree d - 1's.
    Only a degree whose residual meets tol becomes a Polynomial, judged by
    its own residual on the rows and the refined samples.  Targets needing
    frequencies far beyond the cap (a pole very close to one sample set)
    report the honest least-squares optimum and fail.
    """
    if k_sample is None and (l_sample is None or not l_targets):
        raise PreconditionError("at least one constraint set is required")
    if max_degree < 0:
        raise PreconditionError(f"max_degree must be non-negative, got {max_degree}")
    if not tol >= 0.0:
        raise PreconditionError(f"tol must be non-negative, got {tol}")
    k_points = k_sample.points if k_sample is not None else np.zeros(0, dtype=complex)
    l_points = l_sample.points if l_sample is not None else np.zeros(0, dtype=complex)

    l_orders = list(l_targets) if l_sample is not None else []
    # (points, derivative order, target values) of each block of rows
    blocks = [(k_points, 0, values_on(k_target, k_points))] if k_sample is not None else []
    blocks += [(l_points, order, values_on(target, l_points)) for order, target in enumerate(l_orders)]
    z = np.concatenate([points for points, _, _ in blocks])
    orders = np.concatenate([np.full(len(points), order) for points, order, _ in blocks])
    residual = np.concatenate([values for _, _, values in blocks])  # b, the residual of no basis column
    cap = min(max_degree, len(z) - 1)
    fitted = np.zeros(cap + 1, dtype=complex)
    best_res, best_deg = math.inf, -1
    refined = None  # the refined rows, built at the first degree that reaches them
    for degree, (column, polynomial) in enumerate(_confluent_arnoldi(z, orders, len(l_points), cap + 1)):
        coefficient = np.einsum("i,i->", column.conj(), residual)
        residual -= coefficient * column
        fitted += coefficient * polynomial
        res = float(np.max(modulus(residual)))
        if res <= tol:
            poly = Polynomial(fitted)
            res = max(_max_error(poly.derivative(order), points, values) for points, order, values in blocks)
            if res <= tol:
                if refined is None:
                    refined = _refined_rows(k_sample, k_target, l_sample, l_orders)
                verified = _verify_on_refined(poly, refined, res)
                if verified <= tol:
                    return poly, FitReport(degree, res, verified)
                res = verified
        if res < best_res:
            best_res, best_deg = res, degree
    limit = f"{cap}" if cap == max_degree else f"{cap} (the most that {cap + 1} constraint rows determine)"
    raise FitFailureError(
        f"no polynomial of degree <= {limit} meets tol {tol:g}; "
        f"best residual {best_res:.6g} at degree {best_deg}",
        best_residual=best_res,
        best_degree=best_deg,
    )


def _max_error(f, points: np.ndarray, values: np.ndarray) -> float:
    """max |f(z) - value| over the points."""
    return np.max(modulus(f(points) - values))


def _refined_rows(k_sample, k_target, l_sample, l_orders) -> list[tuple[np.ndarray, int, np.ndarray]]:
    """(points, derivative order, target values) of the rows on 4x refined
    samples, where generators and callables allow: each sample refined once,
    each target evaluated once on its refined points."""
    rows = []
    if k_sample is not None and callable(k_target) and k_sample.refine is not None:
        fine = k_sample.refined(4).points
        rows.append((fine, 0, values_on(k_target, fine)))
    if l_sample is not None and l_sample.refine is not None and all(callable(t) for t in l_orders):
        fine = l_sample.refined(4).points
        rows += [(fine, order, values_on(target, fine)) for order, target in enumerate(l_orders)]
    return rows


def _verify_on_refined(poly, refined, fallback: float) -> float:
    """Max residual of a candidate on the refined rows of :func:`_refined_rows`,
    and at least ``fallback``."""
    worst = fallback
    for points, order, values in refined:
        worst = max(worst, _max_error(poly.derivative(order), points, values))
    return worst


# --- universality certificate ----------------------------------------------------


@dataclass(frozen=True)
class CenterRecord:
    center: complex
    hankel: complex


@dataclass(frozen=True)
class UniversalityCertificate:
    """Measured quantities behind the two approximation-set memberships.

    ``e_set_member`` requires: normality at every sampled center, a K
    sample clear of a common zero of the pair, and chordal sup against the
    target below 1/s.  ``t_set_member`` requires: normality and a clear
    derivative sample; the derivative errors are 0, since the approximant
    at every center is the function itself.  A margin is 0.0 where its
    sample is not clear.
    """

    p: int
    q: int
    s: int
    sup_chordal_on_k: float
    margin_on_k: float
    margin_on_delta: float
    all_normal: bool
    e_set_member: bool
    t_set_member: bool
    records: tuple[CenterRecord, ...]

    @property
    def hankel_values(self) -> tuple[complex, ...]:
        return tuple(r.hankel for r in self.records)

    def to_data(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "s": self.s,
            "sup_chordal_on_K": self.sup_chordal_on_k,
            "margin_on_K": self.margin_on_k,
            "margin_on_Delta": self.margin_on_delta,
            "hankel_values_over_L": [[h.real, h.imag] for h in self.hankel_values],
            "e_set_member": self.e_set_member,
            "t_set_member": self.t_set_member,
        }


def _check_s(s: int):
    if s < 1:
        raise PreconditionError(f"s must be at least 1, got {s}")


def _resultant_over_clusters(f: RationalFunction) -> tuple[bool, complex]:
    """Whether N is certified to have no root on any cluster disc of D, and the
    product of N(c)^m over the clusters (c, m, r) of :func:`denominator_poles`.

    Pellet's theorem with no root counted: N has no root in |z - c| <= r when
    |N_0| > sum_(j >= 1) |N_j| r^j, N_j the Taylor coefficients of N at c, each
    |N_j| at its rounding bound on the unfavourable side
    (``series._taylor_moduli``, which the disc radii of the clusters use).
    The discs hold every root of D, so where the test passes at every cluster
    N and D are coprime.  Both sides are terms of one degree in z, so rescaling
    z does not move the verdict.  The product stands for prod_j N(beta_j)
    over the roots of D; it is exact for simple and for true multiple roots.
    """
    coprime, values, counts = True, [], []
    for centre, count, radius in denominator_poles(f):
        taylor, lower, upper = _taylor_moduli(f.numerator, centre)
        try:  # a float power past the largest double raises OverflowError
            rest = sum(u * radius**j for j, u in enumerate(upper.tolist()[1:], start=1))
        except OverflowError:
            rest = math.inf
        coprime = coprime and bool(lower[0] > rest)
        values.append(taylor[0])
        counts.append(count)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return coprime, complex(np.prod(np.array(values, dtype=complex) ** np.array(counts)))


def _pair_values(f: RationalFunction, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N and D of f at the points, overflow to inf or NaN without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return f.numerator(points), f.denominator(points)


def _clearance(f: RationalFunction, points: np.ndarray, values: tuple[np.ndarray, np.ndarray]) -> float:
    """The least over the points of the larger of |N(z)| and |D(z)|, each in
    units of the bound on its rounding (``series._rounding_bound`` of the
    moduli sum sum_j |c_j| |z - centre|^j); 0.0 unless above 1, that is unless
    N or D is certified non-zero at every point, so that f(z) is decided.
    ``values`` are N and D at the points (:func:`_pair_values`).
    Both sides are terms of one degree in z, so rescaling z keeps the bits."""
    w = modulus(points - f.center)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        units = [
            modulus(value) / _rounding_bound(len(p.coefficients), _horner(np.abs(p.coefficients), 0.0, w).real)
            for p, value in zip((f.numerator, f.denominator), values)
        ]
        least = float(np.min(np.fmax(*units)))
    return least if least > 1.0 else 0.0


def universality_certificate(
    f: RationalFunction,
    centers: CompactSample,
    k_sample: CompactSample,
    delta_sample: CompactSample,
    target,
    s: int,
) -> UniversalityCertificate:
    """Certificate for membership in the two approximation sets, at f's own type.

    f = N/D is a RationalFunction, so D is monic; it is certified at type
    (m, n), m = deg N (0 for N = 0) and n = deg D.  ``target`` is evaluated
    once on the array of K points (see :func:`padelab.series.values_on`) and
    compared through the chordal metric.

    With beta_j the roots of D, the Taylor coefficients a_k of f at a centre
    zeta where D(zeta) != 0 give the (m, n) Hankel value of
    :func:`padelab.pade.hankel_determinant`

        H(zeta) = (-1)^(n(n-1)/2 + mn) prod_j N(beta_j) / D(zeta)^(m+n),

    the determinant form of Kronecker's theorem (Baker & Graves-Morris, *Pade
    Approximants*, 2nd ed., CUP 1996).  For simple roots, with u_j = 1 /
    (beta_j - zeta) and residues r_j = N(beta_j) / D'(beta_j), a_k = -sum_j
    r_j u_j^(k+1) at every index k >= m - n + 1 of the Hankel window: the
    polynomial part of f reaches only k <= m - n, and at a negative index,
    when m < n - 1, the sum is a sum of residues of N(z) (z - zeta)^i / D(z)
    with m + i <= n - 2, which is 0 like the window's entry.  So H = det(V^T
    diag(-r_j u_j^(m-n+2)) V) with V_jk = u_j^(k-1), that is (-1)^n prod_j
    r_j u_j^(m-n+2) times det(V)^2 = disc(D) prod_j u_j^(2n-2).  As prod_j
    D'(beta_j) = (-1)^(n(n-1)/2) disc(D) and prod_j u_j = (-1)^n / D(zeta),
    the sign is (-1)^(n + n(n-1)/2 + n(m+n)), and n + n(m+n) = mn + n(n+1)
    has the parity of mn.  Both sides are continuous in the roots, so
    multiple roots follow.

    So where N and D are coprime, H(zeta) != 0 at every such centre: f is
    normal there, and by the uniqueness of the Pade approximant it is its own
    (m, n) approximant.  Coprimality is decided once, by the Pellet test of N
    on each cluster disc of D (:func:`_resultant_over_clusters`); where it
    fails, no center counts as normal.  Each record carries H(zeta) from
    the identity, with prod_j N(beta_j) taken as prod N(c)^m over the
    clusters; in double it may overflow or underflow, and no verdict reads
    it.  A center where D nearly vanishes raises PoleAtCenterError, as the
    Taylor expansion there does.

    Since every approximant is f, the chordal sup on K is f's own, evaluated
    once, and the derivative errors on the derivative sample are 0.  The
    margins (:func:`_clearance`) are measured once, on f's pair; where the K
    margin is not clear the sup is recorded as ``inf``, so the certificate
    rejects instead of raising.  N and D are evaluated once on each sample:
    on K their values serve both the margin and the quotient, which
    ``series._quotient`` forms with the overflow rule of
    :func:`padelab.series.array_quotient` (NonFiniteValueError), bit for bit
    the values of evaluating f there again.
    """
    _check_s(s)
    if min(len(centers), len(k_sample), len(delta_sample)) == 0:
        raise InvalidSampleError("empty sample")
    p, q = max(f.numerator.degree, 0), f.denominator.degree
    coprime, resultant = _resultant_over_clusters(f)
    at_centers = np.array([
        _recentered_off_pole(f.denominator, complex(zeta)).coefficients[0] for zeta in centers.points
    ])
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        hankel = (-1) ** (q * (q - 1) // 2 + p * q) * resultant / at_centers ** (p + q)

    k_points, delta_points = k_sample.points, delta_sample.points
    on_k = _pair_values(f, k_points)
    margin_k, margin_delta = _clearance(f, k_points, on_k), _clearance(f, delta_points, _pair_values(f, delta_points))
    sup_chordal_k = math.inf
    if margin_k > 0:
        sup_chordal_k = float(np.max(chordal_array(_quotient(*on_k, k_points), values_on(target, k_points))))
    threshold = 1.0 / s
    return UniversalityCertificate(
        p=p,
        q=q,
        s=s,
        sup_chordal_on_k=sup_chordal_k,
        margin_on_k=margin_k,
        margin_on_delta=margin_delta,
        all_normal=coprime,
        e_set_member=bool(coprime and margin_k > 0 and sup_chordal_k < threshold),
        t_set_member=bool(coprime and margin_delta > 0),
        records=tuple(CenterRecord(complex(z), complex(h)) for z, h in zip(centers.points, hankel)),
    )


@dataclass(frozen=True)
class PipelineResult:
    function: RationalFunction
    fitted: Polynomial
    singular_part: RationalFunction
    certificate: UniversalityCertificate
    fit_report: FitReport


def universality_pipeline(
    target: RationalFunction,
    smooth_target: Polynomial,
    k_sample: CompactSample,
    centers: CompactSample,
    delta_sample: CompactSample,
    k_region_center: complex,
    k_region_radius: float,
    s: int,
    max_degree: int = 40,
    tol: float = 0.05,
) -> PipelineResult:
    """Construct a function certified to lie in both approximation sets.

    Splits off the target's singular part mu = N/D inside the K region,
    fits a polynomial p to (target - mu) on K jointly with (smooth target -
    mu) and its derivative on the center grid, and certifies
    (N + p D)/D once, at its own type (numerator degree, denominator
    degree); a rejection raises CertificateRejectedError.  D is monic and coprime
    to N by construction (:func:`principal_parts`), and so to N + p D: the
    sum is formed over D and is not normalized.  mu' on the grid comes from
    :func:`padelab.series.derivative_values`.

    The fit is certified without the paper's exact-degree perturbation:
    the coefficient trim (``series.TRIM_RTOL``) already fixes its type (the
    README gives the measurement).

    ``smooth_target`` is a Polynomial.  ``s`` is checked as the certificate
    checks it, before the fit.
    """
    _check_s(s)
    mu = principal_parts(target, (k_region_center, k_region_radius))
    smooth_prime = smooth_target.derivative()

    def k_target(z):
        return target(z) - mu(z)

    def l_value(z):
        return smooth_target(z) - mu(z)

    def l_derivative(z):
        return smooth_prime(z) - derivative_values(mu.numerator, mu.denominator, z, 1)[1]

    fitted, report = two_set_poly_fit(
        k_sample, k_target, centers, [l_value, l_derivative], max_degree, tol
    )

    function = RationalFunction(mu.numerator + fitted * mu.denominator, mu.denominator, _normalized=True)
    certificate = universality_certificate(function, centers, k_sample, delta_sample, target, s)
    if not (certificate.e_set_member and certificate.t_set_member):
        raise CertificateRejectedError(
            "the certificate rejected the fit; "
            f"e_set={certificate.e_set_member} t_set={certificate.t_set_member}"
        )
    return PipelineResult(function, fitted, mu, certificate, report)


# --- principal parts and residue correction --------------------------------------


def laurent_coefficients(rational: RationalFunction, pole: complex, multiplicity: int, n: int) -> list[complex]:
    """Laurent coefficients of (z - pole)^-j for j = 1..n at a pole.

    Writes the denominator as (z - pole)^multiplicity * Q with Q(pole) != 0
    and Taylor-expands numerator/Q at the pole; coefficient j is the
    Taylor coefficient of index multiplicity - j (zero when j exceeds the
    pole order).  Q is the denominator recentered at the pole without its
    first ``multiplicity`` coefficients, which vanish there up to roundoff.
    """
    num = rational.numerator.recentered(pole)
    q_poly = Polynomial(rational.denominator.recentered(pole).coefficients[multiplicity:], pole)
    head = taylor_of_rational(
        RationalFunction(num, q_poly, _normalized=True), pole, max(multiplicity - 1, 0)
    )
    out = []
    for j in range(1, n + 1):
        idx = multiplicity - j
        out.append(head.coefficient(idx) if 0 <= idx <= head.truncation_order else 0j)
    return out


def _winding_inside(sample: CompactSample, point: complex) -> bool:
    """Winding number of the sample (taken as a closed polygon) around a point."""
    pts = sample.points
    return abs(np.sum(np.angle((np.roll(pts, -1) - point) / (pts - point)))) > math.pi


def _minus_parts(numerator: np.ndarray, den: Polynomial, parts) -> RationalFunction:
    """numerator / B - sum c_j / (z - a)^j over parts (a, [c_1..c_k], full),
    as one rational over B with (z - a)^k divided out where full, under the
    remainder rules (a) and (b) of :func:`residue_correction`."""
    b, out, size = den.coefficients, numerator, float(np.abs(numerator).max())
    for a, coeffs, _ in parts:
        w, k = complex(a) - den.center, len(coeffs)
        j, quotient, remainders = _factor_order(b, w, k)
        if j < k:
            raise VerificationError(f"pole {a!r}: (z - a)^{j + 1} does not divide the denominator, remainder {complex(remainders[j])!r}")
        # B/(z - a)^j = quotient (z - a)^(k-j); c_1 (z - a)^(k-1) + ... + c_k shifted to powers of (z - centre)
        part = np.convolve(quotient, _synthetic_division(np.array(coeffs[::-1], dtype=complex), -w, k)[1])
        out = np.polynomial.polynomial.polysub(out, part)
        size = max(size, float(np.abs(part).max()))
    for a, coeffs in (part[:2] for part in parts if part[2]):
        w, m = complex(a) - den.center, len(coeffs)
        out, remainders = _synthetic_division(out, w, m)
        b = _synthetic_division(b, w, m)[0]
        q_at_a = abs(_synthetic_division(b, w, 1)[1][0])  # |B/(z - a)^m| at a
        for i, r in enumerate(remainders.tolist()):
            if abs(r) > MOMENT_VERIFY_TOL * size * q_at_a:
                raise VerificationError(f"pole {a!r}: the Laurent coefficient of order {i - m} is left at {r / q_at_a!r}")
    return RationalFunction(Polynomial(out, den.center), Polynomial(b, den.center), _normalized=True)


def principal_parts(rational: RationalFunction, region) -> RationalFunction:
    """Sum of principal parts at the poles inside a region.

    ``region`` is a (center, radius) disc description, with a finite
    centre and a positive finite radius (else PreconditionError), or a
    CompactSample of a closed curve (membership then decided by winding
    number).  Each cluster of :func:`denominator_poles` is a pole of order
    m, its count, at its centre a.  The result is one rational over prod (z - a)^m,
    monic and coprime by construction; a polynomial (no poles) maps to the
    zero rational.
    rational - result is formed as in :func:`residue_correction`, with each
    (z - a)^m divided out under its remainder rules (a) and (b), and its
    residue is then checked at each selected pole.
    """
    if isinstance(region, CompactSample):
        def inside(w):
            return _winding_inside(region, w)
        def boundary_distance(w):
            return float(np.min(np.abs(region.points - w)))
    else:
        center, radius = checked_disc(region[0], region[1], "region disc")
        def inside(w):
            return abs(w - center) < radius
        def boundary_distance(w):
            return abs(abs(w - center) - radius)

    poles = denominator_poles(rational)
    selected = []
    for pole, mult, _ in poles:
        dist = boundary_distance(pole)
        if dist < POLE_MERGE_TOL * max(1.0, abs(pole)):
            raise PoleOnBoundaryError(f"pole {pole} lies on the region boundary")
        if inside(pole):
            selected.append((pole, mult))

    parts = [(pole, laurent_coefficients(rational, pole, mult, mult)) for pole, mult in selected]
    rest = _minus_parts(rational.numerator.coefficients, rational.denominator, [(p, c, True) for p, c in parts])
    _verify_residues_vanish(rest, [p for p, _ in selected], 1, [p for p, _, _ in poles])
    # 0 - sum (-c_j) / (z - a)^j over prod (z - a)^m
    den = Polynomial(np.polynomial.polynomial.polyfromroots([p for p, m in selected for _ in range(m)]))
    return _minus_parts(np.zeros(1), den, [(p, [-c for c in coeffs], False) for p, coeffs in parts])


def moment_circle(rational: RationalFunction, circle: CirclePath, n: int) -> CirclePath:
    """A circle with the first n contour moments of ``circle``, at least a factor 2 from every pole where it can be.

    Let r_in be the largest pole distance from the centre below the radius
    r, and r_out the smallest above it.  Every circle about the same centre
    with radius in (r_in, r_out) encloses the same poles, so by Cauchy's
    theorem each moment of z^k times the rational is unchanged.  The
    trapezoidal rule on it converges like rho^-N, with rho the ratio to the
    nearest pole distance, so:

    * when every pole distance is at least a factor 2 from r, the circle is
      kept;
    * otherwise r is clamped into [2 r_in, r_out / 2], or taken as
      sqrt(r_in r_out) when that interval is empty;
    * a larger radius R is capped where max(1, |c| + R)^(n-1), the scale of
      the largest moment's node sum and so of its rounding, reaches
      MOMENT_SCALE_GROWTH times its value on the given circle.

    The poles are the centres of the clusters of :func:`denominator_poles`,
    whose disjoint discs hold all the denominator's roots.  The circle is
    kept when a disc meets the radii between r and the new one, since a
    cluster may hold roots on both sides of a radius.  A cluster located to
    within POLE_MERGE_TOL and lying within POLE_MERGE_TOL of the circle,
    where the moments are undefined, raises PoleOnBoundaryError.
    """
    clusters = denominator_poles(rational)
    r = circle.radius
    distances = [abs(pole - circle.center) for pole, _, _ in clusters]
    on_circle = [abs(d - r) < POLE_MERGE_TOL * max(1.0, abs(pole)) for (pole, _, _), d in zip(clusters, distances)]
    r_in = max((d for d in distances if d < r), default=0.0)
    r_out = min((d for d in distances if d > r), default=math.inf)
    if not any(on_circle) and 2.0 * r_in <= r and 2.0 * r <= r_out:
        return circle
    for (pole, _, spread), on in zip(clusters, on_circle):
        if on and spread < POLE_MERGE_TOL * max(1.0, abs(pole)):
            raise PoleOnBoundaryError(f"pole {pole} lies on the moment circle {circle}")
    if any(on_circle):
        return circle
    low, high = 2.0 * r_in, r_out / 2.0
    radius = min(max(r, low), high) if low <= high else math.sqrt(r_in * r_out)
    if radius > r and n > 1:
        offset = abs(circle.center)
        radius = min(radius, max(1.0, offset + r) * MOMENT_SCALE_GROWTH ** (1.0 / (n - 1)) - offset)
    lo, hi = min(r, radius), max(r, radius)
    if any(d - s <= hi and d + s >= lo for d, (_, _, s) in zip(distances, clusters)):
        return circle
    return CirclePath(circle.center, radius)


def _pole_check_radius(pole: complex, all_poles: list[complex]) -> float:
    others = [abs(pole - p) for p in all_poles if abs(pole - p) > POLE_MERGE_TOL]
    return 0.45 * min(others) if others else 0.25


def _verify_residues_vanish(rational: RationalFunction, poles: list[complex], n: int, neighbours: list[complex]):
    """Check that the moments (z - a)^(j-1), j = 1..n, of a rational vanish about each pole a.

    The denominator is evaluated in powers of (z - a): near a multiple pole
    that the rational keeps its terms then do not cancel, and the node
    values round relative to themselves.
    """
    scale = max(1.0, rational.numerator.coefficient_scale())
    for pole in poles:
        cycle = CirclePath(pole, _pole_check_radius(pole, neighbours))
        local = functools.partial(array_quotient, rational.numerator, rational.denominator.recentered(pole))
        # the moments (z - a)^(j-1) for j = 1..n from one node set, then the verdicts in j order
        moments = path_integral(moment_integrand(local, pole, n), cycle).tolist()
        for j, moment in enumerate(moments, start=1):
            if abs(moment) / (2.0 * math.pi) > MOMENT_VERIFY_TOL * scale:
                raise VerificationError(
                    f"moment {j - 1} at pole {pole} fails to vanish: {moment!r}"
                )


def residue_correction(
    rational: RationalFunction, poles: list[complex], n: int
) -> tuple[RationalFunction, dict[tuple[complex, int], complex]]:
    """Remove the order -1..-n Laurent terms of a rational at listed poles.

    Returns ``(corrected, table)`` where ``table[(pole, j)]`` is the
    removed coefficient of (z - pole)^-j and

        corrected = rational - sum table[(a, j)] / (z - a)^j .

    Every contour moment int (z - a)^{j-1} corrected dz (j = 1..n)
    vanishes around each listed pole, so corrected admits an order-n
    single-valued antiderivative near them.

    A cluster of :func:`denominator_poles` is a pole of order its count at
    its centre, and matches the listed points within 1e-6 max(1, |a|) of
    it: PoleNotInListError if none, VerificationError if several, or if a
    listed point matches two clusters.  A point that matches none gets
    zero coefficients.

    The numerator A - sum table[(a, j)] B/(z - a)^j is formed once over B,
    and (z - a)^m divided out of both where the order m is at most n.
    VerificationError: (a) a remainder of B by (z - a)^j above
    ``series.FACTOR_RTOL`` times |B|'s at |a| (``series._factor_order``);
    (b) a numerator remainder r there with |r / Q(a)|, Q = B/(z - a)^m, above
    MOMENT_VERIFY_TOL times the size of A and the parts before cancellation.
    The moments are then checked.
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    listed = [complex(a) for a in poles]
    owner: dict[complex, tuple[complex, int]] = {}
    for pole, mult, _ in denominator_poles(rational):
        names = [a for a in listed if abs(pole - a) < 1e-6 * max(1.0, abs(a))]
        if not names:
            raise PoleNotInListError(f"pole {pole} is not in the declared list")
        if len(names) > 1:
            raise VerificationError(f"the cluster at {pole!r} of multiplicity {mult} is matched by two listed poles, {names[0]!r} and {names[1]!r}")
        if names[0] in owner:
            raise VerificationError(f"the listed pole {names[0]!r} matches the clusters at {owner[names[0]][0]!r} and {pole!r}")
        owner[names[0]] = (pole, mult)

    table: dict[tuple[complex, int], complex] = {}
    parts = []
    for a in listed:
        pole, mult = owner.get(a, (a, 0))
        coeffs = laurent_coefficients(rational, pole, mult, n) if mult else [0j] * n
        table.update(((a, j), c) for j, c in enumerate(coeffs, start=1))
        if mult:
            parts.append((a, coeffs[:mult], n >= mult))
    corrected = _minus_parts(rational.numerator.coefficients, rational.denominator, parts)
    _verify_residues_vanish(corrected, listed, n, listed)
    return corrected, table


# --- antiderivative cascade and the coefficient Volterra operator ----------------


def antiderivative_cascade(
    derivative_values, top: Polynomial, z0: complex, n: int
) -> Polynomial:
    """Lift an approximation of the n-th derivative to the function level.

    ``derivative_values`` lists the target values f(z0), f'(z0), ...,
    f^{(n-1)}(z0); ``top`` approximates f^{(n)}.  Level by level,
    p_k = f^{(k)}(z0) + (antiderivative of p_{k+1} vanishing at z0),
    so the result p satisfies p^{(n)} = top and p^{(k)}(z0) matching the
    given values.  Each anchored antiderivative multiplies a sup error
    by at most the joining-path length of the working domain, which is
    what makes the level errors tighten geometrically.
    """
    values = [complex(v) for v in derivative_values]
    if n < 1 or len(values) != n:
        raise PreconditionError("need n >= 1 values f(z0)..f^(n-1)(z0)")
    z0 = complex(z0)
    current = top.recentered(z0)
    for k in range(n - 1, -1, -1):
        current = current.antiderivative() + values[k]
    return current


def volterra_apply(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Antiderivative of f g' vanishing at 0, in Taylor coefficients.

    Both series must be centered at 0.  With f = sum a_k z^k and
    g = sum g_k z^k the result c has c_0 = 0 and

        c_{m+1} = ( sum_{k=0}^{m} a_k (m-k+1) g_{m-k+1} ) / (m+1)

    for m up to the joint truncation; the map is linear in f and in g.
    The sums are one convolution of (a_k) with ((k+1) g_{k+1}).
    """
    if f.center != 0 or g.center != 0:
        raise PreconditionError("both series must be centered at 0")
    if f.truncation_order < 1 or g.truncation_order < 1:
        raise PreconditionError("need truncation orders >= 1")
    m_max = min(f.truncation_order, g.truncation_order - 1)
    g_prime = np.arange(1, m_max + 2) * g.coefficients[1 : m_max + 2]
    sums = np.convolve(f.coefficients[: m_max + 1], g_prime)[: m_max + 1]
    out = np.zeros(m_max + 2, dtype=complex)
    # same array division as the polynomial antiderivative, so T_z(f) and
    # the anchored antiderivative agree to the last bit
    out[1:] = sums / np.arange(1, m_max + 2)
    return PowerSeries(out, 0.0)
