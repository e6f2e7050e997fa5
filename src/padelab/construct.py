"""Constructive approximation steps behind the density machinery.

This module turns existence arguments into checkable computations:

* :func:`two_set_poly_fit` -- a verified least-squares stand-in for the
  classical existence of a polynomial close to prescribed values on one
  compact set and prescribed derivative values on another.  Success is
  gated by re-verification on refined samples; infeasibility is reported
  with the best residual instead of being papered over.
* :func:`universality_certificate` -- builds the Pade approximant at every
  sampled center, then measures all of them in one pass over
  (center, point) arrays: the normality witnesses, common-zero margins,
  chordal sup against a target on one sample and derivative sups against
  the function itself on another, aggregated into the two membership
  flags.
  :func:`universality_pipeline` certifies a fit plus the target's singular
  part once, at its own type, which the coefficient trim fixes.
* :func:`principal_parts` / :func:`residue_correction` -- pole-local
  corrections: the first extracts the singular part of a rational function
  inside a region, the second removes the Laurent coefficients of orders
  -1..-n at listed poles so the remainder admits an order-n single-valued
  antiderivative (checked by contour moments).
* :func:`antiderivative_cascade` -- repeated anchored antiderivatives
  lifting an approximation of the n-th derivative to an approximation of
  the function with geometrically tightening error levels.
* :func:`volterra_apply` -- the coefficient form of f -> antiderivative
  of f g' vanishing at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import CirclePath, path_integral
from .errors import (
    DegeneratePadeError,
    FitFailureError,
    InvalidSampleError,
    PerturbationDegenerateError,
    PoleNotInListError,
    PoleOnBoundaryError,
    PreconditionError,
    RootFindingError,
    VerificationError,
)
from .pade import _common_zero_values, _extended_values, normality, pade_construct
from .samples import CompactSample
from .series import (
    Polynomial,
    PowerSeries,
    RationalFunction,
    _derivative_values,
    _horner,
    modulus,
    polynomial_divmod,
    polynomial_gcd,
    _stacked,
    taylor_of_rational,
    values_on,
)
from .sphere import chordal_array

# Poles computed from a denominator are merged when closer than this.
POLE_MERGE_TOL = 1e-8
# Residual of contour-moment verification, relative to coefficient scale.
MOMENT_VERIFY_TOL = 1e-9


# --- two-set polynomial fitting ------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    degree: int
    residual: float
    verified_residual: float


def _derivative_rows(points: np.ndarray, degree: int, order: int, shift: complex, scale: float) -> np.ndarray:
    """Rows of d^order/dz^order of the shifted-scaled monomial basis."""
    m = np.zeros((len(points), degree + 1), dtype=complex)
    w = (points - shift) / scale
    for j in range(order, degree + 1):
        m[:, j] = math.perm(j, order) * w ** (j - order) / scale**order
    return m


def _householder_r(a: np.ndarray) -> np.ndarray:
    """R of the QR of all but the last column of ``a``, with Q^H times that
    column appended.  Reflection j changes rows and columns >= j only.

    NumPy arithmetic, not LAPACK: at the fit's width OpenBLAS threads
    LAPACK's QR, which doubled the fit's CPU time on 2 vCPUs and made its
    last bits depend on the thread count.
    """
    r = a.astype(complex)
    for j in range(a.shape[1] - 1):
        x = r[j:, j]
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        v = x.copy()
        v[0] += norm * (x[0] / abs(x[0]) if x[0] != 0 else 1.0)
        v *= math.sqrt(2.0) / np.linalg.norm(v)
        r[j:, j:] -= np.multiply.outer(v, np.einsum("i,ij->j", v.conj(), r[j:, j:]))
    return r


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
    re-verified on 4x refined samples.

    Returns (polynomial, report); raises FitFailureError with the best
    achieved residual when no degree within the cap verifies.

    The linear system is a Vandermonde with derivative rows in a
    shifted/scaled monomial basis.  It is assembled and column-scaled once,
    at the cap's width, and factored by one QR: column j does not depend on
    the degree, so degree d solves with the leading (d+1) x (d+1) block of
    R and the first d+1 entries of Q^H b.  For targets needing frequencies
    far beyond the cap (for example a target with a pole very close to one
    sample set), the reported residual is the honest least-squares optimum,
    and the fit fails.
    """
    if k_sample is None and (l_sample is None or not l_targets):
        raise PreconditionError("at least one constraint set is required")
    k_points = k_sample.points if k_sample is not None else np.zeros(0, dtype=complex)
    l_points = l_sample.points if l_sample is not None else np.zeros(0, dtype=complex)
    all_points = np.concatenate([k_points, l_points])
    shift = complex(all_points.mean())
    scale = max(1.0, float(np.abs(all_points - shift).max()))

    l_orders = list(l_targets) if l_sample is not None else []
    # (points, derivative order, target values) of each block of rows
    blocks = [(k_points, 0, values_on(k_target, k_points))] if k_sample is not None else []
    blocks += [(l_points, order, values_on(target, l_points)) for order, target in enumerate(l_orders)]
    cap = min(max_degree, sum(len(points) for points, _, _ in blocks) - 1)
    a = np.vstack([_derivative_rows(points, cap, order, shift, scale) for points, order, _ in blocks])
    b = np.concatenate([values for _, _, values in blocks])
    col_norms = np.linalg.norm(a, axis=0)
    col_norms[col_norms == 0] = 1.0
    a /= col_norms
    r = _householder_r(np.column_stack([a, b]))
    qb = r[:, -1]
    diag = np.abs(np.diag(r))
    best_res, best_deg = math.inf, -1
    for degree in range(cap + 1):
        n = degree + 1
        if diag[:n].min() <= 1e-14 * max(1.0, diag[:n].max()):
            coeffs_scaled, *_ = np.linalg.lstsq(a[:, :n], b, rcond=None)
        else:
            coeffs_scaled = np.linalg.solve(r[:n, :n], qb[:n])
        coeffs_basis = coeffs_scaled / col_norms[:n]
        # from basis ((z - shift)/scale)^j back to a polynomial in z
        poly = Polynomial(coeffs_basis / scale ** np.arange(n), shift).recentered(0.0)
        res = max(_max_error(poly.derivative(order), points, values) for points, order, values in blocks)
        if res <= tol:
            verified = _verify_on_refined(poly, k_sample, k_target, l_sample, l_orders, res)
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


def _verify_on_refined(poly, k_sample, k_target, l_sample, l_orders, fallback: float) -> float:
    """Max residual on 4x refined samples where generators and callables allow."""
    worst = fallback
    if k_sample is not None and callable(k_target) and k_sample.refine is not None:
        fine = k_sample.refined(4).points
        worst = max(worst, _max_error(poly, fine, values_on(k_target, fine)))
    if l_sample is not None and l_sample.refine is not None and all(callable(t) for t in l_orders):
        fine = l_sample.refined(4).points
        for order, target in enumerate(l_orders):
            worst = max(worst, _max_error(poly.derivative(order), fine, values_on(target, fine)))
    return worst


# --- universality certificate ----------------------------------------------------


@dataclass(frozen=True)
class CenterRecord:
    center: complex
    hankel: complex
    normal: bool
    margin_on_k: float
    margin_on_delta: float
    chordal_sup_on_k: float
    derivative_sups: tuple[float, ...]


@dataclass(frozen=True)
class UniversalityCertificate:
    """Measured quantities behind the two approximation-set memberships.

    ``e_set_member`` requires: normality at every sampled center, the
    no-common-zero condition on K, and chordal sup against the target
    below 1/s.  ``t_set_member`` requires: normality, the no-common-zero
    condition on the derivative sample, and every measured derivative sup
    below 1/s.
    """

    p: int
    q: int
    s: int
    sup_chordal_on_k: float
    sup_derivative_errors: tuple[float, ...]
    hankel_values: tuple[complex, ...]
    all_normal: bool
    e_condition_on_k: bool
    e_condition_on_delta: bool
    e_set_member: bool
    t_set_member: bool
    records: tuple[CenterRecord, ...]

    def to_data(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "s": self.s,
            "sup_chordal_on_K": self.sup_chordal_on_k,
            "sup_derivative_errors_on_Delta": list(self.sup_derivative_errors),
            "hankel_values_over_L": [[h.real, h.imag] for h in self.hankel_values],
            "e_set_member": self.e_set_member,
            "t_set_member": self.t_set_member,
        }


def universality_certificate(
    f,
    centers: CompactSample,
    k_sample: CompactSample,
    delta_sample: CompactSample,
    target,
    p: int,
    q: int,
    s: int,
    max_derivative_order: int | None = None,
) -> UniversalityCertificate:
    """Certificate for membership in the two approximation sets.

    ``f`` must expose ``taylor_at(center, order)`` and its ``numerator``
    and ``denominator`` polynomials (a RationalFunction does); ``target``
    is evaluated once on the array of K points (see
    :func:`padelab.series.values_on`) and compared through the chordal
    metric.  At every center the (p, q) approximant is built from the
    local Taylor series.  Derivative errors compare the approximant's
    derivatives against f's for orders 0..max_derivative_order (default
    s), both by the Leibniz recurrence of
    :func:`padelab.series.derivative_values`: the approximant's from its
    numerator and denominator as built, f's once per certificate.

    The approximants are built one after another in sample order.  They
    are then evaluated together, as ``(centers, points)`` arrays with the
    bits of a per-center evaluation, and every margin and sup is a
    reduction along the point axis.  A tie in a reduction goes to the
    first point, so the certificate is deterministic.  A center whose
    construction is degenerate records a rejecting row.
    """
    if s < 1:
        raise PreconditionError(f"s must be at least 1, got {s}")
    if min(len(centers), len(k_sample), len(delta_sample)) == 0:
        raise InvalidSampleError("empty sample")
    ell_max = s if max_derivative_order is None else max_derivative_order
    k_points, delta_points = k_sample.points, delta_sample.points
    target_on_k = values_on(target, k_points)

    records, approximants = [], []
    for zeta in centers.points:
        series = f.taylor_at(zeta, p + q)
        try:
            approximants.append(pade_construct(series, p, q))
            records.append(None)
        except DegeneratePadeError:
            records.append(CenterRecord(
                complex(zeta), normality(series, p, q).determinant, False, 0.0, 0.0, math.inf,
                tuple([math.inf] * (ell_max + 1)),
            ))
    if approximants:
        measured = iter(_measured_records(f, approximants, k_points, delta_points, target_on_k, ell_max))
        records = [next(measured) if r is None else r for r in records]

    all_normal = all(r.normal for r in records)
    e_on_k = all(r.margin_on_k > 0 for r in records)
    e_on_delta = all(r.margin_on_delta > 0 for r in records)
    sup_chordal_k = float(max(r.chordal_sup_on_k for r in records))
    deriv_sups = tuple(
        float(max(r.derivative_sups[ell] for r in records)) for ell in range(ell_max + 1)
    )
    threshold = 1.0 / s
    return UniversalityCertificate(
        p=p,
        q=q,
        s=s,
        sup_chordal_on_k=sup_chordal_k,
        sup_derivative_errors=deriv_sups,
        hankel_values=tuple(complex(r.hankel) for r in records),
        all_normal=all_normal,
        e_condition_on_k=e_on_k,
        e_condition_on_delta=e_on_delta,
        e_set_member=bool(all_normal and e_on_k and sup_chordal_k < threshold),
        t_set_member=bool(
            all_normal and e_on_delta and all(d < threshold for d in deriv_sups)
        ),
        records=tuple(records),
    )


def _measured_records(f, approximants, k_points, delta_points, target_on_k, ell_max):
    """The records of C approximants of f, measured in one pass over all of them.

    Their numerators and denominators are stacked as zero-padded rows, so
    every value is a ``(C, P)`` array with the bits of the per-approximant
    evaluation, and every margin and sup is a reduction along the point
    axis.  f's derivatives are one more row of the stack.
    """
    num, centers = _stacked([approx.numerator for approx in approximants] + [f.numerator])
    den, _ = _stacked([approx.denominator for approx in approximants] + [f.denominator])
    scales = np.array([[approx.scale()] for approx in approximants])
    k = len(k_points)
    points = np.concatenate([k_points, delta_points])
    a, b = _horner(num[:-1], centers[:-1], points), _horner(den[:-1], centers[:-1], points)
    values, threshold = _common_zero_values(scales, a, b)
    # a margin is positive exactly where its sample is clear of a common zero
    margin_k, margin_delta = (
        np.where(least > threshold[:, 0], least, 0.0)
        for least in (values[:, :k].min(axis=1), values[:, k:].min(axis=1))
    )
    # evaluation raises exactly where the K margin is not clear; record a rejecting sup
    clear = margin_k > 0
    chordal_sup = np.full(len(approximants), math.inf)
    on_k = _extended_values(k_points, a[clear, :k], b[clear, :k], values[clear, :k], threshold[clear])
    chordal_sup[clear] = np.max(chordal_array(on_k, target_on_k), axis=1)
    derivs = _derivative_values(num, den, centers, delta_points, ell_max)
    deriv_sups = np.array([np.max(modulus(d[:-1] - d[-1]), axis=1) for d in derivs])
    return [
        CenterRecord(
            approx.center, approx.hankel_value, approx.normal, float(margin_k[c]),
            float(margin_delta[c]), float(chordal_sup[c]), tuple(deriv_sups[:, c]),
        )
        for c, approx in enumerate(approximants)
    ]


@dataclass(frozen=True)
class PipelineResult:
    function: RationalFunction
    fitted: Polynomial
    singular_part: RationalFunction
    certificate: UniversalityCertificate
    fit_report: FitReport


def universality_pipeline(
    target: RationalFunction,
    smooth_target,
    k_sample: CompactSample,
    centers: CompactSample,
    delta_sample: CompactSample,
    k_region_center: complex,
    k_region_radius: float,
    s: int,
    max_degree: int = 40,
    tol: float = 0.05,
    max_derivative_order: int = 3,
) -> PipelineResult:
    """Construct a function certified to lie in both approximation sets.

    Splits off the target's singular part inside the K region, fits a
    polynomial to (target - singular part) on K jointly with the smooth
    target (orders 0..1) on the center grid, re-attaches the singular part
    and certifies the sum once, at type (numerator degree, denominator
    degree); a rejection raises PerturbationDegenerateError.

    The fit is certified without the paper's exact-degree perturbation:
    the coefficient trim (``series.TRIM_RTOL``) already fixes its type (the
    README gives the measurement).

    ``smooth_target`` must evaluate arrays of points and expose
    ``derivative()`` (Polynomial and RationalFunction both do).
    """
    mu = principal_parts(target, (k_region_center, k_region_radius))

    def k_target(z):
        return target(z) - mu(z)

    def l_value(z):
        return smooth_target(z) - mu(z)

    smooth_prime = smooth_target.derivative()
    mu_prime = mu.derivative()

    def l_derivative(z):
        return smooth_prime(z) - mu_prime(z)

    fitted, report = two_set_poly_fit(
        k_sample, k_target, centers, [l_value, l_derivative], max_degree, tol
    )

    function = mu + fitted
    certificate = universality_certificate(
        function, centers, k_sample, delta_sample, target,
        function.numerator.degree, function.denominator.degree, s,
        max_derivative_order=max_derivative_order,
    )
    if not (certificate.e_set_member and certificate.t_set_member):
        raise PerturbationDegenerateError(
            "no perturbation size satisfied the certificate; last certificate: "
            f"e_set={certificate.e_set_member} t_set={certificate.t_set_member}"
        )
    return PipelineResult(function, fitted, mu, certificate, report)


# --- principal parts and residue correction --------------------------------------


def denominator_poles(rational: RationalFunction) -> list[tuple[complex, int]]:
    """Poles with multiplicities from the denominator's roots.

    Companion-matrix roots of a polynomial with an m-fold root scatter in
    a cluster of radius ~eps^(1/m), far beyond any fixed merge radius, so
    multiplicities are recovered by gcd deflation instead: roots come
    from the square-free part B/gcd(B, B') (well-conditioned and simple),
    the multiplicity of each is read off derivative magnitudes, and the
    root is polished by Newton on B^(multiplicity-1).  Square-free roots
    closer than POLE_MERGE_TOL are still merged as a final safeguard.
    """
    den = rational.denominator
    if den.degree <= 0:
        return []
    if den.center != 0:
        den = den.recentered(0.0)

    # gcd chain C_0 = B, C_{k+1} = gcd(C_k, C_k'); the quotient C_k/C_{k+1}
    # is square-free and carries exactly the roots of multiplicity > k
    chain = [den]
    while chain[-1].degree > 0:
        chain.append(polynomial_gcd(chain[-1], chain[-1].derivative()))
    level_roots: list[np.ndarray] = []
    for c_k, c_next in zip(chain, chain[1:]):
        quot = c_k
        if c_next.degree > 0:
            quot, _ = polynomial_divmod(c_k, c_next)
        # the trim keeps every coefficient below 1e13 times the leading one, so the
        # companion matrix is finite and so are its eigenvalues
        roots = np.roots(quot.coefficients[::-1]) if quot.degree > 0 else np.zeros(0, complex)
        level_roots.append(roots)

    merged: list[complex] = []
    for r in sorted(level_roots[0], key=lambda w: (w.real, w.imag)):
        if not any(abs(r - m) < POLE_MERGE_TOL * max(1.0, abs(m)) for m in merged):
            merged.append(complex(r))

    derivs = [den]
    for _ in range(den.degree):
        derivs.append(derivs[-1].derivative())
    out = []
    for root in merged:
        mult = 1
        for deeper in level_roots[1:]:
            if any(abs(root - r) < 1e-5 * max(1.0, abs(root)) for r in deeper):
                mult += 1
            else:
                break
        # Newton polish on B^(mult-1), where the root is simple
        z = root
        for _ in range(40):
            fz, dfz = derivs[mult - 1](z), derivs[mult](z)
            if dfz == 0:
                break
            step = fz / dfz
            z -= step
            if abs(step) <= 1e-15 * max(1.0, abs(z)):
                break
        out.append((complex(z), mult))
    if sum(m for _, m in out) != den.degree:
        raise RootFindingError(
            f"pole multiplicities {out} inconsistent with denominator degree {den.degree}"
        )
    return out


def _deflate(poly: Polynomial, root: complex, multiplicity: int) -> Polynomial:
    """poly / (z - root)^multiplicity by synthetic division (remainders dropped)."""
    coeffs = np.array(poly.recentered(0.0).coefficients, dtype=complex)
    for _ in range(multiplicity):
        out = np.zeros(len(coeffs) - 1, dtype=complex)
        acc = 0j
        for k in range(len(coeffs) - 1, 0, -1):
            acc = coeffs[k] + root * acc
            out[k - 1] = acc
        coeffs = out
        if len(coeffs) == 0:
            return Polynomial([1.0])
    return Polynomial(coeffs)


def laurent_coefficients(rational: RationalFunction, pole: complex, multiplicity: int, n: int) -> list[complex]:
    """Laurent coefficients of (z - pole)^-j for j = 1..n at a pole.

    Writes the denominator as (z - pole)^multiplicity * Q with Q(pole) != 0
    and Taylor-expands numerator/Q at the pole; coefficient j is the
    Taylor coefficient of index multiplicity - j (zero when j exceeds the
    pole order).
    """
    num = rational.numerator
    den = rational.denominator
    q_poly = _deflate(den, pole, multiplicity)
    head = taylor_of_rational(
        RationalFunction(num.recentered(0.0), q_poly, _normalized=True),
        pole,
        max(multiplicity - 1, 0),
    )
    out = []
    for j in range(1, n + 1):
        idx = multiplicity - j
        out.append(head.coefficient(idx) if 0 <= idx <= head.truncation_order else 0j)
    return out


def _winding_inside(sample: CompactSample, point: complex) -> bool:
    """Winding number of the sample (taken as a closed polygon) around a point."""
    pts = sample.points
    total = 0.0
    for a, b in zip(pts, np.roll(pts, -1)):
        total += np.angle((b - point) / (a - point))
    return abs(total) > math.pi


def _pole_term(c: complex, a: complex, j: int) -> RationalFunction:
    """The term c / (z - a)^j."""
    den = Polynomial([1.0])
    for _ in range(j):
        den = den * Polynomial([-a, 1.0])
    return RationalFunction(Polynomial([c]), den)


def principal_parts(rational: RationalFunction, region) -> RationalFunction:
    """Sum of principal parts at the poles inside a region.

    ``region`` is a (center, radius) disc description or a CompactSample
    of a closed curve (membership then decided by winding number).  The
    difference rational - result is verified analytic near the selected
    poles by numeric residue integrals.  A polynomial (no poles) maps
    to the zero rational.
    """
    poles = denominator_poles(rational)
    if isinstance(region, CompactSample):
        def inside(w):
            return _winding_inside(region, w)
        def boundary_distance(w):
            return float(np.min(np.abs(region.points - w)))
    else:
        center, radius = complex(region[0]), float(region[1])
        def inside(w):
            return abs(w - center) < radius
        def boundary_distance(w):
            return abs(abs(w - center) - radius)

    zero = RationalFunction(Polynomial([0.0]), Polynomial([1.0]), _normalized=True)
    selected = []
    for pole, mult in poles:
        dist = boundary_distance(pole)
        if dist < POLE_MERGE_TOL * max(1.0, abs(pole)):
            raise PoleOnBoundaryError(f"pole {pole} lies on the region boundary")
        if inside(pole):
            selected.append((pole, mult))
    if not selected:
        return zero

    total = zero
    for pole, mult in selected:
        coeffs = laurent_coefficients(rational, pole, mult, mult)
        for j, c in enumerate(coeffs, start=1):
            if c == 0:
                continue
            total = total + _pole_term(c, pole, j)
    _verify_residues_vanish(rational - total, [p for p, _ in selected], 1)
    return total


def _pole_check_radius(pole: complex, all_poles: list[complex]) -> float:
    others = [abs(pole - p) for p in all_poles if abs(pole - p) > POLE_MERGE_TOL]
    return 0.45 * min(others) if others else 0.25


def _verify_residues_vanish(rational: RationalFunction, poles: list[complex], n: int):
    scale = max(1.0, rational.numerator.coefficient_scale())
    for pole in poles:
        radius = _pole_check_radius(pole, poles)
        cycle = CirclePath(pole, radius)
        for j in range(1, n + 1):
            moment = path_integral(lambda z, a=pole, k=j: (z - a) ** (k - 1) * rational(z), cycle)
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
    single-valued antiderivative near them.  A pole of the input outside
    the list raises PoleNotInListError.
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    found = denominator_poles(rational)
    listed = [complex(a) for a in poles]
    for pole, _ in found:
        if not any(abs(pole - a) < 1e-6 * max(1.0, abs(a)) for a in listed):
            raise PoleNotInListError(f"pole {pole} is not in the declared list")

    table: dict[tuple[complex, int], complex] = {}
    corrected = rational
    for a in listed:
        match = [(p, m) for p, m in found if abs(p - a) < 1e-6 * max(1.0, abs(a))]
        mult = match[0][1] if match else 0
        coeffs = (
            laurent_coefficients(rational, match[0][0], mult, n) if match else [0j] * n
        )
        for j, c in enumerate(coeffs, start=1):
            table[(a, j)] = c
            if c == 0:
                continue
            corrected = corrected - _pole_term(c, a, j)
    _verify_residues_vanish(corrected, listed, n)
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
