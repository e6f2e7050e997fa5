"""Pade approximant construction from truncated Taylor coefficients.

Given a series ``f = sum a_n (z - zeta)^n`` and orders (p, q), the type
(p, q) approximant is the rational function with numerator degree <= p and
denominator degree <= q, regular at the center, whose expansion matches
``a_0..a_{p+q}``.  For q = 0 it is simply the degree-p partial sum; for
q >= 1 it exists and is unique exactly when the q x q Hankel determinant

    det [ a_{p-q+i+j-1} ]_{i,j=1..q}        (a_n := 0 for n < 0)

is non-zero ("normality").  The construction used here expands the classical
determinant formula along its first row: the q+1 numeric cofactors are
computed by LU factorization, in double on every platform, and combined
with the polynomial first-row entries

    numerator   first row:  (w^q S_{p-q}(w), w^{q-1} S_{p-q+1}(w), ..., S_p(w))
    denominator first row:  (w^q,            w^{q-1},              ..., 1)

with ``w = z - zeta`` and S_k the partial sums.  The minor of the last
column is the Hankel determinant itself, so the construction takes its
normality witness from that LU rather than factoring H again.  Both
determinant polynomials are returned even when the normality test fails
(flagged ``normal=False``) so degenerate cases can be probed; they only
carry the defining order-matching property in the normal case.

Floating point needs a scale-aware cutoff for "non-zero": the determinant
counts as non-zero when ``|det| > NORMALITY_RTOL * max(1, s^q)`` with ``s``
the largest coefficient magnitude in the Hankel window.

An approximant is evaluated on whole arrays of sample points:
:func:`common_zero_margin` and :func:`evaluate_extended_array` take the
sample at once, with the same values bit for bit as a point-by-point loop;
:func:`evaluate_extended` is the one-point wrapper.  Both apply one rule: a
point is clear of a common zero when ``|A|^2 + |B|^2 > (COMMON_ZERO_RTOL *
s)^2``, s the coefficient scale; evaluation raises exactly where it is not.
Each takes one approximant.  The universality certificate builds none: a
rational at its own type is its own approximant at every regular center
(:func:`padelab.construct.universality_certificate`), so it measures the
rational itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePadeError,
    IndeterminateValueError,
    InsufficientSeriesError,
    InvalidSampleError,
)
from .samples import CompactSample
from .series import (
    Polynomial,
    PowerSeries,
    RationalFunction,
    modulus,
    partial_sum,
    square,
)

NORMALITY_RTOL = 1e-10
# |A|^2 + |B|^2 counts as clear of a common zero above (COMMON_ZERO_RTOL * s)^2.
COMMON_ZERO_RTOL = 1e-10


def _lu_determinant(matrix: np.ndarray) -> complex:
    """Determinant by LU with partial pivoting, in double."""
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    det = 1.0 + 0j
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(a[k:, k])))
        if a[pivot, k] == 0:
            return 0j
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
            det = -det
        det *= a[k, k]
        for i in range(k + 1, n):
            factor = a[i, k] / a[k, k]
            a[i, k + 1 :] -= factor * a[k, k + 1 :]
    return complex(det)


def _coefficient_block(series: PowerSeries, p: int, q: int, columns: int) -> np.ndarray:
    """Rows i = 1..q of (a_{p-q+i}, ..., a_{p-q+i+columns-1}), a_n := 0 for n < 0.

    One slice of the coefficient array, indexed as a Hankel matrix; the
    caller has checked that the series reaches a_{p+columns-1}.
    """
    lo = p - q + 1
    head = series.coefficients[max(lo, 0) : lo + q + columns - 1]
    window = np.concatenate([np.zeros(max(-lo, 0), dtype=complex), head])
    return window[np.arange(q)[:, None] + np.arange(columns)]


def hankel_determinant(series: PowerSeries, p: int, q: int) -> complex:
    """The q x q Hankel determinant with rows (a_{p-q+i}, ..., a_{p+i-1}).

    Coefficients with negative index are zero; q = 0 returns 1.  Raises
    InsufficientSeriesError when the series is shorter than p+q-1.
    """
    if p < 0 or q < 0:
        raise ValueError("orders must be non-negative")
    if q == 0:
        return 1.0 + 0j
    if series.truncation_order < p + q - 1:
        raise InsufficientSeriesError(
            f"Hankel({p},{q}) needs coefficients through {p + q - 1}, "
            f"series truncated at {series.truncation_order}"
        )
    return _lu_determinant(_coefficient_block(series, p, q, q))


@dataclass(frozen=True)
class NormalityResult:
    """Outcome of the normality test, with the determinant as witness."""

    is_normal: bool
    determinant: complex
    threshold: float

    def __bool__(self):
        return self.is_normal


def _normality_of(series: PowerSeries, p: int, q: int, det: complex) -> NormalityResult:
    """The normality verdict on a (p, q) Hankel value ``det``.

    Normal when ``|det| > NORMALITY_RTOL * max(1, s^q)``, with s the
    largest |a_i| over the Hankel window.
    """
    mags = modulus(series.coefficients[max(p - q + 1, 0) : p + q])
    s = float(mags.max(initial=0.0))
    threshold = NORMALITY_RTOL * max(1.0, s**q)
    return NormalityResult(bool(abs(det) > threshold), det, threshold)


def normality(series: PowerSeries, p: int, q: int) -> NormalityResult:
    """Scale-aware test that the (p, q) Hankel determinant is non-zero."""
    return _normality_of(series, p, q, hankel_determinant(series, p, q))


@dataclass(frozen=True)
class PadeApproximant:
    """Type (p, q) approximant at a center, in powers of ``(z - center)``.

    ``numerator`` and ``denominator`` are the raw determinant polynomials
    (a common non-zero scale is irrelevant to the represented function).
    ``normal`` records whether the Hankel test passed; degree bounds
    deg numerator <= p and deg denominator <= q always hold.
    """

    p: int
    q: int
    center: complex
    numerator: Polynomial
    denominator: Polynomial
    hankel_value: complex
    normal: bool

    __call__ = RationalFunction.__call__

    def scale(self) -> float:
        """Largest coefficient magnitude of the pair (their common scale).

        The determinant polynomials carry an arbitrary common factor, so
        thresholds must be relative to this scale rather than absolute.
        """
        return max(self.numerator.coefficient_scale(), self.denominator.coefficient_scale())

    def to_data(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "center": [self.center.real, self.center.imag],
            "numerator": self.numerator.to_data(),
            "denominator": self.denominator.to_data(),
            "hankel": [self.hankel_value.real, self.hankel_value.imag],
            "normal": self.normal,
        }

    @classmethod
    def from_data(cls, data: dict) -> "PadeApproximant":
        return cls(
            int(data["p"]),
            int(data["q"]),
            complex(data["center"][0], data["center"][1]),
            Polynomial.from_data(data["numerator"]),
            Polynomial.from_data(data["denominator"]),
            complex(data["hankel"][0], data["hankel"][1]),
            bool(data["normal"]),
        )


def pade_construct(series: PowerSeries, p: int, q: int) -> PadeApproximant:
    """Build the (p, q) approximant of a series at its own center.

    Needs coefficients through order p+q.  Non-normal input still yields
    the determinant polynomials with ``normal=False``; if both vanish
    identically the construction is degenerate and raises.
    """
    if p < 0 or q < 0:
        raise ValueError("orders must be non-negative")
    if series.truncation_order < p + q:
        raise InsufficientSeriesError(
            f"Pade({p},{q}) needs coefficients through {p + q}, "
            f"series truncated at {series.truncation_order}"
        )
    center = series.center
    if q == 0:
        return PadeApproximant(
            p, 0, center, partial_sum(series, p), Polynomial([1.0], center), 1.0 + 0j, True
        )

    # Coefficient rows i = 1..q are (a_{p-q+i}, ..., a_{p+i}); the cofactor
    # of first-row column j removes column j from this q x (q+1) block.
    # Without its last column the block is the Hankel matrix.
    block = _coefficient_block(series, p, q, q + 1)
    minors = [_lu_determinant(np.delete(block, j, axis=1)) for j in range(q + 1)]

    # numerator = sum_j c_j w^{q-j} S_{p-q+j}, denominator = sum_j c_j w^{q-j}.
    num_acc = np.zeros(p + 1, dtype=complex)
    den_acc = np.zeros(q + 1, dtype=complex)
    for j, minor in enumerate(minors):
        cofactor = (-1.0) ** j * minor
        den_acc[q - j] += cofactor
        k = p - q + j
        if k >= 0:
            num_acc[q - j : q - j + k + 1] += cofactor * series.coefficients[: k + 1]
    num = Polynomial(num_acc, center)
    den = Polynomial(den_acc, center)
    if num.is_zero and den.is_zero:
        raise DegeneratePadeError(f"all ({p},{q}) determinant polynomials vanish")
    norm = _normality_of(series, p, q, minors[q])
    return PadeApproximant(p, q, center, num, den, norm.determinant, norm.is_normal)


@dataclass(frozen=True)
class CommonZeroMargin:
    """min over a sample of |A|^2 + |B|^2, against the clearance threshold."""

    min_value: float
    threshold: float
    at: complex
    clear: bool

    def __bool__(self):
        return self.clear


def _common_zero_values(scale: float, a: np.ndarray, b: np.ndarray):
    """``|A|^2 + |B|^2`` at the values ``a``, ``b`` of a pair, and the
    threshold ``(COMMON_ZERO_RTOL * s)^2`` that a point clear of a common
    zero exceeds, s the pair's coefficient scale."""
    return square(modulus(a)) + square(modulus(b)), square(COMMON_ZERO_RTOL * scale)


def common_zero_margin(approx: PadeApproximant, sample: CompactSample) -> CommonZeroMargin:
    """Check the determinant pair has no common zero on the sampled set.

    The minimum is taken at its first point in sample order.
    """
    if len(sample) == 0:
        raise InvalidSampleError("empty sample")
    points = sample.points
    values, threshold = _common_zero_values(
        approx.scale(), approx.numerator(points), approx.denominator(points)
    )
    i = int(np.argmin(values))
    best, threshold = float(values[i]), float(threshold)
    return CommonZeroMargin(best, threshold, complex(points[i]), best > threshold)


def evaluate_extended_array(approx: PadeApproximant, z: np.ndarray) -> np.ndarray:
    """Values on the extended plane at every point of ``z``: A/B, or ``inf``
    where B is exactly zero.

    Raises IndeterminateValueError, naming the first such point in the
    order of ``z.flat``, where a point is not clear of a common zero, by the
    rule of :func:`common_zero_margin`.
    """
    a, b = approx.numerator(z), approx.denominator(z)
    values, threshold = _common_zero_values(approx.scale(), a, b)
    indeterminate = ~(values > threshold)
    if indeterminate.any():
        raise IndeterminateValueError(f"numerator and denominator both vanish at {z.flat[np.argmax(indeterminate)]}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b == 0, math.inf, a / b)


def evaluate_extended(approx: PadeApproximant, z: complex) -> complex:
    """Value on the extended plane at one point: A/B, or ``inf`` where B
    vanishes; see :func:`evaluate_extended_array`."""
    return complex(evaluate_extended_array(approx, np.array([complex(z)]))[0])
