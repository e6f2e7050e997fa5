"""Chordal metric on the extended plane and dyadic coefficient rounding.

The chordal distance of two finite points is
``|a - b| / (sqrt(1 + |a|^2) sqrt(1 + |b|^2))``; against infinity it is
``1 / sqrt(1 + |a|^2)``, and the distance of infinity from itself is 0.
Values always lie in [0, 1] (the result is clamped at 1 to absorb the
last-ulp rounding of antipodal pairs).  Moduli too large to square in
double precision (above about 1.34e154) take an overflow-safe form.

One kernel, :func:`chordal_array`, evaluates the metric on whole arrays,
with infinity written as any non-finite value; :func:`chordal` is its
one-point wrapper.

Sup distances over compact sets are evaluated on finite samples only, so
they are certified lower bounds of the true sup; the sample mesh is
attached to the result.  :func:`sup_chordal` calls each function once, on
the whole array of sample points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSampleError, PrecisionTooCoarseError
from .samples import CompactSample
from .series import (
    Polynomial,
    RationalFunction,
    modulus,
    rational_normalize,
    square,
    values_on,
)


def chordal_array(a, b) -> np.ndarray:
    """Chordal distances between two arrays of points (broadcast together).

    A non-finite entry, or one whose modulus overflows, is the point at
    infinity.  Where ``|a|^2``, ``|b|^2`` or the product of the two roots
    overflows, a root is taken as ``hypot(1, |a|)`` and the difference is
    divided by the larger root before the smaller one; every other entry is
    rounded as the plain formula reads, bit for bit as a scalar evaluation
    would.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        abs_a, abs_b = modulus(a), modulus(b)
        root_a, root_b = _root_one_plus_square(abs_a), _root_one_plus_square(abs_b)
        diff = modulus(a - b)
        den = root_a * root_b
        safe = diff / np.maximum(root_a, root_b) / np.minimum(root_a, root_b)
        value = np.minimum(np.where(np.isfinite(den), diff / den, safe), 1.0)
        inf_a, inf_b = ~np.isfinite(abs_a), ~np.isfinite(abs_b)
        value = np.where(inf_a, 1.0 / root_b, value)
        value = np.where(inf_b, 1.0 / root_a, value)
        return np.where(inf_a & inf_b, 0.0, value)


def _root_one_plus_square(r: np.ndarray) -> np.ndarray:
    """sqrt(1 + r^2), through hypot(1, r) where r^2 overflows."""
    sq = square(r)
    return np.where(np.isinf(sq), np.hypot(1.0, r), np.sqrt(1.0 + sq))


def chordal(a, b) -> float:
    """Chordal distance between two points of the extended plane."""
    return float(chordal_array(a, b))


@dataclass(frozen=True)
class SupChordal:
    """Sampled sup of a chordal distance: a lower bound plus mesh metadata."""

    value: float
    at: complex
    mesh: float
    label: str


def sup_chordal(f, g, sample: CompactSample) -> SupChordal:
    """max over the sample of chordal(f(z), g(z)), at its first maximizing point.

    ``f`` and ``g`` are callables, each called once on the whole array of
    sample points, or constants (a number, non-finite for infinity); see
    :func:`padelab.series.values_on`.  Indeterminate evaluations propagate
    as errors.
    """
    if len(sample) == 0:
        raise InvalidSampleError("empty sample")
    d = chordal_array(values_on(f, sample.points), values_on(g, sample.points))
    i = int(np.argmax(d))
    return SupChordal(float(d[i]), complex(sample.points[i]), sample.mesh, sample.label)


def dyadic_round(value: complex, bits: int) -> complex:
    """Round real and imaginary parts to the nearest multiple of 2^-bits."""
    scale = 2.0 ** bits
    return complex(round(value.real * scale) / scale, round(value.imag * scale) / scale)


def rationalize_coefficients(rational: RationalFunction, bits: int) -> RationalFunction:
    """Dyadic approximation of a rational function's coefficients.

    Every coefficient's real and imaginary parts are rounded to the
    nearest multiple of 2^-bits and the pair is re-normalized, which
    keeps all coefficients in Q + iQ.  Rationals whose coefficients are
    already dyadic at this precision are fixed points.  Rounding that
    collapses the denominator to zero raises PrecisionTooCoarseError.
    """
    num = Polynomial(
        [dyadic_round(c, bits) for c in rational.numerator.coefficients],
        rational.numerator.center,
    )
    den = Polynomial(
        [dyadic_round(c, bits) for c in rational.denominator.coefficients],
        rational.denominator.center,
    )
    if den.is_zero:
        raise PrecisionTooCoarseError(f"denominator rounds to zero at 2^-{bits}")
    return rational_normalize(num, den)
