"""Complex polynomial, power-series and rational-function arithmetic.

Everything downstream (Pade construction, chordal approximation, path
integration) is built on three value types:

* :class:`Polynomial` -- complex coefficients in powers of ``(z - center)``;
  trailing coefficients below a scale-relative floor are trimmed, in one
  pass over the moduli that also stands in for the finite check, and the
  zero polynomial reports the sentinel degree ``-1``.
* :class:`PowerSeries` -- truncated Taylor coefficients ``a_0..a_N`` at a
  center; the truncation order is ``len(coefficients) - 1``.
* :class:`RationalFunction` -- a coprime numerator/denominator pair with a
  monic denominator.  Coprimality is enforced with a tolerant polynomial
  Euclid; a common factor is divided out only when some remainder in the
  Euclidean sequence falls below ``GCD_RTOL`` relative to the operands.
  The gcd runs where a rational enters the library, at construction.  A
  rational has no arithmetic: one derived from others is formed by its
  caller over a denominator known to be monic and coprime to it
  (``_normalized=True``), and its derivatives on points come from
  :func:`derivative_values`.

All values are immutable after construction and safe to share across
threads.  Working precision is ordinary binary floating point (~16
significant digits).

Evaluation takes a point or an ndarray of points.  A point runs the scalar
Horner loop of ``Polynomial.__call__``; an ndarray runs one Horner kernel
over the whole array, in real arithmetic, and gives the same values bit for
bit.  ``PowerSeries``, ``RationalFunction`` and the Pade approximant call
through it.  :func:`modulus` and :func:`square` are the array forms of the
scalar ``abs(z)`` and ``x ** 2`` with the same rounding,
:func:`values_on` evaluates a callable or a constant on an array of points,
and :func:`derivative_values` gives the derivatives of a quotient of
polynomials on an array by the Leibniz rule, without forming them.

The Horner kernel and the Leibniz recurrence also take a leading centre
axis: C coefficient rows about C centres (:func:`_stacked`, zero-padded to
one length) at P points give ``(C, P)`` values, each row with the bits of
its own evaluation.  The universality certificate evaluates the Pade
approximants of all its centres this way, in one pass.

The Taylor shift (:func:`_synthetic_division`) and the Taylor recurrence
loop over lists of Python ``complex`` values, which round as NumPy's complex
scalars do: the bits are those of the array loops, at less cost per step.

A point of the extended plane is a ``complex``, and one with any non-finite
part (``inf`` or ``nan``) is the point at infinity: the one-infinity model of
C99 Annex G, with a NaN part counted as infinite too.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    InsufficientSeriesError,
    InvalidDenominatorError,
    PoleAtCenterError,
    PreconditionError,
    SingularCenterError,
)

# Trailing coefficients are dropped when |c| <= TRIM_RTOL * max |c|; the
# purely relative floor keeps the degree stable under scalar multiplication.
TRIM_RTOL = 1e-13
# Euclidean remainder below GCD_RTOL * operand scale declares a common factor.
GCD_RTOL = 1e-10
# |B(center)| below POLE_RTOL * coefficient scale counts as a pole.
POLE_RTOL = 1e-12


def _trimmed_lengths(coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Length of each coefficient row (the last axis) once the trailing
    coefficients with ``|c| <= TRIM_RTOL * max |c|`` of the row are dropped,
    0 for a zero row; and that ``max |c|`` of each row."""
    mags = np.abs(coefficients)
    scale = mags.max(-1)
    kept = mags > TRIM_RTOL * scale[..., None]
    return (coefficients.shape[-1] - kept[..., ::-1].argmax(-1)) * (scale > 0), scale


def _trimmed_rows(rows: np.ndarray) -> np.ndarray:
    """Each row trimmed as the ``Polynomial`` constructor trims its
    coefficients, and zero-padded back to the common length.

    Horner evaluation of a zero-padded row gives the bits of the trimmed
    row: a leading zero coefficient leaves the accumulator at ``+0``.
    """
    return np.where(np.arange(rows.shape[-1]) < _trimmed_lengths(rows)[0][..., None], rows, 0)


def _differentiated(coefficients: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of the order-th derivative of each row (the last axis),
    untrimmed."""
    for _ in range(order):
        if coefficients.shape[-1] == 1:
            return np.zeros_like(coefficients)
        coefficients = coefficients[..., 1:] * np.arange(1, coefficients.shape[-1])
    return coefficients


def _stacked(polynomials) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows ``(C, n+1)`` of C polynomials, zero-padded to a
    common length, and their centres ``(C,)``: the centre axis that
    :func:`_horner` and :func:`_derivative_values` take."""
    rows = np.zeros((len(polynomials), max(len(p.coefficients) for p in polynomials)), dtype=complex)
    for row, poly in zip(rows, polynomials):
        row[: len(poly.coefficients)] = poly.coefficients
    return rows, np.array([p.center for p in polynomials], dtype=complex)


def _horner(coefficients: np.ndarray, center, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of ``sum c_k (z - center)^k`` at every point of ``z``.

    Coefficients ``(n+1,)`` about one centre give values of the shape of
    ``z``.  Coefficients ``(C, n+1)`` about centres ``(C,)``, at points
    ``(P,)``, give ``(C, P)``: row r is polynomial r, with the bits of its own
    evaluation without the centre axis.

    The complex product is written out in real and imaginary parts, in the
    order of the scalar complex multiply, and the sum starts from zero as
    in the scalar loop of ``Polynomial.__call__``.  NumPy's complex array
    multiply may fuse or reorder that arithmetic, so the two agree bit for
    bit only in this form.
    """
    if coefficients.ndim == 2:
        w = z - center[:, None]
        cr, ci = coefficients.real.T[::-1, :, None], coefficients.imag.T[::-1, :, None]
    else:
        w = z - center
        cr, ci = coefficients.real[::-1].tolist(), coefficients.imag[::-1].tolist()
    wr, wi = w.real.copy(), w.imag.copy()
    ar = np.zeros(w.shape)
    ai = np.zeros(w.shape)
    for c_re, c_im in zip(cr, ci):
        ar, ai = ar * wr - ai * wi + c_re, ar * wi + ai * wr + c_im
    out = np.empty(w.shape, dtype=complex)
    out.real, out.imag = ar, ai
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` entry by entry, rounded as the scalar complex multiply (see
    :func:`_horner`)."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def modulus(values: np.ndarray) -> np.ndarray:
    """``abs`` of every entry of a complex array, as the scalar ``abs`` rounds it.

    ``np.abs`` on complex arrays may differ from the scalar in the last bit;
    ``np.hypot`` on the parts does not.
    """
    return np.hypot(values.real, values.imag)


def square(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` of every entry, as the scalar power rounds it (``x * x`` may not)."""
    return np.float_power(x, 2.0)


def array_quotient(numerator: "Polynomial", denominator: "Polynomial", z: np.ndarray):
    """``numerator(z) / denominator(z)`` at every point of an ndarray.

    A zero denominator gives an infinite or NaN entry without a warning;
    such an entry stands for the point at infinity.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return numerator(z) / denominator(z)


def derivative_values(
    numerator: "Polynomial", denominator: "Polynomial", z: np.ndarray, order: int
) -> list[np.ndarray]:
    """``[R(z), R'(z), ..., R^(order)(z)]`` for ``R = numerator / denominator``.

    Differentiating ``D R = N`` by the Leibniz rule gives

        R^(l) = (N^(l) - sum_{k=1..l} C(l, k) D^(k) R^(l-k)) / D,

    so every order costs a few array products and one division, from the
    values of the polynomial derivatives alone: no quotient-rule rational is
    formed and no gcd is run.  The products are taken in real arithmetic
    (:func:`_product`), so every value equals the scalar recurrence at that
    point bit for bit, up to the sign of a zero; order 0 is
    :func:`array_quotient`.  Like it, a zero denominator gives non-finite
    entries without a warning.
    """
    numerator._check_center(denominator)
    return _derivative_values(
        numerator.coefficients, denominator.coefficients, numerator.center, z, order
    )


def _derivative_values(numerator, denominator, center, z, order: int) -> list[np.ndarray]:
    """The recurrence of :func:`derivative_values` on coefficient arrays:
    one pair about one centre, or pairs of rows about centres ``(C,)`` at
    points ``(P,)``, giving ``(C, P)`` values per order (see :func:`_horner`)."""

    def derivative_at_points(coefficients, k):
        return _horner(_trimmed_rows(_differentiated(coefficients, k)), center, z)

    num_derivs = [derivative_at_points(numerator, k) for k in range(order + 1)]
    degree = _trimmed_lengths(denominator)[0] - 1
    # D^(k) vanishes for k > deg D, so those terms are left out of the sum, row
    # by row: where a row's values are infinite, 0 * inf would add NaN
    top = min(order, max(int(np.max(degree)), 0))
    den_derivs = [derivative_at_points(denominator, k) for k in range(top + 1)]
    values = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for ell in range(order + 1):
            acc = num_derivs[ell]
            for k in range(1, min(ell, top) + 1):
                term = acc - _product(math.comb(ell, k) * den_derivs[k], values[ell - k])
                acc = term if np.all(degree >= k) else np.where((degree >= k)[:, None], term, acc)
            values.append(acc / den_derivs[0])
    return values


class Polynomial:
    """Immutable complex polynomial ``sum c_k (z - center)^k``."""

    __slots__ = ("coefficients", "center")

    def __init__(self, coefficients, center: complex = 0.0):
        coefficients = np.array(coefficients, dtype=complex, ndmin=1)
        length, scale = _trimmed_lengths(coefficients) if coefficients.size else (0, 0.0)
        # |c| overflows for some finite c, so an infinite max only calls for the full check
        if not scale < math.inf and not np.isfinite(coefficients).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coefficients[:length] if length else np.zeros(1, dtype=complex))
        object.__setattr__(self, "center", complex(center))
        self.coefficients.setflags(write=False)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- basic queries --------------------------------------------------

    @property
    def degree(self) -> int:
        """Index of the highest retained coefficient; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coefficients) == 1 and self.coefficients[0] == 0

    @property
    def leading_coefficient(self) -> complex:
        return complex(self.coefficients[-1])

    def coefficient_scale(self) -> float:
        """Largest coefficient magnitude (floored away from zero)."""
        return max(float(np.abs(self.coefficients).max()), np.finfo(float).tiny)

    # -- arithmetic ------------------------------------------------------

    def _check_center(self, other: "Polynomial"):
        if self.center != other.center:
            raise ValueError("polynomial centers differ; recenter first")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Polynomial([other], self.center)
        self._check_center(other)
        n = max(len(self.coefficients), len(other.coefficients))
        out = np.zeros(n, dtype=complex)
        out[: len(self.coefficients)] += self.coefficients
        out[: len(other.coefficients)] += other.coefficients
        return Polynomial(out, self.center)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(-self.coefficients, self.center)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Polynomial([other], self.center)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Polynomial(self.coefficients * complex(other), self.center)
        self._check_center(other)
        return Polynomial(np.convolve(self.coefficients, other.coefficients), self.center)

    __rmul__ = __mul__

    def __call__(self, z):
        """Horner evaluation at a point, or at every point of an ndarray."""
        if isinstance(z, np.ndarray):
            return _horner(self.coefficients, self.center, z)
        w = complex(z) - self.center
        acc = 0j
        for c in self.coefficients[::-1]:
            acc = acc * w + c
        return acc

    def derivative(self, order: int = 1) -> "Polynomial":
        return Polynomial(_differentiated(self.coefficients, order), self.center)

    def antiderivative(self) -> "Polynomial":
        """Antiderivative vanishing at the center."""
        out = np.zeros(len(self.coefficients) + 1, dtype=complex)
        out[1:] = self.coefficients / np.arange(1, len(self.coefficients) + 1)
        return Polynomial(out, self.center)

    def recentered(self, new_center: complex) -> "Polynomial":
        """The same polynomial expressed in powers of ``(z - new_center)``.

        Taylor shift by synthetic division; O(n^2) and exact up to roundoff.
        """
        new_center = complex(new_center)
        if new_center == self.center:
            return self
        _, out = _synthetic_division(self.coefficients, new_center - self.center, len(self.coefficients))
        return Polynomial(out, new_center)

    def to_data(self) -> dict:
        return {
            "center": [self.center.real, self.center.imag],
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
        }

    @classmethod
    def from_data(cls, data: dict) -> "Polynomial":
        center = complex(data["center"][0], data["center"][1])
        coeffs = [complex(re, im) for re, im in data["coefficients"]]
        return cls(coeffs, center)

    @classmethod
    def monomial(cls, power: int, coefficient: complex = 1.0, center: complex = 0.0):
        out = np.zeros(power + 1, dtype=complex)
        out[power] = coefficient
        return cls(out, center)

    @classmethod
    def zero(cls, center: complex = 0.0):
        return cls([0.0], center)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.center == other.center
            and len(self.coefficients) == len(other.coefficients)
            and bool(np.all(self.coefficients == other.coefficients))
        )

    def __hash__(self):
        return hash((self.center, tuple(self.coefficients.tolist())))

    def __repr__(self):
        return f"Polynomial({self.coefficients.tolist()!r}, center={self.center!r})"


def _synthetic_division(coefficients: np.ndarray, a: complex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Divide ``sum c_i w^i`` by ``(w - a)`` k times: the quotient, and the k
    remainders, the Taylor coefficients of orders 0..k-1 at ``w = a`` (0 once
    the quotient is used up).  The loop runs on Python ``complex`` values,
    which round as NumPy's complex scalars do."""
    work, a = np.asarray(coefficients, dtype=complex).tolist(), complex(a)
    remainders = [0j] * k
    for r in range(min(k, len(work))):
        for i in range(len(work) - 2, -1, -1):
            work[i] += a * work[i + 1]
        remainders[r] = work.pop(0)
    return np.array(work, dtype=complex), np.array(remainders, dtype=complex)


def polynomial_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient and remainder of ``a / b`` (same center)."""
    a._check_center(b)
    if b.is_zero:
        raise InvalidDenominatorError("division by the zero polynomial")
    rem = np.array(a.coefficients, dtype=complex)
    div = b.coefficients
    if len(rem) < len(div):
        return Polynomial.zero(a.center), a
    quot = np.zeros(len(rem) - len(div) + 1, dtype=complex)
    for k in range(len(quot) - 1, -1, -1):
        factor = rem[k + len(div) - 1] / div[-1]
        quot[k] = factor
        rem[k : k + len(div)] -= factor * div
    return Polynomial(quot, a.center), Polynomial(rem[: len(div) - 1] if len(div) > 1 else [0.0], a.center)


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic approximate gcd via the Euclidean remainder sequence.

    A common factor is declared only when a remainder's coefficient norm
    falls below ``GCD_RTOL`` times the operand scale; otherwise the gcd
    is 1.  With exact data this reduces to ordinary polynomial Euclid.
    """
    scale = max(a.coefficient_scale(), b.coefficient_scale())
    f, g = (a, b) if a.degree >= b.degree else (b, a)
    while not g.is_zero:
        if g.degree == 0:
            return Polynomial([1.0], a.center)
        _, r = polynomial_divmod(f, g)
        rnorm = float(np.abs(r.coefficients).max())
        if rnorm <= GCD_RTOL * scale:
            lead = g.leading_coefficient
            return Polynomial(g.coefficients / lead, g.center)
        f, g = g, r
    lead = f.leading_coefficient
    return Polynomial(f.coefficients / lead, f.center)


class RationalFunction:
    """Coprime pair ``numerator / denominator`` with a monic denominator."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial, *, _normalized=False):
        if not _normalized:
            normalized = rational_normalize(numerator, denominator)
            numerator, denominator = normalized.numerator, normalized.denominator
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RationalFunction is immutable")

    @property
    def center(self) -> complex:
        return self.numerator.center

    def __call__(self, z):
        if isinstance(z, np.ndarray):
            return array_quotient(self.numerator, self.denominator, z)
        return self.numerator(z) / self.denominator(z)

    def taylor_at(self, center: complex, order: int) -> "PowerSeries":
        return taylor_of_rational(self, center, order)

    def to_data(self) -> dict:
        return {"numerator": self.numerator.to_data(), "denominator": self.denominator.to_data()}

    @classmethod
    def from_data(cls, data: dict) -> "RationalFunction":
        return cls(Polynomial.from_data(data["numerator"]), Polynomial.from_data(data["denominator"]))

    def __repr__(self):
        return f"RationalFunction({self.numerator!r}, {self.denominator!r})"


def rational_normalize(numerator: Polynomial, denominator: Polynomial) -> RationalFunction:
    """Coprime, monic-denominator representative of ``numerator/denominator``.

    Idempotent: normalizing an already normalized pair changes nothing.
    """
    if denominator.is_zero:
        raise InvalidDenominatorError("denominator is identically zero")
    numerator._check_center(denominator)
    common = polynomial_gcd(numerator, denominator)
    if common.degree > 0:
        numerator, _ = polynomial_divmod(numerator, common)
        denominator, _ = polynomial_divmod(denominator, common)
    lead = denominator.leading_coefficient
    if lead != 1.0:
        numerator = numerator * (1.0 / lead)
        denominator = Polynomial(denominator.coefficients / lead, denominator.center)
    return RationalFunction(numerator, denominator, _normalized=True)


class PowerSeries:
    """Truncated Taylor coefficients ``a_0..a_N`` at a center."""

    __slots__ = ("center", "coefficients")

    def __init__(self, coefficients, center: complex = 0.0):
        coefficients = np.array(coefficients, dtype=complex, ndmin=1)
        if not np.isfinite(coefficients).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coefficients if coefficients.size else np.zeros(1, dtype=complex))
        object.__setattr__(self, "center", complex(center))
        self.coefficients.setflags(write=False)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PowerSeries is immutable")

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> complex:
        """a_k, with a_k := 0 for k < 0; raises past the truncation order."""
        if k < 0:
            return 0j
        if k > self.truncation_order:
            raise InsufficientSeriesError(
                f"series truncated at order {self.truncation_order}, need index {k}"
            )
        return complex(self.coefficients[k])

    __call__ = Polynomial.__call__
    to_data = Polynomial.to_data
    from_data = classmethod(Polynomial.from_data.__func__)

    def __repr__(self):
        return f"PowerSeries(order={self.truncation_order}, center={self.center!r})"


def partial_sum(series: PowerSeries, k: int) -> Polynomial:
    """The degree-k partial sum in powers of ``(z - center)``.

    Returns the zero polynomial for k < 0; requesting k beyond the
    truncation order raises InsufficientSeriesError.
    """
    if k < 0:
        return Polynomial.zero(series.center)
    if k > series.truncation_order:
        raise InsufficientSeriesError(
            f"partial sum of order {k} from a series truncated at {series.truncation_order}"
        )
    return Polynomial(series.coefficients[: k + 1], series.center)


def taylor_of_rational(rational: RationalFunction, center: complex, order: int) -> PowerSeries:
    """Taylor coefficients of a rational function at a regular point.

    Recenters both polynomials and runs the convolution recurrence
    ``A = B * (sum a_n w^n)``.  Raises PoleAtCenterError when the
    denominator nearly vanishes at the center.
    """
    center = complex(center)
    num = rational.numerator.recentered(center).coefficients.tolist() + [0j] * order
    den = rational.denominator.recentered(center)
    b = den.coefficients.tolist()
    if abs(b[0]) <= POLE_RTOL * den.coefficient_scale():
        raise PoleAtCenterError(f"denominator vanishes at center {center}")
    # a stays an array: a term of it makes acc NumPy's, whose division differs from Python's (a_0's) in the last bit
    a = np.zeros(order + 1, dtype=complex)
    for n in range(order + 1):
        acc = num[n]
        for m in range(1, min(n, len(b) - 1) + 1):
            acc -= b[m] * a[n - m]
        a[n] = acc / b[0]
    return PowerSeries(a, center)


def series_builtin(name: str, center: complex = 0.0, order: int = 10) -> PowerSeries:
    """Taylor series of a named elementary function at a center.

    Supported names: ``exp``, ``log1m`` (log(1-z), principal branch) and
    ``geometric`` (1/(1-z)).  The latter two are singular at center 1.
    """
    if order < 0:
        raise PreconditionError(f"series order must be non-negative, got {order}")
    center = complex(center)
    if not cmath.isfinite(center):
        raise PreconditionError(f"series centre must be finite, got {center!r}")
    n = np.arange(order + 1)
    if name == "exp":
        coeffs = np.full(order + 1, cmath.exp(center), dtype=complex)
        # float(k!) overflows above k = 170; from there on divide step by step
        head = min(order, 170)
        coeffs[: head + 1] /= np.array([math.factorial(k) for k in range(head + 1)], dtype=float)
        for k in range(head + 1, order + 1):
            coeffs[k] = coeffs[k - 1] / k
        return PowerSeries(coeffs, center)
    if name == "log1m":
        if center == 1.0:
            raise SingularCenterError("log(1-z) is singular at center 1")
        coeffs = np.zeros(order + 1, dtype=complex)
        coeffs[0] = cmath.log(1.0 - center)
        w = 1.0 - center
        coeffs[1:] = -1.0 / (n[1:] * w ** n[1:])
        return PowerSeries(coeffs, center)
    if name == "geometric":
        if center == 1.0:
            raise SingularCenterError("1/(1-z) is singular at center 1")
        w = 1.0 - center
        coeffs = 1.0 / w ** (n + 1)
        return PowerSeries(coeffs, center)
    raise ValueError(f"unknown builtin series {name!r}")


def values_on(f, points: np.ndarray) -> np.ndarray:
    """Values of ``f`` at an array of points, as a complex array of the same shape.

    A callable is called once, on the whole array; a scalar it returns is
    broadcast.  A number or an array is taken as is.  A non-finite entry
    (any part ``inf`` or ``nan``) stands for the point at infinity.
    """
    if callable(f):
        f = f(points)
    return np.broadcast_to(np.asarray(f, dtype=complex), points.shape)
