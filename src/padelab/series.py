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
  monic denominator.  At construction, ``(z - c)^k`` is divided out of both
  at the centre c of a cluster of the denominator's roots, or at a root of a
  merged cluster, where their first k Taylor coefficients vanish to rounding
  (:func:`rational_normalize`), by a test of terms of one degree in z, which
  rescaling z does not move.
  A rational has no arithmetic: one derived from others is formed by its
  caller over a denominator known to be monic and coprime to it
  (``_normalized=True``), and its derivatives on points come from
  :func:`derivative_values`.

All values are immutable after construction and safe to share across
threads.  Working precision is ordinary binary floating point (~16
significant digits).

Evaluation takes a point or an ndarray of points.  A polynomial at a point
runs the scalar Horner loop of ``Polynomial.__call__``; an ndarray runs one
Horner kernel over the whole array, in real arithmetic, and gives the same
values bit for bit.  ``PowerSeries`` calls through it.  A rational (and the
Pade approximant, which shares its method) evaluates a point as a one-point
array through :func:`array_quotient`, so a point and an array agree bit for
bit and an overflow raises the same NonFiniteValueError.  :func:`modulus`
and :func:`square` are the array forms of the scalar ``abs(z)`` and ``x **
2`` with the same rounding, :func:`values_on` evaluates a callable or a
constant on an array of points, and :func:`derivative_values` gives the
derivatives of a quotient of polynomials on an array by the Leibniz rule,
without forming them.

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
import sys

import numpy as np

from .errors import (
    InsufficientSeriesError,
    InvalidDenominatorError,
    NonFiniteValueError,
    PoleAtCenterError,
    PreconditionError,
    SingularCenterError,
)

# Trailing coefficients are dropped when |c| <= TRIM_RTOL * max |c|; the
# purely relative floor keeps the degree stable under scalar multiplication.
TRIM_RTOL = 1e-13
# A Taylor remainder at most FACTOR_RTOL times the size of its terms vanishes (_factor_order).
FACTOR_RTOL = 1e-9
# |B(center)| below POLE_RTOL * coefficient scale counts as a pole.
POLE_RTOL = 1e-12


def _trimmed_length(coefficients: np.ndarray) -> tuple[int, float]:
    """Length of the coefficients once the trailing ones with ``|c| <=
    TRIM_RTOL * max |c|`` are dropped, 0 when all are zero; and that ``max |c|``."""
    mags = np.abs(coefficients)
    scale = mags.max()
    kept = mags > TRIM_RTOL * scale
    return (len(coefficients) - kept[::-1].argmax()) * (scale > 0), scale


def _differentiated(coefficients: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of the order-th derivative, untrimmed."""
    for _ in range(order):
        if len(coefficients) == 1:
            return np.zeros_like(coefficients)
        coefficients = coefficients[1:] * np.arange(1, len(coefficients))
    return coefficients


def _horner(coefficients: np.ndarray, center, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of ``sum c_k (z - center)^k`` at every point of ``z``.

    The complex product is written out in real and imaginary parts, in the
    order of the scalar complex multiply, and the sum starts from zero as
    in the scalar loop of ``Polynomial.__call__``.  NumPy's complex array
    multiply may fuse or reorder that arithmetic, so the two agree bit for
    bit only in this form.  Each step writes into the same four work arrays
    (``out`` given positionally), with the operations in the same order, so
    the values are bit for bit those of a step that allocates its results.
    """
    w = z - center
    cr, ci = coefficients.real[::-1].tolist(), coefficients.imag[::-1].tolist()
    wr, wi = w.real.copy(), w.imag.copy()
    ar, ai, t, u = np.zeros(w.shape), np.zeros(w.shape), np.empty(w.shape), np.empty(w.shape)
    for c_re, c_im in zip(cr, ci):
        # t = ar * wr - ai * wi + c_re, ai = ar * wi + ai * wr + c_im, then t is the new ar
        np.multiply(ar, wr, t)
        np.multiply(ai, wi, u)
        np.subtract(t, u, t)
        np.add(t, c_re, t)
        np.multiply(ar, wi, u)
        np.multiply(ai, wr, ar)
        np.add(u, ar, ai)
        np.add(ai, c_im, ai)
        ar, t = t, ar
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

    A zero denominator, or a non-finite point, gives an infinite or NaN
    entry without a warning: the point at infinity.  A value that overflows
    at a finite point decides the quotient, as infinite or 0, only against
    a value of modulus at most 1; elsewhere NonFiniteValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _quotient(numerator(z), denominator(z), z)


def _quotient(top: np.ndarray, bottom: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The quotient step of :func:`array_quotient`, on the values ``top`` and
    ``bottom`` of its numerator and denominator at the points ``z``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        quotient, finite = top / bottom, np.isfinite(z)
        huge_top, huge_bottom = ~np.isfinite(top) & finite, ~np.isfinite(bottom) & finite
        if huge_top.any() or huge_bottom.any():
            if (undecided := huge_top & ~(modulus(bottom) <= 1.0) | huge_bottom & ~(modulus(top) <= 1.0)).any():
                raise NonFiniteValueError(f"the numerator or denominator overflows at {complex(z[undecided][0])!r}")
            quotient[huge_bottom] = 0.0
        return quotient


def derivative_values(
    numerator: "Polynomial", denominator: "Polynomial", z: np.ndarray, order: int
) -> list[np.ndarray]:
    """``[R(z), R'(z), ..., R^(order)(z)]`` for ``R = numerator / denominator``.

    Differentiating ``D R = N`` by the Leibniz rule gives

        R^(l) = (N^(l) - sum_{k=1..l} C(l, k) D^(k) R^(l-k)) / D,

    so every order costs a few array products and one division, from the
    values of the polynomial derivatives alone: no quotient-rule rational is
    formed and no normalization is run.  The products are taken in real arithmetic
    (:func:`_product`), so every value equals the scalar recurrence at that
    point bit for bit, up to the sign of a zero; order 0 is
    :func:`array_quotient`.  Like it, a zero denominator gives non-finite
    entries without a warning.
    """
    numerator._check_center(denominator)
    num_derivs = [numerator.derivative(k)(z) for k in range(order + 1)]
    # D^(k) vanishes for k > deg D, so those terms are left out of the sum:
    # where the values are infinite, 0 * inf would add NaN
    top = min(order, max(denominator.degree, 0))
    den_derivs = [denominator.derivative(k)(z) for k in range(top + 1)]
    values = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for ell in range(order + 1):
            acc = num_derivs[ell]
            for k in range(1, min(ell, top) + 1):
                acc = acc - _product(math.comb(ell, k) * den_derivs[k], values[ell - k])
            values.append(acc / den_derivs[0])
    return values


class Polynomial:
    """Immutable complex polynomial ``sum c_k (z - center)^k``."""

    __slots__ = ("coefficients", "center")

    def __init__(self, coefficients, center: complex = 0.0):
        coefficients = np.array(coefficients, dtype=complex, ndmin=1)
        length, scale = _trimmed_length(coefficients) if coefficients.size else (0, 0.0)
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


def _factor_order(coefficients: np.ndarray, a: complex, k: int) -> tuple[int, np.ndarray, np.ndarray]:
    """How many of the k remainders of ``sum c_i w^i`` by ``(w - a)`` vanish before
    the first that does not, the quotient and the remainders.  Remainder j vanishes
    when at most FACTOR_RTOL times the same division of the |c_i| at |a|, the size of
    its terms: one degree in w on both sides, so rescaling w keeps the count.  A
    remainder or bound that overflows does not vanish."""
    quotient, remainders = _synthetic_division(coefficients, a, k)
    bounds = _synthetic_division(np.abs(coefficients), abs(a), k)[1]
    pairs = enumerate(zip(remainders.tolist(), bounds.tolist()))
    return next((j for j, (r, bound) in pairs if not abs(r) <= FACTOR_RTOL * abs(bound) < math.inf), k), quotient, remainders


def _newton(f: Polynomial, df: Polynomial, z: complex) -> complex:
    """Newton's method on f from z, to a step of 1e-15 relative or 40 steps."""
    for _ in range(40):
        fz, dfz = f(z), df(z)
        if dfz == 0:
            break
        step = fz / dfz
        z -= step
        if abs(step) <= 1e-15 * max(1.0, abs(z)):
            break
    return complex(z)


def denominator_poles(rational: "RationalFunction") -> list[tuple[complex, int, float]]:
    """The denominator's roots as certified clusters ``(centre, count, radius)``.

    The discs ``|z - centre| < radius`` are disjoint, and each holds exactly
    ``count`` roots of the denominator B (:func:`_root_disc_radius`).  The
    computed roots of B start as one group each, in order of real then
    imaginary part; while a group's disc, for a count equal to its size, is
    infinite or meets another, the widest such group is merged with the
    group whose centre is nearest.  A group of one is polished by Newton on
    B.  A group of m is centred by Newton on B^(m-1) from the mean of its
    computed roots, which is well conditioned (Zeng, Math. Comp. 74, 2005),
    and a true m-fold root is simple there.
    """
    return list(rational._clusters or _root_clusters(rational.denominator)[0])


def _root_clusters(den: Polynomial) -> tuple[list[tuple[complex, int, float]], list[list[complex]]]:
    """The clusters of :func:`denominator_poles` for the polynomial ``den``,
    and the roots of each cluster, every one polished by Newton on ``den``."""
    if den.degree <= 0:
        return [], []
    if den.center != 0:
        den = den.recentered(0.0)
    den_prime = den.derivative()
    line = den.degree == 1 and den.coefficients[0] != 0  # np.roots of a line gives this quotient's bits, unless 0
    roots = -den.coefficients[:1] / den.coefficients[1] if line else np.roots(den.coefficients[::-1])
    groups = [[root] for root in sorted(map(complex, roots), key=lambda w: (w.real, w.imag))]
    members = [[_newton(den, den_prime, root)] for root, in groups]
    clusters = [(c, 1, _root_disc_radius(den, c, 1)) for c, in members]
    while meets := [i for i, (c, _, r) in enumerate(clusters) if any(abs(c - d) <= r + s for d, _, s in clusters[:i] + clusters[i + 1:])]:
        i = max(meets, key=lambda i: clusters[i][2])
        j = min((j for j in range(len(clusters)) if j != i), key=lambda j: abs(clusters[j][0] - clusters[i][0]))
        i, j = sorted((i, j))
        groups[i] += groups.pop(j)
        members[i] += members.pop(j)
        clusters.pop(j)
        m = len(groups[i])
        # B^(m-1) / (m-1)!, whose coefficients do not overflow for m > 170; for m = 2 the bits of B'
        scaled = den.coefficients[m - 1:] * np.array([math.comb(n + m - 1, n) for n in range(len(den.coefficients) - m + 1)], dtype=float)
        centre = _newton(Polynomial(scaled), Polynomial(_differentiated(scaled, 1)), sum(groups[i]) / m)
        clusters[i] = (centre, m, _root_disc_radius(den, centre, m))
    return clusters, members


def _taylor_moduli(poly: Polynomial, point: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Taylor coefficients beta_k of ``poly`` at a point, and lower and upper
    bounds on their moduli.

    The beta_k come from the synthetic division that ``Polynomial.recentered``
    runs, and each |beta_k| is widened by a bound on its rounding, which sums
    binomial(j, k) |b_j| |shift|^(j-k) over the coefficients b_j of poly.  A
    lower bound is NaN where both overflow.
    """
    coefficients, shift = poly.coefficients, point - poly.center
    size = len(coefficients)
    beta = _synthetic_division(coefficients, shift, size)[1]
    # the same division of the |b_j| at |shift| sums binomial(j, k) |b_j| |shift|^(j-k)
    slack = _rounding_bound(size, _synthetic_division(np.abs(coefficients), abs(shift), size)[1].real)
    with np.errstate(invalid="ignore"):
        return beta, np.abs(beta) - slack, np.abs(beta) + slack


def _rounding_bound(size: int, moduli_sum):
    """A bound on the rounding of a Horner value, or a Taylor coefficient, of a
    polynomial of ``size`` coefficients, from the same sum over their moduli."""
    return 4.0 * size * sys.float_info.epsilon * moduli_sum


def _root_disc_radius(den: Polynomial, pole: complex, mult: int) -> float:
    """A radius about a point within which lie exactly ``mult`` roots of ``den``.

    Pellet's theorem: with den = sum_k beta_k (z - pole)^k, whenever
    |beta_m| rho^m > sum_{k != m} |beta_k| rho^k exactly m roots lie in
    |z - pole| < rho, with each |beta_k| taken at its bound on the
    unfavourable side (:func:`_taylor_moduli`).  Radii are tried from the
    low-order estimate up in factors of 2; inf when none up to max(1,
    |pole|) qualifies, or once rho or a term is no longer finite.  For m =
    deg den the first radius tried qualifies (Fujiwara's bound).
    """
    _, lower, upper = _taylor_moduli(den, pole)
    size = len(upper)
    upper = upper.tolist()
    head = float(lower[mult])
    upper[mult] = 0.0
    if not head > 0.0:
        return math.inf
    limit = max(1.0, abs(pole))
    rho = max(2.0 * max((upper[k] / head) ** (1.0 / (mult - k)) for k in range(mult)),
              sys.float_info.epsilon * limit)
    try:  # a float power past the largest double raises OverflowError
        while (rho <= limit or mult == size - 1) and (rest := sum(u * rho**k for k, u in enumerate(upper))) < math.inf:
            if head * rho**mult > rest:
                return rho
            rho *= 2.0
    except OverflowError:
        pass
    return math.inf


class RationalFunction:
    """Coprime pair ``numerator / denominator`` with a monic denominator."""

    # _clusters: the denominator's root clusters as normalization found them, or None
    __slots__ = ("numerator", "denominator", "_clusters")

    def __init__(self, numerator: Polynomial, denominator: Polynomial, *, _normalized=False, _clusters=None):
        if not _normalized:
            normalized = rational_normalize(numerator, denominator)
            numerator, denominator, _clusters = normalized.numerator, normalized.denominator, normalized._clusters
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "_clusters", _clusters)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RationalFunction is immutable")

    @property
    def center(self) -> complex:
        return self.numerator.center

    def __call__(self, z):
        """The quotient at every point of an ndarray, or at a point as a one-point array."""
        if isinstance(z, np.ndarray):
            return array_quotient(self.numerator, self.denominator, z)
        return complex(array_quotient(self.numerator, self.denominator, np.array([complex(z)]))[0])

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

    D is made monic.  At each cluster (c, m, r) of :func:`denominator_poles`,
    (z - c)^k is divided out of N and D, for the largest k <= m at which the
    first k Taylor coefficients of both at c vanish (:func:`_factor_order`),
    then at each root of a cluster of m > 1 with m = 1, since a root shared
    with N sits off such a centre.  After a division the clusters of what is
    left are found again.  Idempotent.  PreconditionError where a
    coefficient modulus overflows.
    """
    if denominator.is_zero:
        raise InvalidDenominatorError("denominator is identically zero")
    numerator._check_center(denominator)
    if max(np.abs(numerator.coefficients).max(), np.abs(denominator.coefficients).max()) == math.inf:
        raise PreconditionError("a coefficient modulus of the numerator or denominator overflows")
    lead = denominator.leading_coefficient
    if lead != 1.0:
        numerator = numerator * (1.0 / lead)
        denominator = Polynomial(denominator.coefficients / lead, denominator.center)
    while True:
        clusters, members = _root_clusters(denominator)
        points = [(c, m) for c, m, _ in clusters] + [(z, 1) for roots in members if len(roots) > 1 for z in roots]
        for c, m in points:
            w = c - denominator.center
            k = _factor_order(numerator.coefficients, w, m)[0]  # D only to N's order, 0 off a shared root
            if k and (k := _factor_order(denominator.coefficients, w, k)[0]):
                numerator, denominator = (Polynomial(_synthetic_division(p.coefficients, w, k)[0], p.center) for p in (numerator, denominator))
                break
        else:
            return RationalFunction(numerator, denominator, _normalized=True, _clusters=tuple(clusters))


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


def _recentered_off_pole(denominator: Polynomial, center: complex) -> Polynomial:
    """The denominator in powers of ``(z - center)``; PoleAtCenterError when its
    value there is at most POLE_RTOL times its largest coefficient."""
    den = denominator.recentered(center)
    if abs(den.coefficients[0]) <= POLE_RTOL * den.coefficient_scale():
        raise PoleAtCenterError(f"denominator vanishes at center {center}")
    return den


def taylor_of_rational(rational: RationalFunction, center: complex, order: int) -> PowerSeries:
    """Taylor coefficients of a rational function at a regular point.

    Recenters both polynomials and runs the convolution recurrence
    ``A = B * (sum a_n w^n)``.  Raises PoleAtCenterError when the
    denominator nearly vanishes at the center.
    """
    center = complex(center)
    num = rational.numerator.recentered(center).coefficients.tolist() + [0j] * order
    b = _recentered_off_pole(rational.denominator, center).coefficients.tolist()
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
    ``geometric`` (1/(1-z)).  The latter two are singular at center 1.  A
    coefficient that overflows, or that an overflow turns into NaN, raises
    PreconditionError naming the series, the centre and the order, with no
    warning.
    """
    if order < 0:
        raise PreconditionError(f"series order must be non-negative, got {order}")
    center = complex(center)
    if not cmath.isfinite(center):
        raise PreconditionError(f"series centre must be finite, got {center!r}")
    n = np.arange(order + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if name == "exp":
            try:
                coeffs = np.full(order + 1, cmath.exp(center), dtype=complex)
            except OverflowError:
                coeffs = np.full(order + 1, math.inf, dtype=complex)
            # float(k!) overflows above k = 170; from there on divide step by step
            head = min(order, 170)
            coeffs[: head + 1] /= np.array([math.factorial(k) for k in range(head + 1)], dtype=float)
            for k in range(head + 1, order + 1):
                coeffs[k] = coeffs[k - 1] / k
        elif name == "log1m":
            if center == 1.0:
                raise SingularCenterError("log(1-z) is singular at center 1")
            coeffs = np.zeros(order + 1, dtype=complex)
            coeffs[0] = cmath.log(1.0 - center)
            w = 1.0 - center
            coeffs[1:] = -1.0 / (n[1:] * w ** n[1:])
        elif name == "geometric":
            if center == 1.0:
                raise SingularCenterError("1/(1-z) is singular at center 1")
            w = 1.0 - center
            coeffs = 1.0 / w ** (n + 1)
        else:
            raise ValueError(f"unknown builtin series {name!r}")
    if not np.isfinite(coeffs).all():
        raise PreconditionError(
            f"the {name} series at centre {center!r} overflows at order {order}: "
            f"coefficient {int(np.argmin(np.isfinite(coeffs)))} is not finite"
        )
    return PowerSeries(coeffs, center)


def values_on(f, points: np.ndarray) -> np.ndarray:
    """Values of ``f`` at an array of points, as a complex array of the same shape.

    A callable is called once, on the whole array; a scalar it returns is
    broadcast.  A number or an array is taken as is.  A non-finite entry
    (any part ``inf`` or ``nan``) stands for the point at infinity.
    """
    if callable(f):
        f = f(points)
    return np.broadcast_to(np.asarray(f, dtype=complex), points.shape)
