import numpy as np
import pytest

# Long double for the test oracle divide_series_ext only; the library
# computes in double on every platform.
COMPLEX_EXT = getattr(np, "complex256", complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20240101)


def complex_normal(rng, n):
    """Standard complex normal samples."""
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def divide_series_ext(num, den, order):
    """Oracle: Taylor coefficients of num/den by the convolution recurrence.

    Runs in long double where the platform has one, so it measures the
    coefficient pair itself rather than double-precision recurrence
    roundoff.  It is a test oracle, not a library path.
    """
    a = np.zeros(order + 1, dtype=COMPLEX_EXT)
    nc = num.coefficients.astype(COMPLEX_EXT)
    dc = den.coefficients.astype(COMPLEX_EXT)
    for n in range(order + 1):
        acc = nc[n] if n < len(nc) else COMPLEX_EXT(0.0)
        for m in range(1, min(n, len(dc) - 1) + 1):
            acc -= dc[m] * a[n - m]
        a[n] = acc / dc[0]
    return a.astype(complex)
