"""The numpy Durbin-Levinson recursion that the compiled ACF kernel replaced,
and a pure-Python lag sum in the kernel's order.

Kept as the references that ``tests/test_acf_kernel.py`` compares the kernel
with: ``lag_sums`` is the chunked sum the kernel must reproduce bit for bit,
and ``pacf_from_acf`` is the former ``dependence.pacf_from_acf``, whose dot
products numpy hands to BLAS and so sums in another order.
"""

import numpy as np

#: terms per chunk of a lag sum, as in ``_acf.c``
CHUNK = 128


def lag_sums(xc, first: int, last: int) -> list[float]:
    """sum_t xc[t] * xc[t+k] at lags k = first..last: each chunk of CHUNK
    consecutive t summed in order from zero, and the chunk sums in order."""
    values = [float(v) for v in xc]
    n = len(values)
    out = []
    for k in range(first, last + 1):
        total = 0.0
        for start in range(0, n - k, CHUNK):
            chunk = 0.0
            for t in range(start, min(start + CHUNK, n - k)):
                chunk += values[t] * values[t + k]
            total += chunk
        out.append(total)
    return out


def pacf_from_acf(r: np.ndarray) -> np.ndarray:
    """Durbin-Levinson recursion mapping autocorrelations to partials."""
    m = r.size
    phi = np.empty(m)
    a = np.empty(m)  # current AR(k) coefficients
    phi[0] = a[0] = r[0]
    for k in range(2, m + 1):
        num = r[k - 1] - a[: k - 1] @ r[k - 2 :: -1]
        den = 1.0 - a[: k - 1] @ r[: k - 1]
        if abs(den) < 1e-12:
            raise ZeroDivisionError(f"Durbin-Levinson denominator {den:.3e} at order {k}")
        pk = num / den
        a[: k - 1] = a[: k - 1] - pk * a[k - 2 :: -1]
        a[k - 1] = pk
        phi[k - 1] = pk
    return phi
