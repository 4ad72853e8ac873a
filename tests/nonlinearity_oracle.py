"""An extended-precision reference for ``distributional.nonlinearity``.

Both least-squares fits are computed in ``np.longdouble`` (a 64-bit mantissa
on x86, 11 bits more than float64) from the float64 values of the
standardized series. The monomials are formed in long double, and each
regressor is orthogonalised twice against those before it (classical
Gram-Schmidt with one reorthogonalisation), which keeps the basis orthogonal
to working precision. A regressor whose remainder falls below ``dependent``
of its own length lies in the span of those before it and is skipped.
"""

import numpy as np


def _remove(v, basis):
    for _ in range(2):
        for q in basis:
            v = v - np.sum(q * v) * q
    return v


def nonlinearity(x, dependent: float = 1e-10):
    """10 * R^2 of the auxiliary fit of the nonlinearity test, as a long
    double, for a series whose three lag regressors are independent."""
    x = np.asarray(x, dtype=np.longdouble)
    y, z1, z2 = x[2:], x[1:-1], x[:-2]
    columns = [np.ones_like(y), z1, z2, z1 * z1, z1 * z2, z2 * z2,
               z1 * z1 * z1, z1 * z1 * z2, z1 * z2 * z2, z2 * z2 * z2]
    basis = []
    for k, column in enumerate(columns):
        v = _remove(column, basis)
        length = np.sqrt(np.sum(v * v))
        if length > dependent * np.sqrt(np.sum(column * column)):
            basis.append(v / length)
        elif k < 3:
            raise ValueError("collinear lag regressors")
    linear = _remove(y, basis[:3])
    auxiliary = _remove(y, basis)
    return 10.0 * (1.0 - np.sum(auxiliary * auxiliary) / np.sum(linear * linear))
