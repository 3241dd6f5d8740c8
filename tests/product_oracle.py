"""The bilinear product of a basis multiplication table, term by term.

This is the slow product behind the brute-force zero-divisor scan and
the basis-product helpers of the algebra tests.  It reads only the
table's ``signs`` and ``indices``; ``algebra.find_zero_divisors`` reads
zero divisors off the AB-BA quads instead, so tests can check one
against the other.
"""

import numpy as np

from latinhadamard.latin import _screen


def multiply(table, a, b) -> np.ndarray:
    """Product of integer coefficient vectors a and b in ``table``, exact.

    Coefficients go through the library's screen as integers bounded by
    2**26, so each product is at most 2**52 and a sum of dim**2 <= 2**10
    of them fits in int64: a fraction or a huge value is rejected, never
    truncated or wrapped.
    """
    a, b = (_screen(v, "coefficient vectors", -2 ** 26, 2 ** 26, (table.dim,)) for v in (a, b))
    out = np.zeros(table.dim, dtype=np.int64)
    for i in np.nonzero(a)[0]:
        for j in np.nonzero(b)[0]:
            out[table.indices[i, j] - 1] += a[i] * b[j] * table.signs[i, j]
    return out
