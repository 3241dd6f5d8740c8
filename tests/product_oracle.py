"""The bilinear product of a basis multiplication table, term by term.

This is the slow product behind the brute-force zero-divisor scan and
the basis-product helpers of the algebra tests.  It reads only the
table's ``signs`` and ``indices``; ``algebra.find_zero_divisors`` reads
zero divisors off the AB-BA quads instead, so tests can check one
against the other.
"""

import numpy as np

from latinhadamard.algebra import ZeroDivisorPair
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


def brute_force_zero_divisors(table) -> list:
    """Every (e_i + s1 e_j)(e_k + s2 e_l) = 0 with 2 <= i < j and 2 <= k < l.

    An unpruned scan over all index pairs and all four sign choices: each
    product is the sum of its four basis products e_a e_b, each taken
    from ``multiply``.  Listed in (i, j, k, l) order, then s1 = +1 and
    s2 = +1 first.
    """
    n = table.dim
    eye = np.eye(n, dtype=np.int64)
    # basis[a, b] = e_{a+1} e_{b+1}
    basis = np.array([[multiply(table, eye[a], eye[b]) for b in range(n)] for a in range(n)])
    found = []
    for i in range(1, n):
        for j in range(i + 1, n):
            for s1 in (1, -1):
                left = basis[i] + s1 * basis[j]  # row b: (e_i + s1 e_j) e_b
                for s2 in (1, -1):
                    zero = ~(left[:, None] + s2 * left[None, :]).any(axis=2)
                    for k, l in zip(*np.nonzero(np.triu(zero[1:, 1:], 1))):
                        found.append(ZeroDivisorPair(i + 1, j + 1, s1,
                                                     int(k) + 2, int(l) + 2, s2))
    return sorted(found, key=lambda z: (z.i, z.j, z.k, z.l, -z.s1, -z.s2))
