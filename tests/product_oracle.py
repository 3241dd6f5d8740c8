"""The bilinear product of a basis multiplication table, and a brute-force
zero-divisor scan.

``multiply`` is the slow product, term by term, behind the basis-product
helpers of the algebra tests; the scan reads the same basis products off
the table at once.  Both read only the table's ``signs`` and
``indices``; ``algebra.find_zero_divisors`` reads zero divisors off the
AB-BA quads instead, so tests can check one against the other.
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


def basis_products(table) -> np.ndarray:
    """basis[c, a, b] is the coefficient of e_{c+1} in e_{a+1} e_{b+1},
    read off the table by its definition: signs[a, b] where
    indices[a, b] = c + 1, else 0.  ``multiply`` on two basis vectors
    gives the same."""
    symbols = np.arange(1, table.dim + 1)[:, None, None]
    return (table.indices == symbols) * table.signs


def scan_zero_divisors(table):
    """Yield every (e_i + s1 e_j)(e_k + s2 e_l) = 0 with 2 <= i < j and 2 <= k < l.

    An unpruned scan over all index pairs and all four sign choices: each
    product is the sum of its four basis products e_a e_b, each taken
    from ``basis_products``.  Yielded in (i, j, k, l) order, then
    s1 = +1 and s2 = +1 first; each i is scanned only when the caller
    reads past the pairs of the i before it, so the first pair is cheap.
    """
    n = table.dim
    # Entries are 0 or +/-1 and a product sums four of them, so int8 is
    # exact; the coefficient axis comes first, so the test for zero
    # reduces over whole slabs.
    basis = basis_products(table).astype(np.int8)
    sign = np.array([1, -1], dtype=np.int8)
    upper = np.triu(np.ones((n - 1, n - 1), dtype=bool), 1)
    for i in range(1, n):
        # left[:, j - i - 1, s1, b] = (e_i + s1 e_j) e_b, for every j > i
        left = basis[:, i, None, None] + sign[:, None] * basis[:, i + 1:, None]
        # product[:, ., s1, s2, k, l] = (e_i + s1 e_j) e_k + s2 (e_i + s1 e_j) e_l
        product = (left[:, :, :, None, :, None] +
                   sign[:, None, None] * left[:, :, :, None, None, :])
        zero = ~product.any(axis=0)[..., 1:, 1:] & upper
        j, a, b, k, l = np.nonzero(zero)
        for t in np.lexsort((b, a, l, k, j)).tolist():
            yield ZeroDivisorPair(i + 1, i + int(j[t]) + 2, int(sign[a[t]]), int(k[t]) + 2,
                                  int(l[t]) + 2, int(sign[b[t]]))


def brute_force_zero_divisors(table) -> list:
    """All of ``scan_zero_divisors``, as a list in the same order."""
    return list(scan_zero_divisors(table))
