"""Row-pair monomial accumulator: the slow, independent design oracle.

This is the original check of the defining identity
A A' = (sum_i s_i x_i^2) I.  For every pair of rows it expands the dot
product into monomials x_a * x_b with exact integer coefficients.  It
reads only the signed entries of the design, not the coloring, the
symbol map or the AB-BA quad kernel behind ``design.verify_design``, so
tests can check one against the other.
"""

import numpy as np


def monomial_identity_holds(entries, type_vector) -> bool:
    """Entries are signed variable indices 1..l (0 for an empty cell)."""
    A = np.asarray(entries, dtype=np.int64)
    n = A.shape[0]
    l = len(type_vector)
    variables = np.abs(A)
    signs = np.sign(A)
    for r in range(n):
        for rp in range(r, n):
            acc = np.zeros((l + 1, l + 1), dtype=np.int64)
            a, b = variables[r], variables[rp]
            s = signs[r] * signs[rp]
            live = (a != 0) & (b != 0)
            lo = np.minimum(a, b)[live]
            hi = np.maximum(a, b)[live]
            np.add.at(acc, (lo, hi), s[live])
            if r == rp:
                expected = np.zeros_like(acc)
                expected[np.arange(1, l + 1), np.arange(1, l + 1)] = type_vector
                if not np.array_equal(acc, expected):
                    return False
            elif acc.any():
                return False
    return True
