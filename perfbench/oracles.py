"""Correctness oracles that do not call the kernel they check.

Each check recomputes a property from raw arrays with a different
method than the package uses: orthogonality by exact evaluation at
random integer points instead of monomial expansion, zero divisors by
expanding the four signed basis products directly, the design identity
by substitution, and the chi-square partition against a Pearson
statistic computed here from the counts.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def random_points(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    """Integer points in [1, 2**26) at which polynomial identities are tested.

    With entries below 2**26 a sum of 32 products stays below 2**63, so
    int64 arithmetic is exact.
    """
    return rng.integers(1, 2 ** 26, size=(count, size), dtype=np.int64)


def orthogonal_at_points(symbols: np.ndarray, signs: np.ndarray,
                         points: np.ndarray) -> bool:
    """True iff rows and columns of the signed symbol matrix are orthogonal
    at every point.

    Symbolic orthogonality implies a zero here; a nonzero polynomial of
    degree 2 vanishes at one random point below 2**26 with probability at
    most 2**-25 (Schwartz-Zippel), and at all of several points with the
    product of those.
    """
    n = symbols.shape[0]
    off = ~np.eye(n, dtype=bool)
    for x in points:
        M = signs * x[: n][symbols - 1]
        if (M.T @ M)[off].any() or (M @ M.T)[off].any():
            return False
    return True


def all_zero_divisors(signs: np.ndarray, symbols: np.ndarray,
                      pairs: np.ndarray) -> bool:
    """(e_i + s1 e_j)(e_k + s2 e_l) == 0 for every row (i, j, s1, k, l, s2).

    Indices are 1-based; each product is expanded from the table's sign
    and symbol arrays.
    """
    if pairs.size == 0:
        return True
    i, j, s1, k, l, s2 = (pairs[:, c] for c in range(6))
    i, j, k, l = i - 1, j - 1, k - 1, l - 1
    n = signs.shape[0]
    acc = np.zeros((pairs.shape[0], n), dtype=np.int64)
    rows = np.arange(pairs.shape[0])
    for r, c, coeff in ((i, k, 1), (i, l, s2), (j, k, s1), (j, l, s1 * s2)):
        np.add.at(acc, (rows, symbols[r, c] - 1), coeff * signs[r, c])
    return not acc.any()


def is_latin(entries: np.ndarray) -> bool:
    n = entries.shape[0]
    symbols = np.arange(1, n + 1)
    return (entries.shape == (n, n)
            and (np.sort(entries, axis=0) == symbols[:, None]).all()
            and (np.sort(entries, axis=1) == symbols[None, :]).all())


def quads_valid(entries: np.ndarray, quads) -> bool:
    """Every quad is an AB-BA corner, and no quad repeats."""
    seen = set()
    for q in quads:
        key = (q.i1, q.i2, q.j1, q.j2)
        S = entries
        if (key in seen or not (q.i1 < q.i2 and q.j1 < q.j2)
                or S[q.i1 - 1, q.j1 - 1] != q.a or S[q.i2 - 1, q.j2 - 1] != q.a
                or S[q.i1 - 1, q.j2 - 1] != q.b or S[q.i2 - 1, q.j1 - 1] != q.b):
            return False
        seen.add(key)
    return True


def design_identity_holds(entries: np.ndarray, type_vector, points: np.ndarray) -> bool:
    """A A' == (sum_i s_i x_i^2) I at each point, in exact integers."""
    A = np.asarray(entries)
    n = A.shape[0]
    l = len(type_vector)
    for x in points:
        vals = np.where(A != 0, np.sign(A) * x[: l][np.abs(A) - 1], 0)
        expected = int(np.dot(type_vector, x[: l] ** 2))
        if not np.array_equal(vals @ vals.T, expected * np.eye(n, dtype=np.int64)):
            return False
    return True


def pearson(m: np.ndarray, p: np.ndarray) -> float:
    total = float(m.sum())
    return float(sum((mi - total * pi) ** 2 / (total * pi) for mi, pi in zip(m, p)))


def check_partition(x2: float, components, m: np.ndarray, p: np.ndarray,
                    sum_check: float) -> None:
    """X^2 from the library equals Pearson here, equals sum T_l^2, and the
    reported sum_check is that difference."""
    expected = pearson(m, p)
    scale = max(1.0, expected)
    squares = float(np.square(np.asarray(components, dtype=float)).sum())
    require(len(components) == p.size - 1,
            f"expected {p.size - 1} components, got {len(components)}")
    require(abs(x2 - expected) <= 1e-9 * scale,
            f"X2 {x2!r} differs from Pearson {expected!r}")
    require(abs(squares - expected) <= 1e-10 * scale,
            f"sum of squared components {squares!r} differs from X2 {expected!r}")
    require(math.isfinite(sum_check) and abs(sum_check) <= 1e-10 * scale,
            f"sum_check {sum_check!r} is not ~0")


def check_basis(matrix: np.ndarray, p: np.ndarray) -> None:
    k = p.size
    require(matrix.shape == (k, k), f"basis shape {matrix.shape} for {k} cells")
    require(np.abs(matrix.T @ matrix - np.eye(k)).max() <= 1e-12,
            "basis columns are not orthonormal")
    require(np.abs(matrix[:, 0] - np.sqrt(p)).max() <= 1e-12,
            "first basis column is not sqrt(p)")
