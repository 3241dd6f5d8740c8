"""Symbolic Gram of a signed Latin square: the slow, independent oracle.

Each column dot product is expanded into monomials x_a * x_b with exact
integer coefficients by a pairwise accumulator.  It shares no code with
the library's AB-BA quad kernel, so tests can check that kernel
against it.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SymbolicGram:
    """Exact monomial coefficients of all pairwise column dot products.

    coefficients maps ((j, j'), (a, b)) -> integer coefficient of the
    monomial x_a * x_b in the dot product of columns j <= j' (1-based).
    Only nonzero coefficients are stored.
    """

    n: int
    coefficients: dict

    def coefficient(self, column_pair, value_pair) -> int:
        j, jp = sorted(column_pair)
        a, b = sorted(value_pair)
        return self.coefficients.get(((j, jp), (a, b)), 0)

    def off_diagonal_zero(self) -> bool:
        return all(j == jp for ((j, jp), _pair) in self.coefficients)


def pair_coefficients(values_a, values_b, sign_products, n) -> np.ndarray:
    """Exact integer coefficients of x_a*x_b monomials for one dot product."""
    acc = np.zeros((n + 1, n + 1), dtype=np.int64)
    lo = np.minimum(values_a, values_b)
    hi = np.maximum(values_a, values_b)
    np.add.at(acc, (lo, hi), sign_products)
    return acc


def symbolic_gram(H, rows: bool = False) -> SymbolicGram:
    """Full symbolic Gram over the columns (or rows) of H.

    No floating point is involved, so a zero here is a proof of
    orthogonality for every substitution of the symbols.
    """
    S, G = H.square.entries, H.signs
    if rows:
        S, G = S.T, G.T
    n = H.n
    coefficients = {}
    for j in range(n):
        for jp in range(j, n):
            acc = pair_coefficients(S[:, j], S[:, jp], G[:, j] * G[:, jp], n)
            for a, b in zip(*np.nonzero(acc)):
                coefficients[((j + 1, jp + 1), (int(a), int(b)))] = int(acc[a, b])
    return SymbolicGram(n=n, coefficients=coefficients)


def gram_pairs_orthogonal(H, rows: bool = False) -> bool:
    """True iff every column pair (or row pair) of H has a zero symbolic
    dot product; stops at the first nonzero one."""
    S, G = H.square.entries, H.signs
    if rows:
        S, G = S.T, G.T
    for j in range(H.n):
        for jp in range(j + 1, H.n):
            if pair_coefficients(S[:, j], S[:, jp], G[:, j] * G[:, jp], H.n).any():
                return False
    return True


def gram_is_latin_hadamard(H) -> bool:
    """True iff every column pair and every row pair has a zero symbolic
    dot product; stops at the first nonzero one."""
    return gram_pairs_orthogonal(H) and gram_pairs_orthogonal(H, rows=True)
