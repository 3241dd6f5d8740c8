"""Exact partition of the Pearson statistic into one-degree components.

The multinomial covariance D(p) - pp' is not idempotent unless all
cells are equiprobable, but its diagonal rescaling Sigma* is, with the
square-root-probability vector spanning the kernel.  Any orthonormal
matrix whose first column is that vector therefore diagonalizes
Sigma*, and projecting the scaled residuals onto its remaining columns
splits the Pearson statistic into an exact sum of squares -- a
finite-sample identity, not an asymptotic one.  Signed Latin squares
supply such matrices symbolically for 2, 4 and 8 cells; Hadamard sign
matrices cover the equiprobable case at any power of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coloring import SignedLatinSquare, color, is_latin_hadamard
from .errors import InternalConsistencyError, ValidationError
from .latin import _exponent, _screen, construct_latin_square

__all__ = [
    "ProbabilityVector", "CellCounts", "Eigenbasis", "Decomposition",
    "pearson_x2", "scaled_residuals", "sigma", "sigma_star",
    "eigenbasis_from_latin_hadamard", "eigenbasis_from_sign_matrix",
    "decompose", "component_formulas_t2_t6_t8",
    "eigen_interlacing_check", "sylvester_hadamard",
    "canonical_signed_square_8", "alternate_signed_square_8",
]

PROBABILITY_SUM_TOL = 1e-12
# Counts are stored as int64, so their total must fit there too.
_COUNT_TOTAL_MAX = 2 ** 63 - 1
ORTHONORMALITY_TOL = 1e-12
PARTITION_REL_TOL = 1e-10
_INTERLACING_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Fully specified cell probabilities: strictly positive, summing to one."""

    p: np.ndarray

    def __init__(self, p):
        arr = _screen(p, "probabilities")
        if arr.ndim != 1 or arr.size < 2:
            raise ValidationError("need a flat vector of at least two probabilities")
        # Bounded above before the sum, which could overflow; nan fails too.
        if not all(0 < v <= 1 for v in arr.tolist()):
            raise ValidationError("cell probabilities must lie in (0, 1]")
        total = float(arr.sum())
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValidationError(f"probabilities must sum to 1 (got {total!r})")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @classmethod
    def proportional_to(cls, weights) -> "ProbabilityVector":
        arr = _screen(weights, "weights")
        with np.errstate(over="ignore", invalid="ignore"):
            total = arr.sum()
        if not math.isfinite(total):
            raise ValidationError("weights must have a finite sum")
        if total <= 0:
            raise ValidationError("weights must have a positive sum")
        return cls(arr / total)

    @classmethod
    def equiprobable(cls, k: int) -> "ProbabilityVector":
        return cls(np.full(k, 1.0 / k))

    @property
    def k(self) -> int:
        return self.p.size

    def sqrt(self) -> np.ndarray:
        return np.sqrt(self.p)


@dataclass(frozen=True, eq=False)
class CellCounts:
    """Observed multinomial cell frequencies, at least one observation in all."""

    m: np.ndarray
    n: int = field(init=False)

    def __init__(self, m):
        try:
            arr = np.asarray(m)
        except ValueError:  # ragged
            raise ValidationError("counts must be a flat vector") from None
        if arr.ndim != 1:
            raise ValidationError("counts must be a flat vector")
        # Checked as Python numbers, so that no entry and no total wraps
        # in int64 (numpy holds ints beyond int64 as floats or objects).
        values = arr.tolist()
        if arr.dtype.kind not in "iu" and not all(
                isinstance(v, int) or isinstance(v, float) and v.is_integer()
                for v in values):
            raise ValidationError("counts must be integers")
        if min(values, default=0) < 0:
            raise ValidationError("counts must be non-negative")
        n = sum(map(int, values))
        if n > _COUNT_TOTAL_MAX:
            raise ValidationError("counts must total at most 2**63 - 1")
        if n < 1:
            raise ValidationError("need at least one observation")
        arr = np.array(values, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "m", arr)
        object.__setattr__(self, "n", n)

    @property
    def k(self) -> int:
        return self.m.size


class Eigenbasis:
    """Orthonormal k x k matrix whose first column is sqrt(p).

    Columns 2..k are then automatically unit eigenvectors of the scaled
    covariance Sigma*, so projecting scaled residuals onto them yields
    the component statistics.  Orthonormality and the first column are
    validated on construction.
    """

    __slots__ = ("matrix", "p")

    def __init__(self, matrix: np.ndarray, p: ProbabilityVector):
        k = p.k
        O = _screen(matrix, "basis matrix", shape=(k, k))
        # Written as "not <=", so that a nan deviation fails too.
        gram_err = np.abs(O.T @ O - np.eye(k)).max()
        if not gram_err <= ORTHONORMALITY_TOL:
            raise ValidationError(
                f"columns are not orthonormal (max Gram deviation {gram_err:.2e})")
        col_err = np.abs(O[:, 0] - p.sqrt()).max()
        if not col_err <= ORTHONORMALITY_TOL:
            raise ValidationError(
                f"first column must be sqrt(p) (max deviation {col_err:.2e})")
        O.setflags(write=False)
        self.matrix = O
        self.p = p

    @property
    def k(self) -> int:
        return self.p.k

    def component_vectors(self) -> np.ndarray:
        """Columns 2..k as a k x (k-1) array."""
        return self.matrix[:, 1:]


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Signed components T_2..T_k whose squares sum exactly to X^2."""

    components: np.ndarray
    x2: float

    @property
    def sum_check(self) -> float:
        """X^2 minus the component sum of squares (should be ~0)."""
        return self.x2 - float(np.square(self.components).sum())


def _check_dims(m: CellCounts, p: ProbabilityVector) -> None:
    if m.k != p.k:
        raise ValidationError(f"counts have {m.k} cells but probabilities have {p.k}")


def pearson_x2(m: CellCounts, p: ProbabilityVector) -> float:
    """Sum of (observed - expected)^2 / expected over all cells."""
    _check_dims(m, p)
    return _pearson_x2(m, m.n * p.p)


def _pearson_x2(m: CellCounts, expected: np.ndarray) -> float:
    return float((np.square(m.m - expected) / expected).sum())


def scaled_residuals(m: CellCounts, p: ProbabilityVector) -> np.ndarray:
    """y_i = (m_i - n p_i) / sqrt(n p_i); satisfies y'y = X^2."""
    _check_dims(m, p)
    return _scaled_residuals(m, m.n * p.p)


def _scaled_residuals(m: CellCounts, expected: np.ndarray) -> np.ndarray:
    return (m.m - expected) / np.sqrt(expected)


def sigma(p: ProbabilityVector) -> np.ndarray:
    """Multinomial covariance D(p) - pp' (singular, rank k-1)."""
    return np.diag(p.p) - np.outer(p.p, p.p)


def sigma_star(p: ProbabilityVector) -> np.ndarray:
    """Diagonal rescaling D^{-1/2} Sigma D^{-1/2}; idempotent with
    kernel spanned by sqrt(p)."""
    d = 1.0 / np.sqrt(p.p)
    return sigma(p) * np.outer(d, d)


def eigenbasis_from_latin_hadamard(H: SignedLatinSquare,
                                   p: ProbabilityVector) -> Eigenbasis:
    """O[i,j] = sign(H[i,j]) * sqrt(p_s) with s = |H[i,j]|.

    This is the one path from a signed square to a component basis:
    ``decompose --matrix``, ``power --matrix`` and
    ``PowerSimConfig.matrix`` all come through here.  H must be
    Latin-Hadamard, and it is checked here whatever its source (a
    builtin coloring, a matrix file or a caller's square); that is
    exactly what makes O orthonormal for every probability vector.
    """
    if p.k != H.n:
        raise ValidationError(f"matrix order {H.n} does not match {p.k} cells")
    if not is_latin_hadamard(H):
        raise ValidationError("signed square is not a Latin-Hadamard matrix")
    roots = p.sqrt()
    O = H.signs * roots[H.square.entries - 1]
    return Eigenbasis(O, p)


def eigenbasis_from_sign_matrix(signs: np.ndarray,
                                p: ProbabilityVector) -> Eigenbasis:
    """Normalize a Hadamard sign matrix into an eigenbasis.

    Only valid for equiprobable p: the first column of signs/sqrt(k) is
    the constant vector 1/sqrt(k) = sqrt(1/k).
    """
    signs = _screen(signs, "sign matrix entries", -1, 1)
    return Eigenbasis(signs / math.sqrt(p.k), p)


def decompose(m: CellCounts, p: ProbabilityVector, basis: Eigenbasis) -> Decomposition:
    """Project scaled residuals onto columns 2..k of a basis built for p.

    The first-column term is omitted because it is identically zero
    (count conservation); the remaining squares sum to X^2 exactly, and
    the identity is re-checked numerically here, against X^2 summed
    directly over the cells rather than from the residuals.
    """
    _check_dims(m, p)
    if basis.p is not p and not np.array_equal(basis.p.p, p.p):
        raise ValidationError("basis was built for other cell probabilities")
    expected = m.n * p.p
    with np.errstate(over="ignore"):
        y = _scaled_residuals(m, expected)
        components = basis.component_vectors().T @ y
        x2 = _pearson_x2(m, expected)
        squares = np.square(components).sum()
    if not (math.isfinite(x2) and math.isfinite(squares)):
        raise ValidationError(
            "the Pearson statistic overflows: some expected cell counts are too small")
    if abs(x2 - squares) > PARTITION_REL_TOL * max(1.0, x2):
        raise InternalConsistencyError(
            "component squares do not reproduce the Pearson statistic")
    return Decomposition(components=components, x2=x2)


def canonical_signed_square_8() -> SignedLatinSquare:
    """The default 8x8 Latin-Hadamard matrix for component tests.

    Its columns define the T_2..T_8 statistics the power simulation
    reports by default; column 8 is a clean location contrast and
    column 6 an opposite-tails contrast.  Choice vector (-,-,+,-).
    """
    return color(construct_latin_square(3), (-1, -1, 1, -1))


def alternate_signed_square_8() -> SignedLatinSquare:
    """A sibling component basis differing in one free choice.

    Its columns 6 and 8 realize the closed-form T_6 and T_8 below
    (the canonical matrix's columns 6 and 8 differ from them in one
    pair contrast each).  Both bases partition the Pearson statistic;
    the power-study reproduction needs both.  Choice vector (-,-,-,-).
    """
    return color(construct_latin_square(3), (-1, -1, -1, -1))


def _weighted_difference(p_hat, p, a, b) -> float:
    """sqrt(p_b/p_a) * p_hat_a - sqrt(p_a/p_b) * p_hat_b (1-based cells)."""
    a -= 1
    b -= 1
    return (math.sqrt(p[b] / p[a]) * p_hat[a]
            - math.sqrt(p[a] / p[b]) * p_hat[b])


def component_formulas_t2_t6_t8(m: CellCounts, p: ProbabilityVector):
    """Direct weighted-difference evaluation of T_2, T_6, T_8 at k = 8.

    T_2 equals the projection of the scaled residuals onto column 2 of
    the canonical matrix; T_6 and T_8 equal the projections onto
    columns 6 and 8 of the alternate matrix.  Each is a sum of four
    weighted differences of sample proportions, one per cell pair, so
    every cell count enters exactly once.
    """
    _check_dims(m, p)
    if p.k != 8:
        raise ValidationError("the closed-form components are defined for 8 cells")
    p_hat = m.m / m.n
    root_n = math.sqrt(m.n)
    pv = p.p
    t2 = root_n * (_weighted_difference(p_hat, pv, 1, 2)
                   + _weighted_difference(p_hat, pv, 3, 4)
                   + _weighted_difference(p_hat, pv, 5, 6)
                   + _weighted_difference(p_hat, pv, 7, 8))
    t6 = root_n * (_weighted_difference(p_hat, pv, 1, 6)
                   + _weighted_difference(p_hat, pv, 2, 5)
                   - _weighted_difference(p_hat, pv, 3, 8)
                   + _weighted_difference(p_hat, pv, 4, 7))
    t8 = root_n * (_weighted_difference(p_hat, pv, 1, 8)
                   - _weighted_difference(p_hat, pv, 2, 7)
                   + _weighted_difference(p_hat, pv, 3, 6)
                   + _weighted_difference(p_hat, pv, 4, 5))
    return t2, t6, t8


def eigen_interlacing_check(p: ProbabilityVector) -> bool:
    """Nonzero eigenvalues of the covariance interlace the sorted cell
    probabilities: p_(1) <= lambda_1 <= p_(2) <= ... <= lambda_(k-1) <= p_(k)."""
    eigenvalues = np.linalg.eigvalsh(sigma(p))
    nonzero = eigenvalues[1:]
    sorted_p = np.sort(p.p)
    lower = sorted_p[:-1] - _INTERLACING_TOL
    upper = sorted_p[1:] + _INTERLACING_TOL
    return bool(((nonzero >= lower) & (nonzero <= upper)).all())


def sylvester_hadamard(w: int) -> np.ndarray:
    """Standard-form +/-1 matrix of order 2**w via [[H, H], [H, -H]], w <= SQUARE_MAX_W."""
    H = np.array([[1]], dtype=np.int64)
    for _ in range(_exponent(w)):
        H = np.block([[H, H], [H, -H]])
    H.setflags(write=False)
    return H
