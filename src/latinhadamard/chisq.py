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

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .coloring import SignedLatinSquare, choices_from_bitstring, color, is_latin_hadamard
from .errors import InternalConsistencyError, SizeError, ValidationError
from .latin import SQUARE_MAX_W, _exponent, _screen, construct_latin_square

__all__ = [
    "ProbabilityVector", "CellCounts", "Eigenbasis", "Decomposition",
    "sigma", "sigma_star", "eigenbasis_from_latin_hadamard", "eigenbasis_from_sign_matrix",
    "decompose", "eigen_interlacing_check", "sylvester_hadamard",
    "canonical_signed_square_8", "alternate_signed_square_8",
]

PROBABILITY_SUM_TOL = 1e-12
# Counts are stored as int64, so their total must fit there too.
_COUNT_TOTAL_MAX = 2 ** 63 - 1
ORTHONORMALITY_TOL = 1e-12
PARTITION_REL_TOL = 1e-10
_INTERLACING_TOL = 1e-9
_OVERFLOW_MESSAGE = "the Pearson statistic overflows: some expected cell counts are too small"


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
        """k equal probabilities, k an integer in 2..2**SQUARE_MAX_W (the largest basis)."""
        if isinstance(k, numbers.Real) and k > 2 ** SQUARE_MAX_W:
            raise SizeError(f"cell count is limited to 2**{SQUARE_MAX_W}, got {k!r}")
        if not (isinstance(k, numbers.Real) and k >= 2 and int(k) == k):
            raise ValidationError(f"cell count must be an integer of at least 2, got {k!r}")
        return cls(np.full(int(k), 1.0 / k))

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


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Signed components T_2..T_k whose squares sum exactly to X^2."""

    components: np.ndarray
    x2: float

    @property
    def sum_check(self) -> float:
        """X^2 minus the component sum of squares (should be ~0)."""
        return self.x2 - float(np.square(self.components).sum())


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
    ``decompose --matrix`` and ``power --matrix`` both build their basis
    here, as a caller does for ``decompose`` or ``PowerSimConfig.basis``.  H must be
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


def _pearson_components(counts: np.ndarray, n: int, basis: Eigenbasis):
    """(X^2 summed over the cells, T_2..T_k) of counts of shape (..., k) totalling n."""
    expected = n * basis.p.p
    deviation = counts - expected
    x2 = (deviation ** 2 / expected).sum(-1)
    return x2, (deviation / np.sqrt(expected)) @ basis.matrix[:, 1:]


def decompose(m: CellCounts, p: ProbabilityVector, basis: Eigenbasis) -> Decomposition:
    """Project the scaled residuals y_i = (m_i - n p_i) / sqrt(n p_i) onto
    columns 2..k of a basis built for p.

    The first-column term is omitted because it is identically zero
    (count conservation); the remaining squares sum to X^2 exactly, and
    the identity is re-checked numerically here, against X^2 summed
    directly over the cells rather than from the residuals.
    """
    if m.k != p.k:
        raise ValidationError(f"counts have {m.k} cells but probabilities have {p.k}")
    if basis.p is not p and not np.array_equal(basis.p.p, p.p):
        raise ValidationError("basis was built for other cell probabilities")
    with np.errstate(over="ignore"):
        x2, components = _pearson_components(m.m, m.n, basis)
        x2 = float(x2)
        squares = np.square(components).sum()
    if not (math.isfinite(x2) and math.isfinite(squares)):
        raise ValidationError(_OVERFLOW_MESSAGE)
    if abs(x2 - squares) > PARTITION_REL_TOL * max(1.0, x2):
        raise InternalConsistencyError(
            "component squares do not reproduce the Pearson statistic")
    return Decomposition(components=components, x2=x2)


@functools.cache
def _builtin_square(index: int) -> SignedLatinSquare:
    """Coloring ``index`` of the 8x8 square, built once per process.

    All 16 colorings of the 8x8 square are Latin-Hadamard, so the i-th
    valid matrix in enumeration order is coloring i itself.  Callers
    check 0 <= index < 16 first, which bounds the cache at 16 squares;
    each is immutable, so sharing it between calls is safe.
    """
    return color(construct_latin_square(3), choices_from_bitstring(format(index, "04b")))


def canonical_signed_square_8() -> SignedLatinSquare:
    """The default 8x8 Latin-Hadamard matrix for component tests.

    Its columns define the T_2..T_8 statistics the power simulation
    reports by default; column 8 is a clean location contrast and
    column 6 an opposite-tails contrast.  Shared: coloring 13, (-,-,+,-).
    """
    return _builtin_square(0b1101)


def alternate_signed_square_8() -> SignedLatinSquare:
    """A sibling component basis differing in one free choice.

    Its columns 6 and 8 realize the closed-form T_6 and T_8
    (the canonical matrix's columns 6 and 8 differ from them in one
    pair contrast each).  Both bases partition the Pearson statistic;
    the power-study reproduction needs both.  Shared: coloring 15, (-,-,-,-).
    """
    return _builtin_square(0b1111)


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
