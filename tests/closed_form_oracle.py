"""Closed-form component and Pearson sums: the slow, independent chisq oracle.

The closed forms of T_2, T_6 and T_8 at eight cells are sums of
weighted differences of sample proportions, written out cell pair by
cell pair, and the Pearson statistic and scaled residuals are plain
loops over the cells.  None of them builds a basis or calls
``chisq.decompose``, so tests can check its projection and its X^2
against them.
"""

import math

from latinhadamard import CellCounts, ProbabilityVector, ValidationError


def loop_pearson_x2(m: CellCounts, p: ProbabilityVector) -> float:
    """Sum of (observed - expected)^2 / expected, one cell at a time."""
    total = 0.0
    for count, q in zip(m.m.tolist(), p.p.tolist()):
        expected = m.n * q
        total += (count - expected) ** 2 / expected
    return total


def loop_scaled_residuals(m: CellCounts, p: ProbabilityVector) -> list:
    """y_i = (m_i - n p_i) / sqrt(n p_i), one cell at a time."""
    return [(count - m.n * q) / math.sqrt(m.n * q)
            for count, q in zip(m.m.tolist(), p.p.tolist())]


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
    if m.k != p.k:
        raise ValidationError(f"counts have {m.k} cells but probabilities have {p.k}")
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
