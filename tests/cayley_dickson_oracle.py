"""Quadrant doubling of the Cayley-Dickson table: an independent oracle.

This is the original construction of ``algebra.cayley_dickson_table``.
It doubles the signs and the indices quadrant by quadrant from the rule
(a, b)(c, d) = (a c - conj(d) b, d a + b conj(c)), with conjugation
negating every non-unit coordinate.  It shares no code with the
library, which builds the same table as the all-plus coloring
``color(construct_latin_square(m), (1,) * num_free_choices(m))``, so
tests can check one against the other.
"""

import numpy as np


def doubling_table(m: int):
    """(signs, indices) of the 2**m-dimensional doubling algebra.

    e_i * e_j = signs[i, j] * e_{indices[i, j]}, 1-based labels.
    """
    signs = np.array([[1]], dtype=np.int64)
    indices = np.array([[1]], dtype=np.int64)
    for _ in range(int(m)):
        h = signs.shape[0]
        conj = np.full(h, -1, dtype=np.int64)
        conj[0] = 1
        # Quadrants, left factor by row, right factor by column:
        #   (a,0)(c,0) = (ac, 0)      (a,0)(0,d) = (0, da)
        #   (0,b)(c,0) = (0, b conj(c))   (0,b)(0,d) = (-conj(d) b, 0)
        signs = np.block([
            [signs, signs.T],
            [signs * conj[None, :], -(signs.T * conj[None, :])],
        ])
        indices = np.block([
            [indices, indices.T + h],
            [indices + h, indices.T],
        ])
    return signs, indices
