"""Block recursion of the structured Latin square: an independent oracle.

This is the original construction of ``latin.construct_latin_square``.
From the 1x1 matrix [[1]], each doubling step places the previous
square on the diagonal blocks and its shift by 2**(w-1) on the
off-diagonal blocks.  It shares no code with the library, which builds
the same square as the XOR table S[i, j] = (i XOR j) + 1, so tests can
check one against the other.
"""

import numpy as np


def block_square(w: int) -> np.ndarray:
    """Entries of the 2**w structured Latin square, int64."""
    block = np.array([[1]], dtype=np.int64)
    for level in range(1, w + 1):
        shifted = block + 2 ** (level - 1)
        block = np.block([[block, shifted], [shifted, block]])
    return block
