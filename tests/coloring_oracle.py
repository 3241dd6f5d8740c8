"""Entry-by-entry sign propagation: the slow, independent coloring oracle.

This is the original coloring procedure.  Each free choice colors one
entry of the new block column and propagates around its alternating
six-entry cycle; the remaining blocks follow from AB-BA corners and
antisymmetry, one entry at a time, and any conflicting assignment is
an error.  It shares no code with the library's closed-form sign
doubling in ``coloring.color``, so tests can check one against the
other.
"""

import numpy as np

from latinhadamard import InternalConsistencyError


def _assign(signs: np.ndarray, i: int, j: int, value: int) -> None:
    current = signs[i, j]
    if current == 0:
        signs[i, j] = value
    elif current != value:
        raise InternalConsistencyError(
            f"sign propagation conflict at entry ({i + 1}, {j + 1})")


def propagate_signs(square, choices) -> np.ndarray:
    """The n x n sign matrix of the coloring, by propagation.

    Choices are consumed level by level (doubling level 2 upward), then
    by increasing row index within the level.
    """
    w, n = square.w, square.n
    choices = tuple(int(c) for c in choices)
    S = square.entries
    signs = np.zeros((n, n), dtype=np.int64)
    signs[0, :] = 1
    signs[:, 0] = 1
    for i in range(1, n):
        signs[i, i] = -1

    pos = 0
    for level in range(2, w + 1):
        h = 2 ** (level - 1)
        # Free choices sit at (row i, column h) for i = 1..h-1 (0-based);
        # each propagates around its alternating six-entry cycle.
        for i in range(1, h):
            c = choices[pos]
            pos += 1
            _assign(signs, i, h, c)
            _assign(signs, i, h + i, -c)
            _assign(signs, h, h + i, c)
            _assign(signs, h, i, -c)
            _assign(signs, h + i, i, c)
            _assign(signs, h + i, h, -c)

        # Lower-left block: complete each uncolored entry from the AB-BA
        # quad through column h, whose three other corners are colored.
        partner_row = {int(S[r, h]): r for r in range(h)}
        for i in range(h):
            r = h + i
            for j in range(1, h):
                if signs[r, j] != 0:
                    continue
                ip = partner_row[int(S[r, j])]
                if S[ip, j] != S[r, h]:
                    raise InternalConsistencyError(
                        "AB-BA value pattern broken in lower-left fill")
                _assign(signs, r, j, -signs[ip, j] * signs[ip, h] * signs[r, h])

        # Upper-right block: antisymmetric to the lower-left block.
        for i in range(1, h):
            for j in range(1, h):
                _assign(signs, i, h + j, -signs[h + j, i])

        # Lower-right block: AB-BA quads against the two filled blocks.
        for i in range(1, h):
            r = h + i
            for j in range(1, h):
                cpos = h + j
                if signs[r, cpos] != 0:
                    continue
                _assign(signs, r, cpos,
                        -signs[i, j] * signs[i, cpos] * signs[r, j])

    if (signs == 0).any():
        raise InternalConsistencyError("coloring left uncolored entries")
    return signs
