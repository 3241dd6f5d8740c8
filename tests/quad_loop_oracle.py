"""Per-quad loops over the AB-BA quad frame: the reference conversions.

These are the original forms of ``algebra.find_zero_divisors`` and
``latin.enumerate_abba_quads``, which build one named tuple per quad in
a Python loop, with Python scalars.  The library now converts all
later zero divisors, and all quads, in one array each; both read the
same frame and decision, so tests can check the conversion item by
item, field types included, against these loops.
"""

from latinhadamard import InternalConsistencyError
from latinhadamard.algebra import ZeroDivisorPair
from latinhadamard.latin import CornerQuad, _quad_frame


def loop_zero_divisors(table):
    """``find_zero_divisors(table)``, one quad at a time."""
    G = table.signs
    quads, _, unit_free, product, _, first = table._signed._decision
    if first == len(quads):
        return
    a, b, c, d = quads[first].tolist()
    sign = int(G[b, c] * G[a, d])
    yield ZeroDivisorPair(a + 1, b + 1, 1, c + 1, d + 1, -sign)
    yield ZeroDivisorPair(a + 1, b + 1, -1, c + 1, d + 1, sign)
    rest = quads[unit_free[product[unit_free] == 1][1:]]
    i, j, k, l = rest.T
    for (a, b, c, d), sign in zip(rest.tolist(), (G[j, k] * G[i, l]).tolist()):
        for s1 in (1, -1):
            yield ZeroDivisorPair(a + 1, b + 1, s1, c + 1, d + 1, -s1 * sign)


def loop_abba_quads(square):
    """``enumerate_abba_quads(square)``, one quad at a time."""
    S = square.entries
    quads, open_corners = _quad_frame(S.T.tobytes(), square.n)[:2]
    if len(open_corners):
        raise InternalConsistencyError(
            "AB-BA partner missing; the square does not have the corner property")
    for j1, j2, i1, i2 in quads.tolist():
        yield CornerQuad(i1 + 1, j1 + 1, i2 + 1, j2 + 1, int(S[i1, j1]), int(S[i1, j2]))
