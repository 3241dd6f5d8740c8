"""Sign assignments ("colorings") of the structured Latin square.

A coloring attaches +/-1 to every entry of the square so that each
column is orthogonal to the first column and each row to the first
row, when the symbols 1..n are read as independent indeterminates.
The free choices live on part of one column per doubling level;
everything else follows, block by block, from the AB-BA corner
relation and antisymmetry (see :func:`color`).

Orthogonality of *all* column pairs is then a property to be checked,
not a given: it holds for every coloring at n = 4 and n = 8 and for
none at n = 16.  The check reads one sign product per AB-BA quad
(latin._decide) over exact integers, so the negative result at n = 16
is bit-exact.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import SizeError, ValidationError
from .latin import (SQUARE_MAX_W, LatinSquare, _decide, _integer, _quad_order, _screen,
                    _square_order, construct_latin_square)

__all__ = [
    "SignedLatinSquare", "num_free_choices",
    "choices_from_bitstring", "choices_to_bitstring", "color",
    "enumerate_colorings", "is_latin_hadamard",
]

EXHAUSTIVE_MAX_W = 4


def _check_signs(sgn: np.ndarray) -> None:
    """+/-1 entries, positive first row and column, negative diagonal, in
    one n x n sign matrix or in a stack of them along a leading axis."""
    if not (np.abs(sgn) == 1).all():
        raise ValidationError("sign matrix entries must be +1 or -1")
    if not (sgn[..., 0, :] == 1).all() or not (sgn[..., :, 0] == 1).all():
        raise ValidationError("first row and first column must be positive")
    n = sgn.shape[-1]
    if not (sgn.reshape(sgn.shape[:-2] + (n * n,))[..., n + 1::n + 1] == -1).all():
        raise ValidationError("diagonal entries below row one must be negative")


class SignedLatinSquare:
    """A Latin square together with a +/-1 sign for each entry.

    It is built from its signed entries H[i,j] = signs[i,j] * S[i,j]:
    |H| is the underlying square and sign(H) the signs.  First row and
    first column are positive and the diagonal below row one is negative,
    as produced by the coloring procedure, and checked when the square
    is built from entries.  ``choices`` is None unless the square came
    from :func:`color` or :func:`enumerate_colorings`, whose signs were
    checked where they were doubled.

    Its checks are decided once, by :func:`latin._decide`, and kept: the
    quad products, the Latin-Hadamard verdict and the hits, the unit-free
    quads with product +1.  All colorings of one w share one decision
    (:func:`_coloring_decision`); any other square decides from its own
    signs.  Both are made on first use.
    """

    __slots__ = ("square", "signs", "choices", "_checks")

    def __init__(self, entries):
        n, raw = _square_order(entries, "signed matrix entries")
        arr = _screen(raw, "signed matrix entries", -n, n, (n, n))
        sgn = np.sign(arr)
        _check_signs(sgn)
        sgn.setflags(write=False)
        self.square, self.signs, self.choices = LatinSquare(np.abs(arr)), sgn, None
        self._checks = None

    @classmethod
    def _checked_block(cls, square: LatinSquare, signs: np.ndarray, choices):
        """One signed square per (signs[c], choices[c]), taken as given.

        signs is an (m, n, n) int64 block whose signs the caller checked
        where it doubled them; the squares share its memory read-only.
        """
        signs.setflags(write=False)
        out = []
        for sgn, chosen in zip(signs, choices):
            H = cls.__new__(cls)
            H.square, H.signs, H.choices, H._checks = square, sgn, chosen, None
            out.append(H)
        return out

    @property
    def _decision(self):
        """:func:`_decide` of this square, kept from first use; a coloring
        reads the one decision its w shares."""
        if self._checks is None:
            self._checks = (_decide(self.square, self.signs) if self.choices is None
                            else _coloring_decision(self.w))
        return self._checks

    @property
    def n(self) -> int:
        return self.square.n

    @property
    def w(self) -> int:
        return self.square.w

    def signed_entries(self) -> np.ndarray:
        """The matrix of signed symbols, entries in {-n..-1, 1..n}."""
        return self.signs * self.square.entries

    def to_tuple(self) -> tuple[tuple[int, ...], ...]:
        """Canonical row-major serialization of the signed entries."""
        return tuple(tuple(int(v) for v in row) for row in self.signed_entries())

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, SignedLatinSquare)
                                 and self.square == other.square
                                 and bool(np.array_equal(self.signs, other.signs)))

    def __hash__(self) -> int:
        return hash((self.square, self.signs.tobytes()))

    def __repr__(self) -> str:
        return f"SignedLatinSquare(w={self.w}, choices={self.choices})"


@functools.lru_cache(maxsize=8)
def _coloring_decision(w: int):
    """:func:`_decide` of the all-plus coloring of the 2**w square, which
    every coloring of that square shares: the doubling writes each sign
    as a product of choices and earlier signs, so each quad product is an
    affine GF(2) function of the choice bits, and no single flip of the
    all-plus coloring changes one.  Made on first use, so a square above
    the quad kernel's limit raises SizeError only then, before any sign
    is doubled.
    """
    square = construct_latin_square(w)
    _quad_order(square.n)
    signs = _double_signs(w, np.ones((1, num_free_choices(w) + 1), dtype=np.int64))
    _check_signs(signs)
    return _decide(square, signs[0])


def num_free_choices(w: int) -> int:
    """Number of free sign choices when coloring the 2**w square, w <= SQUARE_MAX_W."""
    w = _integer(w, "square exponent", 0, SQUARE_MAX_W)
    return 2 ** w - (w + 1)


def choices_from_bitstring(bits: str) -> tuple[int, ...]:
    """Map '0'/'1' characters to +1/-1 choices, leftmost bit first."""
    if not (isinstance(bits, str) and set(bits) <= {"0", "1"}):
        raise ValidationError(f"choice bitstring must be binary, got {bits!r}")
    return tuple(1 if b == "0" else -1 for b in bits)


def choices_to_bitstring(choices) -> str:
    return "".join("0" if c == 1 else "1" for c in choices)


@functools.lru_cache(maxsize=8)
def _doubling_plan(w: int):
    """Gather indices of the sign doubling levels h = 1, 2, ..., 2**(w-1).

    Per level: sel picks v = (1, the level's h - 1 choices) from a row
    (1, choices...), sel[x] picks v[x] for x = a XOR j (a, j < h), and
    x * n + j is the flat index of G[x, j] in an n x n sign matrix.
    """
    n = 2 ** w
    plan = []
    pos = 1
    for level in range(w):
        h = 2 ** level
        sel = np.concatenate(([0], np.arange(pos, pos + h - 1)))
        pos += h - 1
        r = np.arange(h)
        x = r[:, None] ^ r
        plan.append((h, sel, sel[x], x * n + r))
    return plan


def _double_signs(w: int, choices: np.ndarray) -> np.ndarray:
    """Sign doubling of the structured 2**w square for a batch of choices.

    choices is an (m, 1 + b) int64 array, one row (1, choices...) per
    coloring with its b free +/-1 choices; returns the (m, n, n) int64
    signs, unchecked.  From G = [[1]], the level that doubles h to 2h
    consumes the next h - 1 choices as v = (1, choices...), the new
    block column above the diagonal (v[i] = G[i, h]); the level h = 1
    consumes none.  Row h + a of the lower-left block closes each AB-BA
    quad through column h against its partner row x = a XOR j, giving
    L[a, j] = v[a] * v[x] * G[x, j]; the upper-right block is
    antisymmetric to it (U = -L^T, first row +1) and the lower-right
    block closes the quads against both (-G * U * L).  Exact integer
    arithmetic; each sign is written once.  Each sign is therefore +/- a
    product of distinct choices, so negating choice t multiplies a
    coloring's signs by one fixed +/-1 pattern whatever the other
    choices are (see :func:`enumerate_colorings`).
    """
    m, n = choices.shape[0], 2 ** w
    G = np.empty((m, n, n), dtype=np.int64)
    flat = G.reshape(m, n * n)
    G[:, 0, 0] = 1
    for h, sel, sel_x, flat_x in _doubling_plan(w):
        L = choices[:, sel, None] * choices[:, sel_x]
        L *= flat[:, flat_x]
        U = -L.transpose(0, 2, 1)
        U[:, 0] = 1
        R = G[:, :h, :h] * U
        R *= L
        G[:, h:2 * h, :h] = L
        G[:, :h, h:2 * h] = U
        np.negative(R, out=G[:, h:2 * h, h:2 * h])
    return G


def color(square: LatinSquare, choices) -> SignedLatinSquare:
    """Color the structured square from a vector of free +/-1 choices.

    The signs are built by block doubling from G = [[1]]
    (:func:`_double_signs` with one row of choices), then checked.
    Choices are consumed level by level (doubling level 2 upward), then
    by increasing row index within the level.
    """
    w = square.w
    row = _screen(choices, "choices", -1, 1, (num_free_choices(w),))
    if not row.all():  # 0 is the one integer in -1..1 that is not +/-1
        raise ValidationError("choices must be +1 or -1")
    if square != construct_latin_square(w):
        raise ValidationError("colorings are defined on the structured square only")
    signs = _double_signs(w, np.concatenate(([1], row))[None])
    _check_signs(signs)
    return SignedLatinSquare._checked_block(square, signs, [tuple(row.tolist())])[0]


def enumerate_colorings(square: LatinSquare):
    """Yield all 2**(2**w - (w+1)) colorings in bitstring order.

    Candidate index c maps to the bitstring format(c, '0{b}b') with
    '0' = '+' and '1' = '-', leftmost bit consumed first, so candidate
    order is reproducible.  Only b + 1 colorings are doubled: the
    all-plus one, G0, and each Gt with choice t alone negated.  Every
    sign is +/- a product of distinct choices (:func:`_double_signs`),
    so negating choice t multiplies any coloring's signs by
    flip_t = Gt * G0, and candidate c is G0 times the flips of its '1'
    bits.  The b + 1 doubled rows are checked; the block of all
    candidates (at most 2**11, at w = EXHAUSTIVE_MAX_W) is expanded from
    G0 by one exact product per choice, last choice first, and each
    coloring's signs are a read-only view into it.  The block needs no
    check of its own: each flip is +/-1 and is +1 on the first row, the
    first column and the diagonal, so every product keeps G0's checked
    properties.  Every candidate reads the one decision its w shares, so
    their verdicts are all True or all False.
    """
    if square.w > EXHAUSTIVE_MAX_W:
        raise SizeError(
            f"exhaustive enumeration is limited to w <= {EXHAUSTIVE_MAX_W} "
            f"({2 ** num_free_choices(EXHAUSTIVE_MAX_W)} candidates); got w={square.w}")
    if square != construct_latin_square(square.w):
        raise ValidationError("colorings are defined on the structured square only")
    b = num_free_choices(square.w)
    # Row 0 is (1, all-plus choices); row t negates choice t alone.
    rows = 1 - 2 * np.eye(b + 1, dtype=np.int64)
    rows[0, 0] = 1
    G = _double_signs(square.w, rows)
    _check_signs(G)
    signs = np.empty((2 ** b,) + G.shape[1:], dtype=np.int64)
    signs[0] = G[0]
    size = 1
    # Choice t is bit b - t of the candidate index: the last choice
    # doubles the block first.
    for flip in (G[1:] * G[0])[::-1]:
        np.multiply(signs[:size], flip, out=signs[size:2 * size])
        size *= 2
    yield from SignedLatinSquare._checked_block(
        square, signs, list(itertools.product((1, -1), repeat=b)))


def is_latin_hadamard(H: SignedLatinSquare) -> bool:
    """True iff all columns and all rows are symbolically orthogonal.

    Only the columns are checked: every AB-BA corner must close, and
    every closed quad must have sign product -1.  Every column holds
    each symbol once, so orthogonal columns give H^T H = (sum of x_a^2) I;
    a square matrix with H^T H = cI, c nonzero, also has H H^T = cI, so
    the rows are orthogonal too.  The verdict is the one the square
    keeps, reached by :func:`_decide` on first use together with its
    zero-divisor hits; every coloring of one w shares one.
    """
    return H._decision[3]
