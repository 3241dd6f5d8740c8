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
(latin.quad_sign_products) over exact integers, so the negative result
at n = 16 is bit-exact.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import SizeError, ValidationError
from .latin import LatinSquare, construct_latin_square, quad_sign_products

__all__ = [
    "SignedLatinSquare", "num_free_choices",
    "choices_from_bitstring", "choices_to_bitstring", "color",
    "enumerate_colorings", "is_latin_hadamard",
    "partial_orthogonality_report",
]

EXHAUSTIVE_MAX_W = 4
# Signs of the 2 x 2 square, the first doubling, which has no choices.
_FIRST_LEVEL = np.array([[1, 1], [1, -1]], dtype=np.int64)


def _check_signs(sgn: np.ndarray, shape: tuple[int, ...]) -> None:
    """Shape, +/-1 entries, positive first row and column, negative diagonal.

    sgn is one n x n sign matrix or a stack of them along a leading axis.
    """
    if sgn.shape != shape:
        raise ValidationError(f"sign matrix must be {'x'.join(map(str, shape))}, "
                              f"got {sgn.shape}")
    if not (np.abs(sgn) == 1).all():
        raise ValidationError("sign matrix entries must be +1 or -1")
    if not (sgn[..., 0, :] == 1).all() or not (sgn[..., :, 0] == 1).all():
        raise ValidationError("first row and first column must be positive")
    n = shape[-1]
    if not (sgn.reshape(shape[:-2] + (n * n,))[..., n + 1::n + 1] == -1).all():
        raise ValidationError("diagonal entries below row one must be negative")


class SignedLatinSquare:
    """A structured Latin square together with a +/-1 sign for each entry.

    The signed entry H[i,j] = signs[i,j] * S[i,j] carries both pieces;
    |H| is always the underlying square.  First row and first column are
    positive and the diagonal below row one is negative, as produced by
    the coloring procedure.  ``choices`` is None unless the square came
    from :func:`color` or :func:`enumerate_colorings`.
    """

    __slots__ = ("square", "signs", "choices")

    def __init__(self, square: LatinSquare, signs: np.ndarray):
        n = square.n
        sgn = np.asarray(signs, dtype=np.int64)
        _check_signs(sgn, (n, n))
        sgn = sgn.copy()
        sgn.setflags(write=False)
        self.square = square
        self.signs = sgn
        self.choices = None

    @classmethod
    def _checked_block(cls, square: LatinSquare, signs: np.ndarray, choices):
        """One signed square per (signs[c], choices[c]), signs checked once.

        signs is an (m, n, n) int64 block; the squares share its memory
        read-only and take the choice tuples as given.
        """
        _check_signs(signs, (len(choices), square.n, square.n))
        signs.setflags(write=False)
        out = []
        for sgn, chosen in zip(signs, choices):
            H = cls.__new__(cls)
            H.square, H.signs, H.choices = square, sgn, chosen
            out.append(H)
        return out

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
        """Canonical row-major serialization; defines matrix identity."""
        return tuple(tuple(int(v) for v in row) for row in self.signed_entries())

    @classmethod
    def from_signed_entries(cls, entries) -> "SignedLatinSquare":
        """Rebuild from a matrix of signed symbols.

        The entries must form a square array of integers (integral floats
        such as 3.0 are accepted) whose magnitudes make a Latin square.
        """
        try:
            raw = np.asarray(entries)
        except ValueError:
            raise ValidationError("signed matrix must be a rectangular array of numbers") from None
        if raw.dtype.kind not in "iuf":
            raise ValidationError("signed matrix must be a rectangular array of numbers")
        if raw.dtype.kind == "f" and not (np.isfinite(raw) & (raw == np.rint(raw))).all():
            raise ValidationError("signed matrix entries must be integers")
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ValidationError("signed matrix must be square")
        n = raw.shape[0]
        w = int(n).bit_length() - 1
        if 2 ** w != n:
            raise ValidationError(f"dimension must be a power of two, got {n}")
        # Screened before the cast, which would wrap or warn beyond int64.
        if not (np.abs(raw) <= n).all():
            raise ValidationError(f"signed matrix entries must lie in -{n}..{n}")
        arr = raw.astype(np.int64)
        return cls(LatinSquare(w, np.abs(arr)), np.sign(arr))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SignedLatinSquare)
                and self.to_tuple() == other.to_tuple())

    def __hash__(self) -> int:
        return hash(self.to_tuple())

    def __repr__(self) -> str:
        return f"SignedLatinSquare(w={self.w}, choices={self.choices})"


def num_free_choices(w: int) -> int:
    """Number of free sign choices when coloring the 2**w square."""
    return 2 ** w - (w + 1)


def choices_from_bitstring(bits: str) -> tuple[int, ...]:
    """Map '0'/'1' characters to +1/-1 choices, leftmost bit first."""
    if not set(bits) <= {"0", "1"}:
        raise ValidationError(f"choice bitstring must be binary, got {bits!r}")
    return tuple(1 if b == "0" else -1 for b in bits)


def choices_to_bitstring(choices) -> str:
    return "".join("0" if c == 1 else "1" for c in choices)


@functools.lru_cache(maxsize=8)
def _doubling_plan(w: int):
    """Gather indices of the sign doubling levels h = 2, 4, ..., 2**(w-1).

    Per level: sel picks v = (1, the level's h - 1 choices) from a row
    (1, choices...), sel[x] picks v[x] for x = S[:h, :h] - 1, and
    x * n + j is the flat index of G[x, j] in an n x n sign matrix.
    """
    S = construct_latin_square(w).entries
    n = S.shape[0]
    plan = []
    pos = 1
    for level in range(1, w):
        h = 2 ** level
        sel = np.concatenate(([0], np.arange(pos, pos + h - 1)))
        pos += h - 1
        x = S[:h, :h] - 1
        plan.append((h, sel, sel[x], x * n + np.arange(h)))
    return plan


def _double_signs(w: int, choices: np.ndarray) -> np.ndarray:
    """Sign doubling of the structured 2**w square for a batch of choices.

    choices is an (m, 1 + b) int64 array, one row (1, choices...) per
    coloring with its b free +/-1 choices; returns the (m, n, n) int64
    signs.  The level that doubles h to 2h consumes the next h - 1
    choices as v = (1, choices...), the new block column above the
    diagonal (v[i] = G[i, h]).  Row h + a of the lower-left block
    closes each AB-BA quad through column h against its partner row
    x = S[a, j] - 1, giving L[a, j] = v[a] * v[x] * G[x, j]; the
    upper-right block is antisymmetric to it (U = -L^T, first row +1)
    and the lower-right block closes the quads against both
    (-G * U * L).  The first level has no choices and always gives
    [[1, 1], [1, -1]].  Exact integer arithmetic; each sign is written
    once.
    """
    m, n = choices.shape[0], 2 ** w
    G = np.empty((m, n, n), dtype=np.int64)
    flat = G.reshape(m, n * n)
    G[:, :2, :2] = _FIRST_LEVEL[:n, :n]
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
    (:func:`_double_signs` with one row of choices).  Choices are
    consumed level by level (doubling level 2 upward), then by
    increasing row index within the level.
    """
    w = square.w
    choices = tuple(int(c) for c in choices)
    expected = num_free_choices(w)
    if len(choices) != expected:
        raise ValidationError(
            f"need exactly {expected} choices for w={w}, got {len(choices)}")
    if not all(c in (-1, 1) for c in choices):
        raise ValidationError("choices must be +1 or -1")
    if square != construct_latin_square(w):
        raise ValidationError("colorings are defined on the structured square only")
    signs = _double_signs(w, np.array([(1,) + choices], dtype=np.int64))
    return SignedLatinSquare._checked_block(square, signs, [choices])[0]


def enumerate_colorings(square: LatinSquare):
    """Yield all 2**(2**w - (w+1)) colorings in bitstring order.

    Candidate index c maps to the bitstring format(c, '0{b}b') with
    '0' = '+' and '1' = '-', leftmost bit consumed first, so candidate
    order is reproducible.  The signs of all candidates (at most 2**11,
    at w = EXHAUSTIVE_MAX_W) are doubled at once and checked once; each
    coloring's signs are a read-only view into that one block.
    """
    if square.w > EXHAUSTIVE_MAX_W:
        raise SizeError(
            f"exhaustive enumeration is limited to w <= {EXHAUSTIVE_MAX_W} "
            f"({2 ** num_free_choices(EXHAUSTIVE_MAX_W)} candidates); got w={square.w}")
    if square != construct_latin_square(square.w):
        raise ValidationError("colorings are defined on the structured square only")
    b = num_free_choices(square.w)
    # Bit b of an index below 2**b is 0: the leading 1 of each row.
    choices = 1 - 2 * ((np.arange(2 ** b)[:, None] >> np.arange(b, -1, -1)) & 1)
    signs = _double_signs(square.w, choices)
    yield from SignedLatinSquare._checked_block(
        square, signs, list(map(tuple, choices[:, 1:].tolist())))


def is_latin_hadamard(H: SignedLatinSquare) -> bool:
    """True iff all columns and all rows are symbolically orthogonal.

    Only the columns are checked: every AB-BA corner must close, and
    every closed quad must have sign product -1.  Every column holds
    each symbol once, so orthogonal columns give H^T H = (sum of x_a^2) I;
    a square matrix with H^T H = cI, c nonzero, also has H H^T = cI, so
    the rows are orthogonal too.
    """
    _, open_corners, product = quad_sign_products(H.square.entries, H.signs)
    return not len(open_corners) and bool((product == -1).all())


def partial_orthogonality_report(H: SignedLatinSquare) -> set:
    """Unordered 1-based column pairs whose symbolic dot product vanishes.

    Exactly the column pairs (k, l) with an open AB-BA corner or a
    closed quad whose sign product is not -1 have a nonzero dot product.
    """
    n = H.n
    quads, open_corners, product = quad_sign_products(H.square.entries, H.signs)
    failed = np.zeros((n, n), dtype=bool)
    for _, _, k, l in (quads[product != -1].T, open_corners.T):
        failed[k, l] = failed[l, k] = True
    k, l = np.nonzero(np.triu(~failed, 1))
    return set(zip((k + 1).tolist(), (l + 1).tolist()))
