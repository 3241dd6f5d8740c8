import tracemalloc

import numpy as np
import pytest

from latinhadamard import (InternalConsistencyError, SizeError, ValidationError,
                           construct_latin_square, enumerate_abba_quads,
                           quad_sign_products, sylvester_hadamard)
from latinhadamard import latin
from latinhadamard.latin import CornerQuad, LatinSquare

from reference_tables import LATIN_SQUARE_16


def brute_force_quads(entries):
    """O(n^4) scan for AB-BA quads, independent of the library path."""
    n = entries.shape[0]
    quads = []
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            for j1 in range(n):
                for j2 in range(j1 + 1, n):
                    if (entries[i1, j1] == entries[i2, j2]
                            and entries[i1, j2] == entries[i2, j1]):
                        quads.append((i1 + 1, i2 + 1, j1 + 1, j2 + 1))
    return quads


def test_base_case_is_one_by_one():
    square = construct_latin_square(0)
    assert square.n == 1
    assert square.entries.tolist() == [[1]]


def test_w2_matches_known_rows():
    square = construct_latin_square(2)
    assert square.entries.tolist() == [
        [1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]]


def test_w4_matches_reference_figure():
    square = construct_latin_square(4)
    assert np.array_equal(square.entries, LATIN_SQUARE_16)


@pytest.mark.parametrize("w", range(6))
def test_latin_property(w):
    square = construct_latin_square(w)
    n = square.n
    expected = np.arange(1, n + 1)
    assert (np.sort(square.entries, axis=0) == expected[:, None]).all()
    assert (np.sort(square.entries, axis=1) == expected[None, :]).all()


@pytest.mark.parametrize("w", range(6))
def test_symmetries_and_diagonal(w):
    E = construct_latin_square(w).entries
    assert np.array_equal(E, E.T)
    # anti-diagonal symmetry: flipping both axes transposes back to E
    assert np.array_equal(E[::-1, ::-1].T, E[::-1, ::-1])
    assert (np.diag(E) == 1).all()
    assert (E[:, 0] == np.arange(1, E.shape[0] + 1)).all()


@pytest.mark.parametrize("w", range(1, 6))
def test_block_doubling_identity(w):
    E = construct_latin_square(w).entries
    h = E.shape[0] // 2
    A, B = E[:h, :h], E[:h, h:]
    assert np.array_equal(B, A + h)
    assert np.array_equal(E[h:, :h], B)
    assert np.array_equal(E[h:, h:], A)
    assert np.array_equal(A, construct_latin_square(w - 1).entries)


def find_abba_partner(square, i1, j1, j2):
    """Complete the AB-BA quad through row i1 and columns j1 != j2 (1-based).

    The partner row i2 is the unique row holding b = S[i1,j2] in column
    j1; the square has the AB-BA property where S[i2,j2] == S[i1,j1].
    """
    a = square.entry(i1, j1)
    b = square.entry(i1, j2)
    i2 = int(np.nonzero(square.column(j1) == b)[0][0]) + 1
    if i2 == i1 or square.entry(i2, j2) != a:
        raise InternalConsistencyError(f"AB-BA partner missing for ({i1}, {j1}, {j2})")
    return CornerQuad(i1=i1, j1=j1, i2=i2, j2=j2, a=a, b=b)


def test_partner_examples():
    q = find_abba_partner(construct_latin_square(4), 1, 1, 2)
    assert (q.i2, q.a, q.b) == (2, 1, 2)
    q = find_abba_partner(construct_latin_square(2), 1, 3, 4)
    assert (q.i2, q.a, q.b) == (2, 3, 4)
    q = find_abba_partner(construct_latin_square(1), 1, 1, 2)
    assert q.i2 == 2
    assert q == (1, 1, 2, 2, 1, 2)  # a record is a plain tuple of its fields


@pytest.mark.parametrize("w", (1, 2, 3))
def test_partner_closure(w):
    square = construct_latin_square(w)
    n = square.n
    # On the transpose, rows j1 < j2 and columns i1 < i2 of a closed quad
    # are the columns and rows of an AB-BA quad of the square.
    quads, open_corners, _ = quad_sign_products(square.entries.T, np.ones((n, n)))
    assert len(open_corners) == 0
    keys = set(map(tuple, quads.tolist()))
    for i1 in range(1, n + 1):
        for j1 in range(1, n + 1):
            for j2 in range(1, n + 1):
                if j1 == j2:
                    continue
                q = find_abba_partner(square, i1, j1, j2)
                assert q.i2 != i1
                assert square.entry(q.i2, j1) == q.b
                assert square.entry(q.i2, j2) == q.a
                assert (min(j1, j2) - 1, max(j1, j2) - 1,
                        min(i1, q.i2) - 1, max(i1, q.i2) - 1) in keys
    assert len(keys) == len(quads) == n * n * (n - 1) // 4


def test_partner_detects_broken_square():
    # cyclic Latin square: Latin but without the AB-BA corner property
    cyclic = LatinSquare(2, [[1, 2, 3, 4], [2, 3, 4, 1],
                             [3, 4, 1, 2], [4, 1, 2, 3]])
    with pytest.raises(InternalConsistencyError):
        find_abba_partner(cyclic, 1, 1, 2)
    with pytest.raises(InternalConsistencyError):
        next(enumerate_abba_quads(cyclic))


def test_latin_square_rejects_repeated_symbols():
    with pytest.raises(ValidationError):
        LatinSquare(1, [[1, 2], [1, 2]])
    with pytest.raises(ValidationError):
        LatinSquare(1, [[1, 3], [3, 1]])


def _rolled_square_8():
    """The structured 8x8 square with its rows rotated: Latin, not symmetric."""
    return np.roll(construct_latin_square(3).entries, 1, axis=0)


KERNEL_SQUARES = {
    "1": lambda: construct_latin_square(1).entries,
    "2": lambda: construct_latin_square(2).entries,
    "3": lambda: construct_latin_square(3).entries,
    "4": lambda: construct_latin_square(4).entries,
    # a non-contiguous view whose symbols differ from the untransposed square
    "transposed": lambda: _rolled_square_8().T,
    # cyclic: Latin, but most corners stay open
    "cyclic": lambda: (np.add.outer(np.arange(8), np.arange(8)) % 8) + 1,
}


def _open_corners_by_scan(S):
    """Rows (i, j, k, l), i < j, whose partner column l does not close."""
    n = S.shape[0]
    corners = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                l = next(c for c in range(n) if S[j, c] == S[i, k])
                if S[i, l] != S[j, k]:
                    corners.append((i, j, k, l))
    return corners


def _assert_kernel_matches(S, G, quads, open_corners, product):
    rows = [tuple(q) for q in quads.tolist()]
    assert len(set(rows)) == len(rows)  # each closed quad exactly once
    assert rows == sorted(rows)  # in (i, j, k) order
    assert {(i + 1, j + 1, k + 1, l + 1) for i, j, k, l in rows} == set(brute_force_quads(S))
    assert product.shape == (len(rows),)
    for (i, j, k, l), p in zip(rows, product.tolist()):
        assert p == G[i, k] * G[i, l] * G[j, k] * G[j, l]
    assert [tuple(c) for c in open_corners.tolist()] == _open_corners_by_scan(S)


@pytest.mark.parametrize("name", sorted(KERNEL_SQUARES))
def test_quad_kernel_matches_direct_evaluation(name):
    S = KERNEL_SQUARES[name]()
    n = S.shape[0]
    G = np.random.default_rng(n).choice((-1, 1), size=(n, n))
    quads, open_corners, product = quad_sign_products(S, G)
    _assert_kernel_matches(S, G, quads, open_corners, product)
    if name.isdigit():
        # a structured square: every corner closes, n/2 quads per column pair
        assert len(open_corners) == 0
        assert len(quads) == n * n * (n - 1) // 4


def test_cyclic_square_has_open_corners():
    quads, open_corners, _ = quad_sign_products(KERNEL_SQUARES["cyclic"](), np.ones((8, 8)))
    assert len(quads) and len(open_corners)


def test_quad_kernel_gives_each_sign_matrix_its_own_product():
    # the symbol frame is shared between calls; the products must not be
    S = construct_latin_square(3).entries
    rng = np.random.default_rng(11)
    G1, G2 = (rng.choice((-1, 1), size=(8, 8)) for _ in range(2))
    first = quad_sign_products(S, G1)
    second = quad_sign_products(S, G2)
    assert first[0] is second[0]
    assert not np.array_equal(first[2], second[2])
    _assert_kernel_matches(S, G1, *first)
    _assert_kernel_matches(S, G2, *second)


def test_quad_frame_is_read_only():
    quads, open_corners, product = quad_sign_products(KERNEL_SQUARES["cyclic"](),
                                                      np.ones((8, 8)))
    with pytest.raises(ValueError):
        quads[0, 1] = 0
    with pytest.raises(ValueError):
        open_corners[0, 1] = 0
    product[0] = -1  # the sign gather is the caller's own array


def test_quad_kernel_size_guard():
    # rejected before anything n**3 is allocated
    with pytest.raises(SizeError):
        quad_sign_products(np.ones((256, 256), dtype=np.int64), np.ones((256, 256)))


@pytest.mark.parametrize("build", (construct_latin_square, sylvester_hadamard))
def test_square_exponent_ceiling(build):
    # rejected before the 2**w x 2**w int64 matrix is allocated
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match=f"limited to {latin.SQUARE_MAX_W}"):
            build(latin.SQUARE_MAX_W + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("build", (construct_latin_square, sylvester_hadamard))
@pytest.mark.parametrize("w", (-1, 2.5, float("nan")))
def test_exponent_must_be_a_non_negative_integer(build, w):
    with pytest.raises(ValidationError, match="non-negative integer"):
        build(w)


def test_quad_kernel_memory_at_the_size_limit():
    # A first call at n = 128 builds the frame one row at a time and
    # holds the closed quads, their gather index and one product each.
    S = construct_latin_square(7).entries + 0  # new symbols: a frame not cached yet
    S[[0, 1]] = S[[1, 0]]
    tracemalloc.start()
    try:
        quads, open_corners, product = quad_sign_products(S, np.ones((128, 128)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(quads) == 128 * 128 * 127 // 4 and len(open_corners) == 0
    assert peak < 86e6


def test_quad_enumeration_single_at_w1():
    assert len(list(enumerate_abba_quads(construct_latin_square(1)))) == 1


@pytest.mark.parametrize("w", (2, 3))
def test_quad_enumeration_matches_brute_force(w):
    square = construct_latin_square(w)
    quads = list(enumerate_abba_quads(square))
    keys = {(q.i1, q.i2, q.j1, q.j2) for q in quads}
    assert len(keys) == len(quads)
    assert keys == set(brute_force_quads(square.entries))
    n = square.n
    assert len(quads) == n * (n - 1) // 2 * (n // 2)
    for q in quads:
        assert square.entry(q.i1, q.j1) == square.entry(q.i2, q.j2) == q.a
        assert square.entry(q.i1, q.j2) == square.entry(q.i2, q.j1) == q.b


def test_rejects_negative_exponent():
    with pytest.raises(ValidationError):
        construct_latin_square(-1)
