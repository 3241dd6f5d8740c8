import tracemalloc

import numpy as np
import pytest

from latinhadamard import (InternalConsistencyError, SignedLatinSquare, SizeError,
                           ValidationError, color, construct_latin_square, enumerate_abba_quads,
                           find_zero_divisors, num_free_choices, sylvester_hadamard,
                           table_from_signed_square)
from latinhadamard import is_latin_hadamard, latin
from latinhadamard.latin import CornerQuad, LatinSquare, _decide

from block_square_oracle import block_square
from quad_loop_oracle import loop_abba_quads
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


@pytest.mark.parametrize("w", range(11))
def test_xor_table_equals_block_recursion(w):
    entries = construct_latin_square(w).entries
    assert entries.dtype == np.int64
    assert np.array_equal(entries, block_square(w))


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
    S = square.entries
    a = int(S[i1 - 1, j1 - 1])
    b = int(S[i1 - 1, j2 - 1])
    i2 = int(np.nonzero(S[:, j1 - 1] == b)[0][0]) + 1
    if i2 == i1 or S[i2 - 1, j2 - 1] != a:
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
    quads, open_corners = _decide(LatinSquare(square.entries.T),
                                  np.ones((n, n), dtype=np.int64))[:2]
    assert len(open_corners) == 0
    keys = set(map(tuple, quads.tolist()))
    for i1 in range(1, n + 1):
        for j1 in range(1, n + 1):
            for j2 in range(1, n + 1):
                if j1 == j2:
                    continue
                q = find_abba_partner(square, i1, j1, j2)
                assert q.i2 != i1
                assert square.entries[q.i2 - 1, j1 - 1] == q.b
                assert square.entries[q.i2 - 1, j2 - 1] == q.a
                assert (min(j1, j2) - 1, max(j1, j2) - 1,
                        min(i1, q.i2) - 1, max(i1, q.i2) - 1) in keys
    assert len(keys) == len(quads) == n * n * (n - 1) // 4


def test_partner_detects_broken_square():
    # cyclic Latin square: Latin but without the AB-BA corner property
    cyclic = LatinSquare([[1, 2, 3, 4], [2, 3, 4, 1],
                          [3, 4, 1, 2], [4, 1, 2, 3]])
    with pytest.raises(InternalConsistencyError):
        find_abba_partner(cyclic, 1, 1, 2)
    with pytest.raises(InternalConsistencyError):
        next(enumerate_abba_quads(cyclic))


def test_latin_square_rejects_repeated_symbols():
    with pytest.raises(ValidationError):
        LatinSquare([[1, 2], [1, 2]])
    with pytest.raises(ValidationError):
        LatinSquare([[1, 3], [3, 1]])


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
    quads, open_corners, product = _decide(LatinSquare(S), G)[:3]
    _assert_kernel_matches(S, G, quads, open_corners, product)
    if name.isdigit():
        # a structured square: every corner closes, n/2 quads per column pair
        assert len(open_corners) == 0
        assert len(quads) == n * n * (n - 1) // 4


def test_cyclic_square_has_open_corners():
    quads, open_corners = _decide(LatinSquare(KERNEL_SQUARES["cyclic"]()),
                                  np.ones((8, 8), dtype=np.int64))[:2]
    assert len(quads) and len(open_corners)


def test_quad_kernel_gives_each_sign_matrix_its_own_product():
    # the symbol frame is shared between calls; the products must not be
    S = construct_latin_square(3).entries
    rng = np.random.default_rng(11)
    G1, G2 = (rng.choice((-1, 1), size=(8, 8)) for _ in range(2))
    first = _decide(LatinSquare(S), G1)
    second = _decide(LatinSquare(S), G2)
    assert first[0] is second[0]
    assert not np.array_equal(first[2], second[2])
    _assert_kernel_matches(S, G1, first[0], first[1], first[2])
    _assert_kernel_matches(S, G2, second[0], second[1], second[2])


@pytest.mark.parametrize("name", ["cyclic", "transposed"])
def test_decision_of_each_matrix_equals_a_scan(name):
    # the one rule that decides verdicts and first zero-divisor quads,
    # on squares whose corners may stay open: each of five sign matrices
    # reaches the verdict and first hit of a direct scan of its
    # four-sign products, and so does a square built from it
    square = LatinSquare(KERNEL_SQUARES[name]())
    matrices = np.random.default_rng(30).choice((-1, 1), size=(5, 8, 8))
    matrices[:, 0, :] = matrices[:, :, 0] = 1
    matrices[:, range(1, 8), range(1, 8)] = -1
    if name == "cyclic":
        # its closed quads are disjoint 2 x 2 blocks, so flipping one free
        # corner of each +1 quad leaves every product -1: only the open
        # corners then make the verdict False
        quads, _, product = _decide(square, matrices[0])[:3]
        for (i, j, k, l), p in zip(quads.tolist(), product.tolist()):
            if p == 1:
                r, c = next((r, c) for r, c in ((i, k), (i, l), (j, k), (j, l))
                            if r and c and r != c)
                matrices[0, r, c] *= -1
        assert (_decide(square, matrices[0])[2] == -1).all()
        assert _decide(square, matrices[0])[3] is False
    for G in matrices:
        quads, open_corners, _, verdict, hits = _decide(square, G)
        assert type(verdict) is bool and hits.dtype == np.int64
        assert is_latin_hadamard(SignedLatinSquare(G * square.entries)) is verdict
        product = [G[i, k] * G[i, l] * G[j, k] * G[j, l] for i, j, k, l in quads.tolist()]
        assert verdict == (not len(open_corners) and all(p == -1 for p in product))
        assert hits.tolist() == [q for q, (i, _, k, _) in enumerate(quads.tolist())
                                 if i >= 1 and k >= 1 and product[q] == 1]
    assert (name == "cyclic") == bool(len(open_corners))


def _hit_cases():
    """(name, signed square): each kernel square with seeded signs that
    pass the sign rules, and the all-plus and seeded colorings of
    w = 2..5."""
    rng = np.random.default_rng(34)
    for name in sorted(KERNEL_SQUARES):
        S = KERNEL_SQUARES[name]()
        n = S.shape[0]
        G = rng.choice((-1, 1), size=(n, n))
        G[0, :] = G[:, 0] = 1
        G[range(1, n), range(1, n)] = -1
        yield name, SignedLatinSquare(G * S)
    for w in range(2, 6):
        b = num_free_choices(w)
        for choices in [(1,) * b] + [tuple(rng.choice((-1, 1), size=b).tolist())
                                     for _ in range(3)]:
            yield f"w={w}", color(construct_latin_square(w), choices)


def test_hits_equal_a_four_sign_scan_and_give_two_pairs_each():
    # the decision lists the zero-divisor hits once; find_zero_divisors
    # reads them in quad order, s1 = +1 first, two pairs per hit
    listed_hits = []
    for name, H in _hit_cases():
        quads, *_, hits = H._decision
        G = H.signs.tolist()
        scan = [q for q, (i, j, k, l) in enumerate(quads.tolist())
                if i >= 1 and k >= 1 and G[i][k] * G[i][l] * G[j][k] * G[j][l] == 1]
        assert hits.dtype == np.int64 and hits.tolist() == scan, name
        with pytest.raises(ValueError, match="read-only"):
            hits[:1] = hits[:1]
        if H.square.unit_structure != (True, True):
            continue
        expected = []
        for i, j, k, l in quads[scan].tolist():
            sign = G[j][k] * G[i][l]
            expected += [(i + 1, j + 1, 1, k + 1, l + 1, -sign),
                         (i + 1, j + 1, -1, k + 1, l + 1, sign)]
        listed = list(find_zero_divisors(table_from_signed_square(H)))
        assert listed == expected and len(listed) == 2 * len(hits), name
        listed_hits.append(len(hits))
    # tables with no hit yield nothing; the others yield every pair
    assert len(listed_hits) == 4 + 16 and 0 in listed_hits and max(listed_hits) > 0


def test_quad_frame_is_read_only():
    # the frame is shared through its cache, and a square keeps its products
    decision = _decide(LatinSquare(KERNEL_SQUARES["cyclic"]()), np.ones((8, 8), dtype=np.int64))
    for arr in decision[:3] + decision[4:]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_quad_kernel_size_guard():
    # both readers of the frame are refused at n = 256 before anything of
    # order n**3 (16 MiB at one byte per entry) is allocated
    square = construct_latin_square(8)
    H = color(square, (1,) * num_free_choices(8))
    for first_read in (lambda: next(enumerate_abba_quads(square)),
                       lambda: is_latin_hadamard(H)):
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="limited to n <= 128, got n=256"):
                first_read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


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


SQUARE_CONSTRUCTORS = pytest.mark.parametrize(
    "build", (LatinSquare, SignedLatinSquare), ids=("LatinSquare", "SignedLatinSquare"))


@SQUARE_CONSTRUCTORS
def test_square_order_ceiling(build):
    # The order comes from the shape: an order-2**11 view is rejected
    # before any copy of its 2**22 entries is made.
    entries = np.broadcast_to(np.int64(1), (2 ** 11, 2 ** 11))
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match=f"limited to 2\\*\\*{latin.SQUARE_MAX_W}"):
            build(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@SQUARE_CONSTRUCTORS
@pytest.mark.parametrize("entries", (
    [[1, 2, 3], [2, 3, 1], [3, 1, 2]],  # Latin, but of order 3
    [[1, 2, 3, 4], [2, 1, 4, 3]],  # not square
    [], [[]], [1, 2], [[[1]]], 1,
), ids=("order-3", "2x4", "empty", "0x0", "vector", "3-d", "scalar"))
def test_square_order_must_be_a_power_of_two(build, entries):
    with pytest.raises(ValidationError, match="must form a 2\\*\\*w x 2\\*\\*w array"):
        build(entries)


@SQUARE_CONSTRUCTORS
def test_one_by_one_square(build):
    square = build([[1]])
    assert (square.w, square.n) == (0, 1)


def test_quad_kernel_memory_at_the_size_limit():
    # A first decision at n = 128 builds the frame one row at a time and
    # holds the closed quads, their gather index and one product each.
    S = construct_latin_square(7).entries + 0  # new symbols: a frame not cached yet
    S[[0, 1]] = S[[1, 0]]
    square, signs = LatinSquare(S), np.ones((128, 128), dtype=np.int64)
    tracemalloc.start()
    try:
        quads, open_corners = _decide(square, signs)[:2]
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
        S = square.entries
        assert S[q.i1 - 1, q.j1 - 1] == S[q.i2 - 1, q.j2 - 1] == q.a
        assert S[q.i1 - 1, q.j2 - 1] == S[q.i2 - 1, q.j1 - 1] == q.b


def test_quad_enumeration_of_a_square_that_is_not_symmetric():
    # rows and columns play different parts in a CornerQuad, which only
    # a square unequal to its transpose can tell apart
    S = _rolled_square_8()
    quads = list(enumerate_abba_quads(LatinSquare(S)))
    assert {(q.i1, q.i2, q.j1, q.j2) for q in quads} == set(brute_force_quads(S))
    assert all(S[q.i1 - 1, q.j1 - 1] == S[q.i2 - 1, q.j2 - 1] == q.a
               and S[q.i1 - 1, q.j2 - 1] == S[q.i2 - 1, q.j1 - 1] == q.b for q in quads)


def test_batch_quads_equal_the_per_quad_loop():
    # all quads are converted as one array; the per-quad loop it replaced
    # must give the same quads, in order, with Python-int fields
    squares = [construct_latin_square(w) for w in range(1, 6)]
    squares.append(LatinSquare(_rolled_square_8()))
    for square in squares:
        quads, expected = list(enumerate_abba_quads(square)), list(loop_abba_quads(square))
        assert quads == expected
        assert all(type(q) is CornerQuad and all(type(v) is int for v in q) for q in quads)
    # a square without the corner property is refused on the first read
    cyclic = LatinSquare(KERNEL_SQUARES["cyclic"]())
    for quads in (enumerate_abba_quads(cyclic), loop_abba_quads(cyclic)):
        with pytest.raises(InternalConsistencyError, match="AB-BA partner missing"):
            next(quads)


@pytest.mark.parametrize("w", range(8))
def test_structured_square_has_the_unit_structure(w):
    square = construct_latin_square(w)
    assert square.unit_structure == (True, True)
    assert square.unit_structure is square.unit_structure  # kept, not recomputed


def test_unit_structure_is_computed_on_first_use():
    square = LatinSquare(construct_latin_square(2).entries)
    assert square._unit is None
    assert square.unit_structure == (True, True)
    assert square._unit == (True, True)


def test_rejects_negative_exponent():
    with pytest.raises(ValidationError):
        construct_latin_square(-1)
