import warnings
from itertools import combinations

import numpy as np
import pytest

from latinhadamard import (SignedLatinSquare, ValidationError, ZeroDivisorPair,
                           choices_from_bitstring, choices_to_bitstring, color,
                           coloring, construct_latin_square, enumerate_colorings,
                           find_zero_divisors, is_latin_hadamard, num_free_choices,
                           table_from_signed_square)
from latinhadamard.coloring import EXHAUSTIVE_MAX_W
from latinhadamard.errors import SizeError
from latinhadamard.latin import LatinSquare, _decide

from coloring_oracle import propagate_signs
from gram_oracle import (gram_is_latin_hadamard, gram_pairs_orthogonal, pair_coefficients,
                         symbolic_gram)
from product_oracle import scan_zero_divisors
from reference_tables import (SIGNED_SQUARE_8, VALID_SIGNED_SQUARES_4,
                              VALID_SIGNED_SQUARES_8)


def as_set(matrices):
    return {tuple(tuple(int(v) for v in row) for row in m) for m in matrices}


def orthogonal_column_pairs(H):
    """1-based column pairs whose symbolic dot product vanishes."""
    nonzero = {pair for pair, _ in symbolic_gram(H).coefficients}
    return set(combinations(range(1, H.n + 1), 2)) - nonzero


@pytest.mark.parametrize("w,expected", [(0, 0), (1, 0), (2, 1), (3, 4), (4, 11)])
def test_free_choice_count(w, expected):
    assert num_free_choices(w) == expected


@pytest.mark.parametrize("w,error", [(-1, ValidationError), (2.5, ValidationError),
                                     ("4", ValidationError), (None, ValidationError),
                                     (11, SizeError), (10 ** 10, SizeError)])
def test_free_choice_count_screens_the_exponent(w, error):
    # 2**(10**10) would be a 1.25 GB integer; SizeError comes first
    with pytest.raises(error, match="^square exponent "):
        num_free_choices(w)


def test_bitstring_roundtrip():
    choices = choices_from_bitstring("0110")
    assert choices == (1, -1, -1, 1)
    assert choices_to_bitstring(choices) == "0110"
    with pytest.raises(ValidationError):
        choices_from_bitstring("01x0")


def test_two_colorings_of_the_4x4_square():
    square = construct_latin_square(2)
    produced = as_set(color(square, (c,)).signed_entries() for c in (1, -1))
    assert produced == as_set(VALID_SIGNED_SQUARES_4)


def test_choice_vector_reproduces_reference_signed_square():
    square = construct_latin_square(3)
    H = color(square, (-1, 1, 1, 1))
    assert np.array_equal(H.signed_entries(), SIGNED_SQUARE_8)


def test_color_validates_choices():
    square = construct_latin_square(3)
    with pytest.raises(ValidationError):
        color(square, (1, 1))
    with pytest.raises(ValidationError):
        color(square, (1, 1, 0, 1))
    # checked before any cast: 1.9 is not truncated to +1
    for bad in (1.9, "a", 0):
        with pytest.raises(ValidationError, match="choices must be"):
            color(square, (1, 1, bad, 1))


@pytest.mark.parametrize("w,count", [(1, 1), (2, 2), (3, 16), (4, 2048)])
def test_enumeration_count(w, count):
    square = construct_latin_square(w)
    seen = set()
    total = 0
    for H in enumerate_colorings(square):
        total += 1
        seen.add(H.to_tuple())
        assert np.array_equal(H.signs, propagate_signs(square, H.choices))
    assert total == count
    assert len(seen) == count  # all candidates distinct


@pytest.mark.parametrize("w", (5, 6))
def test_sign_doubling_matches_propagation_oracle(w):
    square = construct_latin_square(w)
    rng = np.random.default_rng(20260811 + w)
    for _ in range(50):
        choices = tuple(rng.choice((-1, 1), size=num_free_choices(w)).tolist())
        assert np.array_equal(color(square, choices).signs,
                              propagate_signs(square, choices))


def test_color_rejects_other_latin_squares():
    cyclic = LatinSquare([[1, 2, 3, 4], [2, 3, 4, 1],
                          [3, 4, 1, 2], [4, 1, 2, 3]])
    with pytest.raises(ValidationError):
        color(cyclic, (1,))


def test_enumeration_rejects_other_latin_squares():
    cyclic = LatinSquare([[1, 2, 3, 4], [2, 3, 4, 1],
                          [3, 4, 1, 2], [4, 1, 2, 3]])
    with pytest.raises(ValidationError,
                       match="^colorings are defined on the structured square only$"):
        next(enumerate_colorings(cyclic))


def test_enumeration_size_guard():
    with pytest.raises(SizeError):
        next(enumerate_colorings(construct_latin_square(5)))


def test_orthogonality_check_size_guard():
    # n = 256 is above the quad kernel's n <= 128 guard; color serves
    # such squares, so it leaves the checks to the first use
    H = color(construct_latin_square(8), (1,) * num_free_choices(8))
    assert H._checks is None
    with pytest.raises(SizeError):
        is_latin_hadamard(H)
    assert H._checks is None


def _count_doubled_rows(monkeypatch) -> list:
    """Spy on coloring._double_signs: the number of rows of each call."""
    double, rows = coloring._double_signs, []

    def counted(w, choices):
        rows.append(len(choices))
        return double(w, choices)

    monkeypatch.setattr(coloring, "_double_signs", counted)
    return rows


def test_coloring_decision_is_refused_before_any_doubling(monkeypatch):
    # n = 256 is above the quad kernel's limit: the shared decision of a
    # w = 8 coloring raises SizeError without doubling the 65,536 signs
    # of the all-plus coloring first
    coloring._coloring_decision.cache_clear()
    rows = _count_doubled_rows(monkeypatch)
    H = color(construct_latin_square(8), (1,) * num_free_choices(8))
    assert rows == [1]
    with pytest.raises(SizeError, match="limited to n <= 128, got n=256"):
        is_latin_hadamard(H)
    assert rows == [1]


@pytest.mark.parametrize("w", (1, 2, 3, 4, 5, 6))
def test_flipped_choices_keep_every_quad_product(w):
    # why every coloring of one w shares one decision, witnessed with the
    # propagation oracle, which shares no code with the sign doubling or
    # _decide: flipping any one free choice of the all-plus coloring, or
    # seeded sets of them at w = 5 and 6, leaves every quad product as is
    square = construct_latin_square(w)
    b = num_free_choices(w)
    flips = [tuple(np.where(np.arange(b) == c, -1, 1).tolist()) for c in range(b)]
    if w >= 5:
        rng = np.random.default_rng(20261021 + w)
        flips += [tuple(rng.choice((-1, 1), size=b).tolist()) for _ in range(8)]
    plus = (1,) * b
    product = _decide(square, propagate_signs(square, plus))[2]
    shared = color(square, plus)._decision
    assert np.array_equal(shared[2], product)
    for choices in flips:
        G = propagate_signs(square, choices)
        assert np.array_equal(_decide(square, G)[2], product)
        assert color(square, choices)._decision is shared
    if w <= 4:
        assert all(H._decision is shared for H in enumerate_colorings(square))


def test_enumerated_products_equal_single_and_lazy_products():
    # every candidate reads the decision its w shares; its products must
    # be the candidate's own direct four-sign product and the kernel's
    # product of its own signs, and a square built from the same entries
    # decides the same checks from its own signs, lazily, on first use
    for w in (2, 3, 4):
        square = construct_latin_square(w)
        for H in enumerate_colorings(square):
            assert H._checks is None
            stored = H._decision
            assert H._checks is stored and color(square, H.choices)._decision is stored
            quads, open_corners, product, verdict, _ = stored
            assert not product.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                product[0] = product[0]
            G = H.signs
            i, j, k, l = quads.T
            assert np.array_equal(product, G[i, k] * G[i, l] * G[j, k] * G[j, l])
            assert np.array_equal(product, _decide(square, G)[2])
            assert is_latin_hadamard(H) is verdict
            twin = SignedLatinSquare(H.signed_entries())
            assert twin._checks is None
            assert is_latin_hadamard(twin) == verdict
            lazy = twin._checks
            assert twin._decision is lazy and lazy is not stored
            # equal, not the same: the frame cache may have rebuilt the
            # frame since the shared decision was made
            assert all(np.array_equal(a, b)
                       for a, b in zip(lazy[:2] + lazy[4:], stored[:2] + stored[4:]))
            assert not lazy[2].flags.writeable
            assert lazy[2].dtype == np.int64 and np.array_equal(lazy[2], product)


def test_enumerated_verdicts_and_first_divisors_equal_lazy_and_oracles():
    # every candidate reads the verdict and first zero-divisor quad its w
    # shares; a twin built from the same entries decides both from its
    # own signs on first use, and the Gram and brute-force oracles decide
    # them without the quad products
    for w in (2, 3, 4):
        for H in enumerate_colorings(construct_latin_square(w)):
            *_, verdict, hits = H._decision
            assert type(verdict) is bool and hits.dtype == np.int64
            twin = SignedLatinSquare(H.signed_entries())
            assert is_latin_hadamard(H) is verdict
            assert verdict is is_latin_hadamard(twin)
            assert verdict == gram_is_latin_hadamard(H)
            first = next(find_zero_divisors(table_from_signed_square(H)), None)
            assert first == next(find_zero_divisors(table_from_signed_square(twin)), None)
            assert first == next(scan_zero_divisors(table_from_signed_square(H)), None)
            assert twin._checks[4].dtype == np.int64
            assert np.array_equal(twin._checks[4], hits)
            assert (first is None) == verdict
            assert first is None or all(type(v) is int for v in first)


def scan_checks(H):
    """(verdict, first zero divisor) by a plain-Python pass over the
    quads, open corners and products of latin._decide: the verdict holds
    when every corner closes and every product is -1; the first divisor
    comes from the first quad off the unit row and column with product +1."""
    quads, open_corners, product = _decide(H.square, H.signs)[:3]
    G = H.signs.tolist()
    rows = list(zip(quads.tolist(), product.tolist()))
    verdict = not len(open_corners) and all(p == -1 for _, p in rows)
    first = next((ZeroDivisorPair(i + 1, j + 1, 1, k + 1, l + 1, -G[j][k] * G[i][l])
                  for (i, j, k, l), p in rows if i >= 1 and k >= 1 and p == 1), None)
    return verdict, first


@pytest.mark.parametrize("seed", (None, 20261020))
@pytest.mark.parametrize("w", (6, 7))
def test_large_square_decision_equals_plain_scan(w, seed):
    # 64,512 quads at n = 64 and 520,192 at n = 128, both beyond int16,
    # so a first-hit index or its no-hit value q narrowed anywhere shows
    b = num_free_choices(w)
    choices = ((1,) * b if seed is None
               else tuple(np.random.default_rng(seed).choice((-1, 1), size=b).tolist()))
    H = color(construct_latin_square(w), choices)
    verdict, first = scan_checks(H)
    assert is_latin_hadamard(H) is verdict
    assert next(find_zero_divisors(table_from_signed_square(H)), None) == first
    assert len(H._checks[0]) > np.iinfo(np.int16).max


def test_survivor_sets_match_reference_lists():
    for w, reference in ((2, VALID_SIGNED_SQUARES_4), (3, VALID_SIGNED_SQUARES_8)):
        square = construct_latin_square(w)
        valid = [H.signed_entries() for H in enumerate_colorings(square)
                 if is_latin_hadamard(H)]
        assert as_set(valid) == as_set(reference)


def test_no_valid_coloring_at_sixteen_cells():
    square = construct_latin_square(4)
    assert not any(is_latin_hadamard(H) for H in enumerate_colorings(square))


def test_every_candidate_orthogonal_to_first_column_and_row():
    # the construction guarantees first-column/first-row orthogonality
    # even where full orthogonality is impossible
    square = construct_latin_square(4)
    S = square.entries
    for H in enumerate_colorings(square):
        G = H.signs
        assert not any(pair_coefficients(S[:, 0], S[:, j], G[:, 0] * G[:, j], 16).any()
                       for j in range(1, 16))
        assert not any(pair_coefficients(S[0], S[j], G[0] * G[j], 16).any()
                       for j in range(1, 16))


def test_gram_diagonal_is_full_symbol_sum():
    H = SignedLatinSquare(SIGNED_SQUARE_8)
    gram = symbolic_gram(H)
    for j in range(1, 9):
        for s in range(1, 9):
            assert gram.coefficient((j, j), (s, s)) == 1
    assert gram.off_diagonal_zero()


def test_gram_detects_nonorthogonal_pair():
    square = construct_latin_square(4)
    H = color(square, (1,) * 11)
    gram = symbolic_gram(H)
    off_diag = [(pair, coeff) for (pair, _), coeff in gram.coefficients.items()
                if pair[0] != pair[1]]
    assert off_diag  # at least one nonzero cross coefficient
    assert not is_latin_hadamard(H)


def sign_pattern_is_hadamard(G):
    """True iff the bare +/-1 sign matrix has pairwise orthogonal rows."""
    n = G.shape[0]
    return bool(np.array_equal(G @ G.T, n * np.eye(n, dtype=np.int64)))


def test_reference_matrices_are_latin_hadamard():
    for entries in VALID_SIGNED_SQUARES_4 + VALID_SIGNED_SQUARES_8:
        H = SignedLatinSquare(entries)
        assert is_latin_hadamard(H)
        assert sign_pattern_is_hadamard(H.signs)


def test_sign_pattern_checks():
    H = SignedLatinSquare(SIGNED_SQUARE_8)
    assert sign_pattern_is_hadamard(H.signs)
    assert not sign_pattern_is_hadamard(np.ones((4, 4), dtype=int))
    for H in enumerate_colorings(construct_latin_square(3)):
        assert sign_pattern_is_hadamard(H.signs) or not is_latin_hadamard(H)


def test_partial_orthogonality_reference_cases():
    H8 = SignedLatinSquare(SIGNED_SQUARE_8)
    assert orthogonal_column_pairs(H8) == set(combinations(range(1, 9), 2))

    square1 = construct_latin_square(1)
    H1 = color(square1, ())
    assert orthogonal_column_pairs(H1) == {(1, 2)}

    # all-plus choices at 16 cells: both half-blocks internally orthogonal
    square4 = construct_latin_square(4)
    H16 = color(square4, (1,) * 11)
    report = orthogonal_column_pairs(H16)
    within_halves = (set(combinations(range(1, 9), 2))
                     | set(combinations(range(9, 17), 2)))
    assert within_halves <= report
    assert len(report) < 120  # but not all pairs


def test_gram_oracle_column_verdict_equals_row_verdict():
    # is_latin_hadamard checks columns only: each column holds each
    # symbol once, so H^T H = (sum x_a^2) I, which forces H H^T to match.
    # The oracle checks the claim on every candidate without the kernel.
    verdicts = []
    for w in (2, 3, 4):
        for H in enumerate_colorings(construct_latin_square(w)):
            columns = gram_pairs_orthogonal(H)
            assert columns == gram_pairs_orthogonal(H, rows=True), H
            verdicts.append(columns)
    assert len(verdicts) == 2066 and sum(verdicts) == 18


def test_latin_square_without_corner_property_is_not_hadamard():
    cyclic = LatinSquare([[1, 2, 3, 4], [2, 3, 4, 1],
                          [3, 4, 1, 2], [4, 1, 2, 3]])
    # every quad through columns 1 and 2 has sign product -1, but no
    # corner closes, so the pair is still not orthogonal
    signs = np.array([[1, 1, 1, 1], [1, -1, 1, 1],
                      [1, 1, -1, 1], [1, -1, 1, -1]])
    H = SignedLatinSquare(signs * cyclic.entries)
    assert is_latin_hadamard(H) is False
    assert not gram_is_latin_hadamard(H)
    assert symbolic_gram(H).coefficient((1, 2), (1, 2)) != 0
    assert orthogonal_column_pairs(H) == set()


def test_square_constructors_reject_malformed_matrices():
    # Integral floats are the same square as the integers they equal.
    assert SignedLatinSquare([[1.0, 2.0], [2.0, -1.0]]) == SignedLatinSquare([[1, 2], [2, -1]])
    assert LatinSquare([[3.0, 4, 1, 2], [4, 3, 2, 1], [1, 2, 3, 4], [2, 1, 4, 3]]) == \
        LatinSquare(np.array([[3, 4, 1, 2], [4, 3, 2, 1], [1, 2, 3, 4], [2, 1, 4, 3]]))
    # 1e300 is integral but beyond int64: it must be rejected before the
    # cast, which would warn and wrap.  Both constructors screen their
    # entries once, so 1.7 and -1.5 are not truncated to 1 and -1.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([[1, 2], [2]], [[1, "2"], [2, -1]], [[1, 2], [2, None]],
                    [[1, 2.5], [2, -1]], [[1, 2], [2, float("nan")]],
                    [[1, 2], [1, -2]], [[1, 3], [3, -1]],
                    [[1, 2], [2, 1e300]], [[1, 2], [2, -1e300]], [[1, 2], [2, 2 ** 63]],
                    [[1.7, 2], [2, 1]], [[1, 2], [2, -1.5]], [[1, 2], [2, -2 ** 63]]):
            with pytest.raises(ValidationError):
                SignedLatinSquare(bad)
            with pytest.raises(ValidationError):
                LatinSquare(bad)


def test_signed_square_invariant_validation():
    square = construct_latin_square(2)
    good = color(square, (1,)).signs.copy()

    flipped = good.copy()
    flipped[0, 1] = -1  # positive first row violated
    with pytest.raises(ValidationError):
        SignedLatinSquare(flipped * square.entries)

    flipped = good.copy()
    flipped[2, 2] = 1  # negative diagonal violated
    with pytest.raises(ValidationError):
        SignedLatinSquare(flipped * square.entries)

    with pytest.raises(ValidationError):
        SignedLatinSquare(np.zeros((4, 4), dtype=int))


def test_serialization_roundtrip_and_identity():
    square = construct_latin_square(3)
    H = color(square, (-1, 1, 1, 1))
    clone = SignedLatinSquare(H.to_tuple())
    assert clone == H
    assert hash(clone) == hash(H)
    assert clone.to_tuple() == H.to_tuple()
    other = color(square, (1, 1, 1, 1))
    assert other != H
    # identity is the symbols and the signs, compared as arrays
    flipped = H.signed_entries()
    flipped[1, 2] *= -1
    assert SignedLatinSquare(flipped) != H
    cyclic = LatinSquare([[1, 2, 3, 4], [2, 3, 4, 1], [3, 4, 1, 2], [4, 1, 2, 3]])
    G = color(construct_latin_square(2), (1,)).signs
    assert SignedLatinSquare(G * cyclic.entries) != SignedLatinSquare(
        G * construct_latin_square(2).entries)


@pytest.mark.parametrize("w", (1, 2, 3, 4))
def test_enumeration_equals_single_colorings_in_bitstring_order(w):
    square = construct_latin_square(w)
    b = num_free_choices(w)
    count = 0
    for index, H in enumerate(enumerate_colorings(square)):
        assert H.choices == choices_from_bitstring(format(index, f"0{b}b") if b else "")
        assert np.array_equal(H.signs, color(square, H.choices).signs)
        count += 1
    assert count == 2 ** b


def test_enumerated_signs_cannot_be_made_writable():
    for H in enumerate_colorings(construct_latin_square(3)):
        with pytest.raises(ValueError):
            H.signs.setflags(write=True)
        with pytest.raises(ValueError):
            H.signs[1, 1] = 1


@pytest.mark.parametrize("w", range(EXHAUSTIVE_MAX_W + 1))
def test_expanded_block_equals_doubling_every_candidate(w, monkeypatch):
    # the block is expanded from the all-plus coloring and one flip per
    # choice; doubling all 2**b rows of choices must give it bit for bit,
    # and the enumeration itself never doubles more than b + 1 rows
    b = num_free_choices(w)
    double = coloring._double_signs
    rows = _count_doubled_rows(monkeypatch)
    candidates = list(enumerate_colorings(construct_latin_square(w)))
    assert rows and max(rows) <= b + 1
    every = [choices_from_bitstring(format(c, f"0{b}b") if b else "") for c in range(2 ** b)]
    assert [H.choices for H in candidates] == every
    expected = double(w, np.array([(1, *choices) for choices in every], dtype=np.int64))
    for H, signs in zip(candidates, expected, strict=True):
        assert H.signs.dtype == signs.dtype == np.int64
        assert not H.signs.flags.writeable
        assert np.array_equal(H.signs, signs)


# One sign rule broken in a single-flip row of the doubled rows: an
# entry of 2, a -1 in the first row, a +1 on the diagonal.
SIGN_RULES = {
    "entry-two": ((2, 3), 2, "must be \\+1 or -1"),
    "first-row": ((0, 2), -1, "first row and first column"),
    "diagonal": ((3, 3), 1, "diagonal"),
}


@pytest.mark.parametrize("w", (3, 4))
@pytest.mark.parametrize("rule", sorted(SIGN_RULES))
def test_enumeration_checks_each_block(monkeypatch, rule, w):
    double = coloring._double_signs
    (r, c), value, message = SIGN_RULES[rule]

    def one_bad_sign(w, choices):
        signs = double(w, choices)
        signs[len(signs) // 2, r, c] = value  # row t >= 1 negates choice t alone
        return signs

    monkeypatch.setattr(coloring, "_double_signs", one_bad_sign)
    candidates = enumerate_colorings(construct_latin_square(w))
    with pytest.raises(ValidationError, match=message):
        next(candidates)


@pytest.mark.parametrize("w", range(EXHAUSTIVE_MAX_W + 1))
def test_enumeration_checks_only_the_doubled_rows(w, monkeypatch):
    # the b + 1 doubled rows are checked; the 2**b expanded candidates,
    # exact products of checked rows, are not checked again
    check, checked = coloring._check_signs, []

    def counted(sgn):
        checked.append(sgn.reshape(-1, sgn.shape[-1], sgn.shape[-1]).shape[0])
        return check(sgn)

    monkeypatch.setattr(coloring, "_check_signs", counted)
    candidates = list(enumerate_colorings(construct_latin_square(w)))
    b = num_free_choices(w)
    assert len(candidates) == 2 ** b
    assert checked and sum(checked) <= b + 1
