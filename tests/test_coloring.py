from itertools import combinations

import numpy as np
import pytest

from latinhadamard import (SignedLatinSquare, ValidationError,
                           choices_from_bitstring, choices_to_bitstring, color,
                           construct_latin_square, enumerate_colorings,
                           is_latin_hadamard, num_free_choices,
                           partial_orthogonality_report,
                           sign_pattern_is_hadamard)
from latinhadamard.errors import SizeError
from latinhadamard.latin import LatinSquare

from coloring_oracle import propagate_signs
from gram_oracle import gram_is_latin_hadamard, pair_coefficients, symbolic_gram
from reference_tables import (SIGNED_SQUARE_8, VALID_SIGNED_SQUARES_4,
                              VALID_SIGNED_SQUARES_8)


def as_set(matrices):
    return {tuple(tuple(int(v) for v in row) for row in m) for m in matrices}


@pytest.mark.parametrize("w,expected", [(0, 0), (1, 0), (2, 1), (3, 4), (4, 11)])
def test_free_choice_count(w, expected):
    assert num_free_choices(w) == expected


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


@pytest.mark.parametrize("w,count", [(2, 2), (3, 16), (4, 2048)])
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
    cyclic = LatinSquare(2, [[1, 2, 3, 4], [2, 3, 4, 1],
                             [3, 4, 1, 2], [4, 1, 2, 3]])
    with pytest.raises(ValidationError):
        color(cyclic, (1,))


def test_enumeration_size_guard():
    with pytest.raises(SizeError):
        next(enumerate_colorings(construct_latin_square(5)))


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
        report = partial_orthogonality_report(H)
        assert {(1, j) for j in range(2, 17)} <= report
        G = H.signs
        assert not any(pair_coefficients(S[0], S[j], G[0] * G[j], 16).any()
                       for j in range(1, 16))


def test_gram_diagonal_is_full_symbol_sum():
    H = SignedLatinSquare.from_signed_entries(SIGNED_SQUARE_8)
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


def test_reference_matrices_are_latin_hadamard():
    for entries in VALID_SIGNED_SQUARES_4 + VALID_SIGNED_SQUARES_8:
        H = SignedLatinSquare.from_signed_entries(entries)
        assert is_latin_hadamard(H)
        assert sign_pattern_is_hadamard(H)


def test_sign_pattern_checks():
    H = SignedLatinSquare.from_signed_entries(SIGNED_SQUARE_8)
    assert sign_pattern_is_hadamard(H)
    assert not sign_pattern_is_hadamard(np.ones((4, 4), dtype=int))
    with pytest.raises(ValidationError):
        sign_pattern_is_hadamard(np.zeros((4, 4), dtype=int))


def test_partial_orthogonality_reference_cases():
    H8 = SignedLatinSquare.from_signed_entries(SIGNED_SQUARE_8)
    assert partial_orthogonality_report(H8) == set(combinations(range(1, 9), 2))

    square1 = construct_latin_square(1)
    H1 = color(square1, ())
    assert partial_orthogonality_report(H1) == {(1, 2)}

    # all-plus choices at 16 cells: both half-blocks internally orthogonal
    square4 = construct_latin_square(4)
    H16 = color(square4, (1,) * 11)
    report = partial_orthogonality_report(H16)
    within_halves = (set(combinations(range(1, 9), 2))
                     | set(combinations(range(9, 17), 2)))
    assert within_halves <= report
    assert len(report) < 120  # but not all pairs


def test_partial_orthogonality_matches_gram_oracle():
    square = construct_latin_square(4)
    for choices in ((1,) * 11, (-1,) * 11, (1, -1) * 5 + (1,)):
        H = color(square, choices)
        nonzero = {pair for pair, _ in symbolic_gram(H).coefficients}
        assert partial_orthogonality_report(H) == (
            set(combinations(range(1, 17), 2)) - nonzero)


def test_latin_square_without_corner_property_is_not_hadamard():
    cyclic = LatinSquare(2, [[1, 2, 3, 4], [2, 3, 4, 1],
                             [3, 4, 1, 2], [4, 1, 2, 3]])
    # every quad through columns 1 and 2 has sign product -1, but no
    # corner closes, so the pair is still not orthogonal
    signs = np.array([[1, 1, 1, 1], [1, -1, 1, 1],
                      [1, 1, -1, 1], [1, -1, 1, -1]])
    H = SignedLatinSquare(cyclic, signs)
    assert is_latin_hadamard(H) is False
    assert not gram_is_latin_hadamard(H)
    assert symbolic_gram(H).coefficient((1, 2), (1, 2)) != 0
    assert partial_orthogonality_report(H) == set()


def test_from_signed_entries_rejects_malformed_matrices():
    good = [[1, 2], [2, -1]]
    assert SignedLatinSquare.from_signed_entries([[1.0, 2.0], [2.0, -1.0]]) == \
        SignedLatinSquare.from_signed_entries(good)
    for bad in ([[1, 2], [2]], [[1, "2"], [2, -1]], [[1, 2], [2, None]],
                [[1, 2.5], [2, -1]], [[1, 2], [2, float("nan")]],
                [[1, 2], [1, -2]], [[1, 3], [3, -1]]):
        with pytest.raises(ValidationError):
            SignedLatinSquare.from_signed_entries(bad)


def test_signed_square_invariant_validation():
    square = construct_latin_square(2)
    good = color(square, (1,)).signs.copy()

    flipped = good.copy()
    flipped[0, 1] = -1  # positive first row violated
    with pytest.raises(ValidationError):
        SignedLatinSquare(square, flipped)

    flipped = good.copy()
    flipped[2, 2] = 1  # negative diagonal violated
    with pytest.raises(ValidationError):
        SignedLatinSquare(square, flipped)

    with pytest.raises(ValidationError):
        SignedLatinSquare(square, np.zeros((4, 4), dtype=int))


def test_serialization_roundtrip_and_identity():
    square = construct_latin_square(3)
    H = color(square, (-1, 1, 1, 1))
    clone = SignedLatinSquare.from_signed_entries(H.to_tuple())
    assert clone == H
    assert hash(clone) == hash(H)
    assert clone.to_tuple() == H.to_tuple()
    other = color(square, (1, 1, 1, 1))
    assert other != H
