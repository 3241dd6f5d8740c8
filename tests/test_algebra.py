import re
from itertools import permutations

import numpy as np
import pytest

from latinhadamard import (SignedLatinSquare, SizeError, ValidationError, builtin_design_16,
                           cayley_dickson_table, color, construct_latin_square,
                           enumerate_colorings, find_zero_divisors,
                           is_latin_hadamard, num_free_choices, radon,
                           table_from_signed_square)
from latinhadamard.algebra import AlgebraTable, ZeroDivisorPair

from cayley_dickson_oracle import doubling_table
from product_oracle import basis_products, brute_force_zero_divisors, multiply
from quad_loop_oracle import loop_zero_divisors
from reference_tables import QUATERNION_TABLE, SIGNED_SQUARE_8


def basis_vector(dim, index, sign=1):
    v = np.zeros(dim, dtype=np.int64)
    v[index - 1] = sign
    return v


def basis_product(table, i, j):
    """e_i * e_j as (sign, basis index), 1-based, read off the bilinear product."""
    out = multiply(table, basis_vector(table.dim, i), basis_vector(table.dim, j))
    (k,) = np.nonzero(out)[0]
    return int(out[k]), int(k) + 1


def test_trivial_table():
    table = cayley_dickson_table(0)
    assert table.dim == 1
    assert basis_product(table, 1, 1) == (1, 1)


def test_quaternion_table_matches_reference():
    table = cayley_dickson_table(2)
    assert np.array_equal(table.signs * table.indices, QUATERNION_TABLE)
    assert basis_product(table, 2, 3) == (1, 4)
    assert basis_product(table, 3, 2) == (-1, 4)
    assert basis_product(table, 2, 2) == (-1, 1)


@pytest.mark.parametrize("m", range(6))
def test_doubling_tables_are_valid(m):
    # constructor enforces the Latin/unit/square invariants
    table = cayley_dickson_table(m)
    assert table.dim == 2 ** m


def test_quaternions_are_associative():
    table = cayley_dickson_table(2)
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                si, a = basis_product(table, i, j)
                s1, left = basis_product(table, a, k)
                sj, b = basis_product(table, j, k)
                s2, right = basis_product(table, i, b)
                assert (si * s1, left) == (sj * s2, right)


def test_sedenion_multiplication_not_associative():
    table = cayley_dickson_table(4)
    violations = 0
    for i, j, k in ((2, 3, 5), (2, 9, 10), (3, 10, 15)):
        si, a = basis_product(table, i, j)
        s1, left = basis_product(table, a, k)
        sj, b = basis_product(table, j, k)
        s2, right = basis_product(table, i, b)
        violations += (si * s1, left) != (sj * s2, right)
    assert violations > 0


def test_division_algebras_have_no_sum_form_zero_divisors():
    for m in (2, 3):
        assert next(find_zero_divisors(cayley_dickson_table(m)), None) is None


def test_sedenions_have_zero_divisors():
    table = cayley_dickson_table(4)
    divisors = list(find_zero_divisors(table))
    assert divisors
    for z in divisors:
        a = basis_vector(16, z.i) + z.s1 * basis_vector(16, z.j)
        b = basis_vector(16, z.k) + z.s2 * basis_vector(16, z.l)
        assert not multiply(table, a, b).any()


@pytest.mark.parametrize("m", range(5))
def test_brute_force_basis_products_equal_multiply(m):
    # the brute-force scan reads every e_a e_b off the table at once; the
    # term-by-term product must give the same vectors
    square = construct_latin_square(m)
    for table in (cayley_dickson_table(m),
                  table_from_signed_square(color(square, (-1,) * num_free_choices(m)))):
        basis = basis_products(table)
        for a in range(1, table.dim + 1):
            for b in range(1, table.dim + 1):
                expected = multiply(table, basis_vector(table.dim, a), basis_vector(table.dim, b))
                assert np.array_equal(basis[:, a - 1, b - 1], expected)


def test_pruned_scan_equals_brute_force():
    # the generator skips value patterns that provably cannot cancel;
    # an unpruned scan must find exactly the same pairs
    for source in (cayley_dickson_table(2), cayley_dickson_table(3),
                   table_from_signed_square(
                       SignedLatinSquare(SIGNED_SQUARE_8))):
        assert list(find_zero_divisors(source)) == brute_force_zero_divisors(source)
    square = construct_latin_square(3)
    noisy = table_from_signed_square(color(square, (1, -1, 1, -1)))
    assert list(find_zero_divisors(noisy)) == brute_force_zero_divisors(noisy)


@pytest.mark.parametrize("index", [0, 1234, 2047])
def test_zero_divisors_listed_in_documented_order(index):
    # by (i, j, k), then s1 = +1 first: the brute force sorts on that key,
    # and the enumerated square carries its row of the block products
    H = list(enumerate_colorings(construct_latin_square(4)))[index]
    divisors = list(find_zero_divisors(table_from_signed_square(H)))
    assert divisors and divisors == brute_force_zero_divisors(table_from_signed_square(H))


def test_first_zero_divisor_is_the_first_of_the_list():
    # the first hit is converted on its own; it must be the list's head
    tables = [table_from_signed_square(H)
              for H in enumerate_colorings(construct_latin_square(4))]
    tables += [cayley_dickson_table(m) for m in (3, 4, 5)]
    for table in tables:
        listed = list(find_zero_divisors(table))
        first = next(find_zero_divisors(table), None)
        assert first == (listed[0] if listed else None)
        assert first is None or type(first.s2) is int
    assert next(find_zero_divisors(cayley_dickson_table(3)), None) is None


def test_batch_zero_divisors_equal_the_per_quad_loop():
    # the later hits are converted as one array; the per-quad loop they
    # replaced must give the same pairs, in order, with Python-int fields
    tables = [cayley_dickson_table(m) for m in range(1, 6)]  # dims 2..32
    candidates = list(enumerate_colorings(construct_latin_square(4)))
    picks = np.random.default_rng(20261021).choice(len(candidates), size=64, replace=False)
    colored = [table_from_signed_square(candidates[c]) for c in picks.tolist()]
    for table in tables + colored:
        listed = list(find_zero_divisors(table))
        assert listed == list(loop_zero_divisors(table))
        assert all(type(z) is ZeroDivisorPair and all(type(v) is int for v in z)
                   for z in listed)
    assert len(list(find_zero_divisors(tables[-1]))) == 5040
    # the s2 signs are each coloring's own, so the seeded lists differ
    assert len({tuple(find_zero_divisors(table)) for table in colored}) > 1


class _CountedReads(np.ndarray):
    reads = 0

    def __getitem__(self, key):
        type(self).reads += 1
        return super().__getitem__(key)


def test_two_zero_divisors_do_not_gather_the_rest(monkeypatch):
    # the first quad's pair is read off the first kept hit with Python
    # scalars; only a third read indexes the later hits
    table = table_from_signed_square(
        SignedLatinSquare(cayley_dickson_table(5)._signed.signed_entries()))
    checks = table._signed._decision
    monkeypatch.setattr(_CountedReads, "reads", 0)
    table._signed._checks = checks[:4] + (checks[4].view(_CountedReads),)
    divisors = find_zero_divisors(table)
    first_two = [next(divisors), next(divisors)]
    assert _CountedReads.reads == 0
    third = next(divisors)
    assert _CountedReads.reads > 0
    assert first_two + [third] == list(loop_zero_divisors(cayley_dickson_table(5)))[:3]


def test_table_from_quaternion_like_coloring():
    square = construct_latin_square(2)
    table = table_from_signed_square(color(square, (1,)))
    assert table == cayley_dickson_table(2)


def test_other_4x4_coloring_is_quaternion_isomorphic():
    square = construct_latin_square(2)
    table = table_from_signed_square(color(square, (-1,)))
    reference = cayley_dickson_table(2)

    def is_isomorphism(mapping, signs):
        # phi(e_i) = signs[i] * e_{mapping[i]} must satisfy
        # phi(e_i) phi(e_j) = phi(e_i e_j) with the product on the left
        # taken in the reference algebra
        for i in range(1, 5):
            for j in range(1, 5):
                s, k = basis_product(table, i, j)
                s_ref, k_ref = basis_product(reference, mapping[i], mapping[j])
                if k_ref != mapping[k] or signs[i] * signs[j] * s_ref != s * signs[k]:
                    return False
        return True

    found = False
    for perm in permutations((2, 3, 4)):
        mapping = {1: 1, 2: perm[0], 3: perm[1], 4: perm[2]}
        for bits in range(8):
            signs = {1: 1}
            for pos, idx in enumerate((2, 3, 4)):
                signs[idx] = 1 if (bits >> pos) & 1 else -1
            if is_isomorphism(mapping, signs):
                found = True
    assert found


def test_octonion_like_coloring_has_no_zero_divisors():
    H = SignedLatinSquare(SIGNED_SQUARE_8)
    table = table_from_signed_square(H)
    assert next(find_zero_divisors(table), None) is None


def test_sixteen_cell_colorings_always_have_zero_divisors():
    square = construct_latin_square(4)
    for choices in ((1,) * 11, (-1,) * 11, (1, -1) * 5 + (1,)):
        table = table_from_signed_square(color(square, choices))
        assert next(find_zero_divisors(table), None) is not None


@pytest.mark.parametrize("w", (2, 3))
def test_orthogonality_equivalent_to_no_zero_divisors_small(w):
    square = construct_latin_square(w)
    for H in enumerate_colorings(square):
        empty = next(find_zero_divisors(table_from_signed_square(H)), None) is None
        assert empty == is_latin_hadamard(H)


def test_radon_reference_values():
    assert radon(8) == 8
    assert radon(16) == 9
    assert radon(32) == 10
    assert radon(64) == 12


def test_radon_fixed_points_up_to_64():
    fixed = [n for n in range(1, 65) if radon(n) == n]
    assert fixed == [1, 2, 4, 8]


def test_radon_rejects_bad_input():
    with pytest.raises(ValidationError):
        radon(0)


@pytest.mark.parametrize("n", [float("nan"), float("inf"), float("-inf"), np.inf, 2.5])
def test_radon_rejects_non_integers_with_its_message(n):
    message = f"radon argument must be an integer of at least 1, got {n!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        radon(n)


def test_table_validation():
    with pytest.raises(ValidationError):
        AlgebraTable(SignedLatinSquare([[1, 1], [2, 2]]))  # not Latin
    with pytest.raises(ValidationError):
        AlgebraTable(SignedLatinSquare([[1, 2], [2, 1]]))  # e_2^2 != -e_1
    H = color(construct_latin_square(2), (1,))
    table = AlgebraTable(H)
    assert table.dim == 4
    assert table.signs is H.signs and table.indices is H.square.entries
    assert not table.signs.flags.writeable

    zd = ZeroDivisorPair(i=2, j=3, s1=-1, k=4, l=5, s2=1)
    assert str(zd) == "(e_2 - e_3)(e_4 + e_5) = 0"
    assert zd == (2, 3, -1, 4, 5, 1)  # a record is a plain tuple of its fields


def test_table_checks_its_symbols():
    # admissible signs, so only the table's own symbol checks catch these
    swap = np.array([0, 1, 3, 2, 4, 5, 6, 7, 8])  # symbols 2 and 3 swapped
    relabelled = np.sign(SIGNED_SQUARE_8) * swap[np.abs(SIGNED_SQUARE_8)]
    with pytest.raises(ValidationError, match="e_1 must act as a two-sided unit"):
        AlgebraTable(SignedLatinSquare(relabelled))
    cyclic = [[1, 2, 3, 4], [2, -3, 4, 1], [3, 4, -1, 2], [4, 1, 2, -3]]
    with pytest.raises(ValidationError, match="must square to -e_1"):
        AlgebraTable(SignedLatinSquare(cyclic))


def test_unit_structure_flags_the_squares_the_table_rejects():
    swap = np.array([0, 1, 3, 2, 4, 5, 6, 7, 8])  # symbols 2 and 3 swapped
    relabelled = np.sign(SIGNED_SQUARE_8) * swap[np.abs(SIGNED_SQUARE_8)]
    square = SignedLatinSquare(relabelled).square
    assert square.unit_structure[0] is False
    cyclic = [[1, 2, 3, 4], [2, -3, 4, 1], [3, 4, -1, 2], [4, 1, 2, -3]]
    assert SignedLatinSquare(cyclic).square.unit_structure == (True, False)


@pytest.mark.parametrize("m", range(6))
def test_doubling_table_equals_quadrant_oracle(m):
    signs, indices = doubling_table(m)
    table = cayley_dickson_table(m)
    assert np.array_equal(table.signs, signs)
    assert np.array_equal(table.indices, indices)


@pytest.mark.parametrize("w", (6, 7, 8))
def test_all_plus_coloring_equals_quadrant_oracle(w):
    # above dimension 32 cayley_dickson_table refuses, so compare color
    H = color(construct_latin_square(w), (1,) * num_free_choices(w))
    signs, indices = doubling_table(w)
    assert np.array_equal(H.signs, signs)
    assert np.array_equal(H.square.entries, indices)


def test_builtin_design_is_the_sedenion_table():
    # the design ties symbols to variables; its signed square is the table
    assert table_from_signed_square(builtin_design_16().signed) == cayley_dickson_table(4)


@pytest.mark.parametrize("m, message", [(-1, "non-negative integer"),
                                        (2.5, "non-negative integer"),
                                        (6, "is limited to 5"),
                                        (6.5, "is limited to 5")])
def test_doubling_rejects_bad_exponents(m, message):
    with pytest.raises(SizeError if m > 5 else ValidationError, match=message):
        cayley_dickson_table(m)
