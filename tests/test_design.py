import tracemalloc
import warnings
from itertools import permutations, product

import numpy as np
import pytest

from latinhadamard import (DESIGN_16_CELL_VARIABLES, CellCounts, OrthogonalDesign,
                           SignedLatinSquare, ValidationError, builtin_design_16,
                           color, construct_latin_square, decompose,
                           design_to_eigenbasis, enumerate_colorings, num_free_choices,
                           radon, verify_design)
from latinhadamard import latin
from latinhadamard.latin import LatinSquare

from design_oracle import monomial_identity_holds
from reference_tables import DESIGN_16

# phi on both halves of the 32 symbols, with symbol 17 tied to a new x_10.
DESIGN_32_CELL_VARIABLES = DESIGN_16_CELL_VARIABLES + (10,) + DESIGN_16_CELL_VARIABLES[1:]


def admissible_p_vars(rng, design):
    raw = rng.uniform(0.3, 2.0, size=design.num_vars)
    return raw / np.dot(design.type, raw)


def test_shape_and_type_vector():
    design = builtin_design_16()
    assert design.order == 16
    assert design.num_vars == 9
    assert design.type == (1, 2, 2, 2, 2, 2, 2, 2, 1)


def test_reference_entries():
    entries = builtin_design_16().entries
    assert entries[0, 0] == 1
    assert entries[0, 8] == 9
    assert entries[1, 1] == 1
    assert tuple(entries[0]) == DESIGN_16_CELL_VARIABLES
    assert np.array_equal(entries, DESIGN_16)


def test_defining_identity_holds():
    design = builtin_design_16()
    assert verify_design(design)
    assert monomial_identity_holds(design.entries, design.type)


def flipped(H, i, j):
    signs = H.signs.copy()
    signs[i, j] = -signs[i, j]
    return SignedLatinSquare(signs * H.square.entries)


def test_single_sign_flip_breaks_identity():
    H = builtin_design_16().signed
    design = OrthogonalDesign(flipped(H, 1, 2), DESIGN_16_CELL_VARIABLES)
    assert not verify_design(design)
    assert not monomial_identity_holds(design.entries, design.type)


def test_every_single_off_diagonal_flip_is_rejected():
    # First row, first column and diagonal are fixed by SignedLatinSquare;
    # the other 16*16 - 31 - 15 = 210 signs are free to flip.
    H = builtin_design_16().signed
    rejected = 0
    for i in range(1, 16):
        for j in range(1, 16):
            if i != j:
                design = OrthogonalDesign(flipped(H, i, j), DESIGN_16_CELL_VARIABLES)
                rejected += not (verify_design(design)
                                 or monomial_identity_holds(design.entries, design.type))
    assert rejected == 210


def test_kernel_agrees_with_oracle_on_every_w4_coloring():
    valid = 0
    for H in enumerate_colorings(construct_latin_square(4)):
        design = OrthogonalDesign(H, DESIGN_16_CELL_VARIABLES)
        ok = verify_design(design)
        assert ok == monomial_identity_holds(design.entries, design.type), H.choices
        valid += ok
    assert valid == 32


def test_kernel_agrees_with_oracle_on_every_small_design():
    # Every reduced 4x4 Latin square (two of the four have open AB-BA
    # corners, whose terms no quad cancels), every gap-free map of the
    # four symbols to variables, and every admissible sign matrix.
    starting = [[r for r in permutations(range(1, 5)) if r[0] == s] for s in (2, 3, 4)]
    squares = []
    for rows in product(*starting):
        entries = np.array(((1, 2, 3, 4),) + rows)
        if (np.sort(entries, axis=0) == np.arange(1, 5)[:, None]).all():
            squares.append(LatinSquare(entries))
    maps = [m for m in product(range(1, 5), repeat=4)
            if set(m) == set(range(1, max(m) + 1))]
    free = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    valid = 0
    for square in squares:
        for flips in product((1, -1), repeat=len(free)):
            signs = -np.eye(4, dtype=np.int64)
            signs[0] = signs[:, 0] = 1
            for (i, j), s in zip(free, flips):
                signs[i, j] = s
            H = SignedLatinSquare(signs * square.entries)
            for variables in maps:
                design = OrthogonalDesign(H, variables)
                ok = verify_design(design)
                assert ok == monomial_identity_holds(design.entries, design.type), \
                    (square.entries, signs, variables)
                valid += ok
    assert len(squares) == 4 and len(maps) == 75
    assert valid == 228


def test_kernel_agrees_with_oracle_on_random_colorings_and_maps():
    # Random colorings at w = 2..5, each with a random gap-free map of its
    # symbols to variables, or with one variable per symbol.
    rng = np.random.default_rng(20)
    verdicts = []
    for w in (2, 3, 4, 5):
        n = 2 ** w
        for trial in range(10):
            H = color(construct_latin_square(w),
                      rng.choice((-1, 1), size=num_free_choices(w)))
            drawn = rng.integers(1, rng.integers(1, n + 1) + 1, size=n)
            variables = np.unique(drawn, return_inverse=True)[1] + 1
            for phi in (variables, np.arange(1, n + 1)):
                design = OrthogonalDesign(H, phi)
                ok = verify_design(design)
                assert ok == monomial_identity_holds(design.entries, design.type), \
                    (w, H.choices, phi)
                verdicts.append(ok)
    assert any(verdicts) and not all(verdicts)


def test_verify_design_memory_follows_the_terms():
    # One variable per symbol at w = 6: an n x n x (l+1) x (l+1) grid of
    # monomial coefficients would take 141 MiB; the surviving terms take
    # far less.  The frame cache is cleared so the kernel's first call
    # counts too.  No coloring at w = 6 is Latin-Hadamard.
    H = color(construct_latin_square(6), (1,) * num_free_choices(6))
    design = OrthogonalDesign(H, np.arange(1, 65))
    latin._quad_frame.cache_clear()
    tracemalloc.start()
    try:
        ok = verify_design(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok is False
    assert peak < 32 * 2 ** 20


def test_doubled_design_on_32_cells():
    H = color(construct_latin_square(5), (1,) * 26)
    design = OrthogonalDesign(H, DESIGN_32_CELL_VARIABLES)
    assert design.type == (1, 4, 4, 4, 4, 4, 4, 4, 2, 1)
    assert design.num_vars == radon(32)
    assert verify_design(design)
    assert monomial_identity_holds(design.entries, design.type)


def test_trivial_design():
    one = OrthogonalDesign(color(construct_latin_square(0), ()), (1,))
    assert verify_design(one)
    assert one.type == (1,)
    assert one.entries.tolist() == [[1]]


def test_variable_count_meets_radon_bound():
    design = builtin_design_16()
    assert design.num_vars <= radon(design.order)
    assert design.num_vars == 9


def test_equal_variable_probabilities():
    basis = design_to_eigenbasis(builtin_design_16(), np.full(9, 1 / 16))
    assert np.allclose(basis.matrix[:, 0], 0.25, atol=1e-15)
    assert np.abs(basis.p.p - 1 / 16).max() < 1e-15


def test_random_admissible_probabilities_give_orthonormal_basis():
    design = builtin_design_16()
    rng = np.random.default_rng(42)
    for _ in range(25):
        p_vars = admissible_p_vars(rng, design)
        basis = design_to_eigenbasis(design, p_vars)
        gram_dev = np.abs(basis.matrix.T @ basis.matrix - np.eye(16)).max()
        assert gram_dev < 1e-12
        # cells read off row 1: variables (1, 2..8, 9, 2..8)
        expected_cells = p_vars[np.array(DESIGN_16_CELL_VARIABLES) - 1]
        assert np.array_equal(basis.p.p, expected_cells)


def test_input_validation():
    design = builtin_design_16()
    with pytest.raises(ValidationError):
        design_to_eigenbasis(design, np.full(9, 1 / 9))  # type-weighted sum != 1
    bad = np.full(9, 1 / 16)
    bad[3] = -bad[3]
    with pytest.raises(ValidationError):
        design_to_eigenbasis(design, bad)
    with pytest.raises(ValidationError):
        design_to_eigenbasis(design, np.full(4, 0.25))


@pytest.mark.parametrize("p_vars", [["a"] * 9, [[0.1], [0.1, 0.1]] + [0.1] * 7])
def test_variable_probabilities_that_are_not_numbers_rejected(p_vars):
    with pytest.raises(ValidationError,
                       match="^variable probabilities must be a rectangular array of numbers$"):
        design_to_eigenbasis(builtin_design_16(), p_vars)


def test_variable_probabilities_above_one_rejected_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="must lie in"):
            design_to_eigenbasis(builtin_design_16(), [1e308, 1e308] + [1.0] * 7)


def test_sixteen_cell_partition_identity():
    design = builtin_design_16()
    rng = np.random.default_rng(7)
    for _ in range(10):
        basis = design_to_eigenbasis(design, admissible_p_vars(rng, design))
        counts = CellCounts(rng.multinomial(int(rng.integers(100, 400)), basis.p.p))
        result = decompose(counts, basis.p, basis)
        assert abs(result.sum_check) <= 1e-10 * max(1.0, result.x2)


def test_design_validation_rejects_bad_variable_maps():
    H = color(construct_latin_square(1), ())
    with pytest.raises(ValidationError):
        OrthogonalDesign(H, (1,))  # one variable for two symbols
    with pytest.raises(ValidationError):
        OrthogonalDesign(H, (1, 3))  # 3 is above the order, so the screen rejects it
    with pytest.raises(ValidationError, match="^variable indices must be 1..l without gaps$"):
        OrthogonalDesign(color(construct_latin_square(2), (1,)), (1, 1, 3, 3))
    with pytest.raises(ValidationError):
        OrthogonalDesign(H, (0, 1))  # variables are numbered from 1
    # not truncated or parsed: fractions, strings and ragged maps
    for variables in ((1.5, 2.5), ("1", "2"), ("a", "b"), [[1], [1, 2]]):
        with pytest.raises(ValidationError):
            OrthogonalDesign(H, variables)
