import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latinhadamard import (CellCounts, Eigenbasis, ProbabilityVector,
                           SignedLatinSquare, SizeError, ValidationError,
                           alternate_signed_square_8, canonical_signed_square_8,
                           color, construct_latin_square, decompose,
                           eigen_interlacing_check,
                           eigenbasis_from_latin_hadamard,
                           eigenbasis_from_sign_matrix, num_free_choices,
                           sigma, sigma_star, sylvester_hadamard)
from latinhadamard.chisq import _pearson_components

from closed_form_oracle import (component_formulas_t2_t6_t8, loop_pearson_x2,
                                loop_scaled_residuals)
from reference_tables import VALID_SIGNED_SQUARES_8


def random_probability(rng, k, low=0.2, high=2.0):
    return ProbabilityVector.proportional_to(rng.uniform(low, high, size=k))


def basis_for(p):
    """A Latin-Hadamard eigenbasis for 2, 4 or 8 cells."""
    signed = {2: color(construct_latin_square(1), ()),
              4: color(construct_latin_square(2), (1,)),
              8: canonical_signed_square_8()}
    return eigenbasis_from_latin_hadamard(signed[p.k], p)


class TestInputs:
    def test_probability_validation(self):
        with pytest.raises(ValidationError):
            ProbabilityVector([0.5, 0.6])
        with pytest.raises(ValidationError):
            ProbabilityVector([1.0, 0.0])
        with pytest.raises(ValidationError):
            ProbabilityVector([1.0])

    @pytest.mark.parametrize("p", [["a", "b"], [[0.5], [0.25, 0.25]], [{}, 0.5]])
    def test_probabilities_that_are_not_numbers_rejected(self, p):
        with pytest.raises(ValidationError,
                           match="^probabilities must be a rectangular array of numbers$"):
            ProbabilityVector(p)

    def test_ragged_counts_rejected(self):
        with pytest.raises(ValidationError, match="^counts must be a flat vector$"):
            CellCounts([[1], [2, 3]])

    def test_proportional_and_equiprobable(self):
        p = ProbabilityVector.proportional_to([1, 2, 3, 4])
        assert np.allclose(p.p, [0.1, 0.2, 0.3, 0.4])
        assert np.allclose(ProbabilityVector.equiprobable(8).p, 1 / 8)
        for k in (2, np.int64(3), 2 ** 10):
            assert ProbabilityVector.equiprobable(k).k == k

    @pytest.mark.parametrize("k,error", [(0, ValidationError), (1, ValidationError),
                                         (-1, ValidationError), (2.5, ValidationError),
                                         (4.0, ValidationError),
                                         ("4", ValidationError), (None, ValidationError),
                                         (math.nan, ValidationError),
                                         (2 ** 10 + 1, SizeError), (10 ** 12, SizeError),
                                         (math.inf, SizeError)])
    def test_equiprobable_screens_the_cell_count(self, k, error):
        # SizeError comes before np.full: 10**12 cells would be 7.28 TiB
        with pytest.raises(error, match="^cell count "):
            ProbabilityVector.equiprobable(k)

    def test_two_dimensional_counts_rejected(self):
        with pytest.raises(ValidationError, match="^counts must be a flat vector$"):
            CellCounts([[1, 2], [3, 4]])

    def test_weights_with_a_negative_sum_rejected(self):
        with pytest.raises(ValidationError, match="^weights must have a positive sum$"):
            ProbabilityVector.proportional_to([1.0, -2.0])

    def test_counts_validation(self):
        with pytest.raises(ValidationError):
            CellCounts([1, -2])
        with pytest.raises(ValidationError):
            CellCounts([1.5, 2.5])
        counts = CellCounts([3, 7])
        assert counts.n == 10 and counts.k == 2

    @pytest.mark.parametrize("m", [[True, False, True], np.array([True, True]),
                                   np.array([True, 2], dtype=object)],
                             ids=["list", "array", "object-array"])
    def test_boolean_counts_rejected(self, m):
        # ProbabilityVector's screen takes numbers only; counts are no looser
        with pytest.raises(ValidationError, match="^counts must be integers$"):
            CellCounts(m)

    @pytest.mark.parametrize("m", [[10 ** 23, 1], [2 ** 63, 1], [2.0 ** 63, 1.0],
                                   [2 ** 63 - 1, 2 ** 63 - 1], [2 ** 62, 2 ** 62]])
    def test_counts_beyond_int64_rejected(self, m):
        with pytest.raises(ValidationError, match="at most 2\\*\\*63 - 1"):
            CellCounts(m)

    def test_largest_int64_total_kept_exactly(self):
        counts = CellCounts([2 ** 62, 2 ** 62 - 1])
        assert counts.n == 2 ** 63 - 1
        assert counts.m.tolist() == [2 ** 62, 2 ** 62 - 1]

    def test_probabilities_above_one_rejected_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="must lie in"):
                ProbabilityVector([1e308, 1e308])

    @pytest.mark.parametrize("weights", [[1e308, 1e308], [1.0, math.inf],
                                         [math.inf, -math.inf], [1.0, math.nan]])
    def test_weights_with_no_finite_sum_rejected_without_warning(self, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^weights must have a finite sum$"):
                ProbabilityVector.proportional_to(weights)

    @pytest.mark.parametrize("use", [lambda m, p: m], ids=["CellCounts"])
    def test_zero_total_rejected_without_warning(self, use):
        p = ProbabilityVector.equiprobable(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="at least one observation"):
                use(CellCounts([0] * 8), p)

    def test_sum_message_shows_a_python_float(self):
        with pytest.raises(ValidationError) as info:
            ProbabilityVector([0.5, 0.1])
        assert str(info.value) == "probabilities must sum to 1 (got 0.6)"


class TestPearson:
    def test_perfect_fit_is_zero(self):
        p = ProbabilityVector.proportional_to([1, 2, 3, 4])
        m = CellCounts((100 * p.p).astype(int))
        assert decompose(m, p, basis_for(p)).x2 == 0.0

    def test_hand_value(self):
        p = ProbabilityVector([0.5, 0.5])
        assert decompose(CellCounts([6, 4]), p, basis_for(p)).x2 == pytest.approx(0.4, abs=1e-15)

    def test_against_independent_loop(self):
        rng = np.random.default_rng(11)
        p = random_probability(rng, 8)
        m = CellCounts(rng.multinomial(200, p.p))
        total = loop_pearson_x2(m, p)
        assert decompose(m, p, basis_for(p)).x2 == pytest.approx(total, rel=1e-14)

    def test_dimension_mismatch(self):
        p = ProbabilityVector([0.5, 0.5])
        with pytest.raises(ValidationError):
            decompose(CellCounts([1, 2, 3]), p, basis_for(p))


class TestScaledResiduals:
    # The components are the coordinates of the scaled residuals y in
    # columns 2..k; the first coordinate, sqrt(p).y, is zero by count
    # conservation, so those columns alone rebuild y.
    def test_perfect_fit(self):
        p = ProbabilityVector([0.5, 0.5])
        result = decompose(CellCounts([5, 5]), p, basis_for(p))
        assert np.array_equal(result.components, [0])

    def test_hand_value(self):
        p = ProbabilityVector([0.5, 0.5])
        basis = basis_for(p)
        result = decompose(CellCounts([6, 4]), p, basis)
        y = basis.matrix[:, 1:] @ result.components
        assert np.allclose(y, [1 / math.sqrt(5), -1 / math.sqrt(5)])

    def test_count_conservation_and_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_probability(rng, 8)
            m = CellCounts(rng.multinomial(150, p.p))
            y = loop_scaled_residuals(m, p)
            assert abs(float(np.dot(y, np.sqrt(150 * p.p)))) < 1e-9
            basis = basis_for(p)
            result = decompose(m, p, basis)
            assert np.abs(basis.matrix[:, 1:] @ result.components - y).max() < 1e-9
            assert float(result.components @ result.components) == pytest.approx(
                loop_pearson_x2(m, p), rel=1e-12)


class TestCovariance:
    def test_hand_value_k2(self):
        assert np.allclose(sigma(ProbabilityVector([0.5, 0.5])),
                           [[0.25, -0.25], [-0.25, 0.25]])

    def test_equiprobable_form(self):
        k = 8
        p = ProbabilityVector.equiprobable(k)
        expected = (np.eye(k) - np.ones((k, k)) / k) / k
        assert np.allclose(sigma(p), expected, atol=1e-15)

    def test_sigma_star_idempotent_with_sqrt_p_kernel(self):
        rng = np.random.default_rng(2)
        for k in (2, 4, 8, 16):
            for _ in range(20):
                p = random_probability(rng, k)
                star = sigma_star(p)
                assert np.abs(star @ star - star).max() < 1e-12
                assert np.abs(star @ p.sqrt()).max() < 1e-12
                assert np.trace(star) == pytest.approx(k - 1, abs=1e-9)

    def test_diagonal_rescaling_identities(self):
        rng = np.random.default_rng(3)
        p = random_probability(rng, 8).p
        d = np.diag(p)
        inv = np.linalg.inv(d)
        inv_half = np.diag(1 / np.sqrt(p))
        half = np.diag(np.sqrt(p))
        ones = np.ones(8)
        assert np.allclose(inv @ p, ones)
        assert p @ inv @ p == pytest.approx(1.0)
        assert np.allclose(inv_half @ np.sqrt(p), ones)
        assert np.allclose(inv_half @ p, np.sqrt(p))
        assert np.allclose(half @ ones, np.sqrt(p))


class TestEigenbasis:
    def test_equiprobable_reduces_to_normalized_signs(self):
        H = canonical_signed_square_8()
        p = ProbabilityVector.equiprobable(8)
        basis = eigenbasis_from_latin_hadamard(H, p)
        assert np.allclose(basis.matrix, H.signs / math.sqrt(8))

    def test_reference_matrix_with_sloped_probabilities(self):
        H = SignedLatinSquare(VALID_SIGNED_SQUARES_8[0])
        p = ProbabilityVector.proportional_to([1, 2, 3, 4, 4, 3, 2, 1])
        basis = eigenbasis_from_latin_hadamard(H, p)
        assert np.abs(basis.matrix.T @ basis.matrix - np.eye(8)).max() < 1e-12

    def test_two_cell_case(self):
        square = construct_latin_square(1)
        H = color(square, ())
        p = ProbabilityVector([0.3, 0.7])
        basis = eigenbasis_from_latin_hadamard(H, p)
        r1, r2 = math.sqrt(0.3), math.sqrt(0.7)
        assert np.allclose(basis.matrix, [[r1, r2], [r2, -r1]])

    def test_columns_are_unit_eigenvectors(self):
        rng = np.random.default_rng(9)
        H = canonical_signed_square_8()
        for _ in range(10):
            p = random_probability(rng, 8)
            basis = eigenbasis_from_latin_hadamard(H, p)
            star = sigma_star(p)
            for l in range(1, 8):
                v = basis.matrix[:, l]
                assert np.abs(star @ v - v).max() < 1e-10

    def test_rejects_invalid_coloring(self):
        square = construct_latin_square(4)
        H = color(square, (1,) * 11)
        with pytest.raises(ValidationError):
            eigenbasis_from_latin_hadamard(H, ProbabilityVector.equiprobable(16))

    def test_rejects_a_square_of_another_order(self):
        with pytest.raises(ValidationError, match="^matrix order 8 does not match 4 cells$"):
            eigenbasis_from_latin_hadamard(canonical_signed_square_8(),
                                           ProbabilityVector.equiprobable(4))

    def test_rejects_non_orthonormal_matrix(self):
        p = ProbabilityVector.equiprobable(4)
        with pytest.raises(ValidationError):
            Eigenbasis(np.ones((4, 4)), p)


class TestDecompose:
    def test_perfect_fit_components_vanish(self):
        p = ProbabilityVector.equiprobable(8)
        m = CellCounts(np.full(8, 25))
        basis = eigenbasis_from_latin_hadamard(canonical_signed_square_8(), p)
        result = decompose(m, p, basis)
        assert np.abs(result.components).max() == 0.0
        assert result.x2 == 0.0

    def test_partition_identity_randomized(self):
        rng = np.random.default_rng(17)
        squares = {1: color(construct_latin_square(1), ()),
                   2: color(construct_latin_square(2), (1,)),
                   3: canonical_signed_square_8()}
        for w, H in squares.items():
            for _ in range(50):
                p = random_probability(rng, 2 ** w)
                n = int(rng.integers(50, 400))
                m = CellCounts(rng.multinomial(n, p.p))
                basis = eigenbasis_from_latin_hadamard(H, p)
                result = decompose(m, p, basis)
                assert abs(result.sum_check) <= 1e-10 * max(1.0, result.x2)

    def test_overflowing_statistic_rejected_without_warning(self):
        # expected counts of 1e-320 send X^2 past the largest float
        p = ProbabilityVector([1.0] + [1e-320] * 7)
        basis = eigenbasis_from_latin_hadamard(canonical_signed_square_8(), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="overflows"):
                decompose(CellCounts([1] * 8), p, basis)

    def test_x2_summed_over_the_cells_by_decompose_and_the_engine(self):
        # At seed 18 the cell sum differs in its last bits from y.y (as a
        # dot product and as an einsum) and from the component squares,
        # so taking X^2 from either would show.
        rng = np.random.default_rng(18)
        p = random_probability(rng, 8)
        m = CellCounts(rng.multinomial(300, p.p))
        basis = eigenbasis_from_latin_hadamard(canonical_signed_square_8(), p)
        result = decompose(m, p, basis)
        y = np.array(loop_scaled_residuals(m, p))
        assert result.x2 == loop_pearson_x2(m, p)
        assert result.x2 != y @ y
        assert result.x2 != np.square(result.components).sum()
        # The power engine's step, on a block whose rows are count vectors
        x2, components = _pearson_components(np.stack([m.m[::-1], m.m]), m.n, basis)
        assert x2[1] == loop_pearson_x2(m, p)
        assert x2[1] != np.einsum("ij,ij->i", y[None], y[None])[0]
        assert np.allclose(components[1], result.components, rtol=1e-14, atol=0)
        with pytest.raises(ValidationError, match="counts have 4 cells"):
            decompose(CellCounts([1, 2, 3, 4]), p, basis)

    def test_basis_for_other_probabilities_rejected(self):
        p = ProbabilityVector.proportional_to([1, 2, 3, 4, 4, 3, 2, 1])
        m = CellCounts([10, 20, 30, 40, 40, 30, 20, 10])
        H = canonical_signed_square_8()
        equiprobable = eigenbasis_from_latin_hadamard(H, ProbabilityVector.equiprobable(8))
        four_cells = eigenbasis_from_sign_matrix(sylvester_hadamard(2),
                                                 ProbabilityVector.equiprobable(4))
        for basis in (equiprobable, four_cells):
            with pytest.raises(ValidationError, match="built for other cell probabilities"):
                decompose(m, p, basis)
        # a basis built for an equal vector, not the same object, is accepted
        basis = eigenbasis_from_latin_hadamard(H, ProbabilityVector(p.p))
        assert decompose(m, p, basis).x2 == loop_pearson_x2(m, p)

    def test_empty_counts_rejected(self):
        p = ProbabilityVector.equiprobable(2)
        basis = eigenbasis_from_sign_matrix(sylvester_hadamard(1), p)
        with pytest.raises(ValidationError, match="at least one observation"):
            decompose(CellCounts([0, 0]), p, basis)


class TestComponentFormulas:
    def test_perfect_fit(self):
        p = ProbabilityVector.equiprobable(8)
        m = CellCounts(np.full(8, 25))
        assert component_formulas_t2_t6_t8(m, p) == (0.0, 0.0, 0.0)

    def test_example_counts_match_projection(self):
        p = ProbabilityVector.equiprobable(8)
        m = CellCounts([30, 20, 25, 25, 25, 25, 25, 25])
        t2, t6, t8 = component_formulas_t2_t6_t8(m, p)
        canonical = decompose(m, p, eigenbasis_from_latin_hadamard(
            canonical_signed_square_8(), p))
        alternate = decompose(m, p, eigenbasis_from_latin_hadamard(
            alternate_signed_square_8(), p))
        assert t2 == pytest.approx(canonical.components[0], abs=1e-10)
        assert t6 == pytest.approx(alternate.components[4], abs=1e-10)
        assert t8 == pytest.approx(alternate.components[6], abs=1e-10)

    def test_sloped_probabilities_match_projection(self):
        rng = np.random.default_rng(23)
        p = ProbabilityVector.proportional_to([1, 2, 3, 4, 1, 2, 3, 4])
        for _ in range(20):
            m = CellCounts(rng.multinomial(200, p.p))
            t2, t6, t8 = component_formulas_t2_t6_t8(m, p)
            canonical = decompose(m, p, eigenbasis_from_latin_hadamard(
                canonical_signed_square_8(), p))
            alternate = decompose(m, p, eigenbasis_from_latin_hadamard(
                alternate_signed_square_8(), p))
            assert t2 == pytest.approx(canonical.components[0], abs=1e-10)
            assert t6 == pytest.approx(alternate.components[4], abs=1e-10)
            assert t8 == pytest.approx(alternate.components[6], abs=1e-10)

    def test_requires_eight_cells(self):
        with pytest.raises(ValidationError):
            component_formulas_t2_t6_t8(CellCounts([5, 5]),
                                        ProbabilityVector([0.5, 0.5]))


class TestEigenvalues:
    def test_equiprobable_spectrum(self):
        k = 8
        eig = np.linalg.eigvalsh(sigma(ProbabilityVector.equiprobable(k)))
        assert abs(eig[0]) < 1e-12
        assert np.abs(eig[1:] - 1 / k).max() < 1e-12

    def test_two_cell_interlacing_by_hand(self):
        p = ProbabilityVector([0.3, 0.7])
        eig = np.linalg.eigvalsh(sigma(p))
        assert eig[-1] == pytest.approx(0.42, abs=1e-12)
        assert eigen_interlacing_check(p)

    def test_interlacing_randomized(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            assert eigen_interlacing_check(random_probability(rng, 8))


class TestSylvester:
    def test_small_cases(self):
        assert np.array_equal(sylvester_hadamard(0), [[1]])
        assert np.array_equal(sylvester_hadamard(1), [[1, 1], [1, -1]])

    @pytest.mark.parametrize("w", range(6))
    def test_orthogonal_rows_standard_form(self, w):
        H = sylvester_hadamard(w)
        n = 2 ** w
        assert np.array_equal(H @ H.T, n * np.eye(n, dtype=np.int64))
        assert (H[0] == 1).all() and (H[:, 0] == 1).all()

    @pytest.mark.parametrize("w", (3, 4))
    def test_supports_equiprobable_decomposition(self, w):
        k = 2 ** w
        p = ProbabilityVector.equiprobable(k)
        basis = eigenbasis_from_sign_matrix(sylvester_hadamard(w), p)
        rng = np.random.default_rng(41)
        m = CellCounts(rng.multinomial(300, p.p))
        result = decompose(m, p, basis)
        assert abs(result.sum_check) <= 1e-10 * max(1.0, result.x2)

    def test_rejects_non_equiprobable(self):
        p = ProbabilityVector.proportional_to([1, 2, 3, 4])
        with pytest.raises(ValidationError):
            eigenbasis_from_sign_matrix(sylvester_hadamard(2), p)


def test_canonical_and_alternate_matrices():
    canonical = canonical_signed_square_8()
    alternate = alternate_signed_square_8()
    assert canonical.choices == (-1, -1, 1, -1)
    assert alternate.choices == (-1, -1, -1, -1)
    assert canonical != alternate
    # one flipped free choice ripples through columns 2, 6 and 8
    ce, ae = canonical.signed_entries(), alternate.signed_entries()
    for col in (1, 5, 7):
        assert not np.array_equal(ce[:, col], ae[:, col])
    assert np.array_equal(ce[:4, :4], ae[:4, :4])  # shared 4x4 block


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_partition_identity_over_random_cells_counts_and_colorings(data):
    # X^2 summed over the cells in exact-order float arithmetic, against
    # the squared components of a random Latin-Hadamard coloring.
    w = data.draw(st.sampled_from((1, 2, 3)), label="w")
    k = 2 ** w
    choices = data.draw(st.tuples(*[st.sampled_from((1, -1))] * num_free_choices(w)))
    weights = data.draw(st.lists(st.floats(0.05, 20), min_size=k, max_size=k))
    counts = data.draw(st.lists(st.integers(0, 10 ** 6), min_size=k, max_size=k).filter(any))
    p = ProbabilityVector.proportional_to(weights)
    basis = eigenbasis_from_latin_hadamard(color(construct_latin_square(w), choices), p)
    result = decompose(CellCounts(counts), p, basis)
    n = sum(counts)
    x2 = math.fsum((m - n * q) ** 2 / (n * q) for m, q in zip(counts, p.p.tolist()))
    squares = math.fsum(t * t for t in result.components.tolist())
    assert squares == pytest.approx(x2, rel=1e-9, abs=1e-9)
