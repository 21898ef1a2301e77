import random

import pytest

from binheight.errors import (
    EnumerationCapExceeded,
    LengthMismatch,
    MalformedInput,
    SizeMismatch,
)
from binheight.linalg import (
    IncrementalRank,
    IntegerMatrix,
    determinant,
    lattice_basis,
    minor,
    nonzero_minors,
    rational_rank,
    smith_normal_form,
)
from helpers import cofactor_det, lattice_member, naive_rank


def mat(rows, cols=None):
    return IntegerMatrix.from_rows(rows, cols=cols)


class TestIntegerMatrix:
    def test_shape_and_entries(self):
        m = mat([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)
        assert m.entry(1, 2) == 6
        assert m.row(0) == (1, 2, 3)
        assert m.column(1) == (2, 5)

    def test_empty_dimensions(self):
        assert mat([], cols=3).shape == (0, 3)
        assert mat([[], []], cols=0).shape == (2, 0)

    @pytest.mark.parametrize("entry", [2.9, "2"])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(MalformedInput):
            IntegerMatrix(1, 1, (entry,))

    def test_ragged_rows_rejected(self):
        with pytest.raises(LengthMismatch):
            mat([[1, 2], [3]])

    def test_transpose_involution(self):
        m = mat([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m
        assert m.transpose().shape == (3, 2)

    def test_matmul(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert (a @ b).to_rows() == [[2, 1], [4, 3]]


class TestRank:
    def test_empty_matrix(self):
        assert rational_rank(mat([], cols=0)) == 0
        assert rational_rank(mat([], cols=5)) == 0

    def test_dependent_rows(self):
        assert rational_rank(mat([[1, -2, 1], [2, -4, 2]])) == 1

    def test_star_incidence(self):
        rows = [
            [1, 1, 1],
            [-1, 0, 0],
            [0, -1, 0],
            [0, 0, -1],
        ]
        assert rational_rank(mat(rows)) == 3

    def test_matches_fraction_elimination(self):
        rng = random.Random(11)
        for _ in range(200):
            r = rng.randrange(1, 6)
            c = rng.randrange(1, 6)
            rows = [[rng.randrange(-5, 6) for _ in range(c)] for _ in range(r)]
            assert rational_rank(mat(rows)) == naive_rank(rows)


class TestDeterminantAndMinor:
    def test_small_cases(self):
        assert determinant(mat([[1, 2], [3, 4]])) == -2
        assert determinant(mat([], cols=0)) == 1
        assert determinant(mat([[1, 2], [1, 2]])) == 0

    def test_non_square_rejected(self):
        with pytest.raises(SizeMismatch):
            determinant(mat([[1, 2, 3]]))

    def test_minor_selects_submatrix(self):
        m = mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert minor(m, (0, 1), (0, 1)) == 1 * 5 - 2 * 4
        assert minor(m, (), ()) == 1
        assert minor(m, (0, 1, 2), (0, 1, 2)) == determinant(m)

    def test_matches_cofactor_expansion(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randrange(0, 5)
            rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            assert determinant(mat(rows, cols=n)) == cofactor_det(rows)


class TestNonzeroMinors:
    def test_all_singletons_of_dense_matrix(self):
        m = mat([[-1, 1], [1, -1]])
        got = list(nonzero_minors(m, 1))
        assert got == [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]

    def test_skips_zero_entries(self):
        m = mat([[1, 0], [0, 0]])
        assert list(nonzero_minors(m, 1)) == [((0,), (0,))]

    def test_modulus_filters(self):
        m = mat([[2]])
        assert list(nonzero_minors(m, 1, modulus=2)) == []
        assert list(nonzero_minors(m, 1, modulus=3)) == [((0,), (0,))]

    def test_lexicographic_order(self):
        m = mat([[1, 1, 1], [1, 1, 1], [1, 1, 2]])
        pairs = list(nonzero_minors(m, 2))
        assert pairs == sorted(pairs)

    def test_cap_reports_requirement(self):
        m = mat([[1] * 6] * 6)
        with pytest.raises(EnumerationCapExceeded) as exc:
            list(nonzero_minors(m, 3, cap=10))
        assert exc.value.required == 400
        assert exc.value.cap == 10

    def test_size_zero_yields_empty_pair(self):
        m = mat([[5]])
        assert list(nonzero_minors(m, 0)) == [((), ())]


class TestSmithNormalForm:
    def test_identity(self):
        d = smith_normal_form(IntegerMatrix.identity(2))
        assert d.divisors == (1, 1)

    def test_diagonal_2_3(self):
        d = smith_normal_form(mat([[2, 0], [0, 3]]))
        assert d.divisors == (1, 6)

    def test_zero_matrix(self):
        d = smith_normal_form(IntegerMatrix.zeros(3, 2))
        assert d.divisors == ()

    def test_transform_certificate(self):
        rng = random.Random(31)
        for _ in range(60):
            r = rng.randrange(1, 5)
            c = rng.randrange(1, 5)
            m = mat([[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)])
            d = smith_normal_form(m)
            assert abs(determinant(d.u)) == 1
            assert abs(determinant(d.v)) == 1
            product = d.u @ m @ d.v
            expected = [[0] * c for _ in range(r)]
            for i, e in enumerate(d.divisors):
                expected[i][i] = e
            assert product.to_rows() == expected
            for a, b in zip(d.divisors, d.divisors[1:]):
                assert b % a == 0
            assert all(e > 0 for e in d.divisors)
            assert len(d.divisors) == naive_rank(m.to_rows())


class TestLatticeBasis:
    def test_collinear_vectors(self):
        basis = lattice_basis([(2, 0), (3, 0)])
        assert len(basis) == 1
        assert basis[0] in ((1, 0), (-1, 0))

    def test_empty_input(self):
        assert lattice_basis([]) == ()

    def test_single_vector_kept_up_to_sign(self):
        (b,) = lattice_basis([(1, -2, 1)])
        assert b in ((1, -2, 1), (-1, 2, -1))

    def test_generates_same_lattice(self):
        rng = random.Random(47)
        for _ in range(50):
            n = rng.randrange(1, 5)
            vecs = [
                tuple(rng.randrange(-4, 5) for _ in range(n))
                for _ in range(rng.randrange(1, 5))
            ]
            basis = lattice_basis(vecs)
            assert len(basis) == naive_rank(vecs)
            for v in vecs:
                assert lattice_member(basis, v)
            for b in basis:
                assert lattice_member(vecs, b)


class TestIncrementalRank:
    def test_tracks_rank(self):
        tracker = IncrementalRank(3)
        assert tracker.insert((1, 0, 0)) is True
        assert tracker.insert((2, 0, 0)) is False
        assert tracker.insert((0, 1, 1)) is True
        assert tracker.rank == 2

    def test_matches_batch_rank(self):
        rng = random.Random(59)
        for _ in range(100):
            n = rng.randrange(1, 6)
            vecs = [
                tuple(rng.randrange(-3, 4) for _ in range(n))
                for _ in range(rng.randrange(0, 7))
            ]
            tracker = IncrementalRank(n)
            for v in vecs:
                tracker.insert(v)
            assert tracker.rank == naive_rank(vecs) if vecs else tracker.rank == 0
