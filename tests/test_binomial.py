import random

import pytest

import binheight.binomial
from binheight.bedge import Graph, edge_presentation
from binheight.binomial import (
    BinomialPresentation,
    from_monomial_pair,
    height_bounds,
    split_signs,
)
from binheight.errors import LengthMismatch, MalformedInput, ZeroGenerator
from binheight.linalg import IntegerMatrix, rational_rank, smith_normal_form

CLAW = Graph(4, ((0, 1), (0, 2), (0, 3)))
SQUARE = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


class TestFromMonomialPair:
    def test_quadric_example(self):
        assert from_monomial_pair((1, 1, 0, 0), (0, 0, 1, 1)) == (1, 1, -1, -1)

    def test_edge_binomial_shape(self):
        assert from_monomial_pair((1, 0, 0, 1), (0, 1, 1, 0)) == (1, -1, -1, 1)

    def test_equal_monomials_give_zero(self):
        assert from_monomial_pair((1, 0), (1, 0)) == (0, 0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            from_monomial_pair((1, 0), (1, 0, 0))

    def test_negative_exponent_rejected(self):
        with pytest.raises(MalformedInput):
            from_monomial_pair((1, -1), (0, 0))


class TestSplitSigns:
    def test_mixed_vector(self):
        assert split_signs((1, -2, 1)) == ((1, 0, 1), (0, 2, 0))

    def test_pure_signs(self):
        assert split_signs((3, 0)) == ((3, 0), (0, 0))
        assert split_signs((0, -3)) == ((0, 0), (0, 3))

    def test_reassembles(self):
        rng = random.Random(5)
        for _ in range(50):
            v = tuple(rng.randrange(-6, 7) for _ in range(rng.randrange(1, 6)))
            plus, minus = split_signs(v)
            assert all(a >= 0 for a in plus)
            assert all(b >= 0 for b in minus)
            assert all(not (a and b) for a, b in zip(plus, minus))
            assert tuple(a - b for a, b in zip(plus, minus)) == v


class TestPresentation:
    def test_zero_generator_rejected(self):
        with pytest.raises(ZeroGenerator):
            BinomialPresentation.with_default_names(((0, 0),))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            BinomialPresentation.with_default_names(((1, -1), (1, -1, 0)))

    def test_empty_generators_allowed(self):
        p = BinomialPresentation(n=3, variable_names=("x1", "x2", "x3"), generators=())
        assert height_bounds(p).span_dim == 0

    def test_default_names(self):
        p = BinomialPresentation.with_default_names(((1, -1),))
        assert p.variable_names == ("x1", "x2")

    @pytest.mark.parametrize("entry", [1.5, "1"])
    def test_non_integer_entry_rejected(self, entry):
        # int() would have truncated 1.5 to 1 and parsed "1"
        with pytest.raises(MalformedInput):
            BinomialPresentation(n=2, variable_names=("u", "v"), generators=((entry, -1),))


class TestHeightBounds:
    def test_single_generator(self):
        p = BinomialPresentation.with_default_names(((1, -2, 1),))
        r = height_bounds(p)
        assert r.span_dim == 1
        assert r.basis == ((1, -2, 1),)
        assert r.elementary_divisors == (1,)

    def test_star_graph(self):
        r = height_bounds(edge_presentation(CLAW))
        assert r.span_dim == 3

    def test_four_cycle(self):
        r = height_bounds(edge_presentation(SQUARE))
        assert r.span_dim == 3

    def test_statement_variants(self):
        p = BinomialPresentation.with_default_names(((1, -2, 1),))
        assert "height <= 1 <= bigheight" in height_bounds(p).statement()
        assert "height = 1" in height_bounds(p, unmixed=True).statement()

    def test_invariant_under_presentation_changes(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randrange(2, 6)
            gens = []
            while not gens:
                gens = [
                    tuple(rng.randrange(-3, 4) for _ in range(n))
                    for _ in range(rng.randrange(1, 5))
                ]
                gens = [g for g in gens if any(g)]
            base = BinomialPresentation.with_default_names(tuple(gens))
            report = height_bounds(base)
            dim = report.span_dim
            # Bareiss rank and the full-matrix Smith form are the oracles
            full = IntegerMatrix.from_rows(gens)
            assert dim == rational_rank(full)
            assert report.elementary_divisors == smith_normal_form(full).divisors

            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert (
                height_bounds(
                    BinomialPresentation.with_default_names(tuple(shuffled))
                ).span_dim
                == dim
            )

            flipped = [tuple(-x for x in g) if rng.random() < 0.5 else g for g in gens]
            assert (
                height_bounds(
                    BinomialPresentation.with_default_names(tuple(flipped))
                ).span_dim
                == dim
            )

            coeffs = [rng.randrange(-2, 3) for _ in gens]
            combo = tuple(
                sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)
            )
            extended = gens + [combo] if any(combo) else gens
            assert (
                height_bounds(
                    BinomialPresentation.with_default_names(tuple(extended))
                ).span_dim
                == dim
            )

    def test_block_diagonal_additivity(self):
        left = edge_presentation(CLAW)
        right = edge_presentation(SQUARE)
        n = left.n + right.n
        stacked = tuple(
            g + (0,) * right.n for g in left.generators
        ) + tuple((0,) * left.n + g for g in right.generators)
        combined = BinomialPresentation.with_default_names(stacked)
        assert (
            height_bounds(combined).span_dim
            == height_bounds(left).span_dim + height_bounds(right).span_dim
        )

    def test_smith_form_sees_at_most_r_columns(self, monkeypatch):
        # the divisors come from the r x r basis of the basis's column
        # lattice, not from the r x n basis with its n x n column transform
        shapes = []

        def spy(m):
            shapes.append(m.shape)
            return smith_normal_form(m)

        monkeypatch.setattr(binheight.binomial, "smith_normal_form", spy)
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randrange(2, 12)
            gens = [tuple(rng.randrange(-4, 5) for _ in range(n)) for _ in range(3)]
            gens = [g for g in gens if any(g)] or [(1,) + (0,) * (n - 1)]
            full = IntegerMatrix.from_rows(gens)
            report = height_bounds(BinomialPresentation.with_default_names(gens))
            r = report.span_dim
            assert shapes.pop() == (r, r)
            assert report.elementary_divisors == smith_normal_form(full).divisors

    def test_basis_generates_each_generator(self):
        from helpers import lattice_member

        p = edge_presentation(SQUARE)
        r = height_bounds(p)
        for g in p.generators:
            assert lattice_member(r.basis, g)
