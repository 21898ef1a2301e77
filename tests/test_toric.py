import random
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binheight.errors import (
    EnumerationCapExceeded,
    IndexOutOfRange,
    InvalidPresentation,
    NotInKernel,
    ReductionUnavailable,
    UnsupportedConfiguration,
    ZeroGenerator,
)
from binheight.hibi import (
    Poset,
    isolated_singularity_verdict as hibi_verdict,
    presentation as hibi_presentation,
)
from binheight.linalg import IntegerMatrix, minor
from binheight.toric import (
    PERFECT_FIELD_CAVEAT,
    ToricConfiguration,
    ToricIdealPresentation,
    isolated_singularity_by_jacobian,
    jacobian_generators,
    semigroup_contains,
    _bare_ray,
    _facets,
)
from helpers import (
    binomial_degree,
    brute_force_facets,
    greedy_bare_ray,
    greedy_basis_weight,
    jacobian_entry,
    kernel_presentation,
    labeled_posets,
    literal_fits,
    literal_isolated,
    max_weight_column_basis,
    poset_classes,
    poset_from_relation,
    projected_columns,
    random_kernel_presentation,
    semigroup_points,
)


def config(rows):
    return ToricConfiguration(IntegerMatrix.from_rows(rows, cols=len(rows[0])))


def conic():
    return ToricIdealPresentation(config([[1, 1, 1], [0, 1, 2]]), ((1, -2, 1),))


def segment_cubed():
    # columns 1, 2, 3 of a one-row configuration; kernel rank 2
    return ToricIdealPresentation(
        config([[1, 2, 3]]), ((2, -1, 0), (3, 0, -1))
    )


def antichain(k):
    return hibi_presentation(Poset(tuple("abcdef"[:k]), ())).toric


class TestConfiguration:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(InvalidPresentation):
            config([[1, 1], [2, 2]])

    def test_rank(self):
        assert config([[1, 1, 1], [0, 1, 2]]).rank == 2
        assert config([[1, 2, 3]]).rank == 1


class TestPresentationValidation:
    def test_generator_outside_kernel(self):
        with pytest.raises(NotInKernel):
            ToricIdealPresentation(
                config([[1, 1, 1], [0, 1, 2]]), ((1, 0, 0),)
            )

    def test_zero_generator(self):
        with pytest.raises(ZeroGenerator):
            ToricIdealPresentation(
                config([[1, 1, 1], [0, 1, 2]]), ((0, 0, 0),)
            )

    def test_rank_deficient_generators(self):
        with pytest.raises(InvalidPresentation):
            ToricIdealPresentation(config([[1, 2, 3]]), ((2, -1, 0),))

    def test_height_is_corank(self):
        assert conic().height == 1
        assert segment_cubed().height == 2
        assert antichain(2).height == 1

    def test_empty_generators_for_full_rank_config(self):
        p = ToricIdealPresentation(config([[1, 0], [0, 1]]), ())
        assert p.height == 0


class TestBinomialDegree:
    def test_conic_generator(self):
        assert binomial_degree(conic(), (1, -2, 1)) == (2, 2)

    def test_quadric_relation(self):
        p = antichain(2)
        (g,) = p.generators
        assert binomial_degree(p, g) == (2, 1, 1)

    def test_zero_vector(self):
        assert binomial_degree(conic(), (0, 0, 0)) == (0, 0)

    def test_positive_and_negative_parts_agree(self):
        p = antichain(3)
        for g in p.generators:
            deg = binomial_degree(p, g)
            plus = tuple(x if x > 0 else 0 for x in g)
            neg = tuple(-x if x < 0 else 0 for x in g)
            assert deg == p.config.apply(plus) == p.config.apply(neg)

    def test_rejects_non_kernel_vector(self):
        with pytest.raises(NotInKernel):
            binomial_degree(conic(), (1, 0, 0))


class TestJacobianEntry:
    def test_conic_entries(self):
        p = conic()
        assert jacobian_entry(p, 0, 0) == (1, (1, 2))
        assert jacobian_entry(p, 0, 1) == (-2, (1, 1))
        assert jacobian_entry(p, 0, 2) == (1, (1, 0))

    def test_zero_coefficient_has_no_exponent(self):
        p = segment_cubed()
        assert jacobian_entry(p, 0, 2) == (0, None)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            jacobian_entry(conic(), 1, 0)
        with pytest.raises(IndexOutOfRange):
            jacobian_entry(conic(), 0, 3)


class TestJacobianGenerators:
    def test_conic(self):
        r = jacobian_generators(conic())
        assert r.h == 1
        assert set(r.generators) == {(1, 0), (1, 1), (1, 2)}
        assert r.reduced is False

    def test_quadric(self):
        r = jacobian_generators(antichain(2))
        assert set(r.generators) == {
            (1, 0, 0),
            (1, 0, 1),
            (1, 1, 0),
            (1, 1, 1),
        }

    def test_segment_cubed(self):
        r = jacobian_generators(segment_cubed())
        assert r.h == 2
        assert set(r.generators) == {(0,), (1,), (2,)}

    def test_modulus_kills_even_coefficients(self):
        p = ToricIdealPresentation(
            config([[1, 1, 1], [0, 1, 2]]), ((2, -4, 2),)
        )
        assert jacobian_generators(p, modulus=2).generators == ()
        assert set(jacobian_generators(p, modulus=3).generators) == {
            (3, 2),
            (3, 3),
            (3, 4),
        }

    def test_generator_count_bound(self):
        for p in (conic(), segment_cubed(), antichain(2)):
            r = jacobian_generators(p)
            m = len(p.generators)
            n = p.config.matrix.cols
            assert len(r.generators) == comb(m, r.h) * comb(n, r.h)

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded) as exc:
            jacobian_generators(antichain(2), cap=1)
        assert exc.value.required == 4

    def test_reduce_drops_dominated_monomials(self):
        r = jacobian_generators(segment_cubed(), reduce=True)
        assert r.generators == ((0,),)
        assert r.reduced is True

    def test_reduce_keeps_independent_monomials(self):
        r = jacobian_generators(conic(), reduce=True)
        assert set(r.generators) == {(1, 0), (1, 1), (1, 2)}

    def test_reduce_requires_nonnegative_configuration(self):
        p = ToricIdealPresentation(config([[1, -1]]), ((1, 1),))
        with pytest.raises(ReductionUnavailable):
            jacobian_generators(p, reduce=True)


class TestMinorExpansion:
    """The coefficient products of a generator-set minor expand the plain
    minor of the coefficient matrix, and every nonzero term lands in the
    same degree.
    """

    def sample_pairs(self, p, count, seed):
        rng = random.Random(seed)
        h = p.height
        m = len(p.generators)
        n = p.config.matrix.cols
        for _ in range(count):
            rows = tuple(sorted(rng.sample(range(m), h)))
            cols = tuple(sorted(rng.sample(range(n), h)))
            yield rows, cols

    def check_pair(self, p, rows, cols):
        coeff_matrix = IntegerMatrix.from_rows(
            [list(g) for g in p.generators], cols=p.config.matrix.cols
        )
        expected = minor(coeff_matrix, rows, cols)
        degree_sum = None
        total = 0
        for perm in permutations(range(len(cols))):
            sign = 1
            for i in range(len(perm)):
                for j in range(i + 1, len(perm)):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = 1
            exps = []
            for k, img in enumerate(perm):
                coeff, exp = jacobian_entry(p, rows[k], cols[img])
                term *= coeff
                exps.append(exp)
            if term == 0:
                continue
            total += sign * term
            combined = tuple(
                sum(e[i] for e in exps) for i in range(len(exps[0]))
            )
            if degree_sum is None:
                degree_sum = combined
            else:
                assert combined == degree_sum
        assert total == expected

    def test_conic_all_pairs(self):
        p = conic()
        for j in range(3):
            self.check_pair(p, (0,), (j,))

    def test_antichain_sampled_pairs(self):
        p = antichain(3)
        assert p.height == 4
        for rows, cols in self.sample_pairs(p, 6, seed=71):
            self.check_pair(p, rows, cols)


class TestSemigroupMembership:
    def test_quadric_examples(self):
        cfg = antichain(2).config
        assert semigroup_contains(cfg, (1, 1, 1)) is True
        assert semigroup_contains(cfg, (0, 1, 0)) is False

    def test_zero_always_contained(self):
        assert semigroup_contains(conic().config, (0, 0)) is True

    def test_negative_target(self):
        assert semigroup_contains(conic().config, (-1, 0)) is False

    def test_thousand_columns(self):
        # the search goes one column deeper per column, past the
        # interpreter's recursion limit, before the last column 1 fits
        assert semigroup_contains(config([list(range(1100, 0, -1))]), (1,)) is True

    def test_negative_configuration_unsupported(self):
        cfg = config([[1, -1]])
        with pytest.raises(UnsupportedConfiguration):
            semigroup_contains(cfg, (1,))

    def test_zero_column_unsupported(self):
        cfg = config([[0, 1], [0, 1]])
        with pytest.raises(UnsupportedConfiguration):
            semigroup_contains(cfg, (1, 1))

    def test_matches_brute_force(self):
        rng = random.Random(83)
        for _ in range(60):
            height = rng.randrange(1, 4)
            width = rng.randrange(1, min(5, 4**height))
            cols = set()
            while len(cols) < width:
                col = tuple(rng.randrange(0, 4) for _ in range(height))
                if any(col):
                    cols.add(col)
            cols = sorted(cols)
            cfg = ToricConfiguration(
                IntegerMatrix.from_rows(
                    [[c[i] for c in cols] for i in range(height)],
                    cols=width,
                )
            )
            target = tuple(rng.randrange(0, 8) for _ in range(height))
            assert semigroup_contains(cfg, target) == (
                target in semigroup_points(cols, target)
            )


class TestFacets:
    def test_double_description_matches_subset_search(self):
        configs = [
            hibi_presentation(poset_from_relation(n, rel)).toric.config
            for n in range(5)
            for rel in labeled_posets(n)
        ]
        rng = random.Random(8)
        configs += [random_kernel_presentation(rng).config for _ in range(200)]
        # cones over the rational normal curves of degree 2 to 6
        configs += [
            config([[d - i for i in range(d + 1)], list(range(d + 1))])
            for d in range(2, 7)
        ]
        compared = 0
        for c in configs:
            pcols = projected_columns(c)
            r = len(pcols[0])
            if r >= 2:
                expected = brute_force_facets(pcols, r)
                assert _facets(pcols, r, cap=10**7) == expected, pcols
                compared += 1
        assert compared > 300


class TestColumnDuality:
    def test_dual_greedy_matches_column_basis(self):
        # the generators span ker(A), so the column matroid of H is the dual
        # of A's: a maximum-weight basis of H's columns is the complement of
        # a minimum-weight basis of A's
        presentations = [
            hibi_presentation(poset_from_relation(n, rel)).toric
            for n in range(5)
            for rel in labeled_posets(n)
        ]
        rng = random.Random(9)
        presentations += [random_kernel_presentation(rng) for _ in range(200)]
        for p in presentations:
            pcols = projected_columns(p.config)
            w = [rng.randrange(-5, 6) for _ in pcols]
            dual = sum(w) - greedy_basis_weight(pcols, w, len(pcols[0]))
            assert max_weight_column_basis(p.generators, w) == dual, pcols


class TestIsolatedSingularity:
    def test_conic_is_isolated(self):
        r = isolated_singularity_by_jacobian(conic())
        assert r.verdict is True
        assert r.method == "face-decomposition"
        assert r.note is None
        assert r.caveat == PERFECT_FIELD_CAVEAT

    def test_quadric_is_isolated(self):
        r = isolated_singularity_by_jacobian(antichain(2))
        assert r.verdict is True

    def test_zero_ideal_reports_regular(self):
        p = ToricIdealPresentation(config([[1, 0], [0, 1]]), ())
        r = isolated_singularity_by_jacobian(p)
        assert r.verdict is False
        assert r.zero_ideal is True
        assert r.method == "zero-ideal"
        assert "regular" in r.note

    def test_negative_configuration_unsupported(self):
        p = ToricIdealPresentation(config([[1, -1]]), ((1, 1),))
        with pytest.raises(UnsupportedConfiguration):
            isolated_singularity_by_jacobian(p)

    def test_face_path_agrees_with_literal_path(self):
        for n in range(5):
            for rel in labeled_posets(n):
                poset = poset_from_relation(n, rel)
                p = hibi_presentation(poset).toric
                r = isolated_singularity_by_jacobian(p)
                # the literal minor enumeration is out of reach from 10
                # ideals on; there the chain criterion is the oracle
                if literal_fits(p):
                    expected = literal_isolated(p)
                else:
                    expected = hibi_verdict(poset).status == "isolated"
                assert (bool(r.verdict) or r.zero_ideal) == expected, sorted(rel)
        # the 5-element classes have 6 to 32 ideals; the chain criterion is
        # the oracle for all of them
        for rel in poset_classes(5):
            poset = poset_from_relation(5, rel)
            r = isolated_singularity_by_jacobian(hibi_presentation(poset).toric)
            expected = hibi_verdict(poset).status == "isolated"
            assert (bool(r.verdict) or r.zero_ideal) == expected, sorted(rel)
        rng = random.Random(337)
        for _ in range(120):
            p = random_kernel_presentation(rng)
            r = isolated_singularity_by_jacobian(p)
            assert r.method == "face-decomposition"
            assert r.verdict == literal_isolated(p), p.config.columns

    def test_ray_matches_greedy_oracle(self):
        # the masked rank names the same first bare ray as the weighted
        # greedy bases of tests/helpers.py, not only the same verdict
        presentations = [
            hibi_presentation(poset_from_relation(n, rel)).toric
            for n in range(5)
            for rel in labeled_posets(n)
        ]
        presentations += [
            hibi_presentation(poset_from_relation(5, rel)).toric
            for rel in poset_classes(5)
        ]
        rng = random.Random(2026)
        presentations += [
            random_kernel_presentation(rng, max_rows=4, max_cols=8)
            for _ in range(600)
        ]
        outcomes = {True: 0, False: 0}
        for p in presentations:
            if p.generators:
                ray = _bare_ray(p, cap=10**7)
                assert ray == greedy_bare_ray(p), (p.config.columns, p.generators)
                outcomes[ray is None] += 1
        assert min(outcomes.values()) > 200, outcomes

    def test_cap_reaches_facet_enumeration(self):
        # 16 ideals in 5 rows; the double description of the facets tries at
        # most 8 positive/negative ray pairs when it adds one column
        with pytest.raises(EnumerationCapExceeded, match="facet pairs needs 8 steps"):
            isolated_singularity_by_jacobian(antichain(4), cap=7)
        assert isolated_singularity_by_jacobian(antichain(4), cap=8).verdict is True

    def test_verdict_false_example(self):
        # one bottom element under two incomparable tops
        poset = Poset(("p", "q", "r"), (("p", "q"), ("p", "r")))
        p = hibi_presentation(poset).toric
        r = isolated_singularity_by_jacobian(p)
        assert r.verdict is False
        assert r.method == "face-decomposition"
        # the certificate: the empty ideal's column (1, 0, 0, 0) spans a ray
        # that no Jacobian generator lies on
        assert r.note.endswith("extreme ray spanned by y()")
        assert all(any(u[1:]) for u in jacobian_generators(p).generators)


@st.composite
def nonnegative_columns(draw):
    """Distinct nonzero columns with entries 0..3, more of them than rows."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 1, min(7, 4**m - 1)))
    column = st.tuples(*[st.integers(0, 3)] * m).filter(any)
    return draw(st.lists(column, min_size=n, max_size=n, unique=True))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(columns=nonnegative_columns())
def test_ray_decision_on_random_configurations(columns):
    p = kernel_presentation(columns)
    ray = _bare_ray(p, cap=10**7)
    assert ray == greedy_bare_ray(p)
    if literal_fits(p):
        assert isolated_singularity_by_jacobian(p).verdict == literal_isolated(p)
