import random
from itertools import combinations

import pytest

import binheight.bedge
from binheight.bedge import (
    Graph,
    components_after_removal,
    cut_sets,
    edge_presentation,
    height_report,
    incidence_matrix,
)
from binheight.errors import EnumerationCapExceeded, IndexOutOfRange, MalformedInput
from binheight.linalg import rational_rank

CLAW = Graph(4, ((0, 1), (0, 2), (0, 3)))
SQUARE = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def disjoint_union(g, h):
    shifted = tuple((a + g.n, b + g.n) for a, b in h.edges)
    return Graph(g.n + h.n, g.edges + shifted)


class TestGraph:
    def test_edges_normalized(self):
        g = Graph(3, ((2, 0), (0, 2), (1, 2)))
        assert g.edges == ((0, 2), (1, 2))

    def test_loop_rejected(self):
        with pytest.raises(MalformedInput):
            Graph(2, ((1, 1),))

    def test_vertex_out_of_range(self):
        with pytest.raises(MalformedInput):
            Graph(2, ((0, 2),))

    @pytest.mark.parametrize("vertex", [1.7, "1"])
    def test_non_integer_vertex_rejected(self, vertex):
        with pytest.raises(MalformedInput):
            Graph(3, ((0, vertex),))

    def test_empty_graph_allowed(self):
        g = Graph(3, ())
        assert g.edges == ()


class TestEdgePresentation:
    def test_single_edge(self):
        p = edge_presentation(Graph(2, ((0, 1),)))
        assert p.variable_names == ("x1", "x2", "y1", "y2")
        assert p.generators == ((1, -1, -1, 1),)

    def test_claw_shape(self):
        p = edge_presentation(CLAW)
        assert p.n == 8
        assert len(p.generators) == 3

    def test_edgeless(self):
        p = edge_presentation(Graph(3, ()))
        assert p.generators == ()

    def test_generator_support_matches_edge(self):
        p = edge_presentation(SQUARE)
        for (i, j), g in zip(SQUARE.edges, p.generators):
            support = {k for k, v in enumerate(g) if v}
            assert support == {i, SQUARE.n + j, j, SQUARE.n + i}
            assert g[i] == 1 and g[SQUARE.n + j] == 1
            assert g[j] == -1 and g[SQUARE.n + i] == -1


class TestIncidence:
    def test_orientation(self):
        m = incidence_matrix(Graph(3, ((0, 2), (1, 2))))
        assert m.to_rows() == [[1, 0], [0, 1], [-1, -1]]

    def test_claw_rank(self):
        assert rational_rank(incidence_matrix(CLAW)) == 3

    def test_rank_is_n_minus_components(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randrange(1, 8)
            pool = list(combinations(range(n), 2))
            edges = tuple(
                e for e in pool if rng.random() < 0.4
            )
            g = Graph(n, edges)
            c = components_after_removal(g, ())
            assert rational_rank(incidence_matrix(g)) == n - c


class TestComponentsAfterRemoval:
    def test_claw_center_removal(self):
        assert components_after_removal(CLAW, (0,)) == 3

    def test_square_cases(self):
        assert components_after_removal(SQUARE, ()) == 1
        assert components_after_removal(SQUARE, (0, 2)) == 2

    def test_all_vertices_removed(self):
        assert components_after_removal(SQUARE, (0, 1, 2, 3)) == 0

    def test_bad_vertex(self):
        with pytest.raises(IndexOutOfRange):
            components_after_removal(SQUARE, (4,))


class TestCutSets:
    def test_claw(self):
        assert cut_sets(CLAW) == ((), (0,))

    def test_square(self):
        assert cut_sets(SQUARE) == ((), (0, 2), (1, 3))

    def test_edgeless(self):
        assert cut_sets(Graph(3, ())) == ((),)

    def test_vertex_limit(self):
        with pytest.raises(EnumerationCapExceeded) as exc:
            cut_sets(Graph(25, ()))
        assert exc.value.required == 2**25

    def test_matches_definition(self):
        rng = random.Random(53)
        for _ in range(25):
            n = rng.randrange(1, 7)
            pool = list(combinations(range(n), 2))
            g = Graph(n, tuple(e for e in pool if rng.random() < 0.5))
            found = set(cut_sets(g))
            for size in range(n + 1):
                for w in combinations(range(n), size):
                    if not w:
                        expected = True
                    else:
                        cw = components_after_removal(g, w)
                        expected = all(
                            components_after_removal(
                                g, tuple(v for v in w if v != i)
                            )
                            < cw
                            for i in w
                        )
                    assert (w in found) == expected


class TestHeightReport:
    def test_claw(self):
        r = height_report(CLAW)
        assert (r.height, r.span_dim, r.bigheight) == (2, 3, 3)
        assert r.height_witness == (0,)
        assert r.bigheight_witness == ()
        assert r.unmixed is False

    def test_square(self):
        r = height_report(SQUARE)
        assert (r.height, r.span_dim, r.bigheight) == (3, 3, 4)
        assert r.unmixed is False

    def test_disjoint_union_is_additive(self):
        union = disjoint_union(CLAW, SQUARE)
        r = height_report(union)
        assert (r.height, r.span_dim, r.bigheight) == (5, 6, 7)

    def test_edgeless_graph(self):
        r = height_report(Graph(3, ()))
        assert (r.height, r.span_dim, r.bigheight) == (0, 0, 0)
        assert r.unmixed is True

    def test_single_edge_unmixed(self):
        r = height_report(Graph(2, ((0, 1),)))
        assert (r.height, r.span_dim, r.bigheight) == (1, 1, 1)
        assert r.unmixed is True

    def test_witness_heights_match(self):
        rng = random.Random(67)
        for _ in range(25):
            n = rng.randrange(1, 7)
            pool = list(combinations(range(n), 2))
            g = Graph(n, tuple(e for e in pool if rng.random() < 0.5))
            r = height_report(g)
            c = components_after_removal(g, ())

            def prime_height(w):
                return len(w) + n - components_after_removal(g, w)

            heights = [prime_height(w) for w in cut_sets(g)]
            assert r.height == min(heights) == prime_height(r.height_witness)
            assert r.bigheight == max(heights) == prime_height(
                r.bigheight_witness
            )
            assert r.span_dim == n - c
            assert r.height <= r.span_dim <= r.bigheight
            assert r.unmixed == (r.height == r.bigheight)

    def test_cap_refusal_comes_first(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("height_bounds ran before the cap check")

        monkeypatch.setattr(binheight.bedge, "height_bounds", fail)
        with pytest.raises(EnumerationCapExceeded) as exc:
            height_report(Graph(20, ()), cap=2**19)
        assert exc.value.required == 2**20

    def test_unprintable_count_in_message(self):
        # 2**20000 has 6021 digits, past the interpreter's int-to-str limit
        text = str(EnumerationCapExceeded(2**20000, 1))
        assert text == "enumeration needs a 6021-digit number of steps; cap is 1"

    def test_statement_mentions_sandwich(self):
        text = height_report(CLAW).statement()
        assert "2" in text and "3" in text
