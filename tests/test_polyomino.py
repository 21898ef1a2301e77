import random

import pytest

from binheight.binomial import height_bounds
from binheight.errors import (
    EmptyCollection,
    EnumerationCapExceeded,
    InvalidPresentation,
    MalformedInput,
    NotConnected,
)
from binheight.polyomino import (
    CellCollection,
    ascii_art,
    fills_bounding_box,
    height_report,
    inner_intervals,
    inner_minor_presentation,
    interval_vector,
    is_connected,
    is_simple,
    isolated_singularity_verdict,
    toric_presentation,
)
from helpers import coordinate_configuration, fixed_polyominoes

L_TROMINO = CellCollection.of([(0, 0), (1, 0), (0, 1)])
SQUARE_2X2 = CellCollection.of([(0, 0), (1, 0), (0, 1), (1, 1)])
RING = CellCollection.of(
    [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
)


class TestCellCollection:
    def test_cells_sorted_and_deduped(self):
        c = CellCollection.of([(1, 0), (0, 0), (1, 0)])
        assert c.cells == ((0, 0), (1, 0))

    def test_empty_rejected(self):
        with pytest.raises(EmptyCollection):
            CellCollection.of([])

    def test_malformed_cell_rejected(self):
        with pytest.raises(MalformedInput):
            CellCollection(((0,),))

    @pytest.mark.parametrize("coordinate", [0.5, "0"])
    def test_non_integer_coordinate_rejected(self, coordinate):
        with pytest.raises(MalformedInput):
            CellCollection(((coordinate, 0),))

    def test_vertices_of_single_cell(self):
        c = CellCollection.of([(0, 0)])
        assert set(c.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_bounding_box(self):
        assert L_TROMINO.bounding_box == (0, 0, 1, 1)


class TestInnerIntervals:
    def test_single_cell(self):
        c = CellCollection.of([(0, 0)])
        assert inner_intervals(c) == (((0, 0), (1, 1)),)

    def test_l_tromino(self):
        got = set(inner_intervals(L_TROMINO))
        assert got == {
            ((0, 0), (1, 1)),
            ((1, 0), (2, 1)),
            ((0, 1), (1, 2)),
            ((0, 0), (2, 1)),
            ((0, 0), (1, 2)),
        }

    def test_square_count(self):
        assert len(inner_intervals(SQUARE_2X2)) == 9

    def test_rectangle_counting_formula(self):
        for w in range(1, 4):
            for h in range(1, 4):
                rect = CellCollection.of(
                    [(x, y) for x in range(w) for y in range(h)]
                )
                expected = (w * (w + 1) // 2) * (h * (h + 1) // 2)
                assert len(inner_intervals(rect)) == expected


class TestIntervalVector:
    def test_single_cell_vector(self):
        c = CellCollection.of([(0, 0)])
        v = interval_vector(c, (0, 0), (1, 1))
        names = inner_minor_presentation(c).variable_names
        by_name = dict(zip(names, v))
        assert by_name == {
            "x(0,0)": 1,
            "x(1,1)": 1,
            "x(1,0)": -1,
            "x(0,1)": -1,
        }

    def test_degenerate_corners_rejected(self):
        c = CellCollection.of([(0, 0)])
        with pytest.raises(MalformedInput):
            interval_vector(c, (0, 0), (0, 1))
        with pytest.raises(MalformedInput):
            interval_vector(c, (1, 1), (0, 0))

    def test_corner_must_be_vertex(self):
        with pytest.raises(MalformedInput):
            interval_vector(L_TROMINO, (1, 1), (2, 2))

    def test_interval_vector_is_sum_of_cell_vectors(self):
        rng = random.Random(29)
        for _ in range(40):
            cells = set()
            while len(cells) < rng.randrange(1, 8):
                cells.add((rng.randrange(0, 4), rng.randrange(0, 4)))
            c = CellCollection.of(sorted(cells))
            for (a, b) in inner_intervals(c):
                total = [0] * len(c.vertices)
                for x in range(a[0], b[0]):
                    for y in range(a[1], b[1]):
                        cell = interval_vector(c, (x, y), (x + 1, y + 1))
                        total = [s + t for s, t in zip(total, cell)]
                assert tuple(total) == interval_vector(c, a, b)


class TestPresentation:
    def test_single_cell(self):
        p = inner_minor_presentation(CellCollection.of([(0, 0)]))
        assert p.n == 4
        assert p.generators == ((1, -1, -1, 1),)

    def test_l_tromino_shape(self):
        p = inner_minor_presentation(L_TROMINO)
        assert p.n == 8
        assert len(p.generators) == 5

    def test_names_follow_vertex_order(self):
        p = inner_minor_presentation(CellCollection.of([(0, 0)]))
        assert p.variable_names == ("x(0,0)", "x(0,1)", "x(1,0)", "x(1,1)")


class TestHeightReport:
    def test_l_tromino(self):
        r = height_report(L_TROMINO)
        assert r.cell_count == 3
        assert r.bounds.span_dim == 3
        assert r.connected is True
        assert r.simple is True

    def test_disconnected_pair(self):
        c = CellCollection.of([(0, 0), (2, 2)])
        r = height_report(c)
        assert r.bounds.span_dim == 2
        assert r.connected is False
        assert r.simple is False

    def test_span_equals_cell_count_on_random_collections(self):
        rng = random.Random(37)
        for _ in range(60):
            cells = set()
            while len(cells) < rng.randrange(1, 9):
                cells.add((rng.randrange(0, 5), rng.randrange(0, 5)))
            c = CellCollection.of(sorted(cells))
            assert height_report(c).bounds.span_dim == len(c.cells)


class TestTopology:
    def test_connectivity(self):
        assert is_connected(L_TROMINO) is True
        assert is_connected(CellCollection.of([(0, 0), (2, 0)])) is False
        assert is_connected(CellCollection.of([(0, 0), (1, 1)])) is False

    def test_simplicity(self):
        assert is_simple(SQUARE_2X2) is True
        assert is_simple(L_TROMINO) is True
        assert is_simple(RING) is False

    def test_simplicity_needs_connectivity(self):
        with pytest.raises(NotConnected):
            is_simple(CellCollection.of([(0, 0), (2, 0)]))

    def test_fills_bounding_box(self):
        assert fills_bounding_box(SQUARE_2X2) is True
        assert fills_bounding_box(L_TROMINO) is False
        assert fills_bounding_box(CellCollection.of([(0, 0)])) is True


class TestIsolatedVerdict:
    def test_rectangle_is_isolated(self):
        rect = CellCollection.of([(x, y) for x in range(3) for y in range(2)])
        r = isolated_singularity_verdict(rect)
        assert r.status == "isolated"
        assert r.rectangle is True

    def test_simple_non_rectangle_is_not(self):
        r = isolated_singularity_verdict(L_TROMINO)
        assert r.status == "not_isolated"
        assert r.simple is True

    def test_holed_shape_needs_primality_assertion(self):
        r = isolated_singularity_verdict(RING)
        assert r.status == "unknown_primality"
        assert r.note

    def test_primality_assertion_unlocks_verdict(self):
        r = isolated_singularity_verdict(RING, assume_prime=True)
        assert r.status == "not_isolated"
        assert "asserted" in r.note


class TestToricCrossCheck:
    """Inner 2-minors against the coordinate-line configuration.

    Validity of the caller-supplied configuration is certified at
    presentation time; shapes whose minors do not span the full kernel
    are rejected there.
    """

    def test_small_shapes_validate_and_agree(self):
        shapes = fixed_polyominoes(4)
        for size, polys in shapes.items():
            for cells in polys:
                c = CellCollection.of(cells)
                p = toric_presentation(c, coordinate_configuration(c))
                assert p.height == size
                assert p.height == height_bounds(
                    inner_minor_presentation(c)
                ).span_dim
                assert len(p.generators) == len(inner_intervals(c))

    def test_u_pentomino_minors_do_not_span(self):
        u = CellCollection.of([(0, 0), (0, 1), (0, 2), (1, 0), (1, 2)])
        with pytest.raises(InvalidPresentation):
            toric_presentation(u, coordinate_configuration(u))


class TestAsciiArt:
    def test_l_tromino(self):
        assert ascii_art(L_TROMINO) == "#.\n##"

    def test_hole_is_rendered_blank(self):
        art = ascii_art(RING)
        assert art == "###\n#.#\n###"

    def test_cap_bounds_the_picture(self):
        far = CellCollection.of([(0, 0), (10**9, 0)])
        with pytest.raises(EnumerationCapExceeded) as exc:
            ascii_art(far)
        assert exc.value.required == 10**9 + 1
        assert ascii_art(RING, cap=9) == "###\n#.#\n###"
        with pytest.raises(EnumerationCapExceeded, match="picture needs 9 steps"):
            ascii_art(RING, cap=8)
