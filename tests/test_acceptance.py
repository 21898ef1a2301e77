"""End-to-end acceptance gate.

Each test covers one numbered criterion, carries its own runtime budget,
and fails loudly if either the math or the clock is off.  Run with -v to
get one pass/fail line per criterion.
"""

import random
import time
from itertools import combinations

from binheight.bedge import (
    Graph,
    components_after_removal,
    cut_sets,
    edge_presentation,
    height_report,
)
from binheight.binomial import height_bounds
from binheight.hibi import (
    isolated_singularity_verdict as hibi_verdict,
    presentation as hibi_presentation,
)
from binheight.linalg import (
    IntegerMatrix,
    determinant,
    rational_rank,
    smith_normal_form,
)
from binheight.polyomino import (
    CellCollection,
    fills_bounding_box,
    height_report as polyomino_report,
    inner_intervals,
    interval_vector,
    is_simple,
    isolated_singularity_verdict as polyomino_verdict,
)
from binheight.toric import isolated_singularity_by_jacobian
from helpers import cofactor_det, fixed_polyominoes, labeled_posets, poset_from_relation

CLAW = Graph(4, ((0, 1), (0, 2), (0, 3)))
SQUARE = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def elapsed_under(start, budget):
    seconds = time.perf_counter() - start
    assert seconds < budget, f"runtime {seconds:.1f}s exceeds {budget}s budget"


def random_graph(rng, max_vertices=7):
    n = rng.randrange(1, max_vertices + 1)
    pool = list(combinations(range(n), 2))
    return Graph(n, tuple(e for e in pool if rng.random() < 0.5))


def random_cells(rng, max_cells=8, window=5):
    target = rng.randrange(1, max_cells + 1)
    cells = set()
    while len(cells) < target:
        cells.add((rng.randrange(window), rng.randrange(window)))
    return CellCollection.of(sorted(cells))


def test_criterion_1_graph_height_examples():
    start = time.perf_counter()

    r = height_report(CLAW)
    assert (r.height, r.span_dim, r.bigheight) == (2, 3, 3)

    r = height_report(SQUARE)
    assert (r.height, r.span_dim, r.bigheight) == (3, 3, 4)

    shifted = tuple((a + CLAW.n, b + CLAW.n) for a, b in SQUARE.edges)
    union = Graph(CLAW.n + SQUARE.n, CLAW.edges + shifted)
    r = height_report(union)
    assert (r.height, r.span_dim, r.bigheight) == (5, 6, 7)

    elapsed_under(start, 1)


def test_criterion_2_sandwich_on_random_graphs():
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(300):
        g = random_graph(rng)
        c = components_after_removal(g, ())

        heights = [
            len(w) + g.n - components_after_removal(g, w) for w in cut_sets(g)
        ]
        height, bigheight = min(heights), max(heights)
        span = g.n - c
        assert height <= span <= bigheight

        p = edge_presentation(g)
        assert height_bounds(p).span_dim == span
    elapsed_under(start, 30)


def test_criterion_3_span_equals_cell_count():
    start = time.perf_counter()
    rng = random.Random(3030)
    for _ in range(200):
        c = random_cells(rng)
        assert polyomino_report(c).bounds.span_dim == len(c.cells)
        for (a, b) in inner_intervals(c):
            total = [0] * len(c.vertices)
            for x in range(a[0], b[0]):
                for y in range(a[1], b[1]):
                    cell = interval_vector(c, (x, y), (x + 1, y + 1))
                    total = [s + t for s, t in zip(total, cell)]
            assert tuple(total) == interval_vector(c, a, b)
    elapsed_under(start, 20)


def test_criterion_4_polyomino_verdicts():
    start = time.perf_counter()

    for w in range(1, 4):
        for h in range(1, 4):
            rect = CellCollection.of(
                [(x, y) for x in range(w) for y in range(h)]
            )
            assert polyomino_verdict(rect).status == "isolated"

    for size, shapes in fixed_polyominoes(5).items():
        for cells in shapes:
            c = CellCollection.of(cells)
            if not is_simple(c) or fills_bounding_box(c):
                continue
            assert polyomino_verdict(c).status == "not_isolated"

    elapsed_under(start, 10)


def test_criterion_5_hibi_height_formula():
    start = time.perf_counter()
    for n in range(6):
        for rel in labeled_posets(n):
            poset = poset_from_relation(n, rel)
            h = hibi_presentation(poset)
            lattice_size = len(h.ideals)
            assert h.height == lattice_size - n - 1
            assert h.toric.config.rank == n + 1
            assert (
                height_bounds(h.binomial).span_dim == lattice_size - n - 1
            )
    elapsed_under(start, 60)


def test_criterion_6_chain_test_against_jacobian():
    start = time.perf_counter()
    for n in range(5):
        for rel in labeled_posets(n):
            poset = poset_from_relation(n, rel)
            chain_says = hibi_verdict(poset).status == "isolated"
            r = isolated_singularity_by_jacobian(hibi_presentation(poset).toric)
            assert r.verdict is not None
            jacobian_says = bool(r.verdict) or r.zero_ideal
            assert chain_says == jacobian_says, (
                f"disagreement on poset {sorted(rel)}"
            )
    elapsed_under(start, 30)


def test_criterion_7_jacobian_unit_cases():
    from binheight.hibi import Poset
    from binheight.toric import (
        ToricConfiguration,
        ToricIdealPresentation,
        jacobian_generators,
    )

    conic = ToricIdealPresentation(
        ToricConfiguration(IntegerMatrix.from_rows([[1, 1, 1], [0, 1, 2]])),
        ((1, -2, 1),),
    )
    assert set(jacobian_generators(conic).generators) == {
        (1, 0),
        (1, 1),
        (1, 2),
    }

    quadric = hibi_presentation(Poset(("a", "b"), ())).toric
    assert set(jacobian_generators(quadric).generators) == {
        (1, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
        (1, 0, 0),
    }
    assert isolated_singularity_by_jacobian(quadric).verdict is True


def test_criterion_8_smith_form_oracle_suite():
    start = time.perf_counter()
    rng = random.Random(808)
    for _ in range(1000):
        r = rng.randrange(1, 9)
        c = rng.randrange(1, 9)
        rows = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        m = IntegerMatrix.from_rows(rows, cols=c)

        d = smith_normal_form(m)
        assert abs(determinant(d.u)) == 1
        assert abs(determinant(d.v)) == 1
        product = (d.u @ m @ d.v).to_rows()
        for i in range(r):
            for j in range(c):
                expect = d.divisors[i] if i == j and i < len(d.divisors) else 0
                assert product[i][j] == expect
        assert all(x > 0 for x in d.divisors)
        for a, b in zip(d.divisors, d.divisors[1:]):
            assert b % a == 0

        bareiss = rational_rank(m)
        assert len(d.divisors) == bareiss

        if r <= 4 and c <= 4:
            cofactor_rank = 0
            for k in range(1, min(r, c) + 1):
                found = any(
                    cofactor_det(
                        [[rows[i][j] for j in cs] for i in rs]
                    )
                    != 0
                    for rs in combinations(range(r), k)
                    for cs in combinations(range(c), k)
                )
                if found:
                    cofactor_rank = k
            assert cofactor_rank == bareiss
    elapsed_under(start, 30)
