"""Seeded instance generators for the four benchmark workloads.

A workload is a list of rounds; every round answers the same mix of
instance shapes, so rounds cost about the same and a run can be cut after
any whole round.  The seed and the round number pick the free choices
(labels, vertex numbering, translations, orientations, random graphs and
posets), so no input file repeats within a run: the CLI answers one instance
per process, and a cache shared across identical inputs would show a gain no
user gets.  Shapes whose size drives the cost (rectangle sides, vertex
counts, lattice sizes) are fixed per slot to keep rounds comparable across
seeds.

An instance is a dict: name, command, flags, payload (the JSON input) and
params (what the generator knows, used by the closed-form checks).
"""

from __future__ import annotations

import itertools
import random

from checks import below_masks, down_sets

WORKLOADS = ("polyomino-span", "hibi-lattice", "jacobian-decision", "bedge-cutsets")


def _instance(name, command, flags, payload, **params) -> dict:
    return {
        "name": name,
        "command": command,
        "flags": list(flags),
        "payload": payload,
        "params": params,
    }


def _labels(rng: random.Random, count: int) -> list[str]:
    return [f"{rng.choice('pqrstuvw')}{k}" for k in rng.sample(range(10_000), count)]


# ---------------------------------------------------------------- polyomino


def _place(rng: random.Random, cells) -> list[list[int]]:
    """Random rotation/reflection and translation, cells listed in random order."""
    sx, sy, swap = rng.choice((1, -1)), rng.choice((1, -1)), rng.random() < 0.5
    dx, dy = rng.randrange(-60, 60), rng.randrange(-60, 60)
    out = []
    for x, y in cells:
        x, y = (y, x) if swap else (x, y)
        out.append([sx * x + dx, sy * y + dy])
    rng.shuffle(out)
    return out


def _box(w: int, h: int):
    return [(x, y) for x in range(w) for y in range(h)]


def polyomino_round(rng: random.Random) -> list[dict]:
    flags = ["--isolated"]
    w, h = rng.choice(((6, 8), (8, 6), (4, 12), (12, 4)))
    hx, hy = rng.randrange(1, 5), rng.randrange(1, 5)
    shapes = {
        "rectangle-8x8": _box(8, 8),
        "rectangle-7x7": _box(7, 7),
        f"rectangle-{w}x{h}": _box(w, h),
        "l-shape-8": [(x, y) for x, y in _box(8, 8) if not (x >= 4 and y >= 4)],
        "staircase-8": [(x, y) for x, y in _box(8, 8) if x + y < 8],
        "frame-9-hole-3": [(x, y) for x, y in _box(9, 9) if not (3 <= x < 6 and 3 <= y < 6)],
        "frame-7-hole-2": [
            (x, y) for x, y in _box(7, 7) if not (hx <= x < hx + 2 and hy <= y < hy + 2)
        ],
    }
    return [
        _instance(name, "polyomino", flags, {"cells": _place(rng, cells)}, family=name)
        for name, cells in shapes.items()
    ]


# --------------------------------------------------------------------- hibi


def _poset_payload(rng: random.Random, n: int, relations, keep_order: bool = False) -> dict:
    """Poset on 0..n-1 with the given (lower, upper) pairs, under random labels.

    Labels order the ideals and the configuration rows, and with them the
    Jacobian decision's search order.  keep_order draws labels that sort like
    0..n-1 and lists the elements in that order, so the same class costs the
    same work under every seed.
    """
    labels = _labels(rng, n)
    elements = labels[:]
    if keep_order:
        labels.sort()
        elements = labels
    else:
        rng.shuffle(elements)
    covers = [[labels[a], labels[b]] for a, b in relations]
    rng.shuffle(covers)
    return {"elements": elements, "covers": covers}


def _chains(k: int, length: int) -> list[tuple[int, int]]:
    return [(c * length + j, c * length + j + 1) for c in range(k) for j in range(length - 1)]


def _fence(n: int) -> list[tuple[int, int]]:
    return [(j, j + 1) if j % 2 == 0 else (j + 1, j) for j in range(n - 1)]


def _ideal_count(n: int, relations) -> int:
    _, below = below_masks({"elements": list(range(n)), "covers": relations})
    return len(down_sets(below))


def _random_poset(rng: random.Random, n: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Random relations on n elements whose ideal lattice has lo..hi members."""
    while True:
        rel = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.12]
        if lo <= _ideal_count(n, rel) <= hi:
            return rel


def hibi_round(rng: random.Random) -> list[dict]:
    iso, pres = ["--isolated"], ["--isolated", "--presentation"]
    slots = [
        ("antichain-8", iso, 8, [], {"family": "antichain"}),
        ("antichain-7", pres, 7, [], {"family": "antichain"}),
        ("chains-3x3", iso, 9, _chains(3, 3), {"family": "chains", "chains": 3, "length": 3}),
        ("chains-4x2", pres, 8, _chains(4, 2), {"family": "chains", "chains": 4, "length": 2}),
        ("fence-10", iso, 10, _fence(10), {"family": "fence"}),
        ("fence-9", pres, 9, _fence(9), {"family": "fence"}),
        ("random-8", iso, 8, _random_poset(rng, 8, 64, 72), {"family": "random"}),
        ("random-9", iso, 9, _random_poset(rng, 9, 64, 72), {"family": "random"}),
    ]
    return [
        _instance(name, "hibi", flags, _poset_payload(rng, n, rel), **params)
        for name, flags, n, rel, params in slots
    ]


# ---------------------------------------------------------------- jacobian


def poset_classes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """One relation set per isomorphism class of posets on n elements."""
    upper = [(a, b) for a in range(n) for b in range(a + 1, n)]
    perms = list(itertools.permutations(range(n)))
    seen: set = set()
    out = []
    for mask in range(1 << len(upper)):
        rel = {upper[k] for k in range(len(upper)) if mask >> k & 1}
        if any((a, c) not in rel for a, b in rel for b2, c in rel if b == b2):
            continue  # not transitively closed
        canon = min(tuple(sorted((p[a], p[b]) for a, b in rel)) for p in perms)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


# 5-element classes with more than MAX_5_IDEALS ideals are left out (the
# antichain, a 2-chain with three points, a V and a Lambda with two points:
# 19 s together, the antichain alone 16 s), and so are the three below, 9 s
# together: a 4-chain with a fifth element below its top, where the witness
# search runs to power_cap before the face decision.  The kept 4-element
# class "3-chain with a fourth element below its top" exercises that path.
MAX_5_IDEALS = 18
SLOW_5_CLASSES = (
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 3)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 2), (4, 3)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 1), (4, 2), (4, 3)),
)


def _rational_normal_curve(rng: random.Random, degree: int, shear: int) -> dict:
    """Cone over the degree-d rational normal curve: the 2-minors of the Hankel matrix.

    Columns are permuted at random and the second row gets `shear` times the
    first added, which leaves the semigroup isomorphic.
    """
    cols = [(1, i + shear) for i in range(degree + 1)]
    gens = []
    for i in range(degree):
        for j in range(i + 1, degree):
            v = [0] * (degree + 1)
            v[i] += 1
            v[j + 1] += 1
            v[i + 1] -= 1
            v[j] -= 1
            gens.append(v if rng.random() < 0.5 else [-x for x in v])
    order = list(range(degree + 1))
    rng.shuffle(order)
    rng.shuffle(gens)
    return {
        "A": [[cols[j][0] for j in order], [cols[j][1] for j in order]],
        "generators": [[g[j] for j in order] for g in gens],
        "names": _labels(rng, degree + 1),
    }


class JacobianWorkload:
    """Holds the poset classes, enumerated once per process."""

    def __init__(self):
        small = [(n, rel) for n in range(1, 5) for rel in poset_classes(n)]
        five = poset_classes(5)
        missing = [rel for rel in SLOW_5_CLASSES if rel not in five]
        if missing:
            raise ValueError(f"not 5-element poset classes: {missing}")
        self.classes = small + [
            (5, rel)
            for rel in five
            if rel not in SLOW_5_CLASSES and _ideal_count(5, rel) <= MAX_5_IDEALS
        ]

    def round(self, rng: random.Random) -> list[dict]:
        flags = ["--jacobian-crosscheck"]
        out = [
            _instance(
                f"poset-{n}-{k}", "hibi", flags, _poset_payload(rng, n, rel, keep_order=True)
            )
            for k, (n, rel) in enumerate(self.classes)
        ]
        for degree in range(2, 7):
            shear = 0 if degree == 2 else rng.randrange(0, 6)
            extra = ["--reduce"] if degree in (3, 5) else []
            out.append(
                _instance(
                    f"normal-curve-{degree}",
                    "jacobian",
                    ["--isolated", *extra],
                    _rational_normal_curve(rng, degree, shear),
                    degree=degree,
                    shear=shear,
                )
            )
        return out


# -------------------------------------------------------------------- bedge


def _graph(rng: random.Random, name: str, n: int, edges, **params) -> dict:
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[perm[a], perm[b]] if rng.random() < 0.5 else [perm[b], perm[a]] for a, b in edges]
    rng.shuffle(out)
    return _instance(name, "bedge", [], {"n": n, "edges": out}, **params)


def _random_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    edges: set = set()
    while len(edges) < m:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return sorted(edges)


def bedge_round(rng: random.Random) -> list[dict]:
    def cycle(n):
        return [(i, (i + 1) % n) for i in range(n)]

    return [
        _graph(rng, "cycle-18", 18, cycle(18), family="cycle"),
        _graph(rng, "cycle-15", 15, cycle(15), family="cycle"),
        _graph(rng, "star-17", 17, [(0, i) for i in range(1, 17)], family="star"),
        _graph(rng, "tree-17", 17, [(i, rng.randrange(i)) for i in range(1, 17)], family="tree"),
        _graph(rng, "random-17", 17, _random_graph(rng, 17, 34), family="random"),
        _graph(rng, "random-16", 16, _random_graph(rng, 16, 32), family="random"),
        _graph(
            rng,
            "complete-14",
            14,
            [(i, j) for i in range(14) for j in range(i + 1, 14)],
            family="complete",
        ),
    ]


def make_rounds(workload: str):
    """Round factory for `workload`: call it with a seeded Random per round."""
    if workload == "polyomino-span":
        return polyomino_round
    if workload == "hibi-lattice":
        return hibi_round
    if workload == "jacobian-decision":
        return JacobianWorkload().round
    if workload == "bedge-cutsets":
        return bedge_round
    raise ValueError(f"unknown workload {workload!r}")
