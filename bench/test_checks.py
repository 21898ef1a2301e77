"""Each output check accepts a correct report and rejects one altered field.

Correct reports come from the CLI itself on small instances; each case then
changes one field and expects the benchmark's check to name a problem.
"""

import contextlib
import copy
import io
import json
import random

import pytest

from checks import check
from workloads import WORKLOADS, make_rounds


def instance(name, command, flags, payload, **params):
    return {"name": name, "command": command, "flags": flags, "payload": payload, "params": params}


def report_for(inst, tmp_path):
    from binheight.cli import entrypoint

    path = tmp_path / "input.json"
    path.write_text(json.dumps(inst["payload"]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entrypoint([inst["command"], str(path), "--json", *inst["flags"]])
    assert code == 0
    return json.loads(out.getvalue())


def altered(report, path, change):
    out = copy.deepcopy(report)
    node = out["results"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return out


def flip(x):
    return not x


def plus_one(x):
    return x + 1


def cells(pred, w, h):
    return {"cells": [[x, y] for x in range(w) for y in range(h) if pred(x, y)]}


def poset(elements, covers):
    return {"elements": list(elements), "covers": [list(c) for c in covers]}


def graph(n, edges):
    return {"n": n, "edges": [list(e) for e in edges]}


L_SHAPE = instance("l-shape", "polyomino", ["--isolated"], cells(lambda x, y: x * y == 0, 3, 3))
RECTANGLE = instance("rectangle", "polyomino", ["--isolated"], cells(lambda x, y: True, 3, 2))
FRAME = instance("frame", "polyomino", ["--isolated"], cells(lambda x, y: (x, y) != (1, 1), 3, 3))
CHAINS = instance(
    "chains",
    "hibi",
    ["--isolated", "--presentation"],
    poset("abcd", ["ab", "cd"]),
    family="chains",
    chains=2,
    length=2,
)
ANTICHAIN = instance("antichain", "hibi", ["--isolated"], poset("xyz", []), family="antichain")
VEE = instance("vee", "hibi", ["--jacobian-crosscheck"], poset("pqr", ["pq", "pr"]))
CONIC = instance(
    "conic",
    "jacobian",
    ["--isolated"],
    {"A": [[1, 1, 1], [0, 1, 2]], "generators": [[1, -2, 1]]},
    degree=2,
    shear=0,
)
CYCLE = instance("cycle", "bedge", [], graph(6, [(i, (i + 1) % 6) for i in range(6)]), family="cycle")
STAR = instance("star", "bedge", [], graph(5, [(0, i) for i in range(1, 5)]), family="star")
COMPLETE = instance(
    "complete",
    "bedge",
    [],
    graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
    family="complete",
)
PATH = instance("path", "bedge", [], graph(5, [(i, i + 1) for i in range(4)]))


def _move_a_nonzero(gens):
    g = list(gens[0])
    k = next(j for j, x in enumerate(g) if x)
    z = next(j for j, x in enumerate(g) if not x)
    g[z], g[k] = g[k], 0
    return [g] + gens[1:]


def _add_a_nonzero(gens):
    g = list(gens[0])
    g[next(j for j, x in enumerate(g) if not x)] = 1
    return [g] + gens[1:]


def _change_column(config):
    return [config[0], [1 - x for x in config[1]]] + config[2:]


CASES = [
    (L_SHAPE, ("cell_count",), plus_one),
    (L_SHAPE, ("span_dim",), plus_one),
    (L_SHAPE, ("interval_count",), plus_one),
    (RECTANGLE, ("interval_count",), plus_one),
    (L_SHAPE, ("connected",), flip),
    (L_SHAPE, ("simple",), flip),
    (L_SHAPE, ("rectangle",), flip),
    (RECTANGLE, ("isolated", "status"), lambda s: "not_isolated"),
    (L_SHAPE, ("isolated", "status"), lambda s: "isolated"),
    (FRAME, ("isolated", "status"), lambda s: "not_isolated"),
    (FRAME, ("isolated", "simple"), flip),
    (CHAINS, ("ideal_count",), plus_one),
    (ANTICHAIN, ("ideal_count",), plus_one),
    (CHAINS, ("relation_count",), plus_one),
    (CHAINS, ("height",), plus_one),
    (CHAINS, ("isolated", "status"), lambda s: "not_isolated"),
    (ANTICHAIN, ("isolated", "status"), lambda s: "not_isolated"),
    (CHAINS, ("presentation", "generators"), _move_a_nonzero),
    (CHAINS, ("presentation", "generators"), _add_a_nonzero),
    (CHAINS, ("presentation", "configuration"), _change_column),
    (VEE, ("jacobian_crosscheck", "agrees"), flip),
    (VEE, ("jacobian_crosscheck", "effective_isolated"), flip),
    (CONIC, ("jacobian_generators",), lambda gens: gens[:-1]),
    (CONIC, ("isolated", "verdict"), flip),
    (CONIC, ("h",), plus_one),
    (CYCLE, ("span_dim",), plus_one),
    (CYCLE, ("components",), plus_one),
    (CYCLE, ("height",), lambda h: h - 1),
    (CYCLE, ("bigheight",), plus_one),
    (CYCLE, ("bigheight_witness",), lambda w: [0, 1]),
    (CYCLE, ("cut_sets",), lambda sets: sets[1:]),
    (STAR, ("height",), plus_one),
    (STAR, ("unmixed",), flip),
    (COMPLETE, ("bigheight",), plus_one),
    (PATH, ("height_witness",), lambda w: [0]),
]


@pytest.mark.parametrize(
    "inst",
    [L_SHAPE, RECTANGLE, FRAME, CHAINS, ANTICHAIN, VEE, CONIC, CYCLE, STAR, COMPLETE, PATH],
    ids=lambda inst: inst["name"],
)
def test_correct_report_passes(inst, tmp_path):
    assert check(inst, report_for(inst, tmp_path)) == []


@pytest.mark.parametrize(
    "inst,path,change",
    CASES,
    ids=[f"{k}-{c[0]['name']}-{'.'.join(c[1])}" for k, c in enumerate(CASES)],
)
def test_altered_field_is_rejected(inst, path, change, tmp_path):
    report = altered(report_for(inst, tmp_path), path, change)
    assert check(inst, report) != []


def test_failed_status_is_rejected(tmp_path):
    report = report_for(CYCLE, tmp_path)
    report["status"] = "error"
    assert check(CYCLE, report) != []


@pytest.mark.parametrize("workload", [w for w in WORKLOADS if w != "jacobian-decision"])
def test_rounds_are_seeded_and_never_repeat_an_input(workload):
    make_round = make_rounds(workload)

    def payloads(seed, r):
        return [json.dumps(i["payload"]) for i in make_round(random.Random(f"{seed}/{r}"))]

    assert payloads(1, 0) == payloads(1, 0)
    seen = payloads(1, 0) + payloads(1, 1) + payloads(2, 0)
    assert len(set(seen)) == len(seen)
