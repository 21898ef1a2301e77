"""Independent output checks for the benchmark's CLI reports.

Nothing here imports binheight.  Every check recomputes what it needs from
the instance's input payload with its own small routine (flood fill, BFS,
bitmask enumeration) or tests a property the mathematics guarantees, so a
check never compares against a stored copy of an earlier output.

Each check takes the instance (its payload, flags and generator parameters)
and the parsed JSON report, and returns a list of problems; an empty list
means the report passed.
"""

from __future__ import annotations

from collections import deque
from math import comb

CONIC_JACOBIAN = [[1, 0], [1, 1], [1, 2]]


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _envelope(problems: list[str], command: str, report: dict) -> dict:
    _expect(problems, report.get("command") == command, f"command is not {command!r}")
    _expect(problems, report.get("status") == "ok", "status is not 'ok'")
    results = report.get("results")
    if not isinstance(results, dict):
        problems.append("results missing")
        return {}
    return results


# ---------------------------------------------------------------- polyomino

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _flood(start, allowed) -> set:
    seen = {start}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for dx, dy in _STEPS:
            nb = (x + dx, y + dy)
            if nb in allowed and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return seen


def cell_facts(cells: set) -> dict:
    """Connectivity, holes, rectangle test and inner-interval count of a cell set."""
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    connected = len(_flood(next(iter(cells)), cells)) == len(cells)
    margin = {
        (x, y)
        for x in range(x0 - 1, x1 + 2)
        for y in range(y0 - 1, y1 + 2)
        if (x, y) not in cells
    }
    outside = _flood((x0 - 1, y0 - 1), margin)
    simple = connected and len(outside) == len(margin)
    rectangle = len(cells) == (x1 - x0 + 1) * (y1 - y0 + 1)
    # 2-D prefix sums count the cells of any box in O(1)
    w, h = x1 - x0 + 1, y1 - y0 + 1
    pre = [[0] * (h + 1) for _ in range(w + 1)]
    for i in range(w):
        for j in range(h):
            inside = (x0 + i, y0 + j) in cells
            pre[i + 1][j + 1] = inside + pre[i][j + 1] + pre[i + 1][j] - pre[i][j]
    intervals = 0
    for a in range(w):
        for b in range(a + 1, w + 1):
            for c in range(h):
                for d in range(c + 1, h + 1):
                    box = pre[b][d] - pre[a][d] - pre[b][c] + pre[a][c]
                    intervals += box == (b - a) * (d - c)
    return {
        "connected": connected,
        "simple": simple,
        "rectangle": rectangle,
        "interval_count": intervals,
        "width": w,
        "height": h,
    }


def check_polyomino(instance: dict, report: dict) -> list[str]:
    problems: list[str] = []
    res = _envelope(problems, "polyomino", report)
    cells = {tuple(c) for c in instance["payload"]["cells"]}
    facts = cell_facts(cells)
    _expect(problems, res.get("cell_count") == len(cells), "cell_count is not the cell count")
    # the paper: the inner 2-minors span a space of dimension #cells
    _expect(problems, res.get("span_dim") == len(cells), "span_dim is not the cell count")
    _expect(
        problems,
        res.get("interval_count") == facts["interval_count"],
        "interval_count differs from the brute-force rectangle count",
    )
    if facts["rectangle"]:
        closed = comb(facts["width"] + 1, 2) * comb(facts["height"] + 1, 2)
        _expect(problems, res.get("interval_count") == closed, "interval_count is not C(w+1,2)C(h+1,2)")
    _expect(problems, res.get("connected") == facts["connected"], "connected differs from flood fill")
    simple = facts["simple"] if facts["connected"] else None
    _expect(problems, res.get("simple") == simple, "simple differs from flood fill")
    _expect(problems, res.get("rectangle") == facts["rectangle"], "rectangle differs from bounding box")
    if "--isolated" in instance["flags"]:
        iso = res.get("isolated") or {}
        if not facts["simple"]:
            expected = "unknown_primality"
        elif facts["rectangle"]:
            expected = "isolated"
        else:
            expected = "not_isolated"
        _expect(problems, iso.get("status") == expected, f"isolated.status is not {expected!r}")
        _expect(problems, iso.get("rectangle") == facts["rectangle"], "isolated.rectangle is wrong")
        _expect(problems, iso.get("simple") == facts["simple"], "isolated.simple is wrong")
    return problems


# --------------------------------------------------------------------- hibi


def below_masks(payload: dict) -> tuple[list[str], list[int]]:
    """Elements and, per element, the bitmask of elements strictly below it."""
    elements = list(payload["elements"])
    index = {e: k for k, e in enumerate(elements)}
    below = [0] * len(elements)
    for lo, hi in payload["covers"]:
        below[index[hi]] |= 1 << index[lo]
    changed = True
    while changed:  # transitive closure
        changed = False
        for k in range(len(elements)):
            acc = below[k]
            probe = acc
            while probe:
                bit = probe & -probe
                probe ^= bit
                acc |= below[bit.bit_length() - 1]
            if acc != below[k]:
                below[k] = acc
                changed = True
    return elements, below


def down_sets(below: list[int]) -> list[int]:
    """Every down-closed subset as a bitmask, by enumerating all subsets."""
    n = len(below)
    return [
        mask
        for mask in range(1 << n)
        if all(below[k] & ~mask == 0 for k in range(n) if mask >> k & 1)
    ]


def incomparable_pairs(ideals: list[int]) -> int:
    count = 0
    for a in range(len(ideals)):
        ia = ideals[a]
        for b in range(a + 1, len(ideals)):
            ib = ideals[b]
            both = ia & ib
            count += both != ia and both != ib
    return count


def chains_only(below: list[int]) -> bool:
    """Whether every connected component of the comparability graph is a chain."""
    n = len(below)
    comparable = [below[k] | (1 << k) for k in range(n)]
    for k in range(n):
        for j in range(n):
            if below[j] >> k & 1:
                comparable[k] |= 1 << j
    seen = 0
    for start in range(n):
        if seen >> start & 1:
            continue
        comp = 1 << start
        frontier = comp
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            new = comparable[bit.bit_length() - 1] & ~comp
            comp |= new
            frontier |= new
        seen |= comp
        probe = comp
        while probe:
            bit = probe & -probe
            probe ^= bit
            if comparable[bit.bit_length() - 1] & comp != comp:
                return False
    return True


def check_hibi(instance: dict, report: dict) -> list[str]:
    problems: list[str] = []
    res = _envelope(problems, "hibi", report)
    elements, below = below_masks(instance["payload"])
    n = len(elements)
    ideals = down_sets(below)
    params = instance["params"]
    _expect(problems, res.get("element_count") == n, "element_count is wrong")
    _expect(problems, res.get("ideal_count") == len(ideals), "ideal_count differs from bitmask enumeration")
    if params.get("family") == "antichain":
        _expect(problems, res.get("ideal_count") == 2 ** n, "ideal_count of an antichain is not 2^n")
    if params.get("family") == "chains":
        closed = (params["length"] + 1) ** params["chains"]
        _expect(problems, res.get("ideal_count") == closed, "ideal_count of k chains is not (l+1)^k")
    _expect(
        problems,
        res.get("relation_count") == incomparable_pairs(ideals),
        "relation_count is not the number of incomparable ideal pairs",
    )
    _expect(problems, res.get("height") == len(ideals) - n - 1, "height is not #ideals - #elements - 1")
    chains = chains_only(below)
    flags = instance["flags"]
    if "--isolated" in flags or "--jacobian-crosscheck" in flags:
        status = (res.get("isolated") or {}).get("status")
        expected = "isolated" if chains else "not_isolated"
        _expect(problems, status == expected, f"isolated.status is not {expected!r}")
    if "--jacobian-crosscheck" in flags:
        cross = res.get("jacobian_crosscheck") or {}
        _expect(problems, cross.get("effective_isolated") == chains, "Jacobian verdict differs from the chain test")
        _expect(problems, cross.get("agrees") is True, "jacobian_crosscheck.agrees is not true")
    if "--presentation" in flags:
        problems.extend(_check_hibi_presentation(res, elements, ideals))
    return problems


def _check_hibi_presentation(res: dict, elements: list[str], ideals: list[int]) -> list[str]:
    problems: list[str] = []
    pres = res.get("presentation") or {}
    config = pres.get("configuration") or []
    gens = pres.get("generators") or []
    n = len(elements)
    _expect(problems, len(config) == n + 1, "configuration does not have #elements + 1 rows")
    if len(config) != n + 1:
        return problems
    columns = list(zip(*config))
    expected = {(1,) + tuple(m >> k & 1 for k in range(n)) for m in ideals}
    _expect(
        problems,
        len(columns) == len(ideals) and set(columns) == expected,
        "configuration columns are not (1, indicator) of the ideals",
    )
    _expect(problems, len(gens) == res.get("relation_count"), "printed relations differ from relation_count")
    for g in gens:
        support = [(j, x) for j, x in enumerate(g) if x]
        if len(support) != 4 or len(g) != len(columns):
            problems.append("a printed relation does not have four nonzeros")
            break
        if any(sum(x * row[j] for j, x in support) for row in config):
            problems.append("a printed relation is not in the configuration kernel")
            break
    return problems


# ----------------------------------------------------------------- jacobian


def check_jacobian(instance: dict, report: dict) -> list[str]:
    problems: list[str] = []
    res = _envelope(problems, "jacobian", report)
    payload = instance["payload"]
    params = instance["params"]
    columns = len(payload["A"][0])
    # every configuration here has two independent rows
    _expect(problems, res.get("h") == columns - 2, "h is not #columns - rank(A)")
    _expect(
        problems,
        res.get("input_generators") == len(payload["generators"]),
        "input_generators is wrong",
    )
    if params.get("degree") == 2 and params.get("shear") == 0:
        _expect(
            problems,
            sorted(res.get("jacobian_generators") or []) == CONIC_JACOBIAN,
            "conic Jacobian generators are not {(1,0),(1,1),(1,2)}",
        )
    iso = res.get("isolated") or {}
    # the cone over a rational normal curve is singular only at its vertex
    _expect(problems, iso.get("verdict") is True, "rational normal curve is not isolated")
    _expect(problems, iso.get("zero_ideal") is False, "zero_ideal is not false")
    return problems


# -------------------------------------------------------------------- bedge


def components(n: int, adjacency: list[set], removed: frozenset = frozenset()) -> int:
    seen = set(removed)
    count = 0
    for start in range(n):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def _adjacency(payload: dict) -> list[set]:
    adjacency = [set() for _ in range(payload["n"])]
    for i, j in payload["edges"]:
        adjacency[i].add(j)
        adjacency[j].add(i)
    return adjacency


def check_bedge(instance: dict, report: dict) -> list[str]:
    problems: list[str] = []
    res = _envelope(problems, "bedge", report)
    payload = instance["payload"]
    params = instance["params"]
    n = payload["n"]
    adjacency = _adjacency(payload)
    c = components(n, adjacency)
    height, span, bigheight = res.get("height"), res.get("span_dim"), res.get("bigheight")
    _expect(problems, res.get("components") == c, "components differs from BFS")
    _expect(problems, span == n - c, "span_dim is not n - #components")
    if not all(isinstance(x, int) for x in (height, span, bigheight)):
        problems.append("height, span_dim or bigheight missing")
        return problems
    _expect(problems, height <= span <= bigheight, "height <= span_dim <= bigheight fails")
    _expect(problems, res.get("unmixed") == (height == bigheight), "unmixed is not height == bigheight")

    def value(w) -> int:
        return len(w) + n - components(n, adjacency, frozenset(w))

    for key, target in (("height_witness", height), ("bigheight_witness", bigheight)):
        w = frozenset(res.get(key) or ())
        c_w = components(n, adjacency, w)
        is_cut = all(components(n, adjacency, w - {i}) < c_w for i in w)
        _expect(problems, is_cut, f"{key} is not a cut set")
        _expect(problems, value(w) == target, f"{key} value |W| + n - c(W) is not {target}")
    listed = res.get("cut_sets") or []
    _expect(problems, [] in listed, "the empty set is not listed as a cut set")
    _expect(
        problems,
        all(height <= value(w) <= bigheight for w in listed),
        "a listed cut set has a value outside [height, bigheight]",
    )
    family = params.get("family")
    if family == "cycle":
        _expect(problems, (height, span, bigheight) == (n - 1, n - 1, n), "cycle is not (n-1, n-1, n)")
    elif family == "star":
        m = n - 1
        _expect(problems, (height, span, bigheight) == (2, m, m), "star K_{1,m} is not (2, m, m)")
    elif family == "complete":
        _expect(problems, height == bigheight == n - 1, "complete graph is not height = bigheight = n-1")
    return problems


CHECKS = {
    "polyomino": check_polyomino,
    "hibi": check_hibi,
    "jacobian": check_jacobian,
    "bedge": check_bedge,
}


def check(instance: dict, report: dict) -> list[str]:
    """Problems found in `report`, the parsed output of one instance."""
    return CHECKS[instance["command"]](instance, report)
