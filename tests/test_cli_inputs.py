"""The command line on arbitrary small inputs: a refusal or an answer, never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binheight.cli import entrypoint

SMALL = st.integers(-5, 5)
JUNK = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=3) | SMALL,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


def run(argv: list[str], payload) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entrypoint([*argv, str(path)])
    return code, out.getvalue(), err.getvalue()


def matrix(max_rows: int, max_cols: int):
    """Rectangular rows most of the time, ragged ones sometimes."""
    rectangular = st.integers(0, max_cols).flatmap(
        lambda n: st.lists(st.lists(SMALL, min_size=n, max_size=n), max_size=max_rows)
    )
    ragged = st.lists(st.lists(SMALL, max_size=max_cols), max_size=max_rows)
    return st.one_of(rectangular, rectangular, ragged)


def field(good):
    """A well-typed value mostly, a JSON value of any shape sometimes."""
    return st.one_of(good, good, good, JUNK)


LABELS = st.sampled_from("abcde")


@st.composite
def graph(draw):
    """Edges inside the vertex range, loops and repeats allowed."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    return {"n": n, "edges": draw(st.lists(st.lists(vertex, min_size=2, max_size=2), max_size=10))}


@st.composite
def poset(draw):
    """Distinct labels and covers between them, going up the list or anywhere."""
    elements = draw(st.lists(LABELS, min_size=1, max_size=5, unique=True))
    pair = st.lists(st.sampled_from(elements), min_size=2, max_size=2)
    upward = pair.map(lambda c: sorted(c, key=elements.index)).filter(lambda c: c[0] != c[1])
    covers = draw(st.lists(upward if len(elements) > 1 else pair, max_size=6) | st.lists(pair, max_size=6))
    return {"elements": elements, "covers": covers}


PAYLOADS = {
    "rank": st.fixed_dictionaries(
        {"generators": field(matrix(4, 8))},
        optional={"variables": field(st.lists(st.text("xyz", max_size=2), max_size=8))},
    ),
    "snf": st.fixed_dictionaries({"matrix": field(matrix(8, 8))}),
    "jacobian": st.fixed_dictionaries(
        {"A": field(matrix(3, 8)), "generators": field(matrix(3, 8))}
    ),
    "polyomino": st.fixed_dictionaries(
        {"cells": field(st.lists(st.lists(SMALL, min_size=2, max_size=2), max_size=8))}
    ),
    "bedge": st.one_of(
        graph(),
        graph(),
        st.fixed_dictionaries(
            {
                "n": field(st.integers(-1, 8)),
                "edges": field(st.lists(st.lists(st.integers(-1, 8), min_size=2, max_size=2), max_size=10)),
            }
        ),
    ),
    "hibi": st.one_of(
        poset(),
        poset(),
        st.fixed_dictionaries(
            {
                "elements": field(st.lists(LABELS, max_size=5)),
                "covers": field(st.lists(st.lists(LABELS, min_size=2, max_size=2), max_size=6)),
            }
        ),
    ),
}
FLAGS = {
    "rank": ["--unmixed"],
    "snf": [],
    "jacobian": ["--isolated", "--reduce", "--mod=2", "--mod=3", "--mod=4"],
    "polyomino": ["--presentation", "--isolated", "--assume-prime"],
    "bedge": ["--presentation"],
    "hibi": ["--presentation", "--isolated", "--jacobian-crosscheck"],
}


@pytest.mark.parametrize("command", sorted(PAYLOADS))
@settings(
    max_examples=50,
    derandomize=True,
    database=None,
    deadline=None,
)
@given(data=st.data())
def test_refusal_or_answer(command, data):
    payload = data.draw(PAYLOADS[command], label="payload")
    flags = data.draw(st.lists(st.sampled_from(["--json", *FLAGS[command]]), unique=True))
    cap = data.draw(st.none() | st.integers(-1, 300), label="cap")
    argv = [command, *flags] + ([] if cap is None else ["--cap", str(cap)])
    code, out, err = run(argv, payload)
    assert code in (0, 1), err
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
        assert err.split(":")[0].isidentifier(), err
    elif "--json" in flags:
        assert json.loads(out)["status"] == "ok"


@pytest.mark.parametrize(
    "command, payload",
    [
        ("polyomino", {"cells": [[0, 0], [1, 0]]}),
        ("bedge", {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}),
        ("hibi", {"elements": ["a", "b"], "covers": []}),
        ("jacobian", {"A": [[1, 1, 1], [0, 1, 2]], "generators": [[1, -2, 1]]}),
    ],
)
def test_cap_reaches_every_enumeration(command, payload):
    code, out, err = run([command, "--json", "--cap", "1"], payload)
    assert code == 1
    assert out == ""
    assert err.startswith("EnumerationCapExceeded: ")
    assert "Traceback" not in err
    assert run([command, "--json"], payload)[0] == 0
