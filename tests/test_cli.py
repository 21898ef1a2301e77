import io
import json
import random
import sys

import pytest

from binheight.cli import entrypoint

CLAW_GRAPH = {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}
CONIC = {"A": [[1, 1, 1], [0, 1, 2]], "generators": [[1, -2, 1]]}


def write_json(tmp_path, payload, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = entrypoint(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestReportEnvelope:
    def test_fields(self, capsys, tmp_path):
        path = write_json(tmp_path, CLAW_GRAPH)
        report = run_json(capsys, ["bedge", "--json", path])
        assert report["command"] == "bedge"
        assert report["status"] == "ok"
        assert len(report["input_sha256"]) == 64
        assert "seed" not in report

    def test_json_output_is_deterministic(self, capsys, tmp_path):
        path = write_json(tmp_path, CONIC)
        code, first, _ = run(capsys, ["jacobian", "--json", "--isolated", path])
        assert code == 0
        code, second, _ = run(capsys, ["jacobian", "--json", "--isolated", path])
        assert code == 0
        assert first == second
        assert "\n" not in first.rstrip("\n")

    def test_stdin_input(self, capsys, monkeypatch):
        stream = io.TextIOWrapper(io.BytesIO(json.dumps(CLAW_GRAPH).encode()))
        monkeypatch.setattr("sys.stdin", stream)
        report = run_json(capsys, ["bedge", "--json", "-"])
        assert report["results"]["height"] == 2


class TestExitCodes:
    def test_domain_error_is_exit_1(self, capsys, tmp_path):
        path = write_json(tmp_path, {"cells": []})
        code, out, err = run(capsys, ["polyomino", path])
        assert code == 1
        assert "EmptyCollection" in err

    def test_non_object_payload_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, ["rank", str(path)])
        assert code == 1
        assert "MalformedInput" in err

    def test_invalid_json_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["rank", str(path)])
        assert code == 2

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["rank", str(tmp_path / "absent.json")])
        assert code == 2

    def test_unknown_subcommand_is_exit_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            entrypoint(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_cap_exhaustion_is_exit_1(self, capsys, tmp_path):
        payload = {
            "A": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
            "generators": [[-1, 1, 1, -1]],
        }
        path = write_json(tmp_path, payload)
        code, _, err = run(capsys, ["jacobian", "--cap", "1", path])
        assert code == 1
        assert "EnumerationCapExceeded" in err

    def test_seed_flag_is_gone(self, capsys, tmp_path):
        path = write_json(tmp_path, CLAW_GRAPH)
        with pytest.raises(SystemExit) as exc:
            entrypoint(["bedge", "--json", "--seed", "7", path])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "raw, reason",
        [
            (
                b'{"generators": [[' + b"9" * 5000 + b", 1]]}",
                f"limit ({sys.get_int_max_str_digits()} digits)",
            ),
            (b"\xff", "can't decode byte 0xff"),
        ],
        ids=["integer-past-digit-limit", "not-utf-8"],
    )
    def test_unreadable_input_is_exit_2(self, capsys, tmp_path, raw, reason):
        path = tmp_path / "input.json"
        path.write_bytes(raw)
        code, out, err = run(capsys, ["rank", "--json", str(path)])
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert reason in err

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("bedge", {"n": 20000, "edges": []}, "a 6021-digit number of steps"),
            ("polyomino", {"cells": [[0, 0], [10**9, 0]]}, "picture needs 1000000001 steps"),
            (
                "hibi",
                {"elements": [f"e{i}" for i in range(20)], "covers": []},
                "ideal pair tests needs at least 10001628 steps",
            ),
        ],
        ids=["edgeless-20000", "far-apart-cells", "antichain-20"],
    )
    def test_refused_before_the_work(self, capsys, tmp_path, command, payload, message):
        code, out, err = run(capsys, [command, "--json", write_json(tmp_path, payload)])
        assert code == 1
        assert out == ""
        assert err.startswith("EnumerationCapExceeded: ")
        assert message in err

    @pytest.mark.parametrize("mode", [["--json"], []])
    def test_unprintable_smith_transform_is_exit_1(self, capsys, tmp_path, mode):
        # the column transform of this matrix has an entry of 4704 digits
        rng = random.Random(1)
        matrix = [[rng.randrange(-9, 10) for _ in range(22)] for _ in range(22)]
        path = write_json(tmp_path, {"matrix": matrix})
        code, out, err = run(capsys, ["snf", *mode, path])
        assert code == 1
        assert out == ""
        assert "OutputTooLarge" in err
        assert "4704 decimal digits" in err
        assert str(sys.get_int_max_str_digits()) in err


class TestTextReports:
    # text mode prints a list of lists as space-separated vectors; a tuple
    # in the results would print as its repr instead
    @pytest.mark.parametrize(
        "argv, payload, line",
        [
            (
                ["rank"],
                {"generators": [[1, 1, -1, -1], [1, 0, -1, 0]]},
                "results.lattice_basis: (1,0,-1,0) (0,1,0,-1)",
            ),
            (["snf"], {"matrix": [[2, 0], [0, 3]]}, "results.u: (1,1) (-3,-2)"),
            (
                ["jacobian", "--isolated"],
                CONIC,
                "results.jacobian_generators: (1,0) (1,1) (1,2)",
            ),
            (["bedge"], CLAW_GRAPH, "results.cut_sets: () (0)"),
            (
                ["hibi", "--isolated", "--jacobian-crosscheck"],
                {"elements": ["a", "b"], "covers": []},
                "results.isolated.components: (a) (b)",
            ),
        ],
        ids=["rank", "snf", "jacobian", "bedge", "hibi"],
    )
    def test_vector_field(self, capsys, tmp_path, argv, payload, line):
        code, out, err = run(capsys, argv + [write_json(tmp_path, payload)])
        assert code == 0, err
        assert line in out.splitlines()


class TestRank:
    def test_span_and_basis(self, capsys, tmp_path):
        payload = {"generators": [[1, 1, -1, -1], [1, 0, -1, 0]]}
        path = write_json(tmp_path, payload)
        report = run_json(capsys, ["rank", "--json", path])
        r = report["results"]
        assert r["span_dim"] == 2
        assert r["statement"] == "height <= 2 <= bigheight"
        assert r["elementary_divisors"] == [1, 1]

    def test_unmixed_flag(self, capsys, tmp_path):
        payload = {"generators": [[1, -1]], "variables": ["u", "v"]}
        path = write_json(tmp_path, payload)
        report = run_json(capsys, ["rank", "--json", "--unmixed", path])
        assert "height = 1" in report["results"]["statement"]
        assert report["results"]["variables"] == ["u", "v"]


    def test_twenty_thousand_variables(self, capsys, tmp_path):
        # the Smith form works on the 1 x 1 column basis, not on the basis
        # with a 20,000 x 20,000 column transform
        gen = [0] * 20000
        gen[0], gen[1] = 1, -1
        path = write_json(tmp_path, {"generators": [gen]})
        r = run_json(capsys, ["rank", "--json", path])["results"]
        assert r["span_dim"] == 1
        assert r["elementary_divisors"] == [1]
        assert r["lattice_basis"] == [gen]


class TestSnf:
    def test_divisors_and_certificate(self, capsys, tmp_path):
        path = write_json(tmp_path, {"matrix": [[2, 0], [0, 3]]})
        report = run_json(capsys, ["snf", "--json", path])
        r = report["results"]
        assert r["divisors"] == [1, 6]
        assert r["rank"] == 2
        assert r["transform_verified"] is True


class TestJacobian:
    def test_generators_and_verdict(self, capsys, tmp_path):
        path = write_json(tmp_path, CONIC)
        report = run_json(capsys, ["jacobian", "--json", "--isolated", path])
        r = report["results"]
        assert r["h"] == 1
        assert r["jacobian_generators"] == [[1, 0], [1, 1], [1, 2]]
        assert r["isolated"]["verdict"] is True
        assert r["isolated"]["method"] == "face-decomposition"
        assert "witness_powers" not in r["isolated"]
        assert report["caveats"]

    def test_reduce_searches_a_thousand_columns(self, capsys, tmp_path):
        # columns e_999, ..., e_1, then e_1 + e_2: the semigroup search goes
        # one column deeper per column, past the interpreter's recursion limit
        rows = [[0] * 1000 for _ in range(999)]
        for j in range(999):
            rows[998 - j][j] = 1
        rows[0][999] = rows[1][999] = 1
        gen = [0] * 1000
        gen[997] = gen[998] = 1
        gen[999] = -1
        path = write_json(tmp_path, {"A": rows, "generators": [gen]})
        code, out, err = run(capsys, ["jacobian", "--json", "--reduce", path])
        assert code == 0, err
        assert "Traceback" not in err
        r = json.loads(out)["results"]
        # the generator 0, the monomial 1, divides e_1 and e_2
        assert r["jacobian_generators"] == [[0] * 999]
        assert r["reduced"] is True

    def test_isolated_refuses_an_unsaturated_lattice(self, capsys, tmp_path):
        # [2, -4, 2] spans the conic's kernel over Q but has index 2 in it
        payload = {"A": [[1, 1, 1], [0, 1, 2]], "generators": [[2, -4, 2]]}
        path = write_json(tmp_path, payload)
        code, out, err = run(capsys, ["jacobian", "--json", "--isolated", path])
        assert code == 1
        assert out == ""
        assert err.startswith("UnsaturatedLattice: ")
        assert "elementary divisors are [2]" in err
        # the listing alone does not need the lattice to be saturated
        assert run_json(capsys, ["jacobian", "--json", path])["results"]["h"] == 1
        # the saturated [1, -2, 1] still answers: test_generators_and_verdict

    def test_modulus(self, capsys, tmp_path):
        payload = {"A": [[1, 1, 1], [0, 1, 2]], "generators": [[2, -4, 2]]}
        path = write_json(tmp_path, payload)
        report = run_json(capsys, ["jacobian", "--json", "--mod", "2", path])
        assert report["results"]["jacobian_generators"] == []
        assert report["results"]["modulus"] == 2


class TestPolyomino:
    def test_text_output_has_picture(self, capsys, tmp_path):
        path = write_json(tmp_path, {"cells": [[0, 0], [1, 0], [0, 1]]})
        code, out, _ = run(capsys, ["polyomino", "--isolated", path])
        assert code == 0
        assert "#.\n" in out and "##" in out
        assert "not_isolated" in out

    def test_json_results(self, capsys, tmp_path):
        path = write_json(tmp_path, {"cells": [[0, 0], [1, 0], [0, 1]]})
        report = run_json(capsys, ["polyomino", "--json", "--isolated", path])
        r = report["results"]
        assert r["cell_count"] == 3
        assert r["interval_count"] == 5
        assert r["rectangle"] is False
        assert r["isolated"]["status"] == "not_isolated"

    def test_presentation_included_on_request(self, capsys, tmp_path):
        path = write_json(tmp_path, {"cells": [[0, 0]]})
        report = run_json(capsys, ["polyomino", "--json", "--presentation", path])
        p = report["results"]["presentation"]
        assert p["variables"] == ["x(0,0)", "x(0,1)", "x(1,0)", "x(1,1)"]
        assert p["generators"] == [[1, -1, -1, 1]]


class TestBedge:
    def test_heights_and_cut_sets(self, capsys, tmp_path):
        path = write_json(tmp_path, CLAW_GRAPH)
        report = run_json(capsys, ["bedge", "--json", path])
        r = report["results"]
        assert (r["height"], r["span_dim"], r["bigheight"]) == (2, 3, 3)
        assert r["cut_sets"] == [[], [0]]
        assert r["height_witness"] == [0]
        assert r["unmixed"] is False

    def test_cap_reaches_cut_set_enumeration(self, capsys, tmp_path):
        cycle = {"n": 10, "edges": [[i, (i + 1) % 10] for i in range(10)]}
        path = write_json(tmp_path, cycle)
        code, _, err = run(capsys, ["bedge", "--json", "--cap", "1000", path])
        assert code == 1
        assert "EnumerationCapExceeded" in err
        assert "1024" in err
        r = run_json(capsys, ["bedge", "--json", path])["results"]
        assert (r["height"], r["span_dim"]) == (9, 9)


class TestHibi:
    def test_crosscheck_agrees(self, capsys, tmp_path):
        path = write_json(tmp_path, {"elements": ["a", "b"], "covers": []})
        report = run_json(
            capsys,
            ["hibi", "--json", "--isolated", "--jacobian-crosscheck", path],
        )
        r = report["results"]
        assert r["ideal_count"] == 4
        assert r["height"] == 1
        assert r["isolated"]["status"] == "isolated"
        assert r["jacobian_crosscheck"]["agrees"] is True

    def test_six_antichain_crosscheck(self, capsys, tmp_path):
        # 64 ideals and 1,351 relations of rank h = 57; each of the 64 extreme
        # rays gets one masked rank
        path = write_json(tmp_path, {"elements": list("abcdef"), "covers": []})
        argv = ["hibi", "--json", "--jacobian-crosscheck", path]
        r = run_json(capsys, argv)["results"]
        assert r["ideal_count"] == 64
        assert r["jacobian_crosscheck"]["verdict"] is True
        assert r["jacobian_crosscheck"]["agrees"] is True

    def test_cap_reaches_facet_enumeration(self, capsys, tmp_path):
        # 16 ideals: a cap of 7 stops the ideal enumeration at 5 ideals, whose
        # 10 pair tests already exceed it (the facet step is tested on the
        # library in test_toric.py)
        antichain = {"elements": ["a", "b", "c", "d"], "covers": []}
        path = write_json(tmp_path, antichain)
        argv = ["hibi", "--json", "--jacobian-crosscheck", path]
        code, _, err = run(capsys, argv + ["--cap", "7"])
        assert code == 1
        assert "EnumerationCapExceeded" in err
        assert "ideal pair tests needs at least 10 steps; cap is 7" in err
        r = run_json(capsys, argv)["results"]["jacobian_crosscheck"]
        assert r["verdict"] is True
        assert r["method"] == "face-decomposition"

    def test_two_chains_of_five_decide(self, capsys, tmp_path):
        # 36 ideals in 11 rows: trying all C(36, 10) column subsets for facets
        # would exceed the default cap
        chains = [[f"{c}{i}" for i in range(5)] for c in "ab"]
        payload = {
            "elements": chains[0] + chains[1],
            "covers": [[ch[i], ch[i + 1]] for ch in chains for i in range(4)],
        }
        path = write_json(tmp_path, payload)
        argv = ["hibi", "--json", "--isolated", "--jacobian-crosscheck", path]
        r = run_json(capsys, argv)["results"]
        assert r["ideal_count"] == 36
        assert r["jacobian_crosscheck"]["verdict"] is True
        assert r["jacobian_crosscheck"]["agrees"] is True

    def test_chain_poset(self, capsys, tmp_path):
        payload = {
            "elements": ["a", "b", "c"],
            "covers": [["a", "b"], ["b", "c"]],
        }
        path = write_json(tmp_path, payload)
        report = run_json(capsys, ["hibi", "--json", path])
        assert report["results"]["height"] == 0
        assert report["results"]["relation_count"] == 0
