import collections
import gc
import hashlib
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cyclelattice
from cyclelattice import certificate, cli, cycle_structure, multigraph
from cyclelattice.certificate import certify, certify_components, certify_cycle_basis
from cyclelattice.cli import main
from cyclelattice.cycle_structure import cosimplify, fundamental_cycle_matrix
from cyclelattice.errors import InternalError
from cyclelattice.lattice_basis import CycleBasis, indicator_matrix, per_component, simple_basis
from cyclelattice.multigraph import (
    Multigraph,
    forest_from_edges,
    format_edge_list,
    parse_edge_list,
    spanning_forest,
)
from cyclelattice.oracle import exact_determinant
from cyclelattice.topo_extension import gen

K4_TEXT = "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
B3_TEXT = "2 3\nu v\nu v\nu v\n"
C3_TEXT = "3 3\n1 2\n2 3\n3 1\n"
# K4 on 2..5 with 2-3 and 4-5 subdivided, plus pendant bridges at 5, 2, 7, 4
SUBDIVIDED_TEXT = (
    "11 13\n1 5\n2 6\n6 3\n2 4\n2 5\n3 4\n3 5\n4 7\n7 8\n8 5\n2 9\n7 10\n4 11\n"
)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    return str(path)


@pytest.fixture
def b3_file(tmp_path):
    path = tmp_path / "b3.txt"
    path.write_text(B3_TEXT)
    return str(path)


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text(C3_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestAnalyze:
    def test_k4(self, capsys, k4_file):
        code, doc = run_json(capsys, "analyze", k4_file)
        assert code == 0
        assert doc["three_edge_connected"] is True
        assert doc["bridges"] == []
        assert doc["cosimplification"]["m"] == 6

    def test_text_output(self, capsys, c3_file):
        code, out = run(capsys, "analyze", c3_file, "--output", "text")
        assert code == 0
        assert "three_edge_connected: False" in out


class TestBasis:
    def test_semi_fundamental_k4(self, capsys, k4_file):
        code, doc = run_json(capsys, "basis", "--method", "semi-fundamental", k4_file)
        assert code == 0
        assert len(doc["cycles"]) == 6
        assert doc["determinant"] == "8"
        assert doc["certified"] is True

    def test_topological_b3(self, capsys, b3_file):
        code, doc = run_json(capsys, "basis", "--method", "topological", b3_file)
        assert code == 0
        assert len(doc["cycles"]) == 3
        assert doc["determinant"] == "2"

    def test_default_method_on_c3(self, capsys, c3_file):
        code, doc = run_json(capsys, "basis", c3_file)
        assert code == 0
        assert [c["edges"] for c in doc["cycles"]] == [[0, 1, 2]]

    def test_simple_method(self, capsys, k4_file):
        code, doc = run_json(capsys, "basis", "--method", "simple", k4_file)
        assert code == 0
        assert len(doc["cycles"]) == 6
        doubled = [c for c in doc["cycles"] if c.get("multiplier") == 2]
        assert len(doubled) == 3

    def test_tree_seed(self, capsys, k4_file):
        code, doc = run_json(capsys, "basis", "--tree-seed", "3", k4_file)
        assert code == 0
        assert doc["certified"] is True

    def test_verify_flag_appends_hnf(self, capsys, k4_file):
        code, doc = run_json(capsys, "basis", "--verify", k4_file)
        assert code == 0
        assert doc["hnf_equal"] is True

    def test_disconnected_exits_2(self, capsys, tmp_path):
        path = tmp_path / "disc.txt"
        path.write_text("4 2\n1 2\n3 4\n")
        code = main(["basis", str(path)])
        assert code == 2

    def test_deterministic_bytes(self, capsys, k4_file):
        _, out1 = run(capsys, "basis", k4_file)
        _, out2 = run(capsys, "basis", k4_file)
        assert out1 == out2

    @pytest.mark.parametrize("seed", [[], ["--tree-seed", "3"]])
    def test_simple_method_builds_on_the_document_tree(self, capsys, tmp_path, seed):
        path = tmp_path / "subdivided.txt"
        path.write_text(SUBDIVIDED_TEXT)
        code, doc = run_json(capsys, "basis", "--method", "simple", *seed, str(path))
        assert code == 0 and doc["certified"] is True
        G = parse_edge_list(SUBDIVIDED_TEXT)
        fcm = fundamental_cycle_matrix(G, forest_from_edges(G, doc["tree"]))
        fundamental = set(fcm.cycles.values())
        for entry in doc["cycles"]:
            if entry.get("multiplier", 1) == 1:
                assert frozenset(entry["edges"]) in fundamental, entry
            else:
                assert set(entry["edges"]) <= set(doc["tree"]), entry


class TestVerify:
    def _basis_doc(self, capsys, method, graph_file, tmp_path, name="basis.json"):
        code, out = run(capsys, "basis", "--method", method, graph_file)
        assert code == 0
        path = tmp_path / name
        path.write_text(out)
        return str(path)

    @pytest.mark.parametrize("method", ["simple", "semi-fundamental", "topological"])
    def test_round_trip_accepts(self, capsys, k4_file, tmp_path, method):
        doc_path = self._basis_doc(capsys, method, k4_file, tmp_path, f"{method}.json")
        code, verdict = run_json(capsys, "verify", k4_file, doc_path)
        assert code == 0
        assert verdict["accepted"] is True

    def test_round_trip_non_3ec(self, capsys, c3_file, tmp_path):
        doc_path = self._basis_doc(capsys, "semi-fundamental", c3_file, tmp_path)
        code, verdict = run_json(capsys, "verify", c3_file, doc_path)
        assert code == 0
        assert verdict["accepted"] is True

    def test_cardinality_rejection(self, capsys, k4_file, tmp_path):
        candidate = {
            "cycles": [
                {"edges": [0, 1, 3], "provenance": "x"},
                {"edges": [0, 2, 4], "provenance": "x"},
                {"edges": [1, 2, 5], "provenance": "x"},
            ]
        }
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(candidate))
        code, verdict = run_json(capsys, "verify", k4_file, str(path))
        assert code == 3
        assert verdict["accepted"] is False
        failing = {c["name"] for c in verdict["checks"] if not c["passed"]}
        assert "cardinality" in failing

    def test_determinant_rejection(self, capsys, k4_file, tmp_path, k4):
        # right cardinality but a repeated triangle: determinant collapses
        cycles = [
            [0, 1, 3],
            [0, 1, 3],
            [0, 2, 4],
            [1, 2, 5],
            [1, 2, 3, 4],
            [0, 2, 3, 5],
        ]
        M = indicator_matrix(k4, [frozenset(c) for c in cycles])
        assert abs(exact_determinant(M)) != 8  # honest fixture
        path = tmp_path / "cand.json"
        path.write_text(
            json.dumps({"cycles": [{"edges": c, "provenance": "x"} for c in cycles]})
        )
        code, verdict = run_json(capsys, "verify", k4_file, str(path))
        assert code == 3
        failing = {c["name"] for c in verdict["checks"] if not c["passed"]}
        assert "determinant" in failing or "hnf-lattice-equality" in failing

    def test_residual_past_the_cap_fails_the_determinant_check(
        self, capsys, k4_file, tmp_path, monkeypatch
    ):
        cycles = [[0, 1, 3], [0, 2, 4], [3, 4, 5], [0, 1, 4, 5], [0, 2, 3, 5], [1, 2, 3, 4]]
        path = tmp_path / "cand.json"
        path.write_text(json.dumps({"cycles": [{"edges": c} for c in cycles]}))
        monkeypatch.setattr(certificate, "RESIDUAL_CAP", 2)
        code, verdict = run_json(capsys, "verify", k4_file, str(path))
        assert code == 3
        assert verdict["accepted"] is False
        assert verdict["checks"][-1] == {
            "name": "determinant",
            "passed": False,
            "detail": "residual block of 3x3 after peeling a component with n=4, m=6 "
            "exceeds the cap of 2",
        }

    def test_non_cycle_entry_rejected(self, capsys, k4_file, tmp_path):
        candidate = {"cycles": [{"edges": [0, 1], "provenance": "x"}]}
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(candidate))
        code, verdict = run_json(capsys, "verify", k4_file, str(path))
        assert code == 3
        assert verdict["checks"][0]["name"] == "entries-are-cycles"
        assert verdict["checks"][0]["passed"] is False

    def test_entry_not_an_object_rejected(self, capsys, k4_file, tmp_path):
        path = tmp_path / "cand.json"
        path.write_text(json.dumps({"cycles": [[0, 1, 3]]}))
        code, verdict = run_json(capsys, "verify", k4_file, str(path))
        assert code == 3
        detail = "entry 0 is not an object"
        check = {"name": "entries-are-cycles", "passed": False, "detail": detail}
        assert verdict == {"accepted": False, "checks": [check], "format": 2}

    def test_determinant_detail_names_an_entry_in_no_single_component(
        self, capsys, tmp_path
    ):
        # two K4s, on edges 0..5 and 6..11, joined by the bridge 12
        graph = tmp_path / "two-k4.txt"
        graph.write_text(
            "8 13\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
            "5 6\n5 7\n5 8\n6 7\n6 8\n7 8\n4 5\n"
        )
        doc = json.loads(run(capsys, "basis", "--method", "semi-fundamental", str(graph))[1])
        doc["cycles"].append({"edges": [0, 6], "multiplier": 2})
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(doc))
        code, verdict = run_json(capsys, "verify", str(graph), str(path))
        assert code == 3
        checks = {c.pop("name"): c for c in verdict["checks"]}
        assert checks["cardinality"] == {"passed": False, "detail": "13 entries, expected 12"}
        assert checks["determinant"] == {
            "passed": False,
            "detail": "|det|=8 expected 8; |det|=8 expected 8; "
            "1 entry lies in no single component",
        }

    def test_doubled_bridge_is_outside_the_cycle_space(self, capsys, tmp_path):
        text = _core_with_pendants(50)
        bridge = min(cosimplify(parse_edge_list(text)).partition.bridges)
        graph = tmp_path / "core50.txt"
        graph.write_text(text)
        path = tmp_path / "cand.json"
        path.write_text(json.dumps({"cycles": [{"edges": [bridge], "multiplier": 2}]}))
        code, verdict = run_json(capsys, "verify", str(graph), str(path))
        assert code == 3
        assert verdict["accepted"] is False
        assert verdict["checks"][-1]["name"] == "rational-cycle-space"
        assert verdict["checks"][-1]["passed"] is False


@pytest.mark.parametrize(
    "argv, certified",
    [
        (["basis"], lambda doc: doc["certified"]),
        (["extend"], lambda doc: doc["chain"]["certified"]),
    ],
    ids=["basis", "extend"],
)
def test_an_uncertified_basis_fails_only_under_verify(
    capsys, k4_file, monkeypatch, argv, certified
):
    monkeypatch.setattr(
        cli, "certify_components", lambda cos, bases: certificate.Certificate(0, False, 6, ())
    )
    code, doc = run_json(capsys, *argv, k4_file)
    assert (code, certified(doc)) == (0, False)
    code, doc = run_json(capsys, *argv, "--verify", k4_file)
    assert (code, certified(doc)) == (3, False)


class TestExtend:
    def test_b3(self, capsys, b3_file):
        code, doc = run_json(capsys, "extend", b3_file)
        assert code == 0
        assert doc["chain"]["determinant"] == "2"
        assert doc["chain"]["certified"] is True
        kinds = [s["kind"] for s in doc["sequence"]["steps"]]
        assert kinds[0] == "A"

    def test_verify_prefixes(self, capsys, k4_file):
        code, doc = run_json(capsys, "extend", "--verify", k4_file)
        assert code == 0
        assert doc["chain"]["prefixes_certified"] is True

    def test_non_3ec_exits_2(self, capsys, c3_file):
        code = main(["extend", c3_file])
        assert code == 2


class TestHull:
    def test_char(self, capsys, k4_file):
        code, doc = run_json(capsys, "hull", "--char", "3", "--verify", k4_file)
        assert code == 0
        assert doc == {
            "characteristic": 3,
            "derived": False,
            "dimension": 6,
            "format": 2,
            "verified": True,
        }

    def test_char_two(self, capsys, k4_file):
        code, doc = run_json(capsys, "hull", "--char", "2", k4_file)
        assert code == 0
        assert doc["dimension"] == 3

    def test_group(self, capsys, b3_file):
        code, doc = run_json(capsys, "hull", "--group", "2^2", "--verify", b3_file)
        assert code == 0
        assert doc["order"] == "32"
        assert doc["verified"] is True

    @pytest.mark.parametrize("char, k4_dim, c3_dim", [(0, 6, 1), (2, 3, 1), (3, 6, 1)])
    def test_verify_over_each_characteristic(self, capsys, k4_file, c3_file, char, k4_dim, c3_dim):
        for graph, dimension in ((k4_file, k4_dim), (c3_file, c3_dim)):
            code, doc = run_json(capsys, "hull", "--char", str(char), "--verify", graph)
            assert code == 0
            assert (doc["dimension"], doc["verified"]) == (dimension, True)

    def test_group_verify_compares_the_factors_not_only_the_order(
        self, capsys, b3_file, monkeypatch
    ):
        # over C4 the cycles of B3 span C2 + C4 + C4; C2^3 + C4 has the same order
        original = cli.hull_report
        misreport = ["2", "2", "2", "2^2"]
        monkeypatch.setattr(cli, "hull_report", lambda *a: {**original(*a), "factors": misreport})
        code, doc = run_json(capsys, "hull", "--group", "4", "--verify", b3_file)
        assert (code, doc["order"], doc["verified"]) == (3, "32", False)

    def test_requires_exactly_one_spec(self, capsys, k4_file):
        code = main(["hull", k4_file])
        assert code == 1

    def test_derived_flag(self, capsys, c3_file):
        code, doc = run_json(capsys, "hull", "--char", "0", c3_file)
        assert code == 0
        assert doc["derived"] is True


class TestGen:
    def test_deterministic_bytes(self, capsys):
        _, out1 = run(capsys, "gen", "--steps", "5", "--seed", "9")
        _, out2 = run(capsys, "gen", "--steps", "5", "--seed", "9")
        assert out1 == out2

    def test_count_json(self, capsys):
        code, doc = run_json(
            capsys, "gen", "--steps", "4", "--seed", "1", "--count", "3", "--output", "json"
        )
        assert code == 0
        assert len(doc["graphs"]) == 3

    def test_output_parses_and_is_3ec(self, capsys, tmp_path):
        code, doc = run_json(
            capsys, "gen", "--steps", "6", "--seed", "2", "--output", "json"
        )
        from cyclelattice.cycle_structure import is_three_edge_connected
        from cyclelattice.multigraph import parse_edge_list

        G = parse_edge_list(doc["graphs"][0])
        assert is_three_edge_connected(G)

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_max_vertices_below_one_exits_1(self, capsys, bound):
        assert main(["gen", "--steps", "5", "--max-vertices", bound]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "max_vertices must be at least 1" in captured.err

    def test_negative_count_exits_1(self, capsys):
        assert run(capsys, "gen", "--count", "0") == (0, "")
        assert main(["gen", "--count", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "count must be nonnegative" in captured.err


class TestExitCodes:
    def test_usage_error(self):
        assert main(["basis"]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/graph.txt"]) == 2

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a header\n")
        assert main(["analyze", str(path)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{dir}"],
            ["analyze", "{latin1}"],
            ["basis", "{latin1}"],
            ["verify", "{latin1}", "{doc}"],
            ["verify", "{k4}", "{dir}"],
        ],
    )
    def test_unreadable_input_exits_2(self, capsys, tmp_path, k4_file, argv):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("3 3\n\xe9 b\nb c\nc \xe9\n".encode("latin-1"))
        doc = tmp_path / "doc.json"
        doc.write_text('{"cycles": []}')
        paths = {"dir": str(tmp_path), "latin1": str(latin1), "doc": str(doc), "k4": k4_file}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_deeply_nested_document_exits_2(self, capsys, tmp_path, k4_file):
        doc = tmp_path / "deep.json"
        doc.write_text('{"cycles": ' + "[" * 200_000 + "]" * 200_000 + "}")
        assert main(["verify", k4_file, str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: basis document is nested too deeply to parse\n"

    def test_vertex_count_past_the_bound_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(multigraph, "VERTEX_BOUND", 3)
        path = tmp_path / "big.txt"
        path.write_text("4 0\n")
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: 4 vertices exceed the bound of 3\n"

    def test_exact_series_classes_past_the_byte_limit_exit_2(self, capsys, c3_file, monkeypatch):
        monkeypatch.setattr(cycle_structure, "EXACT_PASS_BYTES", 5)
        assert main(["analyze", c3_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: exact series classes of a graph with n=3, m=3 need about 6 bytes "
            "of cut signatures, past the limit of 5\n"
        )

    def test_extend_without_vertices_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        assert main(["extend", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        code, doc = run_json(capsys, "basis", "--method", "topological", str(path))
        assert code == 0 and doc["cycles"] == [] and doc["determinant"] == "1"

    def test_internal_error_exits_4(self, capsys, k4_file, monkeypatch):
        def broken(H, T_H):
            raise InternalError("cycle exchange failed to shrink the intersection")

        monkeypatch.setitem(cli._CONSTRUCTIONS, "semi-fundamental", broken)
        assert main(["basis", k4_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cycle exchange failed to shrink the intersection\n"

    def test_memory_error_exits_2(self, capsys, k4_file, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "analyze", exhausted)
        assert main(["analyze", k4_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    def test_argument_error_exits_1(self, capsys, k4_file):
        assert main(["basis", "--tree-seed", "nowhere", k4_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_tree_seed_on_a_labeled_graph_names_a_label(self, capsys, tmp_path):
        path = tmp_path / "abc.txt"
        path.write_text("3 3\na b\nb c\nc a\n")
        code, doc = run_json(capsys, "basis", "--method", "simple", "--tree-seed", "c", str(path))
        assert code == 0 and doc["certified"] is True
        # no vertex is named 2, though the internal id 2 exists
        assert main(["basis", "--method", "simple", "--tree-seed", "2", str(path)]) == 1
        assert capsys.readouterr().err == "error: unknown vertex '2'\n"

    def test_empty_tree_seed_exits_1(self, capsys, k4_file):
        assert main(["basis", "--tree-seed", "", k4_file]) == 1
        assert capsys.readouterr().err == "error: unknown vertex ''\n"

    @pytest.mark.parametrize("group", ["Z2", "Z", "Z_2", "2,x", "2^"])
    def test_group_token_not_an_integer_exits_1(self, capsys, b3_file, group):
        assert main(["hull", "--group", group, b3_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert repr(group.split(",")[-1]) in err

    @pytest.mark.parametrize("group", ["0^-1", "2^-1", "1^-5", "3,2^-2"])
    def test_group_negative_exponent_exits_1(self, capsys, b3_file, group):
        assert main(["hull", "--group", group, b3_file]) == 1
        out = capsys.readouterr()
        token = group.split(",")[-1]
        assert out.out == ""
        assert out.err == f"error: group factor {token!r} has a negative exponent\n"


class TestCollectorPause:
    """main pauses the cyclic garbage collector for the command and gives
    the caller's state back on every exit."""

    def test_paused_during_the_command(self, capsys, k4_file, monkeypatch):
        seen = []
        analyze = cli._COMMANDS["analyze"]

        def watched(args):
            seen.append(gc.isenabled())
            return analyze(args)

        monkeypatch.setitem(cli._COMMANDS, "analyze", watched)
        assert gc.isenabled()
        assert main(["analyze", k4_file]) == 0
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["analyze", "{k4}"], 0),
            (["basis"], 1),  # argparse exits
            (["basis", "--tree-seed", "nowhere", "{k4}"], 1),
            (["analyze", "{missing}"], 2),
            (["verify", "{k4}", "{short}"], 3),
            (["basis", "{k4}"], 4),
        ],
    )
    def test_caller_state_restored_on_every_exit(
        self, capsys, tmp_path, k4_file, monkeypatch, argv, code, enabled
    ):
        def broken(H, T_H):
            raise InternalError("broken construction")

        if code == 4:
            monkeypatch.setitem(cli._CONSTRUCTIONS, "semi-fundamental", broken)
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"cycles": [{"edges": [0, 1, 3]}]}))
        paths = {"k4": k4_file, "missing": str(tmp_path / "missing.txt"), "short": str(short)}
        if not enabled:
            gc.disable()
        try:
            assert main([arg.format(**paths) for arg in argv]) == code
            assert gc.isenabled() == enabled
        finally:
            gc.enable()


class TestLargeNumbers:
    """Decimal strings past the interpreter's int-to-str digit cap, and
    group factors whose primality takes long to decide."""

    @staticmethod
    def _under_640_digit_cap(capsys, argv):
        # the cap is lowered to its minimum for these calls only, so that a
        # small graph already has a determinant past it
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            return run(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(old)

    def test_determinant_past_the_digit_cap(self, capsys, tmp_path):
        G = gen(1070, 1, kind_weights=(0.01, 1.0, 100.0))
        assert G.n == 2133  # |det| = 2^2132 has 642 digits
        graph = tmp_path / "g.txt"
        graph.write_text(format_edge_list(G))
        code, out = self._under_640_digit_cap(
            capsys, ["basis", "--method", "semi-fundamental", str(graph)]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["determinant"] == str(2 ** (G.n - 1)) and doc["certified"] is True
        basis = tmp_path / "basis.json"
        basis.write_text(out)
        code, out = self._under_640_digit_cap(capsys, ["verify", str(graph), str(basis)])
        assert code == 0
        detail = next(c for c in json.loads(out)["checks"] if c["name"] == "determinant")
        assert detail["detail"] == f"|det|={2 ** (G.n - 1)} expected {2 ** (G.n - 1)}"

    def test_group_order_past_the_digit_cap(self, capsys, tmp_path):
        G = gen(30, 1)
        graph = tmp_path / "g.txt"
        graph.write_text(format_edge_list(G))
        code, out = self._under_640_digit_cap(capsys, ["hull", "--group", "2^39", str(graph)])
        assert code == 0
        order = 2 ** (39 * (G.m - G.n + 1) + 38 * (G.n - 1))
        assert len(str(order)) > 640
        assert json.loads(out)["order"] == str(order)

    @pytest.mark.parametrize("group", ["1000003", "10000019", "999999999989"])
    def test_large_prime_factor_is_quick(self, capsys, tmp_path, group):
        graph = tmp_path / "one.txt"
        graph.write_text("1 0\n")
        start = time.perf_counter()
        code, doc = run_json(capsys, "hull", "--group", group, str(graph))
        assert time.perf_counter() - start < 1.0
        assert code == 0 and doc["group"] == group

    @pytest.mark.parametrize("group", ["1000000000039", "2^41", "3^100000000000", "1000003,2^40"])
    def test_factor_past_the_bound_exits_1(self, capsys, b3_file, group):
        start = time.perf_counter()
        assert main(["hull", "--group", group, b3_file]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "bound 1000000000000" in err

    def test_characteristic_past_the_bound_exits_1(self, capsys, k4_file):
        start = time.perf_counter()
        assert main(["hull", "--char", "1000000000000000003", k4_file]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "bound 1000000000000" in err

    def test_prime_characteristic_below_the_bound(self, capsys, k4_file):
        code, doc = run_json(capsys, "hull", "--char", "999999999989", k4_file)
        assert code == 0
        assert doc["characteristic"] == 999999999989 and doc["dimension"] == 6


class TestCapacity:
    """An oracle that cannot run is a capacity error, not a failed check."""

    def test_hull_char_verify_past_the_edge_limit_exits_2(self, capsys, tmp_path):
        code, out = run(capsys, "gen", "--steps", "16", "--seed", "3")
        graph = tmp_path / "g.txt"
        graph.write_text(out.split("\n", 1)[1])
        assert parse_edge_list(graph.read_text()).m == 31
        assert main(["hull", "--char", "3", "--verify", str(graph)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "23 edges" in captured.err

    def test_hull_group_verify_on_k4_plus_a_parallel_edge(self, capsys, tmp_path):
        # |A|^m = 12^7 elements: past what a closure of the span could list
        graph = tmp_path / "k4p.txt"
        graph.write_text(K4_TEXT.replace("4 6", "4 7") + "1 2\n")
        code, doc = run_json(capsys, "hull", "--group", "2^2,3", "--verify", str(graph))
        assert code == 0 and doc["verified"] is True
        assert doc["factors"] == ["2", "2", "2", "3", "3", "3", "3", "3", "3", "3"] + ["2^2"] * 4

    def test_hull_group_verify_checks_the_cap_before_enumerating(
        self, capsys, tmp_path, monkeypatch
    ):
        graph = tmp_path / "g.txt"
        graph.write_text(format_edge_list(gen(16, 3)))
        calls = []
        monkeypatch.setattr(cli, "enumerate_cycles", lambda *a, **k: calls.append(a) or [])
        for spec in (["--group", "2"], ["--char", "3"]):
            assert main(["hull", *spec, "--verify", str(graph)]) == 2
            assert calls == []
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "23 edges" in captured.err


def _core_with_pendants(pendants: int) -> str:
    """K4 with one subdivided edge, plus pendant bridges spread over 1..4."""
    edges = ["1 2", "1 3", "1 4", "2 5", "5 3", "2 4", "3 4"]
    edges += [f"{1 + i % 4} {6 + i}" for i in range(pendants)]
    return f"{5 + pendants} {len(edges)}\n" + "\n".join(edges) + "\n"


def _calls(monkeypatch, argv, names) -> dict[str, list]:
    """The first argument of every call of each certificate, cycle_structure
    or multigraph function in `names`, under every module name it is
    imported by, while main(argv) runs.  A name "Class.method" names a
    method of a cycle_structure class; its first argument is the instance."""
    modules = [cyclelattice] + [
        importlib.import_module(f"cyclelattice.{info.name}")
        for info in pkgutil.iter_modules(cyclelattice.__path__)
    ]
    seen: dict[str, list] = {name: [] for name in names}
    with monkeypatch.context() as patch:
        for name in names:
            owner, _, method = name.rpartition(".")
            original = (
                getattr(getattr(cycle_structure, owner), method)
                if owner
                else getattr(certificate, name, None)
                or getattr(cycle_structure, name, None)
                or getattr(multigraph, name)
            )

            def counted(*args, original=original, name=name, **kwargs):
                seen[name].append(args[0])
                return original(*args, **kwargs)

            if owner:
                patch.setattr(getattr(cycle_structure, owner), method, counted)
            for module in modules:
                if getattr(module, name, None) is original:
                    patch.setattr(module, name, counted)
        assert main(argv) == 0
    return seen


@pytest.mark.parametrize(
    "command",
    [
        ["basis", "--method", "simple"],
        ["basis", "--method", "semi-fundamental"],
        ["basis", "--method", "topological"],
        ["verify"],
        ["hull", "--char", "3"],
        ["analyze"],
        ["extend", "--verify"],
    ],
)
def test_partition_count_does_not_grow_with_components(
    capsys, tmp_path, monkeypatch, command
):
    """Each command reduces its graph at most once: bridges_and_series_classes
    runs once, except that semi-fundamental and topological basis and
    extend run it not at all on a 3-edge-connected graph, whose completed
    construction proves it; connected_components never runs on the input
    graph.  The
    forest BFS runs once on the input graph, for the spanning forest.
    basis and extend certify the component bases they built, with
    certify_components, so they check no forest and project nothing.
    verify certifies with certify's core, _certify_vectors, on the one
    cosimplification it also checks the entries on, and projects each entry
    onto it once, with Cosimplification.project: a document tree with
    the load forest's edges is that forest and is not checked again,
    another spanning forest is checked once, with forest_from_edges, and
    reduced on, and a tree that is no forest is checked once and the load
    forest taken instead.  No component forest is searched again.  When
    the graph is not 3-edge-connected, basis and verify search the reduced
    graph once for the components' forests; hull and analyze count its
    components off the forest and search it not at all."""
    bfs_on_input = {"basis": 1, "verify": 1, "hull": 1, "analyze": 1, "extend": 1}
    bfs_on_reduced = {"basis": 1, "verify": 1, "hull": 0, "analyze": 0, "extend": 0}
    # per command: calls of certify, _certify_vectors and certify_components,
    # calls of Cosimplification.project beyond one per document entry, and
    # forest_from_edges calls on the input graph
    certifying = {
        "basis": (0, 0, 1, 0, 0),
        "extend": (0, 0, 1, 0, 0),
        "verify": (0, 1, 0, 0, 0),
        "hull": (0, 0, 0, 0, 0),
        "analyze": (0, 0, 0, 0, 0),
    }
    names = ["bridges_and_series_classes", "connected_components", "bfs_parents"]
    names += ["certify", "_certify_vectors", "certify_components", "Cosimplification.project"]
    names += ["forest_from_edges"]
    inputs = {"k4": K4_TEXT, "core2": _core_with_pendants(2), "core50": _core_with_pendants(50)}
    for name, text in inputs.items():
        if command[0] == "extend" and name != "k4":
            continue  # extend refuses graphs that are not 3-edge-connected
        graph = tmp_path / f"{name}.txt"
        graph.write_text(text)
        argv = [*command, str(graph)]
        if command == ["verify"]:
            assert main(["basis", str(graph)]) == 0
            doc = tmp_path / f"{name}.json"
            doc.write_text(capsys.readouterr().out)
            argv.append(str(doc))
        seen = _calls(monkeypatch, argv, names)
        capsys.readouterr()
        entries = len(json.loads(doc.read_text())["cycles"]) if command == ["verify"] else 0
        proved = name == "k4" and command[0] in ("basis", "extend") and command[-1] != "simple"
        assert len(seen["bridges_and_series_classes"]) == (0 if proved else 1), name
        G = parse_edge_list(text)

        def on_input(calls, G=G):
            return [H for H in calls if isinstance(H, Multigraph) and (H.n, H.m) == (G.n, G.m)]

        # the topological chain also rebuilds its tree of the graph it grows
        # with bfs_parents; those searches are of no forest of a Multigraph
        forest_searches = [H for H in seen["bfs_parents"] if isinstance(H, Multigraph)]
        assert on_input(seen["connected_components"]) == [], name
        assert len(on_input(seen["bfs_parents"])) == bfs_on_input[command[0]], name
        reduced = bfs_on_reduced[command[0]] if name != "k4" else 0
        assert len(forest_searches) == bfs_on_input[command[0]] + reduced, name
        counts = (
            len(seen["certify"]),
            len(seen["_certify_vectors"]),
            len(seen["certify_components"]),
            len(seen["Cosimplification.project"]) - entries,
            len(on_input(seen["forest_from_edges"])),
        )
        assert counts == certifying[command[0]], name
        cos = cosimplify(G)
        components = {(H.n, H.m) for H, _ in cos.components if H is not cos.hat_graph}
        assert [H for H in forest_searches if (H.n, H.m) in components] == [], name
        if command != ["verify"]:
            continue
        other = spanning_forest(G, prefer_root=G.vertices[-1]).tree_edges
        assert other != spanning_forest(G).tree_edges, name
        for tree in (sorted(other), sorted(G.edges)):  # another forest; no forest
            document = json.loads(doc.read_text())
            document["tree"] = tree
            retreed = tmp_path / f"{name}-retreed.json"
            retreed.write_text(json.dumps(document))
            seen = _calls(monkeypatch, ["verify", str(graph), str(retreed)], names)
            verdict = json.loads(capsys.readouterr().out)
            assert verdict["accepted"], name
            assert len(seen["bridges_and_series_classes"]) == 1, name
            assert len(on_input(seen["bfs_parents"])) == 2, (name, tree)
            assert len(on_input(seen["forest_from_edges"])) == 1, (name, tree)
            assert len(seen["_certify_vectors"]) == 1, name
            assert len(seen["Cosimplification.project"]) == entries, name


@pytest.mark.parametrize(
    "command, expected",
    [
        pytest.param(["analyze"], 0, id="analyze"),
        pytest.param(["hull", "--char", "3"], 0, id="hull-char3"),
        pytest.param(["basis", "--method", "topological"], 0, id="basis-topo"),
        pytest.param(["extend", "--verify"], 0, id="extend"),
        pytest.param(["verify"], 1, id="verify"),
        pytest.param(["basis", "--method", "simple"], 1, id="basis-simple"),
        pytest.param(["basis", "--method", "semi-fundamental"], 1, id="basis-semi"),
    ],
)
def test_matrix_built_only_by_its_column_readers(
    capsys, tmp_path, monkeypatch, command, expected
):
    """The reduction reads the spanning forest alone; a fundamental-cycle
    matrix is built only by the construction or certificate that reads its
    columns (the simple and semi-fundamental constructions, and certify's
    generic determinant), once per command: the certificate of a basis
    reads the columns its construction built."""
    for name, text in {"k4": K4_TEXT, "core50": _core_with_pendants(50)}.items():
        if command[0] == "extend" and name != "k4":
            continue  # extend refuses graphs that are not 3-edge-connected
        graph = tmp_path / f"{name}.txt"
        graph.write_text(text)
        argv = [*command, str(graph)]
        if command == ["verify"]:
            assert main(["basis", str(graph)]) == 0
            doc = tmp_path / f"{name}.json"
            doc.write_text(capsys.readouterr().out)
            argv.append(str(doc))
        seen = _calls(monkeypatch, argv, ["fundamental_cycle_matrix"])
        capsys.readouterr()
        assert len(seen["fundamental_cycle_matrix"]) == expected, name


# ---------------------------------------------------------------------------
# output goldens: sha256 of stdout and the exit code, per input and command
# ---------------------------------------------------------------------------

# named vertices, comments, tabs and implicit ids: the labelled parse, minor
# and format_edge_list paths
LABELED_TEXT = (
    "# K4 on alpha, beta, gamma, delta: alpha-gamma and beta-delta run through\n"
    "# series paths, gamma-delta is doubled, and bridges hang off beta, gamma\n"
    "# and delta\n"
    "13 16   # n m; every id implicit\n"
    "alpha beta\n"
    "alpha ag.1      # alpha .. gamma\n"
    "ag.1 ag.2\n"
    "ag.2 gamma\n"
    "alpha delta\n"
    "beta gamma\n"
    "beta bd         # beta .. delta\n"
    "bd delta\n"
    "gamma delta\n"
    "\tgamma\tdelta\t# its parallel twin\n"
    "beta leaf-x     # pendant bridges\n"
    "gamma tail.1\n"
    "tail.1 tail.2\n"
    "tail.2 tail.3\n"
    "delta leaf-y\n"
    "leaf-y leaf-z\n"
)
DISCONNECTED_TEXT = "6 6\n1 2\n2 3\n3 1\n4 5\n5 6\n6 4\n"


def test_an_edge_of_its_own_class_is_its_own_image():
    """The reduction lists only the bridges and the nontrivial classes; every
    other edge maps and lifts to itself, stays in the reduced forest when
    it is a forest edge, and is one path between its ends."""
    G = parse_edge_list(LABELED_TEXT)
    cos = cosimplify(G)
    assert cos.projection == {**dict.fromkeys(range(10, 16)), 1: 3, 2: 3, 3: 3, 6: 7, 7: 7}
    assert cos.section == {3: frozenset({1, 2, 3}), 7: frozenset({6, 7})}
    own = [0, 4, 5, 8, 9]  # alpha-beta, alpha-delta, beta-gamma, gamma-delta twice
    assert cos.lift_edges(own) == frozenset(own)
    assert cos.lift_edges([0, 3, 7]) == {0, 1, 2, 3, 6, 7}
    assert cos.project(dict.fromkeys(own, 2)) == dict.fromkeys(own, 2)
    assert cos.project({0: 1, 1: 1, 2: 1, 3: 1, 5: 1}) == {0: 1, 3: 1, 5: 1}
    assert cos.project({0: 1, 10: 1}) is None
    assert cos.forest.tree_edges & set(own) == {0, 4, 5}
    assert cos.hat_tree.tree_edges == {0, 4, 5}
    assert cos.series_paths == {
        3: ((1, 5),), 7: ((2, 6),), 0: ((1, 2),), 4: ((1, 6),), 5: ((2, 5),),
        8: ((5, 6),), 9: ((5, 6),),
    }
    # a gen core with pendant edges: every core edge is a class of its own
    core = gen(30, 11, max_vertices=12)
    e, v = max(core.edges) + 1, max(core.vertices) + 1
    pendants = {e: (core.vertices[0], v), e + 1: (core.vertices[3], v + 1)}
    G = Multigraph(core.vertices + (v, v + 1), {**core.edges, **pendants})
    cos = cosimplify(G)
    assert cos.projection == dict.fromkeys(pendants) and cos.section == {}
    assert cos.lift_edges(core.edges) == core.edges.keys()
    cycle = fundamental_cycle_matrix(core, spanning_forest(core)).cycles
    for vector in ({e: 1 for e in c} for c in cycle.values()):
        assert cos.project(vector) == vector
    assert cos.hat_tree.tree_edges == cos.forest.tree_edges - pendants.keys()
    assert cos.series_paths == {e: (core.edges[e],) for e in core.edges}
GOLDEN_INPUTS = {
    "k4": lambda: K4_TEXT,
    "c3": lambda: C3_TEXT,
    "core50": lambda: _core_with_pendants(50),
    "gen300": lambda: format_edge_list(gen(201, 7, max_vertices=100)),
    "gen3000": lambda: format_edge_list(gen(2001, 7, max_vertices=1000)),
    "disconnected": lambda: DISCONNECTED_TEXT,
    "labeled": lambda: LABELED_TEXT,
}
GOLDEN_COMMANDS = {
    "analyze": ["analyze"],
    "basis-simple": ["basis", "--method", "simple"],
    "basis-semi": ["basis", "--method", "semi-fundamental"],
    "basis-topo": ["basis", "--method", "topological"],
    "verify-semi": ["verify", "semi-fundamental"],
    "verify-topo": ["verify", "topological"],
    "extend": ["extend", "--verify"],
    "hull-char3": ["hull", "--char", "3"],
    "hull-group": ["hull", "--group", "2^2,3"],
}
# "<input>-<command>" -> (exit code, sha256 of stdout)
OUTPUT_GOLDENS = {
    "k4-analyze": (0, "6add41f2b49b9f2626a3bd4a55d366d47ecce9a2a198bc8d27c3c0c6268662bf"),
    "k4-basis-simple": (0, "1ddc7cdd1fc8280aadf59ab19f298a5c47386065b3b7c8623000ad796ce4550d"),
    "k4-basis-semi": (0, "07d2cf7aedaf63ba0dfce317ab573fa4667e78eb2af9a1959cd897519213918d"),
    "k4-basis-topo": (0, "49965d853d3d584c04ce5ef9e7688ded7ad6a07eeddafd47b809737e9b0cbc34"),
    "k4-verify-semi": (0, "336058768b740dd7167dff60d996019f2487cdd38f0f744bba9affa353dca60e"),
    "k4-verify-topo": (0, "336058768b740dd7167dff60d996019f2487cdd38f0f744bba9affa353dca60e"),
    "k4-extend": (0, "7b43feb155eb9fdc461cae1b5da9a10affc81ccc81a891a4a40294965329f1a1"),
    "k4-hull-char3": (0, "e2069b907f21444d157bc1f373f510d42c2398bc3f3cd311653eb5cd4354e38d"),
    "k4-hull-group": (0, "dbd3553b02ce5838b40bfc084d172225745e33cfd7371c8099b0e49082861bf1"),
    "c3-analyze": (0, "ee422ebb89b9f31e69d1474a890338b9fba6b517986e8803b352cc988f89a257"),
    "c3-basis-simple": (0, "ac18c5f195d2ac6979a2358ce5b78607d9c5dae93eb3f120df2564793147df1a"),
    "c3-basis-semi": (0, "ac18c5f195d2ac6979a2358ce5b78607d9c5dae93eb3f120df2564793147df1a"),
    "c3-basis-topo": (0, "f846d9717a6540cf3e06fff434a2ea9e7eb93306ceea28daeadced45dfa769b9"),
    "c3-verify-semi": (0, "02edd51ed652e680b1d275d69bc8ec0f82a034dc7fe9490449fa730dbc16bac6"),
    "c3-verify-topo": (0, "02edd51ed652e680b1d275d69bc8ec0f82a034dc7fe9490449fa730dbc16bac6"),
    "c3-hull-char3": (0, "78a81b30a2467dddb7d59c3e57811f8e3d286b9e94b223531da418ce94064f64"),
    "c3-hull-group": (0, "ffad881a5ec780862e59cd8d6027ed8b060a31f0c86f1e2e6bc0b134e5bc0165"),
    "core50-analyze": (0, "aaf5425c8e43139e2721163423b902bb7417350345de2fabc284a55235f9d65d"),
    "core50-basis-simple": (0, "3043ca523a3bb42bd84074022f1efce13061663b73e722c2838a17b5d3c9ff31"),
    "core50-basis-semi": (0, "11ddd37963366ee332cb5593c1eed7e58e00aa0a3128fe6376c5dedabc8c7d57"),
    "core50-basis-topo": (0, "051e7dd3b329ae89c2f83a4a4f7875e1eda7d5d8e093d414181a8871d3f52c7a"),
    "core50-verify-semi": (0, "f8304735f5d3aa06d248b709dc193f3f0d4d6b5b847a3e8b1963c7cb13b42f7c"),
    "core50-verify-topo": (0, "f8304735f5d3aa06d248b709dc193f3f0d4d6b5b847a3e8b1963c7cb13b42f7c"),
    "core50-hull-char3": (0, "2cd82e934a5046e23241a0325a540af972232099c4550aadadf9802163e3cc20"),
    "core50-hull-group": (0, "18ecaa995794d459b23dcc56dfcaf22240458811c76f3c2ad1ff7bcf91f7256c"),
    "gen300-analyze": (0, "db7f0aeacc9b04e3ac0da74d29a2d79b46860ae4ac35247ccdbab939bd2a0644"),
    "gen300-basis-simple": (0, "4619dd5717cd575ee29314d8673ed117d3a3fd256695969ccfebc89662ac40d8"),
    "gen300-basis-semi": (0, "d096230b428c40105aa4e8442c9094456586fff1e4dd7f5a9c2984e5c308fa55"),
    "gen300-basis-topo": (0, "3e34cc270a419c49faf48796c596769b4c0e0c116b583865f65468085a9e05b5"),
    "gen300-verify-semi": (0, "9dcf4b0eb606ab3a882656531012aa54490cc4259b97914bc7f9ba498cd94bd6"),
    "gen300-verify-topo": (0, "9dcf4b0eb606ab3a882656531012aa54490cc4259b97914bc7f9ba498cd94bd6"),
    "gen300-extend": (0, "a8122a7d465df5d299c0b522e44e77a1a5832ba99fd06f918d5dde5c8f510067"),
    "gen300-hull-char3": (0, "ec1032ffc48f94f893d25cb9f53d3dcec05a9e4349cd877eedb0b360d8841a1c"),
    "gen300-hull-group": (0, "88fbf0dedc04dc689082399069f4c0f4540e5cd45d47305bcc03a5cc2ded203a"),
    "gen3000-basis-topo": (0, "896001691c058687045ee87806cfe06d9f3f56b127d8144af086d50318d95eec"),
    "gen3000-verify-topo": (0, "b96abb6c1f8e9ad35aecbc3758cba0728bf3cd9643a3ce2eeda78417ca6862c4"),
    "gen3000-extend": (0, "ad898e1655b85ee8ecb25b25d48622eb5eebc52e77b060f2bd851ffb213192b4"),
    "disconnected-analyze": (0, "bfc74515cf2e2ffd56c71d02a144a5f2c22efb51abd105de447c2ac68b279b4b"),
    "labeled-analyze": (0, "108616fc28fb85313ef4848ac9c1d07e3b53699a38d0737355645ede44d1f485"),
    "labeled-basis-simple": (0, "eac8300d313f07c0f01807c0013cb586f2aff98360dce509d4784c953db1d9d6"),
    "labeled-basis-semi": (0, "65ab06e4354255e792360b0d96898e514bed4d7efadb87c3d0eee6d39dbc4401"),
    "labeled-basis-topo": (0, "3b3a7bf34a21cdb8d10b3f33967f9acdc8e6b9b0286ef5aee9840b6d3d692a6f"),
    "labeled-verify-semi": (0, "db9527bc0245aa7dd75bc4a1bf4feb8f2260d278ee2c92a0ff782048cd01499e"),
    "labeled-verify-topo": (0, "db9527bc0245aa7dd75bc4a1bf4feb8f2260d278ee2c92a0ff782048cd01499e"),
    "labeled-hull-char3": (0, "5cd8f5be5aef54502fa75ce16774dab71c88aa03d66fab8a42747df98f906771"),
    "labeled-hull-group": (0, "4a1e0cf0ab5d85b82ca620c9096a5d7f223c1eb2a0ecdfa105a76e101e03bf31"),
}
# "<input>-<command>" -> (exit code, stderr); stdout stays empty
ERROR_GOLDENS = {
    "disconnected-basis-semi": (2, "error: graph is disconnected: components {1,2,3}; {4,5,6}\n"),
    "disconnected-extend": (2, "error: graph is disconnected: components {1,2,3}; {4,5,6}\n"),
    "disconnected-hull-char3": (2, "error: graph is disconnected: components {1,2,3}; {4,5,6}\n"),
    "c3-extend": (2, "error: not 3-edge-connected: nontrivial series class [0, 1, 2]\n"),
    "core50-extend": (2, "error: not 3-edge-connected: bridge edge 7\n"),
    "labeled-extend": (2, "error: not 3-edge-connected: bridge edge 10\n"),
}


# "<input>-<command>" -> sha256 of the "sequences" field of a topological
# basis, or the "sequence" field of extend, as compact sorted JSON.  Recorded
# before the chain's routes moved onto its rebuilt tree, which changed only
# the cycles.
SEQUENCE_GOLDENS = {
    "k4-basis-topo": "13d30601a60d41a0f86e69d12e306ca06c4c9d8fb1d071989aa1c6870aa96a0f",
    "c3-basis-topo": "5628abd95cca780a63da857b3e18a8f2d647200aaeb8c7ccff8e3431df02b9e7",
    "core50-basis-topo": "16b410fcca0452dfdf7d674b6272f76f98287cbfc7b13236c20b24c5f19b346f",
    "gen300-basis-topo": "de82599e3e2d93ebea9911fa72b8d4e18ba7b1bc08b519948ea0f7ca5c6dbe20",
    "labeled-basis-topo": "9bfecbaa45ceb75604459916fee010430be7f9d30029684c1bcd4a435720d091",
    "k4-extend": "ac68b7ca8a7362c7c8dc5fafbadaab04bb53588edee8f5771190e2259dd3c9a2",
    "gen300-extend": "b5dfc4bef6de3f4af896db9ed6de7ecce5cc1f07793dc60f3941a145b31eb5b8",
    "gen3000-basis-topo": "2c230eb8071a924427742234caa06b08cb76c7aa00d227d692965a57a38939bc",
    "gen3000-extend": "4ca20bf785bdf2da91063ad29e1a8cb50bf273700a4382ac4df1c30d632f6db5",
}


def _golden_run(capsys, tmp_path, case: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one golden case."""
    name, command = case.split("-", 1)
    graph = tmp_path / f"{name}.txt"
    graph.write_text(GOLDEN_INPUTS[name]())
    argv = GOLDEN_COMMANDS[command]
    if argv[0] == "verify":
        assert main(["basis", "--method", argv[1], str(graph)]) == 0
        doc = tmp_path / f"{name}.json"
        doc.write_text(capsys.readouterr().out)
        argv = ["verify", str(graph), str(doc)]
    else:
        argv = [*argv, str(graph)]
    gc.collect()
    code = main(argv)
    # the command leaves no reference cycles for the paused collector
    assert gc.collect() == 0, case
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", [pytest.param(c, id=c) for c in OUTPUT_GOLDENS])
def test_output_golden(capsys, tmp_path, case):
    code, out, _ = _golden_run(capsys, tmp_path, case)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == OUTPUT_GOLDENS[case]


@pytest.mark.parametrize("case", [pytest.param(c, id=c) for c in SEQUENCE_GOLDENS])
def test_sequence_golden(capsys, tmp_path, case):
    code, out, _ = _golden_run(capsys, tmp_path, case)
    doc = json.loads(out)
    field = doc["sequences"] if "sequences" in doc else doc["sequence"]
    field = json.dumps(field, sort_keys=True, separators=(",", ":"))
    assert (code, hashlib.sha256(field.encode()).hexdigest()) == (0, SEQUENCE_GOLDENS[case])


@pytest.mark.parametrize("case", [pytest.param(c, id=c) for c in ERROR_GOLDENS])
def test_error_golden(capsys, tmp_path, case):
    code, err = ERROR_GOLDENS[case]
    assert _golden_run(capsys, tmp_path, case) == (code, "", err)


def _entry_vectors(entries) -> list[dict[int, int]]:
    """The vectors of the document entries basis writes for per_component's
    (edges, provenance) pairs, lifted to the input graph."""
    written = [cli._entry(edges, tag) for edges, tag in entries]
    return [dict.fromkeys(e["edges"], e.get("multiplier", 1)) for e in written]


@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_component_bases_certify_as_their_lifted_vectors(name):
    """certify_components of the bases basis builds gives the certificate
    that certify gives on their lifted document vectors, on the command's
    forest and along the same sequences, for each method and tree root."""
    G = parse_edge_list(GOLDEN_INPUTS[name]())
    for root in (None, G.vertices[-1]):
        T = spanning_forest(G, prefer_root=root)
        cos = cosimplify(G, forest=T)
        for method, construct in cli._CONSTRUCTIONS.items():
            entries, bases = per_component(cos, construct)
            vectors = _entry_vectors(entries)
            sequences = [b.sequence for b in bases if b.sequence]
            lifted = certify(G, vectors, tree=T.tree_edges, sequences=sequences)
            assert certify_components(cos, bases) == lifted, (method, root)
            assert lifted.certified, (method, root)


def _one_record_inputs():
    for name in sorted(GOLDEN_INPUTS):
        yield pytest.param(GOLDEN_INPUTS[name], id=name)
    for seed in range(20):
        text = format_edge_list(gen(10 + seed, 600 + seed, max_vertices=4 + seed // 2))
        yield pytest.param(lambda text=text: text, id=f"gen-{seed}")


@pytest.mark.parametrize("text", _one_record_inputs())
def test_every_method_builds_one_record_with_one_multiplier(text):
    """Every component basis of every method is a CycleBasis, and its
    vectors carry the multiplier that basis prints for each entry: 2
    exactly on the entries tagged doubled, one per tree edge of each
    component in the simple basis and none elsewhere.  A simple basis of a
    3-edge-connected graph is certified as a CycleBasis too."""
    G = parse_edge_list(text())
    cos = cosimplify(G, forest=spanning_forest(G))
    for method, construct in cli._CONSTRUCTIONS.items():
        entries, bases = per_component(cos, construct)
        assert all(type(basis) is CycleBasis for basis in bases), method
        multipliers = []
        for vector in (v for basis in bases for v in basis.vectors()):
            (value,) = set(vector.values())
            multipliers.append(value)
        written = [cli._entry(edges, tag).get("multiplier", 1) for edges, tag in entries]
        assert written == multipliers, method
        assert [tag.kind == "doubled" for _, tag in entries] == [m == 2 for m in multipliers]
        tree_edges = sum(H.n - 1 for H, _ in cos.components)
        assert multipliers.count(2) == (tree_edges if method == "simple" else 0), method
    if cos.three_edge_connected and G.n:
        assert certify_cycle_basis(G, simple_basis(G)) == (2 ** (G.n - 1), True)


def test_edgeless_components_keep_their_certificates(capsys, tmp_path):
    """core50 reduces to K4 and 50 pendant leaves without edges.  Each leaf
    is certified at once as (1, 0, 1, "generic"), after the core, by
    certify_components and certify alike, and verify lists it in its
    determinant detail (the core50-verify-semi golden holds the whole
    document)."""
    text = _core_with_pendants(50)
    G = parse_edge_list(text)
    cos = cosimplify(G)
    leaves = [(1, 0, 1, "generic")] * 50
    for method, kind in (("semi-fundamental", "generic"), ("topological", "chain")):
        entries, bases = per_component(cos, cli._CONSTRUCTIONS[method])
        vectors = _entry_vectors(entries)
        sequences = [b.sequence for b in bases if b.sequence]
        for cert in (certify_components(cos, bases), certify(G, vectors, sequences=sequences)):
            got = [(c.n, c.m, c.determinant, c.kind) for c in cert.components]
            assert got == [(4, 6, 8, kind)] + leaves, method
    graph = tmp_path / "core50.txt"
    graph.write_text(text)
    assert main(["basis", str(graph)]) == 0
    doc = tmp_path / "core50.json"
    doc.write_text(capsys.readouterr().out)
    code, verdict = run_json(capsys, "verify", str(graph), str(doc))
    assert code == 0
    detail = "; ".join(["|det|=8 expected 8"] + ["|det|=1 expected 1"] * 50)
    assert verdict["checks"][-1] == {"name": "determinant", "passed": True, "detail": detail}


@pytest.mark.parametrize("char", ["\x0c", "\x85", "\u2028"])
def test_a_comment_holding_a_splitlines_break_stays_a_comment(capsys, tmp_path, char):
    """The edge-list file breaks lines only where text-mode open() does, so
    the triangle with such a character in its header comment is C3."""
    graph = tmp_path / "c3.txt"
    graph.write_bytes(f"3 3 # triangle{char}and a note\n1 2\n2 3\n3 1\n".encode())
    code, out = run(capsys, "analyze", str(graph))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == OUTPUT_GOLDENS["c3-analyze"]


def test_parser_is_reused_after_a_usage_error(capsys, k4_file):
    """main parses with one parser built at import; a usage error leaves it
    fit for the next call in the same process."""
    assert main(["basis", "--method", "bogus", k4_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "bogus" in errors[0]
    code, out = run(capsys, "basis", k4_file)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == OUTPUT_GOLDENS["k4-basis-semi"]


def test_module_entry_point(k4_file):
    """`python -m cyclelattice.cli`, the documented entry, from the source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def entry(*argv):
        return subprocess.run(
            [sys.executable, "-m", "cyclelattice.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    done = entry("analyze", k4_file)
    assert (done.returncode, hashlib.sha256(done.stdout.encode()).hexdigest()) == (
        OUTPUT_GOLDENS["k4-analyze"]
    )
    done = entry("basis", "--method", "bogus", k4_file)
    assert (done.returncode, done.stdout) == (1, "")
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "bogus" in errors[0]


@pytest.mark.parametrize(
    "module", sorted(info.name for info in pkgutil.iter_modules(cyclelattice.__path__))
)
def test_each_module_imports_alone(module):
    """A fresh interpreter imports cyclelattice.<module> first.

    The package's __init__ imports every module in one order, so the
    package is stood in for by a bare module over the same path: each
    module then opens its own import chain, and a cycle through it fails.
    """
    src = str(Path(__file__).resolve().parents[1] / "src" / "cyclelattice")
    code = (
        "import importlib, sys, types\n"
        "package = types.ModuleType('cyclelattice')\n"
        f"package.__path__ = [{src!r}]\n"
        "sys.modules['cyclelattice'] = package\n"
        f"importlib.import_module('cyclelattice.{module}')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def _fuzz_graph(rng: random.Random) -> str:
    """An edge list on n <= 7 vertices and m <= 13 edges, drawn so that
    loops, parallel edges, bridges and several components are common."""
    n = rng.randint(1, 7)
    rows: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, 13)):
        roll = rng.random()
        if rows and roll < 0.2:
            rows.append(rng.choice(rows))  # a parallel edge
        elif roll < 0.3:
            v = rng.randint(1, n)
            rows.append((v, v))
        else:
            rows.append((rng.randint(1, n), rng.randint(1, n)))
    return f"{n} {len(rows)}\n" + "".join(f"{u} {v}\n" for u, v in rows)


def _two_edge_cut_partition(G: Multigraph) -> tuple[list[int], list[list[int]]]:
    """Bridges and series classes by brute force, by least edge: an edge is
    a bridge when deleting it adds a component, and two other edges share a
    class when deleting both does (never so for a loop)."""

    def components(deleted) -> int:
        root = {v: v for v in G.vertices}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        count = G.n
        for e, (u, v) in G.edges.items():
            a, b = find(u), find(v)
            if e not in deleted and a != b:
                root[a] = b
                count -= 1
        return count

    base = components(())
    bridges = [e for e in G.sorted_edges if components({e}) > base]
    classes: list[list[int]] = []
    for e in G.sorted_edges:
        if e not in bridges:
            home = next((c for c in classes if components({e, c[0]}) > base), None)
            if home is None:
                classes.append([e])
            else:
                home.append(e)
    return bridges, classes


def test_random_small_multigraphs_through_every_command(capsys, tmp_path):
    """300 seeded multigraphs through analyze, basis --verify by each method,
    verify of each exit-0 basis document, extend --verify and hull over a
    field and a group: every command exits 0-3 without a traceback, every
    exit-0 basis is certified, verify accepts its document, and analyze's
    bridges and series classes, and their count, are the brute-force ones."""
    rng = random.Random(7)
    graph, doc_path = tmp_path / "g.txt", tmp_path / "basis.json"
    start = time.perf_counter()
    exits = collections.Counter()

    def call(*argv):
        code = main([argv[0], str(graph), *argv[1:]])
        out, err = capsys.readouterr()
        assert 0 <= code <= 3 and "Traceback" not in err, (argv, graph.read_text(), err)
        exits[argv[0], code] += 1
        return code, out

    for _ in range(300):
        graph.write_text(_fuzz_graph(rng))
        code, out = call("analyze")
        doc = json.loads(out)
        bridges, classes = _two_edge_cut_partition(parse_edge_list(graph.read_text()))
        assert code == 0 and doc["bridges"] == bridges, graph.read_text()
        assert doc["nontrivial_series_classes"] == [c for c in classes if len(c) > 1], graph.read_text()
        assert doc["series_class_count"] == len(classes), graph.read_text()
        for method in ("simple", "semi-fundamental", "topological"):
            code, out = call("basis", "--verify", "--method", method)
            if code != 0:
                continue
            assert json.loads(out)["certified"] is True, (method, graph.read_text())
            doc_path.write_text(out)
            code, out = call("verify", str(doc_path))
            assert code == 0 and json.loads(out)["accepted"] is True, (method, graph.read_text())
        call("extend", "--verify")
        call("hull", "--char", "3")
        call("hull", "--group", "4,3")
    # the draw reaches both the exit-0 paths and the refusals
    assert exits["basis", 0] and exits["basis", 2] and exits["extend", 0], exits
    assert time.perf_counter() - start < 10
