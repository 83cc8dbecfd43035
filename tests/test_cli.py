import importlib
import json
import pkgutil
import sys
import time

import pytest

import cyclelattice
from cyclelattice import certificate, cycle_structure
from cyclelattice.cli import main
from cyclelattice.cycle_structure import fundamental_cycle_matrix
from cyclelattice.lattice_basis import indicator_matrix
from cyclelattice.multigraph import forest_from_edges, format_edge_list, parse_edge_list
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
        fundamental = {fcm.cycle_edges(e) for e in fcm.columns}
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
            "detail": "residual block of 3x3 after peeling exceeds the cap of 2",
        }

    def test_non_cycle_entry_rejected(self, capsys, k4_file, tmp_path):
        candidate = {"cycles": [{"edges": [0, 1], "provenance": "x"}]}
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(candidate))
        code, verdict = run_json(capsys, "verify", k4_file, str(path))
        assert code == 3
        assert verdict["checks"][0]["name"] == "entries-are-cycles"
        assert verdict["checks"][0]["passed"] is False


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

    def test_extend_without_vertices_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        assert main(["extend", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        code, doc = run_json(capsys, "basis", "--method", "topological", str(path))
        assert code == 0 and doc["cycles"] == [] and doc["determinant"] == "1"

    @pytest.mark.parametrize("group", ["Z2", "Z", "Z_2", "2,x", "2^"])
    def test_group_token_not_an_integer_exits_1(self, capsys, b3_file, group):
        assert main(["hull", "--group", group, b3_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert repr(group.split(",")[-1]) in err


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
        assert "14 edges" in captured.err

    def test_hull_group_verify_past_the_span_cap_exits_2(self, capsys, tmp_path):
        graph = tmp_path / "k4p.txt"
        graph.write_text(K4_TEXT.replace("4 6", "4 7") + "1 2\n")
        assert main(["hull", "--group", "2^2,3", "--verify", str(graph)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "10000000" in captured.err


def _core_with_pendants(pendants: int) -> str:
    """K4 with one subdivided edge, plus pendant bridges spread over 1..4."""
    edges = ["1 2", "1 3", "1 4", "2 5", "5 3", "2 4", "3 4"]
    edges += [f"{1 + i % 4} {6 + i}" for i in range(pendants)]
    return f"{5 + pendants} {len(edges)}\n" + "\n".join(edges) + "\n"


def _count_partitions(monkeypatch, argv) -> int:
    """Calls of bridges_and_series_classes, under every name it is imported by."""
    original = cycle_structure.bridges_and_series_classes
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    modules = [cyclelattice] + [
        importlib.import_module(f"cyclelattice.{info.name}")
        for info in pkgutil.iter_modules(cyclelattice.__path__)
    ]
    with monkeypatch.context() as patch:
        for module in modules:
            if getattr(module, "bridges_and_series_classes", None) is original:
                patch.setattr(module, "bridges_and_series_classes", counted)
        assert main(argv) == 0
    return len(calls)


@pytest.mark.parametrize(
    "command",
    [
        ["basis", "--method", "simple"],
        ["basis", "--method", "semi-fundamental"],
        ["basis", "--method", "topological"],
        ["verify"],
        ["hull", "--char", "3"],
        ["analyze"],
    ],
)
def test_partition_count_does_not_grow_with_components(
    capsys, tmp_path, monkeypatch, command
):
    counts = []
    for pendants in (2, 50):
        graph = tmp_path / f"core{pendants}.txt"
        graph.write_text(_core_with_pendants(pendants))
        argv = [*command, str(graph)]
        if command == ["verify"]:
            assert main(["basis", str(graph)]) == 0
            doc = tmp_path / f"core{pendants}.json"
            doc.write_text(capsys.readouterr().out)
            argv.append(str(doc))
        counts.append(_count_partitions(monkeypatch, argv))
        capsys.readouterr()
    assert counts[0] == counts[1] <= 3, counts
