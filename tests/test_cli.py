import hashlib
import importlib
import json
import pkgutil
import sys
import time

import pytest

import cyclelattice
from cyclelattice import certificate, cli, cycle_structure, multigraph
from cyclelattice.cli import main
from cyclelattice.cycle_structure import fundamental_cycle_matrix
from cyclelattice.errors import InternalError
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

    def test_argument_error_exits_1(self, capsys, k4_file):
        assert main(["basis", "--tree-seed", "nowhere", k4_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

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
        assert "14 edges" in captured.err

    def test_hull_group_verify_past_the_span_cap_exits_2(self, capsys, tmp_path):
        graph = tmp_path / "k4p.txt"
        graph.write_text(K4_TEXT.replace("4 6", "4 7") + "1 2\n")
        assert main(["hull", "--group", "2^2,3", "--verify", str(graph)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "10000000" in captured.err

    def test_hull_group_verify_checks_the_cap_before_enumerating(
        self, capsys, tmp_path, monkeypatch
    ):
        graph = tmp_path / "g.txt"
        graph.write_text(format_edge_list(gen(16, 3)))
        calls = []
        monkeypatch.setattr(cli, "enumerate_cycles", lambda *a, **k: calls.append(a) or [])
        assert main(["hull", "--group", "2", "--verify", str(graph)]) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "10000000" in captured.err


def _core_with_pendants(pendants: int) -> str:
    """K4 with one subdivided edge, plus pendant bridges spread over 1..4."""
    edges = ["1 2", "1 3", "1 4", "2 5", "5 3", "2 4", "3 4"]
    edges += [f"{1 + i % 4} {6 + i}" for i in range(pendants)]
    return f"{5 + pendants} {len(edges)}\n" + "\n".join(edges) + "\n"


def _calls(monkeypatch, argv, names) -> dict[str, list]:
    """The first argument of every call of each cycle_structure function in
    `names`, under every module name it is imported by, while main(argv) runs."""
    modules = [cyclelattice] + [
        importlib.import_module(f"cyclelattice.{info.name}")
        for info in pkgutil.iter_modules(cyclelattice.__path__)
    ]
    seen: dict[str, list] = {name: [] for name in names}
    with monkeypatch.context() as patch:
        for name in names:
            original = getattr(cycle_structure, name)

            def counted(*args, original=original, name=name, **kwargs):
                seen[name].append(args[0])
                return original(*args, **kwargs)

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
    """Each command reduces its graph once: bridges_and_series_classes runs
    once (analyze runs it again on a reduced graph that is not the input),
    and connected_components never runs on the input graph."""
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
        seen = _calls(monkeypatch, argv, ["bridges_and_series_classes", "connected_components"])
        capsys.readouterr()
        expected = 2 if command == ["analyze"] and name != "k4" else 1
        assert len(seen["bridges_and_series_classes"]) == expected, name
        G = parse_edge_list(text)
        on_input = [H for H in seen["connected_components"] if (H.n, H.m) == (G.n, G.m)]
        assert on_input == [], name


# ---------------------------------------------------------------------------
# output goldens: sha256 of stdout and the exit code, per input and command
# ---------------------------------------------------------------------------

DISCONNECTED_TEXT = "6 6\n1 2\n2 3\n3 1\n4 5\n5 6\n6 4\n"
GOLDEN_INPUTS = {
    "k4": lambda: K4_TEXT,
    "c3": lambda: C3_TEXT,
    "core50": lambda: _core_with_pendants(50),
    "gen300": lambda: format_edge_list(gen(201, 7, max_vertices=100)),
    "disconnected": lambda: DISCONNECTED_TEXT,
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
    "k4-analyze": (0, "da72fdb4197d704d730477bd33b876805b8c981cbdb397596dd0190448041ffb"),
    "k4-basis-simple": (0, "61c3d12f8548eacc273fba2f288240f48eb87f94b5ebfe7ab054ce72de1ecdee"),
    "k4-basis-semi": (0, "259e2b64e9f528d974f14ab59406ae848d3dd63cf2178e89d013a6d72893f92d"),
    "k4-basis-topo": (0, "73e8e51870e81cf2a7bc6302fe44a403a820916f3d7f8bbb383676b5a2f6d0a4"),
    "k4-verify-semi": (0, "a6389e2e58a6d1c005922f0ea1545a27c204763476d337d5771c53859c4e09fd"),
    "k4-verify-topo": (0, "a6389e2e58a6d1c005922f0ea1545a27c204763476d337d5771c53859c4e09fd"),
    "k4-extend": (0, "23becea0daebf727d2205e2fd9adf43907508226bfbd4ac6feab7d7fadd10f49"),
    "k4-hull-char3": (0, "0d1ef33432fd692e52e0c3ac17968b97b0db46bc9e748b632b0ec8e4f080cc4f"),
    "k4-hull-group": (0, "43ada66c6f96c5609d38b9dcb3263a718cd1cfd7f8d617bb78161efff98b603b"),
    "c3-analyze": (0, "be9d2ff9fd0844c2f39abb8b9648bc190f006869d0c12cf94e71c1b53ea7a86e"),
    "c3-basis-simple": (0, "5181bf31ff866e5cd95cedacd63ae6bb16112b71e21a2233da30ea05dc829384"),
    "c3-basis-semi": (0, "5181bf31ff866e5cd95cedacd63ae6bb16112b71e21a2233da30ea05dc829384"),
    "c3-basis-topo": (0, "5181bf31ff866e5cd95cedacd63ae6bb16112b71e21a2233da30ea05dc829384"),
    "c3-verify-semi": (0, "674c219e4fb194be0a691d0a6cb9797bb9d6c8f0c475c7cf3f4d5dcbd804118b"),
    "c3-verify-topo": (0, "674c219e4fb194be0a691d0a6cb9797bb9d6c8f0c475c7cf3f4d5dcbd804118b"),
    "c3-hull-char3": (0, "ff9a0adf2c0babfabd44d328ff837992aef8f4f3d74ad82e1e1512e6e1745c54"),
    "c3-hull-group": (0, "8fc128a86871250e02690ffd6b8fb3b821a96b6331c426d9db58993692ff794e"),
    "core50-analyze": (0, "3da38ea60c7bfad98aada84aa7be48d4837474336e8fd3f0435a881cafbf3a36"),
    "core50-basis-simple": (0, "812a8b4b82d9086a5e1956dbbf76699ad6e82c76bcc858d6ed95db663dc170c8"),
    "core50-basis-semi": (0, "2b94174f5307ca4c73dab329d576014696eb1638e581cea694fc1c544c8b4553"),
    "core50-basis-topo": (0, "07d97c070003449dfa88a77d5e32c07adc99bc887794aaaaf79ff80e1048a387"),
    "core50-verify-semi": (0, "95b3b005b6cf9f7835ee3103315789d21b347dad91ffc0e4348b17ba16a83deb"),
    "core50-verify-topo": (0, "95b3b005b6cf9f7835ee3103315789d21b347dad91ffc0e4348b17ba16a83deb"),
    "core50-hull-char3": (0, "9be7bb880a77aa24589313066613e70d2a2b3f015245dc09645039fa606c0e7f"),
    "core50-hull-group": (0, "24656502cf161c1bb42538670741b27459128fe06e5c6b5a7fbe307d2ca7bafc"),
    "gen300-analyze": (0, "9f79d7f3b2da896345095f5b1e7410e94fd04261391bfb883d4902782a22b400"),
    "gen300-basis-simple": (0, "69d2b0c321000dc7587a61e26c14cf5f492eb53fd1fa9fcd9dfb30b8fe452461"),
    "gen300-basis-semi": (0, "df848671bb5ea7df405d3e51472e3f46a1e26ed12a5e425a4ca83608dc40faca"),
    "gen300-basis-topo": (0, "48167d0ed086fb7a874df823d9d09c1c05d3c37ec55f7d3dfc1c405c81d0ccc5"),
    "gen300-verify-semi": (0, "3a95485db3404bb9ec63c19ce64dc5dd8f0a8892a442eb29606b81ace3e823f7"),
    "gen300-verify-topo": (0, "3a95485db3404bb9ec63c19ce64dc5dd8f0a8892a442eb29606b81ace3e823f7"),
    "gen300-extend": (0, "5dbb0053f68575653b83dd06493fe8f9c6e63f71c06307c43f046eac508df1df"),
    "gen300-hull-char3": (0, "b379c2f087924336c871594470cf6328af72e5050a7e19018b8b2eab3d0aabd8"),
    "gen300-hull-group": (0, "b4e2fb2cd5481d1befe8bbedd2ade39ad903326f2375818474ea0b93c9e82dac"),
    "disconnected-analyze": (0, "31d1803c8a7f2921ef5c96870df8b3eaa75461308eebd74066be7768ab58cb07"),
}
# "<input>-<command>" -> (exit code, stderr); stdout stays empty
ERROR_GOLDENS = {
    "disconnected-basis-semi": (2, "error: graph is disconnected: components {1,2,3}; {4,5,6}\n"),
    "disconnected-extend": (2, "error: graph is disconnected: components {1,2,3}; {4,5,6}\n"),
    "disconnected-hull-char3": (2, "error: graph is disconnected: components {1,2,3}; {4,5,6}\n"),
    "c3-extend": (2, "error: not 3-edge-connected: nontrivial series class [0, 1, 2]\n"),
    "core50-extend": (2, "error: not 3-edge-connected: bridge edge 7\n"),
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
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", [pytest.param(c, id=c) for c in OUTPUT_GOLDENS])
def test_output_golden(capsys, tmp_path, case):
    code, out, _ = _golden_run(capsys, tmp_path, case)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == OUTPUT_GOLDENS[case]


@pytest.mark.parametrize("case", [pytest.param(c, id=c) for c in ERROR_GOLDENS])
def test_error_golden(capsys, tmp_path, case):
    code, err = ERROR_GOLDENS[case]
    assert _golden_run(capsys, tmp_path, case) == (code, "", err)
