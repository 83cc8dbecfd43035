"""The library entry points that build or certify a basis run with the
cyclic garbage collector paused, give the caller's setting back on every
exit, and leave no reference cycles behind; and the pause has one home.
"""

import ast
import gc
from pathlib import Path

import pytest

from cyclelattice.certificate import certify, certify_cycle_basis
from cyclelattice.errors import CycleLatticeError
from cyclelattice.lattice_basis import semi_fundamental_basis, simple_basis
from cyclelattice.multigraph import format_edge_list, parse_edge_list, spanning_forest
from cyclelattice.topo_extension import compatible_chain, extension_sequence, gen

SRC = Path(__file__).resolve().parents[1] / "src" / "cyclelattice"

ENTRY_POINTS = [
    "parse_edge_list",
    "semi_fundamental_basis",
    "simple_basis",
    "extension_sequence",
    "compatible_chain",
    "certify",
    "certify_cycle_basis",
]

K4_TEXT = "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
# a triangle with a pendant edge: connected, not 3-edge-connected
TRI_PENDANT_TEXT = "4 4\n1 2\n2 3\n3 1\n3 4\n"


def _calls(text: str) -> dict:
    """name -> a call of that entry point on the graph of text, with every
    argument built in advance, so that the call does nothing else."""
    G = parse_edge_list(text)
    T = spanning_forest(G)
    semi = semi_fundamental_basis(G, T)[0]
    vectors = semi.vectors()
    return {
        "parse_edge_list": lambda: parse_edge_list(text),
        "semi_fundamental_basis": lambda: semi_fundamental_basis(G, T),
        "simple_basis": lambda: simple_basis(G, T),
        "extension_sequence": lambda: extension_sequence(G),
        "compatible_chain": lambda: compatible_chain(G, keep_prefixes=False),
        "certify": lambda: certify(G, vectors, tree=T.tree_edges),
        "certify_cycle_basis": lambda: certify_cycle_basis(G, semi),
    }


@pytest.fixture(scope="module")
def large_calls():
    return _calls(format_edge_list(gen(2001, 7, max_vertices=1000)))


@pytest.fixture(scope="module")
def k4_calls():
    return _calls(K4_TEXT)


@pytest.fixture
def collector(request):
    """Switch the caller's collector on or off, as the test's parameter
    asks, and back on afterwards."""
    if not request.param:
        gc.disable()
    yield request.param
    gc.enable()


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_no_collection_during_a_call(large_calls, name):
    """At m=3000 the constructions ran 15 (semi-fundamental) and 41
    (topological) collections per call while the collector was on."""
    call = large_calls[name]
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    assert started == [] and gc.isenabled()


@pytest.mark.parametrize("collector", [True, False], ids=["on", "off"], indirect=True)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_caller_state_restored_after_a_return(k4_calls, collector, name):
    k4_calls[name]()
    assert gc.isenabled() == collector


TWO_TRIANGLES = parse_edge_list("6 6\n1 2\n2 3\n3 1\n4 5\n5 6\n6 4\n")
RAISING = {
    "semi_fundamental_basis": lambda: semi_fundamental_basis(TWO_TRIANGLES),
    "parse_edge_list": lambda: parse_edge_list("x y\n1 2\n"),
    "compatible_chain": lambda: compatible_chain(parse_edge_list(TRI_PENDANT_TEXT)),
}


@pytest.mark.parametrize("collector", [True, False], ids=["on", "off"], indirect=True)
@pytest.mark.parametrize("name", sorted(RAISING))
def test_caller_state_restored_after_a_raise(collector, name):
    with pytest.raises(CycleLatticeError):
        RAISING[name]()
    assert gc.isenabled() == collector


CORPUS = {
    "k4": K4_TEXT,
    "gen-0": format_edge_list(gen(61, 0, max_vertices=30)),
    "gen-1": format_edge_list(gen(61, 1, max_vertices=30)),
    "gen-2": format_edge_list(gen(61, 2, max_vertices=30)),
}


@pytest.mark.parametrize("graph", sorted(CORPUS))
def test_calls_leave_no_reference_cycles(graph):
    """The pause is safe only because the calls make no cyclic garbage."""
    calls = _calls(CORPUS[graph])
    for name in ENTRY_POINTS:
        gc.collect()
        calls[name]()
        assert gc.collect() == 0, name


def _pausing_calls(source: str) -> list[str]:
    """The gc.disable and gc.enable calls of a module, by name and line:
    as gc attributes, or as names imported from gc."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "gc"
        for alias in node.names
        if alias.name in ("disable", "enable")
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("disable", "enable"):
            if isinstance(func.value, ast.Name) and func.value.id == "gc":
                found.append(f"gc.{func.attr}:{node.lineno}")
        elif isinstance(func, ast.Name) and func.id in imported:
            found.append(f"{func.id}:{node.lineno}")
    return found


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "multigraph.py"),
    ids=lambda p: p.stem,
)
def test_collector_paused_is_the_one_home_of_the_pause(path):
    assert _pausing_calls(path.read_text(encoding="utf-8")) == []


def test_a_second_pause_is_caught():
    source = (
        "import gc\n"
        "from gc import enable as resume\n"
        "def f():\n"
        "    gc.disable()\n"
        "    resume()\n"
        "    gc.isenabled()\n"
    )
    assert _pausing_calls(source) == ["gc.disable:4", "resume:5"]
    assert len(_pausing_calls((SRC / "multigraph.py").read_text(encoding="utf-8"))) == 2
