"""The semi-fundamental and topological constructions certify
3-edge-connectivity by completing, so they are tried before the cut pass.

The premise: on a connected multigraph, `_semi_fundamental_3ec` and
`_chain_3ec` complete exactly when the graph is 3-edge-connected, by
`is_three_edge_connected` and by networkx's minimum cut.  The corpus is
seeded.  Its hard class joins two `gen` blocks by one to three edges, so
every vertex has three or more edges while one or two joining edges make a
bridge or a series pair.  The rest are random multigraphs with loops and
parallel edges, `gen` graphs with an edge subdivided or deleted, and the
degenerate graphs: no vertex, one vertex, and an isolated vertex.

The entry points that try first (`semi_fundamental_basis`,
`compatible_chain`, CLI `basis` and `extend`) must give what the cut pass
first gives: the same result, or the same exception type and message.  The
reference runs the same entry point with the degree screen that admits a
graph to the first try forced off, which is the path every graph took
before the try existed.
"""

import contextlib
import random
import sys
from pathlib import Path

import pytest

from cyclelattice import cycle_structure, lattice_basis, topo_extension
from cyclelattice.cli import main
from cyclelattice.cycle_structure import is_three_edge_connected
from cyclelattice.errors import CycleLatticeError
from cyclelattice.lattice_basis import _semi_fundamental_3ec, semi_fundamental_basis
from cyclelattice.multigraph import (
    Multigraph,
    format_edge_list,
    parse_edge_list,
    spanning_forest,
)
from cyclelattice.topo_extension import _chain_3ec, compatible_chain, gen

ROOT = Path(__file__).resolve().parents[1]
CORPUS_SEED = "cyclelattice-build-first-corpus"
HARD_GRAPHS = 1600
RANDOM_GRAPHS = 1100
GEN_VARIANTS = 400
# every CLI_STRIDE-th graph of the corpus also runs through the CLI
CLI_STRIDE = 3


def _block(rng: random.Random) -> Multigraph:
    """A 3-edge-connected gen graph of two to eight vertices."""
    while True:
        G = gen(rng.randint(2, 14), rng.randrange(2**31), max_vertices=rng.randint(2, 8))
        if G.n >= 2:
            return G


def _joined(rng: random.Random) -> Multigraph:
    """Two gen blocks joined by one to three edges, sometimes with a loop or
    a parallel edge more; the second block's ids follow the first's."""
    A, B = _block(rng), _block(rng)
    shift_v = max(A.vertices) + 1
    edges = list(A.edges.values()) + [(u + shift_v, v + shift_v) for u, v in B.edges.values()]
    vertices = A.vertices + tuple(v + shift_v for v in B.vertices)
    for _ in range(rng.randint(1, 3)):
        edges.append((rng.choice(A.vertices), rng.choice(B.vertices) + shift_v))
    for _ in range(rng.choice((0, 0, 1, 2))):
        u = rng.choice(vertices)
        edges.append((u, u) if rng.random() < 0.5 else rng.choice(edges))
    rng.shuffle(edges)
    return Multigraph(vertices, dict(enumerate(edges)))


def _random_connected(rng: random.Random) -> Multigraph:
    """A random tree on one to seven vertices plus random extra edges,
    loops and parallel edges among them."""
    k = rng.randint(1, 7)
    edges = [(rng.randint(1, i), i + 1) for i in range(1, k)]
    for _ in range(rng.randint(0, 3 * k)):
        edges.append((rng.randint(1, k), rng.randint(1, k)))
    rng.shuffle(edges)
    return Multigraph(tuple(range(1, k + 1)), dict(enumerate(edges)))


def _gen_variant(rng: random.Random) -> Multigraph:
    """A gen graph as it is, with one edge subdivided, or with one deleted."""
    G = gen(rng.randint(1, 16), rng.randrange(2**31), max_vertices=rng.randint(1, 9))
    edges = dict(G.edges)
    way = rng.choice(("as is", "subdivided", "deleted"))
    vertices = G.vertices
    if way != "as is" and edges:
        e = rng.choice(sorted(edges))
        u, v = edges.pop(e)
        if way == "subdivided":
            w = max(vertices) + 1
            vertices += (w,)
            edges[e] = (u, w)
            edges[max(G.edges) + 1] = (w, v)
    return Multigraph(vertices, edges)


def _corpus() -> list[tuple[str, Multigraph]]:
    rng = random.Random(CORPUS_SEED)
    graphs = [("hard", _joined(rng)) for _ in range(HARD_GRAPHS)]
    graphs += [("random", _random_connected(rng)) for _ in range(RANDOM_GRAPHS)]
    graphs += [("gen", _gen_variant(rng)) for _ in range(GEN_VARIANTS)]
    return graphs


CORPUS = _corpus()
K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
DEGENERATE = [
    Multigraph((), {}),
    Multigraph((1,), {}),
    Multigraph((1,), {0: (1, 1)}),
    Multigraph((1,), {0: (1, 1), 1: (1, 1), 2: (1, 1)}),
    # K4 with every edge doubled, and vertex 5 isolated
    Multigraph((1, 2, 3, 4, 5), dict(enumerate(K4_EDGES * 2))),
]


def _completes(build) -> bool:
    """Did build() return?  It may fail only with the package's own errors,
    the ones the entry points catch."""
    try:
        build()
    except CycleLatticeError:
        return False
    return True


def test_the_corpus_is_large_and_hard():
    connected = [G for _, G in CORPUS if len(spanning_forest(G).component_roots) == 1]
    assert len(connected) == len(CORPUS) >= 3000
    hard = [G for kind, G in CORPUS if kind == "hard"]
    every_vertex_three = [G for G in hard if lattice_basis._min_degree_three(G)]
    assert len(every_vertex_three) == len(hard)
    not_3ec = sum(not is_three_edge_connected(G) for G in hard)
    assert 0.4 * len(hard) < not_3ec < len(hard)


def test_constructions_complete_exactly_on_3ec_graphs():
    """Each construction completes exactly when is_three_edge_connected
    holds, on every connected graph of the corpus; the hard class and the
    other classes each hold graphs of both answers."""
    answers: dict[str, set[bool]] = {}
    for kind, G in CORPUS:
        expected = is_three_edge_connected(G)
        T = spanning_forest(G)
        semi = _completes(lambda: _semi_fundamental_3ec(G, T))
        chain = _completes(lambda: _chain_3ec(G, keep_prefixes=False))
        assert semi == chain == expected, (kind, format_edge_list(G))
        answers.setdefault(kind, set()).add(expected)
    assert all(seen == {True, False} for seen in answers.values()), answers


def test_three_edge_connected_agrees_with_networkx_minimum_cut():
    """A connected graph with two or more vertices is 3-edge-connected
    exactly when its least cut, loops left out and parallel edges adding
    up, has three or more edges (Stoer-Wagner in networkx)."""
    nx = pytest.importorskip("networkx")
    for kind, G in CORPUS:
        if G.n < 2:
            assert is_three_edge_connected(G), kind
            continue
        H = nx.Graph()
        H.add_nodes_from(G.vertices)
        for u, v in G.edges.values():
            if u != v:
                weight = H.get_edge_data(u, v, {"weight": 0})["weight"]
                H.add_edge(u, v, weight=weight + 1)
        cut, _ = nx.stoer_wagner(H)
        assert (cut >= 3) == is_three_edge_connected(G), (kind, format_edge_list(G))


@contextlib.contextmanager
def _cut_pass_first(monkeypatch):
    """No graph passes the degree screen inside, so every entry point runs
    the cut pass before it builds."""
    with monkeypatch.context() as patch:
        for module in (lattice_basis, topo_extension):
            patch.setattr(module, "_min_degree_three", lambda G: False)
        yield


def _outcome(call):
    """What a call gives: its result, or its exception's type and message."""
    try:
        return "ok", call()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _semi(G):
    basis, triples = semi_fundamental_basis(G)
    return [sorted(c) for c in basis.cycles], [t.label() for t in basis.provenance], triples


def _chain(G, keep_prefixes):
    chain = compatible_chain(G, keep_prefixes=keep_prefixes)
    basis = chain.final_basis
    return (
        [sorted(c) for c in basis.cycles],
        [t.label() for t in basis.provenance],
        sorted(basis.tree.tree_edges),
        chain.sequence.to_json(),
        [[sorted(c) for c in cycles] for cycles in chain.added],
    )


def _library_outcomes(G):
    return (
        _outcome(lambda: _semi(G)),
        _outcome(lambda: _chain(G, keep_prefixes=False)),
        _outcome(lambda: _chain(G, keep_prefixes=True)),
    )


@pytest.mark.parametrize("part", range(4))
def test_library_entry_points_match_the_cut_pass_first(monkeypatch, part):
    graphs = [G for _, G in CORPUS[part::4]] + (DEGENERATE if part == 0 else [])
    tried = [_library_outcomes(G) for G in graphs]
    with _cut_pass_first(monkeypatch):
        reference = [_library_outcomes(G) for G in graphs]
    for G, got, want in zip(graphs, tried, reference):
        assert got == want, format_edge_list(G)
    kinds = {outcome[0] for outcomes in tried for outcome in outcomes}
    assert {"ok", "PreconditionError"} <= kinds


CLI_COMMANDS = (
    ["basis", "--method", "semi-fundamental"],
    ["basis", "--method", "topological"],
    ["extend"],
)


def _cli_outcomes(capsys, path):
    out = []
    for command in CLI_COMMANDS:
        code = main([*command, str(path)])
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_cli_commands_match_the_cut_pass_first(capsys, tmp_path, monkeypatch):
    """basis with both proving methods and extend write the same stdout and
    stderr and exit with the same code, on every CLI_STRIDE-th graph of the
    corpus and on the degenerate ones."""
    graphs = [G for _, G in CORPUS[::CLI_STRIDE]] + DEGENERATE
    codes = set()
    for i, G in enumerate(graphs):
        path = tmp_path / f"g{i}.txt"
        path.write_text(format_edge_list(G))
        tried = _cli_outcomes(capsys, path)
        with _cut_pass_first(monkeypatch):
            reference = _cli_outcomes(capsys, path)
        assert tried == reference, format_edge_list(G)
        codes.update(code for code, _, _ in tried)
    assert {0, 2} <= codes


def _series_passes(monkeypatch, call):
    """(bridges_and_series_classes calls under every name it is imported
    by, while call() runs; _outcome(call))."""
    calls = []
    original = cycle_structure.bridges_and_series_classes

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        for module in (cycle_structure, lattice_basis, topo_extension):
            if getattr(module, "bridges_and_series_classes", None) is original:
                patch.setattr(module, "bridges_and_series_classes", counted)
        outcome = _outcome(call)
    return len(calls), outcome


def _r0_text() -> str:
    """The first timed instance of the benchmark's reduce_non3ec workload."""
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import inputs
    finally:
        sys.path.remove(str(ROOT))
    seed = inputs._sub_seeds("reduce_non3ec", inputs.DEFAULT_SEED, inputs.REDUCE_INSTANCES)[0]
    return inputs.non3ec_instance(
        "r0", inputs.REDUCE_CORE_N, inputs.REDUCE_M, inputs.REDUCE_PENDANTS, seed
    ).text


@pytest.mark.parametrize(
    "name, expected",
    [pytest.param("gen", 0, id="gen-m3000"), pytest.param("r0", 1, id="reduce_non3ec-r0")],
)
def test_series_pass_count(capsys, tmp_path, monkeypatch, name, expected):
    """On gen(2001, 7, max_vertices=1000) no entry point that tries first
    runs the cut pass.  On reduce_non3ec's r0, which has vertices of one
    and two edges, each runs it once, as every one did before the try."""
    text = format_edge_list(gen(2001, 7, max_vertices=1000)) if name == "gen" else _r0_text()
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    calls = {
        "semi_fundamental_basis": lambda: semi_fundamental_basis(parse_edge_list(text)),
        "compatible_chain": lambda: compatible_chain(parse_edge_list(text), keep_prefixes=False),
    }
    for command in CLI_COMMANDS:
        calls[command[-1]] = lambda command=command: main([*command, str(path)])
    results = {label: _series_passes(monkeypatch, call) for label, call in calls.items()}
    capsys.readouterr()
    counts = {label: count for label, (count, _) in results.items()}
    assert counts == dict.fromkeys(calls, expected)
    outcomes = {label: outcome for label, (_, outcome) in results.items()}
    # r0 is not 3-edge-connected: the chain refuses it, and extend exits 2
    refused = name == "r0"
    assert outcomes["compatible_chain"][0] == ("PreconditionError" if refused else "ok")
    assert outcomes["extend"] == ("ok", 2 if refused else 0)
    assert outcomes["semi-fundamental"] == outcomes["topological"] == ("ok", 0)
