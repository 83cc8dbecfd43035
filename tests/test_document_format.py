"""JSON document format 2: one compact line with "format": 2, delta-encoded
`extend` prefixes, and topological documents that carry their sequences."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclelattice import certificate
from cyclelattice.cli import main
from cyclelattice.errors import ArgumentError
from cyclelattice.multigraph import format_edge_list, parse_edge_list
from cyclelattice.topo_extension import (
    ExtensionSequence,
    ExtensionStep,
    compatible_chain,
    embed_cycle,
    gen,
)

K4_TEXT = "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
# K4 with one subdivided edge and three pendant bridges: one component
# after cosimplification, whose edge and vertex ids are not G's 0..m-1
CORE_TEXT = "8 10\n1 2\n1 3\n1 4\n2 5\n5 3\n2 4\n3 4\n1 6\n2 7\n3 8\n"
# two K4s joined by a bridge: two components, so two sequences
TWIN_TEXT = (
    "8 13\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
    "5 6\n5 7\n5 8\n6 7\n6 8\n7 8\n4 5\n"
)
GEN_TEXT = format_edge_list(gen(12, 3, max_vertices=7))


def _call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# the output contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command",
    [
        ["analyze"],
        ["basis", "--method", "simple"],
        ["basis", "--method", "semi-fundamental"],
        ["basis", "--method", "topological"],
        ["verify"],
        ["extend", "--verify"],
        ["hull", "--char", "3"],
        ["gen", "--steps", "6", "--count", "2", "--output", "json"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:3]),
)
def test_json_output_is_one_line_of_format_2(tmp_path, command):
    graph = _write(tmp_path, "k4.txt", K4_TEXT)
    if command[0] == "gen":
        argv = command
    elif command[0] == "verify":
        code, out = _call(["basis", "--method", "topological", graph])
        argv = ["verify", graph, _write(tmp_path, "doc.json", out)]
    else:
        argv = [*command, graph]
    code, out = _call(argv)
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    assert isinstance(doc, dict) and doc["format"] == 2
    assert out == json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def test_text_output_has_no_format_key(tmp_path):
    graph = _write(tmp_path, "k4.txt", K4_TEXT)
    code, out = _call(["analyze", "--output", "text", graph])
    assert code == 0 and "format" not in out and "three_edge_connected: True" in out


def test_extend_at_m3000_stays_within_three_topological_documents(tmp_path):
    graph = _write(tmp_path, "g.txt", format_edge_list(gen(2001, 7, max_vertices=1000)))
    code, basis = _call(["basis", "--method", "topological", graph])
    assert code == 0
    code, extend = _call(["extend", "--verify", graph])
    assert code == 0
    doc = json.loads(extend)
    assert doc["chain"]["certified"] is True and doc["chain"]["prefixes_certified"] is True
    assert len(extend) <= 3 * len(basis)


# ---------------------------------------------------------------------------
# delta-encoded extend: the prefixes replay exactly
# ---------------------------------------------------------------------------

# sha256 of json.dumps([[sorted(c) for c in basis.cycles] for basis in
# compatible_chain(G, keep_prefixes=True).bases], separators=(",", ":")),
# recorded while `extend` still wrote every prefix in full (format 1)
FULL_PREFIX_DIGESTS = {
    "k4": "5e242865a8a7f8f846a41f0c04b5d29d4bd449c7b2d60d69596a266841db3a0a",
    "gen300": "7929cb9029944adb64ba8764cf813927687068b31d045ce7cabd0d80bd75ed53",
    "gen0": "2672f6968da4f7a7bcfe114de015a07278688deab794593d44edaf290b33f8e4",
    "gen1": "1e60293cbbec282c4c5ba6a93e1eff90bc89679f7e123d61ae411d6f06075059",
    "gen2": "0c967f0a812a3c2c8910b2cf033b83b51dfbdad3128754945197255f58304a4f",
    "gen3": "5e3914439fe104d2d569d87b7165792457198c73f09d131cbc7708dc8efd0e80",
    "gen4": "69d129c5ef015e9faec1e0e071c7a822d680f1a4a81a1197dfa0e7e980afc257",
    "gen5": "897b8a97159614c2a83f3a85029ebe7a03dbe779d5124aec79ff9b8b21bb5bfe",
    "gen6": "c9be02e8921832aad7d7de7448d875e45b6d32b1124a33bdaf650984391e874f",
    "gen7": "e74c7709857ab152cd65faf2265d79c25741b8003a98f7afdb36b25575933ac4",
    "gen8": "df397b89421c04cf9e38399c70f36cb9d66a607c4ea005efff909163eec3dce3",
    "gen9": "9b18c2c93a0dcf7c7259d64c524a58fed9be18eb7c47c47b056ddad88924ea98",
    "gen10": "128d5020328aea00749c98a1c97d146d03ad6de75ff7b0176474422c6bc9208d",
    "gen11": "83a1564f14a391c8ac2766d26fb3b126955f46d45667ea6af1575039ac0ab3e4",
    "gen12": "392f46a9af87fc60c8c39308bba6557cfa00cb2e5748d7c729615bd2aaa05612",
    "gen13": "bc851b775b71e863b5aa98275ab5bc572945c826efa48f8fa6238cf624f254da",
    "gen14": "1cdf98042389a7a5c25b25efbb872dd27ec511ead599d131193ae463afea8ea2",
    "gen15": "9c377f294a19accbb80586c1dcc3fc8b3e21bda1ec156d6c9a3a7b14cd0999e3",
    "gen16": "650070d19d5a4f280d6c608f501c03c871c194005da8d50a5d372327eb408837",
    "gen17": "a01325d2043dae2f609f04041ad2b79e606b1518c11eb3dc96a5c2325e634c85",
    "gen18": "deb8cc693fbe5ed11494ca9909014b1aa5f1b87315aa7287a5dd63564f115315",
    "gen19": "7a363fbf9b243c2bd6f297096f73395d051eeb539e85c6eaa13685cd9fb0f7b7",
}


def _prefix_graph_text(name: str) -> str:
    if name == "k4":
        return K4_TEXT
    if name == "gen300":
        return format_edge_list(gen(201, 7, max_vertices=100))
    s = int(name[3:])
    return format_edge_list(gen(steps=6 + s, seed=700 + s, max_vertices=4 + s % 7))


def _digest(prefixes) -> str:
    return hashlib.sha256(json.dumps(prefixes, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("name", list(FULL_PREFIX_DIGESTS))
def test_delta_prefixes_replay_to_the_full_prefixes(tmp_path, name):
    text = _prefix_graph_text(name)
    code, out = _call(["extend", _write(tmp_path, "g.txt", text)])
    assert code == 0
    doc = json.loads(out)
    steps = [ExtensionStep.from_json(s) for s in doc["sequence"]["steps"]]
    deltas = doc["chain"]["bases"]
    assert len(deltas) == len(steps) + 1 and deltas[0] == []
    # prefix k is prefix k-1 embedded through step k's splits, plus its cycles
    prefixes, cycles = [[]], []
    for step, added in zip(steps, deltas[1:]):
        cycles = [embed_cycle(step, c) for c in cycles] + [frozenset(c) for c in added]
        prefixes.append([sorted(c) for c in cycles])
    assert _digest(prefixes) == FULL_PREFIX_DIGESTS[name]

    chain = compatible_chain(parse_edge_list(text), keep_prefixes=True)
    assert _digest([[sorted(c) for c in b.cycles] for b in chain.bases]) == (
        FULL_PREFIX_DIGESTS[name]
    )
    assert [[sorted(c) for c in cycles] for cycles in chain.added] == deltas


# ---------------------------------------------------------------------------
# topological documents carry their sequences; verify takes them as hints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, components", [(K4_TEXT, 1), (CORE_TEXT, 1), (TWIN_TEXT, 2), (GEN_TEXT, 1)]
)
def test_topological_document_certifies_along_its_sequences(
    tmp_path, monkeypatch, text, components
):
    graph = _write(tmp_path, "g.txt", text)
    code, out = _call(["basis", "--method", "topological", graph])
    doc = json.loads(out)
    assert code == 0 and len(doc["sequences"]) == components
    sequences = [ExtensionSequence.from_json(s) for s in doc["sequences"]]
    assert [s.to_json() for s in sequences] == doc["sequences"]

    calls = []  # the components with edges that took the generic path
    generic = certificate._generic_determinant

    def counted(H, T_H, vectors):
        if H.m:
            calls.append(H)
        return generic(H, T_H, vectors)

    monkeypatch.setattr(certificate, "_generic_determinant", counted)
    code, verdict = _call(["verify", graph, _write(tmp_path, "doc.json", out)])
    assert code == 0 and json.loads(verdict)["accepted"] is True
    assert calls == []
    del doc["sequences"]
    code, bare = _call(["verify", graph, _write(tmp_path, "bare.json", json.dumps(doc))])
    assert (code, bare) == (0, verdict)
    assert len(calls) == components


@pytest.mark.parametrize("method", ["simple", "semi-fundamental", "topological"])
@pytest.mark.parametrize("text", [K4_TEXT, CORE_TEXT, GEN_TEXT])
def test_format_1_documents_still_verify(tmp_path, method, text):
    graph = _write(tmp_path, "g.txt", text)
    code, out = _call(["basis", "--method", method, graph])
    assert code == 0
    doc = json.loads(out)
    code, verdict = _call(["verify", graph, _write(tmp_path, "doc.json", out)])
    assert code == 0 and json.loads(verdict)["accepted"] is True
    del doc["format"]
    doc.pop("sequences", None)
    old = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert old.count("\n") > 1
    assert _call(["verify", graph, _write(tmp_path, "old.json", old)]) == (0, verdict)


def test_sequence_from_json_round_trip_and_rejections():
    seq = compatible_chain(parse_edge_list(K4_TEXT)).sequence
    doc = seq.to_json()
    again = ExtensionSequence.from_json(doc)
    assert again.to_json() == doc
    assert again.steps == seq.steps and again.edge_map == seq.edge_map
    assert again.vertex_map == seq.vertex_map

    def broken(edit):
        value = copy.deepcopy(doc)
        edit(value)
        return value

    bad = [
        [],
        broken(lambda d: d.pop("steps")),
        broken(lambda d: d.update(base_vertex=True)),
        broken(lambda d: d.update(base_vertex="0")),
        broken(lambda d: d["steps"][0].update(edge=False)),
        broken(lambda d: d["steps"][0].update(edge=1.0)),
        broken(lambda d: d["steps"][0].update(kind="D")),
        broken(lambda d: d["steps"][0].update(kind=["A"])),
        broken(lambda d: d["steps"][0].update(endpoints=[0])),
        broken(lambda d: d["steps"][1].update(split_f={"old": 0, "new": [7, 8]})),
        broken(lambda d: d["steps"][1]["split_f"].update(new=[7, True])),
        broken(lambda d: d["edge_map"].update({"01": 2})),
        broken(lambda d: d["edge_map"].update({"x": 2})),
        broken(lambda d: d["vertex_map"].update({"0": None})),
    ]
    for value in bad:
        with pytest.raises(ArgumentError):
            ExtensionSequence.from_json(value)


TAMPER_INPUTS = (K4_TEXT, CORE_TEXT, TWIN_TEXT, GEN_TEXT)


@functools.cache
def _documents():
    """(graph text, topological document) per tamper input, built on first use."""
    docs = []
    for text in TAMPER_INPUTS:
        with tempfile.TemporaryDirectory() as tmp:
            graph = _write(Path(tmp), "g.txt", text)
            code, out = _call(["basis", "--method", "topological", graph])
        assert code == 0
        docs.append((text, json.loads(out)))
    return tuple(docs)


def _paths(value, path=()):
    """Every position in a JSON value, the value itself first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, (*path, key))


JSON_VALUES = st.one_of(
    st.integers(-2, 40),
    st.sampled_from(["A", "B", "C", "D", "", "0"]),
    st.booleans(),
    st.none(),
    st.sampled_from([[], {}, [0, 1], 1.0, {"old": 0, "new": [40, 41], "vertex": 40}]),
)


@st.composite
def tampered_documents(draw):
    """A topological document with one field of its sequences changed, and
    optionally one entry repeated so that the basis is wrong."""
    text, doc = _documents()[draw(st.integers(0, len(TAMPER_INPUTS) - 1))]
    doc = copy.deepcopy(doc)
    if draw(st.booleans()):
        doc["cycles"][-1] = doc["cycles"][0]
    position = draw(st.sampled_from(list(_paths(doc["sequences"]))))
    if not position:
        doc["sequences"] = draw(JSON_VALUES)
        return text, doc
    *path, last = position
    parent = doc["sequences"]
    for key in path:
        parent = parent[key]
    action = draw(st.sampled_from(["replace", "delete", "rename"]))
    if action == "delete":
        del parent[last]
    elif action == "rename" and isinstance(parent, dict):
        key = draw(st.sampled_from(["0", "01", "-1", "x", "99", "1_0", "edge"]))
        parent[key] = parent.pop(last)
    else:
        parent[last] = draw(JSON_VALUES)
    return text, doc


@given(tampered_documents())
def test_tampered_sequences_change_nothing_but_speed(case):
    """A sequence that is malformed, does not replay or does not match the
    entries is dropped as a hint: verify prints what it prints for the
    document without sequences, never exits 1 or 4 and never raises."""
    text, doc = case
    bare = {key: value for key, value in doc.items() if key != "sequences"}
    with tempfile.TemporaryDirectory() as tmp:
        graph = _write(Path(tmp), "g.txt", text)
        tampered = _call(["verify", graph, _write(Path(tmp), "t.json", json.dumps(doc))])
        expected = _call(["verify", graph, _write(Path(tmp), "b.json", json.dumps(bare))])
    assert expected[0] in (0, 3)
    assert tampered == expected
