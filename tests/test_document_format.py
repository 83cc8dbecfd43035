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

from cyclelattice import certificate, topo_extension
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
# recorded while `extend` still wrote every prefix in full (format 1), and
# re-recorded once when the chain's routes moved onto its rebuilt tree
FULL_PREFIX_DIGESTS = {
    "k4": "5e242865a8a7f8f846a41f0c04b5d29d4bd449c7b2d60d69596a266841db3a0a",
    "gen300": "8eeb32e000b6769b8e9b691fbdccc4bc8d09c691a5753129f48a5e2ec6e03e36",
    "gen0": "0da10fd20f4423d2413563c8a4cb2a9d6fec4382d8665add88b4e5ace2b51e38",
    "gen1": "1e60293cbbec282c4c5ba6a93e1eff90bc89679f7e123d61ae411d6f06075059",
    "gen2": "5850039db181fde1a0ee8333c112e0ea4fc4eb3c79ac61800679988fe54e7502",
    "gen3": "889d63305ea8153f57b04a20b070f0c14599162057d8b5d707795794b004ea7a",
    "gen4": "40ec9c4d23757c6b46e99564374a3734dce690252dff359b4b7c09ffc95af4a5",
    "gen5": "c2e39b90be8f36d41333fc394de00d571c6423d37523e10b1f6de9b4e82dd82f",
    "gen6": "ef6abdafa063958ab592194fb396341dda9ab87dc238c8bf340e17b3bde7c0ca",
    "gen7": "e74c7709857ab152cd65faf2265d79c25741b8003a98f7afdb36b25575933ac4",
    "gen8": "df397b89421c04cf9e38399c70f36cb9d66a607c4ea005efff909163eec3dce3",
    "gen9": "1d39e1cdbb1c9c603b2ad36e4680afdcd767ebfa0f61aeb4256f6bfd2bab1db7",
    "gen10": "7440320dfc7798e863eb0b2d3b2a49255fcf892233803fe326ee925b2e9fe8b2",
    "gen11": "909df11ff69eff932f925a3cd3044397c832dbcd1d3b9ba583eb2b39f6c39f37",
    "gen12": "b639950021fb80f4a1b789c21c2a36dd61d64f268e87ce4c16b65656c342b282",
    "gen13": "a06447d98246b36bd5612d48a8fb7b8a8415b88e75938f2fa2390cd6885e3870",
    "gen14": "1cdf98042389a7a5c25b25efbb872dd27ec511ead599d131193ae463afea8ea2",
    "gen15": "fc130084028340abf010c705beef1178beb04b450d271198a3a26191a1cbc74a",
    "gen16": "2edae5f8c9415e51f65863fd3a1670fbdcdb0ee5c0a8f6021300161da34a8d44",
    "gen17": "a01325d2043dae2f609f04041ad2b79e606b1518c11eb3dc96a5c2325e634c85",
    "gen18": "5e3d059415131b03b8a03135cfa155bc89b766950be6c47709ccc663485f7109",
    "gen19": "5a8a4204b45b3206ca957b6eef6262fcd1603a476728d995bdc466c264f2969d",
}


# sha256 of the "sequence" field of `extend` on each graph above, as compact
# sorted JSON, recorded before the chain's routes moved onto its rebuilt tree,
# which changed only the cycles
SEQUENCE_DIGESTS = {
    "k4": "ac68b7ca8a7362c7c8dc5fafbadaab04bb53588edee8f5771190e2259dd3c9a2",
    "gen300": "b5dfc4bef6de3f4af896db9ed6de7ecce5cc1f07793dc60f3941a145b31eb5b8",
    "gen0": "36bd9d40b0a2f66e6d786908cd4c3630d9b98fe87f487a4b0528e3bb369ccd10",
    "gen1": "fc1c295a49886d921cf7c8edbead9d8f9b2d0425163b14333235a9b5ae7a48a5",
    "gen2": "9c5ba5462a292be078b0d6b5206386b2f12069ea92060d50c053e411d6f60b94",
    "gen3": "521f1537945adc2cac3787fb4e422a2e30c9d9aa24f7a52c38e8d30f04233bbf",
    "gen4": "874d105cad504ef80e8efa67425e70b21375527ed0059c455ae79a3c19f9d965",
    "gen5": "42f03d0551a8f142812d94345c76a0461f8fa9a6e7749cc10ee5b6691a2cf7f4",
    "gen6": "c735250fe562afbb4c6ec60a72cf88aad6ab3f023e7860f6f4d9da5bdb295991",
    "gen7": "3d000d1580ce4d0f81fdf9a125b6a1518c631da38b75f495e245add00af5488d",
    "gen8": "35ef318528986b3dd6c8bdfc577a99bc1398a036804443350210e8f06a1fb232",
    "gen9": "a8687beab062295fabf58854ba1d9bd7a5302f4e1e68215a6981fd136094dc26",
    "gen10": "d4f159a477da6dc23842cdc0b6234757cab409f8d66e4e9ac941745a0d40b862",
    "gen11": "5571253944ba04e47b624588b58ad4e0fae8b198d4ad954d6f6ba8a53db7c917",
    "gen12": "b9540afb01f5c646fd1fc4f0b41ee2170348422b579d33f28faf74ecb791c29f",
    "gen13": "1af40d0a13708f78cd134819a89eb69ee561ff714c2d25f1f2c7a8ba92ba4957",
    "gen14": "e5824d5246411ed3a2cba05c234b5938af169789f80a3061bcf6293c1f10cfd1",
    "gen15": "c204423b373be283eb86e91cff912ee088a96714e9369e1dccf56e87b891744e",
    "gen16": "018acad3b56059a22c9a3325ac0ab55732560d0b860e41231a686ed55b2eb1d5",
    "gen17": "c7c6af06830b644ff8a678c2e74d5e0c5248f7ad7ebf1678d270b50de1534706",
    "gen18": "f672d4aa21c56a7cd3bc63da46669f67646d5ae3d906e8bf69f89c697333a941",
    "gen19": "32475041d6620d8059ec43f7d75d5d57ba630f470013a3223c4f93e646318f6f",
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


@pytest.mark.parametrize("name", list(SEQUENCE_DIGESTS))
def test_extend_sequence_is_pinned(tmp_path, name):
    code, out = _call(["extend", _write(tmp_path, "g.txt", _prefix_graph_text(name))])
    sequence = json.dumps(json.loads(out)["sequence"], sort_keys=True, separators=(",", ":"))
    assert (code, hashlib.sha256(sequence.encode()).hexdigest()) == (0, SEQUENCE_DIGESTS[name])


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

    def counted(H, T_H, vectors, fcm=None):
        if H.m:
            calls.append(H)
        return generic(H, T_H, vectors, fcm)

    monkeypatch.setattr(certificate, "_generic_determinant", counted)
    code, verdict = _call(["verify", graph, _write(tmp_path, "doc.json", out)])
    assert code == 0 and json.loads(verdict)["accepted"] is True
    assert calls == []
    del doc["sequences"]
    code, bare = _call(["verify", graph, _write(tmp_path, "bare.json", json.dumps(doc))])
    assert (code, bare) == (0, verdict)
    assert len(calls) == components


@pytest.mark.parametrize(
    "name, command",
    [
        ("twin", "basis"),
        ("twin", "verify"),
        ("gen300", "basis"),
        ("gen300", "extend"),
        ("gen300", "verify"),
    ],
)
def test_each_sequence_is_replayed_once(tmp_path, monkeypatch, name, command):
    """The chain fills its sequence's grown edges from its own replay, so
    certifying a basis or an extend chain replays nothing more: one
    _GrownGraph.apply per step.  A sequence parsed from a document replays
    itself, once."""
    text = TWIN_TEXT if name == "twin" else _prefix_graph_text(name)
    graph = _write(tmp_path, "g.txt", text)
    topological = ["basis", "--method", "topological", graph]
    argv = {"basis": topological, "extend": ["extend", "--verify", graph]}.get(command)
    if command == "verify":
        argv = ["verify", graph, _write(tmp_path, "doc.json", _call(topological)[1])]
    calls = []
    apply = topo_extension._GrownGraph.apply

    def counted(self, step):
        calls.append(step)
        return apply(self, step)

    monkeypatch.setattr(topo_extension._GrownGraph, "apply", counted)
    code, out = _call(argv)
    assert code == 0
    if command == "verify":
        assert json.loads(out)["accepted"] is True
        doc = json.loads(Path(argv[-1]).read_text())
    else:
        doc = json.loads(out)
    sequences = doc["sequences"] if "sequences" in doc else [doc["sequence"]]
    assert len(calls) == sum(len(sequence["steps"]) for sequence in sequences) > 0


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
