"""Differential tests of the certificates against dense Bareiss elimination."""

import contextlib
import copy
import dataclasses
import functools
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclelattice import certificate, topo_extension
from cyclelattice.certificate import (
    ComponentCertificate,
    certify,
    certify_components,
    certify_cycle_basis,
)
from cyclelattice.cli import main
from cyclelattice.cycle_structure import (
    Cosimplification,
    cosimplify,
    fundamental_cycle_matrix,
)
from cyclelattice.errors import ArgumentError, CapacityError
from cyclelattice.lattice_basis import (
    CycleBasis,
    Provenance,
    _semi_fundamental_3ec,
    _simple_3ec,
    semi_fundamental_basis,
    simple_basis,
)
from cyclelattice.multigraph import (
    Multigraph,
    SpanningForest,
    forest_from_edges,
    format_edge_list,
    parse_edge_list,
    spanning_forest,
)
from cyclelattice.oracle import IntegerMatrix, enumerate_cycles, exact_determinant
from cyclelattice.topo_extension import (
    CompatibleChain,
    ExtensionSequence,
    compatible_chain,
    gen,
)

K4_TEXT = "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
C3_TEXT = "3 3\n1 2\n2 3\n3 1\n"


def _doubled(doc):
    """The first doubled entry of a basis document."""
    return next(e for e in doc["cycles"] if e.get("multiplier") == 2)


def dense(G, vectors):
    M = IntegerMatrix.from_vectors(vectors, list(G.sorted_edges))
    return abs(exact_determinant(M))


def three_bases(G):
    """(name, vectors, hints) of the simple, semi-fundamental and topological bases."""
    T = spanning_forest(G)
    semi, _ = semi_fundamental_basis(G, T)
    chain = compatible_chain(G, keep_prefixes=False)
    topo = chain.final_basis.vectors()
    return [
        ("simple", simple_basis(G, T).vectors(), {"tree": T.tree_edges}),
        ("semi-fundamental", semi.vectors(), {"tree": T.tree_edges}),
        ("topological", topo, {"sequences": [chain.sequence]}),
        ("topological-generic", topo, {"tree": T.tree_edges}),
    ]


def assert_agrees(G, vectors, want=None, **hints):
    cert = certify(G, vectors, **hints)
    want = dense(G, vectors) if want is None else want
    assert cert.determinant == want
    assert cert.certified == (want == 2 ** (G.n - 1))
    return cert


def test_agrees_with_bareiss_on_the_determinant_corpus():
    # the 200 instances of acceptance criterion 1
    for i in range(200):
        G = gen(steps=3 + i % 8, seed=1000 + i, max_vertices=12)
        for name, vectors, hints in three_bases(G):
            cert = assert_agrees(G, vectors, **hints)
            assert cert.certified, (i, name)
            assert cert.components[0].kind == ("chain" if "sequences" in hints else "generic")


@pytest.mark.parametrize("n", [10, 40, 100])
def test_agrees_with_bareiss_on_larger_instances(n):
    G = gen(steps=2 * n + 1, seed=n, max_vertices=n)
    assert G.m == 3 * n
    want = {}
    for name, vectors, hints in three_bases(G):
        key = frozenset(frozenset(v) for v in vectors)
        if key not in want:
            want[key] = dense(G, vectors)
        assert assert_agrees(G, vectors, want[key], **hints).certified, name


def _prefix_chain(chain, i):
    """The chain's first i steps as a chain of the i-th grown graph."""
    H = chain.graphs[i]
    prefix = ExtensionSequence(
        base_vertex=chain.sequence.base_vertex,
        steps=chain.sequence.steps[:i],
        edge_map={e: e for e in H.edges},
        vertex_map={v: v for v in H.vertices},
    )
    return H, CompatibleChain(sequence=prefix, final_basis=chain.bases[i])


def test_chain_path_agrees_with_bareiss_on_every_prefix():
    for seed in range(6):
        G = gen(steps=12, seed=300 + seed, max_vertices=8)
        chain = compatible_chain(G, keep_prefixes=True)
        for i in range(len(chain.sequence.steps) + 1):
            H, hint = _prefix_chain(chain, i)
            cert = assert_agrees(H, hint.final_basis.vectors(), sequences=[hint.sequence])
            # prefix 0 is one vertex without edges, certified without its hint
            want = "generic" if i == 0 else "chain"
            assert cert.certified and cert.components[0].kind == want, (seed, i)


def _corruptions(G, vectors):
    """A dropped, a duplicated and a swapped-in cycle."""
    yield "dropped", vectors[:-1]
    yield "duplicated", vectors[:-1] + [vectors[0]]
    present = {frozenset(v) for v in vectors}
    for cycle in enumerate_cycles(G):
        if frozenset(cycle) not in present:
            swapped = vectors[:-1] + [{e: 1 for e in cycle}]
            if dense(G, swapped) != 2 ** (G.n - 1):
                yield "swapped-in", swapped
                return


@pytest.mark.parametrize("seed", range(4))
def test_corrupted_bases_are_rejected_by_both_paths(seed):
    G = gen(steps=7, seed=400 + seed, max_vertices=6)
    T = spanning_forest(G)
    chain = compatible_chain(G, keep_prefixes=False)
    seen = set()
    for name, vectors, hints in three_bases(G):
        for kind, bad in _corruptions(G, vectors):
            seen.add(kind)
            cert = certify(G, bad, **hints)
            assert not cert.certified, (name, kind)
            if len(bad) == G.m:
                assert cert.determinant == dense(G, bad), (name, kind)
    # the chain path sees the same corrupted vectors as the generic one
    for kind, bad in _corruptions(G, chain.final_basis.vectors()):
        hints = {"tree": T.tree_edges, "sequences": [chain.sequence]}
        assert not certify(G, bad, **hints).certified, kind
    assert seen == {"dropped", "duplicated", "swapped-in"}


def _given(vectors, sequence=None) -> CycleBasis:
    """A component basis with these vectors, as certify_components reads it:
    an edge set of 2s is tagged doubled, and a sequence may be its hint."""
    tags = [Provenance("doubled" if 2 in v.values() else "lifted") for v in vectors]
    basis = CycleBasis(tuple(map(frozenset, vectors)), tuple(tags), sequence=sequence)
    assert basis.vectors() == vectors
    return basis


def _subdivided_with_pendant(G):
    """G with its least edge subdivided and a pendant edge at an end of it:
    its cosimplification is a copy of G and a vertex without edges."""
    e, f = G.sorted_edges[0], max(G.edges) + 1
    u, v = G.edges[e]
    x, y = max(G.vertices) + 1, max(G.vertices) + 2
    edges = {**G.edges, e: (u, x), f: (x, v), f + 1: (u, y)}
    return Multigraph((*G.vertices, x, y), edges)


@pytest.mark.parametrize("seed", range(4))
def test_corrupted_component_bases_are_rejected(seed):
    G = _subdivided_with_pendant(gen(steps=7, seed=400 + seed, max_vertices=6))
    cos = cosimplify(G)
    ((H, _),) = cos.components
    assert H is not cos.hat_graph and cos.hat_graph.n == H.n + 1
    seen = set()
    for name, vectors, hints in three_bases(H):
        (sequence,) = hints.get("sequences", [None])
        assert certify_components(cos, [_given(vectors, sequence)]).certified, name
        for kind, bad in _corruptions(H, vectors):
            seen.add(kind)
            cert = certify_components(cos, [_given(bad, sequence)])
            assert not cert.certified, (name, kind)
            if len(bad) == H.m:
                assert cert.determinant == dense(H, bad), (name, kind)
    assert seen == {"dropped", "duplicated", "swapped-in"}


def _random_spanning_tree(G, rng):
    edges = list(G.sorted_edges)
    rng.shuffle(edges)
    rep = {v: v for v in G.vertices}

    def find(v):
        while rep[v] != v:
            v = rep[v]
        return v

    tree = set()
    for e in edges:
        u, v = (find(x) for x in G.edges[e])
        if u != v:
            rep[u] = v
            tree.add(e)
    return SpanningForest(G, frozenset(tree), (G.vertices[0],))


def test_missing_or_wrong_hint_tree_gives_the_same_determinant(k4):
    rng = random.Random(5)
    for seed in range(8):
        G = gen(steps=9, seed=500 + seed, max_vertices=7)
        T = spanning_forest(G)
        vectors = semi_fundamental_basis(G, T)[0].vectors()
        want = dense(G, vectors)
        other = _random_spanning_tree(G, rng)
        not_spanning = SpanningForest(G, frozenset(sorted(T.tree_edges)[:-1]), (G.vertices[0],))
        with_cycle = SpanningForest(G, frozenset(G.edges), (G.vertices[0],))
        foreign = spanning_forest(k4)
        for hint in (None, T, other, not_spanning, with_cycle, foreign):
            cert = certify(G, vectors, tree=hint and hint.tree_edges)
            assert (cert.determinant, cert.certified) == (want, True)


def test_corrupted_chain_falls_back_to_the_generic_path():
    G = gen(steps=11, seed=77, max_vertices=8)
    chain = compatible_chain(G, keep_prefixes=False)
    vectors = chain.final_basis.vectors()
    seq = chain.sequence
    grown = seq.replay()
    index = next(
        i
        for i, s in enumerate(seq.steps)
        if s.kind == "B" and not grown[i].is_loop(s.split_f.old)
    )
    step = seq.steps[index]
    split = dataclasses.replace(step.split_f, first=step.split_f.second, second=step.split_f.first)
    bad_step = dataclasses.replace(step, split_f=split)
    a, b = list(seq.edge_map)[:2]
    corrupted = [
        dataclasses.replace(seq, steps=seq.steps[:index] + (bad_step,) + seq.steps[index + 1 :]),
        dataclasses.replace(seq, steps=seq.steps[:-1]),
        dataclasses.replace(seq, edge_map={**seq.edge_map, a: seq.edge_map[b], b: seq.edge_map[a]}),
    ]
    for bad in corrupted:
        cert = certify(G, vectors, sequences=[bad])
        assert cert.components[0].kind == "generic"
        assert (cert.determinant, cert.certified) == (dense(G, vectors), True)
    # a valid chain whose cycles come in another order
    shuffled = vectors[1:] + vectors[:1]
    cert = certify(G, shuffled, sequences=[chain.sequence])
    assert cert.components[0].kind == "generic"
    assert (cert.determinant, cert.certified) == (dense(G, shuffled), True)


def _renamed_edge(seq, k, old_id, new_id):
    """seq with edge id old_id renamed to new_id from step k on."""

    def rename(x):
        return new_id if x == old_id else x

    def split(s):
        if s is None:
            return None
        return dataclasses.replace(s, old=rename(s.old), first=rename(s.first), second=rename(s.second))

    steps = tuple(
        dataclasses.replace(
            st, new_edge=rename(st.new_edge), split_f=split(st.split_f), split_g=split(st.split_g)
        )
        for st in seq.steps[k:]
    )
    edge_map = {rename(r): e for r, e in seq.edge_map.items()}
    return dataclasses.replace(seq, steps=seq.steps[:k] + steps, edge_map=edge_map)


def _sequences_the_replay_refuses(seq):
    """(rule, sequence) pairs, one per rule the replay of a hint enforces.

    Where the id bookkeeping allows, the rest of the sequence stays
    consistent, so that only the broken rule stands between the hint and
    the chain path.  A collision loses an edge and a reused split vertex
    merges two, so `_maps_onto` refuses those two sequences as well.
    """
    root = seq.base_vertex
    first = seq.steps[0]
    assert (first.kind, first.endpoints) == ("A", (root, root))
    k = next(i for i, st in enumerate(seq.steps) if st.kind == "B")
    step, split = seq.steps[k], seq.steps[k].split_f

    def with_step(new_step):
        return dataclasses.replace(seq, steps=seq.steps[:k] + (new_step,) + seq.steps[k + 1 :])

    stray = max(seq.vertex_map) + 1
    yield "reused-edge-id", _renamed_edge(seq, k, step.new_edge, split.old)
    yield "ids-collide-in-a-step", with_step(dataclasses.replace(step, new_edge=split.first))
    yield "split-of-an-unknown-edge", with_step(
        dataclasses.replace(step, split_f=dataclasses.replace(split, old=10**6))
    )
    yield "existing-split-vertex", with_step(
        dataclasses.replace(
            step,
            endpoints=(root, step.endpoints[1]),
            split_f=dataclasses.replace(split, vertex=root),
        )
    )
    yield "missing-kind-a-endpoint", dataclasses.replace(
        seq, steps=(dataclasses.replace(first, endpoints=(root, stray)),) + seq.steps[1:]
    )


REPLAY_RULES = [
    "reused-edge-id",
    "ids-collide-in-a-step",
    "split-of-an-unknown-edge",
    "existing-split-vertex",
    "missing-kind-a-endpoint",
]


@pytest.mark.parametrize("rule", REPLAY_RULES)
def test_hints_the_replay_refuses_fall_back_to_the_generic_path(rule):
    G = gen(steps=11, seed=77, max_vertices=8)
    chain = compatible_chain(G, keep_prefixes=False)
    vectors = chain.final_basis.vectors()
    assert certify(G, vectors, sequences=[chain.sequence]).components[0].kind == "chain"
    bad = dict(_sequences_the_replay_refuses(chain.sequence))[rule]
    cert = certify(G, vectors, sequences=[bad])
    assert (cert.components[0].kind, cert.determinant) == ("generic", dense(G, vectors))


def test_chain_path_falls_back_on_tampered_vectors():
    chain = compatible_chain(gen(steps=14, seed=91, max_vertices=9), keep_prefixes=True)
    tampered = 0
    for i, step in enumerate(chain.sequence.steps, start=1):
        H, hint = _prefix_chain(chain, i)
        vectors = hint.final_basis.vectors()
        older = len(vectors) - 1 - len(step.splits())
        variants = [vectors[:-1] + [{e: 2 * c for e, c in vectors[-1].items()}]]
        if older:
            variants.append([{**vectors[0], step.new_edge: 1}, *vectors[1:]])
        for s in step.splits():
            both = next((j for j in range(older) if s.first in vectors[j]), None)
            neither = next((j for j in range(older) if s.first not in vectors[j]), None)
            if both is not None:
                bad = [dict(v) for v in vectors]
                bad[both][s.first] = 2
                variants.append(bad)
            if neither is not None:
                bad = [dict(v) for v in vectors]
                bad[neither][s.second] = 1
                variants.append(bad)
        for bad in variants:
            cert = certify(H, bad, sequences=[hint.sequence])
            assert cert.components[0].kind == "generic", (i, bad)
            assert cert.determinant == dense(H, bad), (i, bad)
            tampered += 1
    assert tampered >= 3 * len(chain.sequence.steps)


def test_residual_cap_raises_capacity_error(k4, monkeypatch):
    # on the BFS tree of K4 these six cycles leave a 3x3 residual block
    cycles = [[0, 1, 3], [0, 2, 4], [3, 4, 5], [0, 1, 4, 5], [0, 2, 3, 5], [1, 2, 3, 4]]
    vectors = [{e: 1 for e in c} for c in cycles]
    assert certify(k4, vectors).determinant == dense(k4, vectors) == 8
    monkeypatch.setattr(certificate, "RESIDUAL_CAP", 2)
    with pytest.raises(CapacityError, match="3x3.*cap of 2"):
        certify(k4, vectors)


def test_topological_basis_past_the_cap_is_certified_without_a_hint(monkeypatch):
    # on the chain's own tree this basis leaves a 16x16 residual
    G = gen(steps=41, seed=5, max_vertices=20)
    basis = compatible_chain(G, keep_prefixes=False).final_basis
    monkeypatch.setattr(certificate, "RESIDUAL_CAP", 0)
    assert certify_cycle_basis(G, basis) == (2 ** (G.n - 1), True)
    vectors = basis.vectors()
    cert = certify(G, vectors, tree=basis.tree.tree_edges)
    assert [c.kind for c in cert.components] == ["chain"]
    # out of chain order the built sequence certifies nothing
    random.Random(5).shuffle(vectors)
    with pytest.raises(CapacityError, match="16x16.*cap of 0"):
        certify(G, vectors, tree=basis.tree.tree_edges)


def test_chain_basis_is_certified_along_its_own_sequence(monkeypatch):
    def no_generic_path(*args):
        raise AssertionError("generic path taken")

    monkeypatch.setattr(certificate, "_generic_determinant", no_generic_path)
    for seed in range(4):
        G = gen(steps=30 + 40 * seed, seed=seed, max_vertices=15 + 20 * seed)
        chain = compatible_chain(G)
        assert chain.final_basis.sequence is chain.sequence
        assert certify_cycle_basis(G, chain.final_basis) == (2 ** (G.n - 1), True)
        semi, _ = semi_fundamental_basis(G)
        with pytest.raises(AssertionError, match="generic path taken"):
            certify_cycle_basis(G, semi)


def test_non_3ec_graphs_are_certified_per_component():
    # two triangles joined by a bridge: the cosimplification is two loops
    G = parse_edge_list("6 7\n1 2\n2 3\n3 1\n3 4\n4 5\n5 6\n6 4\n")
    for hint in (None, spanning_forest(G).tree_edges):
        cert = certify(G, [{0: 1, 1: 1, 2: 1}, {4: 1, 5: 1, 6: 1}], tree=hint)
        assert (cert.determinant, cert.certified, cert.size) == (1, True, 2)
        assert [c.kind for c in cert.components] == ["generic", "generic"]
    assert not certify(G, [{0: 1, 1: 1, 2: 1}, {3: 1, 4: 1}]).in_cycle_space  # bridge
    assert not certify(G, [{0: 1, 1: 1}, {4: 1, 5: 1, 6: 1}]).in_cycle_space  # half a class
    assert certify(G, [{0: 1, 1: 1, 2: 1}]).components[1].kind == "unmatched"
    with pytest.raises(ArgumentError):
        certify(G, [{99: 1}])


def test_certify_projects_each_vector_once(monkeypatch):
    """certify maps Cosimplification.project over its vectors, in order,
    also when the first has no image."""
    G = parse_edge_list("6 7\n1 2\n2 3\n3 1\n3 4\n4 5\n5 6\n6 4\n")
    calls = []
    project = Cosimplification.project

    def counted(cos, vector):
        calls.append(vector)
        return project(cos, vector)

    monkeypatch.setattr(Cosimplification, "project", counted)
    for vectors in ([{0: 1, 1: 1, 2: 1}, {4: 1, 5: 1, 6: 1}], [{3: 1}, {0: 2, 1: 2, 2: 2}]):
        calls.clear()
        certify(G, vectors)
        assert calls == vectors


def test_one_vertex_is_certified_along_a_zero_step_hint():
    """The vertex of the one-vertex graph has no edges, so it is certified
    as (1, 0, 1, "generic") at once: a zero-step sequence hinted there is
    never replayed."""
    G = parse_edge_list("1 0\n")
    sequence = compatible_chain(G).sequence
    assert sequence.steps == ()
    for hints in ([sequence], ()):
        cert = certify(G, [], sequences=hints)
        assert cert.components == (ComponentCertificate(1, 0, 1, "generic"),)


class TestVerifyDocuments:
    @pytest.fixture
    def k4_file(self, tmp_path, k4):
        path = tmp_path / "k4.txt"
        path.write_text(format_edge_list(k4))
        return str(path)

    def _simple_doc(self, capsys, k4_file):
        assert main(["basis", "--method", "simple", k4_file]) == 0
        return json.loads(capsys.readouterr().out)

    def _verify(self, capsys, k4_file, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = main(["verify", k4_file, str(path)])
        out = capsys.readouterr()
        return code, out

    @pytest.mark.parametrize(
        "text, corrupt, failed",
        [
            pytest.param(
                K4_TEXT,
                lambda doc: _doubled(doc)["edges"].append(999),
                ("entries-are-cycles", "entry {i} names unknown edge 999"),
                id="unknown-edge",
            ),
            pytest.param(
                K4_TEXT,
                lambda doc: _doubled(doc)["edges"].append(_doubled(doc)["edges"][0]),
                ("entries-are-cycles", "entry {i} repeats an edge id"),
                id="repeated-edge",
            ),
            pytest.param(
                K4_TEXT,
                lambda doc: _doubled(doc).update(multiplier=2.0),
                ("entries-are-cycles", "entry {i} has unsupported multiplier 2.0"),
                id="float-multiplier",
            ),
            pytest.param(
                K4_TEXT,
                lambda doc: _doubled(doc).update(multiplier=True),
                ("entries-are-cycles", "entry {i} has unsupported multiplier True"),
                id="bool-multiplier",
            ),
            pytest.param(
                K4_TEXT,
                lambda doc: _doubled(doc).update(edges="0"),
                ("entries-are-cycles", "entry {i} has no list of integer edge ids"),
                id="edges-string",
            ),
            # C3 is one series class {0, 1, 2}, reduced to a loop
            pytest.param(
                C3_TEXT,
                lambda doc: doc.update(cycles=[{"edges": [0, 1]}]),
                ("entries-are-cycles", "entry 0 is not a cycle"),
                id="c3-half-class",
            ),
            pytest.param(
                C3_TEXT,
                lambda doc: doc.update(cycles=[{"edges": [0, 1], "multiplier": 2}]),
                ("rational-cycle-space", "entry violates bridge/series structure"),
                id="c3-half-class-doubled",
            ),
            pytest.param(
                C3_TEXT,
                lambda doc: doc["cycles"].insert(0, {"edges": [], "multiplier": 2}),
                ("entries-are-cycles", "entry 0 doubles no edge"),
                id="c3-doubles-nothing",
            ),
            pytest.param(
                C3_TEXT,
                lambda doc: doc["cycles"].append({"edges": [0, True, 2]}),
                ("entries-are-cycles", "entry 1 has no list of integer edge ids"),
                id="c3-bool-edge-id",
            ),
        ],
    )
    def test_bad_entries_fail_a_named_check(self, capsys, tmp_path, text, corrupt, failed):
        """Each bad entry fails the named check with its pinned detail, and
        every check before it passes."""
        graph = tmp_path / "g.txt"
        graph.write_text(text)
        doc = self._simple_doc(capsys, str(graph))
        i = next((j for j, e in enumerate(doc["cycles"]) if e.get("multiplier") == 2), None)
        corrupt(doc)
        code, out = self._verify(capsys, str(graph), tmp_path, doc)
        verdict = json.loads(out.out)
        assert code == 3 and verdict["accepted"] is False
        *passed, last = verdict["checks"]
        name, detail = failed
        assert last == {"name": name, "passed": False, "detail": detail.format(i=i)}
        assert all(c["passed"] for c in passed)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"tree": [0]}', "\udcff"])
    def test_malformed_documents_exit_2(self, capsys, k4_file, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        code = main(["verify", k4_file, str(path)])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    def test_document_tree_is_only_a_hint(self, capsys, k4_file, tmp_path):
        doc = self._simple_doc(capsys, k4_file)
        verdicts = []
        for tree in (doc["tree"], [0, 1, 3], [0, 1, 2, 3], [99], "x"):
            code, out = self._verify(capsys, k4_file, tmp_path, {**doc, "tree": tree})
            verdicts.append((code, out.out))
        assert verdicts[0][0] == 0
        assert all(v == verdicts[0] for v in verdicts)

    def test_topological_document_is_certified_by_its_rebuilt_chain(
        self, capsys, tmp_path, monkeypatch
    ):
        G = gen(steps=41, seed=3, max_vertices=20)
        graph = tmp_path / "g.txt"
        graph.write_text(format_edge_list(G))
        monkeypatch.setattr(certificate, "RESIDUAL_CAP", 0)
        for method in ("semi-fundamental", "topological"):
            assert main(["basis", "--method", method, str(graph)]) == 0
            doc = capsys.readouterr().out
            vectors = [{e: 1 for e in c["edges"]} for c in json.loads(doc)["cycles"]]
            code, out = self._verify(capsys, str(graph), tmp_path, doc)
            assert code == 0 and json.loads(out.out)["accepted"] is True
        # on the BFS tree alone the topological basis leaves a residual past
        # the cap, and certify itself builds the sequence that certifies it
        cert = certify(G, vectors)
        assert cert.certified and [c.kind for c in cert.components] == ["chain"]

    def test_topological_verify_projects_once(self, capsys, tmp_path, monkeypatch):
        G = gen(steps=41, seed=3, max_vertices=20)
        graph = tmp_path / "g.txt"
        graph.write_text(format_edge_list(G))
        assert main(["basis", "--method", "topological", str(graph)]) == 0
        doc = capsys.readouterr().out
        calls = []
        project = Cosimplification.project

        def counted(cos, vector):
            calls.append(vector)
            return project(cos, vector)

        monkeypatch.setattr(Cosimplification, "project", counted)
        monkeypatch.setattr(certificate, "RESIDUAL_CAP", 0)
        code, out = self._verify(capsys, str(graph), tmp_path, doc)
        assert code == 0 and json.loads(out.out)["accepted"] is True
        entries = json.loads(doc)["cycles"]
        assert len(entries) == G.m
        assert calls == [dict.fromkeys(e["edges"], e.get("multiplier", 1)) for e in entries]

    def test_topological_verify_rebuilds_no_chain(self, capsys, tmp_path, monkeypatch):
        G = gen(steps=41, seed=3, max_vertices=20)
        graph = tmp_path / "g.txt"
        graph.write_text(format_edge_list(G))
        assert main(["basis", "--method", "topological", str(graph)]) == 0
        doc = capsys.readouterr().out
        calls = []
        extending_cycles = topo_extension._extending_cycles

        def counted(*args):
            calls.append(args[1])
            return extending_cycles(*args)

        monkeypatch.setattr(topo_extension, "_extending_cycles", counted)
        monkeypatch.setattr(certificate, "RESIDUAL_CAP", 0)
        code, out = self._verify(capsys, str(graph), tmp_path, doc)
        assert code == 0 and json.loads(out.out)["accepted"] is True
        assert calls == []


# Small graphs that reduce: bridges, series classes, and (the last two) two
# components after cosimplification.  Every one has m <= 14, so verify also
# runs its HNF check.
REDUCED_TEXTS = [
    C3_TEXT,
    "4 4\n1 2\n2 3\n3 1\n3 4\n",
    "7 9\n1 2\n1 3\n1 4\n2 5\n5 3\n2 4\n3 4\n1 6\n2 7\n",
    "6 7\n1 2\n2 3\n3 1\n3 4\n4 5\n5 6\n6 4\n",
    "7 9\n1 2\n1 3\n3 2\n1 4\n4 2\n2 5\n5 6\n6 7\n7 5\n",
]


@functools.cache
def _reduced_documents():
    """(graph text, basis document) for each reduced graph and method."""
    out = []
    for text in REDUCED_TEXTS:
        with tempfile.TemporaryDirectory() as tmp:
            graph = Path(tmp) / "g.txt"
            graph.write_text(text)
            for method in ("simple", "semi-fundamental", "topological"):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    assert main(["basis", "--method", method, str(graph)]) == 0
                out.append((text, json.loads(stdout.getvalue())))
    return out


@st.composite
def tampered_bases(draw):
    """A basis document of a reduced graph with one to three entries
    tampered with: an edge dropped or added, the multiplier flipped, or one
    entry repeated in place of another."""
    text, doc = draw(st.sampled_from(_reduced_documents()))
    doc = copy.deepcopy(doc)
    cycles = doc["cycles"]
    m = parse_edge_list(text).m
    for _ in range(draw(st.integers(1, 3))):
        entry = cycles[draw(st.integers(0, len(cycles) - 1))]
        action = draw(st.sampled_from(["drop", "add", "flip", "repeat"]))
        if action == "drop" and entry["edges"]:
            entry["edges"].pop(draw(st.integers(0, len(entry["edges"]) - 1)))
        elif action == "add":
            entry["edges"].append(draw(st.integers(0, m - 1)))
        elif action == "flip":
            entry["multiplier"] = 3 - entry.get("multiplier", 1)
        elif action == "repeat":
            cycles[draw(st.integers(0, len(cycles) - 1))] = copy.deepcopy(entry)
    return text, doc


@settings(max_examples=80, deadline=None)
@given(tampered_bases())
def test_tampered_bases_get_one_verdict_from_determinant_and_hnf(case):
    """verify of a tampered basis never raises and exits 0 or 3.  When the
    entries are cycles or doubled edge sets, there are as many as edges of
    the cosimplification, and each entry's image lies in one component,
    the determinant check and the HNF check agree."""
    text, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "g.txt"
        graph.write_text(text)
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["verify", str(graph), str(path)])
    verdict = json.loads(stdout.getvalue())
    assert code in (0, 3) and verdict["accepted"] == (code == 0)
    checks = {c["name"]: c["passed"] for c in verdict["checks"]}
    if not (checks["entries-are-cycles"] and checks.get("cardinality")):
        return
    cos = cosimplify(parse_edge_list(text))
    component = {e: H.vertices[0] for H, _ in cos.components for e in H.edges}
    for entry in doc["cycles"]:
        if len({component[cos.projection.get(e, e)] for e in entry["edges"]}) != 1:
            return
    assert checks["determinant"] == checks["hnf-lattice-equality"]


# ---------------------------------------------------------------------------
# the triangular pass of the generic path, against its fallback and Bareiss
# ---------------------------------------------------------------------------


def _peeled(H, fcm, vectors):
    """|det| on the fallback the triangular pass stands in front of: every
    column mapped, peeled, and the residual block's dense determinant."""
    mapped = [certificate._reduced(fcm.cycles, vec) for vec in vectors]
    factor, rows, cols = certificate._peel(H.sorted_edges, mapped)
    block = IntegerMatrix.from_rows([[col.get(r, 0) for col in cols] for r in rows])
    return abs(factor * exact_determinant(block))


def _three_ways(H, T_H, basis):
    """The basis's |det| from the triangular pass on its own tags (None when
    the pass fails), from the fallback, and from dense Bareiss."""
    fcm = fundamental_cycle_matrix(H, T_H)
    vectors = basis.vectors()
    triangular = certificate._triangular_determinant(fcm, basis.cycles, basis.provenance)
    return triangular, _peeled(H, fcm, vectors), dense(H, vectors)


def test_triangular_pass_agrees_on_the_determinant_corpus():
    for i in range(200):
        G = gen(steps=3 + i % 8, seed=1000 + i, max_vertices=12)
        T = spanning_forest(G)
        for basis in (semi_fundamental_basis(G, T)[0], simple_basis(G, T)):
            assert _three_ways(G, T, basis) == (2 ** (G.n - 1),) * 3, i


@pytest.mark.parametrize("n, trees", [(10, 6), (30, 4), (60, 2), (100, 1)])
def test_triangular_pass_agrees_on_random_kruskal_trees(n, trees):
    """gen up to m=300, each basis built on a random Kruskal tree and
    certified with that tree as the hint."""
    rng = random.Random(n)
    G = gen(steps=2 * n + 1, seed=600 + n, max_vertices=n)
    assert G.m == 3 * n
    for _ in range(trees):
        T = forest_from_edges(G, _random_spanning_tree(G, rng).tree_edges)
        for basis in (semi_fundamental_basis(G, T)[0], simple_basis(G, T)):
            want = 2 ** (G.n - 1)
            assert _three_ways(G, T, basis) == (want, want, want)
            cert = certify(G, basis.vectors(), tree=T.tree_edges)
            assert (cert.determinant, cert.certified) == (want, True)


def _subdivided_cores_with_pendants(seed):
    """Two gen cores joined by a bridge, each core edge subdivided into a
    series path of one to three edges, plus pendant bridges: the
    cosimplification is the two cores and one vertex per bridge."""
    rng = random.Random(seed)
    vertices, edges = [], []
    for core in (gen(steps=21, seed=seed, max_vertices=10), gen(steps=15, seed=seed + 1)):
        shift = len(vertices)
        vertices += [shift + v for v in core.vertices]
        for e in core.sorted_edges:
            u, v = (shift + x for x in core.edges[e])
            for _ in range(rng.randrange(3)):
                vertices.append(len(vertices))
                edges.append((u, vertices[-1]))
                u = vertices[-1]
            edges.append((u, v))
    edges.append((0, len(vertices) - 1))  # the bridge between the cores
    for _ in range(5):
        vertices.append(len(vertices))
        edges.append((rng.choice(vertices[:-1]), vertices[-1]))
    return Multigraph(tuple(vertices), dict(enumerate(edges)))


@pytest.mark.parametrize("seed", range(3))
def test_triangular_pass_agrees_on_every_component_of_a_reduction(seed):
    G = _subdivided_cores_with_pendants(700 + seed)
    cos = cosimplify(G)
    assert len(cos.components) == 2 and not cos.identity
    assert cos.partition.nontrivial_classes and len(cos.partition.bridges) == 6
    for construct in (_semi_fundamental_3ec, _simple_3ec):
        bases = []
        for H, T_H in cos.components:
            bases.append(construct(H, T_H))
            assert _three_ways(H, T_H, bases[-1]) == (2 ** (H.n - 1),) * 3
        assert certify_components(cos, bases).certified


def test_semi_and_simple_bases_certify_without_peeling(monkeypatch, tmp_path):
    """With _peel made to raise, the semi-fundamental and simple bases at
    m=3000 and their documents still certify: the triangular pass took
    every component."""

    def no_peel(*args):
        raise AssertionError("peeled")

    monkeypatch.setattr(certificate, "_peel", no_peel)
    for seed in range(2):
        graph = tmp_path / "g.txt"
        graph.write_text(format_edge_list(gen(2001, seed, max_vertices=1000)))
        for method in ("semi-fundamental", "simple"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(["basis", "--method", method, str(graph)]) == 0
            assert json.loads(stdout.getvalue())["certified"] is True
            doc = tmp_path / "doc.json"
            doc.write_text(stdout.getvalue())
            with contextlib.redirect_stdout(io.StringIO()) as verdict:
                assert main(["verify", str(graph), str(doc)]) == 0
            assert json.loads(verdict.getvalue())["accepted"] is True


def _retagged(entry, **fields):
    """The entry with these fields of its tag replaced."""
    tag = Provenance.parse(entry["provenance"])._replace(**fields)
    return {**entry, "provenance": tag.label()}


def _tampered_documents(semi, simple, fcm):
    """(name, document) for one change each to a semi-fundamental and a
    simple document built on the tree of fcm: the tags of the first
    entries, which are fundamental, and of the first and last
    semi-fundamental entries are read."""
    entries = semi["cycles"]
    tags = [Provenance.parse(e["provenance"]) for e in entries]
    semi_at = [j for j, tag in enumerate(tags) if tag.kind == "semi-fundamental"]
    first, last = semi_at[0], semi_at[-1]

    def shared(j):
        return fcm.cycles[tags[j].e] & fcm.cycles[tags[j].f]

    def changed(j, entry):
        return {**semi, "cycles": entries[:j] + [entry] + entries[j + 1 :]}

    # a later entry sharing the tree edge of an earlier one, moved before it
    j = next(j for j in semi_at if len(shared(j)) > 1)
    i = next(i for i in semi_at if tags[i].t in shared(j) - {tags[j].t})
    swapped = list(entries)
    swapped[i], swapped[j] = entries[j], entries[i]
    yield "swapped", {**semi, "cycles": swapped}
    outside = min(fcm.tree.tree_edges - shared(last))
    yield "wrong-t", changed(last, _retagged(entries[last], t=outside))
    yield "repeated-t", changed(last, _retagged(entries[last], t=tags[first].t))
    other = next(e for e in fcm.cycles if e not in (tags[last].e, tags[last].f))
    yield "wrong-e", changed(last, _retagged(entries[last], e=other))
    yield "wrong-f", changed(last, _retagged(entries[last], f=other))
    yield "dropped", {**semi, "cycles": entries[:last] + entries[last + 1 :]}
    # edge sets that are not what their tags say
    yield "semi-edges", changed(last, {**entries[last], "edges": entries[first]["edges"]})
    yield "fundamental-edges", changed(0, {**entries[0], "edges": entries[1]["edges"]})
    doubled = next(j for j, e in enumerate(simple["cycles"]) if e.get("multiplier") == 2)
    fundamental = next(j for j, e in enumerate(simple["cycles"]) if "multiplier" not in e)
    for j, multiplier in ((doubled, 1), (fundamental, 2)):
        cycles = list(simple["cycles"])
        cycles[j] = {**cycles[j], "multiplier": multiplier}
        yield f"multiplier-{multiplier}", {**simple, "cycles": cycles}


@pytest.mark.parametrize("seed", range(3))
def test_tampered_documents_fall_back_to_the_same_verdict(monkeypatch, tmp_path, seed):
    """Each tampered document fails the triangular pass (when certification
    is reached at all) and gets the verdict and determinant of verify
    without the pass, which maps and peels every column."""
    G = gen(steps=61, seed=seed, max_vertices=30)
    graph = tmp_path / "g.txt"
    graph.write_text(format_edge_list(G))
    docs = {}
    for method in ("semi-fundamental", "simple"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["basis", "--method", method, str(graph)]) == 0
        docs[method] = json.loads(stdout.getvalue())
    fcm = fundamental_cycle_matrix(G, forest_from_edges(G, docs["simple"]["tree"]))
    passes = []
    triangular = certificate._triangular_determinant

    def spied(*args):
        passes.append(triangular(*args))
        return passes[-1]

    def verify(doc, pass_on):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(
            certificate, "_triangular_determinant", spied if pass_on else lambda *args: None
        )
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["verify", str(graph), str(path)])
        return code, out.getvalue()

    for doc in docs.values():
        passes.clear()
        assert verify(doc, True) == verify(doc, False)
        assert passes == [2 ** (G.n - 1)]
    names = []
    for name, doc in _tampered_documents(docs["semi-fundamental"], docs["simple"], fcm):
        names.append(name)
        passes.clear()
        assert verify(doc, True) == verify(doc, False), name
        # a dropped cycle leaves the component unmatched, and a doubled edge
        # without its multiplier is no cycle: neither reaches the pass
        assert passes == ([] if name in ("dropped", "multiplier-1") else [None]), name
    assert len(names) == 10


def _one_changed(basis, j, edges, tag):
    """The basis's edge sets and tags with entry j replaced."""
    cycles, tags = list(basis.cycles), list(basis.provenance)
    cycles[j], tags[j] = frozenset(edges), tag
    return cycles, tags


def test_triangular_pass_refuses_columns_its_tags_misdescribe():
    """Columns whose tags would give a wrong determinant if a check were
    skipped: each makes the pass fail, and the fallback finds the same
    determinant as dense Bareiss."""
    seen = set()
    for seed in range(20):
        G = gen(steps=21, seed=800 + seed, max_vertices=10)
        T = spanning_forest(G)
        fcm = fundamental_cycle_matrix(G, T)
        cases = []
        simple = simple_basis(G, T)
        doubled = [j for j, tag in enumerate(simple.provenance) if tag.kind == "doubled"]
        if len(doubled) > 1:
            # two doubled columns on the same two tree edges: the first is
            # nonzero at the second's t, which is no pivot yet
            i, j = doubled[:2]
            both = simple.cycles[i] | simple.cycles[j]
            cycles, tags = _one_changed(simple, i, both, simple.provenance[i])
            cycles[j] = both
            cases.append(("doubled-not-triangular", cycles, tags))
            # a doubled column that is zero at its own t, and nonzero only
            # at an earlier pivot
            zero = _one_changed(simple, j, simple.cycles[i], simple.provenance[j])
            cases.append(("doubled-zero-pivot", *zero))
        # a doubled column at a non-tree edge e: twice the fundamental
        # cycle of e, whose map is 2 at e alone
        e, cycle = next(iter(fcm.cycles.items()))
        last = doubled[-1] if doubled else None
        if last is not None:
            off = _one_changed(simple, last, cycle, Provenance("doubled", t=e))
            cases.append(("pivot-off-the-tree", *off))
        semi = semi_fundamental_basis(G, T)[0]
        pivots = set()
        for j, tag in enumerate(semi.provenance):
            if tag.kind != "semi-fundamental":
                continue
            # an empty column tagged with e = f, whose cycle's other tree
            # edges are earlier pivots, would pass every other check
            for e, cycle in fcm.cycles.items():
                if tag.t in cycle and cycle - {e} <= pivots | {tag.t}:
                    bad = _one_changed(semi, j, (), tag._replace(e=e, f=e))
                    cases.append(("semi-e-equals-f", *bad))
                    break
            pivots.add(tag.t)
        for name, cycles, tags in cases:
            seen.add(name)
            assert certificate._triangular_determinant(fcm, cycles, tags) is None, (seed, name)
            vectors = [dict.fromkeys(c, tag.multiplier) for c, tag in zip(cycles, tags)]
            assert _peeled(G, fcm, vectors) == dense(G, vectors), (seed, name)
    assert seen == {
        "doubled-not-triangular",
        "doubled-zero-pivot",
        "pivot-off-the-tree",
        "semi-e-equals-f",
    }
