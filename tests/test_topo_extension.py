import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclelattice.cycle_structure import is_simple_cycle, is_three_edge_connected
from cyclelattice.errors import ArgumentError, InternalError, StructureError
from cyclelattice.lattice_basis import EdgeVector, certify_cycle_basis, matches_all_cycles_lattice
from cyclelattice import topo_extension
from cyclelattice.multigraph import Multigraph, parse_edge_list
from cyclelattice.oracle import IntegerMatrix, exact_determinant
from cyclelattice.topo_extension import (
    EdgeSplit,
    ExtensionStep,
    apply_extension,
    compatible_chain,
    embed_cycle,
    embed_vector,
    extend_basis,
    extension_sequence,
    gen,
)

SINGLE_VERTEX = parse_edge_list("1 0\n")


def _replay_matches(G, seq):
    graphs = seq.replay()
    final = graphs[-1]
    em, vm = seq.edge_map, seq.vertex_map
    rebuilt = {em[r]: tuple(sorted((vm[u], vm[v]))) for r, (u, v) in final.edges.items()}
    return rebuilt == {e: tuple(sorted(uv)) for e, uv in G.edges.items()}


class TestApplyExtension:
    def test_loop_on_single_vertex(self):
        step = ExtensionStep(kind="A", new_edge=0, endpoints=(1, 1))
        G = apply_extension(parse_edge_list("1 0\n"), step)
        assert G.n == 1 and G.m == 1 and G.is_loop(0)

    def test_split_loop_gives_theta_degrees(self, loop_graph):
        (v,) = loop_graph.vertices
        split = EdgeSplit(old=0, first=10, second=11, vertex=99)
        step = ExtensionStep(kind="B", new_edge=12, endpoints=(99, v), split_f=split)
        G = apply_extension(loop_graph, step)
        assert sorted(G.degree(x) for x in G.vertices) == [3, 3]

    def test_bond_type_c_gives_k4(self, b3):
        # dividing two of the three parallel edges and joining the new
        # vertices produces the complete graph on four vertices
        split_f = EdgeSplit(old=0, first=10, second=11, vertex=8)
        split_g = EdgeSplit(old=1, first=12, second=13, vertex=9)
        step = ExtensionStep(
            kind="C", new_edge=14, endpoints=(8, 9), split_f=split_f, split_g=split_g
        )
        G = apply_extension(b3, step)
        assert G.n == 4 and G.m == 6
        pairs = {tuple(sorted(uv)) for uv in G.edges.values()}
        assert len(pairs) == 6  # simple: every pair of the 4 vertices once
        assert all(G.degree(v) == 3 for v in G.vertices)
        assert is_three_edge_connected(G)

    def test_surviving_ids_kept(self, b3):
        split = EdgeSplit(old=0, first=10, second=11, vertex=8)
        step = ExtensionStep(kind="B", new_edge=12, endpoints=(8, b3.vertices[0]), split_f=split)
        G = apply_extension(b3, step)
        assert {1, 2} <= set(G.edges)
        assert 0 not in G.edges

    def test_dangling_references(self, b3):
        split = EdgeSplit(old=77, first=10, second=11, vertex=8)
        step = ExtensionStep(kind="B", new_edge=12, endpoints=(8, b3.vertices[0]), split_f=split)
        with pytest.raises(ArgumentError):
            apply_extension(b3, step)

    def test_kind_c_same_edge_rejected(self):
        split_f = EdgeSplit(old=0, first=10, second=11, vertex=8)
        split_g = EdgeSplit(old=0, first=12, second=13, vertex=9)
        with pytest.raises(ArgumentError):
            ExtensionStep(
                kind="C", new_edge=14, endpoints=(8, 9), split_f=split_f, split_g=split_g
            )

    def test_step_json_round_trip(self, b3):
        split = EdgeSplit(old=0, first=10, second=11, vertex=8)
        step = ExtensionStep(kind="B", new_edge=12, endpoints=(8, b3.vertices[1]), split_f=split)
        assert ExtensionStep.from_json(step.to_json()) == step


class TestEmbedVector:
    def test_kind_a_appends_zero(self, b3):
        step = ExtensionStep(kind="A", new_edge=9, endpoints=(b3.vertices[0], b3.vertices[1]))
        G = apply_extension(b3, step)
        x = EdgeVector.indicator(b3, [0, 1])
        y = embed_vector(step, x, G)
        assert y.coords == {0: 1, 1: 1, 2: 0, 9: 0}

    def test_kind_b_duplicates(self, b3):
        split = EdgeSplit(old=0, first=10, second=11, vertex=8)
        step = ExtensionStep(kind="B", new_edge=12, endpoints=(8, b3.vertices[0]), split_f=split)
        x = EdgeVector(graph=b3, coords={0: 1, 1: 0, 2: 0})
        y = embed_vector(step, x)
        assert y.coords == {10: 1, 11: 1, 1: 0, 2: 0, 12: 0}

    def test_kind_c_zero_maps_to_zero(self, b3):
        split_f = EdgeSplit(old=0, first=10, second=11, vertex=8)
        split_g = EdgeSplit(old=1, first=12, second=13, vertex=9)
        step = ExtensionStep(
            kind="C", new_edge=14, endpoints=(8, 9), split_f=split_f, split_g=split_g
        )
        y = embed_vector(step, EdgeVector.zero(b3))
        assert y.is_zero()

    @given(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    )
    def test_linearity(self, a, b):
        G = parse_edge_list("2 3\nu v\nu v\nu v\n")
        split = EdgeSplit(old=0, first=10, second=11, vertex=8)
        step = ExtensionStep(kind="B", new_edge=12, endpoints=(8, G.vertices[0]), split_f=split)
        H = apply_extension(G, step)
        order = list(G.sorted_edges)
        xa = EdgeVector(graph=G, coords=dict(zip(order, a)))
        xb = EdgeVector(graph=G, coords=dict(zip(order, b)))
        assert embed_vector(step, xa + xb, H) == embed_vector(step, xa, H) + embed_vector(
            step, xb, H
        )

    def test_embedded_cycles_stay_cycles(self, b3):
        split = EdgeSplit(old=0, first=10, second=11, vertex=8)
        step = ExtensionStep(kind="B", new_edge=12, endpoints=(8, b3.vertices[0]), split_f=split)
        G = apply_extension(b3, step)
        for cyc in ({0, 1}, {0, 2}, {1, 2}):
            image = embed_cycle(step, frozenset(cyc))
            assert is_simple_cycle(G, image)


class TestExtensionSequence:
    def test_single_loop(self, loop_graph):
        seq = extension_sequence(loop_graph)
        assert [s.kind for s in seq.steps] == ["A"]
        assert _replay_matches(loop_graph, seq)

    def test_b3(self, b3):
        seq = extension_sequence(b3)
        assert _replay_matches(b3, seq)
        assert all(is_three_edge_connected(H) for H in seq.replay())

    def test_k4(self, k4):
        seq = extension_sequence(k4)
        assert _replay_matches(k4, seq)
        assert all(is_three_edge_connected(H) for H in seq.replay())

    def test_single_vertex(self):
        seq = extension_sequence(SINGLE_VERTEX)
        assert seq.steps == ()

    def test_no_vertices_rejected(self):
        with pytest.raises(StructureError):
            extension_sequence(parse_edge_list("0 0\n"))

    def test_not_three_edge_connected_rejected(self, c3):
        from cyclelattice.errors import PreconditionError

        with pytest.raises(PreconditionError):
            extension_sequence(c3)

    def test_random_corpus(self):
        for seed in range(25):
            G = gen(steps=3 + seed % 7, seed=seed, max_vertices=10)
            seq = extension_sequence(G)
            assert _replay_matches(G, seq), seed
            assert all(is_three_edge_connected(H) for H in seq.replay()), seed

    def test_random_small_multigraphs(self):
        """2000 3-edge-connected multigraphs with n <= 7, loops and parallel
        edges: each sequence replays onto its graph, and no path after the
        first cycle starts away from the base vertex."""
        rng = random.Random(2026)
        kinds, loops, parallel, accepted = set(), 0, 0, 0
        while accepted < 2000:
            n = rng.randint(1, 7)
            m = rng.randint(n, 4 * n)
            edges = {e: (rng.randrange(n), rng.randrange(n)) for e in range(m)}
            G = Multigraph(vertices=tuple(range(n)), edges=edges)
            if not is_three_edge_connected(G):
                continue
            accepted += 1
            loops += any(u == v for u, v in edges.values())
            parallel += len({frozenset(uv) for uv in edges.values()}) < m
            seq = extension_sequence(G)
            assert _replay_matches(G, seq), edges
            kinds.update(step.kind for step in seq.steps)
        assert kinds == {"A", "B", "C"}
        assert loops > 100 and parallel > 100, (loops, parallel)


class TestExtendBasis:
    def test_kind_a_parallel_edge_keeps_determinant(self, b3):
        u, v = b3.vertices
        step = ExtensionStep(kind="A", new_edge=9, endpoints=(u, v))
        G = apply_extension(b3, step)
        from cyclelattice.lattice_basis import semi_fundamental_basis

        basis, _ = semi_fundamental_basis(b3)
        new = extend_basis(b3, basis, step)
        assert len(new) == 1
        vectors = [{e: 1 for e in c} for c in basis.cycles] + [
            {e: 1 for e in c} for c in new
        ]
        M = IntegerMatrix.from_vectors(vectors, list(G.sorted_edges))
        assert abs(exact_determinant(M)) == 2  # n unchanged

    def test_determinant_multipliers(self, b3):
        from cyclelattice.lattice_basis import semi_fundamental_basis

        basis, _ = semi_fundamental_basis(b3)
        base_vectors = [{e: 1 for e in c} for c in basis.cycles]
        u, v = b3.vertices

        split = EdgeSplit(old=0, first=10, second=11, vertex=8)
        step_b = ExtensionStep(kind="B", new_edge=12, endpoints=(8, v), split_f=split)
        G = apply_extension(b3, step_b)
        new = extend_basis(b3, basis, step_b)
        assert len(new) == 2
        embedded = [embed_vector(step_b, EdgeVector(graph=b3, coords=vec), G).coords for vec in base_vectors]
        vectors = embedded + [{e: 1 for e in c} for c in new]
        M = IntegerMatrix.from_vectors(vectors, list(G.sorted_edges))
        assert abs(exact_determinant(M)) == 4  # previous det 2, multiplier 2

        split_f = EdgeSplit(old=0, first=10, second=11, vertex=8)
        split_g = EdgeSplit(old=1, first=12, second=13, vertex=9)
        step_c = ExtensionStep(
            kind="C", new_edge=14, endpoints=(8, 9), split_f=split_f, split_g=split_g
        )
        G = apply_extension(b3, step_c)
        new = extend_basis(b3, basis, step_c)
        assert len(new) == 3
        embedded = [embed_vector(step_c, EdgeVector(graph=b3, coords=vec), G).coords for vec in base_vectors]
        vectors = embedded + [{e: 1 for e in c} for c in new]
        M = IntegerMatrix.from_vectors(vectors, list(G.sorted_edges))
        assert abs(exact_determinant(M)) == 8  # previous det 2, multiplier 4

    def test_loop_extension_uses_loop_cycle(self, b3):
        u, _ = b3.vertices
        step = ExtensionStep(kind="A", new_edge=9, endpoints=(u, u))
        new = extend_basis(b3, None, step)
        assert new == [frozenset({9})]

    def test_new_cycles_are_cycles_of_extension(self, k4):
        from cyclelattice.lattice_basis import semi_fundamental_basis

        basis, _ = semi_fundamental_basis(k4)
        split_f = EdgeSplit(old=0, first=10, second=11, vertex=8)
        split_g = EdgeSplit(old=5, first=12, second=13, vertex=9)
        step = ExtensionStep(
            kind="C", new_edge=14, endpoints=(8, 9), split_f=split_f, split_g=split_g
        )
        G = apply_extension(k4, step)
        for cyc in extend_basis(k4, basis, step):
            assert is_simple_cycle(G, cyc)

    def test_tree_edges_give_the_chain_cycles(self, k4, b3):
        graphs = [k4, b3] + [gen(steps=20, seed=s, max_vertices=12) for s in range(8)]
        for G in graphs:
            chain = compatible_chain(G)
            for i, step in enumerate(chain.sequence.steps):
                H, basis = chain.graphs[i], chain.bases[i]
                new = extend_basis(H, basis, step, tree_edges=_tree_at(chain, i))
                assert new == list(chain.bases[i + 1].cycles[len(basis.cycles):]), i

    def test_tree_edges_not_spanning_rejected(self, k4):
        step = ExtensionStep(kind="A", new_edge=9, endpoints=(1, 4))
        assert extend_basis(k4, None, step, tree_edges=frozenset({0, 1, 2}))
        with pytest.raises(InternalError):
            extend_basis(k4, None, step, tree_edges=frozenset({0}))


def _tree_at(chain, i):
    """The chain's maintained tree before step i, in that graph's edge ids.

    A divided tree edge leaves both halves in the tree and a divided
    non-tree edge leaves its second half out, so an edge of graph i is a
    tree edge exactly when every edge it divides into ends in the final tree.
    """
    to_grown = {e: r for r, e in chain.sequence.edge_map.items()}
    final = {to_grown[e] for e in chain.tree.tree_edges}
    halves = {}
    for step in chain.sequence.steps[i:]:
        for split in step.splits():
            halves[split.old] = (split.first, split.second)

    def in_tree(e):
        return all(in_tree(h) for h in halves[e]) if e in halves else e in final

    return frozenset(e for e in chain.graphs[i].edges if in_tree(e))


@st.composite
def _path_queries(draw):
    """A multigraph with loops, parallel edges and often several components,
    as _bfs_path's adjacency, with two vertices and a random banned set."""
    n = draw(st.integers(1, 16))
    vertex = st.integers(0, n - 1)
    m = draw(st.integers(0, 3 * n))
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=m, max_size=m))
    adj = {v: {} for v in range(n)}
    for e, (u, v) in enumerate(edges):
        adj[u][e] = v
        adj[v][e] = u
    banned = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m // 3))
    return adj, edges, draw(vertex), draw(vertex), banned


class TestBfsPath:
    """The bidirectional search against networkx shortest paths."""

    @settings(max_examples=400)
    @given(_path_queries())
    def test_shortest_path_matches_networkx(self, query):
        nx = pytest.importorskip("networkx")
        adj, edges, s, t, banned = query
        path = topo_extension._bfs_path(adj, s, t, banned=banned)
        H = nx.MultiGraph()
        H.add_nodes_from(adj)
        H.add_edges_from(uv for e, uv in enumerate(edges) if e not in banned)
        if s == t:
            assert path == []
        elif not nx.has_path(H, s, t):
            assert path is None
        else:
            assert path is not None and len(path) == nx.shortest_path_length(H, s, t)
            x = s
            for e in path:
                u, v = edges[e]
                assert e not in banned and u != v and x in (u, v)
                x = v if x == u else u
            assert x == t


class TestCompatibleChain:
    def test_single_loop(self, loop_graph):
        chain = compatible_chain(loop_graph)
        assert len(chain.bases) == 2
        assert [sorted(c) for c in chain.final_basis.cycles] == [[0]]

    def test_b3_sizes_and_det(self, b3):
        chain = compatible_chain(b3)
        for H, basis in zip(chain.graphs, chain.bases):
            assert len(basis.cycles) == H.m
        det, ok = certify_cycle_basis(b3, chain.final_basis)
        assert ok and abs(det) == 2

    def test_k4_final(self, k4):
        chain = compatible_chain(k4)
        assert len(chain.final_basis.cycles) == 6
        det, ok = certify_cycle_basis(k4, chain.final_basis)
        assert ok and abs(det) == 8
        assert matches_all_cycles_lattice(k4, chain.final_basis.cycles)

    def test_nestedness(self, k4, b3):
        for G in (k4, b3):
            chain = compatible_chain(G)
            for i, step in enumerate(chain.sequence.steps):
                embedded = {embed_cycle(step, c) for c in chain.bases[i].cycles}
                assert embedded <= set(chain.bases[i + 1].cycles)

    def test_prefix_determinant_law(self, k4):
        chain = compatible_chain(k4)
        prev = 1
        for step, H, basis in zip(chain.sequence.steps, chain.graphs[1:], chain.bases[1:]):
            M = IntegerMatrix.from_vectors(
                [{e: 1 for e in c} for c in basis.cycles], list(H.sorted_edges)
            )
            det = abs(exact_determinant(M))
            assert det == 2 ** (H.n - 1)
            assert det == prev * {"A": 1, "B": 2, "C": 4}[step.kind]
            prev = det

    def test_tree_maintained(self, k4):
        chain = compatible_chain(k4)
        assert len(chain.tree.tree_edges) == k4.n - 1

    def test_without_prefixes(self, k4):
        chain = compatible_chain(k4, keep_prefixes=False)
        assert chain.bases == ()
        det, ok = certify_cycle_basis(k4, chain.final_basis)
        assert ok

    def test_random_corpus(self):
        for seed in range(10):
            G = gen(steps=3 + seed % 5, seed=seed + 100, max_vertices=9)
            chain = compatible_chain(G)
            det, ok = certify_cycle_basis(G, chain.final_basis)
            assert ok, seed
            for i, step in enumerate(chain.sequence.steps):
                embedded = {embed_cycle(step, c) for c in chain.bases[i].cycles}
                assert embedded <= set(chain.bases[i + 1].cycles), (seed, i)


class TestGen:
    def test_deterministic(self):
        a = gen(steps=7, seed=5)
        b = gen(steps=7, seed=5)
        assert a.edges == b.edges and a.vertices == b.vertices

    def test_always_three_edge_connected(self):
        for seed in range(20):
            assert is_three_edge_connected(gen(steps=5, seed=seed))

    def test_max_vertices_respected(self):
        for seed in range(10):
            assert gen(steps=12, seed=seed, max_vertices=6).n <= 6

    def test_size_arithmetic(self):
        G = gen(steps=9, seed=3)
        assert G.m - G.n == 9 - 1


def _chain_digest(G):
    """sha256 of the sequence, the sorted cycles with provenance, the tree."""
    chain = compatible_chain(G, keep_prefixes=False)
    doc = {
        "sequence": chain.sequence.to_json(),
        "cycles": sorted((sorted(c), tag.label()) for c, tag in chain.final_basis.entries()),
        "tree": sorted(chain.tree.tree_edges),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _gen_digest(G):
    doc = {
        "vertices": list(G.vertices),
        "edges": sorted([e, list(uv)] for e, uv in G.edges.items()),
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


class TestGolden:
    """Pinned outputs.  The `gen` digests date from the construction that
    rebuilt a graph per step; the chain digests from the bidirectional
    shortest-path search, whose ties differ from the one-sided BFS before it."""

    @pytest.mark.parametrize(
        "steps, seed, max_vertices, kind_weights, m, digest",
        [
            (30, 1, None, (1.0, 1.0, 1.0), 60, "31df4e57f029553d9d757dd972463f32e44129a0c59c8fb68a0baf2d443ce0eb"),
            (60, 2, 25, (1.0, 1.0, 1.0), 84, "1a4a2368d80b1c78dc2c0cd71d6a2451545c8fee7e7defa0cd9b5251929629ec"),
            (100, 3, None, (1.0, 2.0, 3.0), 245, "100e86ad23edeb6d0ad5a7ffce94f8dcd656fe91a9994ea066306b8218687ed2"),
            (200, 4, 80, (1.0, 1.0, 1.0), 279, "856be0c2f216430b2f47ba0398cc0ba80a79f76bf229869c0b0313dd93f90836"),
            (401, 5, 200, (3.0, 1.0, 1.0), 600, "dabcc74e22c6f1f1cc20c28a87875e0494b6b585306bbc58c0af0f2f4265ef2f"),
            (2001, 0, 1000, (1.0, 1.0, 1.0), 3000, "606d79b05a34a2c3b11c6d7022ad4fc8e26f4f2af5f391b210eafaa12bfec016"),
        ],
    )
    def test_compatible_chain(self, steps, seed, max_vertices, kind_weights, m, digest):
        G = gen(steps, seed, max_vertices=max_vertices, kind_weights=kind_weights)
        assert G.m == m
        assert _chain_digest(G) == digest

    @pytest.mark.parametrize(
        "steps, seed, max_vertices, kind_weights, m, digest",
        [
            (50, 11, None, (1.0, 1.0, 1.0), 87, "fd02ece408cf4f02a49a81d46ef33c5a172983dc51f98fa230c1ee136fa940a5"),
            (300, 12, 100, (1.0, 1.0, 1.0), 399, "55922bedf1983dba50dfb45befbc386e80435098d198133efdcb1080c600c75b"),
            (300, 13, None, (0.5, 2.0, 1.0), 646, "c09808fa32867821fc80ea9afc072c6a65d123227f4cd71764cbd2021db921c9"),
            (500, 14, 120, (1.0, 0.0, 4.0), 618, "57b8991e3f8a99bb581262a915e236d0ea82ce73f69f4a7c2ba81bad107d2a08"),
        ],
    )
    def test_gen(self, steps, seed, max_vertices, kind_weights, m, digest):
        G = gen(steps, seed, max_vertices=max_vertices, kind_weights=kind_weights)
        assert G.m == m
        assert _gen_digest(G) == digest


def test_no_rebuild_per_step(monkeypatch):
    """The chain and gen grow one graph in place: no apply_extension call,
    and as many Multigraph constructions at 60 edges as at 600."""
    original_apply = topo_extension.apply_extension
    original_init = Multigraph.__post_init__
    counts = {"apply": 0, "multigraph": 0}

    def counted_apply(*args, **kwargs):
        counts["apply"] += 1
        return original_apply(*args, **kwargs)

    def counted_init(self):
        counts["multigraph"] += 1
        original_init(self)

    monkeypatch.setattr(topo_extension, "apply_extension", counted_apply)
    monkeypatch.setattr(Multigraph, "__post_init__", counted_init)
    built = []
    for steps in (41, 401):
        counts.update(apply=0, multigraph=0)
        G = gen(steps, 7, max_vertices=steps // 2)
        in_gen = counts["multigraph"]
        compatible_chain(G, keep_prefixes=False)
        assert counts["apply"] == 0
        built.append((in_gen, counts["multigraph"] - in_gen))
    assert built[0] == built[1], built
