import hashlib
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclelattice.cycle_structure import is_simple_cycle, is_three_edge_connected
from cyclelattice.errors import ArgumentError, InternalError, StructureError
from cyclelattice.certificate import certify_cycle_basis
from cyclelattice.lattice_basis import matches_all_cycles_lattice
from cyclelattice import certificate, topo_extension
from cyclelattice.multigraph import Multigraph, parse_edge_list, spanning_forest
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

    def test_grown_graph_copies_its_input(self, b3):
        """A graph grown by a kind-B and a kind-C step keeps its own incidence
        dicts: the cached incidence of the graph it started from is left
        exactly as it was, in content and order."""
        before = [list(d.items()) for d in b3.incidence.values()]
        grown = topo_extension._GrownGraph(b3)
        u = b3.vertices[0]
        grown.apply(ExtensionStep("B", 12, (8, u), EdgeSplit(0, 10, 11, 8)))
        grown.apply(ExtensionStep("C", 17, (9, 20), EdgeSplit(1, 13, 14, 9), EdgeSplit(10, 15, 16, 20)))
        assert [list(d.items()) for d in b3.incidence.values()] == before
        assert grown.incidence[u] == {2: 2, 12: 8, 13: 9, 15: 20}

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
        """The new edge reads 0: it is absent from the image."""
        step = ExtensionStep(kind="A", new_edge=9, endpoints=(b3.vertices[0], b3.vertices[1]))
        assert embed_vector(step, {0: 1, 1: 1, 2: 0}) == {0: 1, 1: 1, 2: 0}

    def test_kind_b_duplicates(self, b3):
        split = EdgeSplit(old=0, first=10, second=11, vertex=8)
        step = ExtensionStep(kind="B", new_edge=12, endpoints=(8, b3.vertices[0]), split_f=split)
        y = embed_vector(step, {0: 1, 1: 0, 2: 0})
        assert y == {10: 1, 11: 1, 1: 0, 2: 0}

    def test_kind_c_zero_maps_to_zero(self, b3):
        split_f = EdgeSplit(old=0, first=10, second=11, vertex=8)
        split_g = EdgeSplit(old=1, first=12, second=13, vertex=9)
        step = ExtensionStep(
            kind="C", new_edge=14, endpoints=(8, 9), split_f=split_f, split_g=split_g
        )
        assert embed_vector(step, {}) == {}
        assert not any(embed_vector(step, {0: 0, 1: 0, 2: 0}).values())

    def test_nonzero_entry_at_a_created_id_is_refused(self, b3):
        """The new edge and the halves are ids the step creates, so a vector
        over the graph before it cannot carry them; a zero there reads 0."""
        split = EdgeSplit(old=0, first=10, second=11, vertex=8)
        step = ExtensionStep(kind="B", new_edge=12, endpoints=(8, b3.vertices[0]), split_f=split)
        assert embed_vector(step, {0: 3, 12: 0}) == {10: 3, 11: 3}
        for e in (10, 11, 12):
            with pytest.raises(ArgumentError, match=f"nonzero entry at edge {e}, which the step"):
                embed_vector(step, {0: 1, e: 2})

    @given(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    )
    def test_linearity(self, a, b):
        G = parse_edge_list("2 3\nu v\nu v\nu v\n")
        split = EdgeSplit(old=0, first=10, second=11, vertex=8)
        step = ExtensionStep(kind="B", new_edge=12, endpoints=(8, G.vertices[0]), split_f=split)
        order = list(G.sorted_edges)
        xa, xb = dict(zip(order, a)), dict(zip(order, b))
        ya, yb = embed_vector(step, xa), embed_vector(step, xb)
        total = {e: xa[e] + xb[e] for e in order}
        assert embed_vector(step, total) == {e: ya[e] + yb[e] for e in ya}
        assert set(ya) == set(apply_extension(G, step).edges) - {step.new_edge}

    def test_agrees_with_embed_cycle_along_chains(self, k4, b3):
        """The two embeddings of one linear map agree on every cycle of every
        prefix basis of a few chains, kinds A, B and C all taken."""
        kinds = set()
        for G in [k4, b3] + [gen(steps=15, seed=s, max_vertices=8) for s in range(4)]:
            chain = compatible_chain(G)
            for step, basis in zip(chain.sequence.steps, chain.bases):
                kinds.add(step.kind)
                for c in basis.cycles:
                    image = dict.fromkeys(embed_cycle(step, c), 1)
                    assert embed_vector(step, dict.fromkeys(c, 1)) == image
        assert kinds == {"A", "B", "C"}

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

    def test_path_left_as_a_longer_grown_edge_names_it(self, c3):
        # the unchecked builder on a cycle covers it with one path, which no
        # later step divides
        with pytest.raises(InternalError) as err:
            topo_extension._SequenceBuilder(c3).build()
        assert str(err.value) == "grown edge 0 still represents a path of 3 edges"

    def test_missing_extension_path_names_the_coverage_and_steps(self, k4, monkeypatch):
        # no input reaches it: a 3-edge-connected graph always has a path
        monkeypatch.setattr(topo_extension._SequenceBuilder, "_find_path", lambda self: None)
        with pytest.raises(InternalError) as err:
            extension_sequence(k4)
        assert str(err.value) == (
            "no admissible extension path with 3 of m=6 edges covered (steps emitted so far: 1)"
        )

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
        embedded = [embed_vector(step_b, vec) for vec in base_vectors]
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
        embedded = [embed_vector(step_c, vec) for vec in base_vectors]
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
        """Edges that are not one spanning tree of K4, too few, closing a
        cycle, or naming an edge K4 lacks, are refused as the caller's
        error, not walked as a tree."""
        step = ExtensionStep(kind="A", new_edge=9, endpoints=(1, 4))
        assert extend_basis(k4, None, step, tree_edges=frozenset({0, 1, 2}))
        for edges in ({0}, {0, 1, 2, 3}, {0, 1, 3}, {0, 1, 99}):
            with pytest.raises(ArgumentError, match="not one spanning tree"):
                extend_basis(k4, None, step, tree_edges=frozenset(edges))

    def test_a_step_that_does_not_apply_is_refused(self, k4):
        """Each step is refused with apply_extension's message before any
        route is read: a missing endpoint or divided edge, and a new edge,
        split vertex or half that K4 already has."""
        cases = [
            (ExtensionStep("A", 9, (1, 77)), "kind A: endpoint 77 does not exist"),
            (
                ExtensionStep("B", 12, (8, 1), EdgeSplit(77, 10, 11, 8)),
                "split references unknown edge 77",
            ),
            (ExtensionStep("A", 0, (1, 2)), "new edge id 0 already exists"),
            (
                ExtensionStep("B", 12, (2, 1), EdgeSplit(5, 10, 11, 2)),
                "split vertex 2 already exists",
            ),
            (
                ExtensionStep("B", 12, (8, 1), EdgeSplit(5, 0, 1, 8)),
                "new edge id 0 already exists",
            ),
        ]
        for step, message in cases:
            with pytest.raises(ArgumentError, match=f"^{message}$"):
                apply_extension(k4, step)
            for tree_edges in (None, frozenset({0, 1, 2})):
                with pytest.raises(ArgumentError, match=f"^{message}$"):
                    extend_basis(k4, None, step, tree_edges=tree_edges)


def _tree_at(chain, i):
    """The chain's maintained tree before step i, in that graph's edge ids:
    the chain's own tree helper, driven over the replayed graphs."""
    tree = topo_extension._ChainTree(chain.graphs[0].vertices[0])
    for k, step in enumerate(chain.sequence.steps[:i]):
        tree.follow(topo_extension._GrownGraph(chain.graphs[k + 1]), step)
    return frozenset(up[1] for up in tree.parent.values() if up is not None)


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

    @settings(max_examples=200)
    @given(_path_queries())
    def test_incidence_pairs_give_the_same_path(self, query):
        """The search walks Multigraph.incidence, as the sequence builder
        hands it over, in the order it walks the dict of the same graph."""
        adj, edges, s, t, banned = query
        G = Multigraph(vertices=tuple(adj), edges=dict(enumerate(edges)))
        expected = topo_extension._bfs_path(adj, s, t, banned=banned)
        assert topo_extension._bfs_path(G.incidence, s, t, banned=banned) == expected


class TestCompatibleChain:
    def test_cycles_of_one_step_share_its_tag(self):
        G = gen(40, 3, max_vertices=12)
        chain = compatible_chain(G)
        tags = chain.final_basis.provenance
        assert len(tags) == G.m
        for step in range(len(chain.sequence.steps)):
            at_step = [tag for tag in tags if tag.step == step]
            assert len(at_step) == "ABC".index(chain.sequence.steps[step].kind) + 1
            assert all(tag is at_step[0] for tag in at_step)
        for basis in chain.bases[1:]:
            assert basis.provenance == tags[: len(basis.provenance)]

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
        assert matches_all_cycles_lattice(k4, chain.final_basis.vectors())

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
        assert len(chain.final_basis.tree.tree_edges) == k4.n - 1

    def test_without_prefixes(self, k4):
        chain = compatible_chain(k4, keep_prefixes=False)
        assert chain.bases == ()
        det, ok = certify_cycle_basis(k4, chain.final_basis)
        assert ok

    def test_random_corpus(self):
        inputs = [gen(steps=3 + seed % 5, seed=seed + 100, max_vertices=9) for seed in range(10)]
        # mostly kind C (m about 3 * steps) and mostly kind A (m about steps)
        for weights, steps in (((0.01, 1, 100), 200), ((100, 1, 0.01), 600)):
            inputs += [gen(steps // k, seed, kind_weights=weights) for seed, k in ((1, 8), (2, 1))]
        for seed, G in enumerate(inputs):
            chain = compatible_chain(G)
            final = chain.final_basis
            det, ok = certify_cycle_basis(G, final)
            assert ok, seed
            for i, step in enumerate(chain.sequence.steps):
                embedded = {embed_cycle(step, c) for c in chain.bases[i].cycles}
                assert embedded <= set(chain.bases[i + 1].cycles), (seed, i)
            # the image map against the replay through embed_cycle
            em, last = chain.sequence.edge_map, chain.bases[-1]
            assert final.cycles == tuple(frozenset(em[x] for x in c) for c in last.cycles), seed
            assert final.provenance == last.provenance, seed
            bare = compatible_chain(G, keep_prefixes=False).final_basis
            assert (bare.cycles, bare.provenance) == (final.cycles, final.provenance), seed

    def test_memory_of_the_chain(self):
        """Without prefixes the chain holds each cycle once, translated into
        target ids at the step that adds it, and builds no grown-id copy: its
        peak stays under that of a chain holding both (5.2 MiB here)."""
        G = gen(2001, 7, max_vertices=1000)
        seq = extension_sequence(G)
        tracemalloc.start()
        try:
            chain = topo_extension._chain_3ec(G, False, seq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(chain.final_basis.cycles) == G.m
        assert chain.added == ()
        assert peak < 4.5 * 2**20, peak


class TestChainRoutes:
    """Routes read off the chain's tree, rebuilt as the graph grows, with a
    shortest path only where the tree path crosses a divided edge."""

    # gen's kind weights even, all B, all C (but the first step, a loop) and
    # mostly A, with no vertex cap; then loop-heavy instances on one to
    # three vertices, where gen's steps are of kind A and many close a loop
    CORPUS = [
        *((40 + 20 * seed, seed, None, weights) for seed, weights in enumerate(
            [(1.0, 1.0, 1.0), (1e-9, 1.0, 0.0), (1e-9, 0.0, 1.0), (5.0, 1.0, 1.0)] * 3
        )),
        *((40 + 10 * seed, 50 + seed, 1 + seed % 3, (1.0, 1.0, 1.0)) for seed in range(6)),
    ]

    def test_corpus_certifies_on_the_chain_path(self, monkeypatch):
        def no_generic_path(*args):
            raise AssertionError("generic path taken")

        monkeypatch.setattr(certificate, "_generic_determinant", no_generic_path)
        kinds = set()
        for steps, seed, max_vertices, weights in self.CORPUS:
            G = gen(steps, seed, max_vertices=max_vertices, kind_weights=weights)
            chain = compatible_chain(G, keep_prefixes=False)
            kinds |= {step.kind for step in chain.sequence.steps}
            final = chain.final_basis
            assert all(is_simple_cycle(G, c) for c in final.cycles), (steps, seed)
            assert certify_cycle_basis(G, final) == (2 ** (G.n - 1), True), (steps, seed)
        assert kinds == {"A", "B", "C"}

    def test_rebuilt_tree_is_the_bfs_forest_of_the_grown_graph(self, monkeypatch):
        """A rebuild runs bfs_parents on the grown graph, which it reads as
        it reads the Multigraph the grown graph freezes to: the rebuilt map
        is that graph's spanning_forest parent map, keys in the same order."""
        rebuilds = []
        follow = topo_extension._ChainTree.follow

        def watched(tree, grown, step):
            before = tree.rebuilt_at
            follow(tree, grown, step)
            if tree.rebuilt_at != before:
                F = spanning_forest(grown.freeze(), prefer_root=tree.root)
                rebuilds.append(list(tree.parent.items()) == list(F.parents.items()))

        monkeypatch.setattr(topo_extension._ChainTree, "follow", watched)
        for steps, seed, max_vertices, weights in self.CORPUS:
            G = gen(steps, seed, max_vertices=max_vertices, kind_weights=weights)
            compatible_chain(G, keep_prefixes=False)
        assert len(rebuilds) > len(self.CORPUS) and all(rebuilds)

    @pytest.mark.parametrize("gap", [topo_extension.RANK_GAP, 1, 2])
    def test_rank_grows_along_every_parent_edge(self, monkeypatch, gap):
        """After every follow, each vertex of the tree has a rank, and it
        ranks strictly above its parent, so tree_paths may walk by it."""
        checked = []
        follow = topo_extension._ChainTree.follow

        def watched(tree, grown, step):
            follow(tree, grown, step)
            assert tree.rank.keys() == tree.parent.keys()
            for v, up in tree.parent.items():
                assert up is None or tree.rank[up[0]] < tree.rank[v], (v, up)
            checked.append(step.kind)

        monkeypatch.setattr(topo_extension, "RANK_GAP", gap)
        monkeypatch.setattr(topo_extension._ChainTree, "follow", watched)
        for steps, seed, max_vertices, weights in self.CORPUS:
            G = gen(steps, seed, max_vertices=max_vertices, kind_weights=weights)
            compatible_chain(G, keep_prefixes=False)
        assert set(checked) == {"A", "B", "C"}

    def test_shortest_paths_only_as_a_fallback(self, monkeypatch):
        """At m = 3000, against the shortest-path routes before: 1925
        searches and 33 232 edges in all."""
        G = gen(2001, 0, max_vertices=1000)
        calls = []
        search = topo_extension._bfs_path

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(topo_extension, "_bfs_path", counted)
        chain = compatible_chain(G, keep_prefixes=False)
        assert len(calls) <= 400
        assert sum(map(len, chain.final_basis.cycles)) <= 33232

    def test_errors_name_the_step(self, monkeypatch):
        G = gen(120, 3, max_vertices=50)
        seq = extension_sequence(G)
        graphs = seq.replay()
        monkeypatch.setattr(topo_extension, "_bfs_path", lambda *args, **kwargs: None)
        with pytest.raises(InternalError) as caught:
            topo_extension._chain_3ec(G, False, seq)
        message = str(caught.value)
        i = int(message.split(" at step ")[1].split()[0])
        step, H = seq.steps[i], graphs[i]
        a, b = step.endpoints
        assert step.kind in "BC"
        assert f"step {i} (kind {step.kind}, endpoints {a}, {b}) on a grown graph " in message
        assert message.endswith(f"with n={H.n}, m={H.m}")
        # with no tree a kind-A route is a search too, so it fails the same way
        j = next(
            k for k, x in enumerate(seq.steps) if x.kind == "A" and len(set(x.endpoints)) == 2
        )
        with pytest.raises(InternalError, match=r"at the step \(kind A, .* n=\d+, m=\d+$"):
            extend_basis(graphs[j], None, seq.steps[j])


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

    @pytest.mark.parametrize("bound", [0, -3])
    def test_max_vertices_below_one_is_refused(self, bound):
        with pytest.raises(ArgumentError, match="max_vertices"):
            gen(steps=5, seed=1, max_vertices=bound)

    def test_size_arithmetic(self):
        G = gen(steps=9, seed=3)
        assert G.m - G.n == 9 - 1


def _chain_digest(G):
    """sha256 of the sequence, the sorted cycles with provenance, the tree."""
    chain = compatible_chain(G, keep_prefixes=False)
    doc = {
        "sequence": chain.sequence.to_json(),
        "cycles": sorted((sorted(c), tag.label()) for c, tag in chain.final_basis.entries()),
        "tree": sorted(chain.final_basis.tree.tree_edges),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _sequence_digest(G):
    """sha256 of the extension sequence alone."""
    sequence = compatible_chain(G, keep_prefixes=False).sequence.to_json()
    return hashlib.sha256(
        json.dumps(sequence, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _gen_digest(G):
    doc = {
        "vertices": list(G.vertices),
        "edges": sorted([e, list(uv)] for e, uv in G.edges.items()),
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _golden(steps, seed, max_vertices, kind_weights, m, digest):
    """A pinned case whose id names the instance, so re-recording the
    digest keeps the test's name."""
    return pytest.param(
        steps, seed, max_vertices, kind_weights, m, digest, id=f"steps{steps}-seed{seed}"
    )


class TestGolden:
    """Pinned outputs.  The `gen` digests date from the construction that
    rebuilt a graph per step; the chain digests from the routes read off the
    chain's rebuilt tree, with a shortest path only where that tree's path
    crosses a divided edge.  The sequence digests are older than both."""

    CHAINS = [
        _golden(30, 1, None, (1.0, 1.0, 1.0), 60, "fc8a547a053b0db06ed7f46b01786303878e1abf03fc725e0586a9e01401355f"),
        _golden(60, 2, 25, (1.0, 1.0, 1.0), 84, "f1a0dee8655998dd4063b508c2c70efaad403dcb61b4ae75b68ca56f9e058d64"),
        _golden(100, 3, None, (1.0, 2.0, 3.0), 245, "50ff367eb3b5f52df3e539164b626a2ff510a44fe534c54d08ea33f79a2464e8"),
        _golden(200, 4, 80, (1.0, 1.0, 1.0), 279, "158b0bc8ea5b5a2c804675ad4b5e2a7495fee044a3877a18acd1a44b5fea86ab"),
        _golden(401, 5, 200, (3.0, 1.0, 1.0), 600, "64142d31ef02cfd7b9415573d9d6051bc1190dd1ea94cd51d21d2fcd6068edbf"),
        _golden(2001, 0, 1000, (1.0, 1.0, 1.0), 3000, "2ab4f2795e467b841e9f5281ec327514b7367f66534b033fbf3e5affd8943aef"),
    ]

    @pytest.mark.parametrize("steps, seed, max_vertices, kind_weights, m, digest", CHAINS)
    def test_compatible_chain(self, steps, seed, max_vertices, kind_weights, m, digest):
        G = gen(steps, seed, max_vertices=max_vertices, kind_weights=kind_weights)
        assert G.m == m
        assert _chain_digest(G) == digest

    @pytest.mark.parametrize("steps, seed, max_vertices, kind_weights, m, digest", CHAINS)
    def test_compatible_chain_when_every_split_reranks(
        self, monkeypatch, steps, seed, max_vertices, kind_weights, m, digest
    ):
        """With a rank gap of 1 no integer lies between a tree edge's ends,
        so every divided tree edge recomputes the ranks from the same
        parent map, and the chain is unchanged."""
        monkeypatch.setattr(topo_extension, "RANK_GAP", 1)
        G = gen(steps, seed, max_vertices=max_vertices, kind_weights=kind_weights)
        assert _chain_digest(G) == digest

    @pytest.mark.parametrize(
        "steps, seed, max_vertices, kind_weights, m, digest",
        [
            _golden(30, 1, None, (1.0, 1.0, 1.0), 60, "4e4b62b44867a627c02305d17b64a64e739fc51d71ad2b38fa81b826dec00256"),
            _golden(60, 2, 25, (1.0, 1.0, 1.0), 84, "d1318448878fe711e6646b7bef69111624feac3e0ad352c6e6a12cd82321432a"),
            _golden(100, 3, None, (1.0, 2.0, 3.0), 245, "c11f73b18c4e929dfcfbb846c4f02818cda9bab1ee0491bf7ec7c92fe99c517e"),
            _golden(200, 4, 80, (1.0, 1.0, 1.0), 279, "4a0cd7b88e8b11573599932ac4b3a75970cec886e7fd89381d7943bee361524f"),
            _golden(401, 5, 200, (3.0, 1.0, 1.0), 600, "6df3c6e84fbbf344faedc0b385c6144829befb719021c01f680a5fc40c71a6c3"),
            _golden(2001, 0, 1000, (1.0, 1.0, 1.0), 3000, "d9a91183eaf82e962926b24967befca1f570cecb2a9565eae795740b101b8dc5"),
        ],
    )
    def test_sequence(self, steps, seed, max_vertices, kind_weights, m, digest):
        """The sequence alone, recorded before the chain's routes moved onto
        its rebuilt tree: the routes change the cycles, never the sequence."""
        G = gen(steps, seed, max_vertices=max_vertices, kind_weights=kind_weights)
        assert G.m == m
        assert _sequence_digest(G) == digest

    @pytest.mark.parametrize(
        "steps, seed, max_vertices, kind_weights, m, digest",
        [
            _golden(50, 11, None, (1.0, 1.0, 1.0), 87, "fd02ece408cf4f02a49a81d46ef33c5a172983dc51f98fa230c1ee136fa940a5"),
            _golden(300, 12, 100, (1.0, 1.0, 1.0), 399, "55922bedf1983dba50dfb45befbc386e80435098d198133efdcb1080c600c75b"),
            _golden(300, 13, None, (0.5, 2.0, 1.0), 646, "c09808fa32867821fc80ea9afc072c6a65d123227f4cd71764cbd2021db921c9"),
            _golden(500, 14, 120, (1.0, 0.0, 4.0), 618, "57b8991e3f8a99bb581262a915e236d0ea82ce73f69f4a7c2ba81bad107d2a08"),
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
