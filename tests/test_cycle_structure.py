import tracemalloc
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclelattice.cycle_structure import (
    bridges_and_series_classes,
    cosimplify,
    fundamental_cycle_matrix,
    is_simple_cycle,
    is_three_edge_connected,
    three_edge_connectivity_witness,
)
from cyclelattice.errors import StructureError
from cyclelattice.multigraph import (
    Multigraph,
    SpanningForest,
    VertexUnion,
    forest_from_edges,
    parse_edge_list,
    spanning_forest,
)
from cyclelattice.oracle import enumerate_cycles
from cyclelattice.topo_extension import gen


class TestFundamentalCycleMatrix:
    def test_k4_star_column(self, k4):
        T = spanning_forest(k4)
        fcm = fundamental_cycle_matrix(k4, T)
        assert fcm.columns[3] == frozenset({0, 1})  # 2-1-3 through the root
        assert fcm.columns[4] == frozenset({0, 2})
        assert fcm.columns[5] == frozenset({1, 2})

    def test_b3_columns(self, b3):
        T = spanning_forest(b3)
        fcm = fundamental_cycle_matrix(b3, T)
        assert fcm.columns[1] == frozenset({0})
        assert fcm.columns[2] == frozenset({0})

    def test_loop_zero_column(self, loop_graph):
        T = spanning_forest(loop_graph)
        fcm = fundamental_cycle_matrix(loop_graph, T)
        assert fcm.columns[0] == frozenset()
        assert fcm.cycle_edges(0) == frozenset({0})

    def test_duality_rows_columns(self, k4, tri_pendant):
        for G in (k4, tri_pendant):
            T = spanning_forest(G)
            fcm = fundamental_cycle_matrix(G, T)
            for t in T.tree_edges:
                for e in fcm.columns:
                    assert (t in fcm.columns[e]) == (e in fcm.rows[t])

    def test_columns_are_cycles(self, k4, b3, tri_pendant):
        for G in (k4, b3, tri_pendant):
            fcm = fundamental_cycle_matrix(G, spanning_forest(G))
            for e in fcm.columns:
                assert is_simple_cycle(G, fcm.cycle_edges(e))

    def test_per_component_forest(self):
        G = parse_edge_list("6 6\n1 2\n2 3\n3 1\n4 5\n5 6\n6 4\n")
        fcm = fundamental_cycle_matrix(G, spanning_forest(G))
        assert len(fcm.columns) == 2


class TestBridgesAndSeries:
    def test_triangle_single_class(self, c3):
        part = bridges_and_series_classes(c3)
        assert not part.bridges
        assert part.classes == (frozenset({0, 1, 2}),)

    def test_bridge_only(self, p2):
        part = bridges_and_series_classes(p2)
        assert part.bridges == frozenset({0})
        assert part.classes == ()

    def test_k4_singletons(self, k4):
        part = bridges_and_series_classes(k4)
        assert not part.bridges
        assert sorted(map(sorted, part.classes)) == [[0], [1], [2], [3], [4], [5]]

    def test_loops_are_singleton_classes(self, two_loops):
        part = bridges_and_series_classes(two_loops)
        assert not part.bridges
        assert sorted(map(sorted, part.classes)) == [[0], [1]]

    def test_matches_brute_force_on_small_graphs(self):
        texts = [
            "3 3\n1 2\n2 3\n3 1\n",
            "4 4\n1 2\n2 3\n3 1\n3 4\n",
            "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n",
            "2 3\nu v\nu v\nu v\n",
            "4 5\n1 2\n2 3\n3 4\n4 1\n1 3\n",
            "3 4\n1 2\n1 2\n2 3\n2 3\n",
        ]
        for text in texts:
            G = parse_edge_list(text)
            assert G.m <= 8
            cycles = enumerate_cycles(G)
            by_edge = {
                e: frozenset(i for i, c in enumerate(cycles) if e in c)
                for e in G.edges
            }
            expected_bridges = {e for e, s in by_edge.items() if not s}
            groups: dict[frozenset, set] = {}
            for e, s in by_edge.items():
                if s:
                    groups.setdefault(s, set()).add(e)
            expected_classes = sorted(map(sorted, groups.values()))
            part = bridges_and_series_classes(G)
            assert part.bridges == frozenset(expected_bridges), text
            assert sorted(map(sorted, part.classes)) == expected_classes, text


@st.composite
def rough_multigraphs(draw):
    """Multigraphs of one to three parts, each a random core with loops and
    parallel classes, some edges subdivided into long paths, and pendant
    trees hung off it; isolated vertices may be added."""
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(draw(st.integers(1, 3))):
        core = list(range(n, n + draw(st.integers(1, 5))))
        n += len(core)
        part: list[tuple[int, int]] = []
        for _ in range(draw(st.integers(0, 7))):
            uv = (draw(st.sampled_from(core)), draw(st.sampled_from(core)))
            part += [uv] * draw(st.integers(1, 3))
        for _ in range(draw(st.integers(0, 2))):
            if not part:
                break
            u, v = part.pop(draw(st.integers(0, len(part) - 1)))
            inner = list(range(n, n + draw(st.integers(1, 5))))
            n += len(inner)
            path = [u, *inner, v]
            part += list(zip(path, path[1:]))
        grown = list(core)
        for _ in range(draw(st.integers(0, 4))):
            part.append((draw(st.sampled_from(grown)), n))
            grown.append(n)
            n += 1
        edges += part
    n += draw(st.integers(0, 2))
    return Multigraph(vertices=tuple(range(n)), edges=dict(enumerate(edges)))


def _component_count(G, deleted):
    root = {v: v for v in G.vertices}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    count = G.n
    for e, (u, v) in G.edges.items():
        if e not in deleted and find(u) != find(v):
            root[find(u)] = find(v)
            count -= 1
    return count


class TestDifferentialOracles:
    """bridges_and_series_classes against networkx and brute-force cuts."""

    @settings(max_examples=150)
    @given(rough_multigraphs())
    def test_bridges_match_networkx(self, G):
        nx = pytest.importorskip("networkx")
        H = nx.MultiGraph()
        H.add_nodes_from(G.vertices)
        H.add_edges_from((u, v, e) for e, (u, v) in G.edges.items())
        expected = {e for u, v in nx.bridges(H) for e in H[u][v]}
        assert bridges_and_series_classes(G).bridges == frozenset(expected)

    @settings(max_examples=150)
    @given(rough_multigraphs())
    def test_series_classes_are_the_two_edge_cuts(self, G):
        part = bridges_and_series_classes(G)
        class_of = {e: cls for cls in part.classes for e in cls}
        assert set(class_of) == set(G.edges) - part.bridges
        assert sum(map(len, part.classes)) == len(class_of)
        base = _component_count(G, set())
        candidates = [e for e in class_of if not G.is_loop(e)]
        for e, f in combinations(candidates, 2):
            splits = _component_count(G, {e, f}) > base
            assert (class_of[e] is class_of[f]) == splits, (e, f)
        assert all(len(class_of[e]) == 1 for e in class_of if G.is_loop(e))


@st.composite
def forested_multigraphs(draw):
    """A rough multigraph with up to two long subdivided cycles, each joined
    to the rest by at most one edge, and a random spanning forest of it."""
    G = draw(rough_multigraphs())
    edges = list(G.edges.values())
    n = G.n
    for _ in range(draw(st.integers(0, 2))):
        ring = list(range(n, n + draw(st.integers(3, 400))))
        n += len(ring)
        edges += zip(ring, ring[1:] + ring[:1])
        if draw(st.booleans()):
            edges.append((draw(st.integers(0, G.n - 1)), draw(st.sampled_from(ring))))
    H = Multigraph(vertices=tuple(range(n)), edges=dict(enumerate(edges)))
    blocks = VertexUnion(H.vertices)
    order = draw(st.permutations(H.sorted_edges))
    forest = forest_from_edges(H, [e for e in order if blocks.union(*H.edges[e])])
    assert forest is not None
    return H, forest


def _forest_path(G, T, u, v):
    """Edge set of the u-v path found by a BFS over T's edges alone."""
    adj = {x: [] for x in G.vertices}
    for t in T.tree_edges:
        a, b = G.edges[t]
        adj[a].append((t, b))
        adj[b].append((t, a))
    via = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for t, y in adj[x]:
            if y not in via:
                via[y] = (x, t)
                queue.append(y)
    path = set()
    while via[v] is not None:
        v, t = via[v]
        path.add(t)
    return frozenset(path)


class TestColumnsFromTreePaths:
    """fundamental_cycle_matrix against an independent search in the forest."""

    @settings(max_examples=100)
    @given(forested_multigraphs())
    def test_columns_are_the_forest_paths(self, GT):
        G, T = GT
        fcm = fundamental_cycle_matrix(G, T)
        assert set(fcm.columns) == set(G.edges) - T.tree_edges
        for e, col in fcm.columns.items():
            assert col == _forest_path(G, T, *G.edges[e]), e

    @pytest.mark.parametrize(
        "tree, roots",
        [
            ({0, 1}, (1, 3)),  # two trees, and edge 2 runs between them
            ({0, 2}, (1,)),  # vertex 4, an end of edge 1, is never reached
            ({0}, (1,)),  # vertices 3 and 4, both ends of edge 1, are never reached
        ],
    )
    def test_unjoined_non_tree_edge_rejected(self, tree, roots):
        G = parse_edge_list("4 3\n1 2\n3 4\n2 3\n")
        with pytest.raises(StructureError, match="joins different forest components"):
            fundamental_cycle_matrix(G, SpanningForest(G, frozenset(tree), roots))

    def test_memory_stays_linear_on_a_deep_tree(self):
        n = 8000
        G = Multigraph(vertices=tuple(range(n)), edges={i: (i, (i + 1) % n) for i in range(n)})
        T = spanning_forest(G)
        tracemalloc.start()
        try:
            fcm = fundamental_cycle_matrix(G, T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fcm.columns == {n // 2: frozenset(G.edges) - {n // 2}}
        assert peak < 16 * 2**20, peak


class TestCosimplify:
    def test_triangle_collapses_to_loop(self, c3):
        cos = cosimplify(c3)
        assert cos.hat_graph.n == 1
        assert cos.hat_graph.m == 1
        (e,) = cos.hat_graph.edges
        assert cos.hat_graph.is_loop(e)
        assert all(cos.projection[x] == e for x in c3.edges)
        assert cos.section[e] == frozenset({0, 1, 2})

    def test_k4_unchanged(self, k4):
        cos = cosimplify(k4)
        assert cos.hat_graph.m == 6
        assert all(cos.projection[e] == e for e in k4.edges)

    def test_bridge_projects_to_epsilon(self, p2):
        cos = cosimplify(p2)
        assert cos.hat_graph.m == 0
        assert cos.hat_graph.n == 2
        assert cos.projection[0] is None

    def test_forest_aware_contraction_uses_tree_edges_only(self, c3):
        T = spanning_forest(c3)
        cos = cosimplify(c3, forest=T)
        contracted = set(c3.edges) - set(cos.hat_graph.edges)
        assert contracted <= T.tree_edges
        # representative is the class's non-tree edge
        (e,) = cos.hat_graph.edges
        assert e not in T.tree_edges

    def test_components_are_three_edge_connected(self, tri_pendant, c3, p2):
        for G in (tri_pendant, c3, p2):
            for comp, _ in cosimplify(G).components:
                assert is_three_edge_connected(comp)


class TestThreeEdgeConnectivity:
    def test_fixtures(self, k4, b3, c3, p2, loop_graph):
        assert is_three_edge_connected(k4)
        assert is_three_edge_connected(b3)
        assert not is_three_edge_connected(c3)
        assert not is_three_edge_connected(p2)
        assert is_three_edge_connected(loop_graph)

    def test_single_vertex_no_loops(self):
        G = parse_edge_list("1 0\n")
        assert is_three_edge_connected(G)

    def test_witnesses(self, c3, p2):
        kind, detail = three_edge_connectivity_witness(c3)
        assert kind == "series" and detail == frozenset({0, 1, 2})
        kind, detail = three_edge_connectivity_witness(p2)
        assert kind == "bridge" and detail == 0

    def test_disconnected_witness(self):
        G = parse_edge_list("4 2\n1 2\n3 4\n")
        kind, detail = three_edge_connectivity_witness(G)
        assert kind == "disconnected" and detail == 2

    def test_b3_survives_two_deletions(self, b3):
        # independent confirmation: delete any 2 of the 3 parallel edges
        from itertools import combinations

        from cyclelattice.multigraph import connected_components, minor

        for pair in combinations(b3.edges, 2):
            H = minor(b3, delete=set(pair), contract=set()).result
            assert len(connected_components(H)) == 1

    def test_generated_graphs_are_three_edge_connected(self):
        for seed in range(10):
            assert is_three_edge_connected(gen(steps=6, seed=seed, max_vertices=9))


class TestIsSimpleCycle:
    def test_basics(self, k4, b3, loop_graph):
        assert is_simple_cycle(k4, {0, 1, 3})
        assert is_simple_cycle(b3, {0, 1})
        assert is_simple_cycle(loop_graph, {0})
        assert not is_simple_cycle(k4, {0, 1})
        assert not is_simple_cycle(k4, set())
        # two disjoint triangles are not a single cycle
        G = parse_edge_list("6 6\n1 2\n2 3\n3 1\n4 5\n5 6\n6 4\n")
        assert not is_simple_cycle(G, {0, 1, 2, 3, 4, 5})
