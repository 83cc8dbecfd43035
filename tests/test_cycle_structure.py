import tracemalloc
from collections import deque
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclelattice import cycle_structure
from cyclelattice.cycle_structure import (
    bridges_and_series_classes,
    cosimplify,
    fundamental_cycle_matrix,
    is_simple_cycle,
    is_three_edge_connected,
    three_edge_connectivity_witness,
)
from cyclelattice.errors import CapacityError, StructureError
from cyclelattice.multigraph import (
    Multigraph,
    SpanningForest,
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
        assert fcm.cycles[3] - {3} == frozenset({0, 1})  # 2-1-3 through the root
        assert fcm.cycles[4] - {4} == frozenset({0, 2})
        assert fcm.cycles[5] - {5} == frozenset({1, 2})

    def test_b3_columns(self, b3):
        T = spanning_forest(b3)
        fcm = fundamental_cycle_matrix(b3, T)
        assert fcm.cycles[1] - {1} == frozenset({0})
        assert fcm.cycles[2] - {2} == frozenset({0})

    def test_loop_zero_column(self, loop_graph):
        T = spanning_forest(loop_graph)
        fcm = fundamental_cycle_matrix(loop_graph, T)
        assert fcm.cycles[0] - {0} == frozenset()
        assert fcm.cycles[0] == frozenset({0})

    def test_duality_rows_columns(self, k4, tri_pendant):
        for G in (k4, tri_pendant):
            T = spanning_forest(G)
            fcm = fundamental_cycle_matrix(G, T)
            for t in T.tree_edges:
                for e in fcm.cycles:
                    assert (t in fcm.cycles[e]) == (e in fcm.rows[t])

    def test_columns_are_cycles(self, k4, b3, tri_pendant):
        for G in (k4, b3, tri_pendant):
            fcm = fundamental_cycle_matrix(G, spanning_forest(G))
            for cycle in fcm.cycles.values():
                assert is_simple_cycle(G, cycle)

    def test_per_component_forest(self):
        G = parse_edge_list("6 6\n1 2\n2 3\n3 1\n4 5\n5 6\n6 4\n")
        fcm = fundamental_cycle_matrix(G, spanning_forest(G))
        assert len(fcm.cycles) == 2


def _all_classes(G, part) -> list[frozenset]:
    """The whole partition of the non-bridge edges, by least edge: the
    listed classes, and every other non-bridge edge as a class of its own."""
    listed = {e for cls in part.nontrivial_classes for e in cls}
    alone = [frozenset({e}) for e in G.edges if e not in listed and e not in part.bridges]
    return sorted([*part.nontrivial_classes, *alone], key=min)


class TestBridgesAndSeries:
    def test_triangle_single_class(self, c3):
        part = bridges_and_series_classes(c3)
        assert not part.bridges
        assert part.nontrivial_classes == (frozenset({0, 1, 2}),)
        assert _all_classes(c3, part) == [frozenset({0, 1, 2})]

    def test_bridge_only(self, p2):
        part = bridges_and_series_classes(p2)
        assert part.bridges == frozenset({0})
        assert part.nontrivial_classes == ()
        assert _all_classes(p2, part) == []

    def test_k4_singletons(self, k4):
        part = bridges_and_series_classes(k4)
        assert not part.bridges
        assert part.nontrivial_classes == ()
        assert sorted(map(sorted, _all_classes(k4, part))) == [[0], [1], [2], [3], [4], [5]]

    def test_loops_are_singleton_classes(self, two_loops):
        part = bridges_and_series_classes(two_loops)
        assert not part.bridges
        assert part.nontrivial_classes == ()
        assert sorted(map(sorted, _all_classes(two_loops, part))) == [[0], [1]]

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
            assert sorted(map(sorted, _all_classes(G, part))) == expected_classes, text


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


def _random_forest(draw, G):
    """A spanning forest of G grown by Kruskal's rule over a random edge order."""
    root = {v: v for v in G.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    tree = []
    for e in draw(st.permutations(G.sorted_edges)):
        u, v = map(find, G.edges[e])
        if u != v:
            root[u] = v
            tree.append(e)
    forest = forest_from_edges(G, tree)
    assert forest is not None
    return forest


@st.composite
def with_random_forest(draw):
    """A rough multigraph and a random spanning forest of it."""
    G = draw(rough_multigraphs())
    return G, _random_forest(draw, G)


@st.composite
def gen_variants(draw):
    """A 3-edge-connected gen graph, as it is or with one edge subdivided,
    one pendant edge added or one edge doubled, the variant's name and a
    random spanning forest.  Subdividing makes a two-edge series class and a
    pendant edge is a bridge; the other two keep every class one edge."""
    G = gen(draw(st.integers(0, 24)), draw(st.integers(0, 2**16)), draw(st.integers(1, 10)))
    return _variant(draw, G)


@st.composite
def labelled_gen_variants(draw, variant):
    """One variant of gen_variants on a gen(81, ., max_vertices=40) graph:
    n=40, m=120 and 81 non-tree edges, past LABEL_BITS, so the labels answer
    first, and the exact bits after them on the subdivided and pendant
    variants."""
    return _variant(draw, gen(81, draw(st.integers(0, 2**16)), max_vertices=40), variant)


def _variant(draw, G, variant=None):
    edges, n = dict(G.edges), G.n
    variants = ["as is", "subdivided", "pendant", "doubled"] if edges else ["as is", "pendant"]
    if variant is None:
        variant = draw(st.sampled_from(variants))
    new = max(edges, default=-1) + 1
    if variant == "subdivided":
        e = draw(st.sampled_from(G.sorted_edges))
        u, v = edges[e]
        edges[e], edges[new] = (u, n), (n, v)
        n += 1
    elif variant == "pendant":
        edges[new] = (draw(st.sampled_from(G.vertices)), n)
        n += 1
    elif variant == "doubled":
        edges[new] = edges[draw(st.sampled_from(G.sorted_edges))]
    H = Multigraph(vertices=tuple(range(n)), edges=edges)
    return H, _random_forest(draw, H), variant


def _assert_bridges_match_networkx(G, forest):
    nx = pytest.importorskip("networkx")
    H = nx.MultiGraph()
    H.add_nodes_from(G.vertices)
    H.add_edges_from((u, v, e) for e, (u, v) in G.edges.items())
    expected = {e for u, v in nx.bridges(H) for e in H[u][v]}
    for T in (None, forest):
        assert bridges_and_series_classes(G, T).bridges == frozenset(expected)


def _assert_classes_are_the_two_edge_cuts(G, forest):
    base = _component_count(G, set())
    for T in (None, forest):
        part = bridges_and_series_classes(G, T)
        classes = _all_classes(G, part)
        class_of = {e: cls for cls in classes for e in cls}
        assert set(class_of) == set(G.edges) - part.bridges
        assert sum(map(len, classes)) == len(class_of)
        assert all(len(cls) > 1 for cls in part.nontrivial_classes)
        least = [min(cls) for cls in part.nontrivial_classes]
        assert least == sorted(least)
        candidates = [e for e in class_of if not G.is_loop(e)]
        for e, f in combinations(candidates, 2):
            splits = _component_count(G, {e, f}) > base
            assert (class_of[e] is class_of[f]) == splits, (e, f)
        assert all(len(class_of[e]) == 1 for e in class_of if G.is_loop(e))


def _assert_identity_read_off_the_partition(G, forest):
    """The reduction is the identity exactly when the partition has no bridge
    and only one-edge classes; its maps then list no edge, so each edge is
    its own class, and the graph is 3-edge-connected exactly when it is
    also connected.  Either way each reduced edge lifts to its whole class."""
    for T in (None, forest):
        cos = cosimplify(G, forest=T)
        part = cos.partition
        classes = _all_classes(G, part)
        assert sorted(map(cos.lift_edges, zip(cos.hat_graph.edges)), key=min) == classes
        single = not part.bridges and all(len(cls) == 1 for cls in classes)
        assert cos.identity == single
        if single:
            assert cos.hat_graph is G
            assert cos.projection == {} and cos.section == {}
            assert all(cos.lift_edges([e]) == {e} for e in G.edges)
        connected = len(cos.forest.component_roots) <= 1
        assert (three_edge_connectivity_witness(cos) is None) == (single and connected)
        assert (three_edge_connectivity_witness(G) is None) == (single and connected)


class TestDifferentialOracles:
    """bridges_and_series_classes against networkx and brute-force cuts, on
    the BFS forest and on a random one: the signatures are read off its shape.
    The gen variants run the oracles on both sides of the one-edge-classes
    exit, on graphs the rough multigraphs rarely give: 3-edge-connected ones
    with every edge its own class."""

    @settings(max_examples=150)
    @given(with_random_forest())
    def test_bridges_match_networkx(self, GT):
        _assert_bridges_match_networkx(*GT)

    @settings(max_examples=150)
    @given(with_random_forest())
    def test_series_classes_are_the_two_edge_cuts(self, GT):
        _assert_classes_are_the_two_edge_cuts(*GT)

    @settings(max_examples=150)
    @given(with_random_forest())
    def test_identity_is_read_off_the_partition(self, GT):
        _assert_identity_read_off_the_partition(*GT)

    @settings(max_examples=150)
    @given(gen_variants())
    def test_gen_variants_match_both_oracles(self, GTV):
        G, forest, variant = GTV
        _assert_bridges_match_networkx(G, forest)
        _assert_classes_are_the_two_edge_cuts(G, forest)
        _assert_identity_read_off_the_partition(G, forest)
        for T in (None, forest):
            assert cosimplify(G, forest=T).identity == (variant in ("as is", "doubled"))


class TestLabels:
    """Past LABEL_BITS non-tree edges on one tree, the cut pass first runs
    on random words, and its one-edge-classes answer is taken only when it
    is exact; everything else goes to the exact bits."""

    @pytest.mark.parametrize("variant", ["as is", "subdivided", "pendant", "doubled"])
    @settings(max_examples=2)
    @given(data=st.data())
    def test_labelled_gen_variants_match_both_oracles(self, variant, data):
        G, forest, _ = data.draw(labelled_gen_variants(variant))
        assert G.m - G.n + 1 > cycle_structure.LABEL_BITS
        _assert_bridges_match_networkx(G, forest)
        _assert_classes_are_the_two_edge_cuts(G, forest)
        _assert_identity_read_off_the_partition(G, forest)

    @staticmethod
    def _count_passes(monkeypatch):
        """Count the runs of the cut pass: one item per run."""
        passes = []
        cut_labels = cycle_structure._cut_labels

        def counted(*args):
            passes.append(args[3])
            return cut_labels(*args)

        monkeypatch.setattr(cycle_structure, "_cut_labels", counted)
        return passes

    @pytest.mark.parametrize("variant", ["as is", "pendant"])
    @pytest.mark.parametrize("fault", ["zero", "repeated"])
    def test_a_zero_or_repeated_label_goes_to_the_exact_bits(self, monkeypatch, variant, fault):
        G = gen(81, 5, max_vertices=40)
        if variant == "pendant":
            leaf, e = G.n + 1, max(G.edges) + 1
            G = Multigraph(G.vertices + (leaf,), {**G.edges, e: (G.vertices[0], leaf)})
        with pytest.MonkeyPatch.context() as patch:  # the exact bits alone
            passes = self._count_passes(patch)
            patch.setattr(cycle_structure, "LABEL_BITS", 10**9)
            expected = bridges_and_series_classes(G)
        assert len(passes) == 1
        random_labels = cycle_structure._random_labels

        def faulty(k):
            labels = random_labels(k)
            labels[7] = 0 if fault == "zero" else labels[3]
            return labels

        monkeypatch.setattr(cycle_structure, "_random_labels", faulty)
        passes = self._count_passes(monkeypatch)
        part = bridges_and_series_classes(G)
        assert len(passes) == 2  # the labels, then the exact bits
        assert part.bridges == expected.bridges
        assert part.nontrivial_classes == expected.nontrivial_classes

    def test_labels_answer_a_3ec_graph_without_the_exact_bits(self, monkeypatch):
        G = gen(81, 0, max_vertices=40)
        monkeypatch.setattr(cycle_structure, "EXACT_PASS_BYTES", 0)
        part = bridges_and_series_classes(G)
        assert not part.bridges and part.nontrivial_classes == ()
        assert _all_classes(G, part) == [frozenset({e}) for e in G.sorted_edges]
        assert three_edge_connectivity_witness(G) is None

    def test_exact_bits_past_the_byte_limit_raise_capacity_error(self, monkeypatch, c3):
        monkeypatch.setattr(cycle_structure, "EXACT_PASS_BYTES", 5)
        with pytest.raises(CapacityError) as caught:
            bridges_and_series_classes(c3)
        assert str(caught.value) == (
            "exact series classes of a graph with n=3, m=3 need about 6 bytes "
            "of cut signatures, past the limit of 5"
        )
        monkeypatch.setattr(cycle_structure, "EXACT_PASS_BYTES", 6)
        assert bridges_and_series_classes(c3).nontrivial_classes == (frozenset({0, 1, 2}),)

    @pytest.mark.parametrize(
        "tree, roots, unjoined",
        [
            ({0, 1}, (1, 3), 40),  # two trees, and edge 40 runs between them
            ({0}, (1,), 1),  # one tree, which never reaches 3 and 4
        ],
    )
    def test_unjoined_edge_past_the_label_bits_is_named(self, tree, roots, unjoined):
        """More than LABEL_BITS non-tree edges: 1-2, 3-4, then 2-3 as edge 40
        among 69 copies of 1-2."""
        edges = {0: (1, 2), 1: (3, 4)}
        edges.update((e, (1, 2)) for e in range(2, 72))
        edges[40] = (2, 3)
        G = Multigraph((1, 2, 3, 4), edges)
        T = SpanningForest(G, frozenset(tree), roots)
        for build in (fundamental_cycle_matrix, bridges_and_series_classes):
            with pytest.raises(StructureError) as caught:
                build(G, T)
            message = f"non-tree edge {unjoined} joins different forest components"
            assert str(caught.value) == message


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
    return H, _random_forest(draw, H)


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


def _fundamental_cut(G, T, t):
    """Ascending non-tree edges across the two sides that deleting t splits
    its tree into, each side labelled by a search over T's other edges."""
    adj = {x: [] for x in G.vertices}
    for s in T.tree_edges - {t}:
        a, b = G.edges[s]
        adj[a].append(b)
        adj[b].append(a)
    side = {G.edges[t][0]}
    stack = list(side)
    while stack:
        for y in adj[stack.pop()]:
            if y not in side:
                side.add(y)
                stack.append(y)
    non_tree = set(G.edges) - T.tree_edges
    return sorted(e for e in non_tree if (G.edges[e][0] in side) != (G.edges[e][1] in side))


class TestColumnsFromTreePaths:
    """fundamental_cycle_matrix against an independent search in the forest."""

    @settings(max_examples=100)
    @given(forested_multigraphs())
    def test_columns_are_the_forest_paths(self, GT):
        G, T = GT
        fcm = fundamental_cycle_matrix(G, T)
        assert set(fcm.cycles) == set(G.edges) - T.tree_edges
        for e, cycle in fcm.cycles.items():
            assert cycle - {e} == _forest_path(G, T, *G.edges[e]), e

    @settings(max_examples=100)
    @given(forested_multigraphs())
    def test_rows_are_the_fundamental_cuts_ascending(self, GT):
        G, T = GT
        fcm = fundamental_cycle_matrix(G, T)
        assert fcm.rows.keys() == T.tree_edges
        for t, row in fcm.rows.items():
            assert list(row) == _fundamental_cut(G, T, t), t

    @settings(max_examples=100)
    @given(forested_multigraphs())
    def test_cycles_are_stored_whole(self, GT):
        G, T = GT
        fcm = fundamental_cycle_matrix(G, T)
        assert list(fcm.cycles) == sorted(set(G.edges) - T.tree_edges)
        for e, cycle in fcm.cycles.items():
            assert cycle == _forest_path(G, T, *G.edges[e]) | {e}, e

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
        T = SpanningForest(G, frozenset(tree), roots)
        with pytest.raises(StructureError, match="joins different forest components") as columns:
            fundamental_cycle_matrix(G, T)
        with pytest.raises(StructureError) as partition:
            bridges_and_series_classes(G, T)
        assert str(partition.value) == str(columns.value)

    def test_loop_at_an_unreached_vertex_rejected(self):
        G = parse_edge_list("3 3\n1 2\n3 3\n2 1\n")
        T = SpanningForest(G, frozenset({0}), (1,))  # vertex 3 is never reached
        for build in (fundamental_cycle_matrix, bridges_and_series_classes):
            with pytest.raises(StructureError, match="non-tree edge 1 joins"):
                build(G, T)

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
        assert fcm.cycles == {n // 2: frozenset(G.edges)}
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
        assert cos.hat_graph is k4
        assert cos.projection == {} and cos.section == {}
        assert all(cos.lift_edges([e]) == {e} for e in k4.edges)

    @pytest.mark.parametrize("steps", [40, 200])
    def test_a_3ec_graph_gets_nothing_per_edge(self, steps):
        """40 non-tree edges go to the exact bits, 200 to the labels; either
        way nothing is listed, and the reduction holds two empty maps."""
        G = gen(steps, 3, max_vertices=steps // 2)
        assert (G.m - G.n + 1 > cycle_structure.LABEL_BITS) == (steps > 64)
        part = bridges_and_series_classes(G)
        assert part.bridges == frozenset() and part.nontrivial_classes == ()
        cos = cosimplify(G)
        assert cos.hat_graph is G and cos.three_edge_connected
        assert cos.projection == {} and cos.section == {}

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

    @settings(max_examples=150)
    @given(with_random_forest())
    @example((parse_edge_list("4 4\n1 2\n2 3\n3 1\n3 4\n"), None))
    @example((parse_edge_list("3 3\n1 2\n2 3\n3 1\n"), None))
    @example((parse_edge_list("2 1\na b\n"), None))
    def test_components_are_three_edge_connected(self, GT):
        """No edge and no pair of edges cuts a component of the reduction,
        on the BFS forest and on a random one: `analyze` relies on it."""
        G, forest = GT
        for T in (None, forest):
            for comp, _ in cosimplify(G, forest=T).components:
                assert is_three_edge_connected(comp)
                for cut in combinations_with_replacement(comp.sorted_edges, 2):
                    assert _component_count(comp, set(cut)) == 1, cut


def _fresh_parents(F):
    """Parent map of a BFS from F's roots over F's edges alone, each vertex's
    edges in id order."""
    G = F.parent_graph
    adj = {x: [] for x in G.vertices}
    for t in sorted(F.tree_edges):
        a, b = G.edges[t]
        adj[a].append((t, b))
        adj[b].append((t, a))
    parent = {}
    for r in F.component_roots:
        parent[r] = None
        queue = deque([r])
        while queue:
            x = queue.popleft()
            for t, y in adj[x]:
                if y not in parent:
                    parent[y] = (x, t)
                    queue.append(y)
    return parent


class TestCarriedParentMaps:
    @settings(max_examples=150)
    @given(with_random_forest(), st.integers(0, 10**6))
    @example((parse_edge_list("4 4\n1 2\n2 3\n3 1\n3 4\n"), None), 3)
    @example((parse_edge_list("7 7\n1 2\n2 3\n3 1\n3 4\n5 6\n6 7\n7 5\n"), None), 6)
    def test_carried_map_is_the_bfs_of_the_forest(self, GT, index):
        """A forest keeps the parent map it was built with, and that map is
        the BFS of its tree edges from its roots, keys in discovery order:
        bridges_and_series_classes walks it backwards.  So does each
        component forest of a cosimplification, cut from hat_tree's map."""
        G, forest = GT
        forests = [spanning_forest(G), spanning_forest(G, G.vertices[index % G.n])]
        forests += [forest] if forest is not None else []
        reductions = [cosimplify(G, forest=F) for F in forests]
        forests += [c.hat_tree for c in reductions]
        forests += [T_H for c in reductions for _, T_H in c.components]
        for F in forests:
            assert "parents" in vars(F)
            assert list(F.parents.items()) == list(_fresh_parents(F).items())


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

    def test_b3_survives_two_deletions(self, b3, nx_quotient):
        # independent confirmation: delete any 2 of the 3 parallel edges
        from itertools import combinations

        from cyclelattice.multigraph import connected_components

        for pair in combinations(b3.edges, 2):
            H = nx_quotient(b3, delete=pair)
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

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_the_enumerated_cycles(self, data):
        """is_simple_cycle against enumerate_cycles on small multigraphs with
        loops and parallel edges: every cycle, every union of two cycles and a
        random edge set, an unknown id (99) allowed."""
        n = data.draw(st.integers(1, 5))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        G = Multigraph(tuple(range(n)), dict(enumerate(data.draw(st.lists(pairs, max_size=8)))))
        cycles = set(enumerate_cycles(G))
        candidates = [*cycles, *(a | b for a, b in combinations(cycles, 2))]
        candidates.append(data.draw(st.sets(st.sampled_from([*G.sorted_edges, 99]))))
        for S in candidates:
            assert is_simple_cycle(G, S) == (frozenset(S) in cycles), S
