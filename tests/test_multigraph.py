import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclelattice import multigraph
from cyclelattice.cycle_structure import _contract_forest_edges
from cyclelattice.errors import ArgumentError, CapacityError, ParseError
from cyclelattice.multigraph import (
    Multigraph,
    SpanningForest,
    connected_components,
    edge_disjoint_paths,
    forest_from_edges,
    format_edge_list,
    parse_edge_list,
    spanning_forest,
    tree_depths,
    tree_diameter,
    tree_paths,
)


class TestParse:
    def test_bond_graph(self, b3):
        assert b3.n == 2
        assert b3.m == 3
        assert all(not b3.is_loop(e) for e in b3.edges)
        u, v = b3.vertices
        assert all(set(b3.edges[e]) == {u, v} for e in b3.edges)

    def test_k4(self, k4):
        assert k4.n == 4
        assert k4.m == 6
        assert {tuple(sorted(uv)) for uv in k4.edges.values()} == {
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
        }

    def test_loop_degree_counts_twice(self, loop_graph):
        (v,) = loop_graph.vertices
        assert loop_graph.degree(v) == 2

    def test_incidence_lists_edges_ascending_and_loops_once(self):
        # out of id order: loops 0 and 3 at 1, parallel edges 1 and 4, edge 2
        G = parse_edge_list("3 5\n1 2 4\n1 1 0\n2 3 2\n1 2 1\n1 1 3\n")
        assert G.incidence == {1: {0: 1, 1: 2, 3: 1, 4: 2}, 2: {1: 1, 2: 3, 4: 1}, 3: {2: 2}}
        assert all(list(d) == sorted(d) for d in G.incidence.values())
        assert [G.degree(v) for v in G.vertices] == [6, 3, 1]

    def test_explicit_ids(self):
        G = parse_edge_list("2 2\na b 5\na b\n")
        assert set(G.edges) == {5, 0}

    def test_comments_and_blank_lines(self):
        G = parse_edge_list("# header\n\n3 2  # n m\n1 2\n2 3 # edge\n")
        assert (G.n, G.m) == (3, 2)

    def test_isolated_numeric_vertices(self):
        G = parse_edge_list("4 1\n1 2\n")
        assert G.n == 4

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("2 1\na b c d\n")

    def test_duplicate_explicit_id(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_edge_list("2 2\na b 1\na b 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_edge_list("2 3\na b\n")

    def test_unknown_vertex_token(self):
        with pytest.raises(ParseError, match="unknown vertex token"):
            parse_edge_list("2 2\na b\na c\n")

    @pytest.mark.parametrize(
        "token, n, vertex", [("01", 3, 1), ("+1", 3, 1), ("\u0661", 3, 1), ("1_0", 10, 10)]
    )
    def test_numeric_tokens_count_by_value(self, token, n, vertex):
        G = parse_edge_list(f"{n} 3\n{token} 2\n2 3\n3 1\n")
        assert G.vertices == tuple(range(1, n + 1))
        assert G.edges == {0: (vertex, 2), 1: (2, 3), 2: (3, 1)}

    def test_negative_zero_counts_as_zero(self):
        with pytest.raises(ParseError, match="line 2: unknown vertex token '-0'"):
            parse_edge_list("3 3\n-0 2\n2 3\n3 1\n")
        G = parse_edge_list("3 3\n-0 1\n1 2\n2 -0\n")
        assert G.edges == parse_edge_list("3 3\n0 1\n1 2\n2 0\n").edges

    @pytest.mark.parametrize(
        "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newline_and_carriage_return_end_lines(self, char):
        """str.splitlines() breaks lines at these characters too; a comment
        holding one stays one comment, and line numbers count only "\\n",
        "\\r\\n" and "\\r"."""
        G = parse_edge_list(f"3 3 # triangle{char}and more\n1 2\n2 3\n3 1\n")
        assert (G.vertices, G.edges) == ((1, 2, 3), {0: (1, 2), 1: (2, 3), 2: (3, 1)})
        text = f"3 3 # a{char}b\n1 2\r\n2 3 # c{char}d{char}e\r3 1 1 1\n"
        with pytest.raises(ParseError, match="^line 4: expected 'u v' or 'u v id'$"):
            parse_edge_list(text)

    def test_vertex_count_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(multigraph, "VERTEX_BOUND", 5)
        assert parse_edge_list("5 0\n").n == 5
        with pytest.raises(CapacityError, match="line 1: 6 vertices exceed the bound of 5"):
            parse_edge_list("6 0\n")

    def test_format_round_trip(self, k4, b3, loop_graph):
        for G in (k4, b3, loop_graph):
            H = parse_edge_list(format_edge_list(G))
            assert H.n == G.n
            assert set(H.edges) == set(G.edges)

    def test_degree_sum_is_twice_edges(self, k4, b3, loop_graph, tri_pendant):
        for G in (k4, b3, loop_graph, tri_pendant):
            assert sum(G.degree(v) for v in G.vertices) == 2 * G.m


@given(
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        min_size=1,
        max_size=10,
    )
)
def test_parsed_degree_sum_property(pairs):
    tokens = sorted({x for uv in pairs for x in uv})
    lines = [f"{len(tokens)} {len(pairs)}"]
    lines += [f"{u} {v}" for u, v in pairs]
    G = parse_edge_list("\n".join(lines))
    assert sum(G.degree(v) for v in G.vertices) == 2 * G.m


@st.composite
def parent_maps(draw):
    """A random forest on 0..n-1 as a parent map, with several roots and
    long chains; the edge into vertex v has id 100 + v."""
    order = draw(st.permutations(range(draw(st.integers(1, 40)))))
    parent = {}
    for i, v in enumerate(order):
        if i == 0 or draw(st.integers(0, 7)) == 0:
            parent[v] = None
        else:
            above = order[i - 1] if draw(st.booleans()) else order[draw(st.integers(0, i - 1))]
            parent[v] = (above, 100 + v)
    return parent


def _naive_tree_path(parent, u, v):
    """The u-v path from both ancestor lists: climb to the first common one."""
    def ancestors(x):
        chain, edges = [x], []
        while parent[x] is not None:
            x, e = parent[x]
            chain.append(x)
            edges.append(e)
        return chain, edges

    (up_u, edges_u), (up_v, edges_v) = ancestors(u), ancestors(v)
    common = [x for x in up_u if x in up_v]
    if not common:
        return None
    i, j = up_u.index(common[0]), up_v.index(common[0])
    return edges_u[:i] + edges_v[:j][::-1]


@given(parent_maps(), st.data())
def test_tree_path_matches_the_ancestor_lists(parent, data):
    """tree_paths on ranks that are no depths: depth times a random gap,
    plus a random offset below the gap, so rank still grows strictly from
    each parent to its child."""
    gap = data.draw(st.integers(1, 5))
    n = len(parent)
    offsets = data.draw(st.lists(st.integers(0, gap - 1), min_size=n, max_size=n))
    depth = tree_depths(parent)
    rank = {v: depth[v] * gap + offset for v, offset in zip(parent, offsets)}
    pairs = [(u, v) for u in parent for v in parent]
    for (u, v), path in zip(pairs, tree_paths(parent, rank, pairs), strict=True):
        assert path == _naive_tree_path(parent, u, v), (u, v)


@given(parent_maps())
def test_tree_depths_in_any_key_order(parent):
    """The depths are the ancestor counts, whether or not parents precede
    their children in the map."""
    expected = {}
    for v in parent:
        x, expected[v] = v, 0
        while parent[x] is not None:
            x = parent[x][0]
            expected[v] += 1
    assert tree_depths(parent) == expected
    assert tree_depths(dict(reversed(parent.items()))) == expected


class TestSpanningForest:
    def test_k4_star(self, k4):
        T = spanning_forest(k4)
        assert sorted(T.tree_edges) == [0, 1, 2]

    def test_b3_least_edge(self, b3):
        T = spanning_forest(b3)
        assert sorted(T.tree_edges) == [0]

    def test_loop_excluded(self, loop_graph):
        T = spanning_forest(loop_graph)
        assert not T.tree_edges
        assert len(T.component_roots) == 1

    def test_deterministic(self, k4):
        a = spanning_forest(k4)
        b = spanning_forest(parse_edge_list("4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"))
        assert a.tree_edges == b.tree_edges

    def test_prefer_root(self, k4):
        T = spanning_forest(k4, prefer_root=3)
        assert T.component_roots == (3,)
        assert len(T.tree_edges) == 3

    def test_spans_components(self):
        G = parse_edge_list("4 2\n1 2\n3 4\n")
        T = spanning_forest(G)
        assert len(T.component_roots) == 2
        assert len(T.tree_edges) == 2

    def test_path_edges(self, k4):
        T = spanning_forest(k4)
        assert T.path_edges(2, 3) in ([0, 1], [1, 0])
        assert T.path_edges(1, 1) == []

    def test_path_edges_in_path_order(self):
        # a spider: legs 1-2-3, 1-4-5-6 and 1-7 around root 1
        G = parse_edge_list("7 6\n1 2\n2 3\n1 4\n4 5\n5 6\n1 7\n")
        T = spanning_forest(G)
        for u in G.vertices:
            for v in G.vertices:
                x = u
                for e in T.path_edges(u, v):
                    x = G.other_end(e, x)
                assert x == v
        assert T.path_edges(3, 6) == [1, 0, 2, 3, 4]
        assert T.path_edges(6, 3) == [4, 3, 2, 0, 1]

    def test_path_edges_across_components_rejected(self):
        T = spanning_forest(parse_edge_list("4 2\n1 2\n3 4\n"))
        with pytest.raises(ArgumentError):
            T.path_edges(1, 3)
        assert list(tree_paths(T.parents, T.depth, [(2, 4), (2, 1), (5, 1)])) == [None, [0], None]

    def test_path_edges_to_an_unreached_vertex_rejected(self, k4):
        with pytest.raises(ArgumentError):
            spanning_forest(k4).path_edges(1, 99)
        with pytest.raises(ArgumentError):
            SpanningForest(k4, frozenset(), (1,)).path_edges(2, 3)


@st.composite
def loose_multigraphs(draw):
    """Multigraphs on up to nine vertices with loops, parallel edges,
    isolated vertices and often several components."""
    n = draw(st.integers(1, 9))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return Multigraph(tuple(range(n)), dict(enumerate(draw(st.lists(pairs, max_size=12)))))


def _nx_graph(G, edges=None):
    """G, or its spanning subgraph on `edges`, as a networkx multigraph."""
    nx = pytest.importorskip("networkx")
    H = nx.MultiGraph()
    H.add_nodes_from(G.vertices)
    H.add_edges_from((*G.edges[e], e) for e in (G.edges if edges is None else edges))
    return H


def _nx_parts(H):
    """Vertex sets of the components of a networkx graph, by least vertex."""
    nx = pytest.importorskip("networkx")
    return sorted(tuple(sorted(c)) for c in nx.connected_components(H))


def _greedy_forest(G, data):
    """Edges of a spanning forest of G grown greedily over a random edge order."""
    nx = pytest.importorskip("networkx")
    F = nx.Graph()
    F.add_nodes_from(G.vertices)
    chosen = set()
    for e in data.draw(st.permutations(G.sorted_edges)):
        u, v = G.edges[e]
        if not nx.has_path(F, u, v):
            F.add_edge(u, v)
            chosen.add(e)
    return chosen


class TestForestsAgainstNetworkx:
    @given(loose_multigraphs(), st.data())
    def test_spanning_forest_has_one_tree_per_component(self, G, data):
        nx = pytest.importorskip("networkx")
        parts = _nx_parts(_nx_graph(G))
        for root in (None, data.draw(st.sampled_from(G.vertices))):
            T = spanning_forest(G, prefer_root=root)
            F = _nx_graph(G, T.tree_edges)
            assert nx.is_forest(F)
            assert _nx_parts(F) == parts
            roots = T.component_roots
            assert [sum(r in vs for r in roots) for vs in parts] == [1] * len(parts)
            assert root is None or roots[0] == root

    @given(loose_multigraphs(), st.data())
    def test_forest_from_edges_accepts_exactly_the_spanning_forests(self, G, data):
        nx = pytest.importorskip("networkx")
        # flip a few ids of a spanning forest, an unknown id (-1) among them
        flip = data.draw(st.sets(st.sampled_from([*G.sorted_edges, -1]), max_size=3))
        edges = _greedy_forest(G, data) ^ flip
        F = forest_from_edges(G, edges)
        known = -1 not in edges
        sub = _nx_graph(G, edges - {-1})
        parts = _nx_parts(_nx_graph(G))
        assert (F is not None) == (known and nx.is_forest(sub) and _nx_parts(sub) == parts)
        if F is not None:
            assert F.tree_edges == edges
            assert F.component_roots == tuple(vs[0] for vs in parts)

    @given(loose_multigraphs())
    def test_connected_components(self, G):
        parts = _nx_parts(_nx_graph(G))
        comps = connected_components(G)
        assert [vs for vs, _ in comps] == parts
        for vs, es in comps:
            assert es == tuple(e for e in G.sorted_edges if G.edges[e][0] in vs)

    @given(loose_multigraphs(), st.data())
    def test_tree_diameter(self, G, data):
        nx = pytest.importorskip("networkx")
        for T in (
            spanning_forest(G, prefer_root=data.draw(st.sampled_from(G.vertices))),
            forest_from_edges(G, _greedy_forest(G, data)),
        ):
            F = _nx_graph(G, T.tree_edges)
            assert tree_diameter(T) == {
                r: nx.diameter(F.subgraph(nx.node_connected_component(F, r)))
                for r in T.component_roots
            }


class TestMinorAgainstNetworkx:
    """The minors the package builds, all by its one contraction,
    cycle_structure._contract_forest_edges, against the networkx quotient."""

    @given(loose_multigraphs(), st.data())
    def test_minor_is_the_quotient_by_the_contracted_components(self, nx_quotient, G, data):
        """On relabelled vertices in any order, with some labels, a random
        spanning forest, some of its edges contracted and some other edges
        deleted: each vertex maps to the least vertex of its block, surviving
        edges keep their ids, order and mapped ends, and labels are
        restricted to the surviving vertices."""
        names = data.draw(st.lists(st.integers(-30, 30), min_size=G.n, max_size=G.n, unique=True))
        labelled = data.draw(st.sets(st.sampled_from(names)))
        G = Multigraph(
            tuple(names),
            {e: (names[u], names[v]) for e, (u, v) in G.edges.items()},
            {v: f"x{v}" for v in labelled} or None,
        )
        T = forest_from_edges(G, _greedy_forest(G, data))
        tree = sorted(T.tree_edges)
        contract = data.draw(st.sets(st.sampled_from(tree))) if tree else set()
        rest = [e for e in G.sorted_edges if e not in contract]
        delete = data.draw(st.sets(st.sampled_from(rest))) if rest else set()

        H = _contract_forest_edges(G, T, delete, contract)
        expected = nx_quotient(G, contract, delete)
        assert H.vertices == expected.vertices
        assert list(H.edges.items()) == list(expected.edges.items())
        assert H.labels == expected.labels

    def test_long_chain_contracted_from_its_far_end(self):
        """A 20000-vertex path rooted at its far end, vertex n, with an edge
        from there to every vertex: contracting the whole path walks one
        block from n down to vertex 1, which names it, and every other
        edge becomes a loop at 1."""
        n = 20_000
        edges = {e: (n - e - 1, n - e) for e in range(n - 1)}
        edges |= {n + k: (n, k) for k in range(1, n)}
        G = Multigraph(tuple(range(1, n + 1)), edges)
        T = SpanningForest(G, frozenset(range(n - 1)), component_roots=(n,))
        H = _contract_forest_edges(G, T, (), set(range(n - 1)))
        assert H.vertices == (1,) and set(H.edges.values()) == {(1, 1)}


class TestMinor:
    """Hand-checked minors of the package's one contraction."""

    def test_contract_triangle_to_loop(self, c3):
        H = _contract_forest_edges(c3, forest_from_edges(c3, {0, 1}), (), {0, 1})
        assert H.n == 1
        assert set(H.edges) == {2}
        assert H.is_loop(2)

    def test_delete_keeps_ids(self, k4):
        H = _contract_forest_edges(k4, spanning_forest(k4), {5}, set())
        assert set(H.edges) == {0, 1, 2, 3, 4}
        assert H.n == 4

    def test_contract_k4_edge_endpoint_images(self, k4):
        # contracting 1-2 merges those endpoints into 1; hand-check all images
        H = _contract_forest_edges(k4, spanning_forest(k4), (), {0})
        assert H.vertices == (1, 3, 4)
        got = {e: tuple(sorted(uv)) for e, uv in H.edges.items()}
        assert got == {1: (1, 3), 2: (1, 4), 3: (1, 3), 4: (1, 4), 5: (3, 4)}
        # parallel pair between the merged vertex and each of 3, 4
        from collections import Counter

        counts = Counter(got.values())
        assert counts[1, 3] == 2
        assert counts[1, 4] == 2


class TestEdgeDisjointPaths:
    def test_k4_three_paths(self, k4):
        paths = edge_disjoint_paths(k4, 1, 2, 3)
        assert len(paths) == 3
        used = [e for p in paths for e in p]
        assert len(used) == len(set(used))

    def test_b3_parallel(self, b3):
        u, v = b3.vertices
        paths = edge_disjoint_paths(b3, u, v, 3)
        assert sorted(map(tuple, paths)) == [(0,), (1,), (2,)]

    def test_p2_maximum_one(self, p2):
        u, v = p2.vertices
        assert len(edge_disjoint_paths(p2, u, v, 2)) == 1

    def test_equal_endpoints_rejected(self, k4):
        with pytest.raises(ArgumentError):
            edge_disjoint_paths(k4, 1, 1, 2)

    def test_paths_are_simple_and_connect(self, k4):
        for target in (2, 3, 4):
            for path in edge_disjoint_paths(k4, 1, target, 3):
                x = 1
                seen = {x}
                for e in path:
                    x = k4.other_end(e, x)
                    assert x not in seen or x == target
                    seen.add(x)
                assert x == target


class TestTreeDiameter:
    def test_star(self, k4):
        T = spanning_forest(k4)
        assert tree_diameter(T) == {1: 2}

    def test_single_edge(self, p2):
        T = spanning_forest(p2)
        (root,) = T.component_roots
        assert tree_diameter(T) == {root: 1}

    def test_path_on_five(self):
        G = parse_edge_list("5 4\n1 2\n2 3\n3 4\n4 5\n")
        T = spanning_forest(G)
        assert tree_diameter(T) == {1: 4}

    def test_loop_graph(self, loop_graph):
        T = spanning_forest(loop_graph)
        (root,) = T.component_roots
        assert tree_diameter(T) == {root: 0}


def test_connected_components():
    G = parse_edge_list("5 3\n1 2\n2 3\n4 5\n")
    comps = connected_components(G)
    assert [vs for vs, _ in comps] == [(1, 2, 3), (4, 5)]
    assert [es for _, es in comps] == [(0, 1), (2,)]
    assert len(comps) > 1
    # many components: a perfect matching listed backwards, one isolated vertex
    k = 2000
    pairs = "".join(f"{2 * i + 1} {2 * i + 2}\n" for i in reversed(range(k)))
    comps = connected_components(parse_edge_list(f"{2 * k + 1} {k}\n{pairs}"))
    expected = [((2 * i + 1, 2 * i + 2), (k - 1 - i,)) for i in range(k)]
    assert comps == expected + [((2 * k + 1,), ())]


def test_multigraph_rejects_unknown_endpoint():
    with pytest.raises(ArgumentError, match="^edge 0 references unknown vertex$"):
        Multigraph(vertices=(1,), edges={0: (1, 2)})
    with pytest.raises(ArgumentError, match="^edge 5 references unknown vertex$"):
        Multigraph(vertices=(1, 2), edges={3: (1, 1), 5: (2, 4), 4: (7, 1)})
