import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclelattice import multigraph
from cyclelattice.errors import ArgumentError, CapacityError, ParseError
from cyclelattice.multigraph import (
    Multigraph,
    connected_components,
    edge_disjoint_paths,
    format_edge_list,
    minor,
    parse_edge_list,
    spanning_forest,
    tree_diameter,
    tree_path,
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


@given(parent_maps())
def test_tree_path_matches_the_ancestor_lists(parent):
    for u in parent:
        for v in parent:
            assert tree_path(parent, u, v) == _naive_tree_path(parent, u, v), (u, v)


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
        assert tree_path(T.parents, 2, 4) is None


class TestMinor:
    def test_contract_triangle_to_loop(self, c3):
        mm = minor(c3, delete=set(), contract={0, 1})
        assert mm.result.n == 1
        assert set(mm.result.edges) == {2}
        assert mm.result.is_loop(2)

    def test_delete_keeps_ids(self, k4):
        mm = minor(k4, delete={5}, contract=set())
        assert set(mm.result.edges) == {0, 1, 2, 3, 4}
        assert mm.result.n == 4

    def test_contract_k4_edge_endpoint_images(self, k4):
        # contracting 1-2 merges those endpoints; hand-check all six images
        mm = minor(k4, delete=set(), contract={0})
        img = mm.vertex_image
        assert img[1] == img[2]
        merged = img[1]
        expected = {
            1: tuple(sorted((merged, img[3]))),
            2: tuple(sorted((merged, img[4]))),
            3: tuple(sorted((merged, img[3]))),
            4: tuple(sorted((merged, img[4]))),
            5: tuple(sorted((img[3], img[4]))),
        }
        got = {e: tuple(sorted(uv)) for e, uv in mm.result.edges.items()}
        assert got == expected
        # parallel pair between merged vertex and each of 3, 4
        from collections import Counter

        counts = Counter(got.values())
        assert counts[tuple(sorted((merged, img[3])))] == 2
        assert counts[tuple(sorted((merged, img[4])))] == 2

    def test_contracting_loop_deletes_it(self, loop_graph):
        mm = minor(loop_graph, delete=set(), contract={0})
        assert mm.result.m == 0
        assert mm.result.n == 1

    def test_overlap_rejected(self, k4):
        with pytest.raises(ArgumentError):
            minor(k4, delete={0}, contract={0})

    def test_unknown_id_rejected(self, k4):
        with pytest.raises(ArgumentError):
            minor(k4, delete={77}, contract=set())

    def test_composition(self, k4):
        one = minor(minor(k4, {3}, set()).result, set(), {0}).result
        two = minor(k4, {3}, {0}).result
        assert set(one.edges) == set(two.edges)
        assert one.vertices == two.vertices
        assert all(
            tuple(sorted(one.edges[e])) == tuple(sorted(two.edges[e]))
            for e in one.edges
        )


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
    with pytest.raises(ArgumentError):
        Multigraph(vertices=(1,), edges={0: (1, 2)})
