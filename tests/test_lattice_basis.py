import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclelattice import cycle_structure, lattice_basis, multigraph
from cyclelattice.certificate import certify, certify_cycle_basis
from cyclelattice.cycle_structure import (
    bridges_and_series_classes,
    cosimplify,
    fundamental_cycle_matrix,
    is_simple_cycle,
    three_edge_connectivity_witness,
)
from cyclelattice.errors import (
    ArgumentError,
    InternalError,
    MembershipError,
    PreconditionError,
    StructureError,
)
from cyclelattice.lattice_basis import (
    Provenance,
    double_edge_combination,
    express_in_simple_basis,
    indicator_matrix,
    is_lattice_member,
    lattice_determinant,
    matches_all_cycles_lattice,
    per_component,
    semi_fundamental_basis,
    simple_basis,
)
from cyclelattice.linear_hull import FieldSpec, hull_basis_mod_p
from cyclelattice.multigraph import (
    Multigraph,
    SpanningForest,
    parse_edge_list,
    spanning_forest,
    tree_diameter,
    tree_paths,
)
from cyclelattice.oracle import IntegerMatrix, exact_determinant
from cyclelattice.topo_extension import gen


def _tag_counts(basis) -> tuple[int, int]:
    """(doubled, fundamental) entries of a basis, which holds no others."""
    kinds = [tag.kind for tag in basis.provenance]
    assert set(kinds) <= {"doubled", "fundamental"}
    return kinds.count("doubled"), kinds.count("fundamental")


class TestSimpleBasis:
    def test_k4(self, k4):
        sb = simple_basis(k4)
        assert _tag_counts(sb) == (3, 3)
        M = IntegerMatrix.from_vectors(sb.vectors(), list(k4.sorted_edges))
        assert abs(exact_determinant(M)) == 8

    def test_b3(self, b3):
        sb = simple_basis(b3)
        assert _tag_counts(sb) == (1, 2)
        M = IntegerMatrix.from_vectors(sb.vectors(), list(b3.sorted_edges))
        assert abs(exact_determinant(M)) == 2

    def test_single_loop(self, loop_graph):
        sb = simple_basis(loop_graph)
        assert _tag_counts(sb) == (0, 1)
        M = IntegerMatrix.from_vectors(sb.vectors(), list(loop_graph.sorted_edges))
        assert abs(exact_determinant(M)) == 1

    def test_block_structure(self, k4):
        # tree rows first: [[2I, A], [0, I]] under tree-first ordering
        sb = simple_basis(k4)
        t, _ = _tag_counts(sb)
        assert [tag.kind for tag in sb.provenance[:t]] == ["doubled"] * t
        order = [tag.t for tag in sb.provenance[:t]] + [tag.e for tag in sb.provenance[t:]]
        M = IntegerMatrix.from_vectors(sb.vectors(), order)
        for i in range(t):
            for j in range(t):
                assert M.entries[i][j] == (2 if i == j else 0)
        for i in range(t, M.rows):
            for j in range(t):
                assert M.entries[i][j] == 0
            for j in range(t, M.cols):
                assert M.entries[i][j] == (1 if i == j else 0)

    def test_precondition_names_series_class(self, c3):
        with pytest.raises(PreconditionError, match="series class"):
            simple_basis(c3)

    def test_precondition_names_bridge(self, p2):
        with pytest.raises(PreconditionError, match="bridge"):
            simple_basis(p2)


class TestLatticeDeterminant:
    def test_values(self, k4, b3, loop_graph):
        assert lattice_determinant(k4) == 8
        assert lattice_determinant(b3) == 2
        assert lattice_determinant(loop_graph) == 1

    def test_b3_oracle_cross_check(self):
        M = IntegerMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        assert abs(exact_determinant(M)) == 2

    def test_precondition(self, c3):
        with pytest.raises(PreconditionError):
            lattice_determinant(c3)

    def test_graph_with_no_vertices(self):
        """No vertex, so no component: 2^(n - 0) = 1, an int."""
        det = lattice_determinant(Multigraph((), {}))
        assert det == 1 and type(det) is int


class TestMembership:
    def test_doubled_edge_is_member(self, k4):
        for e in k4.edges:
            assert is_lattice_member(k4, {e: 2})

    def test_bridge_condition(self, p2):
        assert not is_lattice_member(p2, {0: 1})

    def test_series_condition(self, c3):
        res = is_lattice_member(c3, {0: 1, 1: 1, 2: 0})
        assert not res
        assert "series" in res.reason

    def test_parity_condition(self, k4):
        res = is_lattice_member(k4, {0: 1})
        assert not res
        assert "odd" in res.reason

    def test_certificate_structure(self, k4):
        # a member: 2*chi_0 + chi_{triangle 0,1,3}
        p = {0: 3, 1: 1, 3: 1}
        res = is_lattice_member(k4, p)
        assert res
        for cyc in res.odd_cycles:
            assert is_simple_cycle(k4, cyc)
        odd_support = {e for e, c in p.items() if c % 2}
        assert set().union(*res.odd_cycles) == odd_support if res.odd_cycles else not odd_support
        assert all(c % 2 == 0 for c in res.even_remainder.values())

    def test_loop_counts_twice_in_parity(self, loop_graph):
        assert is_lattice_member(loop_graph, {0: 1})

    def test_unknown_edge_is_refused_unless_zero(self, k4):
        """An absent edge reads 0, so a zero at an unknown id is no entry."""
        assert is_lattice_member(k4, {0: 2, 99: 0})
        T = spanning_forest(k4)
        for call in (
            lambda: is_lattice_member(k4, {0: 2, 99: 4, 98: 2}),
            lambda: express_in_simple_basis(k4, T, {0: 2, 99: 4, 98: 2}),
        ):
            with pytest.raises(ArgumentError, match="nonzero entry at unknown edge 98$"):
                call()


class TestExpressInSimpleBasis:
    def test_identity_on_fundamental_cycle(self, k4):
        T = spanning_forest(k4)
        p = dict.fromkeys([0, 1, 3], 1)
        cyc, dbl = express_in_simple_basis(k4, T, p)
        assert cyc == {3: 1, 4: 0, 5: 0}
        assert dbl == {0: 0, 1: 0, 2: 0}

    def test_doubled_tree_edge(self, k4):
        T = spanning_forest(k4)
        cyc, dbl = express_in_simple_basis(k4, T, {0: 2})
        assert all(v == 0 for v in cyc.values())
        assert dbl == {0: 1, 1: 0, 2: 0}

    def test_four_cycle_reassembles(self, k4):
        T = spanning_forest(k4)
        p = dict.fromkeys([1, 3, 2, 4], 1)
        cyc, dbl = express_in_simple_basis(k4, T, p)
        assert cyc[3] == 1 and cyc[4] == 1 and cyc[5] == 0

    def test_non_member_rejected(self, k4):
        T = spanning_forest(k4)
        with pytest.raises(MembershipError):
            express_in_simple_basis(k4, T, {0: 1})

    def test_series_pass_runs_once(self, monkeypatch):
        """The bridges and series classes are found once, by the
        3-edge-connectivity check, for a member and a non-member alike."""
        G = gen(steps=61, seed=3, max_vertices=30)
        T = spanning_forest(G)
        calls = []
        series = cycle_structure.bridges_and_series_classes

        def counted(*args):
            calls.append(args)
            return series(*args)

        for module in (cycle_structure, lattice_basis):
            monkeypatch.setattr(module, "bridges_and_series_classes", counted)
        cycle = max(fundamental_cycle_matrix(G, T).cycles.values(), key=len)
        express_in_simple_basis(G, T, dict.fromkeys(cycle, 3))
        assert len(calls) == 1
        with pytest.raises(MembershipError, match="odd incidence sum"):
            express_in_simple_basis(G, T, {min(T.tree_edges): 1})
        assert len(calls) == 2

    @given(st.data())
    def test_reassembly_on_random_members(self, data):
        """A random integer combination of simple-basis vectors is a lattice
        member whose coefficients come back as drawn (express_in_simple_basis
        also raises internally unless they reassemble it exactly); one
        non-loop entry made odd makes it a non-member."""
        G = data.draw(st.sampled_from(REASSEMBLY_GRAPHS))
        T = spanning_forest(G)
        basis = simple_basis(G, T)
        drawn = data.draw(st.lists(st.integers(-3, 3), min_size=G.m, max_size=G.m))
        p: dict[int, int] = {}
        for c, vec in zip(drawn, basis.vectors()):
            for e, val in vec.items():
                p[e] = p.get(e, 0) + c * val
        cyc, dbl = express_in_simple_basis(G, T, p)
        tags = basis.provenance
        assert dbl == {tag.t: c for c, tag in zip(drawn, tags) if tag.kind == "doubled"}
        assert cyc == {tag.e: c for c, tag in zip(drawn, tags) if tag.kind == "fundamental"}
        e = data.draw(st.sampled_from([e for e in G.sorted_edges if not G.is_loop(e)]))
        p[e] = p.get(e, 0) + 1
        with pytest.raises(MembershipError, match="odd incidence sum"):
            express_in_simple_basis(G, T, p)


# K4, and gen graphs with loops and parallel edges
REASSEMBLY_GRAPHS = [
    parse_edge_list("4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"),
    gen(steps=4, seed=1, max_vertices=5),
    gen(steps=6, seed=3, max_vertices=5),
    gen(steps=8, seed=4, max_vertices=5),
]


class TestDoubleEdgeCombination:
    def test_b3(self, b3):
        combo = double_edge_combination(b3, 0)
        assert (1, frozenset({0, 1})) in combo
        assert (1, frozenset({0, 2})) in combo
        assert (-1, frozenset({1, 2})) in combo

    def test_loop(self, loop_graph):
        assert double_edge_combination(loop_graph, 0) == [(2, frozenset({0}))]

    def test_k4(self, k4):
        combo = double_edge_combination(k4, 0)
        total = {e: 0 for e in k4.edges}
        for coef, cyc in combo:
            assert is_simple_cycle(k4, cyc)
            for e in cyc:
                total[e] += coef
        assert total == {0: 2, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}

    def test_all_edges_of_fixtures(self, k4, b3, two_loops):
        """On every edge of the fixtures, of K4 with one edge doubled and a
        loop added, and of 20 generated graphs, the paths found in G - e
        close cycles that are simple and sum to 2*chi_e."""
        k4_plus = parse_edge_list("4 8\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n1 2\n3 3\n")
        graphs = [k4, b3, two_loops, k4_plus]
        graphs += [gen(steps=12, seed=s, max_vertices=8) for s in range(20)]
        for G in graphs:
            for e in G.sorted_edges:
                total = dict.fromkeys(G.edges, 0)
                for coef, cyc in double_edge_combination(G, e):
                    assert is_simple_cycle(G, cyc), (G.edges, e, cyc)
                    for x in cyc:
                        total[x] += coef
                assert total == {x: 2 if x == e else 0 for x in G.edges}, (G.edges, e)


class TestSemiFundamentalBasis:
    def test_k4_star_tree(self, k4):
        basis, triples = semi_fundamental_basis(k4)
        assert len(basis.cycles) == 6
        lengths = sorted(len(c) for c in basis.cycles)
        assert lengths == [3, 3, 3, 4, 4, 4]
        det, ok = certify_cycle_basis(k4, basis)
        assert ok and abs(det) == 8

    def test_b3(self, b3):
        basis, triples = semi_fundamental_basis(b3)
        assert sorted(map(sorted, basis.cycles)) == [[0, 1], [0, 2], [1, 2]]
        det, ok = certify_cycle_basis(b3, basis)
        assert ok and abs(det) == 2

    def test_c3_via_cosimplification(self, c3):
        basis, triples = semi_fundamental_basis(c3)
        assert [sorted(c) for c in basis.cycles] == [[0, 1, 2]]
        assert basis.provenance[0].kind == "lifted"

    def test_counts_and_tags(self, k4):
        basis, triples = semi_fundamental_basis(k4)
        fundamental = [p for p in basis.provenance if p.kind == "fundamental"]
        semi = [p for p in basis.provenance if p.kind == "semi-fundamental"]
        assert len(fundamental) == k4.m - k4.n + 1
        assert len(semi) == k4.n - 1
        assert len(triples) == k4.n - 1

    def test_pair_intersections_in_contracted_graphs(self, k4, nx_quotient):
        basis, triples = semi_fundamental_basis(k4)
        T = spanning_forest(k4)
        _assert_triples_witness(nx_quotient, k4, T, triples)

    def test_path_tree_forces_exchange(self, k4, nx_quotient):
        # a path tree makes the seeded cycles overlap in two edges
        T = SpanningForest(
            parent_graph=k4, tree_edges=frozenset({0, 3, 5}), component_roots=(1,)
        )
        basis, triples = semi_fundamental_basis(k4, T)
        det, ok = certify_cycle_basis(k4, basis)
        assert ok and abs(det) == 8
        assert matches_all_cycles_lattice(k4, basis.vectors())
        _assert_triples_witness(nx_quotient, k4, T, triples)
        diam = max(tree_diameter(T).values())
        assert all(len(c) <= 2 * diam for c in basis.cycles)

    def test_lattice_check_refuses_a_vector_off_the_graph(self, k4):
        """A nonzero entry at an edge K4 lacks is refused, as certify refuses
        it, not dropped before the lattices are compared."""
        basis, _ = semi_fundamental_basis(k4)
        vectors = basis.vectors()
        assert matches_all_cycles_lattice(k4, vectors)
        vectors[0] = {**vectors[0], 99: 5}
        for check in (matches_all_cycles_lattice, certify):
            with pytest.raises(ArgumentError, match="unknown edge 99$"):
                check(k4, vectors)

    def test_length_bound(self, k4, b3):
        for G in (k4, b3):
            T = spanning_forest(G)
            basis, _ = semi_fundamental_basis(G, T)
            diam = max(tree_diameter(T).values())
            assert all(len(c) <= 2 * diam for c in basis.cycles)

    def test_loops_only_graph(self, two_loops):
        basis, triples = semi_fundamental_basis(two_loops)
        assert sorted(map(sorted, basis.cycles)) == [[0], [1]]
        assert triples == []
        det, ok = certify_cycle_basis(two_loops, basis)
        assert ok and abs(det) == 1

    def test_every_cycle_is_simple(self, k4, b3, tri_pendant):
        for G in (k4, b3, tri_pendant):
            basis, _ = semi_fundamental_basis(G)
            for c in basis.cycles:
                assert is_simple_cycle(G, c)

    def test_hnf_oracle_equality(self, k4, b3, tri_pendant, c3, two_loops):
        for G in (k4, b3, tri_pendant, c3, two_loops):
            basis, _ = semi_fundamental_basis(G)
            assert matches_all_cycles_lattice(G, basis.vectors())

    def test_random_instances(self, nx_quotient):
        for seed in range(12):
            G = gen(steps=4 + seed % 5, seed=seed, max_vertices=9)
            T = spanning_forest(G)
            basis, triples = semi_fundamental_basis(G, T)
            det, ok = certify_cycle_basis(G, basis)
            assert ok, (seed, det)
            _assert_triples_witness(nx_quotient, G, T, triples)

    def test_random_spanning_trees_force_exchanges(self, nx_quotient):
        # deep non-BFS trees give seeded cycle pairs with long overlaps,
        # exercising the exchange loop and the reuse of shrunk pairs
        # plus a few instances at m = 150..300, where the pairs overlap longer
        rng = random.Random(0)
        small = (
            gen(steps=rng.randint(3, 9), seed=trial, max_vertices=10) for trial in range(40)
        )
        large = (gen(2 * n + 1, seed=n, max_vertices=n) for n in (50, 75, 100))
        for trial, G in enumerate(itertools.chain(small, large)):
            T = _random_spanning_tree(G, rng)
            basis, triples = semi_fundamental_basis(G, T)
            det, ok = certify_cycle_basis(G, basis)
            assert ok, (trial, det)
            _assert_triples_witness(nx_quotient, G, T, triples)
            if G.m <= 13:
                assert matches_all_cycles_lattice(G, basis.vectors()), trial

    def test_no_minor_on_a_3ec_graph(self, monkeypatch):
        # the graph is its own cosimplification and the exchange contracts on
        # the fixed tree, so the package's one contraction never runs
        calls = []
        contract = cycle_structure._contract_forest_edges

        def counted(*args, **kwargs):
            calls.append(args)
            return contract(*args, **kwargs)

        monkeypatch.setattr(cycle_structure, "_contract_forest_edges", counted)
        G = gen(201, seed=3, max_vertices=100)
        basis, triples = semi_fundamental_basis(G)
        assert len(triples) == G.n - 1 > 0
        assert calls == []

    def test_random_connected_non_3ec_graphs(self):
        rng = random.Random(1)
        for trial in range(60):
            G = _random_connected_graph(rng)
            basis, _ = semi_fundamental_basis(G)
            assert matches_all_cycles_lattice(G, basis.vectors()), (trial, G.edges)

    def test_disconnected_rejected(self):
        from cyclelattice.errors import StructureError

        G = parse_edge_list("4 2\n1 2\n3 4\n")
        with pytest.raises(StructureError):
            semi_fundamental_basis(G)


def _random_spanning_tree(G, rng):
    """Randomized Kruskal: usually deeper than the BFS tree."""
    edges = [e for e in G.sorted_edges if not G.is_loop(e)]
    rng.shuffle(edges)
    rep = {v: v for v in G.vertices}

    def find(v):
        while rep[v] != v:
            rep[v] = rep[rep[v]]
            v = rep[v]
        return v

    tree = set()
    for e in edges:
        u, v = G.edges[e]
        if find(u) != find(v):
            rep[find(u)] = find(v)
            tree.add(e)
    roots = sorted({min(w for w in G.vertices if find(w) == find(v)) for v in G.vertices})
    return SpanningForest(
        parent_graph=G, tree_edges=frozenset(tree), component_roots=tuple(roots)
    )


def _random_connected_graph(rng):
    """Random connected multigraph with loops and parallels, rarely 3ec."""
    n = rng.randint(2, 7)
    verts = list(range(1, n + 1))
    edges = {}
    for i, v in enumerate(verts[1:]):
        edges[i] = (rng.choice(verts[: verts.index(v)]), v)
    for j in range(len(edges), rng.randint(n - 1, 10)):
        edges[j] = (rng.choice(verts), rng.choice(verts))
    return Multigraph(vertices=tuple(verts), edges=edges)


def _assert_triples_witness(quotient, G, T, triples):
    """Independent re-check: in G_k, the quotient of G by the tree edges
    contracted so far, the pair's cycles meet exactly in t_k."""
    contracted = []
    for t_k, e_k, f_k in triples:
        Gk = quotient(G, contracted)
        tree_k = frozenset(T.tree_edges - set(contracted))
        Tk = SpanningForest(
            parent_graph=Gk,
            tree_edges=tree_k,
            component_roots=(min(Gk.vertices),),
        )
        cyc_e = set(Tk.path_edges(*Gk.edges[e_k])) | {e_k}
        cyc_f = set(Tk.path_edges(*Gk.edges[f_k])) | {f_k}
        assert cyc_e & cyc_f == {t_k}
        contracted.append(t_k)


def test_hand_built_forest_that_is_no_forest_is_rejected(k4):
    """A forest built from an edge set that closes a cycle, names an unknown
    edge, roots one tree twice or is rooted at no vertex of the graph raises
    StructureError when its parent map is first read, so no construction
    runs on it."""
    T = spanning_forest(k4)
    with_cycle = SpanningForest(k4, T.tree_edges | {3}, T.component_roots)
    unknown = SpanningForest(k4, T.tree_edges | {99}, T.component_roots)
    two_roots = SpanningForest(k4, T.tree_edges, (1, 2))
    foreign_root = SpanningForest(k4, T.tree_edges, (99,))
    for F in (with_cycle, unknown, two_roots, foreign_root):
        with pytest.raises(StructureError, match="do not form a forest"):
            F.parents
    for F in (with_cycle, unknown, foreign_root):
        with pytest.raises(StructureError, match="do not form a forest"):
            semi_fundamental_basis(k4, F)
        with pytest.raises(StructureError, match="do not form a forest"):
            simple_basis(k4, F)
        with pytest.raises(StructureError, match="do not form a forest"):
            three_edge_connectivity_witness(k4, F)


def test_simple_basis_checks_3_edge_connectivity_on_its_one_forest(monkeypatch):
    """simple_basis and express_in_simple_basis check their precondition on
    the forest they build on: no forest is searched when T is given, and
    one when simple_basis builds its own."""
    G = gen(61, 3, max_vertices=30)
    T = spanning_forest(G)
    p = dict.fromkeys(simple_basis(G, T).cycles[-1], 1)
    searched = []
    bfs = multigraph.bfs_parents

    def counted(*args):
        searched.append(args[0])
        return bfs(*args)

    for module in (multigraph, cycle_structure):
        monkeypatch.setattr(module, "bfs_parents", counted)
    for call, expected in (
        (lambda: simple_basis(G, T), 0),
        (lambda: simple_basis(G), 1),
        (lambda: express_in_simple_basis(G, T, p), 0),
    ):
        searched.clear()
        call()
        assert len(searched) == expected


class TestLiftBasis:
    @staticmethod
    def semi(H, T_H):
        return semi_fundamental_basis(H, T_H)[0]

    def test_c3_lift(self, c3):
        entries, bases = per_component(cosimplify(c3), self.semi)
        assert [(sorted(c), tag.label()) for c, tag in entries] == [([0, 1, 2], "lifted")]
        # the component's basis as built: the loop left of the triangle
        assert [(sorted(c), tag.label()) for c, tag in bases[0].entries()] == [
            ([1], "fundamental(e=1)")
        ]

    def test_p2_empty(self, p2):
        entries, bases = per_component(cosimplify(p2), self.semi)
        assert entries == [] and bases == []

    def test_triangle_with_pendant(self, tri_pendant):
        basis, _ = semi_fundamental_basis(tri_pendant)
        assert matches_all_cycles_lattice(tri_pendant, basis.vectors())
        assert [sorted(c) for c in basis.cycles] == [[0, 1, 2]]


class TestDoubledVectorsInLattice:
    def test_two_chi_in_lattice_small_graphs(self):
        for seed in range(6):
            G = gen(steps=3 + seed % 3, seed=seed * 17 + 1, max_vertices=7)
            if G.m > 14:
                continue
            for e in G.edges:
                assert is_lattice_member(G, {e: 2})


def test_membership_consistent_with_hnf_span(k4):
    from cyclelattice.oracle import enumerate_cycles, hnf_contains

    cycles = enumerate_cycles(k4)
    M = indicator_matrix(k4, cycles)
    order = list(k4.sorted_edges)
    vals = [-2, -1, 0, 1, 2]
    for combo in itertools.islice(itertools.product(vals, repeat=6), 0, 400, 7):
        vec = dict(zip(order, combo))
        direct = bool(is_lattice_member(k4, vec))
        via_hnf = hnf_contains(M, [vec[e] for e in order])
        assert direct == via_hnf, vec


# K4 with its edge 1-2 subdivided at vertex 5: the two halves, edges 0 and 6,
# form a series class, and the forest of spanning_forest holds both
K4_SUBDIVIDED = "5 7\n1 5\n1 3\n1 4\n2 3\n2 4\n3 4\n5 2\n"


# K4 again, its edges listed in another order: a forest of it is no forest of K4
K4_RENUMBERED = "4 6\n1 2\n3 4\n1 3\n2 4\n1 4\n2 3\n"


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda G, T: fundamental_cycle_matrix(G, T), id="fundamental_cycle_matrix"),
        pytest.param(lambda G, T: bridges_and_series_classes(G, T), id="bridges_and_series"),
        pytest.param(lambda G, T: cosimplify(G, forest=T), id="cosimplify"),
        pytest.param(lambda G, T: simple_basis(G, T), id="simple_basis"),
        pytest.param(lambda G, T: semi_fundamental_basis(G, T), id="semi_fundamental_basis"),
        pytest.param(
            lambda G, T: express_in_simple_basis(G, T, dict.fromkeys([0, 1, 3], 1)),
            id="express_in_simple_basis",
        ),
        pytest.param(
            lambda G, T: hull_basis_mod_p(G, FieldSpec(2), simple_basis(T.parent_graph, T)),
            id="hull_basis_mod_p",
        ),
    ],
)
def test_forest_of_another_graph_is_rejected(k4, call):
    T = spanning_forest(parse_edge_list(K4_RENUMBERED))
    with pytest.raises(ArgumentError, match="spanning forest was built on another graph"):
        call(k4, T)


def test_semi_fundamental_walks_one_tree_path_per_cycle_and_exchange(monkeypatch):
    """The matrix walks the tree path of each non-tree edge once, and each
    cycle exchange walks one more; nothing else walks the tree.  A walk is
    one path that tree_paths yields."""
    walks, exchanges = [], []

    def counted_path(*args):
        for path in tree_paths(*args):
            walks.append(path)
            yield path

    shrink = lattice_basis._shrink_pair

    def counted_shrink(*args):
        exchanges.append(args[2:4])
        return shrink(*args)

    for module in (multigraph, cycle_structure, lattice_basis):
        monkeypatch.setattr(module, "tree_paths", counted_path)
    monkeypatch.setattr(lattice_basis, "_shrink_pair", counted_shrink)
    for seed in range(4):
        G = gen(2 * 60 + 1, seed, max_vertices=60)
        T = spanning_forest(G)
        walks.clear()
        exchanges.clear()
        lattice_basis._semi_fundamental_3ec(G, T)
        assert exchanges, seed
        assert len(walks) <= G.m - G.n + 1 + len(exchanges), seed


class TestErrorsNameTheStepAndSizes:
    """Each error of the semi-fundamental construction and of lifting names
    the ids and sizes involved.  The constructions run here without their
    3-edge-connectivity check, and the two internal errors, which no input
    reaches, are reached with arguments no construction passes."""

    def test_seed_pair_names_the_tree_edge_and_its_cut(self, c3):
        with pytest.raises(StructureError) as err:
            lattice_basis._semi_fundamental_3ec(c3, spanning_forest(c3))
        assert str(err.value) == (
            "fundamental cut of tree edge t=0 has the non-tree edges [1], fewer than two: "
            "graph is not 3-edge-connected"
        )

    def test_seed_pair_that_misses_its_tree_edge_names_t_e_and_f(self, k4):
        fcm = fundamental_cycle_matrix(k4, spanning_forest(k4))
        with pytest.raises(InternalError) as err:
            lattice_basis._seed_pair(fcm, set(), 0)  # no tree edge remains
        assert str(err.value) == "seed pair e=3, f=4 does not share the seeding tree edge t=0"

    def test_shrink_pair_names_the_pair_and_the_intersection_size(self):
        G = parse_edge_list(K4_SUBDIVIDED)
        with pytest.raises(StructureError) as err:
            lattice_basis._semi_fundamental_3ec(G, spanning_forest(G))
        assert str(err.value) == (
            "no reconnecting non-tree edge for e=3, f=4 sharing 2 tree edges: "
            "graph is not 3-edge-connected"
        )

    def test_exchange_that_shrinks_nothing_names_the_pair(self, k4):
        fcm = fundamental_cycle_matrix(k4, spanning_forest(k4))
        with pytest.raises(InternalError) as err:
            lattice_basis._shrink_pair(fcm, set(), 3, 4, set(fcm.cycles[3] - {3}))
        assert str(err.value) == (
            "cycle exchange of e=3, f=4 through x=4 shrinks their intersection of 2 tree edges "
            "for neither cycle"
        )

    def test_lift_names_the_cycle_length_and_the_reduced_size(self):
        cos = cosimplify(parse_edge_list(K4_SUBDIVIDED))
        where = "cycle of length 1 on the reduced graph with n=4, m=6"
        with pytest.raises(ArgumentError) as err:
            lattice_basis._lift_cycle(cos, frozenset({99}))
        assert str(err.value) == f"{where} uses edges outside the cosimplification"
        with pytest.raises(InternalError) as err:
            lattice_basis._lift_cycle(cos, frozenset({1}))  # one edge, no loop
        assert str(err.value) == f"{where} does not lift to a simple cycle"


def test_provenance_is_a_tuple_of_its_fields():
    tag = Provenance("semi-fundamental", e=3, f=4, t=0)
    assert tag == ("semi-fundamental", 3, 4, 0, None, None)
    assert tag.label() == "semi-fundamental(e=3,f=4,t=0)"
    assert tag._replace(kind="lifted").label() == "lifted"
    assert Provenance("doubled", t=2).label() == "doubled(t=2)"
    assert Provenance("extension", step=1, case="B").label() == "extension(step=1,kind=B)"
