import hypothesis
import pytest

from cyclelattice.multigraph import Multigraph, parse_edge_list

hypothesis.settings.register_profile("dev", max_examples=50, deadline=None)
hypothesis.settings.load_profile("dev")

K4_TEXT = "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
B3_TEXT = "2 3\nu v\nu v\nu v\n"
C3_TEXT = "3 3\n1 2\n2 3\n3 1\n"
P2_TEXT = "2 1\na b\n"
LOOP_TEXT = "1 1\nv v\n"
TRI_PENDANT_TEXT = "4 4\n1 2\n2 3\n3 1\n3 4\n"
TWO_LOOPS_TEXT = "1 2\nv v\nv v\n"


@pytest.fixture(scope="session")
def nx_quotient():
    """quotient(G, contract, delete): G with the edges `contract` contracted
    and `delete` deleted, built with networkx.  Each vertex maps to the
    least vertex of its component under the contracted edges; surviving
    edges keep their ids, order and mapped ends, and labels stay on the
    surviving vertices.  The reference for the package's own contraction."""
    nx = pytest.importorskip("networkx")

    def quotient(G, contract=(), delete=()):
        H = nx.MultiGraph()
        H.add_nodes_from(G.vertices)
        H.add_edges_from(G.edges[e] for e in contract)
        image = {v: min(part) for part in nx.connected_components(H) for v in part}
        removed = {*contract, *delete}
        edges = {e: (image[u], image[v]) for e, (u, v) in G.edges.items() if e not in removed}
        vertices = tuple(sorted(set(image.values())))
        labels = {v: G.labels[v] for v in vertices if v in G.labels} if G.labels else None
        return Multigraph(vertices, edges, labels)

    return quotient


@pytest.fixture
def k4():
    return parse_edge_list(K4_TEXT)


@pytest.fixture
def b3():
    return parse_edge_list(B3_TEXT)


@pytest.fixture
def c3():
    return parse_edge_list(C3_TEXT)


@pytest.fixture
def p2():
    return parse_edge_list(P2_TEXT)


@pytest.fixture
def loop_graph():
    return parse_edge_list(LOOP_TEXT)


@pytest.fixture
def tri_pendant():
    return parse_edge_list(TRI_PENDANT_TEXT)


@pytest.fixture
def two_loops():
    return parse_edge_list(TWO_LOOPS_TEXT)
