"""A seeded corpus of graphs, pinned by the semi-fundamental bases built on them.

The corpus holds `gen` graphs under four weightings of the extension kinds
A/B/C, and random multigraphs with loops, parallel edges, bridges, series
paths and several components.  Each graph runs twice: on its default
spanning tree and on the one rooted at its last vertex.  A run's outcome is
its cycles, provenance labels and (t, e, f) triples, or the (exception type,
message) it raises; one sha256 over every outcome pins them all.
"""

import hashlib
import random

from cyclelattice import lattice_basis
from cyclelattice.cycle_structure import cosimplify
from cyclelattice.errors import CycleLatticeError
from cyclelattice.multigraph import Multigraph, spanning_forest
from cyclelattice.topo_extension import gen

GRAPHS_PER_KIND = 100
WEIGHTINGS = ((1.0, 1.0, 1.0), (4.0, 1.0, 1.0), (1.0, 4.0, 1.0), (1.0, 1.0, 4.0))

CORPUS_DIGEST = "fcd2f3168c01f8696e3bc3cdf32dda7d7e061026cdc5f5af804676f7a9543eda"


def _random_multigraph(rng: random.Random, disconnected: bool) -> Multigraph:
    """Connected random blocks with extra edges (loops and parallel edges
    allowed), joined in a row by bridges, except the last join when
    `disconnected`, with pendant edges and edges drawn out into series
    paths."""
    vertices: list[int] = []
    edges: list[tuple[int, int]] = []
    blocks = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 7)
        block = list(range(len(vertices) + 1, len(vertices) + k + 1))
        vertices += block
        blocks.append(block)
        edges += [(rng.choice(block[:i]), block[i]) for i in range(1, k)]
        for _ in range(rng.randint(0, 2 * k + 2)):
            edges.append((rng.choice(block), rng.choice(block)))
    for i in range(1, len(blocks) - disconnected):
        edges.append((rng.choice(blocks[i - 1]), rng.choice(blocks[i])))
    for _ in range(rng.randint(0, 2)):  # a series path replaces an edge
        if edges:
            u, v = edges.pop(rng.randrange(len(edges)))
            w = len(vertices) + 1
            vertices.append(w)
            edges += [(u, w), (w, v)]
    for _ in range(rng.randint(0, 2)):  # a pendant edge
        w = len(vertices) + 1
        vertices.append(w)
        edges.append((rng.choice(vertices[:-1]), w))
    rng.shuffle(edges)
    return Multigraph(tuple(vertices), dict(enumerate(edges)))


def corpus() -> list[Multigraph]:
    rng = random.Random("cyclelattice-semi-fundamental-corpus")
    graphs = []
    for weights in WEIGHTINGS:
        for _ in range(GRAPHS_PER_KIND):
            steps = rng.randint(0, 40)
            cap = rng.choice((None, None, 3, 8, 20))
            graphs.append(gen(steps, rng.randrange(10**9), cap, kind_weights=weights))
    for _ in range(GRAPHS_PER_KIND):
        graphs.append(_random_multigraph(rng, disconnected=False))
    for _ in range(GRAPHS_PER_KIND):
        graphs.append(_random_multigraph(rng, disconnected=rng.random() < 0.5))
    return graphs


def outcome(G: Multigraph, root) -> tuple:
    try:
        T = spanning_forest(G, prefer_root=root)
        basis, triples = lattice_basis.semi_fundamental_basis(G, T)
    except CycleLatticeError as exc:
        return (type(exc).__name__, str(exc))
    labels = [tag.label() for tag in basis.provenance]
    return ([sorted(c) for c in basis.cycles], labels, triples)


def runs():
    for G in corpus():
        for root in (None, G.vertices[-1] if G.vertices else None):
            yield outcome(G, root)


def test_corpus_size_and_mix():
    graphs = corpus()
    assert len(graphs) >= 500
    outcomes = list(runs())
    errors = [o for o in outcomes if isinstance(o[0], str)]
    assert any("not connected" in message for _, message in errors)
    bases = [o for o in outcomes if not isinstance(o[0], str)]
    assert len(bases) > len(outcomes) // 2
    assert any("lifted" in labels for _, labels, _ in bases)
    assert any(any(u == v for u, v in G.edges.values()) for G in graphs)


def test_hat_component_count_matches_the_hat_tree():
    """hat_component_count reads the reduced graph's components off the
    forest and the bridges; a BFS of the reduced graph agrees."""
    for G in corpus():
        for root in (None, G.vertices[-1] if G.vertices else None):
            cos = cosimplify(G, spanning_forest(G, prefer_root=root))
            assert cos.hat_component_count == len(cos.hat_tree.component_roots), G.edges


def test_corpus_reaches_every_exchange_case(monkeypatch):
    """Each exchange keeps the larger of e and f whose tree intersection
    with the exchange cycle x is a nonempty proper part of theirs.  Both
    may shrink, or only e, or only f; the corpus reaches all three."""
    cases = {"both": 0, "e": 0, "f": 0}
    shrink_pair = lattice_basis._shrink_pair

    def counted(*args):
        keep, x, new_inter = shrink_pair(*args)
        fcm = args[0]
        remaining, e, f, inter = args[-4:]
        shared = {y: remaining & fcm.cycles[y] & fcm.cycles[x] for y in (e, f)}
        shrinks = [y for y in (e, f) if shared[y] and shared[y] < inter]
        assert keep == max(shrinks)
        assert new_inter == remaining & fcm.cycles[keep] & fcm.cycles[x]
        cases["both" if len(shrinks) == 2 else "e" if shrinks == [e] else "f"] += 1
        return keep, x, new_inter

    monkeypatch.setattr(lattice_basis, "_shrink_pair", counted)
    for _ in runs():
        pass
    assert all(cases.values()), cases


def test_semi_fundamental_corpus_golden():
    h = hashlib.sha256()
    for o in runs():
        h.update(repr(o).encode("utf-8") + b"\n")
    assert h.hexdigest() == CORPUS_DIGEST
