"""Fundamental cycles and cuts, bridges, series classes, cosimplification.

Everything here works per connected component, so disconnected graphs are
accepted; operations that genuinely need connectivity say so in their name
or raise explicitly.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Iterable, Sequence, Set
from dataclasses import dataclass
from functools import cached_property

from .errors import ArgumentError, CapacityError, StructureError
from .multigraph import (
    EdgeId,
    Multigraph,
    SpanningForest,
    VertexId,
    bfs_parents,
    forest_of,
    spanning_forest,
    tree_parts,
    tree_paths,
)

# Past this many non-tree edges, on a forest of one tree, the cut pass first
# runs on pseudo-random words of this many bits, from this seed; see
# bridges_and_series_classes.
LABEL_BITS = 64
LABEL_SEED = 0x5EED
# the most bytes the exact cut signatures may take
EXACT_PASS_BYTES = 2**30


@dataclass(frozen=True, eq=False)
class FundamentalCycleMatrix:
    """Binary incidence of edges in the fundamental cycles of a forest.

    Stored: cycles[e] is the whole fundamental cycle of non-tree edge e,
    e itself included (a loop closes {e}), keyed in ascending edge order.
    Derived on first read, for the readers that need them: rows[t] lists,
    ascending, the non-tree edges whose cycle holds tree edge t.  By
    cycle/cut duality rows[t] is exactly the fundamental cut of t minus t.
    """

    tree: SpanningForest
    cycles: dict[EdgeId, frozenset[EdgeId]]

    @cached_property
    def rows(self) -> dict[EdgeId, list[EdgeId]]:
        # The cycles are keyed ascending, so each row comes out ascending.
        rows: dict[EdgeId, list[EdgeId]] = {t: [] for t in self.tree.tree_edges}
        for e, cycle in self.cycles.items():
            for t in cycle:
                if t != e:
                    rows[t].append(e)
        return rows


@dataclass(frozen=True, eq=False)
class SeriesPartition:
    """Bridges plus the series classes of two or more edges, by least edge;
    every other edge that is not a bridge is a class of its own."""

    bridges: frozenset[EdgeId]
    nontrivial_classes: tuple[frozenset[EdgeId], ...]


@dataclass(frozen=True, eq=False)
class Cosimplification:
    """Minor with bridges deleted and series classes collapsed to one edge.

    It is built on a spanning forest of the parent, and only forest edges
    are contracted.  projection sends each bridge to None and each edge of
    a nontrivial class to the class's representative; section sends each
    such representative to its class.  An edge neither lists is a class of
    its own, its own representative, so the identity holds two empty maps.
    partition holds the bridges and series classes it was built from.
    """

    parent: Multigraph
    forest: SpanningForest
    partition: SeriesPartition
    hat_graph: Multigraph
    projection: dict[EdgeId, EdgeId | None]
    section: dict[EdgeId, frozenset[EdgeId]]

    @property
    def identity(self) -> bool:
        """No bridges and only one-edge series classes: hat_graph is the parent."""
        return self.hat_graph is self.parent

    @property
    def three_edge_connected(self) -> bool:
        """The parent is 3-edge-connected: connected and the identity."""
        return self.identity and len(self.forest.component_roots) <= 1

    @property
    def hat_component_count(self) -> int:
        """Components of hat_graph, off the forest: deleting a bridge, a
        forest edge, adds one, and contracting forest edges adds none."""
        return len(self.forest.component_roots) + len(self.partition.bridges)

    @cached_property
    def hat_tree(self) -> SpanningForest:
        """The forest's surviving edges, a spanning forest of hat_graph, each
        tree rooted at its least vertex."""
        if self.identity:
            return self.forest
        edges = frozenset(t for t in self.forest.tree_edges if self.projection.get(t, t) == t)
        hat = self.hat_graph
        return forest_of(hat, bfs_parents(hat, sorted(hat.vertices), edges))

    @cached_property
    def isolated_vertices(self) -> tuple[VertexId, ...]:
        """Vertices of hat_graph without edges, each a component of its own."""
        hat = self.hat_graph
        return tuple(v for v in hat.vertices if not hat.incidence[v])

    @cached_property
    def components(self) -> tuple[tuple[Multigraph, SpanningForest], ...]:
        """Components of hat_graph that have edges, by least vertex, each
        with the restriction of hat_tree to it.  They are 3-edge-connected
        by construction."""
        hat, tree = self.hat_graph, self.hat_tree
        if len(tree.component_roots) == 1:
            return ((hat, tree),) if hat.m else ()
        isolated = set(self.isolated_vertices)
        parents = {v: up for v, up in tree.parents.items() if v not in isolated}
        out = []
        # sorted: the forest cosimplify was given may put a preferred root first
        for vs, es, up in sorted(tree_parts(hat, parents)):
            labels = {v: hat.labels[v] for v in vs if v in hat.labels} if hat.labels else None
            H = Multigraph(vs, {e: hat.edges[e] for e in es}, labels)
            out.append((H, forest_of(H, up)))
        return tuple(out)

    def _classes(self) -> Iterable[tuple[EdgeId, Collection[EdgeId]]]:
        """(representative, class) of every series class: those of section,
        then each edge that neither map lists, as a class of its own."""
        yield from self.section.items()
        for e in self.parent.edges:
            if e not in self.projection:
                yield e, (e,)

    @cached_property
    def series_paths(self) -> dict[EdgeId, tuple[tuple[VertexId, VertexId], ...] | None]:
        """Each series class, keyed by its representative, as the end pairs
        (a, b) of its paths between ports, the vertices that edges of two or
        more classes meet.

        A vertex other than a port meets one class only, so its degree in
        any union of classes is its degree in that class.  A class is ()
        when such a degree is not 2, or its degree at a port is 3 or more: no
        union that holds it is a simple cycle.  It is None when a path of it
        closes without reaching a port: only a walk of the union decides.
        Exact for any partition of the edges into classes, so it does not
        rely on the partition being that of the series classes.
        """
        ends = self.parent.edges
        owner: dict[VertexId, EdgeId] = {}
        ports: set[VertexId] = set()
        for rep, cls in self._classes():
            for e in cls:
                for x in ends[e]:
                    if owner.setdefault(x, rep) != rep:
                        ports.add(x)
        out: dict[EdgeId, tuple[tuple[VertexId, VertexId], ...] | None] = {}
        for rep, cls in self._classes():
            at: dict[VertexId, list[EdgeId]] = {}  # a loop is listed twice
            for e in cls:
                u, v = ends[e]
                at.setdefault(u, []).append(e)
                at.setdefault(v, []).append(e)
            if any(len(es) > 2 or len(es) < 2 and x not in ports for x, es in at.items()):
                out[rep] = ()
                continue
            paths: list[tuple[VertexId, VertexId]] = []
            finished: set[EdgeId] = set()  # the last edge of each path walked
            walked = 0
            for a, es in at.items():
                if a not in ports:
                    continue
                for e in es:
                    if e in finished:
                        continue
                    x = a
                    while True:
                        walked += 1
                        u, v = ends[e]
                        x = v if u == x else u
                        if x in ports:
                            break
                        first, second = at[x]
                        e = second if first == e else first
                    finished.add(e)
                    paths.append((a, x))
            out[rep] = tuple(paths) if walked == len(cls) else None
        return out

    def classes_form_cycle(self, reps: Collection[EdgeId]) -> bool:
        """Is the union of the series classes of these representatives a
        simple cycle of the parent?

        Off series_paths: with no class () or None, the union is a
        subdivision of the multigraph on the ports whose edges are the
        classes' paths, so it is a cycle exactly when that multigraph is
        one, which takes a walk over the paths only.
        """
        classes = [self.series_paths[rep] for rep in reps]
        if () in classes:
            return False
        if None in classes:
            return is_simple_cycle(self.parent, self.lift_edges(reps))
        paths = [pair for cls in classes for pair in cls]
        return _closes_one_cycle(paths, range(len(paths)))

    def project(self, vector: dict[EdgeId, int]) -> dict[EdgeId, int] | None:
        """The vector over hat_graph's edges, or None when it has no image.

        A vector has an image when it vanishes on bridges and is constant on
        each whole series class; the class's representative then carries
        the value.  Raises ArgumentError on a nonzero entry at an edge the
        parent lacks.
        """
        support = self.parent.support(vector)
        if self.identity:
            return support
        image: dict[EdgeId, int] = {}
        for e, c in support.items():
            rep = self.projection.get(e, e)
            if rep is None or image.setdefault(rep, c) != c:
                return None
        # the support meets each class of the image, so it holds them all
        # exactly when it has as many edges as they do
        if sum(len(self.section.get(rep, (rep,))) for rep in image) != len(support):
            return None
        return image

    def lift_edges(self, edges: Iterable[EdgeId]) -> frozenset[EdgeId]:
        """The union of the series classes of these representatives."""
        return frozenset(x for e in edges for x in self.section.get(e, (e,)))


def fundamental_cycle_matrix(G: Multigraph, T: SpanningForest) -> FundamentalCycleMatrix:
    """Fundamental cycle matrix, from one walk of all the tree paths.

    The non-tree edges are taken in ascending order.  The cycle of one with
    endpoints v, v' holds it and the edges of the forest path from v to v',
    read off multigraph.tree_paths by depth.  A forest of another graph
    raises ArgumentError; a non-tree edge whose ends the forest does not
    join raises StructureError.
    """
    _require_forest_of(G, T)
    tree_edges, ends = T.tree_edges, G.edges
    non_tree = [e for e in G.sorted_edges if e not in tree_edges]
    cycles: dict[EdgeId, frozenset[EdgeId]] = {}
    paths = tree_paths(T.parents, T.depth, map(ends.__getitem__, non_tree))
    for e, path in zip(non_tree, paths):
        if path is None:
            raise StructureError(
                f"non-tree edge {e} joins different forest components"
            )
        path.append(e)
        cycles[e] = frozenset(path)
    return FundamentalCycleMatrix(tree=T, cycles=cycles)


def _require_forest_of(G: Multigraph, T: SpanningForest) -> None:
    """ArgumentError unless T was built on G itself."""
    if T.parent_graph is not G:
        raise ArgumentError("spanning forest was built on another graph")


def bridges_and_series_classes(
    G: Multigraph, T: SpanningForest | None = None
) -> SeriesPartition:
    """Bridges and series classes from cut signatures, off the forest alone.

    An edge's signature is the bitmask of the non-tree edges (bits in sorted
    order) whose fundamental cycle holds it.  By cycle/cut duality a tree
    edge's is the XOR of the bits held by the vertices below it, each vertex
    holding its non-tree edges' bits (a loop's cancels).  Bridges have
    signature 0; the nontrivial classes are the groups of two or more edges
    with one signature, by least edge.  When every signature is nonzero and
    distinct, as in a 3-edge-connected graph, nothing is grouped.  A
    forest of another graph raises ArgumentError; a non-tree edge whose ends
    the forest does not join raises StructureError.

    Past LABEL_BITS non-tree edges, on a forest of one tree, the same pass
    first runs on LABEL_BITS-bit labels: _random_labels gives each non-tree
    edge a word in place of its bit, and every edge's label is then the
    image of its signature under the GF(2)-linear map that sends each bit
    to its word.  Equal signatures give equal labels and a zero signature
    a zero label, so when every label is nonzero and no two are equal, the
    same holds for the signatures: every edge is a class of its own, and
    that one-sided answer is exact.  A zero or repeated label, or an end
    the tree does not reach, leaves the answer to the exact bits, whose
    pass raises CapacityError when its estimated size (n+m)*ceil(k/8)
    bytes, k the number of non-tree edges, is past EXACT_PASS_BYTES.
    """
    if T is None:
        T = spanning_forest(G)
    else:
        _require_forest_of(G, T)
    non_tree = [e for e in G.sorted_edges if e not in T.tree_edges]
    k = len(non_tree)
    if k > LABEL_BITS and len(T.component_roots) == 1:
        labels, unjoined = _cut_labels(G, T, non_tree, _random_labels(k))
        if not unjoined and _nonzero_and_distinct(labels):
            return SeriesPartition(frozenset(), ())
    size = (G.n + G.m) * -(-k // 8)
    if size > EXACT_PASS_BYTES:
        raise CapacityError(
            f"exact series classes of a graph with n={G.n}, m={G.m} need about "
            f"{size} bytes of cut signatures, past the limit of {EXACT_PASS_BYTES}"
        )
    signature, unjoined = _cut_labels(G, T, non_tree, (1 << i for i in range(k)))
    if unjoined:
        e = non_tree[(unjoined & -unjoined).bit_length() - 1]
        raise StructureError(f"non-tree edge {e} joins different forest components")
    if _nonzero_and_distinct(signature):
        return SeriesPartition(frozenset(), ())
    groups: dict[int, list[EdgeId]] = {}
    for e, sig in signature.items():
        groups.setdefault(sig, []).append(e)
    bridges = frozenset(groups.pop(0, ()))
    classes = tuple(frozenset(g) for g in groups.values() if len(g) > 1)
    return SeriesPartition(bridges=bridges, nontrivial_classes=classes)


def _random_labels(k: int) -> list[int]:
    """k pseudo-random LABEL_BITS-bit words, the same on every call."""
    rng = random.Random(LABEL_SEED)
    return [rng.getrandbits(LABEL_BITS) for _ in range(k)]


def _cut_labels(
    G: Multigraph, T: SpanningForest, non_tree: list[EdgeId], labels: Iterable[int]
) -> tuple[dict[EdgeId, int], int]:
    """Every edge's label, keyed in ascending edge order, and the OR of
    the labels left unjoined.

    Each non-tree edge takes the next label; a tree edge's is the XOR of
    the labels held by the vertices below it, each vertex holding its
    non-tree edges' labels.  A label is left unjoined when an end of its
    edge is no vertex of the forest, or it reaches a root: an edge whose
    ends share a tree enters that tree twice and cancels.
    """
    below = dict.fromkeys(T.parents, 0)
    label = dict.fromkeys(G.sorted_edges, 0)
    unjoined = 0
    for e, bit in zip(non_tree, labels):
        label[e] = bit
        for x in G.edges[e]:
            if x in below:
                below[x] ^= bit
            else:
                unjoined |= bit
    for v, up in reversed(T.parents.items()):  # parents precede their children
        if up is None:
            unjoined |= below[v]
        else:
            below[up[0]] ^= below[v]
            label[up[1]] = below[v]
    return label, unjoined


def _nonzero_and_distinct(label: dict[EdgeId, int]) -> bool:
    values = label.values()
    return 0 not in values and len(set(values)) == len(label)


def cosimplify(G: Multigraph, forest: SpanningForest | None = None) -> Cosimplification:
    """Delete bridges, contract all but one edge of each nontrivial class.

    Only edges of the forest (spanning_forest(G) when none is given) are
    contracted: every nontrivial class has at most one non-forest edge, and
    the representative is that edge when there is one, else the class's
    least edge.  With nothing to delete or contract, hat_graph is G itself
    and both maps are empty.
    """
    T = forest if forest is not None else spanning_forest(G)
    partition = bridges_and_series_classes(G, T)
    projection: dict[EdgeId, EdgeId | None] = dict.fromkeys(partition.bridges)
    section: dict[EdgeId, frozenset[EdgeId]] = {}
    to_contract: set[EdgeId] = set()
    for cls in partition.nontrivial_classes:
        rep = min(cls - T.tree_edges, default=min(cls))
        section[rep] = cls
        to_contract |= cls - {rep}
        projection.update(dict.fromkeys(cls, rep))
    hat = _contract_forest_edges(G, T, partition.bridges, to_contract) if projection else G
    return Cosimplification(G, T, partition, hat, projection, section)


def _contract_forest_edges(
    G: Multigraph, T: SpanningForest, delete: Iterable[EdgeId], contract: set[EdgeId]
) -> Multigraph:
    """G with the edges `delete` deleted and the edges `contract` of the forest T contracted.

    One pass over T's parent map, parents before children, puts each
    vertex in the block of its parent when the edge to it is contracted.
    Each block is named by its least vertex; surviving edges keep their
    ids and order, and labels stay on surviving vertices.  Contracted
    forest edges close no cycle, so none of them becomes a loop.
    """
    top: dict[VertexId, VertexId] = {}  # vertex -> the first vertex of its block
    least: dict[VertexId, VertexId] = {}  # first vertex of a block -> its least
    for v, up in T.parents.items():
        if up is not None and up[1] in contract:
            t = top[v] = top[up[0]]
            if v < least[t]:
                least[t] = v
        else:
            top[v] = least[v] = v
    image = {v: v for v in G.vertices}
    for v, t in top.items():
        image[v] = least[t]
    removed = contract.union(delete)
    edges = {e: (image[u], image[v]) for e, (u, v) in G.edges.items() if e not in removed}
    vertices = tuple(sorted(v for v in G.vertices if image[v] == v))
    labels = None
    if G.labels:
        labels = {v: G.labels[v] for v in vertices if v in G.labels}
    return Multigraph(vertices=vertices, edges=edges, labels=labels)


def three_edge_connectivity_witness(G: Multigraph | Cosimplification) -> tuple[str, object] | None:
    """None when 3-edge-connected, else (kind, witness) naming the failure.

    kind is "disconnected" (witness: component count), "bridge" (witness:
    edge id) or "series" (witness: a nontrivial class).  Single-vertex
    graphs, with or without loops, count as 3-edge-connected.  G may be
    given by its cosimplification, whose forest and partition then answer.
    """
    if isinstance(G, Cosimplification):
        T, partition = G.forest, G.partition
    else:
        T = spanning_forest(G)
        partition = bridges_and_series_classes(G, T)
    if len(T.component_roots) > 1:
        return ("disconnected", len(T.component_roots))
    if partition.bridges:
        return ("bridge", min(partition.bridges))
    if partition.nontrivial_classes:
        return ("series", partition.nontrivial_classes[0])
    return None


def is_three_edge_connected(G: Multigraph) -> bool:
    return three_edge_connectivity_witness(G) is None


def is_simple_cycle(G: Multigraph, edges: Set[EdgeId]) -> bool:
    """True when the edge set induces a connected subgraph with all degrees 2.

    A loop alone is a cycle of length 1; a pair of parallel edges is a cycle
    of length 2.
    """
    return edges <= G.edges.keys() and _closes_one_cycle(G.edges, edges)


def _closes_one_cycle(
    ends: Sequence[tuple[VertexId, VertexId]] | dict[EdgeId, tuple[VertexId, VertexId]],
    edges: Collection[EdgeId],
) -> bool:
    """Do these edges, with ends[e] the ends of e, form one cycle?"""
    if not edges:
        return False
    # the first and second edge at each vertex; a loop is both at its vertex
    first: dict[VertexId, EdgeId] = {}
    second: dict[VertexId, EdgeId] = {}
    for e in edges:
        for x in ends[e]:
            if x not in first:
                first[x] = e
            elif x not in second:
                second[x] = e
            else:
                return False
    if len(second) != len(first):
        return False
    # every degree is 2, so the walk from one edge returns to it; the set is
    # one cycle exactly when that walk uses every edge
    start = e = next(iter(edges))
    x = ends[e][1]
    walked = 1
    while True:
        a = first[x]
        e = second[x] if a == e else a
        if e == start:
            return walked == len(edges)
        walked += 1
        u, v = ends[e]
        x = v if u == x else u
