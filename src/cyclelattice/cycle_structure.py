"""Fundamental cycles and cuts, bridges, series classes, cosimplification.

Everything here works per connected component, so disconnected graphs are
accepted; operations that genuinely need connectivity say so in their name
or raise explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import StructureError
from .multigraph import (
    EdgeId,
    Multigraph,
    SpanningForest,
    VertexId,
    connected_components,
    minor,
    spanning_forest,
    tree_path,
)


@dataclass(frozen=True, eq=False)
class FundamentalCycleMatrix:
    """Binary incidence of tree edges in fundamental cycles.

    columns[e] lists the tree edges of the cycle closed by non-tree edge e;
    a loop closes the empty set.  By cycle/cut duality the row of a tree
    edge t is exactly the fundamental cut of t minus t itself.
    """

    tree: SpanningForest
    columns: dict[EdgeId, frozenset[EdgeId]]

    @cached_property
    def rows(self) -> dict[EdgeId, frozenset[EdgeId]]:
        row: dict[EdgeId, set[EdgeId]] = {t: set() for t in self.tree.tree_edges}
        for e, col in self.columns.items():
            for t in col:
                row[t].add(e)
        return {t: frozenset(s) for t, s in row.items()}

    def cycle_edges(self, e: EdgeId) -> frozenset[EdgeId]:
        """Full edge set of the fundamental cycle of non-tree edge e."""
        return self.columns[e] | {e}


@dataclass(frozen=True, eq=False)
class SeriesPartition:
    """Bridges plus the partition of non-bridge edges into series classes."""

    bridges: frozenset[EdgeId]
    classes: tuple[frozenset[EdgeId], ...]

    @property
    def nontrivial_classes(self) -> tuple[frozenset[EdgeId], ...]:
        return tuple(c for c in self.classes if len(c) > 1)


@dataclass(frozen=True, eq=False)
class Cosimplification:
    """Minor with bridges deleted and series classes collapsed to one edge.

    It is built on a spanning forest of the parent, and only forest edges
    are contracted.  projection sends every edge of the parent to its class
    representative, or to None for bridges; section inverts it class-wise.
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

    @cached_property
    def _hat_parts(self) -> list[tuple[tuple[VertexId, ...], tuple[EdgeId, ...]]]:
        """One components pass over hat_graph, for hat_tree and components."""
        return connected_components(self.hat_graph)

    @cached_property
    def hat_tree(self) -> SpanningForest:
        """The forest's surviving edges, a spanning forest of hat_graph."""
        if self.identity:
            return self.forest
        edges = frozenset(t for t in self.forest.tree_edges if self.projection[t] == t)
        roots = tuple(vs[0] for vs, _ in self._hat_parts)
        return SpanningForest(self.hat_graph, edges, roots)

    @cached_property
    def components(self) -> tuple[tuple[Multigraph, SpanningForest], ...]:
        """Components of hat_graph that have edges, by least vertex, each
        with the restriction of hat_tree to it.  They are 3-edge-connected
        by construction."""
        hat, tree = self.hat_graph, self.hat_tree
        if len(tree.component_roots) == 1:
            return ((hat, tree),) if hat.m else ()
        out = []
        for vs, es in self._hat_parts:
            if es:
                labels = {v: hat.labels[v] for v in vs if v in hat.labels} if hat.labels else None
                H = Multigraph(vs, {e: hat.edges[e] for e in es}, labels)
                edges = frozenset(e for e in es if e in tree.tree_edges)
                out.append((H, SpanningForest(H, edges, (vs[0],))))
        return tuple(out)

    def lift_edges(self, edges: frozenset[EdgeId]) -> frozenset[EdgeId]:
        out: set[EdgeId] = set()
        for e in edges:
            out |= self.section[e]
        return frozenset(out)


def fundamental_cycle_matrix(G: Multigraph, T: SpanningForest) -> FundamentalCycleMatrix:
    """Fundamental cycle matrix, each column read off the forest's tree path.

    The column of a non-tree edge with endpoints v, v' holds the edges of
    the forest path from v to v'; a loop's column is empty.  A non-tree
    edge whose ends the forest does not join raises StructureError.
    """
    parent = T.parents
    columns: dict[EdgeId, frozenset[EdgeId]] = {}
    for e in G.sorted_edges:
        if e in T.tree_edges:
            continue
        u, v = G.edges[e]
        path = tree_path(parent, u, v) if u in parent and v in parent else None
        if path is None:
            raise StructureError(
                f"non-tree edge {e} joins different forest components"
            )
        columns[e] = frozenset(path)
    return FundamentalCycleMatrix(tree=T, columns=columns)


def bridges_and_series_classes(
    G: Multigraph, T: SpanningForest | None = None
) -> SeriesPartition:
    """Bridges and series classes from fundamental-cycle refinement.

    Bridges are the edges missing from every fundamental cycle; the series
    classes are the blocks of the common refinement of the cycle/co-cycle
    splits over all fundamental cycles.
    """
    if T is None:
        T = spanning_forest(G)
    fcm = fundamental_cycle_matrix(G, T)
    signature: dict[EdgeId, int] = {e: 0 for e in G.edges}
    for i, e in enumerate(sorted(fcm.columns)):
        bit = 1 << i
        signature[e] |= bit
        for t in fcm.columns[e]:
            signature[t] |= bit
    bridges = frozenset(e for e, sig in signature.items() if sig == 0)
    groups: dict[int, list[EdgeId]] = {}
    for e, sig in signature.items():
        if sig:
            groups.setdefault(sig, []).append(e)
    classes = tuple(
        frozenset(members)
        for _, members in sorted(groups.items(), key=lambda kv: min(kv[1]))
    )
    return SeriesPartition(bridges=bridges, classes=classes)


def cosimplify(G: Multigraph, forest: SpanningForest | None = None) -> Cosimplification:
    """Delete bridges, contract all but one edge of each nontrivial class.

    Only edges of the forest (spanning_forest(G) when none is given) are
    contracted: every nontrivial class has at most one non-forest edge, and
    the representative is that edge when there is one, else the class's
    least edge.  With nothing to delete or contract, hat_graph is G itself.
    """
    T = forest if forest is not None else spanning_forest(G)
    partition = bridges_and_series_classes(G, T)
    projection: dict[EdgeId, EdgeId | None] = {e: None for e in partition.bridges}
    section: dict[EdgeId, frozenset[EdgeId]] = {}
    to_contract: set[EdgeId] = set()
    for cls in partition.classes:
        rep = min(cls - T.tree_edges, default=min(cls))
        section[rep] = cls
        to_contract |= cls - {rep}
        for e in cls:
            projection[e] = rep
    hat = G
    if partition.bridges or to_contract:
        hat = minor(G, delete=set(partition.bridges), contract=to_contract).result
    return Cosimplification(G, T, partition, hat, projection, section)


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
    nontrivial = partition.nontrivial_classes
    if nontrivial:
        return ("series", min(nontrivial, key=min))
    return None


def is_three_edge_connected(G: Multigraph) -> bool:
    return three_edge_connectivity_witness(G) is None


def is_simple_cycle(G: Multigraph, edges: frozenset[EdgeId] | set[EdgeId]) -> bool:
    """True when the edge set induces a connected subgraph with all degrees 2.

    A loop alone is a cycle of length 1; a pair of parallel edges is a cycle
    of length 2.
    """
    edges = set(edges)
    if not edges:
        return False
    for e in edges:
        if e not in G.edges:
            return False
    deg: dict[VertexId, int] = {}
    for e in edges:
        u, v = G.edges[e]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    # connectivity over the touched vertices
    verts = list(deg)
    adj: dict[VertexId, list[VertexId]] = {v: [] for v in verts}
    for e in edges:
        u, v = G.edges[e]
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(verts)
