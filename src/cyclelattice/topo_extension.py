"""Topological one-edge extensions and compatible chains of cycle bases.

A 3-edge-connected graph grows from a single vertex by steps that add one
edge, possibly subdividing one or two existing edges first (kinds A, B, C).
This module synthesizes such a sequence for a given graph by peeling it
into edge-disjoint paths, replays sequences, embeds vectors along them,
and extends cycle bases step by step so that consecutive bases nest.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush

from .errors import ArgumentError, InternalError, StructureError
from .lattice_basis import CycleBasis, EdgeVector, Provenance, require_three_edge_connected
from .multigraph import EdgeId, Multigraph, SpanningForest, VertexId, tree_path


@dataclass(frozen=True)
class EdgeSplit:
    """Division of edge `old` into `first` and `second` by a new vertex.

    `first` is incident to old's first stored endpoint, `second` to the
    other; both meet at `vertex`.
    """

    old: EdgeId
    first: EdgeId
    second: EdgeId
    vertex: VertexId


@dataclass(frozen=True)
class ExtensionStep:
    """One topological one-edge extension of kind A, B or C."""

    kind: str
    new_edge: EdgeId
    endpoints: tuple[VertexId, VertexId]
    split_f: EdgeSplit | None = None
    split_g: EdgeSplit | None = None

    def __post_init__(self):
        # the kind counts the splits, and the split vertices come first
        splits = self.splits()
        if self.kind not in ("A", "B", "C"):
            raise ArgumentError(f"unknown extension kind {self.kind!r}")
        if self.kind != "ABC"[len(splits)] or (self.split_g and not self.split_f):
            raise ArgumentError(f"kind {self.kind} needs {'ABC'.index(self.kind)} splits")
        if len(splits) == 2 and self.split_f.old == self.split_g.old:
            raise ArgumentError("kind C must divide two distinct edges")
        for i, split in enumerate(splits):
            if self.endpoints[i] != split.vertex:
                raise ArgumentError(f"kind {self.kind}: endpoints must start at the split vertices")

    def splits(self) -> tuple[EdgeSplit, ...]:
        f, g = self.split_f, self.split_g
        return () if f is None else (f,) if g is None else (f, g)

    def to_json(self) -> dict:
        doc: dict = {
            "kind": self.kind,
            "edge": self.new_edge,
            "endpoints": list(self.endpoints),
        }
        for name, split in (("split_f", self.split_f), ("split_g", self.split_g)):
            if split is not None:
                doc[name] = {
                    "old": split.old,
                    "new": [split.first, split.second],
                    "vertex": split.vertex,
                }
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ExtensionStep":
        def parse_split(entry):
            if entry is None:
                return None
            return EdgeSplit(
                old=entry["old"],
                first=entry["new"][0],
                second=entry["new"][1],
                vertex=entry["vertex"],
            )

        return cls(
            kind=doc["kind"],
            new_edge=doc["edge"],
            endpoints=(doc["endpoints"][0], doc["endpoints"][1]),
            split_f=parse_split(doc.get("split_f")),
            split_g=parse_split(doc.get("split_g")),
        )


class _GrownGraph:
    """A multigraph grown in place, one extension step at a time.

    `ends` maps edge -> (u, v) and `adj` maps v -> {edge: other end}, loops
    listed once.  Both keep insertion order, which is edge-id order when the
    graph starts from a Multigraph and every step brings larger ids, as the
    steps of `extension_sequence` and `gen` do.
    """

    __slots__ = ("ends", "adj")

    def __init__(self, H: Multigraph):
        # ends keeps H's own edge order, so a frozen graph lists edges as H did
        self.ends: dict[EdgeId, tuple[VertexId, VertexId]] = dict(H.edges)
        self.adj: dict[VertexId, dict[EdgeId, VertexId]] = {v: {} for v in H.vertices}
        for e in H.sorted_edges:
            u, v = H.edges[e]
            self.adj[u][e] = v
            self.adj[v][e] = u

    def _add(self, e: EdgeId, u: VertexId, v: VertexId):
        self.ends[e] = (u, v)
        self.adj[u][e] = v
        self.adj[v][e] = u

    def apply(self, step: ExtensionStep):
        """Apply one extension step in place; surviving edges keep their ids."""
        ends, adj = self.ends, self.adj
        splits = step.splits()
        new_ids = [step.new_edge]
        for split in splits:
            new_ids.extend((split.first, split.second))
            if split.old not in ends:
                raise ArgumentError(f"split references unknown edge {split.old}")
            if split.vertex in adj:
                raise ArgumentError(f"split vertex {split.vertex} already exists")
        if len(set(new_ids)) != len(new_ids):
            raise ArgumentError("new edge ids collide")
        for e in new_ids:
            if e in ends:
                raise ArgumentError(f"new edge id {e} already exists")
        if len({s.vertex for s in splits}) != len(splits):
            raise ArgumentError("split vertices collide")

        for x in step.endpoints[len(splits):]:
            if x not in adj:
                raise ArgumentError(f"kind {step.kind}: endpoint {x} does not exist")
        for split in splits:
            u, v = ends.pop(split.old)
            del adj[u][split.old]
            adj[v].pop(split.old, None)  # already gone when old is a loop
            adj[split.vertex] = {}
            self._add(split.first, u, split.vertex)
            self._add(split.second, split.vertex, v)
        self._add(step.new_edge, *step.endpoints)

    def freeze(self, labels: dict[VertexId, str] | None = None) -> Multigraph:
        return Multigraph(vertices=tuple(sorted(self.adj)), edges=dict(self.ends), labels=labels)


def apply_extension(H: Multigraph, step: ExtensionStep) -> Multigraph:
    """Apply one extension step; surviving edges keep their ids."""
    grown = _GrownGraph(H)
    grown.apply(step)
    return grown.freeze(dict(H.labels) if H.labels else None)


def embed_cycle(step: ExtensionStep, cycle: frozenset[EdgeId]) -> frozenset[EdgeId]:
    """Image of a cycle of H in the extended graph: splits expand in place."""
    out = set(cycle)
    for split in step.splits():
        if split.old in out:
            out.discard(split.old)
            out.add(split.first)
            out.add(split.second)
    return frozenset(out)


def embed_vector(
    step: ExtensionStep, x: EdgeVector, into: Multigraph | None = None
) -> EdgeVector:
    """Linear embedding of a vector over H into the extended graph.

    A split edge's value is duplicated onto both halves; the new edge gets 0.
    """
    if into is None:
        into = apply_extension(x.graph, step)
    coords = dict(x.coords)
    for split in step.splits():
        if split.old not in coords:
            raise ArgumentError(f"vector lacks split edge {split.old}")
        value = coords.pop(split.old)
        coords[split.first] = value
        coords[split.second] = value
    coords[step.new_edge] = 0
    if set(coords) != set(into.edges):
        raise ArgumentError("embedded vector does not match the target edge set")
    return EdgeVector(graph=into, coords=coords)


@dataclass(frozen=True, eq=False)
class ExtensionSequence:
    """Growth of a graph from a single vertex, with the final correspondence.

    edge_map / vertex_map translate the ids of the fully grown graph to the
    ids of the target graph the sequence was derived from.
    """

    base: Multigraph
    steps: tuple[ExtensionStep, ...]
    edge_map: dict[EdgeId, EdgeId] | None = None
    vertex_map: dict[VertexId, VertexId] | None = None

    def replay(self) -> list[Multigraph]:
        """Snapshots of every grown graph, base first."""
        grown = _GrownGraph(self.base)
        labels = self.base.labels
        graphs = [self.base]
        for step in self.steps:
            grown.apply(step)
            graphs.append(grown.freeze(dict(labels) if labels else None))
        return graphs

    def to_json(self) -> dict:
        doc: dict = {
            "base_vertex": self.base.vertices[0],
            "steps": [s.to_json() for s in self.steps],
        }
        if self.edge_map is not None:
            doc["edge_map"] = {str(k): v for k, v in sorted(self.edge_map.items())}
        if self.vertex_map is not None:
            doc["vertex_map"] = {str(k): v for k, v in sorted(self.vertex_map.items())}
        return doc


class _TopEdge:
    """An edge of the suppressed (topological) graph: a path in the target."""

    __slots__ = ("rid", "ends", "gpath", "gverts")

    def __init__(self, rid, ends, gpath, gverts):
        self.rid = rid
        self.ends = ends          # endpoints as grown-graph vertex ids
        self.gpath = gpath        # target edge ids along the path
        self.gverts = gverts      # target vertices, len(gpath) + 1


class _SequenceBuilder:
    """Peels the target graph into paths and emits replayable steps.

    Builds no grown graph, only the suppression bookkeeping: which target
    vertices are branch vertices, which sit inside a suppressed path, and
    which path each grown edge represents.  `active` holds the vertices of
    the covered part that still have uncovered incidences, the candidate
    starts of the next path; `active_heap` holds them too, and vertices
    that have left `active` until they reach its top.
    """

    def __init__(self, G: Multigraph):
        self.G = G
        self.covered: set[EdgeId] = set()
        self.deg: dict[VertexId, int] = {v: 0 for v in G.vertices}
        self.uncovered: dict[VertexId, int] = {v: len(G.incidence[v]) for v in G.vertices}
        self.active: set[VertexId] = set()
        self.active_heap: list[VertexId] = []
        self.vmap: dict[VertexId, VertexId] = {}      # grown vertex -> target vertex
        self.gv_to_rv: dict[VertexId, VertexId] = {}  # target branch vertex -> grown
        self.on_edge: dict[VertexId, EdgeId] = {}     # suppressed target vertex -> rid
        self.top: dict[EdgeId, _TopEdge] = {}
        self.steps: list[ExtensionStep] = []
        self.h_is_cycle = False
        self._next_rv = 0
        self._next_rid = 0
        self.sweep_queue: deque[EdgeId] = deque()
        self.base: Multigraph | None = None

    # -- id bookkeeping ----------------------------------------------------

    def _new_rv(self, gv: VertexId) -> VertexId:
        rv = self._next_rv
        self._next_rv += 1
        self.vmap[rv] = gv
        return rv

    def _new_rid(self) -> EdgeId:
        rid = self._next_rid
        self._next_rid += 1
        return rid

    def _add_top_edge(self, rid, ends, gpath, gverts):
        te = _TopEdge(rid, ends, list(gpath), list(gverts))
        self.top[rid] = te
        for gv in te.gverts[1:-1]:
            self.on_edge[gv] = rid

    def _split_at(self, gv: VertexId) -> EdgeSplit:
        rid = self.on_edge[gv]
        te = self.top.pop(rid)
        j = te.gverts.index(gv)
        rv_new = self._new_rv(gv)
        rid1, rid2 = self._new_rid(), self._new_rid()
        self._add_top_edge(rid1, (te.ends[0], rv_new), te.gpath[:j], te.gverts[: j + 1])
        self._add_top_edge(rid2, (rv_new, te.ends[1]), te.gpath[j:], te.gverts[j:])
        self.on_edge.pop(gv, None)
        self.gv_to_rv[gv] = rv_new
        return EdgeSplit(old=rid, first=rid1, second=rid2, vertex=rv_new)

    # -- coverage ------------------------------------------------------------

    def _bump(self, v: VertexId, amount: int):
        old = self.deg[v]
        self.deg[v] = old + amount
        if old < 3 <= self.deg[v]:
            for e, _w in self.G.incidence[v]:
                if e not in self.covered:
                    self.sweep_queue.append(e)

    def _cover(self, edges):
        for e in edges:
            self.covered.add(e)
            u, v = self.G.edges[e]
            if u == v:
                self._bump(u, 2)
            else:
                self._bump(u, 1)
                self._bump(v, 1)
            for x in {u, v}:
                self.uncovered[x] -= 1
                if self.uncovered[x]:
                    if x not in self.active:
                        # uncovered counts only fall, so x enters once
                        self.active.add(x)
                        heappush(self.active_heap, x)
                else:
                    self.active.discard(x)

    # -- phase 0: first cycle ------------------------------------------------

    def _closed_path_from(self, v0: VertexId) -> tuple[list[EdgeId], list[VertexId]]:
        G = self.G
        for e, w in G.incidence[v0]:
            if w == v0:
                return [e], [v0, v0]
        # a one-off O(m) copy into _bfs_path's adjacency form, once per sequence
        adj = {v: dict(pairs) for v, pairs in G.incidence.items()}
        for e0, x in G.incidence[v0]:
            path = _bfs_path(adj, x, v0, banned={e0})
            if path is not None:
                verts = _path_vertices(G, [e0] + path, v0)
                return [e0] + path, verts
        raise StructureError(f"no cycle through vertex {v0}: graph is not bridgeless")

    # -- path search -----------------------------------------------------------

    def _allowed_landing(self, v: VertexId):
        if self.h_is_cycle or self.deg[v] >= 3:
            return lambda w: True
        qv = self.on_edge[v]
        return lambda w: self.on_edge.get(w) != qv

    def _search_from(self, v: VertexId):
        """Shortest uncovered path from v to an admissible vertex of H.

        A landing edge back onto v itself can coincide with the tree path
        only when that path is the landing edge alone; such edges are
        retried with the edge banned, which finds any second route.
        """
        G = self.G
        allowed = self._allowed_landing(v)
        parent: dict[VertexId, tuple[VertexId, EdgeId]] = {}
        seen = {v}
        queue = deque([v])
        retry: list[EdgeId] = []
        while queue:
            x = queue.popleft()
            for e, y in G.incidence[x]:
                if e in self.covered:
                    continue
                if self.deg[y] > 0:
                    if not allowed(y):
                        continue
                    if y == v and parent.get(x) == (v, e):
                        retry.append(e)
                        continue
                    return self._reconstruct(parent, v, x, e, y)
                if y == x:
                    continue  # loop at a fresh vertex cannot join a path
                if y not in seen:
                    seen.add(y)
                    parent[y] = (x, e)
                    queue.append(y)
        for e_r in sorted(set(retry)):
            found = self._search_avoiding(v, e_r)
            if found is not None:
                return found
        return None

    def _search_avoiding(self, v: VertexId, e_land: EdgeId):
        """Closed path from v back to v whose last edge is e_land."""
        G = self.G
        target = G.other_end(e_land, v)
        parent: dict[VertexId, tuple[VertexId, EdgeId]] = {}
        seen = {v}
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for e, y in G.incidence[x]:
                if e in self.covered or e == e_land or y == x:
                    continue
                if self.deg[y] > 0 or y in seen:
                    continue
                seen.add(y)
                parent[y] = (x, e)
                if y == target:
                    return self._reconstruct(parent, v, y, e_land, v)
                queue.append(y)
        return None

    def _reconstruct(self, parent, v, x, landing_edge, landing_vertex):
        edges = [landing_edge]
        verts = [landing_vertex, x]
        w = x
        while w != v:
            w, pe = parent[w]
            edges.append(pe)
            verts.append(w)
        return edges[::-1], verts[::-1]

    def _find_path(self):
        """The path found from the least active vertex that has one.

        Almost every search succeeds from the least vertex, the heap's top;
        the others are sorted only when it fails.
        """
        heap, active = self.active_heap, self.active
        while heap and heap[0] not in active:
            heappop(heap)
        if not heap:
            return None
        least = heap[0]
        found = self._search_from(least)
        if found is not None:
            return found
        for v in sorted(active - {least}):
            found = self._search_from(v)
            if found is not None:
                return found
        return None

    # -- translation into steps -----------------------------------------------

    def _translate(self, path_edges, path_verts):
        """Emit the step that adds one path to the covered part.

        An endpoint inside a suppressed path splits it, so the kind counts
        the splits; when the only split is at the far end the path is walked
        from there, because a kind-B step starts at its split vertex.  The
        path is covered in its found order either way.
        """
        ends, splits = [], []
        for gv in (path_verts[0], path_verts[-1]):
            if gv in self.on_edge:
                splits.append(self._split_at(gv))
                ends.append(splits[-1].vertex)
            else:
                ends.append(self.gv_to_rv[gv])
        gpath, gverts = path_edges, path_verts
        if splits and ends[0] != splits[0].vertex:
            ends.reverse()
            gpath, gverts = path_edges[::-1], path_verts[::-1]
        step = ExtensionStep("ABC"[len(splits)], self._new_rid(), tuple(ends), *splits)
        self._add_top_edge(step.new_edge, step.endpoints, gpath, gverts)
        self.steps.append(step)
        self._cover(path_edges)

    def _sweep(self):
        """Add the single uncovered edges between branch vertices."""
        while self.sweep_queue:
            e = self.sweep_queue.popleft()
            if e in self.covered:
                continue
            u, v = self.G.edges[e]
            if self.deg[u] >= 3 and self.deg[v] >= 3:
                self._translate([e], [u, v])

    # -- main loop ---------------------------------------------------------------

    def build(self) -> ExtensionSequence:
        G = self.G
        v0 = min(G.vertices)
        self.gv_to_rv[v0] = self._new_rv(v0)
        self.base = Multigraph(vertices=(self.gv_to_rv[v0],), edges={})
        if G.m > 0:
            self._translate(*self._closed_path_from(v0))
            self.h_is_cycle = True
        while len(self.covered) < G.m:
            self._sweep()
            if len(self.covered) == G.m:
                break
            found = self._find_path()
            if found is None:
                raise InternalError(
                    "no admissible extension path although edges remain uncovered"
                )
            # While the covered part is the first cycle, one grown loop at
            # v0 = min(V), a path must start at v0: one between two inner
            # vertices of the cycle would divide that loop twice.  It always
            # does.  The cut of v0 has at least 3 edges and the cycle covers
            # at most 2 (with one vertex, every edge left is a loop at v0), so
            # v0 is the least active vertex and is searched first; its search
            # lands, on the cycle or back on v0 through a second edge.
            if self.h_is_cycle and found[1][0] != v0:
                raise InternalError(
                    f"path after the first cycle starts at {found[1][0]}, not at {v0}"
                )
            self._translate(*found)
            self.h_is_cycle = False
        self._sweep()

        edge_map: dict[EdgeId, EdgeId] = {}
        for rid, te in self.top.items():
            if len(te.gpath) != 1:
                raise InternalError("a grown edge still represents a longer path")
            edge_map[rid] = te.gpath[0]
        return ExtensionSequence(
            base=self.base,
            steps=tuple(self.steps),
            edge_map=edge_map,
            vertex_map=dict(self.vmap),
        )


def extension_sequence(G: Multigraph) -> ExtensionSequence:
    """Decompose a 3-edge-connected graph into a replayable growth sequence.

    Edge-disjoint paths are peeled off so that suppressing degree-2 vertices
    of each partial union yields one-edge extensions; paths rooted at a
    degree-2 vertex of a non-cycle partial graph may not land inside the
    same suppressed path, and single edges between branch vertices are swept
    in after every search.
    """
    if not G.vertices:
        raise StructureError("graph has no vertices: a growth sequence starts at one")
    require_three_edge_connected(G)
    return _SequenceBuilder(G).build()


def _bfs_path(
    adj: dict[VertexId, dict[EdgeId, VertexId]],
    s: VertexId,
    t: VertexId,
    banned: set[EdgeId] = frozenset(),
) -> list[EdgeId] | None:
    """Shortest s-t path as edge ids in s->t order, in adj (v -> {edge: other end}).

    Banned edges and loops are unused; None when t cannot be reached.  The
    search is bidirectional and layer-synchronous (Pohl 1971): each round
    expands one whole layer of the side with the smaller frontier, s's side
    on equal sizes, in the listed order of vertices and edges.  Until the
    sides meet, each holds exactly the ball around its root, so every edge
    into the other side lands in that side's deepest layer: every meeting of
    the first layer that reaches it has the least depth there, and the first
    one found is taken.
    """
    if s == t:
        return []
    # per side, vertex -> (vertex, edge) one step back toward the side's root
    back: tuple[dict, dict] = ({s: None}, {t: None})
    layers = [[s], [t]]
    while layers[0] and layers[1]:
        i = 0 if len(layers[0]) <= len(layers[1]) else 1
        mine, other = back[i], back[1 - i]
        nxt = []
        for x in layers[i]:
            for e, y in adj[x].items():
                # a loop lands on x, which is already in mine
                if y in mine or e in banned:
                    continue
                if y in other:
                    near_s, near_t = (x, y) if i == 0 else (y, x)
                    return _back_path(back[0], near_s)[::-1] + [e] + _back_path(back[1], near_t)
                mine[y] = (x, e)
                nxt.append(y)
        layers[i] = nxt
    return None


def _back_path(back: dict, v: VertexId) -> list[EdgeId]:
    """Edges from v back to the root of a search side."""
    edges = []
    step = back[v]
    while step is not None:
        v, e = step
        edges.append(e)
        step = back[v]
    return edges


def _path_vertices(G: Multigraph, edges: list[EdgeId], start: VertexId) -> list[VertexId]:
    verts = [start]
    x = start
    for e in edges:
        x = G.other_end(e, x)
        verts.append(x)
    return verts


def _extending_cycles(
    grown: _GrownGraph, step: ExtensionStep, kind_a_path
) -> list[frozenset[EdgeId]]:
    """The cycles extending a basis across `step`, read off the graph before it.

    kind_a_path(a, b) closes a kind-A step between distinct endpoints; the
    halves of divided edges close through shortest paths avoiding them.
    """
    e = step.new_edge
    if step.kind == "A":
        a, b = step.endpoints
        if a == b:
            return [frozenset({e})]
        path = kind_a_path(a, b)
        if path is None:
            raise InternalError("no path between the endpoints of a kind-A step")
        return [frozenset(path) | {e}]
    # each route joins an end of a divided edge to the anchor or to an end
    # of the other divided edge, closing through the matching halves
    sf, sg = step.split_f, step.split_g
    u1, u2 = grown.ends[sf.old]
    if step.kind == "B":
        b = step.endpoints[1]
        routes = [(u1, b, (sf.first,)), (u2, b, (sf.second,))]
    else:
        w1, w2 = grown.ends[sg.old]
        routes = [
            (u1, w1, (sf.first, sg.first)),
            (u2, w2, (sf.second, sg.second)),
            (u1, w2, (sf.first, sg.second)),
        ]
    banned = {split.old for split in step.splits()}
    cycles = []
    for s_end, t_end, halves in routes:
        path = _bfs_path(grown.adj, s_end, t_end, banned=banned)
        if path is None:
            raise InternalError("the ends of a divided edge fall apart without it")
        cycles.append(frozenset(path) | {*halves, e})
    return cycles


def extend_basis(
    H: Multigraph,
    basis: CycleBasis | None,
    step: ExtensionStep,
    tree_edges: frozenset[EdgeId] | None = None,
) -> list[frozenset[EdgeId]]:
    """Cycles whose vectors extend a basis of H to one of the extended graph.

    Kind A adds one cycle through the new edge (the loop itself when the
    endpoints coincide); kind B adds two cycles, one through each half of
    the divided edge; kind C adds three.  Path choices are deterministic
    BFS; when tree_edges (a spanning tree of H) is given, the kind-A path
    is the tree path, as in `compatible_chain`.
    """
    if basis is not None and len(basis.cycles) != H.m:
        raise ArgumentError("basis size does not match the graph")
    grown = _GrownGraph(H)

    def kind_a_path(a, b):
        if tree_edges is None:
            return _bfs_path(grown.adj, a, b)
        parent = SpanningForest(
            parent_graph=H, tree_edges=tree_edges, component_roots=(a,)
        ).parents
        return tree_path(parent, a, b) if b in parent else None

    return _extending_cycles(grown, step, kind_a_path)


@dataclass(frozen=True, eq=False)
class CompatibleChain:
    """Extension sequence with nested cycle bases along it.

    `bases` holds one basis per grown graph (in grown-graph edge ids) when
    prefixes were kept, and `graphs` then replays those grown graphs on
    first access (None otherwise); `final_basis` is always present,
    translated into the target graph's edge ids.  `tree` is the maintained
    spanning tree, also translated.
    """

    sequence: ExtensionSequence
    bases: tuple[CycleBasis, ...]
    final_basis: CycleBasis
    tree: SpanningForest | None = None

    @cached_property
    def graphs(self) -> tuple[Multigraph, ...] | None:
        return tuple(self.sequence.replay()) if self.bases else None


def compatible_chain(G: Multigraph, keep_prefixes: bool = True) -> CompatibleChain:
    """Grow G from a vertex and extend a cycle basis at every step.

    The maintained spanning tree, a parent map rooted at the base vertex,
    drives kind-A extending cycles; divided tree edges keep both halves in
    the tree, a divided non-tree edge hangs the split vertex off its first
    half, and the new edge never enters, so the tree stays spanning.
    """
    seq = extension_sequence(G)
    grown = _GrownGraph(seq.base)
    (root,) = seq.base.vertices
    parent: dict[VertexId, tuple[VertexId, EdgeId] | None] = {root: None}
    cycles: list[frozenset[EdgeId]] = []
    tags: list[Provenance] = []
    members: dict[EdgeId, set[int]] = {}
    bases: list[CycleBasis] = [CycleBasis(cycles=(), provenance=(), tree=None)]

    def kind_a_path(a, b):
        return tree_path(parent, a, b)

    for i, step in enumerate(seq.steps):
        new_cycles = _extending_cycles(grown, step, kind_a_path)
        grown.apply(step)
        for split in step.splits():
            # embed the existing cycles through the split
            for ci in members.pop(split.old, set()):
                cycles[ci] = cycles[ci] - {split.old} | {split.first, split.second}
                members.setdefault(split.first, set()).add(ci)
                members.setdefault(split.second, set()).add(ci)
            u, x = grown.ends[split.first]
            v = grown.ends[split.second][1]
            if parent[v] == (u, split.old):
                parent[x], parent[v] = (u, split.first), (x, split.second)
            elif parent[u] == (v, split.old):
                parent[x], parent[u] = (v, split.second), (x, split.first)
            else:
                parent[x] = (u, split.first)
        for cyc in new_cycles:
            idx = len(cycles)
            cycles.append(cyc)
            tags.append(Provenance(kind="extension", step=i, case=step.kind))
            for x in cyc:
                members.setdefault(x, set()).add(idx)
        if keep_prefixes:
            bases.append(CycleBasis(cycles=tuple(cycles), provenance=tuple(tags)))

    edge_map = seq.edge_map or {}
    final_cycles = tuple(frozenset(edge_map[x] for x in cyc) for cyc in cycles)
    final_tree_edges = frozenset(edge_map[up[1]] for up in parent.values() if up is not None)
    final_tree = SpanningForest(
        parent_graph=G, tree_edges=final_tree_edges, component_roots=(min(G.vertices),)
    )
    final = CycleBasis(cycles=final_cycles, provenance=tuple(tags), tree=final_tree)
    return CompatibleChain(
        sequence=seq,
        bases=tuple(bases) if keep_prefixes else (),
        final_basis=final,
        tree=final_tree,
    )


def gen(
    steps: int,
    seed: int,
    max_vertices: int | None = None,
    kind_weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> Multigraph:
    """Random 3-edge-connected multigraph grown by `steps` random extensions.

    Every step keeps the growing graph 3-edge-connected, so the result
    always is.  Deterministic for a given seed.
    """
    if steps < 0:
        raise ArgumentError("steps must be nonnegative")
    rng = random.Random(seed)
    grown = _GrownGraph(Multigraph(vertices=(0,), edges={}))
    # sorted, as new ids only grow; kept in step with `grown` because
    # copying its keys every step makes gen about 2.5 times slower
    verts: list[VertexId] = [0]
    edge_ids: list[EdgeId] = []
    next_v, next_e = 1, 0
    for _ in range(steps):
        kinds = ["A"]
        weights = [kind_weights[0]]
        if edge_ids and (max_vertices is None or len(verts) + 1 <= max_vertices):
            kinds.append("B")
            weights.append(kind_weights[1])
        if len(edge_ids) >= 2 and (max_vertices is None or len(verts) + 2 <= max_vertices):
            kinds.append("C")
            weights.append(kind_weights[2])
        kind = rng.choices(kinds, weights=weights)[0]
        # the splits take two edge ids and one vertex each, in order; the new
        # edge takes the next id and joins the split vertices, then random ones
        k = "ABC".index(kind)
        olds = rng.sample(edge_ids, 2) if k == 2 else [rng.choice(edge_ids)] if k else []
        first_e, splits, ends = next_e, [], []
        for f in olds:
            splits.append(EdgeSplit(f, next_e, next_e + 1, next_v))
            ends.append(next_v)
            next_e, next_v = next_e + 2, next_v + 1
        while len(ends) < 2:
            ends.append(rng.choice(verts))
        grown.apply(ExtensionStep(kind, next_e, tuple(ends), *splits))
        for split in splits:
            del edge_ids[bisect_left(edge_ids, split.old)]
            verts.append(split.vertex)
        next_e += 1
        edge_ids.extend(range(first_e, next_e))
    return grown.freeze()
