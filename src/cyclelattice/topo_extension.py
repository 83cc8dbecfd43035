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
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain

from .errors import ArgumentError, InternalError, StructureError
from .lattice_basis import CycleBasis, Provenance, require_three_edge_connected
from .multigraph import (
    EdgeId,
    Multigraph,
    ParentMap,
    SpanningForest,
    VertexId,
    bfs_parents,
    collector_paused,
    forest_from_edges,
    tree_depths,
    tree_paths,
)

# The chain rebuilds its spanning tree as a BFS tree of the grown graph each
# time the graph's edge count reaches this multiple of its count at the last
# rebuild: about 3m extra work in all, and the tree stays shallow.
TREE_REBUILD_GROWTH = 3 / 2
# A rebuilt tree ranks each vertex by its depth times this gap, so a vertex
# that divides a tree edge can take a rank strictly between its ends'.
RANK_GAP = 1 << 16


@dataclass(frozen=True, slots=True)
class EdgeSplit:
    """Division of edge `old` into `first` and `second` by a new vertex.

    `first` is incident to old's first stored endpoint, `second` to the
    other; both meet at `vertex`.
    """

    old: EdgeId
    first: EdgeId
    second: EdgeId
    vertex: VertexId


@dataclass(frozen=True, slots=True)
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
    def from_json(cls, doc) -> "ExtensionStep":
        """The step to_json wrote; ArgumentError on any other value."""
        doc = _json_object(doc, ("kind", "edge", "endpoints"))
        return cls(
            doc["kind"],
            _json_int(doc["edge"]),
            _json_pair(doc["endpoints"]),
            _json_split(doc.get("split_f")),
            _json_split(doc.get("split_g")),
        )


def _json_split(value) -> EdgeSplit | None:
    if value is None:
        return None
    value = _json_object(value, ("old", "new", "vertex"))
    first, second = _json_pair(value["new"])
    return EdgeSplit(_json_int(value["old"]), first, second, _json_int(value["vertex"]))


def _json_object(value, keys: tuple[str, ...]) -> dict:
    if not isinstance(value, dict) or any(key not in value for key in keys):
        raise ArgumentError(f"expected an object with keys {', '.join(keys)}")
    return value


def _json_int(value) -> int:
    # bool is a subclass of int, but true is no id
    if type(value) is not int:
        raise ArgumentError("expected an integer id")
    return value


def _json_pair(value) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ArgumentError("expected a list of two ids")
    return _json_int(value[0]), _json_int(value[1])


def _json_map(value) -> dict[int, int]:
    """An id map whose keys are decimal strings, as JSON object keys are."""
    if not isinstance(value, dict):
        raise ArgumentError("expected an object mapping ids to ids")
    out = {}
    for key, target in value.items():
        try:
            k = int(key) if isinstance(key, str) else None
        except ValueError:
            k = None
        if k is None or str(k) != key:
            raise ArgumentError("expected a decimal id as key")
        out[k] = _json_int(target)
    return out


class _GrownGraph:
    """A multigraph grown in place, one extension step at a time.

    `ends` maps edge -> (u, v) and `incidence` maps v -> {edge: other end},
    loops listed once, the shape of Multigraph.incidence.  Both keep
    insertion order, which is edge-id order when the graph starts from a
    Multigraph and every step brings larger ids, as the steps of
    `extension_sequence` and `gen` do.
    """

    __slots__ = ("ends", "incidence")

    def __init__(self, H: Multigraph):
        # ends keeps H's own edge order, so a frozen graph lists edges as H did;
        # the inner dicts are copied, as H's cached ones must not grow
        self.ends: dict[EdgeId, tuple[VertexId, VertexId]] = dict(H.edges)
        self.incidence = {v: dict(d) for v, d in H.incidence.items()}

    def _add(self, e: EdgeId, u: VertexId, v: VertexId):
        self.ends[e] = (u, v)
        self.incidence[u][e] = v
        self.incidence[v][e] = u

    def check(self, step: ExtensionStep, splits: tuple[EdgeSplit, ...]):
        """ArgumentError unless the step, whose splits() are `splits`,
        applies to this graph."""
        ends, incidence = self.ends, self.incidence
        new_ids = [step.new_edge]
        for split in splits:
            new_ids.extend((split.first, split.second))
            if split.old not in ends:
                raise ArgumentError(f"split references unknown edge {split.old}")
            if split.vertex in incidence:
                raise ArgumentError(f"split vertex {split.vertex} already exists")
        if len(set(new_ids)) != len(new_ids):
            raise ArgumentError("new edge ids collide")
        for e in new_ids:
            if e in ends:
                raise ArgumentError(f"new edge id {e} already exists")
        if len(splits) == 2 and splits[0].vertex == splits[1].vertex:
            raise ArgumentError("split vertices collide")
        for x in step.endpoints[len(splits):]:
            if x not in incidence:
                raise ArgumentError(f"kind {step.kind}: endpoint {x} does not exist")

    def apply(self, step: ExtensionStep):
        """Apply one extension step in place; surviving edges keep their ids."""
        splits = step.splits()
        self.check(step, splits)
        ends, incidence = self.ends, self.incidence
        for split in splits:
            u, v = ends.pop(split.old)
            del incidence[u][split.old]
            incidence[v].pop(split.old, None)  # already gone when old is a loop
            incidence[split.vertex] = {}
            self._add(split.first, u, split.vertex)
            self._add(split.second, split.vertex, v)
        self._add(step.new_edge, *step.endpoints)

    def freeze(self, labels: dict[VertexId, str] | None = None) -> Multigraph:
        return Multigraph(tuple(sorted(self.incidence)), dict(self.ends), labels)


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


def embed_vector(step: ExtensionStep, x: Mapping[EdgeId, int]) -> dict[EdgeId, int]:
    """Linear embedding of a vector over H into the extended graph.

    An absent edge reads 0, in x and in the result.  A split edge's value
    goes onto both halves, and the new edge reads 0; ArgumentError on a
    nonzero entry of x at an id the step creates.
    """
    out = dict(x)
    created = {step.new_edge}
    for split in step.splits():
        created.update((split.first, split.second))
    for e in sorted(created):
        if out.pop(e, 0):
            raise ArgumentError(f"vector has a nonzero entry at edge {e}, which the step creates")
    for split in step.splits():
        if split.old in out:
            out[split.first] = out[split.second] = out.pop(split.old)
    return out


@dataclass(frozen=True, eq=False)
class ExtensionSequence:
    """Growth of a graph from the single vertex base_vertex, with the final
    correspondence.

    edge_map / vertex_map translate the ids of the fully grown graph to the
    ids of the target graph the sequence was derived from.
    """

    base_vertex: VertexId
    steps: tuple[ExtensionStep, ...]
    edge_map: dict[EdgeId, EdgeId]
    vertex_map: dict[VertexId, VertexId]

    def _base(self) -> _GrownGraph:
        """The one-vertex graph the steps grow."""
        return _GrownGraph(Multigraph((self.base_vertex,), {}))

    def replay(self) -> list[Multigraph]:
        """Snapshots of every grown graph, the one-vertex base first."""
        grown = self._base()
        graphs = [grown.freeze()]
        for step in self.steps:
            grown.apply(step)
            graphs.append(grown.freeze())
        return graphs

    @cached_property
    def grown_edges(self) -> dict[EdgeId, tuple[VertexId, VertexId]]:
        """Edges of the fully grown graph; ArgumentError when a step does not apply.

        Replayed on first access, unless the chain built along the sequence
        filled it from its own replay.
        """
        grown = self._base()
        for step in self.steps:
            grown.apply(step)
        return grown.ends

    def to_json(self) -> dict:
        return {
            "base_vertex": self.base_vertex,
            "steps": [s.to_json() for s in self.steps],
            "edge_map": {str(k): v for k, v in sorted(self.edge_map.items())},
            "vertex_map": {str(k): v for k, v in sorted(self.vertex_map.items())},
        }

    @classmethod
    def from_json(cls, doc) -> "ExtensionSequence":
        """The sequence to_json wrote; ArgumentError on any other value.

        Integer ids only (not bool).  Whether the steps replay is left to the
        reader, as for a sequence built in memory.
        """
        doc = _json_object(doc, ("base_vertex", "steps", "edge_map", "vertex_map"))
        if not isinstance(doc["steps"], list):
            raise ArgumentError("expected a list of steps")
        return cls(
            base_vertex=_json_int(doc["base_vertex"]),
            steps=tuple(ExtensionStep.from_json(step) for step in doc["steps"]),
            edge_map=_json_map(doc["edge_map"]),
            vertex_map=_json_map(doc["vertex_map"]),
        )


class _TopEdge:
    """An edge of the suppressed (topological) graph: a path in the target."""

    __slots__ = ("ends", "gpath", "gverts")

    def __init__(self, ends, gpath, gverts):
        self.ends = ends          # endpoints as grown-graph vertex ids
        self.gpath = gpath        # target edge ids along the path
        self.gverts = gverts      # target vertices, len(gpath) + 1


class _SequenceBuilder:
    """Peels the target graph into paths and emits replayable steps.

    Builds no grown graph, only the suppression bookkeeping: which target
    vertices are branch vertices, which sit inside a suppressed path, and
    which path each grown edge represents.  `active_heap` holds every
    vertex of the covered part that has had uncovered incidences, pushed
    at its first covered edge; those with uncovered incidences left are
    the candidate starts of the next path.
    """

    def __init__(self, G: Multigraph):
        self.G = G
        self.covered: set[EdgeId] = set()
        self.deg: dict[VertexId, int] = {v: 0 for v in G.vertices}
        self.uncovered: dict[VertexId, int] = {v: len(G.incidence[v]) for v in G.vertices}
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
        # the lists are fresh, and nothing changes them
        self.top[rid] = _TopEdge(ends, gpath, gverts)
        for gv in gverts[1:-1]:
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

    def _cover(self, edges):
        """Cover the edges.  A vertex whose degree reaches 3 queues its
        uncovered edges for the sweep; one with uncovered edges left after
        its first covered edge becomes active."""
        G, covered, deg, uncovered = self.G, self.covered, self.deg, self.uncovered
        for e in edges:
            covered.add(e)
            u, v = G.edges[e]
            for x in (u, v) if u != v else (u,):
                old = deg[x]
                deg[x] = old + 1 + (u == v)  # a loop counts twice
                if old < 3 <= deg[x]:
                    self.sweep_queue.extend(f for f in G.incidence[x] if f not in covered)
                uncovered[x] -= 1
                # counts only fall, so this holds at x's first covered edge only
                if 0 < uncovered[x] == len(G.incidence[x]) - 1:
                    heappush(self.active_heap, x)

    # -- phase 0: first cycle ------------------------------------------------

    def _closed_path_from(self, v0: VertexId) -> tuple[list[EdgeId], list[VertexId]]:
        G = self.G
        for e, w in G.incidence[v0].items():
            if w == v0:
                return [e], [v0, v0]
        for e0, x in G.incidence[v0].items():
            path = _bfs_path(G.incidence, x, v0, banned={e0})
            if path is not None:
                verts = _path_vertices(G, [e0] + path, v0)
                return [e0] + path, verts
        raise StructureError(f"no cycle through vertex {v0}: graph is not bridgeless")

    # -- path search -----------------------------------------------------------

    def _search_from(self, v: VertexId):
        """Shortest uncovered path from v to an admissible vertex of H.

        Unless H is a cycle, a path from a vertex of degree 2 may not land
        inside the suppressed path that vertex lies on.  A landing edge back
        onto v itself can coincide with the tree path only when that path
        is the landing edge alone; such edges are retried with the edge
        banned, which finds any second route.
        """
        G, covered, deg, on_edge = self.G, self.covered, self.deg, self.on_edge
        # the suppressed path v lies on, or None when v may land anywhere
        own = None if self.h_is_cycle or deg[v] >= 3 else on_edge[v]
        parent: dict[VertexId, tuple[VertexId, EdgeId]] = {}
        seen = {v}
        queue = deque([v])
        retry: list[EdgeId] = []
        while queue:
            x = queue.popleft()
            for e, y in G.incidence[x].items():
                if e in covered:
                    continue
                if deg[y] > 0:
                    if own is not None and on_edge.get(y) == own:
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
            for e, y in G.incidence[x].items():
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
        heap, uncovered = self.active_heap, self.uncovered
        while heap and not uncovered[heap[0]]:
            heappop(heap)
        if not heap:
            return None
        least = heap[0]
        found = self._search_from(least)
        if found is not None:
            return found
        for v in sorted(x for x in heap if uncovered[x] and x != least):
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
        if not G.vertices:
            raise StructureError("graph has no vertices: a growth sequence starts at one")
        v0 = min(G.vertices)
        self.gv_to_rv[v0] = self._new_rv(v0)
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
                    f"no admissible extension path with {len(self.covered)} of m={G.m} "
                    f"edges covered (steps emitted so far: {len(self.steps)})"
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
                raise InternalError(
                    f"grown edge {rid} still represents a path of {len(te.gpath)} edges"
                )
            edge_map[rid] = te.gpath[0]
        return ExtensionSequence(
            base_vertex=self.gv_to_rv[v0],
            steps=tuple(self.steps),
            edge_map=edge_map,
            vertex_map=dict(self.vmap),
        )


@collector_paused
def extension_sequence(G: Multigraph) -> ExtensionSequence:
    """Decompose a 3-edge-connected graph into a replayable growth sequence.

    Edge-disjoint paths are peeled off so that suppressing degree-2 vertices
    of each partial union yields one-edge extensions; paths rooted at a
    degree-2 vertex of a non-cycle partial graph may not land inside the
    same suppressed path, and single edges between branch vertices are swept
    in after every search.
    """
    require_three_edge_connected(G)
    return _SequenceBuilder(G).build()


def _bfs_path(
    adj: dict[VertexId, dict[EdgeId, VertexId]],
    s: VertexId,
    t: VertexId,
    banned: set[EdgeId] = frozenset(),
) -> list[EdgeId] | None:
    """Shortest s-t path as edge ids in s->t order.

    adj maps each vertex to {edge: other end}, as the `incidence` of a
    Multigraph or a _GrownGraph does.  Banned edges and loops are unused;
    None when t cannot be reached.  The search is bidirectional and
    layer-synchronous (Pohl 1971): each round expands one whole layer of the
    side with the smaller frontier, s's side on equal sizes, in the listed
    order of vertices and edges.  Until the sides meet, each holds exactly
    the ball around its root, so every edge into the other side lands in
    that side's deepest layer: every meeting of the first layer that reaches
    it has the least depth there, and the first one found is taken.
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


def _at_step(index: int | None, step: ExtensionStep, grown: _GrownGraph) -> str:
    """Where a chain failed: the step and the size of the grown graph."""
    where = "the step" if index is None else f"step {index}"
    a, b = step.endpoints
    return (
        f"{where} (kind {step.kind}, endpoints {a}, {b}) on a grown graph "
        f"with n={len(grown.incidence)}, m={len(grown.ends)}"
    )


def _extending_cycles(
    grown: _GrownGraph,
    step: ExtensionStep,
    parent: ParentMap | None,
    rank: dict[VertexId, int] | None,
    index: int | None = None,
) -> list[list[EdgeId]]:
    """The cycles extending a basis across `step`, read off the graph before it.

    Each cycle closes a route between two vertices of that graph: the new
    edge's endpoints for kind A, and for kinds B and C an end of a divided
    edge and the anchor or an end of the other divided edge, through the
    matching halves.  A route is the path of the spanning tree `parent`
    (which spans the graph), walked by `rank`, when that path avoids every
    divided edge, and otherwise a shortest path avoiding them; with no
    tree, always the latter.  Each cycle is a fresh list of its edges: the
    route, then the halves, then the new edge.  `index` names the step in
    errors.
    """
    e = step.new_edge
    sf, sg = step.split_f, step.split_g
    if step.kind == "A":
        a, b = step.endpoints
        if a == b:
            return [[e]]
        ends, halves, banned = [(a, b)], [()], set()
    elif step.kind == "B":
        b = step.endpoints[1]
        u1, u2 = grown.ends[sf.old]
        ends, halves, banned = [(u1, b), (u2, b)], [(sf.first,), (sf.second,)], {sf.old}
    else:
        (u1, u2), (w1, w2) = grown.ends[sf.old], grown.ends[sg.old]
        ends = [(u1, w1), (u2, w2), (u1, w2)]
        halves = [(sf.first, sg.first), (sf.second, sg.second), (sf.first, sg.second)]
        banned = {sf.old, sg.old}
    paths = [None] * len(ends) if parent is None else tree_paths(parent, rank, ends)
    cycles = []
    for (s_end, t_end), route_halves, path in zip(ends, halves, paths):
        if path is None or not banned.isdisjoint(path):
            path = _bfs_path(grown.incidence, s_end, t_end, banned=banned)
        if path is None:
            raise InternalError(
                f"no route from {s_end} to {t_end} avoiding the divided edges at "
                + _at_step(index, step, grown)
            )
        path.extend(route_halves)
        path.append(e)
        cycles.append(path)
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
    the divided edge; kind C adds three.  Each route is a deterministic
    shortest path; when tree_edges (a spanning tree of H) is given, it is
    the tree path wherever that avoids the divided edges, as in
    `compatible_chain`.  ArgumentError when the step does not apply to H,
    as in `apply_extension`, or when tree_edges are not the edges of one
    spanning tree of H.
    """
    if basis is not None and len(basis.cycles) != H.m:
        raise ArgumentError("basis size does not match the graph")
    grown = _GrownGraph(H)
    grown.check(step, step.splits())
    parent = rank = None
    if tree_edges is not None:
        T = forest_from_edges(H, tree_edges)
        if T is None or len(T.component_roots) != 1:
            raise ArgumentError(f"tree edges are not one spanning tree of a graph with n={H.n}")
        parent, rank = T.parents, T.depth
    return [frozenset(c) for c in _extending_cycles(grown, step, parent, rank)]


@dataclass(frozen=True, eq=False)
class CompatibleChain:
    """Extension sequence with nested cycle bases along it.

    When prefixes were kept, `added[k]` holds the cycles that step k adds,
    in the edge ids of the k-th grown graph (entry 0, the base's, is empty),
    and `bases` and `graphs` replay one basis and one graph per grown graph
    from them on first access; otherwise `added` and `bases` are empty and
    `graphs` is None, and the chain holds each cycle once.  `final_basis`
    is always present, in the target graph's edge ids, each cycle
    translated at the step that adds it; its `tree` is the maintained
    spanning tree of the fully grown graph, also translated.
    """

    sequence: ExtensionSequence
    final_basis: CycleBasis
    added: tuple[tuple[frozenset[EdgeId], ...], ...] = ()

    @cached_property
    def graphs(self) -> tuple[Multigraph, ...] | None:
        return tuple(self.sequence.replay()) if self.added else None

    @cached_property
    def bases(self) -> tuple[CycleBasis, ...]:
        """Prefix k is prefix k-1 embedded through step k's splits, then added[k]."""
        if not self.added:
            return ()
        cycles: list[frozenset[EdgeId]] = []
        tags: list[Provenance] = []
        bases = [CycleBasis(cycles=(), provenance=())]
        for i, (step, new) in enumerate(zip(self.sequence.steps, self.added[1:])):
            olds = {split.old for split in step.splits()}
            cycles = [c if olds.isdisjoint(c) else embed_cycle(step, c) for c in cycles]
            cycles.extend(new)
            tags.extend([Provenance("extension", step=i, case=step.kind)] * len(new))
            bases.append(CycleBasis(cycles=tuple(cycles), provenance=tuple(tags)))
        return tuple(bases)


@collector_paused
def compatible_chain(G: Multigraph, keep_prefixes: bool = True) -> CompatibleChain:
    """Grow G from a vertex and extend a cycle basis at every step.

    The extending cycles close along a spanning tree of the grown graph that
    the chain maintains (see _ChainTree): every kind-A cycle, and every
    kind-B or kind-C route whose tree path avoids the divided edges; the
    other routes are shortest paths.
    """
    return _chain_3ec(G, keep_prefixes, extension_sequence(G))


class _ChainTree:
    """The chain's spanning tree of the grown graph, a parent map rooted at
    the base vertex, with a rank that grows strictly from each parent to
    its child, for tree_paths.

    follow(grown, step), after grown.apply(step), keeps it spanning: a
    divided tree edge keeps both halves in the tree, and the split vertex
    ranks strictly between its new parent and child; a divided non-tree
    edge hangs the split vertex off its first half, RANK_GAP above it; the
    new edge never enters.  When no integer lies between, every rank is
    recomputed from the same parent map.  Each time the edge count reaches
    TREE_REBUILD_GROWTH times its count at the last rebuild, the map is
    rebuilt instead, by bfs_parents as a BFS tree of the grown graph from
    the root, so the tree paths stay short.
    """

    __slots__ = ("root", "parent", "rank", "rebuilt_at")

    def __init__(self, root: VertexId):
        self.root = root
        self.parent: ParentMap = {root: None}
        self.rank = {root: 0}
        self.rebuilt_at = 0

    def follow(self, grown: _GrownGraph, step: ExtensionStep):
        m = len(grown.ends)
        if m >= TREE_REBUILD_GROWTH * self.rebuilt_at:
            self.parent = bfs_parents(grown, (self.root,))
            self.rank = _spaced_ranks(self.parent)
            self.rebuilt_at = m
            return
        parent, rank = self.parent, self.rank
        for split in step.splits():
            u, x = grown.ends[split.first]
            v = grown.ends[split.second][1]
            if parent[v] == (u, split.old):
                parent[x], parent[v] = (u, split.first), (x, split.second)
                low, high = rank[u], rank[v]
            elif parent[u] == (v, split.old):
                parent[x], parent[u] = (v, split.second), (x, split.first)
                low, high = rank[v], rank[u]
            else:
                parent[x] = (u, split.first)
                rank[x] = rank[u] + RANK_GAP
                continue
            if high - low > 1:
                rank[x] = (low + high) // 2
            else:
                self.rank = rank = _spaced_ranks(parent)


def _spaced_ranks(parent: ParentMap) -> dict[VertexId, int]:
    """Each vertex's depth times RANK_GAP."""
    return {v: d * RANK_GAP for v, d in tree_depths(parent).items()}


def _chain_3ec(G: Multigraph, keep_prefixes: bool, seq=None) -> CompatibleChain:
    """compatible_chain along seq (built here when None), with no 3EC check.

    Before the first step, `image` maps every edge id the steps use to the
    target edges it grows into, read off the splits in reverse from
    seq.edge_map.  Each step's cycles go through it at that step, so the
    final basis holds one target-id set per cycle; the grown-id sets of
    `added` are built only when prefixes are kept.  Fills seq.grown_edges
    from the chain's own replay.
    """
    if seq is None:
        seq = _SequenceBuilder(G).build()
    edge_map = seq.edge_map
    image = {x: (g,) for x, g in edge_map.items()}
    for step in reversed(seq.steps):
        for split in step.splits():
            image[split.old] = image[split.first] + image[split.second]
    grown = seq._base()
    tree = _ChainTree(seq.base_vertex)
    cycles: list[frozenset[EdgeId]] = []
    tags: list[Provenance] = []
    # per grown graph, the cycles its step adds, in that graph's edge ids
    added: list[tuple[frozenset[EdgeId], ...]] = [()]

    for i, step in enumerate(seq.steps):
        new = _extending_cycles(grown, step, tree.parent, tree.rank, i)
        for c in new:
            cycles.append(frozenset(chain.from_iterable(map(image.__getitem__, c))))
        tags.extend([Provenance("extension", step=i, case=step.kind)] * len(new))
        if keep_prefixes:
            added.append(tuple(map(frozenset, new)))
        grown.apply(step)
        tree.follow(grown, step)
        if len(tree.parent) != len(grown.incidence):
            raise InternalError(
                f"the maintained tree misses {len(grown.incidence) - len(tree.parent)} "
                f"vertices after {_at_step(i, step, grown)}"
            )
    seq.__dict__["grown_edges"] = grown.ends  # fills the cached property

    final_tree_edges = frozenset(edge_map[up[1]] for up in tree.parent.values() if up is not None)
    final_tree = SpanningForest(
        parent_graph=G, tree_edges=final_tree_edges, component_roots=(min(G.vertices),)
    )
    final = CycleBasis(tuple(cycles), tuple(tags), tree=final_tree, sequence=seq)
    return CompatibleChain(seq, final, added=tuple(added) if keep_prefixes else ())


def gen(
    steps: int,
    seed: int,
    max_vertices: int | None = None,
    kind_weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> Multigraph:
    """Random 3-edge-connected multigraph grown by `steps` random extensions.

    Every step keeps the growing graph 3-edge-connected, so the result
    always is.  max_vertices, when given, bounds n and must be at least 1.
    Deterministic for a given seed.
    """
    if steps < 0:
        raise ArgumentError("steps must be nonnegative")
    if max_vertices is not None and max_vertices < 1:
        raise ArgumentError("max_vertices must be at least 1")
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
