"""Topological one-edge extensions and compatible chains of cycle bases.

A 3-edge-connected graph grows from a single vertex by steps that add one
edge, possibly subdividing one or two existing edges first (kinds A, B, C).
This module synthesizes such a sequence for a given graph by peeling it
into edge-disjoint paths, replays sequences, embeds vectors along them,
and extends cycle bases step by step so that consecutive bases nest.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .errors import ArgumentError, InternalError, StructureError
from .lattice_basis import CycleBasis, EdgeVector, Provenance, require_three_edge_connected
from .multigraph import EdgeId, Multigraph, SpanningForest, VertexId


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
        if self.kind == "A":
            if self.split_f or self.split_g:
                raise ArgumentError("kind A admits no splits")
        elif self.kind == "B":
            if not self.split_f or self.split_g:
                raise ArgumentError("kind B needs exactly split_f")
            if self.endpoints[0] != self.split_f.vertex:
                raise ArgumentError("kind B: first endpoint must be the split vertex")
        elif self.kind == "C":
            if not self.split_f or not self.split_g:
                raise ArgumentError("kind C needs both splits")
            if self.split_f.old == self.split_g.old:
                raise ArgumentError("kind C must divide two distinct edges")
            if self.endpoints != (self.split_f.vertex, self.split_g.vertex):
                raise ArgumentError("kind C: endpoints must be the two split vertices")
        else:
            raise ArgumentError(f"unknown extension kind {self.kind!r}")

    def splits(self) -> tuple[EdgeSplit, ...]:
        return tuple(s for s in (self.split_f, self.split_g) if s is not None)

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


def apply_extension(H: Multigraph, step: ExtensionStep) -> Multigraph:
    """Apply one extension step; surviving edges keep their ids."""
    vset = set(H.vertices)
    new_ids = [step.new_edge]
    for split in step.splits():
        new_ids.extend((split.first, split.second))
        if split.old not in H.edges:
            raise ArgumentError(f"split references unknown edge {split.old}")
        if split.vertex in vset:
            raise ArgumentError(f"split vertex {split.vertex} already exists")
    if len(set(new_ids)) != len(new_ids):
        raise ArgumentError("new edge ids collide")
    for e in new_ids:
        if e in H.edges:
            raise ArgumentError(f"new edge id {e} already exists")
    splits = step.splits()
    if len({s.vertex for s in splits}) != len(splits):
        raise ArgumentError("split vertices collide")

    a, b = step.endpoints
    if step.kind == "A":
        if a not in vset or b not in vset:
            raise ArgumentError("kind A endpoints must exist")
    elif step.kind == "B":
        if b not in vset:
            raise ArgumentError("kind B second endpoint must exist")

    edges = dict(H.edges)
    vertices = list(H.vertices)
    for split in splits:
        u, v = edges.pop(split.old)
        edges[split.first] = (u, split.vertex)
        edges[split.second] = (split.vertex, v)
        vertices.append(split.vertex)
    edges[step.new_edge] = (a, b)
    labels = dict(H.labels) if H.labels else None
    return Multigraph(vertices=tuple(sorted(vertices)), edges=edges, labels=labels)


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
        graphs = [self.base]
        for step in self.steps:
            graphs.append(apply_extension(graphs[-1], step))
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
    which path each grown edge represents.
    """

    def __init__(self, G: Multigraph):
        self.G = G
        self.covered: set[EdgeId] = set()
        self.deg: dict[VertexId, int] = {v: 0 for v in G.vertices}
        self.vmap: dict[VertexId, VertexId] = {}      # grown vertex -> target vertex
        self.gv_to_rv: dict[VertexId, VertexId] = {}  # target branch vertex -> grown
        self.on_edge: dict[VertexId, EdgeId] = {}     # suppressed target vertex -> rid
        self.top: dict[EdgeId, _TopEdge] = {}
        self.steps: list[ExtensionStep] = []
        self.h_is_cycle = False
        self.base_rv: VertexId = 0
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

    def _reanchor(self, new_gv: VertexId):
        """Slide the cycle-phase anchor to another vertex of the cycle."""
        rid = next(iter(self.top))
        te = self.top[rid]
        old_gv = self.vmap[self.base_rv]
        j = te.gverts.index(new_gv)
        te.gpath = te.gpath[j:] + te.gpath[:j]
        te.gverts = te.gverts[j:-1] + te.gverts[: j + 1]
        self.vmap[self.base_rv] = new_gv
        del self.gv_to_rv[old_gv]
        self.on_edge[old_gv] = rid
        del self.on_edge[new_gv]
        self.gv_to_rv[new_gv] = self.base_rv

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

    def _emit(self, step: ExtensionStep, ends, gpath, gverts, path_edges):
        self._add_top_edge(step.new_edge, ends, gpath, gverts)
        self.steps.append(step)
        self._cover(path_edges)

    # -- phase 0: first cycle ------------------------------------------------

    def _closed_path_from(self, v0: VertexId) -> tuple[list[EdgeId], list[VertexId]]:
        G = self.G
        for e, w in G.incidence[v0]:
            if w == v0:
                return [e], [v0, v0]
        for e0, x in G.incidence[v0]:
            path = _bfs_path(G, x, v0, banned={e0})
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
        candidates = sorted(
            v
            for v in self.G.vertices
            if self.deg[v] > 0
            and any(e not in self.covered for e, _ in self.G.incidence[v])
        )
        for v in candidates:
            found = self._search_from(v)
            if found is not None:
                return found
        return None

    # -- translation into steps -----------------------------------------------

    def _translate_cycle_phase(self, path_edges, path_verts):
        v, w = path_verts[0], path_verts[-1]
        anchor_gv = self.vmap[self.base_rv]
        if v == w:
            if v != anchor_gv:
                self._reanchor(v)
            rid = self._new_rid()
            step = ExtensionStep(
                kind="A", new_edge=rid, endpoints=(self.base_rv, self.base_rv)
            )
            self._emit(step, (self.base_rv, self.base_rv), path_edges, path_verts, path_edges)
            return
        if v == anchor_gv:
            split = self._split_at(w)
            rid = self._new_rid()
            step = ExtensionStep(
                kind="B",
                new_edge=rid,
                endpoints=(split.vertex, self.base_rv),
                split_f=split,
            )
            self._emit(
                step,
                (split.vertex, self.base_rv),
                path_edges[::-1],
                path_verts[::-1],
                path_edges,
            )
            return
        if w != anchor_gv:
            self._reanchor(w)
        split = self._split_at(v)
        rid = self._new_rid()
        step = ExtensionStep(
            kind="B", new_edge=rid, endpoints=(split.vertex, self.base_rv), split_f=split
        )
        self._emit(step, (split.vertex, self.base_rv), path_edges, path_verts, path_edges)

    def _translate(self, path_edges, path_verts):
        v, w = path_verts[0], path_verts[-1]
        v_interior = v in self.on_edge
        w_interior = w in self.on_edge and w != v
        if not v_interior and not w_interior:
            a, b = self.gv_to_rv[v], self.gv_to_rv[w]
            rid = self._new_rid()
            step = ExtensionStep(kind="A", new_edge=rid, endpoints=(a, b))
            self._emit(step, (a, b), path_edges, path_verts, path_edges)
        elif v_interior and not w_interior:
            split = self._split_at(v)
            b = self.gv_to_rv[w]
            rid = self._new_rid()
            step = ExtensionStep(
                kind="B", new_edge=rid, endpoints=(split.vertex, b), split_f=split
            )
            self._emit(step, (split.vertex, b), path_edges, path_verts, path_edges)
        elif w_interior and not v_interior:
            split = self._split_at(w)
            b = self.gv_to_rv[v]
            rid = self._new_rid()
            step = ExtensionStep(
                kind="B", new_edge=rid, endpoints=(split.vertex, b), split_f=split
            )
            self._emit(
                step,
                (split.vertex, b),
                path_edges[::-1],
                path_verts[::-1],
                path_edges,
            )
        else:
            split_f = self._split_at(v)
            split_g = self._split_at(w)
            rid = self._new_rid()
            step = ExtensionStep(
                kind="C",
                new_edge=rid,
                endpoints=(split_f.vertex, split_g.vertex),
                split_f=split_f,
                split_g=split_g,
            )
            self._emit(
                step, (split_f.vertex, split_g.vertex), path_edges, path_verts, path_edges
            )

    # -- sweep: single edges between branch vertices ---------------------------

    def _sweep(self):
        while self.sweep_queue:
            e = self.sweep_queue.popleft()
            if e in self.covered:
                continue
            u, v = self.G.edges[e]
            if self.deg[u] >= 3 and self.deg[v] >= 3:
                a, b = self.gv_to_rv[u], self.gv_to_rv[v]
                rid = self._new_rid()
                step = ExtensionStep(kind="A", new_edge=rid, endpoints=(a, b))
                self._emit(step, (a, b), [e], [u, v] if u != v else [u, u], [e])

    # -- main loop ---------------------------------------------------------------

    def build(self) -> ExtensionSequence:
        G = self.G
        v0 = min(G.vertices)
        rv0 = self._new_rv(v0)
        self.base_rv = rv0
        self.gv_to_rv[v0] = rv0
        self.base = Multigraph(vertices=(rv0,), edges={})
        if G.m > 0:
            cyc_edges, cyc_verts = self._closed_path_from(v0)
            rid = self._new_rid()
            step = ExtensionStep(kind="A", new_edge=rid, endpoints=(rv0, rv0))
            self._emit(step, (rv0, rv0), cyc_edges, cyc_verts, cyc_edges)
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
            path_edges, path_verts = found
            if self.h_is_cycle:
                self._translate_cycle_phase(path_edges, path_verts)
            else:
                self._translate(path_edges, path_verts)
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
    require_three_edge_connected(G)
    return _SequenceBuilder(G).build()


def _bfs_path(
    G: Multigraph, s: VertexId, t: VertexId, banned: set[EdgeId] = frozenset()
) -> list[EdgeId] | None:
    """Shortest s-t path as edge ids, avoiding banned edges; loops unused."""
    if s == t:
        return []
    parent: dict[VertexId, tuple[VertexId, EdgeId]] = {}
    seen = {s}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for e, y in G.incidence[x]:
            if e in banned or y == x or y in seen:
                continue
            parent[y] = (x, e)
            if y == t:
                edges = []
                w = y
                while w != s:
                    w, pe = parent[w]
                    edges.append(pe)
                return edges[::-1]
            seen.add(y)
            queue.append(y)
    return None


def _path_vertices(G: Multigraph, edges: list[EdgeId], start: VertexId) -> list[VertexId]:
    verts = [start]
    x = start
    for e in edges:
        x = G.other_end(e, x)
        verts.append(x)
    return verts


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
    BFS; when tree_edges is given, the kind-A path is the tree path.
    """
    if basis is not None and len(basis.cycles) != H.m:
        raise ArgumentError("basis size does not match the graph")
    e = step.new_edge
    if step.kind == "A":
        a, b = step.endpoints
        if a == b:
            return [frozenset({e})]
        banned = (
            frozenset(x for x in H.edges if x not in tree_edges)
            if tree_edges is not None
            else frozenset()
        )
        path = _bfs_path(H, a, b, banned=banned)
        if path is None:
            raise InternalError("no path between the endpoints of a kind-A step")
        return [frozenset(path) | {e}]
    if step.kind == "B":
        split = step.split_f
        u1, u2 = H.edges[split.old]
        b = step.endpoints[1]
        cycles = []
        for u_end, half in ((u1, split.first), (u2, split.second)):
            path = _bfs_path(H, u_end, b, banned={split.old})
            if path is None:
                raise InternalError("divided edge's endpoint cannot reach the anchor")
            cycles.append(frozenset(path) | {half, e})
        return cycles
    # kind C
    sf, sg = step.split_f, step.split_g
    u1, u2 = H.edges[sf.old]
    w1, w2 = H.edges[sg.old]
    banned = {sf.old, sg.old}
    out = []
    for s_end, t_end, extra in (
        (u1, w1, {sf.first, sg.first, e}),
        (u2, w2, {sf.second, sg.second, e}),
        (u1, w2, {sf.first, sg.second, e}),
    ):
        path = _bfs_path(H, s_end, t_end, banned=banned)
        if path is None:
            raise InternalError("divided edges' endpoints fall apart without them")
        out.append(frozenset(path) | extra)
    return out


@dataclass(frozen=True, eq=False)
class CompatibleChain:
    """Extension sequence with nested cycle bases along it.

    `bases` holds one basis per grown graph (in grown-graph edge ids) when
    prefixes were kept; `final_basis` is always present, translated into the
    target graph's edge ids.  `tree` is the maintained spanning tree, also
    translated.
    """

    sequence: ExtensionSequence
    bases: tuple[CycleBasis, ...]
    final_basis: CycleBasis
    graphs: tuple[Multigraph, ...] | None = None
    tree: SpanningForest | None = None


def compatible_chain(G: Multigraph, keep_prefixes: bool = True) -> CompatibleChain:
    """Grow G from a vertex and extend a cycle basis at every step.

    The maintained spanning tree drives kind-A extending cycles; divided
    tree edges keep both halves in the tree, divided non-tree edges keep
    one, and the new edge never enters, so the tree stays spanning.
    """
    seq = extension_sequence(G)
    R = seq.base
    tree: set[EdgeId] = set()
    cycles: list[frozenset[EdgeId]] = []
    tags: list[Provenance] = []
    members: dict[EdgeId, set[int]] = {}
    bases: list[CycleBasis] = [CycleBasis(cycles=(), provenance=(), tree=None)]
    graphs: list[Multigraph] = [R]

    for i, step in enumerate(seq.steps):
        new_cycles = extend_basis(R, None, step, tree_edges=frozenset(tree))
        # embed the existing cycles through the splits
        for split in step.splits():
            for ci in members.pop(split.old, set()):
                cycles[ci] = cycles[ci] - {split.old} | {split.first, split.second}
                members.setdefault(split.first, set()).add(ci)
                members.setdefault(split.second, set()).add(ci)
            if split.old in tree:
                tree.discard(split.old)
                tree.add(split.first)
                tree.add(split.second)
            else:
                tree.add(split.first)
        for cyc in new_cycles:
            idx = len(cycles)
            cycles.append(cyc)
            tags.append(Provenance(kind="extension", step=i, case=step.kind))
            for x in cyc:
                members.setdefault(x, set()).add(idx)
        R = apply_extension(R, step)
        if keep_prefixes:
            bases.append(CycleBasis(cycles=tuple(cycles), provenance=tuple(tags)))
            graphs.append(R)

    edge_map = seq.edge_map or {}
    final_cycles = tuple(frozenset(edge_map[x] for x in cyc) for cyc in cycles)
    final_tree_edges = frozenset(edge_map[x] for x in tree)
    final_tree = SpanningForest(
        parent_graph=G,
        tree_edges=final_tree_edges,
        component_roots=(min(G.vertices),) if G.vertices else (),
    )
    final = CycleBasis(cycles=final_cycles, provenance=tuple(tags), tree=final_tree)
    return CompatibleChain(
        sequence=seq,
        bases=tuple(bases) if keep_prefixes else (),
        final_basis=final,
        graphs=tuple(graphs) if keep_prefixes else None,
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
    G = Multigraph(vertices=(0,), edges={})
    next_v, next_e = 1, 0
    for _ in range(steps):
        kinds = ["A"]
        weights = [kind_weights[0]]
        if G.m >= 1 and (max_vertices is None or G.n + 1 <= max_vertices):
            kinds.append("B")
            weights.append(kind_weights[1])
        if G.m >= 2 and (max_vertices is None or G.n + 2 <= max_vertices):
            kinds.append("C")
            weights.append(kind_weights[2])
        kind = rng.choices(kinds, weights=weights)[0]
        verts = list(G.vertices)
        edge_ids = list(G.sorted_edges)
        if kind == "A":
            a = rng.choice(verts)
            b = rng.choice(verts)
            step = ExtensionStep(kind="A", new_edge=next_e, endpoints=(a, b))
            next_e += 1
        elif kind == "B":
            f = rng.choice(edge_ids)
            b = rng.choice(verts)
            split = EdgeSplit(old=f, first=next_e, second=next_e + 1, vertex=next_v)
            step = ExtensionStep(
                kind="B", new_edge=next_e + 2, endpoints=(next_v, b), split_f=split
            )
            next_e += 3
            next_v += 1
        else:
            f, g = rng.sample(edge_ids, 2)
            split_f = EdgeSplit(old=f, first=next_e, second=next_e + 1, vertex=next_v)
            split_g = EdgeSplit(
                old=g, first=next_e + 2, second=next_e + 3, vertex=next_v + 1
            )
            step = ExtensionStep(
                kind="C",
                new_edge=next_e + 4,
                endpoints=(next_v, next_v + 1),
                split_f=split_f,
                split_g=split_g,
            )
            next_e += 5
            next_v += 2
        G = apply_extension(G, step)
    return G
