"""Undirected multigraph model: loops, parallel edges, minors, forests, paths.

Vertex and edge ids are plain ints.  Edge ids are dense, assigned at parse
time, and never reused; minor operations keep the surviving ids so that
vectors indexed by edge id embed canonically across minors.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Container, Iterable
from dataclasses import dataclass
from functools import cached_property

from .errors import ArgumentError, CapacityError, ParseError, StructureError

VertexId = int
EdgeId = int
# vertex -> (its parent, the edge to it), a root -> None
ParentMap = dict[VertexId, tuple[VertexId, EdgeId] | None]

# the most vertices a document header may declare: numeric documents fill
# in ids 1..n, so n alone decides what parsing allocates
VERTEX_BOUND = 10**6


@dataclass(frozen=True, eq=False)
class Multigraph:
    """Immutable multigraph.  Equal endpoints denote a loop."""

    vertices: tuple[VertexId, ...]
    edges: dict[EdgeId, tuple[VertexId, VertexId]]
    labels: dict[VertexId, str] | None = None

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ArgumentError("duplicate vertex id")
        for e, (u, v) in self.edges.items():
            if u not in vset or v not in vset:
                raise ArgumentError(f"edge {e} references unknown vertex")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple[EdgeId, ...]:
        return tuple(sorted(self.edges))

    def endpoints(self, e: EdgeId) -> tuple[VertexId, VertexId]:
        try:
            return self.edges[e]
        except KeyError:
            raise ArgumentError(f"unknown edge id {e}") from None

    def is_loop(self, e: EdgeId) -> bool:
        u, v = self.endpoints(e)
        return u == v

    @cached_property
    def incidence(self) -> dict[VertexId, tuple[tuple[EdgeId, VertexId], ...]]:
        """v -> ((edge, other endpoint), ...) sorted by edge id; loops listed once."""
        inc: dict[VertexId, list[tuple[EdgeId, VertexId]]] = {v: [] for v in self.vertices}
        for e in self.sorted_edges:
            u, v = self.edges[e]
            inc[u].append((e, v))
            if v != u:
                inc[v].append((e, u))
        return {v: tuple(pairs) for v, pairs in inc.items()}

    def degree(self, v: VertexId) -> int:
        """Non-loop incidences plus twice the loop incidences."""
        return sum(2 if w == v else 1 for _, w in self.incidence[v])

    def label_of(self, v: VertexId) -> str:
        if self.labels and v in self.labels:
            return self.labels[v]
        return str(v)

    def other_end(self, e: EdgeId, v: VertexId) -> VertexId:
        u, w = self.endpoints(e)
        if v == u:
            return w
        if v == w:
            return u
        raise ArgumentError(f"vertex {v} is not an endpoint of edge {e}")


@dataclass(frozen=True, eq=False)
class SpanningForest:
    """A BFS forest: one tree per connected component, no loops."""

    parent_graph: Multigraph
    tree_edges: frozenset[EdgeId]
    component_roots: tuple[VertexId, ...]

    @cached_property
    def parents(self) -> ParentMap:
        """vertex -> (its parent, the edge to it), a root -> None, by BFS from
        each root over tree edges; a vertex no root reaches is absent.
        StructureError when a root is no vertex of the graph, or the search
        leaves a tree edge or a root unused."""
        G, roots = self.parent_graph, self.component_roots
        known = all(r in G.incidence for r in roots)
        parent = bfs_parents(G, roots, self.tree_edges) if known else {}
        if len(parent) != len(roots) + len(self.tree_edges):
            raise StructureError("tree edges and roots do not form a forest of the graph")
        return parent

    def path_edges(self, u: VertexId, v: VertexId) -> list[EdgeId]:
        """Edges of the unique forest path from u to v, in path order."""
        parent = self.parents
        path = tree_path(parent, u, v) if u in parent and v in parent else None
        if path is None:
            raise ArgumentError(f"no forest path joins vertices {u} and {v}")
        return path


def tree_path(parent: ParentMap, u: VertexId, v: VertexId) -> list[EdgeId] | None:
    """Edges of the tree path from u to v, in path order, off a parent map.

    parent maps each vertex to (its parent, the edge to it), a root to None.
    Both ends climb one edge per round, and the first end to land on the
    other's trail stands at their lowest common ancestor, so the walk needs
    no depths and takes at most twice the path length.  [] when u == v,
    None when u and v lie in different trees.
    """
    if u == v:
        return []
    x, y = u, v
    up_u: list[EdgeId] = []
    up_v: list[EdgeId] = []
    trail_u = {u: 0}
    trail_v = {v: 0}
    while True:
        step_u = parent[x]
        if step_u is not None:
            x, e = step_u
            up_u.append(e)
            j = trail_v.get(x)
            if j is not None:
                return up_u + up_v[:j][::-1]
            trail_u[x] = len(up_u)
        step_v = parent[y]
        if step_v is not None:
            y, e = step_v
            up_v.append(e)
            j = trail_u.get(y)
            if j is not None:
                return up_u[:j] + up_v[::-1]
            trail_v[y] = len(up_v)
        elif step_u is None:
            return None


@dataclass(frozen=True, eq=False)
class MinorMap:
    """Result of deleting and contracting edge sets, with the vertex quotient."""

    result: Multigraph
    vertex_image: dict[VertexId, VertexId]


class VertexUnion:
    """Union-find over vertices; every block is named by its least vertex."""

    def __init__(self, vertices):
        self.rep: dict[VertexId, VertexId] = {v: v for v in vertices}

    def find(self, v: VertexId) -> VertexId:
        rep = self.rep
        while rep[v] != v:
            rep[v] = rep[rep[v]]
            v = rep[v]
        return v

    def union(self, u: VertexId, v: VertexId) -> bool:
        """Merge the blocks of u and v; False when they are one block already."""
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.rep[max(ru, rv)] = min(ru, rv)
        return True


def parse_edge_list(text: str) -> Multigraph:
    """Parse an edge-list document.

    Format: first non-comment line is "n m"; then m lines "u v" or "u v id".
    '#' starts a comment.  Vertex tokens are arbitrary; they are ordered by
    first appearance unless all of them are numeric, in which case a token
    names the vertex int(token), so "01" and "1" are one vertex, and ids
    1..n fill in isolated vertices.  A header declaring more than
    VERTEX_BOUND vertices raises CapacityError.
    """
    header: tuple[int, int] | None = None
    raw_edges: list[tuple[int, str, str, str | None]] = []  # (lineno, u, v, id?)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected header 'n m'")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ParseError(f"line {lineno}: header counts must be integers") from None
            if header[0] < 0 or header[1] < 0:
                raise ParseError(f"line {lineno}: header counts must be nonnegative")
            if header[0] > VERTEX_BOUND:
                raise CapacityError(
                    f"line {lineno}: {header[0]} vertices exceed the bound of {VERTEX_BOUND}"
                )
            continue
        if len(parts) == 2:
            raw_edges.append((lineno, parts[0], parts[1], None))
        elif len(parts) == 3:
            raw_edges.append((lineno, parts[0], parts[1], parts[2]))
        else:
            raise ParseError(f"line {lineno}: expected 'u v' or 'u v id'")
    if header is None:
        raise ParseError("empty document: missing 'n m' header")
    n, m = header
    if len(raw_edges) != m:
        raise ParseError(f"declared {m} edges but found {len(raw_edges)} edge lines")

    tokens: list[str] = []
    seen: set[str] = set()
    for _, u, v, _ in raw_edges:
        for tok in (u, v):
            if tok not in seen:
                seen.add(tok)
                tokens.append(tok)

    numeric = all(_is_int(t) for t in tokens)  # vacuously numeric when edgeless
    if numeric:
        values = sorted({int(t) for t in tokens})
        if len(values) < n and all(1 <= x <= n for x in values):
            values = list(range(1, n + 1))
        if len(values) != n:
            bad = next(
                (ln, t)
                for ln, u, v, _ in raw_edges
                for t in (u, v)
                if not (1 <= int(t) <= n)
            )
            raise ParseError(f"line {bad[0]}: unknown vertex token '{bad[1]}'")
        vertex_of = {tok: int(tok) for tok in tokens}
        vertices = tuple(values)
        labels = None
    else:
        if len(tokens) > n:
            extra = tokens[n]
            lineno = next(ln for ln, u, v, _ in raw_edges if extra in (u, v))
            raise ParseError(f"line {lineno}: unknown vertex token '{extra}'")
        if len(tokens) < n:
            raise ParseError(f"declared {n} vertices but only {len(tokens)} distinct tokens appear")
        vertex_of = {tok: i + 1 for i, tok in enumerate(tokens)}
        vertices = tuple(range(1, n + 1))
        labels = {i + 1: tok for i, tok in enumerate(tokens)}

    explicit: set[int] = set()
    for lineno, _, _, eid in raw_edges:
        if eid is not None:
            if not _is_int(eid) or int(eid) < 0:
                raise ParseError(f"line {lineno}: edge id must be a nonnegative integer")
            if int(eid) in explicit:
                raise ParseError(f"line {lineno}: duplicate explicit edge id {eid}")
            explicit.add(int(eid))

    edges: dict[EdgeId, tuple[VertexId, VertexId]] = {}
    next_implicit = 0
    for lineno, u, v, eid in raw_edges:
        if eid is None:
            while next_implicit in explicit:
                next_implicit += 1
            key = next_implicit
            next_implicit += 1
        else:
            key = int(eid)
        edges[key] = (vertex_of[u], vertex_of[v])
    return Multigraph(vertices=vertices, edges=edges, labels=labels)


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def format_edge_list(G: Multigraph) -> str:
    """Inverse of parse_edge_list, with explicit edge ids for fidelity."""
    lines = [f"{G.n} {G.m}"]
    for e in G.sorted_edges:
        u, v = G.edges[e]
        lines.append(f"{G.label_of(u)} {G.label_of(v)} {e}")
    return "\n".join(lines) + "\n"


def bfs_parents(
    G: Multigraph, starts: Iterable[VertexId], edges: Container[EdgeId] | None = None
) -> ParentMap:
    """Parent map of a BFS from each start, in order, that is not yet reached.

    The search walks only `edges` when they are given, else every edge of
    G, each vertex's in id order.  A start maps to None and every vertex it
    reaches to (its parent, the edge to it).  Keys are in discovery order,
    so parents precede their children and each tree's keys are contiguous.
    """
    parent: ParentMap = {}
    for r in starts:
        if r in parent:
            continue
        parent[r] = None
        queue = deque([r])
        while queue:
            x = queue.popleft()
            for e, y in G.incidence[x]:
                if y not in parent and (edges is None or e in edges):
                    parent[y] = (x, e)
                    queue.append(y)
    return parent


def forest_of(G: Multigraph, parent: ParentMap) -> SpanningForest:
    """The forest of a bfs_parents map of G, which it keeps as its parents."""
    F = SpanningForest(
        parent_graph=G,
        tree_edges=frozenset(up[1] for up in parent.values() if up is not None),
        component_roots=tuple(v for v, up in parent.items() if up is None),
    )
    F.__dict__["parents"] = parent  # fills the cached property
    return F


def _root_of(parent: ParentMap) -> dict[VertexId, VertexId]:
    """vertex -> the root of its tree, off a map whose parents precede their children."""
    root: dict[VertexId, VertexId] = {}
    for v, up in parent.items():
        root[v] = v if up is None else root[up[0]]
    return root


def tree_parts(
    G: Multigraph, parent: ParentMap
) -> list[tuple[tuple[VertexId, ...], tuple[EdgeId, ...], ParentMap]]:
    """The vertices (sorted), edges (by id) and slice of the map of each tree
    of a bfs_parents map of G that reaches every vertex, in its root order."""
    root = _root_of(parent)
    parts: dict[VertexId, tuple[ParentMap, list[EdgeId]]] = {
        v: ({}, []) for v, up in parent.items() if up is None
    }
    for v, r in root.items():
        parts[r][0][v] = parent[v]
    for e in G.sorted_edges:
        parts[root[G.edges[e][0]]][1].append(e)
    return [(tuple(sorted(up)), tuple(es), up) for up, es in parts.values()]


def connected_components(G: Multigraph) -> list[tuple[tuple[VertexId, ...], tuple[EdgeId, ...]]]:
    """Components as (vertices, edges), ordered by least vertex."""
    return [(vs, es) for vs, es, _ in tree_parts(G, bfs_parents(G, G.vertices))]


def spanning_forest(G: Multigraph, prefer_root: VertexId | None = None) -> SpanningForest:
    """Deterministic BFS forest: least-vertex roots, least-edge-id tie-breaking."""
    if prefer_root is not None and prefer_root not in set(G.vertices):
        raise ArgumentError(f"unknown root vertex {prefer_root}")
    order = G.vertices if prefer_root is None else (prefer_root, *G.vertices)
    return forest_of(G, bfs_parents(G, order))


def forest_from_edges(G: Multigraph, edges) -> SpanningForest | None:
    """The spanning forest of G with exactly these edges, or None.

    None when an id is unknown, the edges close a cycle (a loop included),
    or they leave two vertices of one component of G unjoined.  Each tree
    is rooted at its least vertex.
    """
    tree = frozenset(edges)
    if not tree <= G.edges.keys():
        return None
    F = forest_of(G, bfs_parents(G, sorted(G.vertices), tree))
    if len(F.tree_edges) != len(tree):  # the search left an edge of a cycle unused
        return None
    root = _root_of(F.parents)
    if any(root[u] != root[v] for u, v in G.edges.values()):
        return None
    return F


def minor(G: Multigraph, delete: set[EdgeId], contract: set[EdgeId]) -> MinorMap:
    """Delete one edge set and contract another; order independent.

    Contracting a loop (including an edge made parallel-then-loop by earlier
    contractions) is the same as deleting it.  Surviving edges keep their ids.
    """
    delete = set(delete)
    contract = set(contract)
    if delete & contract:
        raise ArgumentError(f"delete and contract sets overlap: {sorted(delete & contract)}")
    for e in delete | contract:
        if e not in G.edges:
            raise ArgumentError(f"unknown edge id {e}")

    blocks = VertexUnion(G.vertices)
    for e in contract:
        blocks.union(*G.edges[e])
    vertex_image = {v: blocks.find(v) for v in G.vertices}
    new_vertices = tuple(sorted(set(vertex_image.values())))
    removed = delete | contract
    new_edges = {
        e: (vertex_image[u], vertex_image[v])
        for e, (u, v) in G.edges.items()
        if e not in removed
    }
    labels = None
    if G.labels:
        labels = {v: G.labels[v] for v in new_vertices if v in G.labels}
    result = Multigraph(vertices=new_vertices, edges=new_edges, labels=labels)
    return MinorMap(result=result, vertex_image=vertex_image)


def edge_disjoint_paths(
    G: Multigraph, u: VertexId, v: VertexId, k: int
) -> list[list[EdgeId]]:
    """Up to k pairwise edge-disjoint simple u-v paths (unit-capacity flow).

    Returns fewer than k paths when the maximum achievable number is smaller.
    Each path is a list of edge ids from u to v.  Loops are never used.
    """
    if u == v:
        raise ArgumentError("endpoints must be distinct (loops are handled by callers)")
    vset = set(G.vertices)
    if u not in vset or v not in vset:
        raise ArgumentError("unknown endpoint vertex")
    if k <= 0:
        return []

    # flow[e] is +1 along stored orientation, -1 against it, 0 unused
    flow: dict[EdgeId, int] = {e: 0 for e in G.edges}

    def augment() -> bool:
        prev: dict[VertexId, tuple[VertexId, EdgeId, int]] = {u: None}  # type: ignore[dict-item]
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                break
            for e, y in G.incidence[x]:
                if y == x or y in prev:
                    continue
                a, _ = G.edges[e]
                delta = 1 if x == a else -1
                if abs(flow[e] + delta) <= 1:
                    prev[y] = (x, e, delta)
                    queue.append(y)
        if v not in prev:
            return False
        y = v
        while y != u:
            x, e, delta = prev[y]
            flow[e] += delta
            y = x
        return True

    count = 0
    while count < k and augment():
        count += 1

    # walk the flow out of u, shortcutting any revisited vertex so each
    # returned path is vertex-simple; dropped flow cycles are just unused
    out: dict[VertexId, list[tuple[EdgeId, VertexId]]] = {w: [] for w in G.vertices}
    for e in G.sorted_edges:
        a, b = G.edges[e]
        if flow[e] == 1:
            out[a].append((e, b))
        elif flow[e] == -1:
            out[b].append((e, a))
    for lst in out.values():
        lst.reverse()  # pop() then yields least edge id first

    paths: list[list[EdgeId]] = []
    for _ in range(count):
        path: list[EdgeId] = []
        verts = [u]
        pos = {u: 0}
        x = u
        while x != v:
            e, y = out[x].pop()
            if y in pos:
                # drop the cycle x .. y and its edges
                cut = pos[y]
                for w in verts[cut + 1 :]:
                    del pos[w]
                del verts[cut + 1 :]
                del path[cut:]
            else:
                path.append(e)
                verts.append(y)
                pos[y] = len(verts) - 1
            x = y
        paths.append(path)
    return paths


def tree_diameter(F: SpanningForest) -> dict[VertexId, int]:
    """Longest path length (in edges) within each tree, keyed by component root."""

    def farthest(start: VertexId) -> tuple[VertexId, int]:
        """The least vertex at the greatest depth from start, and that depth."""
        depth: dict[VertexId, int] = {}
        for v, up in bfs_parents(F.parent_graph, (start,), F.tree_edges).items():
            depth[v] = 0 if up is None else depth[up[0]] + 1
        far = max(depth.values())
        return min(v for v, d in depth.items() if d == far), far

    return {r: farthest(farthest(r)[0])[1] for r in F.component_roots}
