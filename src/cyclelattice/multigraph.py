"""Undirected multigraph model: loops, parallel edges, minors, forests, paths.

Vertex and edge ids are plain ints.  Edge ids are dense, assigned at parse
time, and never reused; minor operations keep the surviving ids so that
vectors indexed by edge id embed canonically across minors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import ArgumentError, CapacityError, ParseError

VertexId = int
EdgeId = int

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
    def parents(self) -> dict[VertexId, tuple[VertexId, EdgeId] | None]:
        """vertex -> (its parent, the edge to it), a root -> None, by BFS from
        each root over tree edges; a vertex no root reaches is absent."""
        G = self.parent_graph
        parent: dict[VertexId, tuple[VertexId, EdgeId] | None] = {}
        for r in self.component_roots:
            parent[r] = None
            queue = deque([r])
            while queue:
                x = queue.popleft()
                for e, y in G.incidence[x]:
                    if e in self.tree_edges and y not in parent:
                        parent[y] = (x, e)
                        queue.append(y)
        return parent

    def path_edges(self, u: VertexId, v: VertexId) -> list[EdgeId]:
        """Edges of the unique forest path from u to v, in path order."""
        path = tree_path(self.parents, u, v)
        if path is None:
            raise ArgumentError(f"vertices {u} and {v} lie in different components")
        return path


def tree_path(
    parent: dict[VertexId, tuple[VertexId, EdgeId] | None], u: VertexId, v: VertexId
) -> list[EdgeId] | None:
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
    deleted: frozenset[EdgeId]
    contracted: frozenset[EdgeId]
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


def connected_components(G: Multigraph) -> list[tuple[tuple[VertexId, ...], tuple[EdgeId, ...]]]:
    """Components as (vertices, edges), ordered by least vertex."""
    index: dict[VertexId, int] = {}
    comps: list[list[VertexId]] = []
    for start in G.vertices:
        if start in index:
            continue
        index[start] = len(comps)
        comp = [start]
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for _, y in G.incidence[x]:
                if y not in index:
                    index[y] = len(comps)
                    comp.append(y)
                    queue.append(y)
        comps.append(comp)
    edges: list[list[EdgeId]] = [[] for _ in comps]
    for e in G.sorted_edges:
        edges[index[G.edges[e][0]]].append(e)
    return [(tuple(sorted(vs)), tuple(es)) for vs, es in zip(comps, edges)]


def spanning_forest(G: Multigraph, prefer_root: VertexId | None = None) -> SpanningForest:
    """Deterministic BFS forest: least-vertex roots, least-edge-id tie-breaking."""
    if prefer_root is not None and prefer_root not in set(G.vertices):
        raise ArgumentError(f"unknown root vertex {prefer_root}")
    visited: set[VertexId] = set()
    tree: set[EdgeId] = set()
    roots: list[VertexId] = []
    order = list(G.vertices)
    if prefer_root is not None:
        order = [prefer_root] + [v for v in order if v != prefer_root]
    for start in order:
        if start in visited:
            continue
        roots.append(start)
        visited.add(start)
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for e, y in G.incidence[x]:
                if y not in visited:
                    visited.add(y)
                    tree.add(e)
                    queue.append(y)
    return SpanningForest(
        parent_graph=G, tree_edges=frozenset(tree), component_roots=tuple(roots)
    )


def forest_from_edges(G: Multigraph, edges) -> SpanningForest | None:
    """The spanning forest of G with exactly these edges, or None.

    None when an id is unknown, the edges close a cycle (a loop included),
    or they leave two vertices of one component of G unjoined.
    """
    tree = frozenset(edges)
    blocks = VertexUnion(G.vertices)
    for e in tree:
        if e not in G.edges or not blocks.union(*G.edges[e]):
            return None
    for e, (u, v) in G.edges.items():
        if e not in tree and blocks.find(u) != blocks.find(v):
            return None
    roots = tuple(v for v in G.vertices if blocks.find(v) == v)
    return SpanningForest(parent_graph=G, tree_edges=tree, component_roots=roots)


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
    return MinorMap(
        result=result,
        deleted=frozenset(delete),
        contracted=frozenset(contract),
        vertex_image=vertex_image,
    )


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
    G = F.parent_graph
    adj: dict[VertexId, list[tuple[EdgeId, VertexId]]] = {v: [] for v in G.vertices}
    for e in sorted(F.tree_edges):
        a, b = G.edges[e]
        adj[a].append((e, b))
        adj[b].append((e, a))

    def farthest(start: VertexId) -> tuple[VertexId, int]:
        dist = {start: 0}
        queue = deque([start])
        best = (start, 0)
        while queue:
            x = queue.popleft()
            for _, y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    if dist[y] > best[1] or (dist[y] == best[1] and y < best[0]):
                        best = (y, dist[y])
                    queue.append(y)
        return best

    result = {}
    for r in F.component_roots:
        far, _ = farthest(r)
        _, diam = farthest(far)
        result[r] = diam
    return result
