"""Undirected multigraph model: loops, parallel edges, forests, paths.

Vertex and edge ids are plain ints.  Edge ids are dense, assigned at parse
time, and never reused; a graph derived from another by deleting or
contracting edges keeps the surviving ids, so that vectors indexed by edge
id embed canonically across such graphs.
"""

from __future__ import annotations

import gc
from collections import deque
from collections.abc import Callable, Container, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import chain
from typing import TypeVar

from .errors import ArgumentError, CapacityError, ParseError, StructureError

VertexId = int
EdgeId = int
# vertex -> (its parent, the edge to it), a root -> None
ParentMap = dict[VertexId, tuple[VertexId, EdgeId] | None]

# the most vertices a document header may declare: numeric documents fill
# in ids 1..n, so n alone decides what parsing allocates
VERTEX_BOUND = 10**6

_Call = TypeVar("_Call", bound=Callable)


def collector_paused(func: _Call) -> _Call:
    """func, run with Python's cyclic garbage collector paused.

    The package's constructions and certificates allocate many containers
    and create no reference cycles, so a collection during them would only
    traverse live objects.  The collector is switched back on at every exit,
    a raise included, when the caller had it on; when it is already off, as
    in a nested call or a CLI command, the call costs one gc.isenabled().
    This is the package's one home of gc.disable and gc.enable.
    """

    @wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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
        if not vset.issuperset(chain.from_iterable(self.edges.values())):
            e = next(e for e, (u, v) in self.edges.items() if u not in vset or v not in vset)
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
    def incidence(self) -> dict[VertexId, dict[EdgeId, VertexId]]:
        """v -> {edge: other endpoint} in edge-id order; loops listed once.

        The inner dicts are shared by every reader: copy one before growing it.
        """
        inc: dict[VertexId, dict[EdgeId, VertexId]] = {v: {} for v in self.vertices}
        edges = self.edges
        for e in self.sorted_edges:
            u, v = edges[e]
            inc[u][e] = v
            inc[v][e] = u
        return inc

    def support(self, vector: Mapping[EdgeId, int]) -> dict[EdgeId, int]:
        """The vector's nonzero entries; ArgumentError at an edge G lacks."""
        support = {e: c for e, c in vector.items() if c}
        if not support.keys() <= self.edges.keys():
            unknown = min(support.keys() - self.edges.keys())
            raise ArgumentError(f"vector has a nonzero entry at unknown edge {unknown}")
        return support

    def degree(self, v: VertexId) -> int:
        """Non-loop incidences plus twice the loop incidences."""
        return sum(2 if w == v else 1 for w in self.incidence[v].values())

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

    @cached_property
    def depth(self) -> dict[VertexId, int]:
        """vertex -> its number of edges below its root, the forest's rank
        for tree_paths."""
        return tree_depths(self.parents)

    def path_edges(self, u: VertexId, v: VertexId) -> list[EdgeId]:
        """Edges of the unique forest path from u to v, in path order."""
        path = next(tree_paths(self.parents, self.depth, [(u, v)]))
        if path is None:
            raise ArgumentError(f"no forest path joins vertices {u} and {v}")
        return path


def tree_depths(parent: ParentMap) -> dict[VertexId, int]:
    """vertex -> its number of edges below its root, off a parent map.

    One pass when parents precede their children, as in a bfs_parents map;
    a vertex met before its parent climbs to the first vertex measured.
    """
    depth: dict[VertexId, int] = {}
    for v, up in parent.items():
        if up is None:
            depth[v] = 0
            continue
        d = depth.get(up[0])
        if d is None:  # v comes before its parent: measure its ancestors first
            trail, x = [], up[0]
            while x not in depth and parent[x] is not None:
                trail.append(x)
                x = parent[x][0]
            d = depth.setdefault(x, 0)
            for y in reversed(trail):
                d += 1
                depth[y] = d
        depth[v] = d + 1
    return depth


def tree_paths(
    parent: ParentMap, rank: Mapping[VertexId, int], pairs: Iterable[tuple[VertexId, VertexId]]
) -> Iterator[list[EdgeId] | None]:
    """For each pair (u, v), the edges of the tree path from u to v in path
    order, off a parent map; None when u and v lie in different trees, or
    one of them in none.

    parent maps each vertex to (its parent, the edge to it), a root to None,
    and rank grows strictly from a parent to each child, as depth does.  So
    a proper ancestor of a vertex ranks below it: while the ends differ,
    the one of higher rank (u on a tie) is no ancestor of the other, and it
    climbs one edge.  The ends meet at their lowest common ancestor, and a
    root that would climb has no descendant among the other end's
    ancestors.  [] when u == v.
    """
    for u, v in pairs:
        ru, rv = rank.get(u), rank.get(v)
        if ru is None or rv is None:
            yield None
            continue
        up: list[EdgeId] = []
        down: list[EdgeId] = []
        while u != v:
            if ru >= rv:
                step = parent[u]
                if step is None:
                    break
                u, e = step
                up.append(e)
                ru = rank[u]
            else:
                step = parent[v]
                if step is None:
                    break
                v, e = step
                down.append(e)
                rv = rank[v]
        if u != v:
            yield None
            continue
        down.reverse()
        up += down
        yield up


@collector_paused
def parse_edge_list(text: str) -> Multigraph:
    """Parse an edge-list document.

    Format: first non-comment line is "n m"; then m lines "u v" or "u v id".
    Lines end only at LF, CR LF or CR, the line ends that text-mode open()
    turns into LF; str.splitlines() would also break at a form feed and
    the like.  '#' starts a comment.  Vertex tokens are arbitrary; they are
    ordered by first appearance unless all of them are numeric, in which
    case a token names the vertex int(token), so "01" and "1" are one
    vertex, and ids 1..n fill in isolated vertices.  A header declaring
    more than VERTEX_BOUND vertices raises CapacityError.

    Each line is split once and each distinct token converted once; the
    rows are checked in bulk, and a line number is looked up only for the
    error that names it.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    rows = [(line.split("#", 1)[0] if "#" in line else line).split() for line in lines]
    head = next((i for i, parts in enumerate(rows) if parts), None)
    if head is None:
        raise ParseError("empty document: missing 'n m' header")
    n, m = _header(rows[head], head + 1)
    body = [parts for parts in rows[head + 1 :] if parts]

    def line_of(k: int) -> int:
        """The line number of body[k]."""
        return [i for i, parts in enumerate(rows, start=1) if parts][k + 1]

    shapes = set(map(len, body))
    if not shapes <= {2, 3}:
        k = next(k for k, parts in enumerate(body) if len(parts) not in (2, 3))
        raise ParseError(f"line {line_of(k)}: expected 'u v' or 'u v id'")
    if len(body) != m:
        raise ParseError(f"declared {m} edges but found {len(body)} edge lines")

    us = [parts[0] for parts in body]
    vs = [parts[1] for parts in body]
    tokens = list(dict.fromkeys(chain.from_iterable(zip(us, vs))))
    try:
        vertex_of = {t: int(t) for t in tokens}  # vacuously numeric when edgeless
    except ValueError:
        vertex_of = None
    if vertex_of is not None:
        values = sorted(set(vertex_of.values()))
        if len(values) < n and (not values or (values[0] >= 1 and values[-1] <= n)):
            values = list(range(1, n + 1))
        if len(values) != n:
            k, t = next(
                (k, t)
                for k, pair in enumerate(zip(us, vs))
                for t in pair
                if not (1 <= vertex_of[t] <= n)
            )
            raise ParseError(f"line {line_of(k)}: unknown vertex token '{t}'")
        vertices = tuple(values)
        labels = None
    else:
        if len(tokens) > n:
            extra = tokens[n]
            k = next(k for k, pair in enumerate(zip(us, vs)) if extra in pair)
            raise ParseError(f"line {line_of(k)}: unknown vertex token '{extra}'")
        if len(tokens) < n:
            raise ParseError(f"declared {n} vertices but only {len(tokens)} distinct tokens appear")
        vertex_of = {tok: i for i, tok in enumerate(tokens, start=1)}
        vertices = tuple(range(1, n + 1))
        labels = dict(enumerate(tokens, start=1))

    ids = _edge_ids(body, line_of) if 3 in shapes else range(m)
    edges = dict(zip(ids, zip(map(vertex_of.__getitem__, us), map(vertex_of.__getitem__, vs))))
    return Multigraph(vertices=vertices, edges=edges, labels=labels)


def _header(parts: list[str], lineno: int) -> tuple[int, int]:
    """The counts (n, m) of the header line's tokens."""
    if len(parts) != 2:
        raise ParseError(f"line {lineno}: expected header 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"line {lineno}: header counts must be integers") from None
    if n < 0 or m < 0:
        raise ParseError(f"line {lineno}: header counts must be nonnegative")
    if n > VERTEX_BOUND:
        raise CapacityError(f"line {lineno}: {n} vertices exceed the bound of {VERTEX_BOUND}")
    return n, m


def _edge_ids(body: list[list[str]], line_of: Callable[[int], int]) -> list[EdgeId]:
    """The id of each edge row: its explicit id, else the least id that no
    explicit id takes and no earlier row was given."""
    explicit = [parts[2] for parts in body if len(parts) == 3]
    try:
        taken = list(map(int, explicit))
    except ValueError:
        taken = []
    if len(taken) != len(explicit) or min(taken) < 0 or len(set(taken)) != len(taken):
        seen: set[int] = set()
        for k, parts in enumerate(body):
            if len(parts) == 3:
                eid = parts[2]
                try:
                    key = int(eid)
                except ValueError:
                    key = -1
                if key < 0:
                    raise ParseError(f"line {line_of(k)}: edge id must be a nonnegative integer")
                if key in seen:
                    raise ParseError(f"line {line_of(k)}: duplicate explicit edge id {eid}")
                seen.add(key)
    if len(taken) == len(body):
        return taken
    reserved = set(taken)
    given = iter(taken)
    ids: list[EdgeId] = []
    next_implicit = 0
    for parts in body:
        if len(parts) == 3:
            ids.append(next(given))
        else:
            while next_implicit in reserved:
                next_implicit += 1
            ids.append(next_implicit)
            next_implicit += 1
    return ids


def format_edge_list(G: Multigraph) -> str:
    """Inverse of parse_edge_list, with explicit edge ids for fidelity."""
    lines = [f"{G.n} {G.m}"]
    order = G.sorted_edges
    rows = zip(order, map(G.edges.__getitem__, order))
    if G.labels:
        name = {v: G.labels.get(v, str(v)) for v in G.vertices}
        lines += [f"{name[u]} {name[v]} {e}" for e, (u, v) in rows]
    else:
        lines += [f"{u} {v} {e}" for e, (u, v) in rows]
    return "\n".join(lines) + "\n"


def bfs_parents(
    G: Multigraph, starts: Iterable[VertexId], edges: Container[EdgeId] | None = None
) -> ParentMap:
    """Parent map of a BFS from each start, in order, that is not yet reached.

    G is read through its `incidence` alone, so a graph grown in place that
    keeps the same shape is searched as a Multigraph is.  The search walks
    only `edges` when they are given, else every edge of G, each vertex's
    in its incidence order.  A start maps to None and every vertex it
    reaches to (its parent, the edge to it).  Keys are in discovery order,
    so parents precede their children and each tree's keys are contiguous.
    """
    parent: ParentMap = {}
    incidence = G.incidence
    for r in starts:
        if r in parent:
            continue
        parent[r] = None
        queue = deque([r])
        if edges is None:
            while queue:
                x = queue.popleft()
                for e, y in incidence[x].items():
                    if y not in parent:
                        parent[y] = (x, e)
                        queue.append(y)
        else:
            while queue:
                x = queue.popleft()
                for e, y in incidence[x].items():
                    if y not in parent and e in edges:
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
            for e, y in G.incidence[x].items():
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
        depth = tree_depths(bfs_parents(F.parent_graph, (start,), F.tree_edges))
        far = max(depth.values())
        return min(v for v, d in depth.items() if d == far), far

    return {r: farthest(farthest(r)[0])[1] for r in F.component_roots}
