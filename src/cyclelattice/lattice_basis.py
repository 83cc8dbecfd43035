"""Cycle-lattice bases: construction, membership, coordinates, certification.

The lattice in question is the set of integer combinations of 0/1 indicator
vectors of cycles, sitting inside Z^E.  For a 3-edge-connected graph it is
full-dimensional with determinant 2^(n-1), and it admits bases consisting
of cycles only; this module builds them and certifies them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificate import certify
from .cycle_structure import (
    Cosimplification,
    FundamentalCycleMatrix,
    bridges_and_series_classes,
    cosimplify,
    fundamental_cycle_matrix,
    is_simple_cycle,
    three_edge_connectivity_witness,
)
from .errors import (
    ArgumentError,
    InternalError,
    MembershipError,
    PreconditionError,
    StructureError,
)
from .multigraph import (
    EdgeId,
    Multigraph,
    SpanningForest,
    VertexId,
    VertexUnion,
    edge_disjoint_paths,
    minor,
    spanning_forest,
)
from .oracle import IntegerMatrix, enumerate_cycles, hnf_lattices_equal


@dataclass(frozen=True, eq=False)
class EdgeVector:
    """Integer vector indexed by the edge ids of one graph."""

    graph: Multigraph
    coords: dict[EdgeId, int]

    def __post_init__(self):
        unknown = set(self.coords) - set(self.graph.edges)
        if unknown:
            raise ArgumentError(f"coordinates on unknown edges {sorted(unknown)}")
        full = {e: int(self.coords.get(e, 0)) for e in self.graph.edges}
        object.__setattr__(self, "coords", full)

    @classmethod
    def zero(cls, G: Multigraph) -> "EdgeVector":
        return cls(graph=G, coords={})

    @classmethod
    def indicator(cls, G: Multigraph, edges) -> "EdgeVector":
        return cls(graph=G, coords={e: 1 for e in edges})

    def __add__(self, other: "EdgeVector") -> "EdgeVector":
        self._check_universe(other)
        return EdgeVector(
            graph=self.graph,
            coords={e: self.coords[e] + other.coords[e] for e in self.coords},
        )

    def __sub__(self, other: "EdgeVector") -> "EdgeVector":
        self._check_universe(other)
        return EdgeVector(
            graph=self.graph,
            coords={e: self.coords[e] - other.coords[e] for e in self.coords},
        )

    def __rmul__(self, k: int) -> "EdgeVector":
        return EdgeVector(graph=self.graph, coords={e: k * c for e, c in self.coords.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeVector) and self.coords == other.coords

    def __hash__(self):
        return hash(tuple(sorted(self.coords.items())))

    def _check_universe(self, other: "EdgeVector"):
        if set(self.coords) != set(other.coords):
            raise ArgumentError("vectors indexed by different edge universes")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords.values())


@dataclass(frozen=True)
class Provenance:
    """How a basis element was obtained."""

    kind: str  # fundamental | semi-fundamental | extension | lifted | doubled
    e: EdgeId | None = None
    f: EdgeId | None = None
    t: EdgeId | None = None
    step: int | None = None
    case: str | None = None

    def label(self) -> str:
        if self.kind == "fundamental" and self.e is not None:
            return f"fundamental(e={self.e})"
        if self.kind == "semi-fundamental":
            return f"semi-fundamental(e={self.e},f={self.f},t={self.t})"
        if self.kind == "extension":
            return f"extension(step={self.step},kind={self.case})"
        if self.kind == "doubled" and self.t is not None:
            return f"doubled(t={self.t})"
        return self.kind


@dataclass(frozen=True, eq=False)
class SimpleBasis:
    """Fundamental cycles plus doubled tree edges (the non-cycle basis)."""

    tree: SpanningForest
    cycle_part: tuple[tuple[EdgeId, frozenset[EdgeId]], ...]
    doubled_part: tuple[EdgeId, ...]

    def vectors(self) -> list[dict[EdgeId, int]]:
        """Column vectors, doubled tree edges first."""
        out: list[dict[EdgeId, int]] = [{t: 2} for t in self.doubled_part]
        out.extend({e: 1 for e in cyc} for _, cyc in self.cycle_part)
        return out

    def entries(self) -> list[tuple[frozenset[EdgeId], Provenance]]:
        """(edge set, tag) per vector, in the order of vectors()."""
        out = [(frozenset({t}), Provenance("doubled", t=t)) for t in self.doubled_part]
        out.extend((cyc, Provenance("fundamental", e=e)) for e, cyc in self.cycle_part)
        return out


@dataclass(frozen=True, eq=False)
class CycleBasis:
    """Ordered list of cycles with provenance; certified means size m."""

    cycles: tuple[frozenset[EdgeId], ...]
    provenance: tuple[Provenance, ...]
    tree: SpanningForest | None = None

    def __post_init__(self):
        if len(self.cycles) != len(self.provenance):
            raise ArgumentError("provenance list must match cycles")

    def vectors(self) -> list[dict[EdgeId, int]]:
        return [{e: 1 for e in cyc} for cyc in self.cycles]

    def entries(self) -> list[tuple[frozenset[EdgeId], Provenance]]:
        return list(zip(self.cycles, self.provenance))


@dataclass(frozen=True, eq=False)
class MembershipResult:
    """Decision plus certificate (odd part as disjoint cycles, even rest)."""

    is_member: bool
    reason: str | None = None
    odd_cycles: tuple[frozenset[EdgeId], ...] | None = None
    even_remainder: dict[EdgeId, int] | None = None

    def __bool__(self) -> bool:
        return self.is_member


def require_three_edge_connected(G: Multigraph | Cosimplification):
    """PreconditionError naming why G (or a cosimplification's parent) fails."""
    witness = three_edge_connectivity_witness(G)
    if witness is None:
        return
    kind, detail = witness
    if kind == "bridge":
        raise PreconditionError(f"not 3-edge-connected: bridge edge {detail}")
    if kind == "series":
        raise PreconditionError(
            f"not 3-edge-connected: nontrivial series class {sorted(detail)}"
        )
    raise PreconditionError(f"not 3-edge-connected: graph has {detail} components")


def simple_basis(G: Multigraph, T: SpanningForest | None = None) -> SimpleBasis:
    """Basis from fundamental cycles plus 2*chi_t for every tree edge.

    Under a tree-first edge ordering its column matrix is block triangular
    [[2I, A], [0, I]], so the determinant is 2^(n-1) by inspection.
    """
    require_three_edge_connected(G)
    return _simple_3ec(G, T if T is not None else spanning_forest(G))


def _simple_3ec(G: Multigraph, T: SpanningForest) -> SimpleBasis:
    """simple_basis on a graph that is 3-edge-connected by construction."""
    fcm = fundamental_cycle_matrix(G, T)
    cycle_part = tuple((e, fcm.cycle_edges(e)) for e in sorted(fcm.columns))
    doubled_part = tuple(sorted(T.tree_edges))
    return SimpleBasis(tree=T, cycle_part=cycle_part, doubled_part=doubled_part)


def lattice_determinant(G: Multigraph) -> int:
    """Closed form 2^(n-1) for 3-edge-connected graphs."""
    require_three_edge_connected(G)
    return 2 ** (G.n - 1)


def is_lattice_member(G: Multigraph, p: EdgeVector) -> MembershipResult:
    """Structural membership test with a decomposition certificate.

    Membership holds exactly when p vanishes on bridges, is constant on each
    series class, and has even incidence sum at every vertex (loops counting
    twice).  On success the odd-support edges split into disjoint cycles and
    the remainder is even.
    """
    if set(p.coords) != set(G.edges):
        raise ArgumentError("vector does not match the graph's edge set")
    partition = bridges_and_series_classes(G)
    for e in sorted(partition.bridges):
        if p.coords[e] != 0:
            return MembershipResult(False, reason=f"nonzero on bridge edge {e}")
    for cls in partition.classes:
        values = {p.coords[e] for e in cls}
        if len(values) > 1:
            return MembershipResult(
                False, reason=f"unequal values on series class {sorted(cls)}"
            )
    for v in G.vertices:
        s = sum(2 * p.coords[e] if w == v else p.coords[e] for e, w in G.incidence[v])
        if s % 2 != 0:
            return MembershipResult(False, reason=f"odd incidence sum at vertex {v}")

    odd = {e for e, c in p.coords.items() if c % 2 != 0}
    loops = sorted(e for e in odd if G.is_loop(e))
    cycles: list[frozenset[EdgeId]] = [frozenset({e}) for e in loops]
    cycles.extend(_decompose_even_edge_set(G, odd - set(loops)))
    remainder = dict(p.coords)
    for cyc in cycles:
        for e in cyc:
            remainder[e] -= 1
    if any(c % 2 for c in remainder.values()):
        raise InternalError("odd remainder after removing odd-support cycles")
    return MembershipResult(
        True, odd_cycles=tuple(cycles), even_remainder=remainder
    )


def _decompose_even_edge_set(
    G: Multigraph, edges: set[EdgeId]
) -> list[frozenset[EdgeId]]:
    """Split a loop-free edge set with all-even degrees into disjoint cycles."""
    remaining = set(edges)
    incident: dict[VertexId, list[EdgeId]] = {}
    for e in sorted(remaining):
        u, v = G.edges[e]
        incident.setdefault(u, []).append(e)
        incident.setdefault(v, []).append(e)
    ptr = {v: 0 for v in incident}

    def next_unused(x: VertexId) -> EdgeId | None:
        lst = incident.get(x, ())
        i = ptr.get(x, 0)
        while i < len(lst) and lst[i] not in remaining:
            i += 1
        ptr[x] = i
        return lst[i] if i < len(lst) else None

    cycles: list[frozenset[EdgeId]] = []
    while remaining:
        e0 = min(remaining)
        start = G.edges[e0][0]
        walk_vertices = [start]
        walk_edges: list[EdgeId] = []
        index = {start: 0}
        x = start
        while True:
            e = next_unused(x)
            if e is None:
                if walk_edges:
                    raise InternalError("stuck on a vertex of odd remaining degree")
                break
            remaining.discard(e)
            y = G.other_end(e, x)
            if y in index:
                j = index[y]
                cycles.append(frozenset(walk_edges[j:] + [e]))
                for w in walk_vertices[j + 1 :]:
                    del index[w]
                del walk_vertices[j + 1 :]
                del walk_edges[j:]
            else:
                walk_edges.append(e)
                walk_vertices.append(y)
                index[y] = len(walk_vertices) - 1
            x = y
            if not walk_edges and next_unused(x) is None:
                break
    return cycles


def express_in_simple_basis(
    G: Multigraph, T: SpanningForest, p: EdgeVector
) -> tuple[dict[EdgeId, int], dict[EdgeId, int]]:
    """Coefficients of p over the simple basis.

    Returns (cycle_coeffs, doubled_coeffs): the fundamental cycle of non-tree
    edge e carries coefficient p_e, and the doubled tree edge t carries
    (p_t - S_t)/2 where S_t sums p over the fundamental cut of t minus t;
    cut parity of lattice members makes the division exact.
    """
    require_three_edge_connected(G)
    member = is_lattice_member(G, p)
    if not member:
        raise MembershipError(member.reason or "not a lattice member")
    fcm = fundamental_cycle_matrix(G, T)
    cycle_coeffs = {e: p.coords[e] for e in fcm.columns}
    doubled_coeffs = {}
    for t in sorted(T.tree_edges):
        diff = p.coords[t] - sum(p.coords[e] for e in fcm.rows[t])
        if diff % 2 != 0:
            raise InternalError(f"odd cut balance at tree edge {t}")
        doubled_coeffs[t] = diff // 2

    rebuilt = {e: 0 for e in G.edges}
    for e, coef in cycle_coeffs.items():
        if coef:
            for x in fcm.cycle_edges(e):
                rebuilt[x] += coef
    for t, coef in doubled_coeffs.items():
        rebuilt[t] += 2 * coef
    if rebuilt != p.coords:
        raise InternalError("simple-basis coefficients do not reassemble the input")
    return cycle_coeffs, doubled_coeffs


def double_edge_combination(
    G: Multigraph, e: EdgeId
) -> list[tuple[int, frozenset[EdgeId]]]:
    """Signed cycles summing to 2*chi_e.

    Two edge-disjoint paths P, Q joining the endpoints of e (avoiding e)
    give +1 on P+e and Q+e; the union P+Q is Eulerian and its disjoint
    cycles enter with -1.  A loop contributes itself with coefficient 2.
    """
    require_three_edge_connected(G)
    if e not in G.edges:
        raise ArgumentError(f"unknown edge id {e}")
    if G.is_loop(e):
        return [(2, frozenset({e}))]
    u, v = G.edges[e]
    without_e = minor(G, delete={e}, contract=set()).result
    paths = edge_disjoint_paths(without_e, u, v, 2)
    if len(paths) < 2:
        raise InternalError("3-edge-connected graph lost 2-connectivity after one deletion")
    P, Q = (set(p) for p in paths[:2])
    combo: list[tuple[int, frozenset[EdgeId]]] = [
        (1, frozenset(P | {e})),
        (1, frozenset(Q | {e})),
    ]
    for cyc in _decompose_even_edge_set(G, P | Q):
        combo.append((-1, cyc))

    check = {x: 0 for x in G.edges}
    for coef, cyc in combo:
        for x in cyc:
            check[x] += coef
    expected = {x: (2 if x == e else 0) for x in G.edges}
    if check != expected:
        raise InternalError("signed combination does not sum to 2*chi_e")
    return combo


# ---------------------------------------------------------------------------
# semi-fundamental construction
# ---------------------------------------------------------------------------


def _cycle_edge_at(
    G: Multigraph, blocks: VertexUnion, cycle: set[EdgeId], v: VertexId, excluding: EdgeId
) -> EdgeId:
    for e in cycle:
        if e != excluding and v in map(blocks.find, G.edges[e]):
            return e
    raise InternalError(f"cycle has no second edge at vertex {v}")


def _path_end_data(
    G: Multigraph, blocks: VertexUnion, path_edges: set[EdgeId]
) -> tuple[VertexId, VertexId, EdgeId, EdgeId]:
    """Endpoints of a tree path and its two end edges, least endpoint first."""
    deg: dict[VertexId, list[EdgeId]] = {}
    for e in path_edges:
        for v in G.edges[e]:
            deg.setdefault(blocks.find(v), []).append(e)
    ends = sorted(v for v, es in deg.items() if len(es) == 1)
    if len(ends) != 2:
        raise InternalError("edge set is not a simple path")
    v0, vk = ends
    return v0, vk, deg[v0][0], deg[vk][0]


def _shrink_pair(
    fcm: FundamentalCycleMatrix,
    blocks: VertexUnion,
    remaining: set[EdgeId],
    e: EdgeId,
    f: EdgeId,
    inter: set[EdgeId],
) -> tuple[EdgeId, EdgeId, set[EdgeId]]:
    """One cycle exchange: replace (e, f) so the tree intersection shrinks.

    Removing the end edges a, a' of the intersection path splits the tree
    into the side of v0, the middle and the side of vk; a non-tree edge
    joins the middle to one outer side exactly when it crosses one of a, a'.
    """
    G = fcm.tree.parent_graph
    v0, vk, a, a_prime = _path_end_data(G, blocks, inter)
    reconnecting = fcm.rows[a] ^ fcm.rows[a_prime]
    if not reconnecting:
        raise StructureError(
            "no reconnecting non-tree edge: graph is not 3-edge-connected"
        )
    x = min(reconnecting)
    anchor = (v0, a) if x in fcm.rows[a] else (vk, a_prime)

    cyc_e, cyc_f, cyc_x = (fcm.columns[y] & remaining | {y} for y in (e, f, x))
    at_x = _cycle_edge_at(G, blocks, cyc_x, *anchor)
    diverges_e = _cycle_edge_at(G, blocks, cyc_e, *anchor) != at_x
    diverges_f = _cycle_edge_at(G, blocks, cyc_f, *anchor) != at_x
    if diverges_e and diverges_f:
        keep = max(e, f)  # replace the cycle with the smaller non-tree id
    elif diverges_e:
        keep = e
    elif diverges_f:
        keep = f
    else:
        raise InternalError("neither cycle diverges from the exchange cycle")
    new_inter = remaining & fcm.columns[keep] & fcm.columns[x]
    if not new_inter or not new_inter < inter:
        raise InternalError("cycle exchange failed to shrink the intersection")
    return keep, x, new_inter


def _seed_pair(
    fcm: FundamentalCycleMatrix, remaining: set[EdgeId], t: EdgeId
) -> tuple[EdgeId, EdgeId, set[EdgeId]]:
    """Two fundamental cycles through the remaining tree edge t."""
    crossing = sorted(fcm.rows[t])[:2]
    if len(crossing) < 2:
        raise StructureError(
            f"fundamental cut of tree edge {t} has fewer than two non-tree edges; "
            "graph is not 3-edge-connected"
        )
    e, f = crossing
    inter = remaining & fcm.columns[e] & fcm.columns[f]
    if t not in inter:
        raise InternalError("seed pair does not share the seeding tree edge")
    return e, f, inter


def _semi_fundamental_3ec(
    G: Multigraph, T: SpanningForest
) -> tuple[CycleBasis, list[tuple[EdgeId, EdgeId, EdgeId]]]:
    """Fundamental cycles of T, then one semi-fundamental cycle per tree edge.

    The tree edges are contracted one by one, but every query is answered on
    the fixed tree T: the fundamental cycle of e in the contracted graph is
    the original one minus the contracted edges, a non-tree edge crosses a
    surviving tree edge t exactly when it lies in t's row, and the blocks of
    contracted edges name each contracted vertex by its least vertex, as in
    minor.
    """
    fcm = fundamental_cycle_matrix(G, T)
    order = sorted(fcm.columns)
    cycles = [fcm.cycle_edges(e) for e in order]
    tags = [Provenance(kind="fundamental", e=e) for e in order]

    remaining = set(T.tree_edges)
    seeds = iter(sorted(remaining))  # a seed is contracted before the next is drawn
    blocks = VertexUnion(G.vertices)
    stack: list[tuple[EdgeId, EdgeId, set[EdgeId]]] = []
    triples: list[tuple[EdgeId, EdgeId, EdgeId]] = []
    while remaining:
        if not stack:
            seed = next(t for t in seeds if t in remaining)
            stack.append(_seed_pair(fcm, remaining, seed))
        e, f, inter = stack[-1]
        while len(inter) > 1:
            e, f, inter = _shrink_pair(fcm, blocks, remaining, e, f, inter)
            stack.append((e, f, inter))
        (t,) = inter
        triples.append((t, e, f))
        cycles.append(fcm.cycle_edges(e) ^ fcm.cycle_edges(f))
        tags.append(Provenance(kind="semi-fundamental", e=e, f=f, t=t))
        blocks.union(*G.edges[t])
        remaining.discard(t)
        stack.pop()
        for _, _, pinter in stack:
            pinter.discard(t)
        stack = [entry for entry in stack if entry[2]]
    return CycleBasis(cycles=tuple(cycles), provenance=tuple(tags), tree=T), triples


def semi_fundamental_basis(
    G: Multigraph, T: SpanningForest | None = None
) -> tuple[CycleBasis, list[tuple[EdgeId, EdgeId, EdgeId]]]:
    """Lattice cycle basis: all fundamental cycles plus n-1 semi-fundamental.

    The semi-fundamental cycles come from pairs of fundamental cycles whose
    intersection shrinks to a single tree edge inside successive tree-edge
    contractions; the recorded triples (t_k, e_k, f_k) witness this.  They
    are built per component of the cosimplification (see per_component).
    """
    if T is None:
        T = spanning_forest(G)
    if len(T.component_roots) > 1:
        raise StructureError("graph is not connected")
    entries, triples = per_component(cosimplify(G, forest=T), _semi_fundamental_3ec)
    cycles = tuple(cyc for cyc, _ in entries)
    tags = tuple(tag for _, tag in entries)
    return CycleBasis(cycles, tags, tree=T), [t for part in triples for t in part]


def per_component(cos: Cosimplification, construct):
    """Build on each component of the cosimplification, lift to its parent.

    construct(H, T_H) receives every component H of cos that has edges,
    with the restriction T_H of its forest, and returns (basis, extra): a
    CycleBasis or SimpleBasis of H, and anything else.  H is
    3-edge-connected by construction, so construct need not check it.
    Returns the lifted (edge set, Provenance) entries of all bases in
    component order, and the list of extras.  When the cosimplification is
    the identity an entry keeps its tag; otherwise a cycle becomes `lifted`
    and a doubled edge stays doubled(t=...) on its whole series class.
    """
    entries: list[tuple[frozenset[EdgeId], Provenance]] = []
    extras = []
    for H, T_H in cos.components:
        basis, extra = construct(H, T_H)
        extras.append(extra)
        for edges, tag in basis.entries():
            if cos.identity:
                entries.append((edges, tag))
            elif tag.kind == "doubled":
                entries.append((cos.lift_edges(edges), tag))
            else:
                entries.append((_lift_cycle(cos, edges), Provenance("lifted")))
    return entries, extras


def _lift_cycle(cos: Cosimplification, cycle: frozenset[EdgeId]) -> frozenset[EdgeId]:
    """Each representative edge replaced by its series class (never a bridge)."""
    if any(e not in cos.section for e in cycle):
        raise ArgumentError("cycle uses edges outside the cosimplification")
    lifted = cos.lift_edges(cycle)
    if not is_simple_cycle(cos.parent, lifted):
        raise InternalError("lifted edge set is not a simple cycle")
    return lifted


# ---------------------------------------------------------------------------
# certification helpers
# ---------------------------------------------------------------------------


def indicator_matrix(G: Multigraph, cycles) -> IntegerMatrix:
    """Edge-by-cycle 0/1 matrix in sorted edge order."""
    order = list(G.sorted_edges)
    return IntegerMatrix.from_vectors([{e: 1 for e in c} for c in cycles], order)


def certify_cycle_basis(G: Multigraph, basis: CycleBasis) -> tuple[int, bool]:
    """Exact |det| of the basis and whether it is 2^(n-1) per component.

    Certifies through `certificate.certify`, so a graph that is not
    3-edge-connected is certified on its cosimplification.  A member that
    is not a simple cycle of G certifies as (0, False).
    """
    if not all(is_simple_cycle(G, c) for c in basis.cycles):
        return 0, False
    cert = certify(G, basis.vectors(), tree=basis.tree)
    return cert.determinant, cert.certified


def matches_all_cycles_lattice(G: Multigraph, cycles, limit: int = 100_000) -> bool:
    """HNF equality of the given cycles against every enumerated cycle of G."""
    all_cycles = enumerate_cycles(G, limit=limit)
    A = indicator_matrix(G, all_cycles)
    B = indicator_matrix(G, cycles)
    return hnf_lattices_equal(A, B)
