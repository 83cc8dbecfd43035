"""Cycle-lattice bases: construction, membership, coordinates.

The lattice in question is the set of integer combinations of 0/1 indicator
vectors of cycles, sitting inside Z^E.  For a 3-edge-connected graph it is
full-dimensional with determinant 2^(n-1), and it admits bases consisting
of cycles only; this module builds them, and `certificate` certifies them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

from .cycle_structure import (
    Cosimplification,
    FundamentalCycleMatrix,
    SeriesPartition,
    bridges_and_series_classes,
    cosimplify,
    fundamental_cycle_matrix,
    identity_cosimplification,
    three_edge_connectivity_witness,
)
from .errors import (
    ArgumentError,
    CycleLatticeError,
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
    collector_paused,
    edge_disjoint_paths,
    spanning_forest,
    tree_paths,
)
from .oracle import IntegerMatrix, enumerate_cycles, hnf_lattices_equal


class Provenance(NamedTuple):
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

    @property
    def multiplier(self) -> int:
        """The factor on the entry's edge set: 2 for a doubled edge set."""
        return 2 if self.kind == "doubled" else 1


@dataclass(frozen=True, eq=False)
class CycleBasis:
    """Ordered list of edge sets with provenance; certified means size m.

    An entry is a cycle, or a doubled edge set (a tree edge of the simple
    basis, or its series class once lifted) whose vector carries the tag's
    multiplier 2.  tree, and the ExtensionSequence of a chain's basis, are
    certify's hints, and matrix, the fundamental-cycle matrix of tree that
    a construction read, is certify_components's.  Of provenance,
    certification reads each tag's multiplier only; the rest is output.
    """

    cycles: tuple[frozenset[EdgeId], ...]
    provenance: tuple[Provenance, ...]
    tree: SpanningForest | None = None
    sequence: object | None = None
    matrix: FundamentalCycleMatrix | None = None

    def __post_init__(self):
        if len(self.cycles) != len(self.provenance):
            raise ArgumentError("provenance list must match cycles")

    def vectors(self) -> list[dict[EdgeId, int]]:
        return [dict.fromkeys(c, tag.multiplier) for c, tag in zip(self.cycles, self.provenance)]

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


def three_edge_connected_rank(G: Multigraph) -> int:
    """n minus the component count of G, once require_three_edge_connected
    passes: G then has one component, or none when it has no vertex."""
    require_three_edge_connected(G)
    return G.n - min(G.n, 1)


@collector_paused
def simple_basis(G: Multigraph, T: SpanningForest | None = None) -> CycleBasis:
    """Basis from fundamental cycles plus 2*chi_t for every tree edge.

    The doubled tree edges come first, ascending, as singleton sets tagged
    doubled, then the fundamental cycles.  Under a tree-first edge ordering
    its column matrix is block triangular [[2I, A], [0, I]], so the
    determinant is 2^(n-1) by inspection.
    """
    if T is None:
        T = spanning_forest(G)
    require_three_edge_connected(cosimplify(G, forest=T))
    return _simple_3ec(G, T)


def _simple_3ec(G: Multigraph, T: SpanningForest) -> CycleBasis:
    """simple_basis on a graph that is 3-edge-connected by construction."""
    fcm = fundamental_cycle_matrix(G, T)
    doubled = sorted(T.tree_edges)
    cycles = [frozenset({t}) for t in doubled]
    cycles.extend(fcm.cycles.values())
    tags = [Provenance("doubled", t=t) for t in doubled]
    tags.extend(Provenance("fundamental", e=e) for e in fcm.cycles)
    return CycleBasis(tuple(cycles), tuple(tags), tree=T, matrix=fcm)


def lattice_determinant(G: Multigraph) -> int:
    """Closed form 2^(n-1) for 3-edge-connected graphs, and 1 for the
    graph with no vertex."""
    return 2 ** three_edge_connected_rank(G)


def is_lattice_member(G: Multigraph, p: Mapping[EdgeId, int]) -> MembershipResult:
    """Structural membership test with a decomposition certificate.

    p maps edges to integers, an absent edge reading 0; a nonzero entry at
    an edge G lacks raises ArgumentError.  Membership holds exactly when p
    vanishes on bridges, is constant on each series class, and has even
    incidence sum at every vertex (loops counting twice).  On success the
    odd-support edges split into disjoint cycles and the remainder is even.
    """
    return _membership(G, G.support(p), bridges_and_series_classes(G))


def _membership(
    G: Multigraph, p: dict[EdgeId, int], partition: SeriesPartition
) -> MembershipResult:
    """is_lattice_member of p, without zero entries or unknown edges, read
    off G's bridges and series classes."""
    for e in sorted(partition.bridges):
        if e in p:
            return MembershipResult(False, reason=f"nonzero on bridge edge {e}")
    for cls in partition.nontrivial_classes:
        if len({p.get(e, 0) for e in cls}) > 1:
            return MembershipResult(
                False, reason=f"unequal values on series class {sorted(cls)}"
            )
    odd = {e for e, c in p.items() if c % 2}
    loops = sorted(e for e in odd if G.is_loop(e))
    # a loop adds twice its value to its vertex's sum, so only the other odd
    # edges decide a vertex's parity
    odd_ends: set[VertexId] = set()
    for e in odd.difference(loops):
        odd_ends.symmetric_difference_update(G.edges[e])
    if odd_ends:
        v = next(v for v in G.vertices if v in odd_ends)
        return MembershipResult(False, reason=f"odd incidence sum at vertex {v}")

    cycles: list[frozenset[EdgeId]] = [frozenset({e}) for e in loops]
    cycles.extend(_decompose_even_edge_set(G, odd - set(loops)))
    remainder = dict(p)
    for cyc in cycles:
        for e in cyc:
            remainder[e] -= 1
    if any(c % 2 for c in remainder.values()):
        raise InternalError("odd remainder after removing odd-support cycles")
    return MembershipResult(
        True, odd_cycles=tuple(cycles), even_remainder={e: c for e, c in remainder.items() if c}
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
    G: Multigraph, T: SpanningForest, p: Mapping[EdgeId, int]
) -> tuple[dict[EdgeId, int], dict[EdgeId, int]]:
    """Coefficients of p (an absent edge reading 0) over the simple basis.

    Returns (cycle_coeffs, doubled_coeffs): the fundamental cycle of non-tree
    edge e carries coefficient p_e, and the doubled tree edge t carries
    (p_t - S_t)/2 where S_t sums p over the fundamental cut of t minus t;
    cut parity of lattice members makes the division exact.
    """
    require_three_edge_connected(cosimplify(G, forest=T))
    p = G.support(p)
    # G is 3-edge-connected: no bridge, and no series class of two edges
    member = _membership(G, p, SeriesPartition(frozenset(), ()))
    if not member:
        raise MembershipError(member.reason or "not a lattice member")
    fcm = fundamental_cycle_matrix(G, T)
    cycle_coeffs = {e: p.get(e, 0) for e in fcm.cycles}
    doubled_coeffs = {}
    for t in sorted(T.tree_edges):
        diff = p.get(t, 0) - sum(p.get(e, 0) for e in fcm.rows[t])
        if diff % 2 != 0:
            raise InternalError(f"odd cut balance at tree edge {t}")
        doubled_coeffs[t] = diff // 2

    rebuilt = {t: 2 * coef for t, coef in doubled_coeffs.items()}
    for e, coef in cycle_coeffs.items():
        if coef:
            for x in fcm.cycles[e]:
                rebuilt[x] = rebuilt.get(x, 0) + coef
    if {e: c for e, c in rebuilt.items() if c} != p:
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
    without_e = Multigraph(G.vertices, {x: uv for x, uv in G.edges.items() if x != e}, G.labels)
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


def _shrink_pair(
    fcm: FundamentalCycleMatrix,
    remaining: set[EdgeId],
    e: EdgeId,
    f: EdgeId,
    inter: set[EdgeId],
) -> tuple[EdgeId, EdgeId, set[EdgeId]]:
    """One cycle exchange: replace (e, f) so the tree intersection shrinks.

    In the contracted tree inter is a path, and its end edges a, a' are
    the first and last of its edges along e's tree path.  Removing them
    splits the tree into the side of one end, the middle and the side of
    the other; a non-tree edge joins the middle to an outer side exactly
    when it crosses one of a, a'.  x is the least such edge.

    Say x crosses a, at the end v0 of inter, so the contracted cycles of x
    and e both pass v0 along a.  If they leave v0 by one edge, that edge
    is a remaining tree edge outside inter (not e or x, as e is not on the
    cycle of x), so their tree intersection is no part of inter.  If they
    leave by different edges, their shared path starts at v0, as two tree
    paths meet in a path; it holds a and stops before a', so it is a
    nonempty proper part of inter.  So e shrinks the intersection exactly
    when its cycle and that of x part at v0; the same holds for f, and the
    larger of e and f that shrinks it is kept.
    """
    T = fcm.tree
    G, rows, cycles = T.parent_graph, fcm.rows, fcm.cycles
    ends = [t for t in next(tree_paths(T.parents, T.depth, [G.edges[e]])) if t in inter]
    reconnecting = set(rows[ends[0]]).symmetric_difference(rows[ends[-1]])
    if not reconnecting:
        raise StructureError(
            f"no reconnecting non-tree edge for e={e}, f={f} sharing {len(inter)} "
            "tree edges: graph is not 3-edge-connected"
        )
    x = min(reconnecting)
    on_x = remaining & cycles[x]  # a non-tree edge is never in remaining
    for keep in (max(e, f), min(e, f)):
        new_inter = on_x & cycles[keep]
        if new_inter and new_inter < inter:
            return keep, x, new_inter
    raise InternalError(
        f"cycle exchange of e={e}, f={f} through x={x} shrinks their intersection "
        f"of {len(inter)} tree edges for neither cycle"
    )


def _seed_pair(
    fcm: FundamentalCycleMatrix, remaining: set[EdgeId], t: EdgeId
) -> tuple[EdgeId, EdgeId, set[EdgeId]]:
    """Two fundamental cycles through the remaining tree edge t: the first
    two of its row, which is ascending."""
    crossing = fcm.rows[t][:2]
    if len(crossing) < 2:
        raise StructureError(
            f"fundamental cut of tree edge t={t} has the non-tree edges {crossing}, "
            "fewer than two: graph is not 3-edge-connected"
        )
    e, f = crossing
    inter = remaining & fcm.cycles[e] & fcm.cycles[f]
    if t not in inter:
        raise InternalError(f"seed pair e={e}, f={f} does not share the seeding tree edge t={t}")
    return e, f, inter


def _semi_fundamental_3ec(G: Multigraph, T: SpanningForest) -> CycleBasis:
    """Fundamental cycles of T, then one semi-fundamental cycle per tree edge.

    The tree edges are contracted one by one, but every query is answered on
    the fixed tree T: the fundamental cycle of e in the contracted graph is
    the original one minus the contracted edges, and a non-tree edge
    crosses a surviving tree edge t exactly when it lies in t's row.  The
    stored cycles are read as they are: a semi-fundamental cycle is the
    symmetric difference of two of them.
    """
    fcm = fundamental_cycle_matrix(G, T)
    cycles = list(fcm.cycles.values())
    tags = [Provenance(kind="fundamental", e=e) for e in fcm.cycles]

    remaining = set(T.tree_edges)
    seeds = iter(sorted(remaining))  # a seed is contracted before the next is drawn
    stack: list[tuple[EdgeId, EdgeId, set[EdgeId]]] = []
    while remaining:
        if not stack:
            seed = next(t for t in seeds if t in remaining)
            stack.append(_seed_pair(fcm, remaining, seed))
        e, f, inter = stack[-1]
        while len(inter) > 1:
            e, f, inter = _shrink_pair(fcm, remaining, e, f, inter)
            stack.append((e, f, inter))
        (t,) = inter
        cycles.append(fcm.cycles[e] ^ fcm.cycles[f])
        tags.append(Provenance(kind="semi-fundamental", e=e, f=f, t=t))
        remaining.discard(t)
        stack.pop()
        for _, _, pinter in stack:
            pinter.discard(t)
        stack = [entry for entry in stack if entry[2]]
    return CycleBasis(tuple(cycles), tuple(tags), tree=T, matrix=fcm)


@collector_paused
def semi_fundamental_basis(
    G: Multigraph, T: SpanningForest | None = None
) -> tuple[CycleBasis, list[tuple[EdgeId, EdgeId, EdgeId]]]:
    """Lattice cycle basis: all fundamental cycles plus n-1 semi-fundamental.

    The semi-fundamental cycles come from pairs of fundamental cycles whose
    intersection shrinks to a single tree edge inside successive tree-edge
    contractions; the (t, e, f) of their tags witness this.  On a connected
    graph the construction completes exactly when the graph is
    3-edge-connected, so it runs on G first, with no cut pass, and per
    component of the cosimplification only when that fails (see
    build_per_component).
    """
    if T is None:
        T = spanning_forest(G)
    if len(T.component_roots) > 1:
        raise StructureError("graph is not connected")
    _, entries, bases = build_per_component(G, T, _semi_fundamental_3ec, proves_3ec=True)
    cycles = tuple(cyc for cyc, _ in entries)
    tags = tuple(tag for _, tag in entries)
    semi = [tag for basis in bases for tag in basis.provenance if tag.kind == "semi-fundamental"]
    return CycleBasis(cycles, tags, tree=T), [(tag.t, tag.e, tag.f) for tag in semi]


def _min_degree_three(G: Multigraph) -> bool:
    """Has G a vertex, and every vertex three or more incident edges (a loop
    counting once)?  A 3-edge-connected graph with two or more vertices
    passes, so a graph that fails is sent straight to the cut pass.  The
    scan stops at the first vertex of fewer edges."""
    return bool(G.n) and all(len(edges) >= 3 for edges in G.incidence.values())


def build_first(G: Multigraph, T: SpanningForest, construct):
    """(cos, result): construct(G, T), whose completing proves G
    3-edge-connected, tried before any cut pass.

    The build is tried when T is one tree and every vertex of G has three
    or more edges.  When it completes, cos is G's identity cosimplification,
    with no bridges_and_series_classes call.  When it was not tried, or
    failed with a CycleLatticeError, cos is cosimplify(G, forest=T) and
    result None; when that shows G 3-edge-connected after all, the build's
    own error is raised, so a construction bug stays visible.
    """
    if len(T.component_roots) == 1 and _min_degree_three(G):
        try:
            result = construct(G, T)
        except CycleLatticeError as exc:  # re-raised below on a 3EC graph
            error = exc
        else:
            return identity_cosimplification(G, T), result
        cos = cosimplify(G, forest=T)
        if cos.three_edge_connected:
            raise error
        return cos, None
    return cosimplify(G, forest=T), None


def build_per_component(G: Multigraph, T: SpanningForest, construct, proves_3ec: bool):
    """(cos, entries, bases): per_component of construct on the
    cosimplification cos of G on its forest T.

    This is the one place that asks "3-edge-connected? else cosimplify"
    for a construction.  When the construction proves the precondition by
    completing (proves_3ec: the semi-fundamental and topological ones), it
    is tried on the whole graph first (see build_first), and on success its
    one basis is returned with the identity cosimplification; the others
    cosimplify first.
    """
    if proves_3ec:
        cos, basis = build_first(G, T, construct)
        if basis is not None:
            return cos, basis.entries(), [basis]
    else:
        cos = cosimplify(G, forest=T)
    return (cos, *per_component(cos, construct))


def per_component(cos: Cosimplification, construct):
    """Build on each component of the cosimplification, lift to its parent.

    build_per_component calls it unless a construction completed on the
    whole graph.  construct(H, T_H) receives every component H of cos that
    has edges, with the restriction T_H of its forest, and returns a
    CycleBasis of H.
    H is 3-edge-connected by construction, so construct need not check it.
    Returns the lifted (edge set, Provenance) entries of all bases in
    component order, and the bases as built (for
    certificate.certify_components).  When the cosimplification is the
    identity an entry keeps its tag; otherwise a cycle becomes `lifted` and
    a doubled edge stays doubled(t=...) on its whole series class.
    """
    entries: list[tuple[frozenset[EdgeId], Provenance]] = []
    bases = []
    identity, lifted = cos.identity, Provenance("lifted")
    for H, T_H in cos.components:
        bases.append(construct(H, T_H))
        if identity:
            entries.extend(bases[-1].entries())
            continue
        for edges, tag in bases[-1].entries():
            if tag.kind == "doubled":
                entries.append((cos.lift_edges(edges), tag))
            else:
                entries.append((_lift_cycle(cos, edges), lifted))
    return entries, bases


def _lift_cycle(cos: Cosimplification, cycle: frozenset[EdgeId]) -> frozenset[EdgeId]:
    """Each representative edge replaced by its series class (never a bridge),
    checked to be a simple cycle of the parent class by class."""
    if not cycle <= cos.hat_graph.edges.keys():
        raise ArgumentError(f"{_on_reduced(cos, cycle)} uses edges outside the cosimplification")
    if not cos.classes_form_cycle(cycle):
        raise InternalError(f"{_on_reduced(cos, cycle)} does not lift to a simple cycle")
    return cos.lift_edges(cycle)


def _on_reduced(cos: Cosimplification, cycle: frozenset[EdgeId]) -> str:
    hat = cos.hat_graph
    return f"cycle of length {len(cycle)} on the reduced graph with n={hat.n}, m={hat.m}"


# ---------------------------------------------------------------------------
# exact lattice checks by enumeration
# ---------------------------------------------------------------------------


def indicator_matrix(G: Multigraph, cycles) -> IntegerMatrix:
    """Edge-by-cycle 0/1 matrix in sorted edge order."""
    order = list(G.sorted_edges)
    return IntegerMatrix.from_vectors([{e: 1 for e in c} for c in cycles], order)


def matches_all_cycles_lattice(G: Multigraph, vectors: list[dict[EdgeId, int]]) -> bool:
    """Do the vectors (a basis's vectors(), multipliers included) generate
    the lattice of every enumerated cycle of G?  Exact, by HNF equality, so
    only for small graphs."""
    A = indicator_matrix(G, enumerate_cycles(G))
    B = IntegerMatrix.from_vectors(vectors, list(G.sorted_edges))
    return hnf_lattices_equal(A, B)
