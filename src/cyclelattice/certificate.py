"""Certificates: the exact lattice determinant of a basis, from its structure.

A set of vectors is certified when, on every component of the
cosimplification, the absolute determinant of the vectors lying there
equals 2^(n-1), the determinant of the cycle lattice.  Two paths compute
that determinant exactly without a dense m x m elimination:

- The generic path applies the unimodular row operation
  x -> (x_N, x_T - F x_N), where F is the fundamental-cycle matrix of a
  spanning tree.  Fundamental cycles become unit columns and doubled tree
  edges singleton 2s.  It first tries one triangular pass that reads each
  column's pivot off its edge set and multiplier (see
  _triangular_determinant): the semi-fundamental and simple bases pass it
  as emitted, with no column of a fundamental or semi-fundamental cycle
  mapped.  A provenance label is output, never input: certification reads
  edge sets and multipliers only.  When the pass fails, it maps every
  column, expands along singleton rows and columns and passes only the
  residual block, at most RESIDUAL_CAP square, to the dense determinant.
- The chain path replays the steps of an extension sequence backwards.  When
  each step's cycles are the last k, and the older cycles avoid the new
  edge and hold both halves of each divided edge or neither, the matrix is
  block triangular after subtracting row `first` from row `second`.  The
  determinant is then the product of the k x k blocks on the rows
  (new edge, second - first), each of which must be 2^(#splits).  When a
  check fails the component falls back to the generic path; one whose
  generic residual passes the cap is retried on the sequence built for it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from math import prod

from .cycle_structure import (
    Cosimplification,
    FundamentalCycleMatrix,
    cosimplify,
    fundamental_cycle_matrix,
    is_simple_cycle,
)
from .errors import ArgumentError, CapacityError
from .lattice_basis import CycleBasis
from .multigraph import (
    EdgeId,
    Multigraph,
    SpanningForest,
    VertexId,
    forest_from_edges,
    spanning_forest,
)
from .oracle import IntegerMatrix, exact_determinant
from .topo_extension import _SequenceBuilder

# Largest residual block, after peeling, that goes to dense elimination.
RESIDUAL_CAP = 400


@dataclass(frozen=True)
class ComponentCertificate:
    """Exact |det| of the vectors lying in one component, and how it was found.

    kind is "chain", "generic", or "unmatched" when the vectors lying in
    the component are not one per edge (the determinant is then 0).
    """

    n: int
    m: int
    determinant: int
    kind: str

    @property
    def expected(self) -> int:
        return 2 ** (self.n - 1)

    @property
    def ok(self) -> bool:
        return self.determinant == self.expected


@dataclass(frozen=True)
class Certificate:
    """Exact |det| of a set of vectors, per component of the cosimplification.

    determinant is the product over the components, or 0 when some vector
    lies in no single component (see certify).  in_cycle_space is
    False when some vector is nonzero on a bridge or unequal across a series
    class; there are then no components and the determinant is 0.  size is
    the rank of the lattice, the edge count of the cosimplification.
    """

    determinant: int
    certified: bool
    size: int
    components: tuple[ComponentCertificate, ...]
    in_cycle_space: bool = True


def certify(
    G: Multigraph,
    vectors: list[dict[EdgeId, int]],
    tree: Iterable[EdgeId] | None = None,
    sequences=(),
) -> Certificate:
    """Exact |det| of the vectors, and whether it is 2^(n-1) per component.

    tree holds the edge ids of a spanning forest of G that the vectors were
    built on, and sequences the extension sequences they were built along,
    one per component of the cosimplification, found by the vertex their
    base vertex maps to.  Both hints change only how fast the answer comes, never
    the answer: edges that do not form a spanning forest of G are replaced
    by spanning_forest(G), and a sequence that does not replay or does not
    match the vectors falls back to the generic path.  A vector that lies
    in no single component, the zero vector or one nonzero in two, makes
    the determinant 0 and certified False.  Raises ArgumentError
    on a nonzero entry at an edge G lacks, and CapacityError when the
    generic path leaves a residual block above RESIDUAL_CAP that the
    component's own sequence cannot certify.
    """
    T = forest_from_edges(G, tree) if tree is not None else None
    cos = cosimplify(G, forest=T or spanning_forest(G))
    return _certify_vectors(cos, [cos.project(vec) for vec in vectors], sequences)


def _certify_vectors(
    cos: Cosimplification, images: list[dict[EdgeId, int] | None], sequences
) -> Certificate:
    """certify of vectors given by their images under cos.project, on a
    cosimplification of their graph built on the forest certify would take:
    each image matched to its component as the one value it holds on its
    edges (the image itself when it holds more; see _vectors), and each
    sequence to the component its base vertex maps to.  A vector without an
    image is out of the cycle space; one whose image lies in no single
    component, being zero or nonzero in two, makes the determinant 0."""
    hat = cos.hat_graph
    if any(image is None for image in images):
        return Certificate(0, False, hat.m, (), in_cycle_space=False)

    home_of = {v: H.vertices[0] for H, _ in cos.components for v in H.vertices}
    members: dict[VertexId, tuple[list, list]] = {key: ([], []) for key in home_of.values()}
    straddling = False
    for image in images:
        homes = {home_of[hat.edges[e][0]] for e in image}
        if len(homes) != 1:
            straddling = True
            continue
        supports, multipliers = members[homes.pop()]
        values = set(image.values())
        mult = values.pop() if len(values) == 1 else None
        supports.append(image if mult is None else frozenset(image))
        multipliers.append(mult)
    sequence_at = {home_of.get(seq.vertex_map.get(seq.base_vertex)): seq for seq in sequences}
    parts = {
        key: (supports, multipliers, sequence_at.get(key), None)
        for key, (supports, multipliers) in members.items()
    }
    cert = _certify_parts(cos, parts)
    return replace(cert, determinant=0, certified=False) if straddling else cert


def certify_components(cos: Cosimplification, bases: list[CycleBasis]) -> Certificate:
    """certify of bases built on cos.components, one per component in order,
    before they are lifted to cos.parent: each basis's edge sets on its
    component with their multipliers, along the basis's extension sequence
    when it has one, with no forest to check and nothing to project.  A
    basis built on the component's own forest lends the generic path its
    fundamental-cycle matrix, so the matrix is not built again."""
    parts = {}
    for (H, T_H), basis in zip(cos.components, bases, strict=True):
        fcm = basis.matrix if basis.tree is T_H else None
        multipliers = [tag.multiplier for tag in basis.provenance]
        parts[H.vertices[0]] = (basis.cycles, multipliers, basis.sequence, fcm)
    return _certify_parts(cos, parts)


def _certify_parts(cos: Cosimplification, parts: dict) -> Certificate:
    """The vectors lying in each component of the cosimplification, certified
    along the sequence hinted there and on the generic path with the
    fundamental-cycle matrix given there: parts maps the least vertex of
    every component with edges to (supports, multipliers, sequence or None,
    matrix or None), the columns as _vectors reads them.  A vertex without
    edges is a component of its own, with no vectors and determinant 1."""
    results = {v: ComponentCertificate(1, 0, 1, "generic") for v in cos.isolated_vertices}
    for H, T_H in cos.components:
        key = H.vertices[0]
        supports, multipliers, sequence, fcm = parts[key]
        if len(supports) != H.m:
            results[key] = ComponentCertificate(H.n, H.m, 0, "unmatched")
            continue
        det, kind = None, "chain"
        if sequence is not None:
            det = _chain_determinant(H, _vectors(supports, multipliers), sequence)
        if det is None:
            try:
                det, kind = _generic_determinant(H, T_H, supports, multipliers, fcm), "generic"
            except CapacityError:
                vectors = _vectors(supports, multipliers)
                det = _chain_determinant(H, vectors, _SequenceBuilder(H).build())
                if det is None:
                    raise
        results[key] = ComponentCertificate(H.n, H.m, det, kind)
    ordered = tuple(results[key] for key in sorted(results))
    determinant = prod(r.determinant for r in ordered)
    return Certificate(determinant, all(r.ok for r in ordered), cos.hat_graph.m, ordered)


def _vectors(supports: Sequence, multipliers: Sequence[int | None]) -> list[dict[EdgeId, int]]:
    """The columns as dicts: column j is multipliers[j] on the edges of the
    set supports[j], or where multipliers[j] is None, supports[j] itself,
    a dict."""
    return [
        s if mult is None else dict.fromkeys(s, mult)
        for s, mult in zip(supports, multipliers, strict=True)
    ]


def certify_cycle_basis(G: Multigraph, basis: CycleBasis) -> tuple[int, bool]:
    """`certify` of the basis's vectors on its tree and along its sequence as
    (|det|, certified); (0, False) when a member of multiplier 1 is not a
    simple cycle of G."""
    entries = zip(basis.cycles, basis.provenance)
    if not all(tag.multiplier != 1 or is_simple_cycle(G, c) for c, tag in entries):
        return 0, False
    sequences = () if basis.sequence is None else (basis.sequence,)
    tree = None if basis.tree is None else basis.tree.tree_edges
    cert = certify(G, basis.vectors(), tree=tree, sequences=sequences)
    return cert.determinant, cert.certified


# ---------------------------------------------------------------------------
# generic path: unimodular reduction, then a triangular pass or peeling
# ---------------------------------------------------------------------------


def _generic_determinant(
    H: Multigraph,
    T_H: SpanningForest,
    supports: Sequence,
    multipliers: Sequence[int | None],
    fcm: FundamentalCycleMatrix | None = None,
) -> int:
    """|det| of the square matrix of these columns (see _vectors), rows
    indexed by H's edges.

    T_H is a spanning tree of the connected graph H; fcm, when given, its
    fundamental-cycle matrix.  The triangular pass takes the place of
    mapping and peeling every column whenever the columns let it.
    """
    if fcm is None:
        fcm = fundamental_cycle_matrix(H, T_H)
    det = _triangular_determinant(fcm, supports, multipliers)
    if det is not None:
        factor, rows, cols = det, [], []
    else:
        mapped = [_reduced(fcm.cycles, vec) for vec in _vectors(supports, multipliers)]
        factor, rows, cols = _peel(H.sorted_edges, mapped)
    if factor == 0:
        return 0
    if len(cols) > RESIDUAL_CAP:
        raise CapacityError(
            f"residual block of {len(cols)}x{len(cols)} after peeling a component "
            f"with n={H.n}, m={H.m} exceeds the cap of {RESIDUAL_CAP}"
        )
    block = IntegerMatrix.from_rows([[col.get(r, 0) for col in cols] for r in rows])
    return abs(factor * exact_determinant(block))


def _reduced(cycles: dict[EdgeId, frozenset[EdgeId]], vec: Mapping[EdgeId, int]) -> dict:
    """The column vec under x -> (x_N, x_T - F x_N), without zero entries;
    cycles are the fundamental cycles that make up F."""
    y: dict[EdgeId, int] = {}
    for e, c in vec.items():
        y[e] = y.get(e, 0) + c
        for t in cycles.get(e, ()):
            if t != e:  # the tree edges of e's cycle
                y[t] = y.get(t, 0) - c
    return {r: a for r, a in y.items() if a}


def _triangular_determinant(
    fcm: FundamentalCycleMatrix,
    supports: Sequence[frozenset[EdgeId]],
    multipliers: Sequence[int | None],
) -> int | None:
    """|det| of the columns multipliers[j] on supports[j], in one pass read
    off the columns, or None when a multiplier is None or a check fails.

    Under x -> (x_N, x_T - F x_N), a column of multiplier 1 that is the
    fundamental cycle of a non-tree edge e, looked up among the cycles,
    becomes the unit column at e.  One whose non-tree edges, support - tree,
    are e and f, and that is the symmetric difference of their cycles,
    becomes 1 at e and f and -2 on the tree edges the two cycles share, so
    set checks stand in for its map.  Any other column is mapped.  Suppose
    every non-tree edge has one unit column, and every other column is
    nonzero at exactly one tree edge that is no earlier column's pivot, its
    own pivot.  Then the matrix is [[I, X], [0, Y]] up to the order of its
    columns, with Y triangular, and |det| is the product of the |pivots|.
    The state is the non-tree edges without a unit column yet and the
    pivots seen so far.
    """
    cycles, tree = fcm.cycles, fcm.tree.tree_edges
    edge_of = {cycle: e for e, cycle in cycles.items()}
    unused = set(cycles)
    pivots: set[EdgeId] = set()
    det = 1
    for support, mult in zip(supports, multipliers, strict=True):
        if mult is None:
            return None
        if mult == 1:
            e = edge_of.get(support)
            if e in unused:
                unused.remove(e)
                continue
            off = support - tree
            if len(off) == 2:
                e, f = off
                # the mapped column is -2 on the shared tree edges: one new
                # pivot, and otherwise earlier ones
                fresh = (cycles[e] & cycles[f]) - pivots
                if len(fresh) == 1 and support == cycles[e] ^ cycles[f]:
                    pivots |= fresh
                    det *= 2
                    continue
        y = _reduced(cycles, dict.fromkeys(support, mult))
        fresh = [r for r in y if r in tree and r not in pivots]
        if len(fresh) != 1:
            return None
        pivots.add(fresh[0])
        det *= abs(y[fresh[0]])
    if unused or len(pivots) != len(tree):
        return None
    return det


def _peel(
    edges: tuple[EdgeId, ...], columns: list[dict[EdgeId, int]]
) -> tuple[int, list[EdgeId], list[dict[EdgeId, int]]]:
    """Laplace expansion along singleton rows and columns, up to sign.

    Returns the product of the pivots taken and the residual rows and
    columns; the product is 0 when a row or column runs empty.
    """
    cols = {j: dict(col) for j, col in enumerate(columns)}
    rows: dict[EdgeId, dict[int, int]] = {e: {} for e in edges}
    for j, col in cols.items():
        for r, a in col.items():
            rows[r][j] = a
    if any(not line for line in rows.values()) or any(not col for col in cols.values()):
        return 0, [], []
    pending = [(True, j) for j, col in cols.items() if len(col) == 1]
    pending += [(False, r) for r, line in rows.items() if len(line) == 1]
    factor = 1
    while pending:
        is_col, key = pending.pop()
        line = cols.get(key) if is_col else rows.get(key)
        if line is None or len(line) != 1:
            continue
        ((other, a),) = line.items()
        j, r = (key, other) if is_col else (other, key)
        factor *= a
        for r2 in cols.pop(j):
            if r2 != r:
                del rows[r2][j]
                if len(rows[r2]) <= 1:
                    if not rows[r2]:
                        return 0, [], []
                    pending.append((False, r2))
        for j2 in rows.pop(r):
            if j2 != j:
                del cols[j2][r]
                if len(cols[j2]) <= 1:
                    if not cols[j2]:
                        return 0, [], []
                    pending.append((True, j2))
    return factor, sorted(rows), [cols[j] for j in sorted(cols)]


# ---------------------------------------------------------------------------
# chain path: bordered blocks of the extension steps, replayed backwards
# ---------------------------------------------------------------------------


def _chain_determinant(
    H: Multigraph, vectors: list[dict[EdgeId, int]], sequence
) -> int | None:
    """|det| of the vectors from the sequence's steps, or None when a check fails.

    The vectors lie in the connected graph H, in chain order, one per edge;
    as each step adds k edges, the steps take them all.
    """
    try:
        grown = sequence.grown_edges
    except ArgumentError:  # a step does not replay
        return None
    if not _maps_onto(H, grown, sequence):
        return None
    to_grown = {g: r for r, g in sequence.edge_map.items()}
    cols = [{to_grown[e]: c for e, c in vec.items()} for vec in vectors]
    members: dict[EdgeId, set[int]] = {}
    for j, col in enumerate(cols):
        for e in col:
            members.setdefault(e, set()).add(j)

    det = 1
    top = len(cols)
    for step in reversed(sequence.steps):
        splits = step.splits()
        k = 1 + len(splits)
        new = cols[top - k : top]
        block = [[col.get(step.new_edge, 0) for col in new]]
        block += [[col.get(s.second, 0) - col.get(s.first, 0) for col in new] for s in splits]
        d = abs(_small_determinant(block))
        if d != 2 ** len(splits):
            return None
        det *= d
        for j in range(top - k, top):
            for e in cols[j]:
                members[e].discard(j)
        top -= k
        # the older columns must vanish on the new rows
        if members.pop(step.new_edge, None):
            return None
        for s in splits:
            held = members.pop(s.first, set())
            if held != members.pop(s.second, set()):
                return None
            for j in held:
                value = cols[j].pop(s.first)
                if cols[j].pop(s.second) != value:
                    return None
                cols[j][s.old] = value
            if held:
                members[s.old] = held
    return det


def _maps_onto(H, grown, sequence) -> bool:
    """Do edge_map and vertex_map carry the grown graph onto H?"""
    em, vm = sequence.edge_map, sequence.vertex_map
    if set(em) != set(grown) or sorted(em.values()) != list(H.sorted_edges):
        return False
    if sorted(vm.values()) != sorted(H.vertices):
        return False
    for r, (u, v) in grown.items():
        if u not in vm or v not in vm:
            return False
        if sorted((vm[u], vm[v])) != sorted(H.edges[em[r]]):
            return False
    return True


def _small_determinant(K: list[list[int]]) -> int:
    """Determinant of a 1x1, 2x2 or 3x3 matrix."""
    if len(K) == 1:
        return K[0][0]
    if len(K) == 2:
        return K[0][0] * K[1][1] - K[0][1] * K[1][0]
    (a, b, c), (d, e, f), (g, h, i) = K
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
