"""Independent brute-force and exact-algebra verifiers.

Nothing in here shares code paths with the constructions it checks: cycle
enumeration is plain backtracking, determinants are fraction-free exact
elimination, lattice equality goes through a canonical Hermite normal form
and lattice invariants through a Smith normal form.
All arithmetic is on Python ints, so results are exact at any magnitude.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import ArgumentError, CapacityError
from .multigraph import EdgeId, Multigraph


@dataclass(frozen=True, eq=False)
class IntegerMatrix:
    """Rectangular matrix of exact integers, row-major."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise ArgumentError("ragged rows")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[list[int]]:
        return [[row[j] for row in self.entries] for j in range(self.cols)]

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "IntegerMatrix":
        return cls(entries=tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def from_columns(cls, cols: list[list[int]], rows: int | None = None) -> "IntegerMatrix":
        if not cols:
            return cls(entries=tuple(() for _ in range(rows or 0)))
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise ArgumentError("ragged columns")
        return cls(entries=tuple(tuple(c[i] for c in cols) for i in range(height)))

    @classmethod
    def from_vectors(
        cls, vectors: list[dict[EdgeId, int]], edge_order: list[EdgeId]
    ) -> "IntegerMatrix":
        """Columns are coordinate vectors laid out along edge_order.

        ArgumentError on a nonzero entry at an edge edge_order lacks.
        """
        known = set(edge_order)
        unknown = [e for vec in vectors for e, c in vec.items() if c and e not in known]
        if unknown:
            raise ArgumentError(f"vector has a nonzero entry at unknown edge {min(unknown)}")
        cols = [[vec.get(e, 0) for e in edge_order] for vec in vectors]
        return cls.from_columns(cols, rows=len(edge_order))


def enumerate_cycles(G: Multigraph, limit: int = 100_000) -> list[frozenset[EdgeId]]:
    """All simple cycles of G as edge-id sets, in a deterministic order.

    Includes loops (length 1) and parallel pairs (length 2).  Intended for
    small graphs; raises CapacityError past `limit` cycles.
    """
    cycles: list[frozenset[EdgeId]] = []

    def record(edges: frozenset[EdgeId]):
        cycles.append(edges)
        if len(cycles) > limit:
            raise CapacityError(f"more than {limit} cycles in a graph with n={G.n}, m={G.m}")

    non_loop = [e for e in G.sorted_edges if not G.is_loop(e)]
    for e in G.sorted_edges:
        if G.is_loop(e):
            record(frozenset({e}))

    # each cycle is discovered exactly once, anchored at its least edge e0:
    # walk from endpoint v back to endpoint u using only larger edge ids,
    # backtracking on an explicit stack of (vertex, incidence iterator)
    for e0 in non_loop:
        u, v = G.edges[e0]
        path_edges: list[EdgeId] = []
        visited = {v}
        stack = [(v, iter(G.incidence[v].items()))]
        while stack:
            x, incident = stack[-1]
            for e, y in incident:
                if e <= e0 or y == x:
                    continue
                if y == u:
                    record(frozenset([e0, *path_edges, e]))
                elif y not in visited:
                    visited.add(y)
                    path_edges.append(e)
                    stack.append((y, iter(G.incidence[y].items())))
                    break
            else:
                stack.pop()
                if path_edges:
                    path_edges.pop()
                    visited.discard(x)

    cycles.sort(key=lambda c: (len(c), sorted(c)))
    return cycles


def exact_determinant(M: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = M.rows
    if n != M.cols:
        raise ArgumentError(f"matrix is {M.rows}x{M.cols}, not square")
    if n == 0:
        return 1
    a = [list(row) for row in M.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hermite_normal_form(M: IntegerMatrix) -> IntegerMatrix:
    """Canonical column-style HNF of the lattice generated by M's columns.

    Unimodular column operations only.  In the result, pivot rows increase
    with column index, pivots are positive, and every entry sharing a pivot's
    row in an earlier column is reduced into [0, pivot).  Zero columns are
    dropped, so two column sets generate the same lattice exactly when their
    forms compare equal.
    """
    cols = [c for c in M.columns() if any(c)]
    rows = M.rows
    cur = 0
    for r in range(rows):
        live = [j for j in range(cur, len(cols)) if cols[j][r] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][r]))
            jstar = live[0]
            p = cols[jstar][r]
            for j in live[1:]:
                q = cols[j][r] // p
                if q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[jstar])]
            live = [j for j in live if cols[j][r] != 0]
        j0 = live[0]
        cols[cur], cols[j0] = cols[j0], cols[cur]
        if cols[cur][r] < 0:
            cols[cur] = [-x for x in cols[cur]]
        p = cols[cur][r]
        for j in range(cur):
            q = cols[j][r] // p
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[cur])]
        cur += 1
    return IntegerMatrix.from_columns([c for c in cols[:cur]], rows=rows)


def hnf_lattices_equal(A: IntegerMatrix, B: IntegerMatrix) -> bool:
    """Do the columns of A and B generate the same integer lattice?"""
    if A.rows != B.rows:
        raise ArgumentError(f"row dimension mismatch: {A.rows} vs {B.rows}")
    return hermite_normal_form(A).entries == hermite_normal_form(B).entries


def hnf_contains(M: IntegerMatrix, vector: list[int]) -> bool:
    """Does the lattice generated by M's columns contain the vector?"""
    if len(vector) != M.rows:
        raise ArgumentError(f"vector length {len(vector)} does not match {M.rows} rows")
    residual = [int(x) for x in vector]
    for col in hermite_normal_form(M).columns():
        r = next(i for i, x in enumerate(col) if x != 0)
        if residual[r] % col[r] != 0:
            return False
        q = residual[r] // col[r]
        if q:
            residual = [x - q * y for x, y in zip(residual, col)]
    return all(x == 0 for x in residual)


def smith_invariants(M: IntegerMatrix) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of the lattice M's columns generate.

    The Hermite normal form gives a basis of at most M.rows columns.  On it
    the Smith loop moves a least nonzero entry to the corner, clears its row
    and column by division with remainder (a remainder becomes the next
    corner), and while the corner does not divide some entry, adds that
    entry's row to the corner's first.
    """
    a = [list(row) for row in hermite_normal_form(M).entries]
    invariants = []
    while True:
        nonzero = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not nonzero:
            return invariants
        _, i, j = min(nonzero)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        for i in range(1, len(a)):
            q = a[i][0] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[0])]
        if any(row[0] for row in a[1:]):
            continue
        for j in range(1, len(a[0])):
            q = a[0][j] // p
            if q:
                a[0][j] -= q * p  # column 0 is p over zeros
        if any(a[0][1:]):
            continue
        bad = next((row for row in a[1:] if any(x % p for x in row)), None)
        if bad is not None:
            a[0] = [x + y for x, y in zip(a[0], bad)]
            continue
        invariants.append(abs(p))
        a = [row[1:] for row in a[1:]]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def decimal(n: int) -> str:
    """Decimal digits of n, also past the interpreter's int-to-str digit cap.

    Numbers over the cap are split on a power of ten into halves that each
    convert on their own.
    """
    if n < 0:
        return "-" + decimal(-n)
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 8^cap < 10^cap, so fewer than 3*cap bits means at most cap digits
    if not cap or n.bit_length() < 3 * cap:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of the digits: log10(2) > 3/10
    high, low = divmod(n, 10**k)
    return decimal(high) + decimal(low).zfill(k)


def rank_mod_p(M: IntegerMatrix, p: int) -> int:
    """Rank of M over GF(p) by Gaussian elimination."""
    if not _is_prime(p):
        raise ArgumentError(f"{p} is not prime")
    a = [[x % p for x in row] for row in M.entries]
    rank = 0
    for col in range(M.cols):
        pivot = next((i for i in range(rank, M.rows) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], p - 2, p) if p > 2 else a[rank][col]
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(M.rows):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank
