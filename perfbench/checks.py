"""Output checks that share no code with the package under test.

A returned string describes the first problem found; None means the
output passed.  The checks run outside every timed span.
"""

from __future__ import annotations

import json


def simple_cycle_problem(edges: dict[int, tuple[int, int]], cycle) -> str | None:
    """Why `cycle` (a list of edge ids) is not a simple cycle, or None.

    A simple cycle has distinct, known edges; every vertex it touches has
    degree 2 in it (a loop counts twice); and it is connected.
    """
    ids = list(cycle)
    if not ids:
        return "empty cycle"
    if len(set(ids)) != len(ids):
        return "repeated edge"
    adj: dict[int, list[int]] = {}
    for e in ids:
        if e not in edges:
            return f"unknown edge {e}"
        u, v = edges[e]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        return "a vertex does not have degree 2"
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(adj):
        return "disconnected"
    return None


def gf2_rank(edges: dict[int, tuple[int, int]], cycles) -> int:
    """Rank over GF(2) of the cycles' edge indicator vectors, as int bitsets."""
    bit = {e: 1 << i for i, e in enumerate(sorted(edges))}
    pivots: dict[int, int] = {}
    for cycle in cycles:
        row = 0
        for e in cycle:
            row ^= bit[e]
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def cycle_basis_problem(
    edges: dict[int, tuple[int, int]], n: int, count: int, cycles
) -> str | None:
    """Check `count` distinct simple cycles spanning the binary cycle space.

    The graph is connected, so its binary cycle space has dimension
    m - n + 1; a lattice basis of cycles must span it.
    """
    cycles = [list(c) for c in cycles]
    if len(cycles) != count:
        return f"{len(cycles)} cycles, expected {count}"
    if len({frozenset(c) for c in cycles}) != len(cycles):
        return "duplicate cycle"
    for index, cycle in enumerate(cycles):
        problem = simple_cycle_problem(edges, cycle)
        if problem:
            return f"cycle {index}: {problem}"
    want = len(edges) - n + 1
    rank = gf2_rank(edges, cycles)
    if rank != want:
        return f"GF(2) rank {rank}, expected {want}"
    return None


def _doc(stdout: str) -> dict | str:
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(doc, dict):
        return "output is not a JSON object"
    return doc


def basis_doc_problem(inst, method: str, stdout: str) -> str | None:
    """Check a `basis` document: certified, with the right entries.

    Every method emits hat_m entries, one per edge of the cosimplification.
    The cycle methods emit only cycles.  The simple method emits m - n + 1
    cycles, a basis of the binary cycle space, and the rest are doubled,
    pairwise disjoint edge sets (tree edges, or series classes when the
    basis was lifted).
    """
    doc = _doc(stdout)
    if isinstance(doc, str):
        return doc
    if doc.get("certified") is not True:
        return "basis not certified"
    entries = doc.get("cycles")
    if not isinstance(entries, list) or len(entries) != inst.hat_m:
        return f"expected {inst.hat_m} entries"
    if method != "simple":
        return cycle_basis_problem(
            inst.edges, inst.n, inst.hat_m, (e["edges"] for e in entries)
        )
    cycles = [e["edges"] for e in entries if e.get("multiplier", 1) == 1]
    doubled = [e for e in entries if e.get("multiplier", 1) != 1]
    if any(e.get("multiplier") != 2 for e in doubled):
        return "unsupported multiplier"
    doubled_edges = [x for e in doubled for x in e["edges"]]
    if len(set(doubled_edges)) != len(doubled_edges) or not all(
        x in inst.edges for x in doubled_edges
    ):
        return "doubled entries repeat or name unknown edges"
    return cycle_basis_problem(inst.edges, inst.n, inst.m - inst.n + 1, cycles)


def verify_doc_problem(stdout: str) -> str | None:
    doc = _doc(stdout)
    if isinstance(doc, str):
        return doc
    if doc.get("accepted") is not True:
        return "basis document not accepted"
    return None


def extend_doc_problem(inst, stdout: str) -> str | None:
    """`extend --verify`: certified chain whose final basis is a cycle basis."""
    doc = _doc(stdout)
    if isinstance(doc, str):
        return doc
    chain = doc.get("chain", {})
    if chain.get("certified") is not True or chain.get("prefixes_certified") is not True:
        return "chain not certified"
    steps = doc.get("sequence", {}).get("steps", [])
    if len(chain.get("bases", [])) != len(steps) + 1:
        return "one prefix basis per step expected"
    return cycle_basis_problem(
        inst.edges, inst.n, inst.m, (e["edges"] for e in chain.get("final_basis", []))
    )


def analyze_doc_problem(inst, stdout: str) -> str | None:
    """`analyze` of a reduce_non3ec instance: connected, not 3-edge-connected,
    and the sizes known from the construction."""
    doc = _doc(stdout)
    if isinstance(doc, str):
        return doc
    got = (doc.get("n"), doc.get("m"), doc.get("connected"), doc.get("three_edge_connected"))
    if got != (inst.n, inst.m, True, False):
        return f"analyze reported n, m, connected, 3ec = {got}"
    cos = doc.get("cosimplification", {})
    if (cos.get("n"), cos.get("m")) != (inst.hat_n, inst.hat_m):
        return f"cosimplification {cos.get('n')}x{cos.get('m')}, expected {inst.hat_n}x{inst.hat_m}"
    return None


def hull_doc_problem(inst, stdout: str) -> str | None:
    """`hull --char 3`: in odd characteristic the cycles of the
    cosimplification span all of K^E, so the dimension is hat_m."""
    doc = _doc(stdout)
    if isinstance(doc, str):
        return doc
    if (doc.get("characteristic"), doc.get("dimension")) != (3, inst.hat_m):
        return f"hull dimension {doc.get('dimension')}, expected {inst.hat_m}"
    return None
