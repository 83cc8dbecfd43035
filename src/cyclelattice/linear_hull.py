"""Linear hulls of cycles over prime fields and finite Abelian groups.

Over a coefficient field of characteristic other than 2 the cycles span all
of K^E for a 3-edge-connected graph; over characteristic 2 they span the
classical binary cycle space of dimension m-n+1.  Over a finite Abelian
group A the hull is (2A)^(n-1) + A^(m-n+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import isqrt

from .cycle_structure import Cosimplification, fundamental_cycle_matrix
from .errors import ArgumentError, InternalError
from .lattice_basis import CycleBasis, SimpleBasis, three_edge_connected_rank
from .multigraph import Multigraph
from .oracle import IntegerMatrix, _is_prime, decimal, rank_mod_p

# cyclic factors and characteristics above this bound are refused: telling
# whether one is a prime (power) takes up to sqrt(bound) trial divisions
FACTOR_BOUND = 10**12


@dataclass(frozen=True)
class FieldSpec:
    """A field identified by its characteristic: a prime, or 0 for Q."""

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if p > FACTOR_BOUND:
            raise ArgumentError(f"characteristic {p} exceeds the bound {FACTOR_BOUND}")
        if p != 0 and not _is_prime(p):
            raise ArgumentError(f"characteristic must be 0 or prime, got {p}")


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Finite Abelian group as its primary decomposition (prime powers)."""

    cyclic_factors: tuple[int, ...]

    def __post_init__(self):
        for q in dict.fromkeys(self.cyclic_factors):
            if q > FACTOR_BOUND:
                raise ArgumentError(f"factor {q} exceeds the bound {FACTOR_BOUND}")
            if q < 2 or _prime_power(q) is None:
                raise ArgumentError(f"factor {q} is not a prime power > 1")
        object.__setattr__(
            self, "cyclic_factors", tuple(sorted(self.cyclic_factors))
        )

    @property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.cyclic_factors, 1)

    @classmethod
    def parse(cls, text: str) -> "AbelianGroupSpec":
        """Parse factor lists like "4,3" or "2^2,3"."""
        factors = []
        for tok in text.split(","):
            tok = tok.strip()
            if not tok:
                continue
            base, caret, exp = tok.partition("^")
            try:
                b, k = int(base), int(exp) if caret else 1
            except ValueError:
                raise ArgumentError(
                    f"group factor {tok!r} is not an integer or a power like 2^3"
                ) from None
            if k < 0:
                raise ArgumentError(f"group factor {tok!r} has a negative exponent")
            if abs(b) > 1 and k > FACTOR_BOUND.bit_length():
                raise ArgumentError(f"group factor {tok!r} exceeds the bound {FACTOR_BOUND}")
            factors.append(b**k)
        if not factors:
            raise ArgumentError("empty group specification")
        return cls(cyclic_factors=tuple(factors))

    def describe(self) -> list[str]:
        labels = {}
        for q in dict.fromkeys(self.cyclic_factors):
            p, k = _prime_power(q)
            labels[q] = f"{p}^{k}" if k > 1 else str(p)
        return [labels[q] for q in self.cyclic_factors]


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k and p prime, or None; q >= 2.

    p is the least divisor of q, found by trial division up to sqrt(q).
    """
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def hull_dimension(G: Multigraph, K: FieldSpec) -> int:
    """Dimension of the K-span of cycle vectors: m, or m-n+1 when char 2
    (with no vertex, n-1 reads 0)."""
    return _dimension(G.m, three_edge_connected_rank(G), K)


def _dimension(m: int, r: int, K: FieldSpec) -> int:
    """hull_dimension summed over 3-edge-connected components: m edges in
    all, and r = n - #components."""
    return m - r if K.characteristic == 2 else m


def hull_group_structure(G: Multigraph, A: AbelianGroupSpec) -> AbelianGroupSpec:
    """Primary decomposition of the A-span of cycle vectors.

    Each odd-primary factor contributes m copies of itself; each factor of
    order 2^k contributes m-n+1 copies of 2^k and n-1 copies of 2^(k-1),
    the trivial factors being dropped (with no vertex, n-1 reads 0).
    """
    return _group_structure(G.m, three_edge_connected_rank(G), A)


def _group_structure(m: int, r: int, A: AbelianGroupSpec) -> AbelianGroupSpec:
    """hull_group_structure summed over components, as in _dimension."""
    out: list[int] = []
    for q in A.cyclic_factors:
        if q % 2 == 0:
            out.extend([q] * (m - r))
            if q // 2 > 1:
                out.extend([q // 2] * r)
        else:
            out.extend([q] * m)
    return AbelianGroupSpec(cyclic_factors=tuple(out))


def hull_basis_mod_p(
    G: Multigraph, K: FieldSpec, source: CycleBasis | SimpleBasis
) -> list[dict[int, int]]:
    """Reduce a lattice basis to a linear basis of the hull over GF(p).

    For p != 2 every basis vector survives reduction; for p = 2 only the
    fundamental cycles do (the rest of the lattice collapses), so the
    source must carry a spanning tree.
    """
    r = three_edge_connected_rank(G)
    p = K.characteristic
    if p == 0:
        raise ArgumentError("reduction needs a positive characteristic")
    if p != 2:
        vectors = source.vectors()
    else:
        tree = source.tree
        if tree is None:
            raise ArgumentError("characteristic-2 reduction needs a tree-based source")
        fcm = fundamental_cycle_matrix(G, tree)
        vectors = [dict.fromkeys(cyc, 1) for cyc in fcm.cycles.values()]
    expected = _dimension(G.m, r, K)
    order = list(G.sorted_edges)
    rank = rank_mod_p(IntegerMatrix.from_vectors(vectors, order), p)
    if rank != expected:
        raise InternalError(
            f"reduced basis has rank {rank}, expected {expected}: source basis is broken"
        )
    return vectors


def hull_report(cos: Cosimplification, K: FieldSpec | None, A: AbelianGroupSpec | None) -> dict:
    """Hull summary for a connected graph, given by its cosimplification.

    The closed-form dimensions assume a 3-edge-connected graph; they are
    summed over the components of the cosimplification (a lattice
    isomorphism), and the report is flagged as derived unless the graph
    itself is 3-edge-connected.
    """
    hat = cos.hat_graph
    rank = hat.n - cos.hat_component_count
    report: dict = {"derived": not cos.three_edge_connected}
    if K is not None:
        report["characteristic"] = K.characteristic
        report["dimension"] = _dimension(hat.m, rank, K)
    if A is not None:
        spec = _group_structure(hat.m, rank, A)
        report["group"] = ",".join(A.describe())
        report["factors"] = spec.describe()
        report["order"] = decimal(spec.order)
    return report
