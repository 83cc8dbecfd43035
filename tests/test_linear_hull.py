import json
from math import gcd

import pytest

from cyclelattice.cli import main
from cyclelattice.cycle_structure import cosimplify
from cyclelattice.errors import ArgumentError, PreconditionError
from cyclelattice.lattice_basis import CycleBasis, semi_fundamental_basis, simple_basis
from cyclelattice.linear_hull import (
    AbelianGroupSpec,
    FieldSpec,
    hull_basis_mod_p,
    hull_dimension,
    hull_group_structure,
    hull_report,
)
from cyclelattice.multigraph import Multigraph
from cyclelattice.oracle import (
    IntegerMatrix,
    enumerate_cycles,
    rank_mod_p,
    smith_invariants,
)
from cyclelattice.topo_extension import gen


def _all_cycles_matrix(G):
    cycles = enumerate_cycles(G)
    return IntegerMatrix.from_vectors(
        [{e: 1 for e in c} for c in cycles], list(G.sorted_edges)
    )


class TestSpecs:
    def test_field_spec_validation(self):
        FieldSpec(0)
        FieldSpec(7)
        with pytest.raises(ArgumentError):
            FieldSpec(6)

    def test_group_spec_validation(self):
        AbelianGroupSpec((2, 4, 3))
        with pytest.raises(ArgumentError):
            AbelianGroupSpec((6,))
        with pytest.raises(ArgumentError):
            AbelianGroupSpec((1,))

    def test_group_spec_parse(self):
        assert AbelianGroupSpec.parse("2^2,3").cyclic_factors == (3, 4)
        assert AbelianGroupSpec.parse("4").cyclic_factors == (4,)
        with pytest.raises(ArgumentError):
            AbelianGroupSpec.parse("")
        for token in ("0^-1", "2^-1", "1^-5"):
            with pytest.raises(ArgumentError) as info:
                AbelianGroupSpec.parse(token)
            assert str(info.value) == f"group factor {token!r} has a negative exponent"


class TestHullDimension:
    def test_k4(self, k4):
        assert hull_dimension(k4, FieldSpec(3)) == 6
        assert hull_dimension(k4, FieldSpec(2)) == 3
        assert hull_dimension(k4, FieldSpec(0)) == 6

    def test_b3_rationals(self, b3):
        assert hull_dimension(b3, FieldSpec(0)) == 3

    def test_precondition(self, c3):
        with pytest.raises(PreconditionError):
            hull_dimension(c3, FieldSpec(3))


class TestHullGroupStructure:
    def test_b3_c4(self, b3):
        out = hull_group_structure(b3, AbelianGroupSpec((4,)))
        assert sorted(out.cyclic_factors) == [2, 4, 4]
        assert out.order == 32

    def test_k4_c3(self, k4):
        out = hull_group_structure(k4, AbelianGroupSpec((3,)))
        assert out.cyclic_factors == (3,) * 6

    def test_b3_c2_trivial_factors_vanish(self, b3):
        out = hull_group_structure(b3, AbelianGroupSpec((2,)))
        assert out.cyclic_factors == (2, 2)
        assert out.order == 4

    def test_mixed_group(self, b3):
        out = hull_group_structure(b3, AbelianGroupSpec((2, 3)))
        # 2-part: m-n+1 = 2 copies of C2; 3-part: m = 3 copies of C3
        assert sorted(out.cyclic_factors) == [2, 2, 3, 3, 3]


class TestGraphWithNoVertices:
    """The graph with no vertex is 3-edge-connected with no component, so
    n minus the component count is 0: the hull is the zero space."""

    EMPTY = Multigraph((), {})

    def test_dimension(self):
        assert hull_dimension(self.EMPTY, FieldSpec(2)) == 0
        assert hull_dimension(self.EMPTY, FieldSpec(3)) == 0

    def test_group_structure(self):
        out = hull_group_structure(self.EMPTY, AbelianGroupSpec.parse("2,4"))
        assert out.cyclic_factors == () and out.order == 1

    def test_basis_mod_p(self):
        for p in (2, 3):
            assert hull_basis_mod_p(self.EMPTY, FieldSpec(p), simple_basis(self.EMPTY)) == []

    def test_cli_agrees_with_the_library(self, capsys, tmp_path):
        graph = tmp_path / "empty.txt"
        graph.write_text("0 0\n")
        assert main(["hull", "--char", "2", str(graph)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimension"] == hull_dimension(self.EMPTY, FieldSpec(2))
        assert main(["hull", "--group", "2,4", str(graph)]) == 0
        doc = json.loads(capsys.readouterr().out)
        spec = hull_group_structure(self.EMPTY, AbelianGroupSpec.parse("2,4"))
        assert (doc["factors"], doc["order"]) == (spec.describe(), str(spec.order))


class TestHullBasisModP:
    def test_k4_mod3_full_rank(self, k4):
        basis, _ = semi_fundamental_basis(k4)
        vectors = hull_basis_mod_p(k4, FieldSpec(3), basis)
        assert len(vectors) == 6
        M = IntegerMatrix.from_vectors(vectors, list(k4.sorted_edges))
        assert rank_mod_p(M, 3) == 6

    def test_k4_mod2_fundamental_cycles(self, k4):
        basis, _ = semi_fundamental_basis(k4)
        vectors = hull_basis_mod_p(k4, FieldSpec(2), basis)
        assert len(vectors) == 3
        M = IntegerMatrix.from_vectors(vectors, list(k4.sorted_edges))
        assert rank_mod_p(M, 2) == 3

    def test_simple_basis_source(self, k4):
        vectors = hull_basis_mod_p(k4, FieldSpec(5), simple_basis(k4))
        M = IntegerMatrix.from_vectors(vectors, list(k4.sorted_edges))
        assert rank_mod_p(M, 5) == 6

    def test_single_loop(self, loop_graph):
        basis, _ = semi_fundamental_basis(loop_graph)
        vectors = hull_basis_mod_p(loop_graph, FieldSpec(5), basis)
        assert vectors == [{0: 1}]

    def test_source_off_the_graph_rejected(self, k4):
        """A source cycle through an edge K4 lacks is refused, not reduced
        with that edge left out."""
        basis, _ = semi_fundamental_basis(k4)
        cycles = (basis.cycles[0] | {99},) + basis.cycles[1:]
        with pytest.raises(ArgumentError, match="unknown edge 99$"):
            hull_basis_mod_p(k4, FieldSpec(3), CycleBasis(cycles, basis.provenance))

    def test_characteristic_zero_rejected(self, k4):
        basis, _ = semi_fundamental_basis(k4)
        with pytest.raises(ArgumentError):
            hull_basis_mod_p(k4, FieldSpec(0), basis)

    def test_independence_rank_equals_cardinality(self, k4, b3):
        for G in (k4, b3):
            basis, _ = semi_fundamental_basis(G)
            for p in (3, 5):
                vectors = hull_basis_mod_p(G, FieldSpec(p), basis)
                M = IntegerMatrix.from_vectors(vectors, list(G.sorted_edges))
                assert rank_mod_p(M, p) == len(vectors)


class TestAgainstEnumeration:
    def test_fixture_ranks(self, k4, b3, loop_graph, two_loops):
        for G in (k4, b3, loop_graph, two_loops):
            M = _all_cycles_matrix(G)
            assert rank_mod_p(M, 2) == G.m - G.n + 1
            for p in (3, 5):
                assert rank_mod_p(M, p) == G.m

    def test_random_ranks(self):
        checked = 0
        for seed in range(12):
            G = gen(steps=3 + seed % 4, seed=seed + 7, max_vertices=7)
            if G.m > 14:
                continue
            M = _all_cycles_matrix(G)
            assert rank_mod_p(M, 2) == G.m - G.n + 1, seed
            for p in (3, 5):
                assert rank_mod_p(M, p) == G.m, seed
            checked += 1
        assert checked >= 8

    def test_tiny_group_spans_match_formula(self, b3, loop_graph, two_loops):
        # the span in A^E is the sum of d*A over the Smith invariants d of
        # the cycle matrix, one cyclic factor q / gcd(d, q) per factor q of A
        for G in (b3, loop_graph, two_loops):
            invariants = smith_invariants(_all_cycles_matrix(G))
            for factors in ((2,), (3,), (4,), (2, 2)):
                A = AbelianGroupSpec(factors)
                two_a = 1
                for q in factors:
                    two_a *= q // 2 if q % 2 == 0 else q
                expected = two_a ** (G.n - 1) * A.order ** (G.m - G.n + 1)
                spans = [q // gcd(d, q) for d in invariants for q in factors]
                span = AbelianGroupSpec(tuple(q for q in spans if q > 1))
                assert span.order == expected, (factors, G.edges)
                assert span == hull_group_structure(G, A), (factors, G.edges)


class TestHullReport:
    def test_direct(self, k4):
        doc = hull_report(cosimplify(k4), FieldSpec(3), None)
        assert doc == {"derived": False, "characteristic": 3, "dimension": 6}

    def test_group_report(self, b3):
        doc = hull_report(cosimplify(b3), None, AbelianGroupSpec((4,)))
        assert doc["order"] == "32"
        assert doc["derived"] is False

    def test_derived_route(self, c3):
        doc = hull_report(cosimplify(c3), FieldSpec(3), None)
        assert doc["derived"] is True
        assert doc["dimension"] == 1  # the collapsed loop spans one coordinate

    def test_derived_matches_enumeration(self, c3, tri_pendant):
        for G in (c3, tri_pendant):
            M = _all_cycles_matrix(G)
            for p in (3, 5):
                doc = hull_report(cosimplify(G), FieldSpec(p), None)
                assert doc["dimension"] == rank_mod_p(M, p)
            doc2 = hull_report(cosimplify(G), FieldSpec(2), None)
            assert doc2["dimension"] == rank_mod_p(M, 2)
