import ast
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclelattice import oracle
from cyclelattice.cycle_structure import is_simple_cycle
from cyclelattice.errors import ArgumentError, CapacityError
from cyclelattice.lattice_basis import indicator_matrix, simple_basis
from cyclelattice.multigraph import parse_edge_list
from cyclelattice.oracle import (
    IntegerMatrix,
    enumerate_cycles,
    exact_determinant,
    hermite_normal_form,
    hnf_contains,
    hnf_lattices_equal,
    rank_mod_p,
    smith_invariants,
)


class TestEnumerateCycles:
    def test_k4_has_seven(self, k4):
        cycles = enumerate_cycles(k4)
        assert len(cycles) == 7
        assert sum(1 for c in cycles if len(c) == 3) == 4
        assert sum(1 for c in cycles if len(c) == 4) == 3

    def test_b3_parallel_pairs(self, b3):
        assert enumerate_cycles(b3) == [
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
        ]

    def test_p2_none(self, p2):
        assert enumerate_cycles(p2) == []

    def test_loops_and_distinctness(self, two_loops):
        cycles = enumerate_cycles(two_loops)
        assert cycles == [frozenset({0}), frozenset({1})]

    def test_every_output_is_a_cycle(self, k4, b3, tri_pendant, loop_graph):
        for G in (k4, b3, tri_pendant, loop_graph):
            cycles = enumerate_cycles(G)
            assert len(set(cycles)) == len(cycles)
            for c in cycles:
                assert is_simple_cycle(G, c)

    def test_cycle_longer_than_the_recursion_limit(self):
        n = 1500
        G = parse_edge_list(f"{n} {n}\n" + "".join(f"{i} {i % n + 1}\n" for i in range(1, n + 1)))
        assert enumerate_cycles(G) == [frozenset(G.edges)]

    def test_limit(self, k4):
        with pytest.raises(CapacityError):
            enumerate_cycles(k4, limit=3)

    def test_limit_error_names_the_graph_size(self, k4):
        with pytest.raises(CapacityError) as err:
            enumerate_cycles(k4, limit=3)
        assert str(err.value) == "more than 3 cycles in a graph with n=4, m=6"


class TestExactDeterminant:
    def test_identity(self):
        M = IntegerMatrix.from_rows([[1 if i == j else 0 for j in range(5)] for i in range(5)])
        assert exact_determinant(M) == 1

    def test_three_by_three(self):
        M = IntegerMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        assert exact_determinant(M) == -2

    def test_k4_simple_basis(self, k4):
        sb = simple_basis(k4)
        M = IntegerMatrix.from_vectors(sb.vectors(), list(k4.sorted_edges))
        assert abs(exact_determinant(M)) == 8

    def test_vectors_off_the_edge_order_rejected(self):
        """A nonzero entry at an edge the order lacks is refused, naming the
        least such edge; a zero there has no column to land in and is fine."""
        with pytest.raises(ArgumentError, match="unknown edge 5$"):
            IntegerMatrix.from_vectors([{0: 1, 7: 2}, {5: 3}], [0, 1])
        assert IntegerMatrix.from_vectors([{0: 1, 9: 0}], [0, 1]).entries == ((1,), (0,))

    def test_singular(self):
        M = IntegerMatrix.from_rows([[1, 2], [2, 4]])
        assert exact_determinant(M) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ArgumentError):
            exact_determinant(IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    def test_matches_cofactor_expansion(self, rows):
        def cofactor_det(a):
            n = len(a)
            if n == 1:
                return a[0][0]
            total = 0
            for j in range(n):
                sub = [row[:j] + row[j + 1 :] for row in a[1:]]
                total += (-1) ** j * a[0][j] * cofactor_det(sub)
            return total

        M = IntegerMatrix.from_rows(rows)
        assert exact_determinant(M) == cofactor_det(rows)


class TestHermiteNormalForm:
    def test_idempotent(self):
        M = IntegerMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        H = hermite_normal_form(M)
        assert hermite_normal_form(H).entries == H.entries

    def test_two_three_generate_z(self):
        A = IntegerMatrix.from_rows([[2, 3]])
        B = IntegerMatrix.from_rows([[1]])
        assert hnf_lattices_equal(A, B)

    def test_equal_matrices(self):
        A = IntegerMatrix.from_rows([[1, 2], [3, 4]])
        assert hnf_lattices_equal(A, A)

    def test_detects_different_lattices(self):
        A = IntegerMatrix.from_rows([[2, 0], [0, 2]])
        B = IntegerMatrix.from_rows([[1, 0], [0, 1]])
        assert not hnf_lattices_equal(A, B)

    def test_unimodular_determinant_preserved(self):
        M = IntegerMatrix.from_rows([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
        H = hermite_normal_form(M)
        assert abs(exact_determinant(H)) == abs(exact_determinant(M))

    def test_dimension_mismatch(self):
        A = IntegerMatrix.from_rows([[1], [0]])
        B = IntegerMatrix.from_rows([[1]])
        with pytest.raises(ArgumentError):
            hnf_lattices_equal(A, B)

    def test_pivots_positive_and_staircase(self):
        M = IntegerMatrix.from_rows([[-4, 2], [0, -3], [8, 1]])
        H = hermite_normal_form(M)
        pivot_rows = []
        for j in range(H.cols):
            col = H.column(j)
            r = next(i for i, x in enumerate(col) if x)
            assert col[r] > 0
            pivot_rows.append(r)
        assert pivot_rows == sorted(pivot_rows)

    def test_contains_vector(self):
        M = IntegerMatrix.from_rows([[2, 0], [0, 1]])
        assert hnf_contains(M, [4, 3])
        assert not hnf_contains(M, [3, 0])


def _integer_matrices(min_rows, max_rows, min_cols, max_cols, square=False):
    """Small integer matrices, rich in zeros so that pivots run out."""
    entry = st.one_of(st.just(0), st.integers(-5, 5))
    rows = st.integers(min_rows, max_rows)
    shape = rows.map(lambda n: (n, n)) if square else st.tuples(rows, st.integers(min_cols, max_cols))
    return shape.flatmap(
        lambda rc: st.lists(
            st.lists(entry, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]
        )
    )


@st.composite
def _lattice_generators(draw):
    """Integer matrices, some with a dependent row or column and some with
    zero rows inserted."""
    rows = draw(_integer_matrices(1, 6, 1, 8))
    coefficient = st.integers(-3, 3)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(coefficient), draw(coefficient)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    if draw(st.booleans()):
        width = len(rows[0])
        i, j = draw(st.integers(0, width - 1)), draw(st.integers(0, width - 1))
        a, b = draw(coefficient), draw(coefficient)
        rows = [row + [a * row[i] + b * row[j]] for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * len(rows[0]))
    return rows


class TestAgainstSympy:
    """Differential oracles: sympy's determinant, Hermite and Smith normal forms."""

    @settings(max_examples=200)
    @given(_integer_matrices(1, 8, 1, 8, square=True))
    def test_determinant_matches_sympy(self, rows):
        sympy = pytest.importorskip("sympy")
        assert exact_determinant(IntegerMatrix.from_rows(rows)) == sympy.Matrix(rows).det()

    @settings(max_examples=200)
    @given(_integer_matrices(1, 6, 1, 8))
    def test_hermite_normal_form_matches_sympy(self, rows):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

        H = hermite_normal_form(IntegerMatrix.from_rows(rows))
        assert H.cols == sympy.Matrix(rows).rank()
        # sympy's form is canonical too, so equal forms mean equal lattices
        ours = sympy.Matrix(H.rows, H.cols, [x for row in H.entries for x in row])
        assert sympy_hnf(ours) == sympy_hnf(sympy.Matrix(rows))
        # sympy puts the pivots bottom right: reversing the rows of M and
        # then both orders of the result gives this module's form exactly
        W = sympy_hnf(sympy.Matrix(rows[::-1]))
        flipped = [[int(W[i, j]) for j in reversed(range(W.cols))] for i in reversed(range(W.rows))]
        assert [list(row) for row in H.entries] == flipped

    @settings(max_examples=200)
    @given(_lattice_generators())
    def test_smith_invariants_match_sympy(self, rows):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form
        from sympy.polys.domains import ZZ

        D = smith_normal_form(sympy.Matrix(rows), domain=ZZ)
        diagonal = [abs(int(D[i, i])) for i in range(min(D.shape))]
        invariants = smith_invariants(IntegerMatrix.from_rows(rows))
        assert invariants == sorted(d for d in diagonal if d)
        assert len(invariants) == sympy.Matrix(rows).rank()
        assert all(b % a == 0 for a, b in zip(invariants, invariants[1:]))


class TestRankModP:
    def test_k4_all_cycles(self, k4):
        cycles = enumerate_cycles(k4)
        M = IntegerMatrix.from_vectors(
            [{e: 1 for e in c} for c in cycles], list(k4.sorted_edges)
        )
        assert rank_mod_p(M, 2) == 3
        assert rank_mod_p(M, 3) == 6

    def test_zero_matrix(self):
        M = IntegerMatrix.from_rows([[0, 0], [0, 0]])
        assert rank_mod_p(M, 5) == 0

    def test_composite_rejected(self):
        M = IntegerMatrix.from_rows([[1]])
        with pytest.raises(ArgumentError):
            rank_mod_p(M, 6)


class TestSmithInvariants:
    def test_cycle_lattices(self, k4, b3, loop_graph):
        # 1^(m-n+1) and 2^(n-1) on a 3-edge-connected graph
        for G in (k4, b3, loop_graph):
            M = indicator_matrix(G, enumerate_cycles(G))
            assert smith_invariants(M) == [1] * (G.m - G.n + 1) + [2] * (G.n - 1)

    def test_divisibility_chain(self):
        assert smith_invariants(IntegerMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]
        assert smith_invariants(IntegerMatrix.from_rows([[4, 0], [0, 6], [0, 0]])) == [2, 12]
        assert smith_invariants(IntegerMatrix.from_rows([[6, 4], [4, 6], [2, 2]])) == [2, 2]

    def test_no_generators(self, b3):
        assert smith_invariants(indicator_matrix(b3, [])) == []
        assert smith_invariants(IntegerMatrix.from_rows([[0, 0], [0, 0]])) == []


class TestGroupSpanSize:
    """The span of vectors in A^E, A a sum of cyclic groups of orders q, is
    the sum of d*A over their Smith invariants d: of order the product of
    q / gcd(d, q)."""

    @staticmethod
    def span_order(G, cycles, factors):
        invariants = smith_invariants(indicator_matrix(G, cycles))
        return prod(q // gcd(d, q) for d in invariants for q in factors)

    def test_b3_mod_two(self, b3):
        assert self.span_order(b3, enumerate_cycles(b3), [2]) == 4

    def test_b3_mod_four(self, b3):
        assert self.span_order(b3, enumerate_cycles(b3), [4]) == 32

    def test_empty_generators(self, b3):
        assert self.span_order(b3, [], [2]) == 1


def test_from_columns_round_trip():
    cols = [[1, 2, 3], [4, 5, 6]]
    M = IntegerMatrix.from_columns(cols, rows=3)
    assert M.columns() == cols
    assert M.rows == 3 and M.cols == 2


def test_enumerate_mixed_loops_and_multi():
    G = parse_edge_list("2 4\na a\na b\na b\nb b\n")
    cycles = enumerate_cycles(G)
    assert frozenset({0}) in cycles
    assert frozenset({3}) in cycles
    assert frozenset({1, 2}) in cycles
    assert len(cycles) == 3


def test_oracle_imports_nothing_from_the_constructions():
    """oracle.py stays independent of the constructions it checks: from the
    package it imports only the errors and the graph type."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "cyclelattice":
                imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "cyclelattice")
    assert imported == {".errors", ".multigraph"}
