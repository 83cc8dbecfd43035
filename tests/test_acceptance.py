"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance here is exact integer equality; the only numeric
budgets are wall-clock ceilings.
"""

import random
import time
from functools import lru_cache
from math import gcd

from cyclelattice.certificate import certify, certify_cycle_basis
from cyclelattice.cli import _certified_invariants
from cyclelattice.cycle_structure import cosimplify, is_three_edge_connected
from cyclelattice.lattice_basis import (
    indicator_matrix,
    is_lattice_member,
    matches_all_cycles_lattice,
    semi_fundamental_basis,
    simple_basis,
)
from cyclelattice.linear_hull import AbelianGroupSpec, hull_report, span_group
from cyclelattice.multigraph import (
    SpanningForest,
    parse_edge_list,
    spanning_forest,
    tree_diameter,
)
from cyclelattice.oracle import (
    IntegerMatrix,
    enumerate_cycles,
    exact_determinant,
    hnf_contains,
    rank_mod_p,
    smith_invariants,
)
from cyclelattice.topo_extension import compatible_chain, embed_cycle, gen

K4 = parse_edge_list("4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
B3 = parse_edge_list("2 3\nu v\nu v\nu v\n")
LOOP = parse_edge_list("1 1\nv v\n")
C3 = parse_edge_list("3 3\n1 2\n2 3\n3 1\n")
P2 = parse_edge_list("2 1\na b\n")
TRI_PENDANT = parse_edge_list("4 4\n1 2\n2 3\n3 1\n3 4\n")
TWO_LOOPS = parse_edge_list("1 2\nv v\nv v\n")
# K4 on 2..5 with 2-3 and 4-5 subdivided, plus pendant bridges at 5, 2, 7, 4
SUBDIVIDED_WITH_PENDANTS = parse_edge_list(
    "11 13\n1 5\n2 6\n6 3\n2 4\n2 5\n3 4\n3 5\n4 7\n7 8\n8 5\n2 9\n7 10\n4 11\n"
)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@lru_cache(maxsize=1)
def _det_corpus():
    """200 random 3-edge-connected graphs with n <= 12."""
    out = []
    for i in range(200):
        steps = 3 + i % 8
        out.append(gen(steps=steps, seed=1000 + i, max_vertices=12))
    return out


@lru_cache(maxsize=1)
def _small_corpus():
    """Fixtures plus 100 random instances with |E| <= 14."""
    out = [K4, B3, LOOP, TWO_LOOPS]
    for i in range(100):
        steps = 2 + i % 5
        G = gen(steps=steps, seed=2000 + i, max_vertices=8)
        assert G.m <= 14, (i, G.m)
        out.append(G)
    return out


def test_criterion_1_determinant_formula():
    start = time.time()
    ok = True
    details = []
    for G, expected in ((K4, 8), (B3, 2)):
        T = spanning_forest(G)
        sb = simple_basis(G, T)
        det_simple = abs(
            exact_determinant(
                IntegerMatrix.from_vectors(sb.vectors(), list(G.sorted_edges))
            )
        )
        det_semi, ok_semi = certify_cycle_basis(G, semi_fundamental_basis(G, T)[0])
        chain = compatible_chain(G, keep_prefixes=False)
        det_topo, ok_topo = certify_cycle_basis(G, chain.final_basis)
        good = (
            det_simple == expected
            and ok_semi
            and abs(det_semi) == expected
            and ok_topo
            and abs(det_topo) == expected
        )
        ok = ok and good
        details.append(f"fixture n={G.n}: simple/semi/topological |det|={expected}")
    count = 0
    for G in _det_corpus():
        basis, _ = semi_fundamental_basis(G)
        det, certified = certify_cycle_basis(G, basis)
        if not certified or abs(det) != 2 ** (G.n - 1):
            ok = False
            break
        count += 1
    elapsed = time.time() - start
    ok = ok and count == 200 and elapsed < 10.0
    _report(
        1,
        "determinant-formula",
        ok,
        f"K4=8, B3=2 on all methods; {count}/200 random graphs, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_lattice_equality_oracle():
    start = time.time()
    checked = 0
    ok = True
    for G in _small_corpus():
        basis, _ = semi_fundamental_basis(G)
        if not matches_all_cycles_lattice(G, basis.vectors()):
            ok = False
            break
        chain = compatible_chain(G, keep_prefixes=False)
        if not matches_all_cycles_lattice(G, chain.final_basis.vectors()):
            ok = False
            break
        checked += 1
    elapsed = time.time() - start
    ok = ok and checked == len(_small_corpus()) and elapsed < 60.0
    _report(
        2,
        "hnf-lattice-equality",
        ok,
        f"{checked} instances, both construction methods, {elapsed:.1f}s < 60s",
    )


def test_criterion_3_semi_fundamental_structure(nx_quotient):
    ok = True
    detail = ""
    for G in _small_corpus():
        T = spanning_forest(G)
        basis, triples = semi_fundamental_basis(G, T)
        fundamental = sum(1 for p in basis.provenance if p.kind == "fundamental")
        semi = sum(1 for p in basis.provenance if p.kind == "semi-fundamental")
        if fundamental != G.m - G.n + 1 or semi != G.n - 1:
            ok, detail = False, f"counts wrong on n={G.n},m={G.m}"
            break
        contracted = []
        for t_k, e_k, f_k in triples:
            Gk = nx_quotient(G, contracted)
            Tk = SpanningForest(
                parent_graph=Gk,
                tree_edges=frozenset(T.tree_edges - set(contracted)),
                component_roots=(min(Gk.vertices),),
            )
            cyc_e = set(Tk.path_edges(*Gk.edges[e_k])) | {e_k}
            cyc_f = set(Tk.path_edges(*Gk.edges[f_k])) | {f_k}
            if cyc_e & cyc_f != {t_k}:
                ok, detail = False, f"pair intersection not a single edge at t={t_k}"
                break
            contracted.append(t_k)
        if not ok:
            break
    _report(
        3,
        "semi-fundamental-structure",
        ok,
        detail or f"{len(_small_corpus())} instances: counts, lengths, pair witnesses",
    )


def test_criterion_3_length_bound_exact():
    # separated so the bound is checked plainly, without the loop above
    ok = True
    for G in _small_corpus():
        if G.n < 2:
            continue
        T = spanning_forest(G)
        basis, _ = semi_fundamental_basis(G, T)
        diam = max(tree_diameter(T).values())
        if any(len(c) > 2 * diam for c in basis.cycles):
            ok = False
            break
    _report(3, "semi-fundamental-length-bound", ok, "every cycle <= 2*diam(T)")


def test_criterion_4_extension_sequence_validity():
    ok = True
    detail = ""
    for G in _small_corpus():
        chain = compatible_chain(G, keep_prefixes=True)
        seq = chain.sequence
        graphs = chain.graphs
        em, vm = seq.edge_map, seq.vertex_map
        final = graphs[-1]
        rebuilt = {
            em[r]: tuple(sorted((vm[u], vm[v]))) for r, (u, v) in final.edges.items()
        }
        if rebuilt != {e: tuple(sorted(uv)) for e, uv in G.edges.items()}:
            ok, detail = False, "replay mismatch"
            break
        if not all(is_three_edge_connected(H) for H in graphs):
            ok, detail = False, "intermediate not 3-edge-connected"
            break
        prev = 1
        for step, H, basis in zip(seq.steps, graphs[1:], chain.bases[1:]):
            M = IntegerMatrix.from_vectors(
                [{e: 1 for e in c} for c in basis.cycles], list(H.sorted_edges)
            )
            det = abs(exact_determinant(M))
            if det != prev * {"A": 1, "B": 2, "C": 4}[step.kind]:
                ok, detail = False, f"ratio wrong at step kind {step.kind}"
                break
            prev = det
        if not ok:
            break
    _report(
        4,
        "extension-sequence-validity",
        ok,
        detail or f"{len(_small_corpus())} instances: replay, 3ec, ratios 1/2/4",
    )


def test_criterion_5_compatible_chain_nestedness():
    ok = True
    for G in _small_corpus():
        chain = compatible_chain(G, keep_prefixes=True)
        for i, step in enumerate(chain.sequence.steps):
            embedded = {embed_cycle(step, c) for c in chain.bases[i].cycles}
            if not embedded <= set(chain.bases[i + 1].cycles):
                ok = False
                break
        if not ok:
            break
    _report(
        5,
        "compatible-chain-nestedness",
        ok,
        f"{len(_small_corpus())} instances, every prefix",
    )


def test_criterion_6_hull_dimensions():
    ok = True
    for G in _small_corpus():
        if G.m > 14:
            continue
        cycles = enumerate_cycles(G)
        M = IntegerMatrix.from_vectors(
            [{e: 1 for e in c} for c in cycles], list(G.sorted_edges)
        )
        if rank_mod_p(M, 2) != G.m - G.n + 1:
            ok = False
            break
        if rank_mod_p(M, 3) != G.m or rank_mod_p(M, 5) != G.m:
            ok = False
            break
    _report(
        6,
        "hull-dimensions",
        ok,
        "GF(2) rank = m-n+1 and GF(3), GF(5) rank = m on the corpus",
    )


def test_criterion_7_hull_group_structure():
    # the span in A^E is the sum of d*A over the Smith invariants d of the
    # cycle matrix; d*A has one cyclic factor q / gcd(d, q) per factor q of A
    groups = [(2,), (3,), (4,), (2, 2), (9,)]
    corpus = _small_corpus()
    orders, mismatches = {}, []
    for index, G in enumerate(corpus):
        invariants = smith_invariants(indicator_matrix(G, enumerate_cycles(G)))
        for factors in groups:
            report = hull_report(cosimplify(G), None, AbelianGroupSpec(factors))
            spans = [q // gcd(d, q) for d in invariants for q in factors]
            span = AbelianGroupSpec(tuple(q for q in spans if q > 1))
            if span.describe() != report["factors"] or str(span.order) != report["order"]:
                mismatches.append((index, factors, span.describe(), report["factors"]))
            orders[index, factors] = span.order
    # the corpus starts K4, B3, loop, two loops
    named = {(1, (4,)): 32, (1, (2,)): 4, (2, (4,)): 4}
    ok = not mismatches and all(orders[key] == val for key, val in named.items())
    _report(
        7,
        "hull-group-structure",
        ok,
        mismatches[:1]
        or f"Smith invariants give hull_report's factors over C2, C3, C4, C2+C2, C9 "
        f"on {len(corpus)} instances; B3/C4=32, B3/C2=4, loop/C4=4",
    )


def test_certified_invariants_are_the_smith_invariants():
    """hull --verify reads the invariant factors off certified bases; on
    the small corpus and on graphs that are not 3-edge-connected they are
    those of the Smith form of every enumerated cycle, and so are their
    spans over the groups of criterion 7."""
    groups = [(2,), (3,), (4,), (2, 2), (9,)]
    corpus = _small_corpus() + [C3, TRI_PENDANT, P2, SUBDIVIDED_WITH_PENDANTS]
    mismatches = []
    for index, G in enumerate(corpus):
        expected = smith_invariants(indicator_matrix(G, enumerate_cycles(G)))
        certified = _certified_invariants(cosimplify(G))
        if certified is None or sorted(certified) != expected:
            mismatches.append((index, certified, expected))
            continue
        for factors in groups:
            A = AbelianGroupSpec(factors)
            spans = [q // gcd(d, q) for d in expected for q in factors]
            if span_group(certified, A) != AbelianGroupSpec(tuple(q for q in spans if q > 1)):
                mismatches.append((index, factors))
    assert not mismatches, mismatches[:3]


def test_criterion_8_membership_characterization():
    rng = random.Random(12345)
    fixtures = [K4, B3, C3, P2, LOOP, TRI_PENDANT, TWO_LOOPS]
    ok = True
    total = 0
    for G in fixtures:
        assert G.m <= 10
        cycles = enumerate_cycles(G)
        M = indicator_matrix(G, cycles)
        order = list(G.sorted_edges)
        for _ in range(1000):
            coords = {e: rng.randint(-3, 3) for e in order}
            direct = bool(is_lattice_member(G, coords))
            via_hnf = hnf_contains(M, [coords[e] for e in order])
            if direct != via_hnf:
                ok = False
                break
            total += 1
        if not ok:
            break
    _report(
        8,
        "membership-characterization",
        ok,
        f"{total} random vectors across {len(fixtures)} fixtures agree with HNF span",
    )


def test_criterion_9_complexity_smoke():
    G = gen(steps=2001, seed=42, max_vertices=1000)
    assert G.n == 1000 and G.m == 3000
    start = time.time()
    basis, _ = semi_fundamental_basis(G)
    semi_elapsed = time.time() - start
    start = time.time()
    chain = compatible_chain(G, keep_prefixes=False)
    topo_elapsed = time.time() - start
    start = time.time()
    semi_cert = certify(G, basis.vectors(), tree=basis.tree.tree_edges)
    semi_cert_elapsed = time.time() - start
    start = time.time()
    topo_cert = certify(G, chain.final_basis.vectors(), sequences=[chain.sequence])
    topo_cert_elapsed = time.time() - start
    start = time.time()
    # without the sequence, certify builds it once the residual passes the cap
    unhinted = certify_cycle_basis(G, chain.final_basis)
    unhinted_elapsed = time.time() - start
    expected = 2 ** (G.n - 1)
    ok = (
        len(basis.cycles) == G.m
        and len(chain.final_basis.cycles) == G.m
        and semi_cert.certified
        and semi_cert.determinant == expected
        and topo_cert.certified
        and topo_cert.determinant == expected
        and unhinted == (expected, True)
        and semi_elapsed + topo_elapsed + semi_cert_elapsed + topo_cert_elapsed < 30.0
    )
    mn = G.m * G.n
    _report(
        9,
        "complexity-smoke",
        ok,
        f"n={G.n} m={G.m}: semi-fundamental {semi_elapsed:.2f}s "
        f"({semi_elapsed / mn * 1e6:.3f}us per m*n unit), "
        f"topological {topo_elapsed:.2f}s ({topo_elapsed / mn * 1e6:.3f}us per m*n unit), "
        f"sequence length {len(chain.sequence.steps)}; both certified |det|=2^(n-1) "
        f"({semi_cert.components[0].kind} {semi_cert_elapsed:.2f}s, "
        f"{topo_cert.components[0].kind} {topo_cert_elapsed:.2f}s, "
        f"without the sequence {unhinted_elapsed:.2f}s); total < 30s",
    )
