"""Command-line surface: analyze, basis, verify, extend, hull, gen.

Exit codes: 0 ok, 1 usage, 2 input-structure problem or an instance past
a capacity limit, 3 verification failure, 4 internal error (a broken
invariant of the library).  Determinants and group orders are serialized
as decimal strings so arbitrary precision survives JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from .certificate import certify
from .cycle_structure import bridges_and_series_classes, cosimplify, is_simple_cycle
from .errors import (
    ArgumentError,
    CapacityError,
    CycleLatticeError,
    InternalError,
    ParseError,
    PreconditionError,
    StructureError,
)
from .lattice_basis import (
    Provenance,
    _semi_fundamental_3ec,
    _simple_3ec,
    indicator_matrix,
    per_component,
    require_three_edge_connected,
    spanning_forest,
)
from .linear_hull import AbelianGroupSpec, FieldSpec, hull_report
from .multigraph import (
    Multigraph,
    SpanningForest,
    connected_components,
    forest_from_edges,
    format_edge_list,
    parse_edge_list,
)
from .oracle import (
    IntegerMatrix,
    check_group_span_cap,
    decimal,
    enumerate_cycles,
    group_span_size,
    hermite_normal_form,
    hnf_lattices_equal,
    rank_mod_p,
)
from .topo_extension import _chain_3ec, gen

HNF_ORACLE_EDGE_LIMIT = 14


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cyclelattice")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="bridges, series classes, connectivity")
    p.add_argument("input")
    p.add_argument("--output", choices=["json", "text"], default="json")

    p = sub.add_parser("basis", help="construct a lattice cycle basis")
    p.add_argument("input")
    p.add_argument(
        "--method",
        choices=["simple", "semi-fundamental", "topological"],
        default="semi-fundamental",
    )
    p.add_argument("--tree-seed", default=None, help="preferred spanning-tree root")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--output", choices=["json", "text"], default="json")

    p = sub.add_parser("verify", help="check a candidate basis document")
    p.add_argument("input")
    p.add_argument("basis")
    p.add_argument("--output", choices=["json", "text"], default="json")

    p = sub.add_parser("extend", help="extension sequence and compatible chain")
    p.add_argument("input")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--output", choices=["json", "text"], default="json")

    p = sub.add_parser("hull", help="linear hull dimensions / group structure")
    p.add_argument("input")
    p.add_argument("--char", type=int, default=None)
    p.add_argument("--group", default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--output", choices=["json", "text"], default="json")

    p = sub.add_parser("gen", help="random 3-edge-connected instances")
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--max-vertices", type=int, default=None)
    p.add_argument("--output", choices=["json", "text"], default="text")
    return parser


def _emit(doc: dict, args: argparse.Namespace):
    if args.output == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in _as_text(doc):
            print(line)


def _as_text(doc: dict, prefix: str = ""):
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            yield f"{prefix}{key}:"
            yield from _as_text(value, prefix + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            yield f"{prefix}{key}: ({len(value)} entries)"
            for item in value:
                if isinstance(item, dict):
                    yield from _as_text(item, prefix + "  ")
                else:
                    yield f"{prefix}  {item}"
        else:
            yield f"{prefix}{key}: {value}"


def _load_graph(path: str) -> Multigraph:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"graph file is not valid UTF-8: {exc}") from None
    return parse_edge_list(text)


def _resolve_vertex(G: Multigraph, token: str) -> int:
    if G.labels:
        for v, label in G.labels.items():
            if label == token:
                return v
    try:
        v = int(token)
    except ValueError:
        raise ArgumentError(f"unknown vertex token {token!r}") from None
    if v not in set(G.vertices):
        raise ArgumentError(f"unknown vertex {token!r}")
    return v


def _load_connected(path: str) -> tuple[Multigraph, SpanningForest]:
    """The graph and its spanning tree; StructureError when it is disconnected."""
    G = _load_graph(path)
    T = spanning_forest(G)
    if len(T.component_roots) > 1:
        comps = connected_components(G)
        listing = "; ".join(
            "{" + ",".join(G.label_of(v) for v in vs) + "}" for vs, _ in comps
        )
        raise StructureError(f"graph is disconnected: components {listing}")
    return G, T


# ---------------------------------------------------------------------------
# basis construction and certification shared by basis/verify/extend
# ---------------------------------------------------------------------------


def _entry(edges, tag: Provenance) -> dict:
    """A document entry; a doubled edge set carries multiplier 2."""
    entry = {"edges": sorted(edges), "provenance": tag.label()}
    if tag.kind == "doubled":
        entry["multiplier"] = 2
    return entry


def _entry_vector(entry: dict) -> dict[int, int]:
    mult = entry.get("multiplier", 1)
    return {e: mult for e in entry["edges"]}


def _hnf_oracle(G: Multigraph, vectors: list[dict[int, int]]) -> bool:
    """Do the vectors generate the lattice of all cycles?  Exact, by
    enumerating every cycle, so only for G.m <= HNF_ORACLE_EDGE_LIMIT."""
    A = indicator_matrix(G, enumerate_cycles(G))
    B = IntegerMatrix.from_vectors(vectors, list(G.sorted_edges))
    return hnf_lattices_equal(A, B)


def _chain_on(H: Multigraph, _T_H):
    chain = _chain_3ec(H, keep_prefixes=False)
    return chain.final_basis, chain


# per method, the construction per_component runs on each component
_CONSTRUCTIONS = {
    "semi-fundamental": _semi_fundamental_3ec,
    "simple": lambda H, T_H: (_simple_3ec(H, T_H), None),
    "topological": _chain_on,
}


def cmd_basis(args: argparse.Namespace) -> int:
    G, T = _load_connected(args.input)
    if args.tree_seed:
        T = spanning_forest(G, prefer_root=_resolve_vertex(G, args.tree_seed))
    cos = cosimplify(G, forest=T)
    built, extras = per_component(cos, _CONSTRUCTIONS[args.method])
    entries = [_entry(edges, tag) for edges, tag in built]
    vectors = [_entry_vector(entry) for entry in entries]
    chains = extras if args.method == "topological" else None
    cert = certify(G, vectors, tree=cos, chain=chains)
    certified = cert.certified
    doc = {
        "graph": format_edge_list(G),
        "tree": sorted(T.tree_edges),
        "cycles": entries,
        "determinant": decimal(cert.determinant),
        "certified": certified,
    }
    if args.verify and G.m <= HNF_ORACLE_EDGE_LIMIT:
        doc["hnf_equal"] = _hnf_oracle(G, vectors)
        certified = certified and doc["hnf_equal"]
        doc["certified"] = certified
    _emit(doc, args)
    if args.verify and not certified:
        return 3
    return 0


def _load_document(path: str) -> dict:
    """A basis document: a JSON object with a list of entries under "cycles"."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:
            raise ParseError(f"basis document is not valid JSON: {exc}") from None
        except RecursionError:
            raise ParseError("basis document is nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ParseError("basis document is not a JSON object")
    if not isinstance(doc.get("cycles"), list):
        raise ParseError('basis document has no "cycles" list')
    return doc


def _entry_problem(G: Multigraph, idx: int, entry) -> str | None:
    """Why a document entry is neither a cycle nor a doubled edge set, or None."""
    if not isinstance(entry, dict):
        return f"entry {idx} is not an object"
    edges = entry.get("edges")
    if not isinstance(edges, list) or any(type(e) is not int for e in edges):
        return f"entry {idx} has no list of integer edge ids"
    mult = entry.get("multiplier", 1)
    if type(mult) is not int or mult not in (1, 2):
        return f"entry {idx} has unsupported multiplier {mult!r}"
    if len(set(edges)) != len(edges):
        return f"entry {idx} repeats an edge id"
    unknown = [e for e in edges if e not in G.edges]
    if unknown:
        return f"entry {idx} names unknown edge {unknown[0]}"
    if mult == 2:
        return None if edges else f"entry {idx} doubles no edge"
    return None if is_simple_cycle(G, set(edges)) else f"entry {idx} is not a cycle"


def cmd_verify(args: argparse.Namespace) -> int:
    G, T = _load_connected(args.input)
    candidate = _load_document(args.basis)
    entries = candidate["cycles"]
    checks = []

    def check(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
        return passed

    problem = next(
        (p for p in (_entry_problem(G, i, e) for i, e in enumerate(entries)) if p), None
    )
    if problem:
        check("entries-are-cycles", False, problem)
        _emit({"accepted": False, "checks": checks}, args)
        return 3
    check("entries-are-cycles", True, f"{len(entries)} entries")

    vectors = [_entry_vector(entry) for entry in entries]
    tree = candidate.get("tree")
    if isinstance(tree, list) and all(type(e) is int for e in tree):
        T = forest_from_edges(G, tree) or T
    cos = cosimplify(G, forest=T)
    try:
        cert = certify(G, vectors, tree=cos)
    except CapacityError:
        # a topological basis leaves a large residual on every tree; the
        # chains that build it certify it, when the document is one
        try:
            cert = certify(G, vectors, tree=cos, chain=per_component(cos, _chain_on)[1])
        except CapacityError as exc:
            check("determinant", False, str(exc))
            _emit({"accepted": False, "checks": checks}, args)
            return 3
    if not cert.in_cycle_space:
        check("rational-cycle-space", False, "entry violates bridge/series structure")
        accepted = False
    else:
        count_ok = check(
            "cardinality",
            len(entries) == cert.size,
            f"{len(entries)} entries, expected {cert.size}",
        )
        check(
            "determinant",
            cert.certified,
            "; ".join(
                f"|det|={decimal(c.determinant)} expected {decimal(c.expected)}"
                for c in cert.components
            )
            or "no components",
        )
        hnf_ok = True
        if G.m <= HNF_ORACLE_EDGE_LIMIT:
            hnf_ok = check("hnf-lattice-equality", _hnf_oracle(G, vectors), "exact")
        accepted = bool(count_ok and cert.certified and hnf_ok)
    doc = {"accepted": accepted, "checks": checks}
    _emit(doc, args)
    return 0 if accepted else 3


def cmd_analyze(args: argparse.Namespace) -> int:
    G = _load_graph(args.input)
    cos = cosimplify(G)
    partition, hat = cos.partition, cos.hat_graph
    hat_partition = partition if cos.identity else bridges_and_series_classes(hat, cos.hat_tree)
    doc = {
        "n": G.n,
        "m": G.m,
        "connected": len(cos.forest.component_roots) <= 1,
        "three_edge_connected": cos.three_edge_connected,
        "bridges": sorted(partition.bridges),
        "nontrivial_series_classes": sorted(
            [sorted(cls) for cls in partition.nontrivial_classes]
        ),
        "series_class_count": len(partition.classes),
        "cosimplification": {
            "n": hat.n,
            "m": hat.m,
            "components": len(cos.hat_tree.component_roots),
            "components_three_edge_connected": not (
                hat_partition.bridges or hat_partition.nontrivial_classes
            ),
        },
    }
    _emit(doc, args)
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    G, T = _load_connected(args.input)
    cos = cosimplify(G, forest=T)
    require_three_edge_connected(cos)
    chain = _chain_3ec(G, keep_prefixes=True)
    cert = certify(G, chain.final_basis.vectors(), tree=cos, chain=chain)
    certified = cert.certified
    doc = {
        "sequence": chain.sequence.to_json(),
        "chain": {
            "bases": [[sorted(c) for c in basis.cycles] for basis in chain.bases],
            "final_basis": [_entry(c, tag) for c, tag in chain.final_basis.entries()],
            "determinant": decimal(cert.determinant),
            "certified": certified,
        },
    }
    if args.verify:
        # the chain path certifies every prefix by induction over the steps
        certified = certified and all(c.kind == "chain" for c in cert.components)
        doc["chain"]["prefixes_certified"] = certified
        doc["chain"]["certified"] = certified
    del chain  # the prefix graphs and bases are not needed while printing
    _emit(doc, args)
    if args.verify and not certified:
        return 3
    return 0


def cmd_hull(args: argparse.Namespace) -> int:
    G, T = _load_connected(args.input)
    if (args.char is None) == (args.group is None):
        raise ArgumentError("hull needs exactly one of --char or --group")
    K = FieldSpec(args.char) if args.char is not None else None
    A = AbelianGroupSpec.parse(args.group) if args.group is not None else None
    doc = hull_report(cosimplify(G, forest=T), K, A)
    verified = False
    if args.verify:
        # both oracles enumerate every cycle; each checks its limit first
        # and raises CapacityError rather than report a failed verification
        if K is not None:
            if G.m > HNF_ORACLE_EDGE_LIMIT:
                raise CapacityError(
                    "hull --verify over a field enumerates cycles only up to "
                    f"{HNF_ORACLE_EDGE_LIMIT} edges; the graph has {G.m}"
                )
            M = indicator_matrix(G, enumerate_cycles(G))
            if K.characteristic == 0:
                rank = hermite_normal_form(M).cols
            else:
                rank = rank_mod_p(M, K.characteristic)
            verified = rank == doc["dimension"]
        else:
            check_group_span_cap(list(A.cyclic_factors), G.m)
            size = group_span_size(
                [{e: 1 for e in c} for c in enumerate_cycles(G)],
                list(A.cyclic_factors),
                list(G.sorted_edges),
            )
            verified = decimal(size) == doc["order"]
    doc["verified"] = verified
    _emit(doc, args)
    if args.verify and not verified:
        return 3
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    graphs = []
    for index in range(args.count):
        derived_seed = args.seed * 1_000_003 + index
        graphs.append(
            gen(args.steps, derived_seed, max_vertices=args.max_vertices)
        )
    if args.output == "json":
        _emit({"graphs": [format_edge_list(G) for G in graphs]}, args)
    else:
        for index, G in enumerate(graphs):
            print(f"# graph {index} (seed {args.seed}, steps {args.steps})")
            sys.stdout.write(format_edge_list(G))
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "basis": cmd_basis,
    "verify": cmd_verify,
    "extend": cmd_extend,
    "hull": cmd_hull,
    "gen": cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ParseError, StructureError, PreconditionError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CycleLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
