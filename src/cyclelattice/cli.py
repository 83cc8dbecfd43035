"""Command-line surface: analyze, basis, verify, extend, hull, gen.

Exit codes: 0 ok, 1 usage, 2 input-structure problem, 3 verification
failure.  Determinants are serialized as decimal strings so arbitrary
precision survives JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .certificate import certify
from .cycle_structure import (
    bridges_and_series_classes,
    cosimplify,
    is_simple_cycle,
    is_three_edge_connected,
)
from .errors import (
    ArgumentError,
    CapacityError,
    CycleLatticeError,
    ParseError,
    PreconditionError,
    StructureError,
)
from .lattice_basis import (
    CycleBasis,
    Provenance,
    indicator_matrix,
    lift_basis,
    semi_fundamental_basis,
    simple_basis,
    spanning_forest,
)
from .linear_hull import AbelianGroupSpec, FieldSpec, hull_report
from .multigraph import (
    Multigraph,
    component_subgraphs,
    connected_components,
    forest_from_edges,
    format_edge_list,
    is_connected,
    parse_edge_list,
)
from .oracle import (
    IntegerMatrix,
    enumerate_cycles,
    group_span_size,
    hermite_normal_form,
    hnf_lattices_equal,
    rank_mod_p,
)
from .topo_extension import compatible_chain, gen

HNF_ORACLE_EDGE_LIMIT = 14


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; method applies to `basis`, seed to `gen`."""

    command: str
    input_path: str | None = None
    basis_path: str | None = None
    method: str = "semi-fundamental"
    characteristic: int | None = None
    group: str | None = None
    steps: int = 8
    seed: int = 0
    count: int = 1
    max_vertices: int | None = None
    tree_seed: str | None = None
    output: str = "json"
    verify_flag: bool = False


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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        basis_path=getattr(args, "basis", None),
        method=getattr(args, "method", "semi-fundamental"),
        characteristic=getattr(args, "char", None),
        group=getattr(args, "group", None),
        steps=getattr(args, "steps", 8),
        seed=getattr(args, "seed", 0),
        count=getattr(args, "count", 1),
        max_vertices=getattr(args, "max_vertices", None),
        tree_seed=getattr(args, "tree_seed", None),
        output=getattr(args, "output", "json"),
        verify_flag=getattr(args, "verify", False),
    )


def _emit(doc: dict, config: RunConfig):
    if config.output == "json":
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
        return parse_edge_list(handle.read())


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


def _require_connected(G: Multigraph):
    if not is_connected(G):
        comps = connected_components(G)
        listing = "; ".join(
            "{" + ",".join(G.label_of(v) for v in vs) + "}" for vs, _ in comps
        )
        raise StructureError(f"graph is disconnected: components {listing}")


# ---------------------------------------------------------------------------
# basis construction and certification shared by basis/verify/extend
# ---------------------------------------------------------------------------


def _vector_entries_of_basis(basis: CycleBasis) -> list[dict]:
    return [
        {"edges": sorted(cycle), "provenance": tag.label()}
        for cycle, tag in zip(basis.cycles, basis.provenance)
    ]


def _entry_vector(entry: dict) -> dict[int, int]:
    mult = entry.get("multiplier", 1)
    return {e: mult for e in entry["edges"]}


def _build_basis(G: Multigraph, T, method: str) -> tuple[list[dict], object]:
    """Entries for the JSON document, built on the spanning forest T.

    The second value is the certification hint for `certify`: the chain, or
    one chain per component, of a topological basis; otherwise None.
    """
    if method == "simple":
        if is_three_edge_connected(G):
            sb = simple_basis(G, T)
            entries = [
                {"edges": [t], "provenance": Provenance("doubled", t=t).label(), "multiplier": 2}
                for t in sb.doubled_part
            ]
            entries.extend(
                {"edges": sorted(cyc), "provenance": Provenance("fundamental", e=e).label()}
                for e, cyc in sb.cycle_part
            )
            return entries, None
        cos = cosimplify(G, forest=T)
        comps = component_subgraphs(cos.hat_graph)
        entries = []
        for comp in comps:
            comp_T = spanning_forest(comp)
            sb = simple_basis(comp, comp_T)
            for t in sb.doubled_part:
                entries.append(
                    {
                        "edges": sorted(cos.section[t]),
                        "provenance": Provenance("doubled", t=t).label(),
                        "multiplier": 2,
                    }
                )
            for e, cyc in sb.cycle_part:
                entries.append(
                    {
                        "edges": sorted(cos.lift_edges(cyc)),
                        "provenance": "lifted",
                    }
                )
        return entries, None
    if method == "semi-fundamental":
        basis, _triples = semi_fundamental_basis(G, T)
        return _vector_entries_of_basis(basis), None
    # topological
    if is_three_edge_connected(G):
        chain = compatible_chain(G, keep_prefixes=False)
        return _vector_entries_of_basis(chain.final_basis), chain
    cos = cosimplify(G, forest=T)
    comps = component_subgraphs(cos.hat_graph)
    chains = [compatible_chain(comp, keep_prefixes=False) for comp in comps]
    basis = lift_basis(cos, [chain.final_basis for chain in chains])
    return _vector_entries_of_basis(basis), chains


def cmd_basis(config: RunConfig) -> int:
    G = _load_graph(config.input_path)
    _require_connected(G)
    root = _resolve_vertex(G, config.tree_seed) if config.tree_seed else None
    T = spanning_forest(G, prefer_root=root)
    entries, chains = _build_basis(G, T, config.method)
    vectors = [_entry_vector(entry) for entry in entries]
    cert = certify(G, vectors, tree=T, chain=chains)
    certified = cert.certified
    doc = {
        "graph": format_edge_list(G),
        "tree": sorted(T.tree_edges),
        "cycles": entries,
        "determinant": str(cert.determinant),
        "certified": certified,
    }
    if config.verify_flag and G.m <= HNF_ORACLE_EDGE_LIMIT:
        all_cycles = enumerate_cycles(G)
        A = indicator_matrix(G, all_cycles)
        B = IntegerMatrix.from_vectors(vectors, list(G.sorted_edges))
        doc["hnf_equal"] = hnf_lattices_equal(A, B)
        certified = certified and doc["hnf_equal"]
        doc["certified"] = certified
    _emit(doc, config)
    if config.verify_flag and not certified:
        return 3
    return 0


def _load_document(path: str) -> dict:
    """A basis document: a JSON object with a list of entries under "cycles"."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:
            raise ParseError(f"basis document is not valid JSON: {exc}") from None
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


def cmd_verify(config: RunConfig) -> int:
    G = _load_graph(config.input_path)
    _require_connected(G)
    candidate = _load_document(config.basis_path)
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
        _emit({"accepted": False, "checks": checks}, config)
        return 3
    check("entries-are-cycles", True, f"{len(entries)} entries")

    vectors = [_entry_vector(entry) for entry in entries]
    tree = candidate.get("tree")
    hint = None
    if isinstance(tree, list) and all(type(e) is int for e in tree):
        hint = forest_from_edges(G, tree)
    try:
        cert = certify(G, vectors, tree=hint)
    except CapacityError:
        # a topological basis leaves a large residual on every tree; the
        # chains that build it certify it, when the document is one
        T = hint or spanning_forest(G)
        cert = certify(G, vectors, tree=T, chain=_build_basis(G, T, "topological")[1])
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
            "; ".join(f"|det|={c.determinant} expected {c.expected}" for c in cert.components)
            or "no components",
        )
        hnf_ok = True
        if G.m <= HNF_ORACLE_EDGE_LIMIT:
            all_cycles = enumerate_cycles(G)
            A = indicator_matrix(G, all_cycles)
            B = IntegerMatrix.from_vectors(vectors, list(G.sorted_edges))
            hnf_ok = check("hnf-lattice-equality", hnf_lattices_equal(A, B), "exact")
        accepted = bool(count_ok and cert.certified and hnf_ok)
    doc = {"accepted": accepted, "checks": checks}
    _emit(doc, config)
    return 0 if accepted else 3


def cmd_analyze(config: RunConfig) -> int:
    G = _load_graph(config.input_path)
    partition = bridges_and_series_classes(G)
    cos = cosimplify(G)
    comps = component_subgraphs(cos.hat_graph)
    doc = {
        "n": G.n,
        "m": G.m,
        "connected": is_connected(G),
        "three_edge_connected": is_three_edge_connected(G),
        "bridges": sorted(partition.bridges),
        "nontrivial_series_classes": sorted(
            [sorted(cls) for cls in partition.nontrivial_classes]
        ),
        "series_class_count": len(partition.classes),
        "cosimplification": {
            "n": cos.hat_graph.n,
            "m": cos.hat_graph.m,
            "components": len(comps),
            "components_three_edge_connected": all(
                is_three_edge_connected(c) for c in comps
            ),
        },
    }
    _emit(doc, config)
    return 0


def cmd_extend(config: RunConfig) -> int:
    G = _load_graph(config.input_path)
    _require_connected(G)
    chain = compatible_chain(G, keep_prefixes=True)
    seq = chain.sequence
    prefix_docs = []
    for basis in chain.bases:
        prefix_docs.append([sorted(c) for c in basis.cycles])
    cert = certify(G, chain.final_basis.vectors(), tree=chain.tree, chain=chain)
    certified = cert.certified
    doc = {
        "sequence": seq.to_json(),
        "chain": {
            "bases": prefix_docs,
            "final_basis": _vector_entries_of_basis(chain.final_basis),
            "determinant": str(cert.determinant),
            "certified": certified,
        },
    }
    if config.verify_flag:
        # the chain path certifies every prefix by induction over the steps
        certified = certified and all(c.kind == "chain" for c in cert.components)
        doc["chain"]["prefixes_certified"] = certified
        doc["chain"]["certified"] = certified
    del chain  # the prefix graphs and bases are not needed while printing
    _emit(doc, config)
    if config.verify_flag and not certified:
        return 3
    return 0


def cmd_hull(config: RunConfig) -> int:
    G = _load_graph(config.input_path)
    _require_connected(G)
    if (config.characteristic is None) == (config.group is None):
        raise ArgumentError("hull needs exactly one of --char or --group")
    K = FieldSpec(config.characteristic) if config.characteristic is not None else None
    A = AbelianGroupSpec.parse(config.group) if config.group is not None else None
    doc = hull_report(G, K, A)
    verified = False
    if config.verify_flag:
        if K is not None and G.m <= HNF_ORACLE_EDGE_LIMIT:
            all_cycles = enumerate_cycles(G)
            M = indicator_matrix(G, all_cycles)
            if K.characteristic == 0:
                rank = hermite_normal_form(M).cols
            else:
                rank = rank_mod_p(M, K.characteristic)
            verified = rank == doc["dimension"]
        elif A is not None:
            try:
                all_cycles = enumerate_cycles(G)
                size = group_span_size(
                    [{e: 1 for e in c} for c in all_cycles],
                    list(A.cyclic_factors),
                    list(G.sorted_edges),
                )
                verified = str(size) == doc["order"]
            except CapacityError:
                verified = False
    doc["verified"] = verified
    _emit(doc, config)
    if config.verify_flag and not verified:
        return 3
    return 0


def cmd_gen(config: RunConfig) -> int:
    graphs = []
    for index in range(config.count):
        derived_seed = config.seed * 1_000_003 + index
        graphs.append(
            gen(config.steps, derived_seed, max_vertices=config.max_vertices)
        )
    if config.output == "json":
        print(
            json.dumps(
                {"graphs": [format_edge_list(G) for G in graphs]},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for index, G in enumerate(graphs):
            print(f"# graph {index} (seed {config.seed}, steps {config.steps})")
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
    config = _config_from_args(args)
    try:
        return _COMMANDS[config.command](config)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, StructureError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CycleLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
