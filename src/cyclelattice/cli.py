"""Command-line surface: analyze, basis, verify, extend, hull, gen.

Exit codes: 0 ok, 1 usage, 2 input-structure problem, an instance past a
capacity limit or no memory left, 3 verification failure, 4 internal error
(a broken invariant of the library).  JSON output is one compact line with
sorted keys and `"format": 2` (DOCUMENT_FORMAT).  Determinants and group
orders are serialized as decimal strings so arbitrary precision survives
JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from .certificate import _certify_vectors, certify_components
from .cycle_structure import (
    Cosimplification,
    cosimplify,
    identity_cosimplification,
    is_simple_cycle,
)
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
    build_per_component,
    matches_all_cycles_lattice,
    per_component,
)
from .linear_hull import AbelianGroupSpec, FieldSpec, hull_report, span_dimension, span_group
from .multigraph import (
    Multigraph,
    SpanningForest,
    collector_paused,
    forest_from_edges,
    format_edge_list,
    parse_edge_list,
    spanning_forest,
    tree_parts,
)
from .oracle import decimal
from .topo_extension import ExtensionSequence, _chain_3ec, compatible_chain, gen

HNF_ORACLE_EDGE_LIMIT = 14
# Version of the JSON documents; format 1 had no "format" key (see README).
DOCUMENT_FORMAT = 2


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
        doc = {**doc, "format": DOCUMENT_FORMAT}
        print(json.dumps(doc, separators=(",", ":"), sort_keys=True))
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
    """The vertex a token names, as parse_edge_list names them: by its label
    on a labeled graph, by int(token) on a numeric one."""
    if G.labels:
        v = next((v for v, label in G.labels.items() if label == token), None)
    else:
        try:
            v = int(token)
        except ValueError:
            v = None
    if v not in G.vertices:
        raise ArgumentError(f"unknown vertex {token!r}")
    return v


def _load_connected(path: str) -> tuple[Multigraph, SpanningForest]:
    """The graph and its spanning tree; StructureError when it is disconnected."""
    G = _load_graph(path)
    T = spanning_forest(G)
    if len(T.component_roots) > 1:
        parts = tree_parts(G, T.parents)
        listing = "; ".join("{" + ",".join(map(G.label_of, vs)) + "}" for vs, _, _ in parts)
        raise StructureError(f"graph is disconnected: components {listing}")
    return G, T


# ---------------------------------------------------------------------------
# basis construction and certification shared by basis/verify/extend
# ---------------------------------------------------------------------------


def _entry(edges, tag: Provenance) -> dict:
    """A document entry; one whose multiplier is not 1 (a doubled edge set)
    carries it."""
    entry = {"edges": sorted(edges), "provenance": tag.label()}
    if tag.multiplier != 1:
        entry["multiplier"] = tag.multiplier
    return entry


# per method, the construction per_component runs on each component
_CONSTRUCTIONS = {
    "semi-fundamental": _semi_fundamental_3ec,
    "simple": _simple_3ec,
    "topological": lambda H, _T_H: _chain_3ec(H, keep_prefixes=False).final_basis,
}


def cmd_basis(args: argparse.Namespace) -> tuple[dict, bool]:
    G, T = _load_connected(args.input)
    if args.tree_seed is not None:
        T = spanning_forest(G, prefer_root=_resolve_vertex(G, args.tree_seed))
    construct = _CONSTRUCTIONS[args.method]
    if args.method == "simple":  # it completes on any graph, so it proves nothing
        cos = cosimplify(G, forest=T)
        built, bases = per_component(cos, construct)
    else:
        cos, built, bases = build_per_component(G, T, construct)
    entries = [_entry(edges, tag) for edges, tag in built]
    cert = certify_components(cos, bases)
    doc = {
        "graph": format_edge_list(G),
        "tree": sorted(T.tree_edges),
        "cycles": entries,
        "determinant": decimal(cert.determinant),
        "certified": cert.certified,
    }
    if args.method == "topological":
        doc["sequences"] = [basis.sequence.to_json() for basis in bases]
    if args.verify and G.m <= HNF_ORACLE_EDGE_LIMIT:
        vectors = [dict.fromkeys(e["edges"], e.get("multiplier", 1)) for e in entries]
        doc["hnf_equal"] = matches_all_cycles_lattice(G, vectors)
        doc["certified"] = cert.certified and doc["hnf_equal"]
    return doc, doc["certified"] or not args.verify


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


def _document_sequences(doc: dict) -> list[ExtensionSequence]:
    """The extension sequences under "sequences" that parse.  They are only
    hints to certify, so a malformed one is dropped, never an error."""
    value = doc.get("sequences")
    sequences = []
    for entry in value if isinstance(value, list) else ():
        try:
            sequences.append(ExtensionSequence.from_json(entry))
        except ArgumentError:
            continue
    return sequences


def _entry_image(cos: Cosimplification, idx: int, entry) -> tuple[str | None, dict | None]:
    """Why a document entry is neither a cycle nor a doubled edge set of
    cos.parent, or None; and its vector's image under cos.project.

    A cycle with an image on a reduction other than the identity is checked
    on its series classes, any other on its edges.
    """
    if not isinstance(entry, dict):
        return f"entry {idx} is not an object", None
    edges = entry.get("edges")
    if not isinstance(edges, list) or any(type(e) is not int for e in edges):
        return f"entry {idx} has no list of integer edge ids", None
    mult = entry.get("multiplier", 1)
    if type(mult) is not int or mult not in (1, 2):
        return f"entry {idx} has unsupported multiplier {mult!r}", None
    vector = dict.fromkeys(edges, mult)
    if len(vector) != len(edges):
        return f"entry {idx} repeats an edge id", None
    if not vector.keys() <= cos.parent.edges.keys():
        unknown = next(e for e in edges if e not in cos.parent.edges)
        return f"entry {idx} names unknown edge {unknown}", None
    image = cos.project(vector)
    if mult == 2:
        return None if edges else f"entry {idx} doubles no edge", image
    if image is None or cos.identity:
        cycle = is_simple_cycle(cos.parent, vector.keys())
    else:
        cycle = cos.classes_form_cycle(image)
    return None if cycle else f"entry {idx} is not a cycle", image


def _document_forest(G: Multigraph, T: SpanningForest, tree) -> SpanningForest:
    """The forest verify certifies on: the document's tree when it is a list
    of integer ids that forms a spanning forest of G, else T, the forest G
    was loaded with.  A tree of T's own edges is T, checked no second time."""
    if not (isinstance(tree, list) and all(type(e) is int for e in tree)):
        return T
    if T.tree_edges == set(tree):
        return T
    return forest_from_edges(G, tree) or T


def cmd_verify(args: argparse.Namespace) -> tuple[dict, bool]:
    G, T = _load_connected(args.input)
    candidate = _load_document(args.basis)
    cos = cosimplify(G, forest=_document_forest(G, T, candidate.get("tree")))
    checks = [
        {"name": name, "passed": passed, "detail": detail}
        for name, passed, detail in _verify_checks(cos, candidate)
    ]
    accepted = all(c["passed"] for c in checks)
    return {"accepted": accepted, "checks": checks}, accepted


def _verify_checks(cos: Cosimplification, candidate: dict):
    """verify's checks of a document on one cosimplification of its graph,
    as (name, passed, detail), up to the first failure that leaves nothing
    for the later checks to judge."""
    G = cos.parent
    entries = candidate["cycles"]
    images = []
    for idx, entry in enumerate(entries):
        problem, image = _entry_image(cos, idx, entry)
        if problem:
            yield "entries-are-cycles", False, problem
            return
        images.append(image)
    yield "entries-are-cycles", True, f"{len(entries)} entries"
    try:
        cert = _certify_vectors(cos, images, _document_sequences(candidate))
    except CapacityError as exc:
        yield "determinant", False, str(exc)
        return
    if not cert.in_cycle_space:
        yield "rational-cycle-space", False, "entry violates bridge/series structure"
        return
    yield "cardinality", len(entries) == cert.size, f"{len(entries)} entries, expected {cert.size}"
    details = [
        f"|det|={decimal(c.determinant)} expected {decimal(c.expected)}"
        for c in cert.components
    ]
    if cert.straddling:
        lies = "entry lies" if cert.straddling == 1 else "entries lie"
        details.append(f"{cert.straddling} {lies} in no single component")
    yield "determinant", cert.certified, "; ".join(details) or "no components"
    if G.m <= HNF_ORACLE_EDGE_LIMIT:
        vectors = [dict.fromkeys(e["edges"], e.get("multiplier", 1)) for e in entries]
        yield "hnf-lattice-equality", matches_all_cycles_lattice(G, vectors), "exact"


def cmd_analyze(args: argparse.Namespace) -> tuple[dict, bool]:
    G = _load_graph(args.input)
    cos = cosimplify(G)
    partition, hat = cos.partition, cos.hat_graph
    # every edge not a bridge is a class, less |c| - 1 for each nontrivial class c
    merged = sum(len(cls) - 1 for cls in partition.nontrivial_classes)
    doc = {
        "n": G.n,
        "m": G.m,
        "connected": len(cos.forest.component_roots) <= 1,
        "three_edge_connected": cos.three_edge_connected,
        "bridges": sorted(partition.bridges),
        "nontrivial_series_classes": sorted(
            [sorted(cls) for cls in partition.nontrivial_classes]
        ),
        "series_class_count": G.m - len(partition.bridges) - merged,
        "cosimplification": {
            "n": hat.n,
            "m": hat.m,
            "components": cos.hat_component_count,
            # by construction: a cut of hat of one or two edges would be one of
            # G, but G's bridges are deleted and a series class keeps one edge
            "components_three_edge_connected": True,
        },
    }
    return doc, True


def cmd_extend(args: argparse.Namespace) -> tuple[dict, bool]:
    G, T = _load_connected(args.input)
    chain = compatible_chain(G)
    cos = identity_cosimplification(G, T)
    cert = certify_components(cos, [chain.final_basis] if cos.components else [])
    doc = {
        "sequence": chain.sequence.to_json(),
        "chain": {
            # per grown graph, the cycles its step adds; see CompatibleChain.bases
            "bases": [[sorted(c) for c in cycles] for cycles in chain.added],
            "final_basis": [_entry(c, tag) for c, tag in chain.final_basis.entries()],
            "determinant": decimal(cert.determinant),
            "certified": cert.certified,
        },
    }
    if args.verify:
        # the chain path certifies every prefix by induction over the steps;
        # a graph without edges has none
        certified = cert.certified and all(c.kind == "chain" for c in cert.components if c.m)
        doc["chain"]["prefixes_certified"] = certified
        doc["chain"]["certified"] = certified
    return doc, doc["chain"]["certified"] or not args.verify


def _certified_invariants(cos: Cosimplification) -> list[int] | None:
    """The invariant factors of the cycle lattice of cos.parent, m-n+1 1s
    and n-1 2s per component, once a semi-fundamental basis per component
    certifies (else None).  Every cycle lies in L_T = {x : x_T = F x_N mod
    2}, of det 2^(n-1), so a basis of cycles of that |det| spans L_T; bridges
    carry no cycle and lifting along series classes is a primitive
    embedding, so the parent's factors are the components'."""
    cert = certify_components(cos, [_semi_fundamental_3ec(H, T_H) for H, T_H in cos.components])
    if not cert.certified:
        return None
    return [d for c in cert.components for d in [1] * (c.m - c.n + 1) + [2] * (c.n - 1)]


def cmd_hull(args: argparse.Namespace) -> tuple[dict, bool]:
    G, T = _load_connected(args.input)
    if (args.char is None) == (args.group is None):
        raise ArgumentError("hull needs exactly one of --char or --group")
    K = FieldSpec(args.char) if args.char is not None else None
    A = AbelianGroupSpec.parse(args.group) if args.group is not None else None
    cos = cosimplify(G, forest=T)
    doc = hull_report(cos, K, A)
    verified = False
    if args.verify and (invariants := _certified_invariants(cos)) is not None:
        if K is not None:
            verified = span_dimension(invariants, K) == doc["dimension"]
        else:
            verified = span_group(invariants, A).describe() == doc["factors"]
    doc["verified"] = verified
    return doc, verified or not args.verify


def cmd_gen(args: argparse.Namespace) -> tuple[dict | None, bool]:
    if args.count < 0:
        raise ArgumentError("count must be nonnegative")
    graphs = []
    for index in range(args.count):
        derived_seed = args.seed * 1_000_003 + index
        graphs.append(
            gen(args.steps, derived_seed, max_vertices=args.max_vertices)
        )
    if args.output == "json":
        return {"graphs": [format_edge_list(G) for G in graphs]}, True
    for index, G in enumerate(graphs):
        print(f"# graph {index} (seed {args.seed}, steps {args.steps})")
        sys.stdout.write(format_edge_list(G))
    return None, True


_COMMANDS = {
    "analyze": cmd_analyze,
    "basis": cmd_basis,
    "verify": cmd_verify,
    "extend": cmd_extend,
    "hull": cmd_hull,
    "gen": cmd_gen,
}
_PARSER = _build_parser()


@collector_paused
def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused for the command (see
    multigraph.collector_paused); the caller's collector state comes back
    on every exit.
    """
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        # a command returns its document (None when it printed its own) and
        # whether what it was asked to verify holds
        doc, ok = _COMMANDS[args.command](args)
        if doc is not None:
            _emit(doc, args)
        return 0 if ok else 3
    except (OSError, ParseError, StructureError, PreconditionError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CycleLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
