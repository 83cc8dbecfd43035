"""Cycle-lattice bases of undirected multigraphs, with exact verification."""

from .certificate import Certificate, ComponentCertificate, certify, certify_cycle_basis
from .cycle_structure import (
    Cosimplification,
    FundamentalCycleMatrix,
    SeriesPartition,
    bridges_and_series_classes,
    cosimplify,
    fundamental_cycle_matrix,
    is_simple_cycle,
    is_three_edge_connected,
    three_edge_connectivity_witness,
)
from .errors import (
    ArgumentError,
    CapacityError,
    CycleLatticeError,
    InternalError,
    MembershipError,
    ParseError,
    PreconditionError,
    StructureError,
)
from .lattice_basis import (
    CycleBasis,
    MembershipResult,
    Provenance,
    build_per_component,
    double_edge_combination,
    express_in_simple_basis,
    indicator_matrix,
    is_lattice_member,
    lattice_determinant,
    matches_all_cycles_lattice,
    per_component,
    semi_fundamental_basis,
    simple_basis,
)
from .linear_hull import (
    AbelianGroupSpec,
    FieldSpec,
    hull_basis_mod_p,
    hull_dimension,
    hull_group_structure,
)
from .multigraph import (
    Multigraph,
    SpanningForest,
    connected_components,
    edge_disjoint_paths,
    forest_from_edges,
    format_edge_list,
    parse_edge_list,
    spanning_forest,
    tree_diameter,
)
from .oracle import (
    IntegerMatrix,
    enumerate_cycles,
    exact_determinant,
    hermite_normal_form,
    hnf_contains,
    hnf_lattices_equal,
    rank_mod_p,
    smith_invariants,
)
from .topo_extension import (
    CompatibleChain,
    ExtensionSequence,
    ExtensionStep,
    apply_extension,
    compatible_chain,
    embed_vector,
    extend_basis,
    extension_sequence,
    gen,
)

__all__ = [name for name in dir() if not name.startswith("_")]
