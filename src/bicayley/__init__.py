"""Exact toolkit for bi-Cayley graphs over metacyclic p-groups."""

from .bicay import (
    BiCayleyGraph,
    MapResult,
    QuotientReport,
    apply_group_automorphism,
    build,
    delta_map,
    is_connected,
    normalize_S,
    quotient_graph,
    right_group,
    right_translation,
    sigma_map,
    spoke_stabilizer_maps,
    swap_parts,
)
from .families import (
    CensusClass,
    CensusResult,
    FamilySpec,
    abelian_family,
    build_family,
    census,
    find_lambda,
    gamma_group,
    gamma_t,
    sigma_group,
    sigma_t,
    verify_semisymmetric_family,
    verify_symmetric_family,
)
from .graphs import (
    Graph,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    parse_edge_list,
    parse_graph_text,
)
from .metacyclic import (
    AbelianPairGroup,
    Element,
    GroupMap,
    MetacyclicGroup,
    PairGroup,
    check_generator_images,
    identity_map,
    is_automorphism_pair,
    make_automorphism,
    make_group,
)
from .permgroup import PermGroup, compose, identity, invert, orbit_of_tuple
from .symmetry import (
    SymmetryReport,
    aut_group,
    canonical_digest,
    canonical_form,
    canonical_search,
    check_normal_bicayley,
    check_stabilizer_law,
    classify,
)

__version__ = "0.1.0"
