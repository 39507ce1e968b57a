"""ekrlab: workbench for intersecting k-uniform set families.

Bitmask family primitives, extremal generators, maximal-family
enumeration, link/cover pattern detection, core-shrinking and star
certification with audit traces, and bound verification at desk scale.
"""

from .bounds import (
    certify_threshold_k1,
    certify_threshold_k2,
    codegree_bound,
    codegree_threshold,
    ekr_bound,
    hilton_milner_bound,
    shrink_threshold_k1,
    shrink_threshold_k2,
    shrink_vertex_bound_k1,
    shrink_vertex_bound_k2,
)
from .constructions import (
    Certificate,
    ConstructionTrace,
    DisjointEdges,
    LowCodegree,
    TracedFamily,
    Violation,
    ZeroCodegree,
    certify_star_k1,
    certify_star_k2,
    cherry_reduce,
    shrink_core_k1,
    shrink_core_k2,
)
from .family import (
    Family,
    FamilyParams,
    covers_size1,
    covers_size2,
    disjoint_pair,
    is_complete_star_on,
    is_intersecting,
)
from .generators import (
    Budget,
    EnumerationReport,
    ResourceLimitError,
    complete_star,
    enumerate_maximal_intersecting,
    enumeration_report,
    hilton_milner,
    is_maximal_intersecting,
    random_maximal_intersecting,
)
from .graphs import (
    PatternWitness,
    find_pattern,
    is_star_graph,
    is_subgraph_of_cherry,
    max_matching_upto,
    structure_sweep,
)
from .io import read_family, to_json, write_family
from .oracles import ExplicitOracle, FamilyOracle, StarOracle, link, min_degree, min_degree_scan
from .verify import BoundReport, SearchReport, check_theorem, search_counterexample

__version__ = "0.1.0"
