"""Verifiable toolkit for Hamilton cycles in digraphs, oriented graphs
and tournaments: exact solvers and counters with validated certificates,
sufficient-condition checkers, extremal constructions, decomposition and
cover pipelines, and robust-outexpander machinery at desk scale.
"""

from .conditions import (
    CONNECTIVITY_RULES,
    DEGREE_RULES,
    SEQUENCE_RULES,
    Verdict,
    check,
)
from .constructions import (
    circulant_tournament,
    complete_bipartite_digraph,
    complete_digraph,
    complete_graph,
    directed_cycle,
    generate_extremal,
    random_digraph,
    random_regular_graph,
    random_regular_tournament,
    random_tournament,
    transitive_tournament,
)
from .core import (
    CycleFactor,
    DegreeSequencePair,
    Digraph,
    HamiltonCycle,
    Matching,
    blow_up,
    classify,
    contract_matching,
    degree_sequences,
    dominated_pairs,
    independence_numbers,
    is_oriented,
    is_strongly_connected,
    is_tournament,
    semidegrees,
    vertex_connectivity,
)
from .decomp import (
    Cover,
    CoverReport,
    Decomposition,
    EdgeColoring,
    cover_regular_graph,
    cover_tournament,
    decompose_exact,
    greedy_extract,
    split_matching,
    vizing_color,
    walecki,
)
from .errors import (
    ArcMissing,
    BadParams,
    BudgetExceeded,
    ClassMismatch,
    CoverFailure,
    DemandOverload,
    Disconnected,
    FormatError,
    HamdgError,
    MatchingFailure,
    MergeFailure,
    NotAMatching,
)
from .expander import (
    ClosedWalk,
    ClusterBlowup,
    OneFactorF,
    ReducedDigraph,
    ShiftedWalk,
    assemble_hamilton,
    build_closed_walk,
    is_robust_outexpander,
    make_cluster_blowup,
    robust_out_nbhd,
    shifted_walk,
)
from .io import dump, load, parse, serialize
from .solvers import (
    CountReport,
    OrientationPattern,
    count_hamilton,
    disjoint_cycle_factor,
    embed_tree,
    enumerate_hamilton_cycles,
    find_cycle_of_length,
    find_hamilton_cycle,
    hamilton_cycle_through,
    is_pancyclic,
    k_ordered_hamilton,
    kth_power_hamilton,
    one_factor,
    oriented_hamilton,
    oriented_hamilton_path,
    rotation_extension,
)

__version__ = "0.1.0"
