"""Exact chip-firing games on directed multigraphs with a global sink.

The package computes with arbitrary-precision integers and exact rationals
throughout: graph Laplacians, stabilization with firing-script accounting,
minimum strongly positive scripts, critical and superstable recognition
with their duality, the energy order on configurations, and brute-force
oracles validating every recognizer on small graphs.
"""

from .digraph import (
    Digraph,
    build_digraph,
    digraph_from_json_dict,
    digraph_to_json_dict,
    from_reduced_laplacian,
    full_laplacian,
    laplacian_kernel,
    random_digraph,
    reduced_laplacian,
    source_components,
    strongly_connected_components,
)
from .dynamics import (
    StabilizationResult,
    apply_script,
    c_max,
    enumerate_stable,
    fire_one,
    is_legal_sequence,
    is_stable,
    stabilize,
    stabilize_random_policy,
    stabilize_within,
    stable_count,
)
from .errors import (
    ArcFromSinkError,
    BadMultiplicityError,
    ChipFiringError,
    EnumerationCapExceededError,
    GraphError,
    InvariantViolationError,
    LoopArcError,
    NegativeInputError,
    NegativeScriptError,
    NotLaplacianShapedError,
    NotStableError,
    SearchBoundExceededError,
    SingularMatrixError,
    SinkUnreachableError,
    StrongPositivityPostCheckError,
)
from .linalg import (
    det_adj,
    determinant,
    inverse,
    is_integral,
    rank_and_kernel,
    rational_to_str,
    solve_left,
    times_adj,
)
from .oracle import (
    CrossCheckReport,
    cross_check,
    determinant_cofactor,
    oracle_critical_energy_max,
    oracle_min_strong_script,
    oracle_superstable_box,
)
from .order import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    ClassReport,
    ConjectureScanReport,
    are_equivalent,
    cfg_compare,
    conjecture_scan,
    energy_vector,
    linseq_chain,
    partition_classes,
)
from .recognition import (
    DualityReport,
    critical_representative,
    duality_check,
    is_critical_bounded,
    is_critical_fixpoint,
    is_superstable,
    superstable_representative,
)
from .scripts import (
    greedy_script_steps,
    is_g_positive,
    is_g_strongly_positive,
    minimum_strong_script,
    script_image,
    strong_script_from_inverse,
)

__version__ = "0.1.0"
