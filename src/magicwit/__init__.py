"""Bell-inequality bounds for multi-qudit systems.

Computes three numbers for a Bell inequality: the classical local bound,
the maximum over stabilizer states (via graph-state class enumeration),
and the maximum over all states of the fixed local Hilbert space.  A Bell
value above the stabilizer maximum witnesses non-stabilizerness (magic)
without trusting the devices, up to local unitaries.
"""

from magicwit.algebra import (
    clock_matrix,
    is_prime,
    is_unitary,
    kron,
    shift_matrix,
)
from magicwit.bell import (
    Behavior,
    BellInequality,
    behavior_from_state,
    catalog_cglmp,
    catalog_svetlichny_r2,
    catalog_tilted_chsh,
    evaluate,
    local_bound,
)
from magicwit.errors import ResourceLimitError
from magicwit.graphs import (
    AdjacencyMatrix,
    ClusterFamily,
    OrbitCatalog,
    cluster_representatives,
    enumerate_classes,
)
from magicwit.optimize import (
    OptimizationReport,
    OptimizerConfig,
    ScanRow,
    gap_scan,
    optimize_measurements,
    quantum_value,
    stabilizer_value,
    w_heatmap,
)
from magicwit.states import (
    GraphState,
    assemble_cluster_state,
    build_graph_state,
    build_graph_state_by_gates,
    cp_gate,
    plus_state,
    reduced_purity,
    stabilizer_generators,
    w_state,
)

__version__ = "0.1.0"
