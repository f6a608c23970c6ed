"""Community detection in multiplex networks by thresholded diffusion.

The package detects non-overlapping communities of node-layer pairs in
undirected, weighted multiplex networks.  Detection alternates diffusion
in a truncated spectral basis with pointwise thresholding; two bases are
supported ("mpbtv": bottom eigenpairs of the balanced cut operator,
"dgfm3": top eigenpairs of the modularity operator).  Partitions are
scored by multiplex modularity, and against ground truth by normalized
mutual information and greedy matched accuracy.
"""

from .eigensolver import (
    ConvergenceError,
    SpectralBasis,
    basis_for_method,
    largest_eigenpairs,
    load_basis,
    save_basis,
)
from .mbo import (
    DetectConfig,
    DetectResult,
    RunResult,
    detect,
    diffusion_step,
    mbo_run,
    random_onehot_init,
    threshold,
)
from .metrics import (
    EvalReport,
    balanced_tv_objective,
    evaluate,
    matched_accuracy,
    multiplex_modularity,
    nmi,
    oracle_max_modularity,
)
from .network import (
    DegreeData,
    MultiplexNetwork,
    NetworkFormatError,
    Partition,
    SparseSym,
    all_to_all_coupling,
    compute_degrees,
    gamma_vector,
    load_labels,
    load_network,
    load_partition,
    save_partition,
)
from .operators import LinearOperator, modularity_op, shifted_neg_lk_op

__version__ = "0.1.0"

# Every kernel is plain numpy; the flag stays for tools that record it.
USING_NUMBA = False

__all__ = [
    "USING_NUMBA",
    "ConvergenceError",
    "SpectralBasis",
    "basis_for_method",
    "largest_eigenpairs",
    "load_basis",
    "save_basis",
    "DetectConfig",
    "DetectResult",
    "RunResult",
    "detect",
    "diffusion_step",
    "mbo_run",
    "random_onehot_init",
    "threshold",
    "EvalReport",
    "balanced_tv_objective",
    "evaluate",
    "matched_accuracy",
    "multiplex_modularity",
    "nmi",
    "oracle_max_modularity",
    "DegreeData",
    "MultiplexNetwork",
    "NetworkFormatError",
    "Partition",
    "SparseSym",
    "compute_degrees",
    "gamma_vector",
    "load_labels",
    "load_network",
    "load_partition",
    "all_to_all_coupling",
    "save_partition",
    "LinearOperator",
    "modularity_op",
    "shifted_neg_lk_op",
    "__version__",
]
