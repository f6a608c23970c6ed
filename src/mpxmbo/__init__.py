"""Community detection in multiplex networks by thresholded diffusion.

The package detects non-overlapping communities of node-layer pairs in
undirected, weighted multiplex networks.  Detection alternates diffusion
in a truncated spectral basis with pointwise thresholding; two bases are
supported ("mpbtv": bottom eigenpairs of the balanced cut operator,
"dgfm3": top eigenpairs of the modularity operator).  Partitions are
scored by multiplex modularity, and against ground truth by normalized
mutual information and greedy matched accuracy.
"""

from . import eigensolver, mbo, metrics, network, operators
from .eigensolver import *  # noqa: F403
from .mbo import *  # noqa: F403
from .metrics import *  # noqa: F403
from .network import *  # noqa: F403
from .operators import *  # noqa: F403

__version__ = "0.1.0"

# Every kernel is plain numpy; the flag stays for tools that record it.
USING_NUMBA = False

# each module's __all__ is the one list of its public names
__all__ = ["USING_NUMBA", "__version__"] + [
    name for module in (eigensolver, mbo, metrics, network, operators) for name in module.__all__
]
