"""Broadcast cloning of a two-state qubit source.

Library layout:
  hilbert         kets, outer products, partial traces, eigensolver, entropy
  discrimination  minimum-error two-state measurements
  cloner          the symmetric cloning family, its objective, entanglement
  optimizer       multi-start ascent on the sphere S^2 re-deriving the optimum
  infochannel     induced channels, degraded cascade, rate region
  cli / reports   the qbc executable and its JSON/CSV reports
  verify          invariant suites behind `qbc verify`
"""

from .cloner import (
    CloneParams,
    clone_entanglement,
    clone_state,
    constraint_residuals,
    lambda_objective,
    marginal_closed_form,
    marginals,
    optimal_params,
)
from .discrimination import (
    BinaryPOVM,
    DiscriminationResult,
    binary_entropy,
    clone_povm_closed_form,
    error_of_povm,
    helstrom,
    pure_pair_error,
    pure_pair_kets,
)
from .errors import (
    InfeasibleParamsError,
    OptimizationFailure,
)
from .hilbert import (
    EigDecomposition,
    basis,
    hermitian_eig,
    ket,
    outer,
    partial_trace,
    von_neumann_entropy,
)
from .infochannel import (
    BinaryChannel,
    JointDistribution,
    RatePoint,
    binary_convolution,
    bsc,
    cascade_joint,
    cascade_joint_channels,
    check_degraded,
    conditional_mutual_information,
    induced_channel,
    joint_clone_channel,
    mutual_information,
    rate_region_closed_form,
    rate_region_oracle,
)
from .optimizer import (
    OptimizationReport,
    OptimizerConfig,
    maximize_lambda,
    random_feasible_params,
)

__version__ = "0.1.0"

# Read and reported by the benchmark harness (qbcbench/run.py); the next
# change to the benchmark's definition removes it.
NUMBA_ENABLED = False
