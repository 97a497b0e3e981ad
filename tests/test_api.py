"""The names the qbc package exports."""

import types

import qbc

# A name added to or removed from this tuple is a change to the public
# contract, to be recorded in CHANGES.md.
PUBLIC_NAMES = (
    "BinaryChannel",
    "BinaryPOVM",
    "CloneParams",
    "DiscriminationResult",
    "EigDecomposition",
    "InfeasibleParamsError",
    "JointDistribution",
    "NUMBA_ENABLED",
    "OptimizationFailure",
    "OptimizationReport",
    "OptimizerConfig",
    "RatePoint",
    "basis",
    "binary_convolution",
    "binary_entropy",
    "bsc",
    "cascade_joint",
    "cascade_joint_channels",
    "check_degraded",
    "clone_entanglement",
    "clone_povm_closed_form",
    "clone_state",
    "conditional_mutual_information",
    "constraint_residuals",
    "error_of_povm",
    "helstrom",
    "hermitian_eig",
    "induced_channel",
    "joint_clone_channel",
    "ket",
    "lambda_objective",
    "marginal_closed_form",
    "marginals",
    "maximize_lambda",
    "mutual_information",
    "optimal_params",
    "outer",
    "partial_trace",
    "pure_pair_error",
    "pure_pair_kets",
    "random_feasible_params",
    "rate_region_closed_form",
    "rate_region_oracle",
    "von_neumann_entropy",
)


def test_exported_names():
    exported = sorted(
        name
        for name, value in vars(qbc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert tuple(exported) == PUBLIC_NAMES
