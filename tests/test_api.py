"""The names the qbc package exports, and the contract their values keep."""

import dataclasses
import inspect
import types
import typing

import numpy as np
import pytest

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


def _arrays(value) -> list:
    """Every ndarray in value: itself, a tuple's items or a dataclass's fields, recursively."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value) for a in _arrays(getattr(value, f.name))]
    return []


def _holds_array(hint) -> bool:
    """Whether a type hint is an ndarray, or a tuple or dataclass type that holds one."""
    if hint is np.ndarray:
        return True
    if dataclasses.is_dataclass(hint):
        return any(map(_holds_array, typing.get_type_hints(hint).values()))
    return any(map(_holds_array, typing.get_args(hint)))


def _params():
    return qbc.optimal_params(0.9, 0.3)


def _povm4():
    return qbc.BinaryPOVM(np.eye(4), np.zeros((4, 4)))


# one row per exported routine whose result holds an ndarray and per exported
# type that validates and stores the arrays a caller passes; an id's part
# before "/" is the exported name
ARRAY_VALUES = {
    "ket": lambda: qbc.ket([0.6, 0.8]),
    "basis": lambda: qbc.basis(4, 3),
    "outer": lambda: qbc.outer(qbc.ket([0.6, 0.8j])),
    "partial_trace/ket": lambda: qbc.partial_trace(qbc.basis(4, 1), "first"),
    "partial_trace/operator": lambda: qbc.partial_trace(np.eye(4) / 4.0, "second"),
    "hermitian_eig/dim2": lambda: qbc.hermitian_eig(np.array([[1.0, 0.5], [0.5, 2.0]])),
    "hermitian_eig/dim4": lambda: qbc.hermitian_eig(np.diag([1.0, 2.0, 3.0, 4.0])),
    "pure_pair_kets": lambda: qbc.pure_pair_kets(0.4),
    "clone_state": lambda: qbc.clone_state(_params(), 1),
    "marginals": lambda: qbc.marginals(qbc.clone_state(_params(), 0)),
    "marginal_closed_form": lambda: qbc.marginal_closed_form(0.9, 0.3),
    "constraint_residuals": lambda: qbc.constraint_residuals(_params(), 0.9),
    "BinaryPOVM": lambda: qbc.BinaryPOVM(np.eye(2), np.zeros((2, 2))),
    "helstrom": lambda: qbc.helstrom(*qbc.marginal_closed_form(0.9, 0.3)),
    "clone_povm_closed_form": lambda: qbc.clone_povm_closed_form(0.3),
    "BinaryChannel": lambda: qbc.BinaryChannel(np.eye(2)),
    "bsc": lambda: qbc.bsc(0.1),
    "induced_channel": lambda: qbc.induced_channel(0.9, 0.3, qbc.clone_povm_closed_form(0.3)),
    "JointDistribution/nested": lambda: qbc.JointDistribution(("A", "B"), np.full((2, 2), 0.25)),
    "JointDistribution/flat": lambda: qbc.JointDistribution(("A", "B"), [0.25] * 4),
    "JointDistribution/fortran": lambda: qbc.JointDistribution(("A", "B"), np.asfortranarray(np.full((2, 2), 0.25))),
    "cascade_joint": lambda: qbc.cascade_joint(0.1, 0.2),
    "cascade_joint_channels": lambda: qbc.cascade_joint_channels(qbc.bsc(0.1), qbc.bsc(0.2)),
    "joint_clone_channel": lambda: qbc.joint_clone_channel(0.9, 0.3, qbc.clone_povm_closed_form(0.3)),
}


def test_array_values_table_is_complete():
    exported = {name: getattr(qbc, name) for name in PUBLIC_NAMES}
    routines = {
        name for name, v in exported.items()
        if inspect.isfunction(v) and _holds_array(typing.get_type_hints(v).get("return"))
    }
    validating_types = {
        name for name, v in exported.items()
        if isinstance(v, type) and "__post_init__" in vars(v) and _holds_array(v)
    }
    assert routines | validating_types == {key.split("/")[0] for key in ARRAY_VALUES}


@pytest.mark.parametrize("build", ARRAY_VALUES.values(), ids=list(ARRAY_VALUES))
def test_array_values_are_read_only_with_no_writable_base(build):
    arrays = _arrays(build())
    assert arrays
    for a in arrays:
        assert not a.flags.writeable
        assert a.base is None or not a.base.flags.writeable


# boundary ValueErrors of the public routines, each with its message fragment
BOUNDARY_ERRORS = {
    "basis/dim": (lambda: qbc.basis(3, 0), "dimension must be 2 or 4, got 3"),
    "basis/index": (lambda: qbc.basis(2, 2), "basis index 2 out of range for dim 2"),
    "marginals/unnormalized": (lambda: qbc.marginals(qbc.ket([1.0, 1.0, 0.0, 0.0])), "ket is not normalized"),
    "partial_trace/shape": (lambda: qbc.partial_trace(np.eye(2), "first"), "expects a dim-4 ket or 4x4 operator"),
    "hermitian_eig/shape": (lambda: qbc.hermitian_eig(np.eye(3)), "expects a square dim-2 or dim-4 matrix"),
    "BinaryChannel/3x3": (lambda: qbc.BinaryChannel(np.eye(3)), r"channel matrix must be 2x2, got \(3, 3\)"),
    "JointDistribution/repeated": (
        lambda: qbc.JointDistribution(("A", "A"), np.full((2, 2), 0.25)),
        "variable names must be distinct",
    ),
    "JointDistribution/negative": (
        lambda: qbc.JointDistribution(("A",), [1.5, -0.5]),
        "probabilities must be nonnegative",
    ),
    "mutual_information/unknown": (
        lambda: qbc.mutual_information(qbc.cascade_joint(0.1, 0.2), "S", "Q"),
        "variable 'Q' not in",
    ),
    "induced_channel/dim4": (lambda: qbc.induced_channel(0.9, 0.3, _povm4()), "POVM must act on dimension 2"),
    "joint_clone_channel/dim4": (
        lambda: qbc.joint_clone_channel(0.9, 0.3, _povm4()),
        "POVM must act on dimension 2",
    ),
    "helstrom/shapes": (lambda: qbc.helstrom(np.eye(2) / 2.0, np.eye(4) / 4.0), "dimension mismatch between states"),
    "clone_state/row": (lambda: qbc.clone_state(_params(), 2), "row index must be 0 or 1, got 2"),
}


@pytest.mark.parametrize("call, message", BOUNDARY_ERRORS.values(), ids=list(BOUNDARY_ERRORS))
def test_boundary_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
