"""Correlation dynamics of the 1d transverse Ising pair state under decoherence.

Builds the two-qubit reduced density matrix of the transverse Ising ground
state, evolves it through local Markovian channels, splits the mutual
information into classical and quantum (discord) parts, and locates the
dynamical features whose coupling-derivatives diverge at the critical
point.
"""

from .channels import (
    ChannelKind,
    KrausSet,
    PhysicalityError,
    XFormError,
    evolve_pair,
    kraus_set,
    parametrized_time,
    parse_channel,
    project_xstate,
)
from .correlations import (
    Branch,
    CoefficientVector,
    CorrelationBreakdown,
    InvalidXStateError,
    Spectrum,
    XState,
    branch_values,
    coefficients,
    discord,
    discord_oracle,
    mutual_information,
    random_xstates,
    shannon_entropy_bits,
    single_qubit_entropy,
    spectrum,
)
from .criticality import (
    CriticalSignature,
    DerivativeEstimate,
    PSweepRow,
    Quantity,
    critical_signature,
    derivative_scan,
    find_crossings,
    find_p_sc,
    sweep_lambda,
    sweep_p,
)
from .numerics import (
    BracketError,
    QuadratureError,
    QuadratureSpec,
    RootBracket,
    central_difference,
    determinant,
    find_root,
)
from .tim_ground_state import (
    GroundStateCorrelators,
    ModelParams,
    correlators,
    dispersion,
    g_coefficient,
    magnetization,
    pair_state,
    reduced_density,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BracketError",
    "ChannelKind",
    "CoefficientVector",
    "CorrelationBreakdown",
    "CriticalSignature",
    "DerivativeEstimate",
    "GroundStateCorrelators",
    "InvalidXStateError",
    "KrausSet",
    "ModelParams",
    "PSweepRow",
    "PhysicalityError",
    "Quantity",
    "QuadratureError",
    "QuadratureSpec",
    "RootBracket",
    "Spectrum",
    "XFormError",
    "XState",
    "branch_values",
    "central_difference",
    "coefficients",
    "correlators",
    "critical_signature",
    "derivative_scan",
    "determinant",
    "discord",
    "discord_oracle",
    "dispersion",
    "evolve_pair",
    "find_crossings",
    "find_p_sc",
    "find_root",
    "g_coefficient",
    "kraus_set",
    "magnetization",
    "mutual_information",
    "pair_state",
    "parametrized_time",
    "parse_channel",
    "project_xstate",
    "random_xstates",
    "reduced_density",
    "shannon_entropy_bits",
    "single_qubit_entropy",
    "spectrum",
    "sweep_lambda",
    "sweep_p",
]
