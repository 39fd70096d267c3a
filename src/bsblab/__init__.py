"""Damped beam-string-beam transmission lab.

Discretizes a serially coupled structure (two fourth-order beams joined by
a second-order string, clamped at the outer ends) into the first-order
pencil B y' = K y, integrates it with an energy-exact trapezoidal rule,
and certifies exponential energy decay against the pencil spectrum and
resolvent. See README.md for the layout and the CLI.
"""

from .model import (
    BsblabError,
    DampingCase,
    NegativeDamping,
    OrderingViolation,
    StructureConfig,
    classify_damping,
    validate_config,
)
from .fem import (
    Mesh,
    NonfiniteElement,
    NonpositiveLength,
    RecordTooLarge,
    StateVector,
    SystemPencil,
    ZeroElements,
    assemble_pencil,
    build_mesh,
    discretize,
    interpolate,
)
from .dynamics import (
    DimensionMismatch,
    EnergyTrace,
    SimOutput,
    SolveFailure,
    default_dt,
    dissipation,
    energy,
    simulate,
)
from .spectral import (
    FactorizationFailure,
    NonpositiveParameter,
    ResolventTable,
    SpectrumReport,
    axis_grid,
    eigenmode,
    eigenvalues,
    resolvent_sweep,
)
from .analysis import (
    DecayCertificate,
    DecayFit,
    InvariantResult,
    NonpositiveEnergy,
    UnresolvedMode,
    VerificationReport,
    WindowTooSmall,
    certify_decay,
    cross_validate,
    fit_decay,
    render_report,
)

__version__ = "0.1.0"

__all__ = [
    "BsblabError",
    "DampingCase",
    "NegativeDamping",
    "OrderingViolation",
    "StructureConfig",
    "classify_damping",
    "validate_config",
    "Mesh",
    "NonfiniteElement",
    "NonpositiveLength",
    "RecordTooLarge",
    "StateVector",
    "SystemPencil",
    "ZeroElements",
    "assemble_pencil",
    "build_mesh",
    "discretize",
    "interpolate",
    "DimensionMismatch",
    "EnergyTrace",
    "SimOutput",
    "SolveFailure",
    "default_dt",
    "dissipation",
    "energy",
    "simulate",
    "FactorizationFailure",
    "NonpositiveParameter",
    "ResolventTable",
    "SpectrumReport",
    "axis_grid",
    "eigenmode",
    "eigenvalues",
    "resolvent_sweep",
    "DecayCertificate",
    "DecayFit",
    "InvariantResult",
    "NonpositiveEnergy",
    "UnresolvedMode",
    "VerificationReport",
    "WindowTooSmall",
    "certify_decay",
    "cross_validate",
    "fit_decay",
    "render_report",
    "__version__",
]
