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
    ModelError,
    NumericalError,
    StructureConfig,
    classify_damping,
)
from .fem import (
    Mesh,
    StateVector,
    SystemPencil,
    assemble_pencil,
    build_mesh,
    discretize,
    interpolate,
)
from .dynamics import (
    EnergyTrace,
    SimOutput,
    default_dt,
    dissipation,
    energy,
    simulate,
)
from .spectral import (
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
    VerificationReport,
    certify_decay,
    cross_validate,
    fit_decay,
    render_report,
)

__version__ = "0.1.0"

__all__ = [
    "BsblabError",
    "DampingCase",
    "ModelError",
    "NumericalError",
    "StructureConfig",
    "classify_damping",
    "Mesh",
    "StateVector",
    "SystemPencil",
    "assemble_pencil",
    "build_mesh",
    "discretize",
    "interpolate",
    "EnergyTrace",
    "SimOutput",
    "default_dt",
    "dissipation",
    "energy",
    "simulate",
    "ResolventTable",
    "SpectrumReport",
    "axis_grid",
    "eigenmode",
    "eigenvalues",
    "resolvent_sweep",
    "DecayCertificate",
    "DecayFit",
    "InvariantResult",
    "VerificationReport",
    "certify_decay",
    "cross_validate",
    "fit_decay",
    "render_report",
    "__version__",
]
