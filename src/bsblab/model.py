"""Problem definition for the damped beam-string-beam structure.

Two Euler-Bernoulli beams occupy the outer intervals (l0, l1) and (l2, l3)
and are clamped at the outer ends. A string occupies the middle interval
(l1, l2) and is tied to the beam tips, so the transverse displacement is
continuous across the two junctions. Each damping coefficient acts on one
member: rho1 and rho2 damp the beams through the mixed u_txx term, beta
damps the string through the frictional u_t term.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class BsblabError(Exception):
    """Base of the package's own errors: a model or numerical fault, which
    the CLI reports with exit status 1."""


class ModelError(BsblabError, ValueError):
    """The input is outside what the model or float64 can take."""


class NumericalError(BsblabError, RuntimeError):
    """A factorization, solve or eigensolve broke down."""


class DampingCase(enum.Enum):
    """Which members carry damping.

    DDD: every member damped (rho1 > 0, beta > 0, rho2 > 0).
    UDU: only the string damped (rho1 = rho2 = 0, beta > 0).
    Conservative: no damping at all.
    Other: any remaining combination.
    """

    DDD = "DDD"
    UDU = "UDU"
    CONSERVATIVE = "Conservative"
    OTHER = "Other"


@dataclass(frozen=True)
class StructureConfig:
    """Geometry and damping coefficients of the composite structure.

    Valid by construction: construction, dataclasses.replace's included,
    raises ModelError unless l0 < l1 < l2 < l3 with finite endpoints and
    rho1, rho2, beta are finite and >= 0.
    """

    l0: float
    l1: float
    l2: float
    l3: float
    rho1: float
    rho2: float
    beta: float

    def __post_init__(self):
        ends = (self.l0, self.l1, self.l2, self.l3)
        if not all(math.isfinite(x) for x in ends):
            raise ModelError(f"interval endpoints must be finite, got {ends}")
        if not (self.l0 < self.l1 < self.l2 < self.l3):
            raise ModelError(f"interval endpoints must satisfy l0 < l1 < l2 < l3, got {ends}")
        for name in ("rho1", "rho2", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ModelError(f"{name} must be finite and >= 0, got {value}")


def classify_damping(cfg: StructureConfig) -> DampingCase:
    """Map a valid configuration to its damping case.

    The comparison against zero is exact: a coefficient counts as "on" only
    when it is strictly positive. The four tags partition the valid space.
    """
    beams_on = cfg.rho1 > 0 and cfg.rho2 > 0
    beams_off = cfg.rho1 == 0 and cfg.rho2 == 0
    if beams_on and cfg.beta > 0:
        return DampingCase.DDD
    if beams_off and cfg.beta > 0:
        return DampingCase.UDU
    if beams_off and cfg.beta == 0:
        return DampingCase.CONSERVATIVE
    return DampingCase.OTHER
