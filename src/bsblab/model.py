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
from typing import Any


class BsblabError(Exception):
    """Base of the package's own errors: a model or numerical fault, which
    the CLI reports with exit status 1."""


class OrderingViolation(BsblabError, ValueError):
    """Interval endpoints are not finite and strictly increasing."""


class NegativeDamping(BsblabError, ValueError):
    """A damping coefficient is negative or not finite."""


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
    """Geometry and damping coefficients of the composite structure."""

    l0: float
    l1: float
    l2: float
    l3: float
    rho1: float
    rho2: float
    beta: float


def validate_config(cfg: StructureConfig) -> StructureConfig:
    """Check a configuration and return it unchanged.

    Raises OrderingViolation unless l0 < l1 < l2 < l3 with finite endpoints,
    and NegativeDamping unless rho1, rho2, beta are finite and >= 0.
    Calling it twice is a no-op by construction.
    """
    ends = (cfg.l0, cfg.l1, cfg.l2, cfg.l3)
    if not all(math.isfinite(x) for x in ends):
        raise OrderingViolation(f"interval endpoints must be finite, got {ends}")
    if not (cfg.l0 < cfg.l1 < cfg.l2 < cfg.l3):
        raise OrderingViolation(
            f"interval endpoints must satisfy l0 < l1 < l2 < l3, got {ends}"
        )
    for name in ("rho1", "rho2", "beta"):
        value = getattr(cfg, name)
        if not math.isfinite(value) or value < 0:
            raise NegativeDamping(f"{name} must be finite and >= 0, got {value}")
    return cfg


def classify_damping(cfg: StructureConfig) -> DampingCase:
    """Map a valid configuration to its damping case.

    The comparison against zero is exact: a coefficient counts as "on" only
    when it is strictly positive. The four tags partition the valid space.
    """
    validate_config(cfg)
    beams_on = cfg.rho1 > 0 and cfg.rho2 > 0
    beams_off = cfg.rho1 == 0 and cfg.rho2 == 0
    if beams_on and cfg.beta > 0:
        return DampingCase.DDD
    if beams_off and cfg.beta > 0:
        return DampingCase.UDU
    if beams_off and cfg.beta == 0:
        return DampingCase.CONSERVATIVE
    return DampingCase.OTHER


@dataclass
class InitialData:
    """Initial displacement and velocity profiles, one pair per member.

    u0/u1 live on the first beam, v0/v1 on the string, w0/w1 on the second
    beam (displacement first, velocity second). A beam profile is a
    (value, slope) pair of callables of x, a string profile one callable of
    x; interpolation raises TypeError on anything else.

    Valid data is clamped at the outer ends and continuous at the two
    junctions; interpolation checks the junction values and rejects
    mismatches.
    """

    u0: Any
    u1: Any
    v0: Any
    v1: Any
    w0: Any
    w1: Any


def default_initial_data(cfg: StructureConfig) -> InitialData:
    """Canonical deterministic initial state: a lifted plateau, at rest.

    The beams ramp quadratically from their clamped ends up to unit
    deflection at the junctions and the string sits flat at unit height.
    Quadratic ramps keep the profile inside every discrete space, so the
    interpolant is mesh-independent. All velocities are zero.
    """
    len1 = cfg.l1 - cfg.l0
    len3 = cfg.l3 - cfg.l2

    # the slopes divide twice rather than by length**2, which under- or
    # overflows on extreme but valid geometry
    def u_val(x):
        return ((x - cfg.l0) / len1) ** 2

    def u_slope(x):
        return 2.0 * ((x - cfg.l0) / len1) / len1

    def w_val(x):
        return ((cfg.l3 - x) / len3) ** 2

    def w_slope(x):
        return -2.0 * ((cfg.l3 - x) / len3) / len3

    def flat(x):
        return 1.0

    def zero(x):
        return 0.0

    return InitialData(
        u0=(u_val, u_slope),
        u1=(zero, zero),
        v0=flat,
        v1=zero,
        w0=(w_val, w_slope),
        w1=(zero, zero),
    )
