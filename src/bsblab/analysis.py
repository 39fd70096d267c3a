"""Decay-rate fitting, decay certification, and the verification report.

The certification loop is: take the eigenpair with the largest real part,
propagate it with the energy-exact trapezoidal scheme, fit a line to
(t, log E), and compare the fitted rate alpha against twice the spectral
abscissa. For a clean single mode the trace is log-linear to roundoff and
the ratio sits at 1 up to the O((dt |mu|)^2) distortion of the scheme.

The verdict is one record, DecayCertificate: certify_decay returns it
and decay.json is its fields. Alongside the decay run, cross_validate
executes one named check per invariant that depends on the run (config,
mesh, spectrum, simulation); invariants that hold whatever the run live
in the unit tests. It returns a VerificationReport that holds the
certificate next to the invariant results; report.json is the
certificate's fields plus those of the report. One writer, _render_json,
produces the text of both files, so a field added to DecayCertificate
appears in both.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, fem, spectral
from .dynamics import (
    EnergyTrace,
    SimOutput,
    default_dt,
    simulate,
)
from .fem import DofMap, Mesh, StateVector, SystemPencil
from .model import DampingCase, StructureConfig, default_initial_data
from .spectral import eigenvalues


class NonpositiveEnergy(ValueError):
    """log E is undefined: the fit window contains E <= 0."""


class WindowTooSmall(ValueError):
    """Fewer than 10 trace samples fall inside the fit window."""


@dataclass
class DecayFit:
    """Least-squares line through (t, log E): E(t) ~ exp(log_c - alpha t)."""

    alpha: float
    log_c: float
    r_squared: float
    window: tuple
    n_samples: int


def fit_decay(trace: EnergyTrace, window: tuple | None = None) -> DecayFit:
    """Fit log E(t) over a time window, default [0.2, 0.9] * t_end.

    Plain normal equations; raises WindowTooSmall below 10 samples and
    NonpositiveEnergy when the window holds a nonpositive energy value.
    """
    t_end = float(trace.times[-1])
    if window is None:
        window = (0.2 * t_end, 0.9 * t_end)
    lo, hi = float(window[0]), float(window[1])
    mask = (trace.times >= lo) & (trace.times <= hi)
    n = int(np.count_nonzero(mask))
    if n < 10:
        raise WindowTooSmall(f"window [{lo}, {hi}] holds {n} samples, need >= 10")
    e = trace.energy[mask]
    if np.any(e <= 0):
        raise NonpositiveEnergy("window contains nonpositive energy values")
    t = trace.times[mask]
    y = np.log(e)
    tc = t - t.mean()
    yc = y - y.mean()
    slope = float((tc @ yc) / (tc @ tc))
    intercept = float(y.mean() - slope * t.mean())
    ss_res = float(np.sum((yc - slope * tc) ** 2))
    ss_tot = float(yc @ yc)
    if ss_tot > 0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res <= 1e-28 else 0.0
    return DecayFit(alpha=-slope, log_c=intercept, r_squared=r_squared,
                    window=(lo, hi), n_samples=n)


@dataclass
class InvariantResult:
    name: str
    passed: bool
    residual: float
    note: str = ""


@dataclass
class VerificationReport:
    """A decay certificate and the invariant sweep around the same run.

    certificate is the record certify_decay returns for the run;
    min_axis_distance is the spectrum's smallest |Re mu|, mesh_counts the
    elements per member and invariant_results one InvariantResult per
    registered check. all_pass holds when every check passed and the
    certificate's ratio_check is not a fail.
    """

    certificate: DecayCertificate
    min_axis_distance: float
    mesh_counts: tuple
    invariant_results: list

    @property
    def all_pass(self) -> bool:
        return (all(r.passed for r in self.invariant_results)
                and not self.certificate.ratio_check.endswith("_fail"))


# ratio bounds per regime for the two-sided check; the one-sided fallback
# (used when the fit quality drops, e.g. a defective slowest mode) accepts
# alpha >= 1.8 |abscissa| (1 - 0.05).
_RATIO_BOUNDS = {
    DampingCase.DDD: (0.9, 1.1),
    DampingCase.UDU: (0.8, 1.2),
    DampingCase.OTHER: (0.9, 1.1),
}
_R2_THRESHOLD = 0.999


def _numerically_undamped(spect) -> bool:
    """Whether the abscissa is rounding-level relative to the spectrum.

    Damping confined to part of the structure can leave discrete modes
    with |Re| at eigensolver noise (1e-10 of the eigenvalue scale keeps
    two orders of margin against noise on one side and against the
    weakest genuinely damped case measured on the other). Fitting a rate
    against such an abscissa compares rounding with rounding, so rate
    certification is declared not applicable.
    """
    scale = max(1.0, float(np.abs(spect.eigenvalues).max()))
    return abs(spect.abscissa) <= 1e-10 * scale


def _ratio_check(regime: DampingCase, fit: DecayFit, spect, ratio: float) -> str:
    if fit.r_squared >= _R2_THRESHOLD:
        lo, hi = _RATIO_BOUNDS[regime]
        return "two_sided_pass" if lo <= ratio <= hi else "two_sided_fail"
    ok = fit.alpha >= 1.8 * abs(spect.abscissa) * 0.95
    return "one_sided_pass" if ok else "one_sided_fail"


@dataclass
class DecayCertificate:
    """Measured energy decay of the slowest mode against the spectrum.

    alpha_fit is the fitted energy rate, ratio its quotient by twice the
    spectral abscissa (nan when conservative), and ratio_check the verdict
    string (two_sided_pass and friends).
    """

    regime: str
    abscissa: float
    mode: complex
    alpha_fit: float
    ratio: float
    r_squared: float
    ratio_check: str
    dt: float
    t_final: float


def _certify(cfg: StructureConfig, pencil: SystemPencil,
             dt: float | None, t_final: float | None):
    """Slowest-mode run with a timestep that resolves the mode, fitted and judged.

    Returns the certificate, the spectrum report (its last eigenvalue is
    the mode), the complex unit-energy mode state and the run.

    The default dt is min(1e-3 slowest-string-period, 0.1/|mu|); the
    trapezoidal rate distortion is then at most (0.1)^2/4, a quarter of a
    percent. The default duration covers 25 e-foldings of the mode but is
    clamped to [200, 10000] steps. Explicit dt or t_final win over the
    defaults. When there is no decay to fit (conservative regime, or an
    abscissa at eigensolver noise) the ratio is nan and the verdict
    not_applicable.
    """
    spect = eigenvalues(pencil)
    mu = complex(spect.eigenvalues[-1])
    y0 = spectral.eigenmode(pencil, mu)
    if dt is None:
        dt = min(default_dt(cfg), 0.1 / max(abs(mu), 1e-12))
    if t_final is None:
        t_final = 10.0
        if mu.real != 0:
            t_final = min(t_final, 25.0 / (2.0 * abs(mu.real)))
        steps = min(10000, max(200, int(round(t_final / dt))))
        t_final = steps * dt
    sim = simulate(pencil, y0, dt, t_final)
    fit = fit_decay(sim.trace)
    regime = pencil.regime
    if regime is DampingCase.CONSERVATIVE or _numerically_undamped(spect):
        ratio, verdict = math.nan, "not_applicable"
    else:
        ratio = fit.alpha / (2.0 * abs(spect.abscissa))
        verdict = _ratio_check(regime, fit, spect, ratio)
    cert = DecayCertificate(
        regime=regime.value,
        abscissa=spect.abscissa,
        mode=mu,
        alpha_fit=fit.alpha,
        ratio=ratio,
        r_squared=fit.r_squared,
        ratio_check=verdict,
        dt=dt,
        t_final=t_final,
    )
    return cert, spect, y0, sim


def certify_decay(
    cfg: StructureConfig,
    pencil: SystemPencil,
    dt: float | None = None,
    t_final: float | None = None,
) -> DecayCertificate:
    """Run the slowest mode, fit its decay, compare with the abscissa.

    The lightweight sibling of cross_validate: same certificate, none of
    the invariant sweep.
    """
    return _certify(cfg, pencil, dt, t_final)[0]


@dataclass
class _Context:
    cfg: StructureConfig
    mesh: Mesh
    dofs: DofMap
    pencil: SystemPencil
    spect: spectral.SpectrumReport
    sim: SimOutput
    mode_state: StateVector
    certificate: DecayCertificate


def _check_step_energy_balance(ctx):
    """E_{k+1} - E_k = dt * dissipation(midpoint) over 50 steps from the plateau.

    E_k is the run's own energy record; the midpoint dissipation comes
    from the stored states.
    """
    dt = ctx.certificate.dt
    y0 = fem.interpolate(default_initial_data(ctx.cfg), ctx.mesh, ctx.dofs)
    sim = simulate(ctx.pencil, y0, dt, 50 * dt, snapshot_every=1)
    e = sim.trace.energy
    states = [y for _, y in sim.snapshots]
    worst = 0.0
    for k, (y, y_next) in enumerate(zip(states, states[1:])):
        mid = StateVector(0.5 * (y.p + y_next.p), 0.5 * (y.q + y_next.q))
        resid = abs(e[k + 1] - e[k] - dt * dynamics.dissipation(ctx.pencil, mid))
        worst = max(worst, resid / max(e[k], 1e-300))
    return worst <= 1e-9, worst, "50 trapezoidal steps, midpoint identity"


def _check_energy_monotone(ctx):
    e = ctx.sim.trace.energy
    if ctx.pencil.regime is DampingCase.CONSERVATIVE:
        resid = abs(float(e[-1]) / float(e[0]) - 1.0)
        return resid <= 1e-9, resid, "undamped: relative drift over the run"
    upticks = float(np.max(np.diff(e), initial=0.0))
    resid = max(0.0, upticks) / max(float(e[0]), 1e-300)
    return resid <= 1e-9, resid, "damped: largest uptick, relative"


def _check_string_damping_spectrum_gap(ctx):
    mu = ctx.spect.eigenvalues
    if ctx.pencil.regime is not DampingCase.UDU:
        return True, 0.0, "only meaningful when damping is confined to the string"
    band = mu[np.abs(mu.imag) <= 50.0]
    band_min = float(np.min(np.abs(band.real))) if band.size else math.nan
    note = (f"min|Re| = {ctx.spect.min_axis_distance:.6g} overall, "
            f"{band_min:.6g} on |Im| <= 50")
    return bool(np.all(mu.real < 0)), float(np.max(mu.real)), note


def _check_resolvent_lower_bound(ctx):
    mu = ctx.spect.eigenvalues
    lambdas = np.array([-31.4, -5.0, 0.0, 3.7, 11.3, 26.9, 50.0])
    norms = spectral.resolvent_sweep(ctx.spect, lambdas).norms
    worst = 0.0
    for lam, norm in zip(lambdas.tolist(), norms.tolist()):
        dist = float(np.min(np.abs(1j * lam - mu)))
        if dist == 0.0:
            if not math.isinf(norm):
                worst = max(worst, 1.0)
            continue
        if math.isinf(norm):
            continue
        worst = max(worst, (1.0 / dist) / norm - 1.0)
    return worst <= 1e-9, max(0.0, worst), "norm >= 1/dist(i lambda, spectrum)"


def _check_abscissa_nonpositive(ctx):
    scale = max(1.0, float(np.max(np.abs(ctx.spect.eigenvalues))))
    ok = ctx.spect.abscissa <= 1e-8 * scale
    return ok, ctx.spect.abscissa, "dissipativity bound on the spectrum"


# the fit checks read _certify's verdict on whether there is a decay to fit
_NOTHING_TO_FIT = "ratio_check is not_applicable: no decay to fit"


def _check_fit_timestep_invariance(ctx):
    if ctx.certificate.ratio_check == "not_applicable":
        return True, 0.0, _NOTHING_TO_FIT
    dt = ctx.certificate.dt
    tr = ctx.sim.trace
    # ctx.sim is the mode run (same pencil, start and dt), so its first k
    # steps are the dt side of the comparison; only the dt/2 run is new
    k = min(1000, tr.times.size - 1)
    a = fit_decay(EnergyTrace(times=tr.times[:k + 1], energy=tr.energy[:k + 1],
                              dissipation=tr.dissipation[:k + 1], cross=tr.cross[:k + 1]))
    b = fit_decay(simulate(ctx.pencil, ctx.mode_state, dt / 2, k * dt).trace)
    denom = max(abs(a.alpha), 2.0 * abs(ctx.spect.abscissa), 1e-9)
    resid = abs(b.alpha - a.alpha) / denom
    return resid <= 0.01, resid, "alpha of the mode run under dt -> dt/2"


def _check_window_convergence(ctx):
    if ctx.certificate.ratio_check == "not_applicable":
        return True, 0.0, _NOTHING_TO_FIT
    t_end = float(ctx.sim.trace.times[-1])
    denom = 2.0 * abs(ctx.spect.abscissa)
    offsets = []
    for start in (0.2, 0.4, 0.6):
        f = fit_decay(ctx.sim.trace, window=(start * t_end, 0.9 * t_end))
        offsets.append(abs(f.alpha / denom - 1.0))
    ok = offsets[2] <= offsets[0] + 1e-6
    return ok, offsets[2], "|ratio - 1| at window starts 0.2, 0.4, 0.6"


_REGISTRY = [
    ("dynamics.step_energy_balance", _check_step_energy_balance),
    ("dynamics.energy_monotone", _check_energy_monotone),
    ("spectral.string_damping_spectrum_gap", _check_string_damping_spectrum_gap),
    ("spectral.resolvent_lower_bound", _check_resolvent_lower_bound),
    ("spectral.abscissa_nonpositive", _check_abscissa_nonpositive),
    ("analysis.fit_timestep_invariance", _check_fit_timestep_invariance),
    ("analysis.window_convergence", _check_window_convergence),
]


def cross_validate(
    cfg: StructureConfig,
    mesh: Mesh,
    dofs: DofMap,
    pencil: SystemPencil,
    dt: float | None = None,
    t_final: float | None = None,
) -> VerificationReport:
    """Decay certification plus the full invariant sweep.

    Takes the certificate of certify_decay (the same slowest-mode run, fit
    and verdict) and evaluates every named invariant check once. When
    there is no decay to fit (conservative regime, or partial damping
    that leaves the abscissa at eigensolver noise) alpha comes out near
    zero, the ratio is reported as nan and the ratio check as
    not_applicable.
    """
    cert, spect, y0, sim = _certify(cfg, pencil, dt, t_final)
    ctx = _Context(cfg=cfg, mesh=mesh, dofs=dofs, pencil=pencil, spect=spect,
                   sim=sim, mode_state=y0, certificate=cert)
    results = []
    for name, check in _REGISTRY:
        passed, residual, note = check(ctx)
        results.append(InvariantResult(name=name, passed=bool(passed),
                                       residual=float(residual), note=note))

    return VerificationReport(
        certificate=cert,
        min_axis_distance=spect.min_axis_distance,
        mesh_counts=(mesh.n1, mesh.n2, mesh.n3),
        invariant_results=results,
    )


# --- deterministic report rendering ----------------------------------------

def _json_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x + 0.0, ".17g")
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot render {type(value)}")


def _render_json(fields: dict) -> str:
    """JSON text of one flat record: sorted keys, two-space indent.

    Scalars go through _json_scalar (floats with 17 significant digits,
    non-finite values as the strings "nan"/"inf"/"-inf"), a tuple (the
    mesh counts) is written inline, and a list (the invariant results)
    holds one dataclass per line with its fields in declaration order.
    Nothing depends on time or environment, so reruns are byte-identical.
    """
    def value(v):
        if isinstance(v, tuple):
            return "[" + ", ".join(map(_json_scalar, v)) + "]"
        if isinstance(v, list):
            rows = ("    {" + ", ".join(f'"{f.name}": {_json_scalar(getattr(r, f.name))}'
                                        for f in dataclasses.fields(r)) + "}" for r in v)
            return "[\n" + ",\n".join(rows) + "\n  ]"
        return _json_scalar(v)

    body = ",\n".join(f'  "{key}": {value(fields[key])}' for key in sorted(fields))
    return "{\n" + body + "\n}\n"


def _certificate_fields(cert: DecayCertificate) -> dict:
    # every field but the complex mode, which JSON has no number for
    return {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert) if f.name != "mode"}


def render_decay(cert: DecayCertificate) -> str:
    """decay.json text: the certificate, its mode split into mode_re and mode_im."""
    return _render_json({**_certificate_fields(cert),
                         "mode_re": cert.mode.real, "mode_im": cert.mode.imag})


def render_report(report: VerificationReport) -> str:
    """report.json text: the certificate without its mode, plus the report."""
    return _render_json({
        **_certificate_fields(report.certificate),
        "all_pass": report.all_pass,
        "invariant_results": report.invariant_results,
        "mesh": report.mesh_counts,
        "min_axis_distance": report.min_axis_distance,
    })
